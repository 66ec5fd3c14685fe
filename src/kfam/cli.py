"""Command-line front end.

Every subcommand emits a single JSON report on stdout:

    {schema, command, params, results, checks, runtime_ms}

where each entry of checks carries {name, pass, lhs, rhs} so a failed
comparison is diagnosable from the report alone.  Exit status: 0 when all
checks pass, 1 when any check fails, 2 on usage or domain errors (among them
``switch`` on a family with n < 2k), 3 when an internal invariant fails,
which is a bug.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from .certify import GRID_CHECKS, certify_grid
from .constructions import c3, cross_closure, full_star, hilton_milner, t2, t2prime
from .covers import (
    count_hitting_sets,
    covering_number,
    enumerate_minimal_tau2,
    minimal_tau2_subfamily,
    representative_pools,
)
from .errors import DomainError, InvariantError, ParseError, ScaleError
from .families import (
    Family,
    canonical_form,
    diversity,
    elements_of,
    is_intersecting,
    max_degree,
    max_degree_element,
)
from .fileio import load_family, save_family
from .formulas import (
    binom,
    f_of_z,
    fprime3,
    hm_size,
    kz_bound,
    size_c3,
    size_f2prime,
    thm1_bound,
)
from .search import lemmin_oracle, max_intersecting_tau
from .shifting import shift_family
from .spread import is_r_spread, peel
from .switching import switch_pipeline

SCHEMA = "kfam-report/1"


def _sets(fam: Family) -> list:
    return [list(t) for t in fam.sets()]


def _check(name: str, passed: bool, lhs, rhs) -> dict:
    return {"name": name, "pass": bool(passed), "lhs": lhs, "rhs": rhs}


def _emit(command: str, params: dict, results, checks: list, t0: float) -> int:
    report = {
        "schema": SCHEMA,
        "command": command,
        "params": params,
        "results": results,
        "checks": checks,
        "runtime_ms": int((time.perf_counter() - t0) * 1000),
    }
    json.dump(report, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0 if all(c["pass"] for c in checks) else 1


def _load(path: str, canonical: bool = False) -> Family:
    fam = load_family(path)
    return canonical_form(fam) if canonical else fam


def _lookup(table: dict, key: str, args, what: str):
    """The function table[key] names, once args hold every option it needs."""
    needs, func = table[key]
    missing = [f"--{name}" for name in needs if getattr(args, name) is None]
    if missing:
        raise DomainError(f"{what} {key} needs {' '.join(missing)}")
    return func


# construction -> (options it needs, builder); --n only widens t2 and t2prime
CONSTRUCTIONS = {
    "c3": (("n", "k"), lambda a: c3(a.n, a.k)),
    "t2": (("k",), lambda a: t2(a.k, a.n)),
    "t2prime": (("s",), lambda a: t2prime(a.s, a.n)),
    "star": (("n", "k"), lambda a: full_star(a.n, a.k)),
    "hm": (("n", "k"), lambda a: hilton_milner(a.n, a.k)),
}


def _cmd_construct(args, t0) -> int:
    fam = _lookup(CONSTRUCTIONS, args.which, args, "construct")(args)
    if args.canonical:
        fam = canonical_form(fam)
    results = {"n": fam.n, "size": len(fam.members), "members": _sets(fam)}
    if args.output:
        save_family(fam, args.output)
        results["written"] = args.output
    params = {k: v for k, v in vars(args).items()
              if k not in ("func", "command") and v is not None}
    return _emit("construct", params, results, [], t0)


def _cmd_stats(args, t0) -> int:
    fam = _load(args.family, args.canonical)
    results = {
        "n": fam.n,
        "size": len(fam.members),
        "uniform_k": fam.uniform_k,
        "intersecting": is_intersecting(fam),
        "max_degree": max_degree(fam) if fam.members else 0,
        "max_degree_element": max_degree_element(fam) if fam.members else None,
        "diversity": diversity(fam) if fam.members else 0,
        "members": _sets(fam),
    }
    params = {"family": args.family, **({"canonical": True} if args.canonical else {})}
    return _emit("stats", params, results, [], t0)


def _cmd_tau(args, t0) -> int:
    fam = _load(args.family)
    res = covering_number(fam)
    tau = res.tau
    results = {
        "tau": tau if tau != float("inf") else "inf",
        "witness_cover": list(elements_of(res.witness_cover)) if res.witness_cover is not None else None,
        "explored_nodes": res.explored_nodes,
    }
    checks = []
    if args.expect is not None:
        checks.append(_check("tau-expected", tau == args.expect, tau, args.expect))
    return _emit("tau", {"family": args.family}, results, checks, t0)


def _cmd_hitcount(args, t0) -> int:
    fam = _load(args.family)
    count = count_hitting_sets(fam, args.t)
    return _emit(
        "hitcount",
        {"family": args.family, "t": args.t},
        {"count": count},
        [],
        t0,
    )


def _cmd_minimal_tau2(args, t0) -> int:
    if args.family is not None:
        fam = _load(args.family)
        sub = minimal_tau2_subfamily(fam)
        if sub is None:
            results = {"subfamily": None, "note": "covering number below 2"}
        else:
            pools = representative_pools(sub.subfamily)
            results = {
                "subfamily": _sets(sub.subfamily),
                "representative_pools": [list(p) for p in pools],
            }
        return _emit("minimal-tau2", {"family": args.family}, results, [], t0)
    if args.m is None or args.s is None:
        raise DomainError("need either a family file or both --m and --s")
    classes = enumerate_minimal_tau2(args.m, args.s, intersecting_only=args.intersecting_only)
    results = {
        "m": args.m,
        "s": args.s,
        "class_count": len(classes),
        "classes": [_sets(c) for c in classes],
    }
    checks = [
        _check("member-bound", all(len(c.members) <= args.s + 1 for c in classes),
               max((len(c.members) for c in classes), default=0), args.s + 1)
    ]
    return _emit("minimal-tau2", {"m": args.m, "s": args.s,
                                  "intersecting_only": args.intersecting_only},
                 results, checks, t0)


def _cmd_shift(args, t0) -> int:
    fam = _load(args.family)
    out = shift_family(fam, args.i, args.j)
    if args.output:
        save_family(out, args.output)
    results = {
        "size": len(out.members),
        "changed": out != fam,
        "members": _sets(out),
    }
    checks = [_check("size-preserved", len(out.members) == len(fam.members),
                     len(out.members), len(fam.members))]
    return _emit("shift", {"family": args.family, "i": args.i, "j": args.j},
                 results, checks, t0)


def _cmd_switch(args, t0) -> int:
    fam = _load(args.family)
    res = switch_pipeline(fam)
    if args.output and res.converged:
        save_family(res.family, args.output)
    results = {
        "status": res.status,
        "passes": res.passes,
        "size_before": len(fam.members),
        "size_after": len(res.family.members),
        "members": _sets(res.family),
    }
    if args.trace:
        with open(args.trace, "w") as fh:
            json.dump(res.trace, fh, indent=2)
        results["trace_written"] = args.trace
    checks = [
        _check("converged", res.converged, res.status, "converged"),
        _check("no-shrink", len(res.family.members) >= len(fam.members),
               len(res.family.members), len(fam.members)),
    ]
    return _emit("switch", {"family": args.family}, results, checks, t0)


def _cmd_peel(args, t0) -> int:
    fam = _load(args.family)
    trace = peel(fam)
    k = fam.uniform_k
    results = {
        "layer_sizes": {str(i): len(w.members) for i, w in trace.layers.items()},
        "residue_sizes": {str(i): len(r.members) for i, r in trace.residues.items()},
        "reductions": len(trace.reduction_log),
    }
    if args.trace:
        payload = {
            "layers": {str(i): _sets(w) for i, w in trace.layers.items()},
            "residues": {str(i): _sets(r) for i, r in trace.residues.items()},
            "reduction_log": [
                [list(elements_of(old)), list(elements_of(new))]
                for old, new in trace.reduction_log
            ],
        }
        with open(args.trace, "w") as fh:
            json.dump(payload, fh, indent=2)
        results["trace_written"] = args.trace
    checks = [
        _check(f"layer-bound-{i}", len(w.members) <= i**i, len(w.members), i**i)
        for i, w in sorted(trace.layers.items())
    ]
    return _emit("peel", {"family": args.family, "k": k}, results, checks, t0)


def _cmd_spread(args, t0) -> int:
    try:
        r = Fraction(args.r)
    except (ValueError, ZeroDivisionError):
        raise DomainError(f"--r must be a ratio such as 2 or 7/2, got {args.r!r}") from None
    fam = _load(args.family)
    res = is_r_spread(fam, r)
    results = {
        "r": str(r),
        "spread": res.ok,
        "violator": list(res.violator) if res.violator is not None else None,
    }
    checks = [_check("r-spread", res.ok, res.lhs, res.rhs)]
    return _emit("spread", {"family": args.family, "r": str(r)}, results, checks, t0)


def _counted(tag: str, formula: int, fam: Family) -> tuple:
    """A closed-form count against the size of the family it counts."""
    enum = len(fam.members)
    return {"formula": formula, "enumerated": enum}, [(tag, formula, enum)]


def _formula_fz(a) -> tuple:
    val = f_of_z(a.m, a.s, a.k, a.z)
    base = {2: t2prime, 3: t2}.get(a.z)  # the z with a construction to count
    if base is None:
        return {"formula": val}, []
    return _counted("fz-size", val, cross_closure(base(a.s, a.m), a.k - 1))


def _formula_fprime3(a) -> tuple:
    diff = f_of_z(a.m, a.s, a.k, 3) - fprime3(a.m, a.s, a.k)
    gap = binom(a.m - a.s - 3, a.k - 3)
    return {"fprime3": fprime3(a.m, a.s, a.k), "gap": diff}, [("fprime3-gap", diff, gap)]


def _formula_hm(a) -> tuple:
    results, pairs = _counted("hm-size", hm_size(a.n, a.k), hilton_milner(a.n, a.k))
    return results, pairs + [("hm-bound-match", results["formula"], thm1_bound(a.n, a.k, a.k))]


def _formula_thm1(a) -> tuple:
    u = a.u if a.u is not None else a.k
    val = thm1_bound(a.n, a.k, u)
    return {"bound": val, "u": u}, [("thm1-hm", val, hm_size(a.n, a.k))] if u == a.k else []


def _formula_kz(a) -> tuple:
    if a.j is None:
        val = kz_bound(a.n, a.a, a.b)
        return {"bound": val}, [("kz-plain", val, binom(a.n, a.a))]
    val = kz_bound(a.n, a.a, a.b, a.j)
    ident = binom(a.n, a.a) - binom(a.n - a.b, a.a) + 1
    return {"bound": val, "j": a.j}, [("kz-j-eq-b", val, ident)] if a.j == a.b else []


# formula -> (options it needs, evaluator); an evaluator returns the results
# and the (check name, lhs, rhs) triples whose sides must be equal
FORMULAS = {
    "c3": (("n", "k"), lambda a: _counted("c3-size", size_c3(a.n, a.k), c3(a.n, a.k))),
    "f2prime": (("m", "s", "k"), lambda a: _counted(
        "f2prime-size", size_f2prime(a.m, a.s, a.k), cross_closure(t2prime(a.s, a.m), a.k - 1))),
    "fz": (("m", "s", "k", "z"), _formula_fz),
    "fprime3": (("m", "s", "k"), _formula_fprime3),
    "hm": (("n", "k"), _formula_hm),
    "thm1": (("n", "k"), _formula_thm1),
    "kz": (("n", "a", "b"), _formula_kz),
}


def _verify_formula(args, t0) -> int:
    results, pairs = _lookup(FORMULAS, args.name, args, "verify formula")(args)
    checks = [_check(name, lhs == rhs, lhs, rhs) for name, lhs, rhs in pairs]
    params = {k: v for k, v in vars(args).items()
              if k not in ("func", "mode", "command") and v is not None}
    return _emit("verify", params, results, checks, t0)


def _verify_grid(args, t0) -> int:
    ranges = json.loads(args.ranges) if args.ranges else {}
    if not isinstance(ranges, dict) or not all(
            isinstance(v, list) and all(type(x) is int for x in v) for v in ranges.values()):
        raise DomainError("--ranges must map each dimension to a JSON list of integers")
    report = certify_grid(args.name, ranges=ranges, full=args.full)
    checks = [_check(f"grid-{args.name}", report.all_pass, report.checked - report.passed, 0)]
    params = {"name": args.name}
    if args.ranges:
        params["ranges"] = ranges
    return _emit("verify", params, report.to_json(), checks, t0)


def _cmd_search(args, t0) -> int:
    if args.mode == "cnkt":
        res = max_intersecting_tau(args.n, args.k, args.t, all_optima=args.all_optima)
        results = {
            "optimum": res.optimum,
            "witnesses": [_sets(w) for w in res.witnesses],
            "nodes_explored": res.nodes_explored,
            "pruned": res.pruned,
        }
        params = {"n": args.n, "k": args.k, "t": args.t}
        return _emit("search", params, results, [], t0)
    best, argmax = lemmin_oracle(args.m, args.s, args.k,
                                 intersecting_only=args.intersecting_only)
    results = {
        "best": best,
        "argmax_classes": [_sets(h) for h in argmax],
    }
    params = {"m": args.m, "s": args.s, "k": args.k,
              "intersecting_only": args.intersecting_only}
    return _emit("search", params, results, [], t0)


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="kfam")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a named family")
    p.add_argument("which", choices=list(CONSTRUCTIONS))
    for name in ("n", "k", "s"):
        p.add_argument(f"--{name}", type=int)
    p.add_argument("-o", "--output")
    p.add_argument("--canonical", action="store_true")
    p.set_defaults(func=_cmd_construct)

    flag = {"action": "store_true"}
    number = {"type": int, "required": True}
    output = {"-o --output": {}}
    # subcommands that read a family file -> (handler, help, their other options)
    for name, func, help_, options in (
        ("stats", _cmd_stats, "basic invariants of a family file", {"--canonical": flag}),
        ("tau", _cmd_tau, "exact covering number", {"--expect": {"type": int}}),
        ("hitcount", _cmd_hitcount, "count t-subsets meeting every member", {"--t": number}),
        ("minimal-tau2", _cmd_minimal_tau2, "minimal two-cover subfamily / class census",
         {"--m": {"type": int}, "--s": {"type": int}, "--intersecting-only": flag}),
        ("shift", _cmd_shift, "apply one (i,j)-compression",
         {"--i": number, "--j": number, **output}),
        ("switch", _cmd_switch, "run the exchange pipeline to a fixed point",
         {"--trace": {"metavar": "FILE", "help": "write the exchange trace as JSON"}, **output}),
        ("peel", _cmd_peel, "layer decomposition with reduction",
         {"--trace": {"metavar": "FILE", "help": "write layers and reductions as JSON"}}),
        ("spread", _cmd_spread, "check r-spreadness",
         {"--r": {"required": True, "help": "ratio, e.g. 2 or 7/2"}}),
    ):
        p = sub.add_parser(name, help=help_)
        # the census form of minimal-tau2 takes --m and --s instead of a file
        p.add_argument("family", nargs="?" if name == "minimal-tau2" else None)
        for flags, kwargs in options.items():
            p.add_argument(*flags.split(), **kwargs)
        p.set_defaults(func=func)

    p = sub.add_parser("verify", help="formula identities and inequality grids")
    vs = p.add_subparsers(dest="mode", required=True)
    pf = vs.add_parser("formula")
    pf.add_argument("--name", required=True, choices=list(FORMULAS))
    for name in ("n", "k", "s", "m", "z", "u", "a", "b", "j"):
        pf.add_argument(f"--{name}", type=int)
    pf.set_defaults(func=_verify_formula)
    pg = vs.add_parser("grid")
    pg.add_argument("--name", required=True, choices=list(GRID_CHECKS))
    pg.add_argument("--ranges", help="JSON map of dimension -> value list")
    pg.add_argument("--jobs", type=int, help="ignored: grids run in one process")
    pg.add_argument("--full", action="store_true",
                    help="list every grid point, not only those that did not pass")
    pg.set_defaults(func=_verify_grid)

    p = sub.add_parser("search", help="exhaustive oracles")
    ss = p.add_subparsers(dest="mode", required=True)
    sc = ss.add_parser("cnkt")
    for name in ("n", "k", "t"):
        sc.add_argument(f"--{name}", type=int, required=True)
    sc.add_argument("--all", "--all-optima", dest="all_optima", action="store_true")
    sc.set_defaults(func=_cmd_search)
    sl = ss.add_parser("lemmin")
    for name in ("m", "s", "k"):
        sl.add_argument(f"--{name}", type=int, required=True)
    sl.add_argument("--intersecting", "--intersecting-only",
                    dest="intersecting_only", action="store_true")
    sl.set_defaults(func=_cmd_search)

    return top


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0,) else 0
    t0 = time.perf_counter()
    try:
        return args.func(args, t0)
    except (DomainError, ScaleError, ParseError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
