"""Command-line front end.

Every subcommand emits a single JSON report on stdout:

    {schema, command, params, results, checks, runtime_ms}

where each entry of checks carries {name, pass, lhs, rhs} so a failed
comparison is diagnosable from the report alone.  Exit status: 0 when all
checks pass, 1 when any check fails, 2 on usage or domain errors (among them
``switch`` on a family with n < 2k), 3 when an internal invariant fails,
which is a bug.  On exit 3 the report holds
``error: {kind: "invariant", message}`` and the options given as params, in
place of results and checks.

Every subcommand and mode is one row of ``COMMANDS``; its handler returns
(params, results, checks), and ``run`` times it and prints the report.  For
a command with a ``family`` argument, ``run`` loads the file, printing each
warning as ``warning: ...`` on stderr, passes the family (None without a
file) to handler(args, fam) and puts the file first in the params.  ``run``
may be called any number of times in one process: the parser is built on
the first call, and each call looks its handler up in ``COMMANDS``.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
import time
import warnings
from fractions import Fraction

from .certify import GRID_CHECKS, certify_grid
from .constructions import c3, cross_closure, full_star, hilton_milner, t2, t2prime
from .covers import (
    count_hitting_sets,
    covering_number,
    enumerate_minimal_tau2,
    minimal_tau2_subfamily,
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


def _check(name: str, passed: bool, lhs, rhs) -> dict:
    return {"name": name, "pass": bool(passed), "lhs": lhs, "rhs": rhs}


def _given(args) -> dict:
    """Every option given on the command line, as a report's params."""
    return {k: v for k, v in vars(args).items()
            if k not in ("command", "mode") and v is not None}


def _lookup(table: dict, key: str, args, options: tuple, what: str):
    """The function table[key] names, once args hold every option it needs
    and none of the other options that it would ignore."""
    needs, reads, func = table[key]
    missing = [f"--{name}" for name in needs if getattr(args, name) is None]
    if missing:
        raise DomainError(f"{what} {key} needs {' '.join(missing)}")
    unread = [f"--{name}" for name in options
              if name not in needs + reads and getattr(args, name) is not None]
    if unread:
        raise DomainError(f"{what} {key} takes no {' '.join(unread)}")
    return func


def _load_family(path) -> Family:
    """load_family(path), printing each warning it raises on stderr as
    "warning: ..." on every call; the warnings module would print it once
    per process, with the library's source line."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            return load_family(path)
        finally:
            for w in caught:
                print(f"warning: {w.message}", file=sys.stderr)


def _write_output(args, results: dict, fam: Family | None) -> None:
    """Save fam to the -o file, when one is given; results say what was
    written, null when fam is None and nothing was."""
    if args.output:
        if fam is not None:
            save_family(fam, args.output)
        results["written"] = args.output if fam is not None else None


def _write_trace(args, results: dict, payload) -> None:
    """Write payload as JSON to the --trace file, when one is given."""
    if args.trace:
        with open(args.trace, "w") as fh:
            json.dump(payload, fh, indent=2)
        results["trace_written"] = args.trace


_CONSTRUCT_OPTIONS = ("n", "k", "s")
# construction -> (options it needs, options it may read, builder)
CONSTRUCTIONS = {
    "c3": (("n", "k"), (), lambda a: c3(a.n, a.k)),
    "t2": (("k",), ("n",), lambda a: t2(a.k, a.n)),
    "t2prime": (("s",), ("n",), lambda a: t2prime(a.s, a.n)),
    "star": (("n", "k"), (), lambda a: full_star(a.n, a.k)),
    "hm": (("n", "k"), (), lambda a: hilton_milner(a.n, a.k)),
}


def _cmd_construct(args):
    fam = _lookup(CONSTRUCTIONS, args.which, args, _CONSTRUCT_OPTIONS, "construct")(args)
    if args.canonical:
        fam = canonical_form(fam)
    results = {"n": fam.n, "size": len(fam.members), "members": fam.sets()}
    _write_output(args, results, fam)
    return _given(args), results, []


def _cmd_stats(args, fam):
    if args.canonical:
        fam = canonical_form(fam)
    results = {
        "n": fam.n,
        "size": len(fam.members),
        "uniform_k": fam.uniform_k,
        "intersecting": is_intersecting(fam),
        "max_degree": max_degree(fam),
        "max_degree_element": max_degree_element(fam),
        "diversity": diversity(fam),
        "members": fam.sets(),
    }
    return {"canonical": True} if args.canonical else {}, results, []


def _cmd_tau(args, fam):
    res = covering_number(fam)
    tau = res.tau
    results = {
        "tau": tau if tau != float("inf") else "inf",
        "witness_cover": elements_of(res.witness_cover) if res.witness_cover is not None else None,
        "explored_nodes": res.explored_nodes,
    }
    checks = []
    if args.expect is not None:
        checks.append(_check("tau-expected", tau == args.expect, tau, args.expect))
    return {}, results, checks


def _cmd_hitcount(args, fam):
    return {"t": args.t}, {"count": count_hitting_sets(fam, args.t)}, []


def _cmd_minimal_tau2(args, fam):
    if fam is None:
        return _cmd_census(args)
    if (args.m, args.s, args.intersecting_only) != (None, None, False):
        raise DomainError("minimal-tau2 takes --m, --s, --intersecting-only only without a file")
    sub = minimal_tau2_subfamily(fam)
    if sub is None:
        return {}, {"subfamily": None, "note": "covering number below 2"}, []
    results = {
        "subfamily": sub.subfamily.sets(),
        "representative_pools": sub.pools,
    }
    return {}, results, []


def _cmd_census(args):
    if args.m is None or args.s is None:
        raise DomainError("need either a family file or both --m and --s")
    classes = enumerate_minimal_tau2(args.m, args.s, intersecting_only=args.intersecting_only)
    results = {
        "m": args.m,
        "s": args.s,
        "class_count": len(classes),
        "classes": [c.sets() for c in classes],
    }
    checks = [
        _check("member-bound", all(len(c.members) <= args.s + 1 for c in classes),
               max((len(c.members) for c in classes), default=0), args.s + 1)
    ]
    return {"m": args.m, "s": args.s, "intersecting_only": args.intersecting_only}, results, checks


def _cmd_shift(args, fam):
    out = shift_family(fam, args.i, args.j)
    results = {
        "size": len(out.members),
        "changed": out != fam,
        "members": out.sets(),
    }
    _write_output(args, results, out)
    checks = [_check("size-preserved", len(out.members) == len(fam.members),
                     len(out.members), len(fam.members))]
    return {"i": args.i, "j": args.j}, results, checks


def _cmd_switch(args, fam):
    res = switch_pipeline(fam)
    results = {
        "status": res.status,
        "passes": res.passes,
        "size_before": len(fam.members),
        "size_after": len(res.family.members),
        "members": res.family.sets(),
    }
    _write_output(args, results, res.family if res.converged else None)
    _write_trace(args, results, res.trace)
    checks = [
        _check("converged", res.converged, res.status, "converged"),
        _check("no-shrink", len(res.family.members) >= len(fam.members),
               len(res.family.members), len(fam.members)),
    ]
    return {}, results, checks


def _cmd_peel(args, fam):
    trace = peel(fam)
    results = {
        "layer_sizes": {str(i): len(w.members) for i, w in trace.layers.items()},
        "residue_sizes": {str(i): len(r.members) for i, r in trace.residues.items()},
        "reductions": len(trace.reduction_log),
    }
    _write_trace(args, results, {
        "layers": {str(i): w.sets() for i, w in trace.layers.items()},
        "residues": {str(i): r.sets() for i, r in trace.residues.items()},
        "reduction_log": [(elements_of(old), elements_of(new)) for old, new in trace.reduction_log],
    })
    checks = [
        _check(f"layer-bound-{i}", len(w.members) <= i**i, len(w.members), i**i)
        for i, w in sorted(trace.layers.items())
    ]
    return {"k": fam.uniform_k}, results, checks


def _cmd_spread(args, fam):
    try:
        r = Fraction(args.r)
    except (ValueError, ZeroDivisionError):
        raise DomainError(f"--r must be a ratio such as 2 or 7/2, got {args.r!r}") from None
    res = is_r_spread(fam, r)
    results = {
        "r": str(r),
        "spread": res.ok,
        "violator": res.violator,
    }
    return {"r": str(r)}, results, [_check("r-spread", res.ok, res.lhs, res.rhs)]


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
    f3, value = f_of_z(a.m, a.s, a.k, 3), fprime3(a.m, a.s, a.k)
    diff, gap = f3 - value, binom(a.m - a.s - 3, a.k - 3)
    return {"fprime3": value, "gap": diff}, [("fprime3-gap", diff, gap)]


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


_FORMULA_OPTIONS = ("n", "k", "s", "m", "z", "u", "a", "b", "j")
# formula -> (options it needs, options it may read, evaluator); an evaluator
# returns the results and the (check name, lhs, rhs) triples whose sides
# must be equal
FORMULAS = {
    "c3": (("n", "k"), (), lambda a: _counted("c3-size", size_c3(a.n, a.k), c3(a.n, a.k))),
    "f2prime": (("m", "s", "k"), (), lambda a: _counted(
        "f2prime-size", size_f2prime(a.m, a.s, a.k), cross_closure(t2prime(a.s, a.m), a.k - 1))),
    "fz": (("m", "s", "k", "z"), (), _formula_fz),
    "fprime3": (("m", "s", "k"), (), _formula_fprime3),
    "hm": (("n", "k"), (), _formula_hm),
    "thm1": (("n", "k"), ("u",), _formula_thm1),
    "kz": (("n", "a", "b"), ("j",), _formula_kz),
}


def _verify_formula(args):
    results, pairs = _lookup(FORMULAS, args.name, args, _FORMULA_OPTIONS, "verify formula")(args)
    return _given(args), results, [_check(name, lhs == rhs, lhs, rhs) for name, lhs, rhs in pairs]


def _verify_grid(args):
    ranges = json.loads(args.ranges) if args.ranges else {}
    if not isinstance(ranges, dict) or not all(
            isinstance(v, list) and all(type(x) is int for x in v) for v in ranges.values()):
        raise DomainError("--ranges must map each dimension to a JSON list of integers")
    report = certify_grid(args.name, ranges=ranges, full=args.full)
    checks = [_check(f"grid-{args.name}", report.all_pass, report.checked - report.passed, 0)]
    params = {"name": args.name}
    if args.ranges:
        params["ranges"] = ranges
    return params, report.to_json(), checks


def _search_cnkt(args):
    res = max_intersecting_tau(args.n, args.k, args.t, all_optima=args.all_optima)
    results = {
        "optimum": res.optimum,
        "witnesses": [w.sets() for w in res.witnesses],
        "nodes_explored": res.nodes_explored,
        "pruned": res.pruned,
    }
    return {"n": args.n, "k": args.k, "t": args.t}, results, []


def _search_lemmin(args):
    best, argmax = lemmin_oracle(args.m, args.s, args.k, intersecting_only=args.intersecting_only)
    params = {"m": args.m, "s": args.s, "k": args.k, "intersecting_only": args.intersecting_only}
    return params, {"best": best, "argmax_classes": [h.sets() for h in argmax]}, []


def _ints(names, **kwargs) -> dict:
    return {f"--{name}": {"type": int, **kwargs} for name in names}


_FLAG = {"action": "store_true"}
_FILE = {"family": {}}
_OUTPUT = {"-o --output": {}}
# command words -> (handler, help, argparse options as {flags: keywords});
# a row without a handler holds the modes of the rows under it
COMMANDS = {
    ("construct",): (_cmd_construct, "build a named family", {
        "which": {"choices": list(CONSTRUCTIONS)}, **_ints(_CONSTRUCT_OPTIONS), **_OUTPUT,
        "--canonical": _FLAG}),
    ("stats",): (_cmd_stats, "basic invariants of a family file", {
        **_FILE, "--canonical": _FLAG}),
    ("tau",): (_cmd_tau, "exact covering number", {
        **_FILE, "--expect": {"type": int}}),
    ("hitcount",): (_cmd_hitcount, "count t-subsets meeting every member", {
        **_FILE, **_ints(("t",), required=True)}),
    ("minimal-tau2",): (_cmd_minimal_tau2, "minimal two-cover subfamily / class census", {
        "family": {"nargs": "?"}, **_ints(("m", "s")), "--intersecting-only": _FLAG}),
    ("shift",): (_cmd_shift, "apply one (i,j)-compression", {
        **_FILE, **_ints(("i", "j"), required=True), **_OUTPUT}),
    ("switch",): (_cmd_switch, "run the exchange pipeline to a fixed point", {
        **_FILE, "--trace": {"metavar": "FILE", "help": "write the exchange trace as JSON"},
        **_OUTPUT}),
    ("peel",): (_cmd_peel, "layer decomposition with reduction", {
        **_FILE, "--trace": {"metavar": "FILE", "help": "write layers and reductions as JSON"}}),
    ("spread",): (_cmd_spread, "check r-spreadness", {
        **_FILE, "--r": {"required": True, "help": "ratio, e.g. 2 or 7/2"}}),
    ("verify",): (None, "formula identities and inequality grids", {}),
    ("verify", "formula"): (_verify_formula, None, {
        "--name": {"required": True, "choices": list(FORMULAS)}, **_ints(_FORMULA_OPTIONS)}),
    ("verify", "grid"): (_verify_grid, None, {
        "--name": {"required": True, "choices": list(GRID_CHECKS)},
        "--ranges": {"help": "JSON map of dimension -> value list"},
        "--jobs": {"type": int, "help": "ignored: grids run in one process"},
        "--full": {**_FLAG, "help": "list every grid point, not only those that did not pass"}}),
    ("search",): (None, "exhaustive oracles", {}),
    ("search", "cnkt"): (_search_cnkt, None, {
        **_ints(("n", "k", "t"), required=True),
        "--all --all-optima": {"dest": "all_optima", **_FLAG}}),
    ("search", "lemmin"): (_search_lemmin, None, {
        **_ints(("m", "s", "k"), required=True),
        "--intersecting --intersecting-only": {"dest": "intersecting_only", **_FLAG}}),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="kfam")
    groups = {(): top.add_subparsers(dest="command", required=True)}
    for words, (handler, help_, options) in COMMANDS.items():
        p = groups[words[:-1]].add_parser(words[-1], **({"help": help_} if help_ else {}))
        for flags, kwargs in options.items():
            p.add_argument(*flags.split(), **kwargs)
        if handler is None:
            groups[words] = p.add_subparsers(dest="mode", required=True)
    return top


def run(argv) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0,) else 0
    handler = COMMANDS[(args.command, args.mode) if "mode" in args else (args.command,)][0]
    t0 = time.perf_counter()
    try:
        if "family" in args:
            fam = None if args.family is None else _load_family(args.family)
            params, results, checks = handler(args, fam)
            if fam is not None:
                params = {"family": args.family, **params}
        else:
            params, results, checks = handler(args)
    except (DomainError, ScaleError, ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        _print_report(args.command, _given(args), t0,
                      error={"kind": "invariant", "message": str(exc)})
        return 3
    _print_report(args.command, params, t0, results=results, checks=checks)
    return 0 if all(c["pass"] for c in checks) else 1


def _print_report(command: str, params: dict, t0: float, **body) -> None:
    report = {"schema": SCHEMA, "command": command, "params": params, **body,
              "runtime_ms": int((time.perf_counter() - t0) * 1000)}
    # streamed: a json.dumps string doubles the peak memory of a --full grid
    json.dump(report, sys.stdout, indent=2)
    sys.stdout.write("\n")


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
