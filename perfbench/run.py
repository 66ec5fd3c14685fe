"""kfam benchmark runner.

    python3 perfbench/run.py --workload {classes,clique,grid,session}
                             --seed N --seconds S --trace {0,1}

Run from the root of a kfam checkout.  kfam is imported from the
checkout's src/, never from an installed copy.  One process runs one
workload:

1. set-up, SETUP_REPEATS times: import kfam afresh and build the seeded
   task list (and, for session, its input files); setup_s is the median;
2. with --trace 0, passes over the task list while less than --seconds
   has gone by, each timed from the first task's start to the last task's
   end; wall_s is the median pass;
3. every answer is checked against oracle.py after its pass, outside the
   timed region; a wrong answer or an exception counts as failed.

With --trace 1 the run makes one untraced pass, then installs the tracer
and makes one traced pass, and reports the per-layer figures instead.

The last line of stdout is the result object; the line before it holds the
run's context (Python version, core count, commit, host-speed loop, sample
counts).  Exit status is 0 when every answer was right.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import workloads as W
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench_work"
SETUP_REPEATS = 5
MODULES = (
    "families",
    "fileio",
    "formulas",
    "constructions",
    "covers",
    "shifting",
    "spread",
    "search",
    "switching",
    "certify",
    "cli",
)
BUILDERS = {
    "classes": lambda seed, k: W.classes_tasks(seed),
    "clique": lambda seed, k: W.clique_tasks(seed),
    "grid": lambda seed, k: W.grid_tasks(seed),
    "session": lambda seed, k: W.session_tasks(seed, k, WORKDIR),
}


def import_kfam() -> SimpleNamespace:
    """Import kfam from scratch, dropping any copy already loaded."""
    for name in [m for m in sys.modules if m == "kfam" or m.startswith("kfam.")]:
        del sys.modules[name]
    return SimpleNamespace(**{name: importlib.import_module(f"kfam.{name}") for name in MODULES})


def setup(workload: str, seed: int):
    t0 = time.perf_counter()
    k = import_kfam()
    tasks = BUILDERS[workload](seed, k)
    return time.perf_counter() - t0, k, tasks


def run_pass(k, tasks, tracer: Tracer | None = None):
    """Run every task once; returns (wall seconds, per-task seconds, answers)."""
    times, answers = [], []
    start = time.perf_counter()
    for idx, task in enumerate(tasks):
        if tracer is not None:
            tracer.task = idx
        t0 = time.perf_counter()
        try:
            answer = (W.run_task(k, task), None)
        except Exception:
            answer = (None, traceback.format_exc())
        times.append(time.perf_counter() - t0)
        answers.append(answer)
    return time.perf_counter() - start, times, answers


def judge(tasks, answers) -> int:
    """Number of wrong answers; each one is described on stderr."""
    failed = 0
    for task, (answer, error) in zip(tasks, answers):
        if error is None:
            try:
                problems = W.check(task, answer)
            except Exception:
                problems = [f"checker raised:\n{traceback.format_exc()}"]
        else:
            problems = [f"raised:\n{error}"]
        if problems:
            failed += 1
            print(f"FAILED {task.kind} {task.args}: " + "; ".join(problems[:5]), file=sys.stderr)
    return failed


def host_spin() -> float:
    """A fixed pure-Python loop; its time tracks the host's speed."""
    t0 = time.perf_counter()
    x = 0
    for i in range(2_000_000):
        x += i & 7
    return time.perf_counter() - t0


def commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(walls, setups, task_times) -> dict:
    return {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
        "task_p50_ms": 1000 * statistics.median(task_times),
        # inclusive: never reaches past the slowest sample when there are few
        "task_p90_ms": 1000 * statistics.quantiles(task_times, n=10, method="inclusive")[8],
    }


def per_layer(tracer: Tracer, overhead_s: float, report_bytes: int) -> dict:
    summary = tracer.summary()
    calls, self_s, total_s = summary["calls"], summary["self_s"], summary["total_s"]
    c = tracer.counts

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "families.are_isomorphic.calls": calls["families.are_isomorphic"],
        "families.are_isomorphic.self_s": self_s["families.are_isomorphic"],
        "families.dedup.in": c["families.dedup.in"],
        "families.dedup.out": c["families.dedup.out"],
        "families.dedup.keep_ratio": ratio(c["families.dedup.out"], c["families.dedup.in"]),
        "families.canonical_form.calls": calls["families.canonical_form"],
        "families.canonical_form.self_s": self_s["families.canonical_form"],
        "families.self_s": self_s["families"],
        "search.calls": calls["search"],
        "search.self_s": self_s["search"],
        "search.nodes_explored": c["search.nodes_explored"],
        "search.pruned": c["search.pruned"],
        "search.prune_ratio": ratio(c["search.pruned"], c["search.nodes_explored"]),
        "search.labeled_optima": c["search.labeled_optima"],
        "covers.covering_number.calls": calls["covers.covering_number"],
        "covers.covering_number.self_s": self_s["covers.covering_number"],
        "covers.covering_number.nodes": c["covers.covering_number.nodes"],
        "covers.minimal_tau2_subfamily.self_s": self_s["covers.minimal_tau2_subfamily"],
        "covers.count_hitting_sets.self_s": self_s["covers.count_hitting_sets"],
        "covers.enumerate_minimal_tau2.self_s": self_s["covers.enumerate_minimal_tau2"],
        "covers.census_classes": c["covers.census_classes"],
        "certify.self_s": self_s["certify"],
        "certify.points": c["certify.points"],
        "certify.skipped": c["certify.skipped"],
        "certify.to_json_s": total_s["certify.GridReport.to_json"],
        "formulas.f_of_z.calls": calls["formulas.f_of_z"],
        "formulas.self_s": self_s["formulas"],
        "cli.calls": calls["cli"],
        "cli.self_s": self_s["cli"],
        "cli.report_bytes": report_bytes,
        "fileio.calls": calls["fileio"],
        "fileio.self_s": self_s["fileio"],
        "constructions.self_s": self_s["constructions"],
        "constructions.members_built": c["constructions.members_built"],
        "switching.self_s": self_s["switching"],
        "switching.exchanges": c["switching.exchanges"],
        "switching.converged_ratio": ratio(c["switching.converged"], c["switching.pipelines"]),
        "spread.self_s": self_s["spread"],
        "spread.reductions": c["spread.reductions"],
        "shifting.self_s": self_s["shifting"],
        "shifting.changed_ratio": ratio(c["shifting.changed"], c["shifting.shifts"]),
        "trace.overhead_s": overhead_s,
    }


def with_units(values: dict, declared: list) -> dict:
    """Attach BENCHMARK.json's units; the two name sets must agree."""
    names = [m["name"] for m in declared]
    if sorted(names) != sorted(values):
        raise SystemExit(f"metric names differ from BENCHMARK.json: {sorted(set(names) ^ set(values))}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "kfam" / "__init__.py").is_file():
        print(f"error: no kfam sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    # grids must never take the process-pool path by accident
    os.environ.pop("KFAM_JOBS", None)
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))

    spin = [host_spin()]
    try:
        setups = []
        for _ in range(1 if args.trace else SETUP_REPEATS):
            seconds, k, tasks = setup(args.workload, args.seed)
            setups.append(seconds)

        walls, task_times, attempted, failed = [], [], 0, 0

        def timed_pass(tracer=None):
            nonlocal attempted, failed
            wall, times, answers = run_pass(k, tasks, tracer)
            attempted += len(tasks)
            failed += judge(tasks, answers)
            return wall, times, answers

        if args.trace:
            # untraced passes on both sides of the traced one, so the
            # overhead is not confused with a first-pass warm-up
            walls.append(timed_pass()[0])
            tracer = Tracer()
            tracer.install(vars(k))
            tracer.task = "setup"
            tasks = BUILDERS[args.workload](args.seed, k)
            traced_wall, task_times, answers = timed_pass(tracer)
            tracer.uninstall()
            walls.append(timed_pass()[0])
            report_bytes = sum(
                len(answer[1])
                for task, (answer, _) in zip(tasks, answers)
                if task.kind == "cli" and answer is not None
            )
            values = per_layer(tracer, traced_wall - statistics.mean(walls), report_bytes)
            metrics = with_units(values, declared["per_layer"])
        else:
            measure_start = time.perf_counter()
            while not walls or time.perf_counter() - measure_start < args.seconds:
                wall, times, _ = timed_pass()
                walls.append(wall)
                task_times += times
            metrics = with_units(end_to_end(walls, setups, task_times), declared["end_to_end"])
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    spin.append(host_spin())

    context = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit(),
        "host_spin_s": spin,
        "setup_repeats": len(setups),
        "passes": len(walls),
        "tasks_per_pass": len(tasks),
        "task_samples": len(task_times),
        "failed_frac": failed / attempted,
    }
    print(json.dumps({"context": context}))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
