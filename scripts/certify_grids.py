#!/usr/bin/env python3
"""Run the inequality certification grids and print one summary line each.

Usage: python3 scripts/certify_grids.py [names ...] [--json FILE]

With no names, runs the acceptance set.  An unknown name exits 2.  Exits 1
if any grid has a failing point.
"""
import argparse
import json
import sys
import time

from kfam.certify import ACCEPTANCE_GRIDS, GRID_CHECKS, certify_grid


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("names", nargs="*", help=f"grids to run (known: {', '.join(sorted(GRID_CHECKS))})")
    ap.add_argument("--json", metavar="FILE", help="dump full reports, every point listed, as JSON")
    args = ap.parse_args()
    # checked here, not by choices=: argparse before 3.12 refuses an empty
    # nargs="*" list that has choices
    unknown = [name for name in args.names if name not in GRID_CHECKS]
    if unknown:
        ap.error(f"unknown grid {unknown[0]!r} (known: {', '.join(sorted(GRID_CHECKS))})")

    names = args.names or list(ACCEPTANCE_GRIDS)
    reports, ok = [], True
    for name in names:
        t0 = time.perf_counter()
        rep = certify_grid(name, full=bool(args.json))
        dt = time.perf_counter() - t0
        status = "ok" if rep.all_pass else "FAIL"
        print(
            f"{name:<12} {status:<5} {rep.passed}/{rep.checked} checked"
            f" ({rep.n_skipped} skipped of {rep.total}) in {dt:.2f}s"
        )
        for pt in rep.failures()[:5]:
            print(f"    fail at {pt.params}: lhs={pt.lhs} rhs={pt.rhs}")
        reports.append(rep)
        ok = ok and rep.all_pass
    if args.json:
        with open(args.json, "w") as fh:
            json.dump([r.to_json() for r in reports], fh, indent=2)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
