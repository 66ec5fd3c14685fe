#!/usr/bin/env python3
"""Exact values of the max size of an intersecting k-uniform family over [n]
with covering number >= t, next to the closed forms they should match at
t = 1, 2 and the three-base construction at t = 3.

Usage: python3 scripts/cnkt_table.py [--nmax 9] [--k 3] [--tmax 3] [--classes]

Rows run from n = 2k+1 to --nmax; a --nmax below 2k+1 exits 2.  Small n
only; the oracle is an exact branch and bound.  --classes also counts
optimal isomorphism classes (slower).  Exits 1 if c(n,k,t) rises with t
at some n, or misses its reference: c(n,k,1) must equal C(n-1,k-1),
c(n,k,2) the Hilton-Milner size and c(n,k,3) must reach the three-base
construction's size.
"""
import argparse
import sys
import time

from kfam.formulas import binom, hm_size, size_c3
from kfam.search import max_intersecting_tau


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--nmax", type=int, default=9)
    ap.add_argument("--k", type=int, default=3)
    ap.add_argument("--tmax", type=int, default=3)
    ap.add_argument("--classes", action="store_true")
    args = ap.parse_args()

    k = args.k
    if not 1 <= args.tmax <= k:
        ap.error(f"need 1 <= --tmax <= k, got --tmax = {args.tmax}, k = {k}")
    if args.nmax < 2 * k + 1:
        ap.error(f"--nmax must be at least 2k+1 = {2 * k + 1}")
    head = f"{'n':>4} {'t':>3} {'c(n,k,t)':>9} {'reference':>10} {'time':>8}"
    if args.classes:
        head += f" {'#classes':>9}"
    print(f"k = {k}")
    print(head)
    prev = {}
    broken = False
    for n in range(2 * k + 1, args.nmax + 1):
        for t in range(1, args.tmax + 1):
            t0 = time.perf_counter()
            res = max_intersecting_tau(n, k, t, all_optima=args.classes)
            dt = time.perf_counter() - t0
            if t == 1:
                want = binom(n - 1, k - 1)
                ref, ok = f"{want} star", res.optimum == want
            elif t == 2:
                want = hm_size(n, k)
                ref, ok = f"{want} hm", res.optimum == want
            elif t == 3:
                want = size_c3(n, k)
                ref, ok = f">={want} c3", res.optimum >= want
            else:
                ref, ok = "-", True
            row = f"{n:>4} {t:>3} {res.optimum:>9} {ref:>10} {dt:>7.2f}s"
            if args.classes:
                row += f" {len(res.witnesses):>9}"
            if not ok:
                row += "  <-- reference missed"
                broken = True
            # c(n,k,t) is non-increasing in t at fixed n
            if (n, t - 1) in prev and res.optimum > prev[(n, t - 1)]:
                row += "  <-- monotonicity broken"
                broken = True
            prev[(n, t)] = res.optimum
            print(row)
        print()
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
