#!/usr/bin/env python3
"""Tabulate the three-base construction: enumerated size vs the closed form,
plus the certified covering number.

Usage: python3 scripts/c3_table.py [--kmax 6] [--extra 6]

Rows run for k from 3 to --kmax; a --kmax below 3 or an --extra below 1
exits 2.  Exits 1 if some row does not match.
"""
import argparse
import sys

from kfam.constructions import c3
from kfam.covers import covering_number
from kfam.formulas import size_c3


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--kmax", type=int, default=6)
    ap.add_argument("--extra", type=int, default=6, help="rows per k: n from 2k+1 to 2k+extra")
    args = ap.parse_args()
    if args.kmax < 3:
        ap.error(f"--kmax must be at least 3, got {args.kmax}")
    if args.extra < 1:
        ap.error(f"--extra must be at least 1, got {args.extra}")

    print(f"{'n':>4} {'k':>3} {'enumerated':>11} {'formula':>8} {'tau':>4}")
    broken = False
    for k in range(3, args.kmax + 1):
        for n in range(2 * k + 1, 2 * k + args.extra + 1):
            fam = c3(n, k)
            got, want = len(fam), size_c3(n, k)
            tau = covering_number(fam).tau
            ok = got == want and tau == 3
            broken |= not ok
            flag = "" if ok else "  <-- MISMATCH"
            print(f"{n:>4} {k:>3} {got:>11} {want:>8} {tau:>4}{flag}")
        print()
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
