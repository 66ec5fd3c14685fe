"""Grid certification of the inequality chains behind the main bound.

Everything is exact: big integers, or rationals where the constant sqrt(e)
appears.  It enters only through a hard-coded certified enclosure, and each
comparison is made against the adverse end of that enclosure, so a reported
pass at a grid point is a proof for that point.  Each inequality is one row
of GRID_CHECKS: its dimensions, each carrying the one hypothesis that bounds
it, and its check, which runs a line (the innermost dimension at fixed outer
values) at a time.  A point that misses a hypothesis is skipped, not
evaluated, and names the outermost hypothesis it misses.  The two
(k, s, m) rows read their binomials from columns that slide with the line,
so each line computes only the tops it adds.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import inf

from .errors import DomainError
from .formulas import _f, _f_columns, _f_steps, _fprime3, binom, size_c3, thm1_bound

# sqrt(e) in [1648721270, 1648721272] / 10^9.
SQRT_E_LO = Fraction(1_648_721_270, 10**9)
SQRT_E_HI = Fraction(1_648_721_272, 10**9)


@dataclass(frozen=True)
class GridPoint:
    params: dict
    lhs: tuple = ()
    rhs: tuple = ()
    passed: bool = False
    skipped: str | None = None


@dataclass
class GridReport:
    """Counts over every point of a grid.  points keeps the points that did
    not pass (failed or skipped), or every point of a full report."""

    name: str
    total: int = 0
    checked: int = 0
    passed: int = 0
    points: list = field(default_factory=list)

    @property
    def n_skipped(self) -> int:
        return self.total - self.checked

    @property
    def all_pass(self) -> bool:
        return 0 < self.checked == self.passed

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "total": self.total,
            "checked": self.checked,
            "passed": self.passed,
            "skipped": self.n_skipped,
            "all_pass": self.all_pass,
            "points": [
                {
                    "point": p.params,
                    "lhs": list(p.lhs),
                    "rhs": list(p.rhs),
                    "pass": p.passed,
                    **({"skipped": p.skipped} if p.skipped else {}),
                }
                for p in self.points
            ],
        }


def _g(n: int, k: int, i: int) -> int:
    """The layer weight i^i C(n-i, k-i)."""
    return i**i * binom(n - i, k - i)


def _sliding_columns():
    """A fresh column reader col(r, lo, hi), which returns (values, first)
    with values[a - first] = C(a, r) for lo <= a < hi.  values is the window
    of C(a, r) it keeps per r over a run of consecutive tops a, read in place
    until the next request for r.  A request that overlaps or adjoins the
    window computes only the tops it adds; any other starts a new window, so
    a window never spans tops between requests.  certify_grid makes one per
    run: no binomial is shared between runs."""
    windows = {}  # r -> [first top, values]

    def col(r, lo, hi):
        w = windows.get(r)
        if w is None or lo > w[0] + len(w[1]) or hi < w[0]:
            w = windows[r] = [lo, []]
        first, values = w
        if lo < first:
            values[:0] = [binom(a, r) for a in range(lo, first)]
            w[0] = first = lo
        end = first + len(values)
        if hi > end:
            values += [binom(a, r) for a in range(end, hi)]
        return values, first
    return col


# A row's check runs one line: given the outer values p, the line's values
# inside every hypothesis and the run's column reader col, it returns one
# pass flag per value and sides(j), the compared integer tuples (lhs, rhs)
# of the j-th value, asked only for points the report keeps, so a failure is
# diagnosable from the report alone.

def _each(compare):
    """The line check that runs compare, which maps one point to
    (lhs, rhs, passed), on each point of the line by itself."""
    def check(p, dim, values, col):
        results = [compare({**p, dim: v}) for v in values]
        return [r[2] for r in results], lambda j: results[j][:2]
    return check


def _check_f_mono(p, dim, zs, col):
    """f(z-1) - f(z) against C(m-s-2, k-3), each step of f read from the
    columns of the (k, s, m) line."""
    k, s, m = p["k"], p["s"], p["m"]
    steps = _f_steps(*_f_columns(col, m, s, k), zs)
    target = binom(m - s - 2, k - 3)
    def sides(j):
        return (steps[j], target), (target, 1)
    return list(map(target.__le__, steps)) if target > 1 else [False] * len(zs), sides


def _check_f3_fprime3(p, dim, ms, col):
    """f(3) - f'(3) against C(m-s-3, k-3), f and f' read from the same
    columns at each m of the (k, s) line."""
    k, s = p["k"], p["s"]
    sides = []
    for m in ms:
        c1, c2 = _f_columns(col, m, s, k)
        diff = _f(c1, c2, s, 3)[1] - _fprime3(c1, c2, s)
        target = binom(m - s - 3, k - 3)
        sides.append(((diff, target), (target, 1)))
    return [lhs[0] == target and target >= 1 for lhs, (target, _) in sides], sides.__getitem__


def _check_g_ratio(p: dict) -> tuple:
    n, k, i = p["n"], p["k"], p["i"]
    lhs, rhs = 2 * _g(n, k, i), _g(n, k, i - 1)
    return (lhs,), (rhs,), lhs < rhs


def _check_two_g5(p: dict) -> tuple:
    n, k = p["n"], p["k"]
    lhs, rhs = 2 * _g(n, k, 5), binom(n - 5, k - 3)
    return (lhs,), (rhs,), lhs < rhs


def _check_eqc3large(p: dict) -> tuple:
    n, k = p["n"], p["k"]
    # |C3| >= (k^2-k+1) C(n-3,k-3) / sqrt(e); adverse end is the lower
    # enclosure endpoint, giving the largest rational right-hand side
    lhs = size_c3(n, k) * SQRT_E_LO.numerator
    rhs = (k * k - k + 1) * binom(n - 3, k - 3) * SQRT_E_LO.denominator
    return (lhs,), (rhs,), lhs >= rhs


def _check_eqboundf(p: dict) -> tuple:
    n, k = p["n"], p["k"]
    lhs1, rhs1 = thm1_bound(n, k, 4), 5 * binom(n - 2, k - 2)
    lhs2, rhs2 = 50 * binom(n - 2, k - 2), binom(n - 1, k - 1)
    return (lhs1, lhs2), (rhs1, rhs2), lhs1 <= rhs1 and lhs2 <= rhs2


def _check_eqboundc2(p: dict) -> tuple:
    n, k = p["n"], p["k"]
    # sum_{i=2}^{k} C(n-k-i, k-2) in closed form by the hockey-stick identity
    lhs1 = binom(n - k - 2, k - 2) + binom(n - k - 1, k - 1) - binom(n - 2 * k, k - 1)
    rhs1 = binom(n - k, k - 1)
    lhs2, rhs2 = binom(n - 1, k - 1) - 2 * binom(n - k, k - 1), size_c3(n, k)
    return (lhs1, lhs2), (rhs1, rhs2), lhs1 <= rhs1 and lhs2 <= rhs2


def _check_peel_combine(p: dict) -> tuple:
    n, k = p["n"], p["k"]
    lhs = 3**5 * binom(n - 3, k - 3) + 4**5 * binom(n - 4, k - 4) + 2 * _g(n, k, 5)
    rhs = 250 * binom(n - 3, k - 3)
    return (lhs,), (rhs,), lhs <= rhs


def _check_final_compare(p: dict) -> tuple:
    k = p["k"]
    # (k^2-k+1)/sqrt(e) > 50k against the upper enclosure endpoint
    lhs1 = (k * k - k + 1) * SQRT_E_HI.denominator
    rhs1 = 50 * k * SQRT_E_HI.numerator
    lhs2, rhs2 = 50 * k, 4 * k + 250
    return (lhs1, lhs2), (rhs1, rhs2), lhs1 > rhs1 and lhs2 > rhs2


# a dimension is (name, default values given the outer values p, hypothesis);
# the hypothesis (reason, lo, hi) holds when lo(p) <= value <= hi(p), a
# bound of None being no bound, and a dimension without default values takes
# every value from lo(p) to hi(p).  Defaults and bounds read only outer
# dimensions.
_K4 = ("needs k >= 4", lambda p: 4, None)
_K4_40 = ("k", lambda p: range(4, 41), _K4)
_M41 = ("m", lambda p: range(p["k"] + p["s"], p["k"] + p["s"] + 41),
        ("needs m >= k+s", lambda p: p["k"] + p["s"], None))
# the large-k regime
_K_BIG = ("k", lambda p: (100, 120), ("needs k >= 100", lambda p: 100, None))
_BIG = (_K_BIG, ("n", lambda p: (2 * (p["k"] - 1) ** 2 + 1, 3 * (p["k"] - 1) ** 2),
                 ("needs n > 2(k-1)^2", lambda p: 2 * (p["k"] - 1) ** 2 + 1, None)))

# name -> (dimensions outermost first, line check)
GRID_CHECKS = {
    "f-mono": ((_K4_40, ("s", None, ("needs 2 <= s <= k", lambda p: 2, lambda p: p["k"])), _M41,
                ("z", None, ("needs 3 <= z <= s+1", lambda p: 3, lambda p: p["s"] + 1))),
               _check_f_mono),
    "f3-fprime3": ((_K4_40, ("s", None, ("needs 4 <= s <= k", lambda p: 4, lambda p: p["k"])),
                    _M41), _check_f3_fprime3),
    "g-ratio": ((*_BIG, ("i", None, ("needs 6 <= i <= k", lambda p: 6, lambda p: p["k"]))),
                _each(_check_g_ratio)),
    "two-g5": (_BIG, _each(_check_two_g5)),
    "eqc3large": (_BIG, _each(_check_eqc3large)),
    "eqboundf": ((_K_BIG, ("n", lambda p: (50 * (p["k"] - 1) + 1, 2 * (p["k"] - 1) ** 2),
                           ("needs n >= 50(k-1)+1", lambda p: 50 * (p["k"] - 1) + 1, None))),
                 _each(_check_eqboundf)),
    "eqboundc2": ((("k", lambda p: (100, 120), _K4),
                   ("n", lambda p: (2 * p["k"] + 1, 7 * p["k"], 50 * (p["k"] - 1)),
                    ("needs n > 2k", lambda p: 2 * p["k"] + 1, None))),
                  _each(_check_eqboundc2)),
    "peel-combine": (_BIG, _each(_check_peel_combine)),
    "final-compare": ((_K_BIG,), _each(_check_final_compare)),
}


def certify_grid(name: str, ranges: dict | None = None, full: bool = False) -> GridReport:
    """Evaluate one registered inequality over its (possibly overridden)
    parameter grid, a line of its innermost dimension at a time.  ranges
    maps dimension names to explicit value lists, each value listed once.
    Each hypothesis is tested once, at its dimension's level; a point that
    misses one is skipped with the reason of the outermost it misses.  The
    report counts every point and keeps those that did not pass, or every
    point when full is set."""
    if name not in GRID_CHECKS:
        raise KeyError(f"unknown inequality id: {name}; known: {sorted(GRID_CHECKS)}")
    dims, check = GRID_CHECKS[name]
    ranges = ranges or {}
    # a point lists n first, as in C(n, k), then the rest outermost first
    names = sorted((dim for dim, _, _ in dims), key=lambda dim: dim != "n")
    unknown = [dim for dim in ranges if dim not in names]
    if unknown:
        raise DomainError(f"grid {name} has no dimension {', '.join(unknown)};"
                          f" its dimensions are {', '.join(names)}")
    twice = [f"{dim}={v}" for dim, vs in ranges.items() for v, c in Counter(vs).items() if c > 1]
    if twice:
        raise DomainError(f"grid {name} lists {twice[0]} more than once in its ranges")
    report = GridReport(name)
    keep = report.points.append
    col = _sliding_columns()
    p = {}

    def walk(level, skipped):
        dim, default, (reason, low, high) = dims[level]
        lo = low(p) if low else -inf
        hi = high(p) if high else inf
        values = ranges[dim] if dim in ranges else default(p) if default else range(lo, hi + 1)
        if skipped:
            lo, hi = inf, -inf  # no value inside
        if level + 1 < len(dims):
            for v in values:
                p[dim] = v
                walk(level + 1, skipped or (None if lo <= v <= hi else reason))
            return
        # a line over its dimension's own interval lies inside the hypothesis
        own = not (skipped or default or dim in ranges)
        inside = values if own else [v for v in values if lo <= v <= hi]
        passed, sides = check(p, dim, inside, col) if inside else ((), None)
        n_passed = sum(passed)
        report.total += len(values)
        report.checked += len(inside)
        report.passed += n_passed
        if n_passed == len(values) and not full:
            return
        j = 0
        for v in values:
            p[dim] = v
            if not lo <= v <= hi:
                keep(GridPoint({d: p[d] for d in names}, skipped=skipped or reason))
                continue
            if full or not passed[j]:
                keep(GridPoint({d: p[d] for d in names}, *sides(j), passed[j]))
            j += 1

    walk(0, None)
    return report
