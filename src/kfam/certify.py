"""Grid certification of the inequality chains behind the main bound.

Everything is exact: big integers, or rationals where the constant sqrt(e)
appears.  It enters only through a hard-coded certified enclosure, and each
comparison is made against the adverse end of that enclosure, so a reported
pass at a grid point is a proof for that point.  Each inequality is one row
of GRID_CHECKS: its grid of points, its hypotheses and its comparison.  A
point that misses a hypothesis is skipped, not evaluated, and names the
first hypothesis it misses.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError
from .formulas import binom, f_of_z, f_values, fprime3, size_c3, thm1_bound

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

    def failures(self) -> list:
        return [p for p in self.points if p.skipped is None and not p.passed]

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


# each check maps a point's parameters, inside its hypotheses, to
# (lhs, rhs, passed); lhs/rhs hold the compared integer tuples so a failure
# is diagnosable from the report alone

@lru_cache(maxsize=1)
def _f_mono_line(k: int, s: int, m: int) -> tuple:
    """f(2..s+1) and the step C(m-s-2, k-3) on a (k, s, m) line, which z walks innermost."""
    return tuple(f_values(m, s, k, range(2, s + 2))), binom(m - s - 2, k - 3)


def _check_f_mono(p: dict) -> tuple:
    k, s, m, z = p["k"], p["s"], p["m"], p["z"]
    f, step = _f_mono_line(k, s, m)
    diff = f[z - 3] - f[z - 2]
    return (diff, step), (step, 1), diff >= step and step > 1


def _check_f3_fprime3(p: dict) -> tuple:
    k, s, m = p["k"], p["s"], p["m"]
    diff = f_of_z(m, s, k, 3) - fprime3(m, s, k)
    target = binom(m - s - 3, k - 3)
    return (diff, target), (target, 1), diff == target and target >= 1


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


def _grid_f_mono(ov):
    for k in ov.get("k", range(4, 41)):
        for s in ov.get("s", range(2, k + 1)):
            for m in ov.get("m", range(k + s, k + s + 41)):
                for z in ov.get("z", range(3, s + 2)):
                    yield {"k": k, "s": s, "m": m, "z": z}


def _grid_f3_fprime3(ov):
    for k in ov.get("k", range(4, 41)):
        for s in ov.get("s", range(4, k + 1)):
            for m in ov.get("m", range(k + s, k + s + 41)):
                yield {"k": k, "s": s, "m": m}


def _nk_grid(n_default):
    """The (n, k) grid over k = 100, 120 and, for each k, n in n_default(k)."""
    def _grid(ov):
        for k in ov.get("k", (100, 120)):
            for n in ov.get("n", n_default(k)):
                yield {"n": n, "k": k}
    return _grid


_grid_big_nk = _nk_grid(lambda k: (2 * (k - 1) ** 2 + 1, 3 * (k - 1) ** 2))
_grid_eqboundf = _nk_grid(lambda k: (50 * (k - 1) + 1, 2 * (k - 1) ** 2))
_grid_eqboundc2 = _nk_grid(lambda k: (2 * k + 1, 7 * k, 50 * (k - 1)))


# a hypothesis is a (reason, test) pair; _BIG is the large-k regime
_K4 = ("needs k >= 4", lambda p: p["k"] >= 4)
_K100 = ("needs k >= 100", lambda p: p["k"] >= 100)
_M_KS = ("needs m >= k+s", lambda p: p["m"] >= p["k"] + p["s"])
_BIG = (_K100, ("needs n > 2(k-1)^2", lambda p: p["n"] > 2 * (p["k"] - 1) ** 2))
_S2 = ("needs 2 <= s <= k", lambda p: 2 <= p["s"] <= p["k"])
_S4 = ("needs 4 <= s <= k", lambda p: 4 <= p["s"] <= p["k"])
_Z3 = ("needs 3 <= z <= s+1", lambda p: 3 <= p["z"] <= p["s"] + 1)
_I6 = ("needs 6 <= i <= k", lambda p: 6 <= p["i"] <= p["k"])
_N50K = ("needs n >= 50(k-1)+1", lambda p: p["n"] >= 50 * (p["k"] - 1) + 1)
_N2K = ("needs n > 2k", lambda p: p["n"] > 2 * p["k"])

# name -> (grid, hypotheses in the order they are tested, comparison)
GRID_CHECKS = {
    "f-mono": (_grid_f_mono, (_K4, _S2, _M_KS, _Z3), _check_f_mono),
    "f3-fprime3": (_grid_f3_fprime3, (_K4, _S4, _M_KS), _check_f3_fprime3),
    "g-ratio": (lambda ov: ({**p, "i": i} for p in _grid_big_nk(ov)
                            for i in ov.get("i", range(6, p["k"] + 1))),
                (*_BIG, _I6), _check_g_ratio),
    "two-g5": (_grid_big_nk, _BIG, _check_two_g5),
    "eqc3large": (_grid_big_nk, _BIG, _check_eqc3large),
    "eqboundf": (_grid_eqboundf, (_K100, _N50K), _check_eqboundf),
    "eqboundc2": (_grid_eqboundc2, (_K4, _N2K), _check_eqboundc2),
    "peel-combine": (_grid_big_nk, _BIG, _check_peel_combine),
    "final-compare": (lambda ov: ({"k": k} for k in ov.get("k", (100, 120))),
                      (_K100,), _check_final_compare),
}


def certify_grid(name: str, ranges: dict | None = None, full: bool = False) -> GridReport:
    """Evaluate one registered inequality point by point over its (possibly
    overridden) parameter grid.  ranges maps dimension names to explicit
    value lists, each value listed once.  A point that misses a hypothesis
    is skipped with the reason of the first it misses.  The report counts
    every point and keeps those that did not pass, or every point when full
    is set."""
    if name not in GRID_CHECKS:
        raise KeyError(f"unknown inequality id: {name}; known: {sorted(GRID_CHECKS)}")
    grid, hypotheses, compare = GRID_CHECKS[name]
    ranges = ranges or {}
    dims = next(grid({}))
    unknown = [dim for dim in ranges if dim not in dims]
    if unknown:
        raise DomainError(f"grid {name} has no dimension {', '.join(unknown)};"
                          f" its dimensions are {', '.join(dims)}")
    twice = [f"{dim}={v}" for dim, vs in ranges.items() for v, c in Counter(vs).items() if c > 1]
    if twice:
        raise DomainError(f"grid {name} lists {twice[0]} more than once in its ranges")
    total = checked = passes = 0
    points = []
    for params in grid(ranges):
        total += 1
        for reason, holds in hypotheses:
            if not holds(params):
                points.append(GridPoint(params, skipped=reason))
                break
        else:
            lhs, rhs, passed = compare(params)
            checked += 1
            passes += passed
            if full or not passed:
                points.append(GridPoint(params, lhs, rhs, passed))
    return GridReport(name, total, checked, passes, points)
