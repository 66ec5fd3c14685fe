"""Certification grids: enclosure proofs, registry behavior, determinism.

The sqrt(e) enclosure constants are certified here against the factorial
series for e with an explicit tail bound, entirely in rational arithmetic,
so the adverse-end comparisons in the grid checks rest on a proved
inclusion.
"""
import json
import random
from fractions import Fraction
from math import factorial

import pytest
from helpers import POINTWISE_ROWS, pointwise_grid, sum_eqboundc2_layers

import kfam.certify
from kfam.certify import (
    GRID_CHECKS,
    SQRT_E_HI,
    SQRT_E_LO,
    _sliding_columns,
    certify_grid,
)
from kfam.formulas import binom, f_of_z


def _e_series_bounds(terms: int = 18):
    low = sum(Fraction(1, factorial(i)) for i in range(terms + 1))
    # tail: sum_{i>N} 1/i! < 2/(N+1)!
    high = low + Fraction(2, factorial(terms + 1))
    return low, high


def test_sqrt_e_enclosure_certified():
    low, high = _e_series_bounds()
    assert SQRT_E_LO**2 <= low
    assert SQRT_E_HI**2 >= high


def test_registry_contents():
    assert set(GRID_CHECKS) == {
        "f-mono",
        "f3-fprime3",
        "g-ratio",
        "two-g5",
        "eqc3large",
        "eqboundf",
        "eqboundc2",
        "peel-combine",
        "final-compare",
    }


def test_unknown_id_rejected():
    with pytest.raises(KeyError):
        certify_grid("no-such-grid")


@pytest.mark.parametrize(
    "name",
    ["f3-fprime3", "g-ratio", "two-g5", "eqc3large", "eqboundf", "eqboundc2", "peel-combine",
     "final-compare"],
)
def test_default_small_grids_pass(name):
    report = certify_grid(name)
    assert report.total > 0
    assert report.n_skipped == 0
    assert report.all_pass


def test_f_mono_restricted_grid():
    report = certify_grid("f-mono", ranges={"k": [4, 5, 6]})
    assert report.all_pass
    assert report.checked > 0


def test_f_mono_point_values():
    report = certify_grid("f-mono", ranges={"k": [4], "s": [3], "m": [9], "z": [3]}, full=True)
    (pt,) = report.points
    assert pt.params == {"k": 4, "s": 3, "m": 9, "z": 3}
    assert pt.lhs[0] == f_of_z(9, 3, 4, 2) - f_of_z(9, 3, 4, 3) == 7
    assert pt.lhs[1] == binom(9 - 3 - 2, 4 - 3) == 4
    assert pt.passed


# Per row, values for each dimension that straddle every hypothesis bound,
# so that seeded overrides drawn from them miss each hypothesis somewhere.
_BIG_NS = [2 * (k - 1) ** 2 + d for k in (99, 100, 101, 120) for d in (-1, 0, 1, 2)]
_BIG_POOL = {"k": [98, 99, 100, 101, 120], "n": _BIG_NS + [3 * 99**2, 3 * 119**2]}
_POOLS = {
    "f-mono": {"k": list(range(2, 10)), "s": list(range(0, 11)), "m": list(range(0, 25)),
               "z": list(range(0, 12))},
    "f3-fprime3": {"k": list(range(2, 10)), "s": list(range(2, 11)), "m": list(range(4, 30))},
    "g-ratio": {**_BIG_POOL, "i": [4, 5, 6, 7, 99, 100, 101, 119, 120, 121]},
    "two-g5": _BIG_POOL,
    "eqc3large": _BIG_POOL,
    "peel-combine": _BIG_POOL,
    "eqboundf": {"k": [98, 99, 100, 101, 120],
                 "n": [50 * (k - 1) + d for k in (99, 100, 101, 120) for d in (-1, 0, 1)]
                 + [2 * 99**2, 2 * 119**2]},
    "eqboundc2": {"k": [2, 3, 4, 5, 6, 7, 8, 100], "n": list(range(0, 41)) + [200, 201, 202, 700]},
    "final-compare": {"k": [95, 98, 99, 100, 101, 105, 120]},
}
# the default grids, f-mono cut to k <= 8; then a case with skipped points
# (s > k, m < k+s, z > s+1) in shuffled order; then, for the rows read from
# sliding columns, a gap of 10^9 in m that no column may span, m descending,
# and the top of the default grids, k = 40 at its least and greatest s
_GAP = {"k": [5], "s": [4], "m": [20, 1000000000]}
_FIXED = {"f-mono": [{"k": list(range(4, 9))},
                     {"k": [9, 5], "s": [4, 9, 2], "m": [30, 12, 20, 21], "z": [6, 3, 4]},
                     _GAP, {"k": [40], "s": [2, 39, 40]}],
          "f3-fprime3": [{}, _GAP, {"k": [7, 5], "s": [6, 4], "m": list(range(40, 8, -1))},
                         {"k": [40], "s": [4, 40]}]}


def _seeded_ranges(name, seed):
    """A shuffled override: k always, every other dimension four times in
    five, each with one to five values from its pool."""
    rng = random.Random(f"{name}-{seed}")
    return {dim: rng.sample(pool, rng.randint(1, min(5, len(pool))))
            for dim, pool in _POOLS[name].items() if dim == "k" or rng.random() < 0.8}


@pytest.mark.parametrize("name", sorted(POINTWISE_ROWS))
def test_grid_matches_pointwise_reference(name):
    cases = _FIXED.get(name, [{}]) + [_seeded_ranges(name, seed) for seed in range(50)]
    reasons = set()
    for ranges in cases:
        for full in (False, True):
            report = certify_grid(name, ranges, full=full).to_json()
            reference = pointwise_grid(name, ranges, full)
            assert report == reference, (ranges, full)
            # key order too: a point lists its dimensions as the reference does
            assert json.dumps(report) == json.dumps(reference), (ranges, full)
            reasons |= {p["skipped"] for p in report["points"] if "skipped" in p}
    # every hypothesis of the row was missed somewhere, so every bound was crossed
    assert reasons == {reason for reason, _ in POINTWISE_ROWS[name][1]}


def test_sliding_columns_match_binom(monkeypatch):
    # seeded requests that overlap, adjoin, jump down or jump across a gap,
    # with negative tops and r < 0; each computes only the tops its window
    # lacks, and the window it returns holds exactly the tops requested since
    # it began, so it never spans the tops between two requests
    computed = []
    monkeypatch.setattr(kfam.certify, "binom", lambda a, r: computed.append(a) or binom(a, r))
    for seed in range(20):
        rng = random.Random(seed)
        col = _sliding_columns()
        held = {}  # r -> the tops its window holds, as a range
        for _ in range(80):
            r = rng.randint(-2, 6)
            window = held.get(r)
            at = window.start if window else rng.randint(-15, 15)
            lo = rng.choice((at + rng.randint(-12, 12), at - 10**6, at + 10**6))
            hi = lo + rng.randint(1, 9)
            computed.clear()
            values, first = col(r, lo, hi)
            expected = [binom(a, r) for a in range(lo, hi)]
            assert values[lo - first:hi - first] == expected, (seed, r, lo, hi)
            if window and lo <= window.stop and hi >= window.start:
                assert sorted(computed) == [a for a in range(lo, hi) if a not in window]
                held[r] = range(min(lo, window.start), max(hi, window.stop))
            else:
                assert sorted(computed) == list(range(lo, hi))
                held[r] = range(lo, hi)
            assert range(first, first + len(values)) == held[r]


def test_interleaved_runs_match_the_reference_and_share_no_binomials(monkeypatch):
    # runs of the two column rows taken in turn each match the referee, and
    # each computes as many binomials when made again: no run reads columns
    # another run built
    cases = [(name, _seeded_ranges(name, seed)) for seed in range(6)
             for name in ("f-mono", "f3-fprime3")]
    computed = []
    monkeypatch.setattr(kfam.certify, "binom", lambda a, r: computed.append(a) or binom(a, r))
    counts = []
    for name, ranges in cases + cases:
        computed.clear()
        report = certify_grid(name, ranges, full=True).to_json()
        assert report == pointwise_grid(name, ranges, True), (name, ranges)
        counts.append(len(computed))
    assert counts[:len(cases)] == counts[len(cases):]


def _declaration_problems(dims):
    """Why testing each dimension's hypothesis once at its level would not
    be exact for a row: a default range or bound that reads a dimension not
    outer to its own, or a dimension without default values that is not
    bounded on both sides."""
    problems = []
    p = {}
    for dim, default, (_, lo, hi) in dims:
        if default is None and not (lo and hi):
            problems.append(f"{dim} has no default values and an open bound")
        try:
            bounds = [bound(p) for bound in (lo, hi) if bound]
            p[dim] = next(iter(default(p) if default else bounds), 0)
        except KeyError as missing:
            problems.append(f"{dim} reads {missing}, not an outer dimension")
    return problems


def test_rows_declare_hypotheses_in_dimension_order():
    for name, (dims, _) in GRID_CHECKS.items():
        assert _declaration_problems(dims) == [], name
    dims, _ = GRID_CHECKS["f-mono"]
    assert _declaration_problems(dims[::-1])
    # dropping s leaves m and z reading it
    assert _declaration_problems(dims[:1] + dims[2:])
    z, _, (reason, lo, _) = dims[3]
    assert _declaration_problems((*dims[:3], (z, None, (reason, lo, None))))


def test_out_of_hypothesis_points_skipped_with_reason():
    report = certify_grid("f3-fprime3", ranges={"k": [4], "s": [2, 3, 4], "m": [8]}, full=True)
    reasons = {p.params["s"]: p.skipped for p in report.points}
    assert reasons[2] and "s" in reasons[2]
    assert reasons[3] and "s" in reasons[3]
    assert reasons[4] is None
    # skipped points never count as failures
    assert report.all_pass
    assert report.n_skipped == 2


def test_report_keeps_points_that_did_not_pass():
    ranges = {"k": [4], "s": [2, 3, 4], "m": [8]}
    report = certify_grid("f3-fprime3", ranges=ranges)
    assert (report.total, report.checked, report.passed) == (3, 1, 1)
    assert [p.params["s"] for p in report.points] == [2, 3]
    full = certify_grid("f3-fprime3", ranges=ranges, full=True)
    assert [p.params for p in full.points] == [{"k": 4, "s": s, "m": 8} for s in (2, 3, 4)]


def test_low_k_points_skipped():
    report = certify_grid("f-mono", ranges={"k": [3], "s": [2], "m": [9], "z": [3]}, full=True)
    assert all(p.skipped for p in report.points)
    assert report.checked == 0


def test_report_json_shape():
    report = certify_grid("final-compare", full=True)
    payload = report.to_json()
    assert payload["name"] == "final-compare"
    assert payload["total"] == payload["checked"] == len(report.points)
    assert payload["all_pass"] is True
    for entry in payload["points"]:
        assert set(entry) >= {"point", "lhs", "rhs", "pass"}


_BIG_N = {99: 2 * 98**2, 100: 2 * 99**2}  # n = 2(k-1)^2, one short of the big regime


# Per grid, one point per hypothesis in declared order: it keeps every
# earlier hypothesis and misses its own and every later one, so the reason
# reported names the first hypothesis missed and pins the order.
@pytest.mark.parametrize(
    "name, point, reason",
    [
        ("f-mono", {"k": 3, "s": 4, "m": 6, "z": 2}, "needs k >= 4"),
        ("f-mono", {"k": 4, "s": 5, "m": 8, "z": 2}, "needs 2 <= s <= k"),
        ("f-mono", {"k": 4, "s": 2, "m": 5, "z": 4}, "needs m >= k+s"),
        ("f-mono", {"k": 4, "s": 2, "m": 6, "z": 4}, "needs 3 <= z <= s+1"),
        ("f3-fprime3", {"k": 3, "s": 3, "m": 5}, "needs k >= 4"),
        ("f3-fprime3", {"k": 4, "s": 3, "m": 6}, "needs 4 <= s <= k"),
        ("f3-fprime3", {"k": 4, "s": 4, "m": 7}, "needs m >= k+s"),
        ("g-ratio", {"n": _BIG_N[99], "k": 99, "i": 5}, "needs k >= 100"),
        ("g-ratio", {"n": _BIG_N[100], "k": 100, "i": 5}, "needs n > 2(k-1)^2"),
        ("g-ratio", {"n": _BIG_N[100] + 1, "k": 100, "i": 101}, "needs 6 <= i <= k"),
        *[
            (name, point, reason)
            for name in ("two-g5", "eqc3large", "peel-combine")
            for point, reason in [
                ({"n": _BIG_N[99], "k": 99}, "needs k >= 100"),
                ({"n": _BIG_N[100], "k": 100}, "needs n > 2(k-1)^2"),
            ]
        ],
        ("eqboundf", {"n": 50 * 98, "k": 99}, "needs k >= 100"),
        ("eqboundf", {"n": 50 * 99, "k": 100}, "needs n >= 50(k-1)+1"),
        ("eqboundc2", {"n": 6, "k": 3}, "needs k >= 4"),
        ("eqboundc2", {"n": 8, "k": 4}, "needs n > 2k"),
        ("final-compare", {"k": 99}, "needs k >= 100"),
    ],
)
def test_skip_reason_names_the_first_missed_hypothesis(name, point, reason):
    report = certify_grid(name, ranges={dim: [value] for dim, value in point.items()})
    assert (report.total, report.checked, report.passed) == (1, 0, 0)
    assert report.to_json()["points"] == [
        {"point": point, "lhs": [], "rhs": [], "pass": False, "skipped": reason}
    ]


def test_eqboundc2_closed_form_matches_its_layer_sum():
    # the grid evaluates sum_{i=2}^{k} C(n-k-i, k-2) by the hockey-stick identity
    for k in range(4, 80):
        report = certify_grid("eqboundc2", ranges={"k": [k], "n": list(range(8 * k + 10))},
                              full=True)
        assert report.n_skipped == 2 * k + 1
        for pt in report.points[2 * k + 1:]:
            n = pt.params["n"]
            assert pt.lhs[0] == binom(n - k - 2, k - 2) + sum_eqboundc2_layers(n, k), (n, k)
