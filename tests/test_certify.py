"""Certification grids: enclosure proofs, registry behavior, determinism.

The sqrt(e) enclosure constants are certified here against the factorial
series for e with an explicit tail bound, entirely in rational arithmetic,
so the adverse-end comparisons in the grid checks rest on a proved
inclusion.
"""
from fractions import Fraction
from math import factorial

import pytest
from helpers import sum_eqboundc2_layers

from kfam.certify import (
    GRID_CHECKS,
    SQRT_E_HI,
    SQRT_E_LO,
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
    ["g-ratio", "two-g5", "eqc3large", "eqboundf", "eqboundc2", "peel-combine", "final-compare"],
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


def test_f_mono_lines_match_pointwise_reference_in_any_order():
    # out-of-order ranges with skipped points (s > k, m < k+s, z > s+1),
    # then every point again as its own one-point grid in reverse order
    ranges = {"k": [9, 5], "s": [4, 9, 2], "m": [30, 12, 20, 21], "z": [6, 3, 4]}
    report = certify_grid("f-mono", ranges=ranges, full=True)
    one_point = [certify_grid("f-mono", {d: [v] for d, v in p.params.items()}, full=True)
                 .points[0] for p in reversed(report.points)]
    assert report.total == len(report.points) == 2 * 3 * 4 * 3
    assert 0 < report.checked < report.total
    for p in report.points + one_point[::-1]:
        k, s, m, z = (p.params[d] for d in "ksmz")
        if p.skipped:
            assert not (k >= 4 and 2 <= s <= k and m >= k + s and 3 <= z <= s + 1)
            continue
        diff = f_of_z(m, s, k, z - 1) - f_of_z(m, s, k, z)
        step = binom(m - s - 2, k - 3)
        assert (p.lhs, p.rhs, p.passed) == ((diff, step), (step, 1), diff >= step > 1), p.params
    assert [p.params for p in report.points] == [p.params for p in one_point[::-1]]


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
    assert report.failures() == []
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
