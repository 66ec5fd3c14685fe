import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    family,
    find_spread_restriction,
    lemma_spread2,
    random_intersecting_family,
    restart_reduction,
)
from kfam.constructions import c3, full_star, t2
from kfam.errors import DomainError
from kfam.families import Family, elements_of, is_intersecting, mask_of
from kfam.spread import is_r_spread, maximal_reduction, peel


def test_star_is_never_spread():
    star = full_star(6, 3)
    for r in (Fraction(3, 2), 2, 5):
        res = is_r_spread(star, r)
        assert not res
        assert res.violator == (1,)


def test_single_set_is_1_spread():
    assert is_r_spread(family(6, [{1, 2, 3}]), 1)


def test_complete_uniform_layer_is_spread():
    all_pairs = family(6, [set(c) for c in combinations(range(1, 7), 2)])
    assert is_r_spread(all_pairs, 2)


def test_spread_parameter_below_one_rejected():
    with pytest.raises(DomainError):
        is_r_spread(family(4, [{1, 2}]), Fraction(1, 2))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 6), st.integers(2, 9))
def test_spread_monotone_in_r(seed, p2, p1):
    rng = random.Random(seed)
    fam = random_intersecting_family(rng, rng.randint(4, 8), rng.randint(2, 3), rng.randint(2, 10))
    r1 = Fraction(p1, 2)
    r2 = Fraction(p2)
    if r1 < 1 or r1 > r2:
        return
    if is_r_spread(fam, r2):
        assert is_r_spread(fam, r1)


def test_find_spread_restriction_on_star():
    x, stripped = find_spread_restriction(full_star(6, 3), 2)
    assert 1 in x
    assert x == (1, 2)
    assert len(x) < 3
    assert is_r_spread(stripped, 2)
    assert len(stripped) > 0


def test_find_spread_restriction_requires_density():
    with pytest.raises(DomainError):
        find_spread_restriction(family(6, [{1, 2, 3}]), 2)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_find_spread_restriction_postconditions(seed):
    rng = random.Random(seed)
    n = rng.randint(5, 9)
    k = rng.randint(2, 3)
    fam = random_intersecting_family(rng, n, k, rng.randint(5, 14))
    r = Fraction(rng.randint(3, 4), 2)
    p, q = r.numerator, r.denominator
    if len(fam) * q**k <= p**k:
        return
    x, stripped = find_spread_restriction(fam, r)
    assert len(x) < k
    assert is_r_spread(stripped, r)
    # the restriction keeps the promised density
    assert len(stripped) * p ** len(x) >= len(fam) * q ** len(x)


def test_reduction_of_star_is_center():
    assert maximal_reduction(full_star(7, 3)).sets() == [(1,)]


def test_reduction_of_triangle_is_triangle():
    tri = family(4, [{1, 2}, {2, 3}, {1, 3}])
    assert maximal_reduction(tri) == tri


def _assert_reduction_postconditions(fam: Family, red: Family):
    assert is_intersecting(red)
    # antichain
    for a in red.members:
        for b in red.members:
            assert a == b or a & b != a
    # coverage of the input
    for m in fam.members:
        assert any(m & g == g for g in red.members)
    # irreducibility: no member can drop to a proper nonempty subset
    others = list(red.members)
    for g in red.members:
        rest = [o for o in others if o != g]
        for size in range(1, bin(g).count("1")):
            for sub in combinations(elements_of(g), size):
                sm = mask_of(sub)
                assert not all(sm & o for o in rest) or not is_intersecting(
                    Family.from_masks(red.n, rest + [sm])
                )


def test_reduction_postconditions_random():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(4, 9)
        k = rng.randint(2, 4)
        fam = random_intersecting_family(rng, n, k, rng.randint(1, 12))
        red = maximal_reduction(fam)
        _assert_reduction_postconditions(fam, red)


def test_reduction_matches_restart_oracle():
    rng = random.Random(11)
    cases = [c3(n, k) for n, k in ((9, 4), (10, 4), (11, 4), (12, 4), (10, 5), (11, 5), (12, 5))]
    for _ in range(300):
        n = rng.randint(4, 11)
        k = rng.randint(2, min(5, n - 1))
        cases.append(random_intersecting_family(rng, n, k, rng.randint(1, 20)))
    for fam in cases:
        log, want_log = [], []
        assert maximal_reduction(fam, log=log) == restart_reduction(fam, want_log)
        assert log == want_log


def test_peel_star_collapses():
    trace = peel(full_star(7, 3))
    assert all(len(w) == 0 for i, w in trace.layers.items() if i >= 2)
    assert trace.residues[1].sets() == [(1,)]


def test_peel_c3_frozen_profile():
    trace = peel(c3(9, 4))
    assert {i: len(w) for i, w in trace.layers.items()} == {4: 3, 3: 0, 2: 0}
    assert {i: len(r) for i, r in trace.residues.items()} == {4: 48, 3: 13, 2: 1, 1: 1}


def _check_coverage(fam: Family, trace) -> None:
    k = fam.uniform_k
    for i in range(1, k + 1):
        allowed = list(trace.residues[i].members)
        for j in trace.layers:
            if j > i:
                allowed.extend(trace.layers[j].members)
        for m in fam.members:
            assert any(m & g == g for g in allowed)


def test_peel_coverage_identity_examples():
    for fam in (c3(9, 4), t2(4, 9), full_star(8, 4)):
        _check_coverage(fam, peel(fam))


def test_peel_layer_bounds_random():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(5, 10)
        k = rng.randint(2, 4)
        fam = random_intersecting_family(rng, n, k, rng.randint(1, 14))
        trace = peel(fam)
        for i, w in trace.layers.items():
            assert len(w) <= i**i
        _check_coverage(fam, trace)


def _hypotheses_hold(res: dict, *dropped) -> bool:
    return all(held for name, held in res.items() if name not in ("conclusion", *dropped))


def test_lemma_spread2_common_element_true():
    g = family(6, [{1, 2, 3}, {1, 4, 5}, {1, 2, 6}])
    assert lemma_spread2(g, {1}, g, 4, 3)["conclusion"]


def test_lemma_spread2_valid_instances_true():
    # members all meet X={1,2}; the X-superset part is spread enough
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(7, 10)
        tail = rng.sample(range(3, n + 1), rng.randint(4, n - 2))
        gp_sets = [{1, 2, y} for y in tail]
        extras = [{1, rng.randint(3, n), rng.randint(3, n)} for _ in range(rng.randint(0, 3))]
        g = family(n, gp_sets + extras)
        gp = family(n, gp_sets)
        res = lemma_spread2(g, {1, 2}, gp, len(tail), 3)
        if _hypotheses_hold(res):
            assert res["conclusion"]
    # at least the base shape must pass its hypotheses
    g = family(9, [{1, 2, y} for y in range(3, 9)] + [{1, 3, 4}])
    res = lemma_spread2(g, {1, 2}, family(9, [{1, 2, y} for y in range(3, 9)]), 6, 3)
    assert _hypotheses_hold(res) and res["conclusion"]


def test_lemma_spread2_violating_instance_found_by_search():
    # drop only alpha > m and the conclusion must fail somewhere small
    found = None
    tri = [{1, 2}, {2, 3}, {1, 3}]
    g = family(4, tri)
    for x in ({1}, {2}, {3}):
        for gp_sets in combinations(tri, 1):
            res = lemma_spread2(g, x, family(4, list(gp_sets)), 1, 2)
            if (_hypotheses_hold(res, "alpha_exceeds_m")
                    and not res["alpha_exceeds_m"] and not res["conclusion"]):
                found = (x, gp_sets)
                break
        if found:
            break
    assert found is not None


def test_lemma_spread2_flags_reported_individually():
    g = family(5, [{1, 2}, {3, 4}])  # not intersecting
    assert not lemma_spread2(g, {1}, g, 3, 2)["g_intersecting"]
    res = lemma_spread2(family(5, [{1, 2, 3}]), {1}, family(5, [{1, 2, 3}]), 3, 2)
    assert not res["sizes_bounded"]
