"""Exact cover solver and minimal two-cover census against brute oracles.

The census oracle enumerates every labeled family of s-sets directly and
characterizes minimal covering-number-2 families by the predicate: no
common element overall, but a common element after deleting any single
member (which forces tau exactly 2).
"""
import math
import random
from itertools import combinations, permutations
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    bfs_minimal_tau2,
    brute_count_hitting,
    brute_tau,
    covering_minimal_tau2,
    family,
    perm_canonical,
    random_intersecting_family,
    random_uniform_family,
)
from kfam.constructions import c3, full_star, t2, t2prime
from kfam.covers import (
    _count_vectors,
    _lay,
    _member_permutations,
    _type_order,
    count_hitting_sets,
    covering_number,
    enumerate_minimal_tau2,
    minimal_tau2_subfamily,
    representative_pools,
)
from kfam.errors import DomainError
from kfam.families import Family, is_intersecting, mask_of


def _is_minimal_tau2(masks) -> bool:
    if len(masks) < 2:
        return False
    total = masks[0]
    for m in masks[1:]:
        total &= m
    if total:
        return False
    for i in range(len(masks)):
        rest = None
        for j, m in enumerate(masks):
            if j != i:
                rest = m if rest is None else rest & m
        if not rest:
            return False
    return True


def brute_minimal_families(m: int, s: int, max_z: int) -> list:
    pool = [mask_of(c) for c in combinations(range(1, m + 1), s)]
    found = []
    for z in range(2, max_z + 1):
        for combo in combinations(pool, z):
            if _is_minimal_tau2(combo):
                found.append(tuple(sorted(combo)))
    return found


def _orbit(fam: Family):
    """All labeled images of fam under the symmetric group on [fam.n]."""
    images = set()
    for perm in permutations(range(fam.n)):
        img = []
        for mask in fam.members:
            out = 0
            rest = mask
            while rest:
                low = rest & -rest
                out |= 1 << perm[low.bit_length() - 1]
                rest ^= low
            img.append(out)
        images.add(tuple(sorted(img)))
    return images


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 8), st.integers(1, 4), st.integers(0, 10))
def test_covering_number_matches_brute(seed, n, k, size):
    k = min(k, n)
    fam = random_uniform_family(random.Random(seed), n, k, size)
    res = covering_number(fam)
    assert res.tau == brute_tau(fam)
    if fam.members and res.tau != float("inf"):
        cm = res.witness_cover
        assert bin(cm).count("1") == res.tau
        assert all(cm & m for m in fam.members)


def test_tau_frozen_values():
    for k in (3, 4, 5, 6):
        assert covering_number(t2(k)).tau == 2
    for n in range(7, 13):
        assert covering_number(c3(n, 3)).tau == 3
    for n, k in [(9, 4), (10, 4), (12, 5)]:
        assert covering_number(c3(n, k)).tau == 3
    assert covering_number(full_star(8, 3)).tau == 1
    assert covering_number(family(5, [])).tau == 0
    assert covering_number(family(5, [set()])).tau == math.inf
    assert covering_number(family(5, [set()])).witness_cover is None


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 7), st.integers(1, 3), st.integers(0, 8), st.integers(1, 3))
def test_count_hitting_matches_brute(seed, n, k, size, t):
    k = min(k, n)
    t = min(t, n)
    fam = random_uniform_family(random.Random(seed), n, k, size)
    assert count_hitting_sets(fam, t) == brute_count_hitting(fam, t)


def test_count_hitting_conventions():
    assert count_hitting_sets(t2(4, 7), 2) == 13
    assert count_hitting_sets(family(6, []), 2) == math.comb(6, 2)
    assert count_hitting_sets(family(6, [set()]), 2) == 0


def test_minimal_tau2_subfamily_of_star_is_none():
    assert minimal_tau2_subfamily(full_star(7, 3)) is None


@pytest.mark.parametrize("fam", [t2(4, 7), t2(5), c3(9, 4), c3(10, 4)])
def test_minimal_tau2_subfamily_properties(fam):
    mt = minimal_tau2_subfamily(fam)
    assert mt is not None
    sub = mt.subfamily
    assert sub.member_set <= fam.member_set
    assert _is_minimal_tau2(sub.members)
    pools = representative_pools(sub)
    assert mt.pools == pools
    assert len(pools) == len(sub.members)
    for i, pool in enumerate(pools):
        assert pool, "minimality forces a nonempty pool per member"
        pm = mask_of(pool)
        for j, member in enumerate(sub.members):
            if i == j:
                assert not pm & member
            else:
                assert pm & member == pm
    # pools are pairwise disjoint
    for i in range(len(pools)):
        for j in range(i + 1, len(pools)):
            assert not set(pools[i]) & set(pools[j])


def test_minimal_tau2_subfamily_matches_the_covering_number_passes():
    rng = random.Random(7)
    fams = [c3(n, k) for n in range(7, 13) for k in (3, 4, 5) if n >= 2 * k]
    for _ in range(150):
        n = rng.randint(4, 9)
        k = rng.randint(1, min(4, n))
        fams.append(random_uniform_family(rng, n, k, rng.randint(1, 25)))
        fams.append(random_intersecting_family(rng, n, k, rng.randint(1, 25)))
    for fam in fams:
        mt = minimal_tau2_subfamily(fam)
        got = None if mt is None else (mt.subfamily.members, mt.pools)
        assert got == covering_minimal_tau2(fam), fam.members


def test_minimal_tau2_subfamily_binary_searches_the_prefix():
    calls = mock.Mock(side_effect=covering_number)
    with mock.patch("kfam.covers.covering_number", calls):
        assert minimal_tau2_subfamily(c3(14, 5)) is not None
    assert calls.call_count <= 12  # the whole family, then a search over 544 prefixes


def test_representative_pools_frozen():
    mt = minimal_tau2_subfamily(t2(4, 7))
    assert representative_pools(mt.subfamily) == ((5, 6, 7), (2,), (1,))


@pytest.mark.parametrize(
    "m,s,expected",
    [(4, 2, 2), (5, 2, 2), (6, 2, 2), (6, 3, 4)],
)
def test_census_matches_brute_orbits(m, s, expected):
    classes = enumerate_minimal_tau2(m, s)
    assert len(classes) == expected
    brute = brute_minimal_families(m, s, s + 2)
    canon_brute = {perm_canonical(Family.from_masks(m, f)) for f in brute}
    canon_impl = {perm_canonical(c) for c in classes}
    assert canon_impl == canon_brute


_ORACLE_CASES = [(m, s) for s in range(1, 5) for m in range(s, 11)] + [(9, 5)]


def _report_order(classes):
    return [(len(c.members), c.members) for c in classes]


@pytest.mark.parametrize("intersecting_only", [False, True])
def test_census_matches_the_bfs_oracle(intersecting_only):
    for m, s in _ORACLE_CASES:
        got = _report_order(enumerate_minimal_tau2(m, s, intersecting_only))
        want = _report_order(bfs_minimal_tau2(m, s, intersecting_only))
        assert got == sorted(want), (m, s)


@pytest.mark.parametrize("m", [10, 12])
def test_census_sorted_by_member_count_then_members(m):
    keys = _report_order(enumerate_minimal_tau2(m, 5))
    assert keys == sorted(set(keys))


def test_census_none_beyond_bollobas_bound():
    # no minimal family of s+2 members exists at desk scale
    for m, s in [(5, 2), (6, 2), (6, 3)]:
        pool = [mask_of(c) for c in combinations(range(1, m + 1), s)]
        for combo in combinations(pool, s + 2):
            assert not _is_minimal_tau2(combo)


def test_census_labeled_count_at_7_3():
    classes = enumerate_minimal_tau2(7, 3)
    for cls in classes:
        assert _is_minimal_tau2(cls.members)
        assert len(cls.members) <= 4
    labeled = brute_minimal_families(7, 3, 4)
    assert len(labeled) == sum(len(_orbit(c)) for c in classes)


def test_census_intersecting_filter():
    every = enumerate_minimal_tau2(6, 3)
    meeting = enumerate_minimal_tau2(6, 3, intersecting_only=True)
    assert {perm_canonical(c) for c in meeting} <= {perm_canonical(c) for c in every}
    assert all(is_intersecting(c) for c in meeting)
    assert any(not is_intersecting(c) for c in every)


def test_census_type_order_puts_member_one_first():
    assert _type_order(2) == (1, 2)
    assert _type_order(3) == (3, 5, 1, 6, 2, 4)


@pytest.mark.parametrize("m,s", [(9, 5), (8, 4)])
def test_census_layout_is_a_relabeling_in_consecutive_cells(m, s):
    for z in range(2, s + 2):
        images = _member_permutations(z)
        order = _type_order(z)
        for vec in _count_vectors(z, s, m):
            if any(image(vec) < vec for image in images):
                continue
            orbit = {image(vec) for image in images}
            for image in images:
                laid = _lay(image(vec), order, z)
                assert list(laid) == sorted(laid)
                # each element's in/out pattern on the members, by label
                cells = [sum(1 << i for i, x in enumerate(laid) if x >> e & 1) for e in range(m)]
                counts = [cells.count(t) for t in range(1, 1 << z)]
                assert counts[-1] == 0 and tuple(counts[:-1]) in orbit
                # every pattern takes one run of labels, the empty one last
                runs = [t for e, t in enumerate(cells) if e == 0 or cells[e - 1] != t]
                assert len(runs) == len(set(runs))
                assert 0 not in cells or runs[-1] == 0


def test_census_frozen_counts():
    assert len(enumerate_minimal_tau2(8, 4)) == 10
    assert len(enumerate_minimal_tau2(12, 4)) == 11


def test_census_domain_guards():
    with pytest.raises(DomainError):
        enumerate_minimal_tau2(13, 3)
    with pytest.raises(DomainError):
        enumerate_minimal_tau2(12, 6)
    with pytest.raises(DomainError):
        enumerate_minimal_tau2(3, 4)
