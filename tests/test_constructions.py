import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import brute_is_intersecting, family
from kfam.constructions import c3, cross_closure, full_star, hilton_milner, t2, t2prime
from kfam.errors import DomainError
from kfam.families import is_intersecting, mask_of, restrict_avoid
from kfam.formulas import binom, hm_size, size_c3, size_f2prime


def test_t2_members():
    fam = t2(4, 7)
    assert fam.member_set == family(7, [{1, 2, 3, 4}, {1, 5, 6, 7}, {2, 5, 6, 7}]).member_set
    # default ground is the support [2k-1]
    assert t2(4).n == 7
    for k in (3, 4, 5, 6):
        fam = t2(k)
        assert len(fam) == 3
        assert fam.uniform_k == k
        assert is_intersecting(fam)


def test_t2prime_members():
    fam = t2prime(3, 9)
    assert fam.member_set == family(9, [{1, 2, 3}, {4, 5, 6}]).member_set
    assert t2prime(3).n == 6
    # the two blocks are disjoint by design
    assert not is_intersecting(fam)


def test_full_star():
    fam = full_star(6, 3)
    assert len(fam) == binom(5, 2)
    assert all(1 in s for s in fam.sets())
    assert is_intersecting(fam)


def test_hilton_milner():
    for n, k in [(7, 3), (9, 4), (11, 5)]:
        fam = hilton_milner(n, k)
        assert len(fam) == hm_size(n, k)
        assert is_intersecting(fam)
        assert len(restrict_avoid(fam, mask_of([1]))) == 1


def test_c3_structure():
    fam = c3(9, 4)
    off_pivot = restrict_avoid(fam, mask_of([1]))
    assert off_pivot.member_set == family(
        9, [{2, 3, 4, 5}, {2, 6, 7, 8}, {3, 6, 7, 8}]
    ).member_set
    assert is_intersecting(fam)
    assert len(fam) == size_c3(9, 4) == 48


@pytest.mark.parametrize(
    "n,k", [(7, 3), (8, 3), (9, 3), (10, 3), (11, 3), (12, 3), (9, 4), (10, 4), (12, 5)]
)
def test_c3_size_formula(n, k):
    assert len(c3(n, k)) == size_c3(n, k)


def test_c3_domain():
    with pytest.raises(DomainError):
        c3(5, 3)


def test_cross_closure_frozen():
    assert len(cross_closure(t2prime(3, 9), 3)) == size_f2prime(9, 3, 4) == 45


def test_cross_closure_exact_membership():
    h = t2(3, 7)
    r = 2
    closure = cross_closure(h, r)
    got = closure.member_set
    for c in combinations(range(1, 8), r):
        cm = mask_of(c)
        meets_all = all(cm & m for m in h.members)
        assert (cm in got) == meets_all


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**6))
def test_cross_closure_members_meet_everything(seed):
    rng = random.Random(seed)
    n = rng.randint(5, 9)
    s = rng.randint(2, 3)
    pool = [mask_of(c) for c in combinations(range(1, n + 1), s)]
    h = family(n, [])
    h = h.from_masks(n, rng.sample(pool, rng.randint(1, 4)))
    r = rng.randint(2, 4)
    closure = cross_closure(h, r)
    assert all(cm & hm for cm in closure.members for hm in h.members)


def test_star_plus_triangle_intersecting_check():
    fam = c3(8, 3)
    assert brute_is_intersecting(fam)
