import random
import time
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    are_cross_intersecting,
    are_isomorphic,
    brute_is_intersecting,
    family,
    perm_canonical,
    random_uniform_family,
    relabel,
    restrict_contains_keep,
    restrict_contains_strip,
    shuffled_copy,
)
from kfam.constructions import c3, full_star, t2, t2prime
from kfam.covers import enumerate_minimal_tau2
from kfam.errors import DomainError, ScaleError
from kfam.families import (
    _CANONICAL_CAP,
    Family,
    canonical_form,
    dedup_isomorphism_classes,
    degree,
    diversity,
    elements_of,
    is_intersecting,
    mask_of,
    max_degree,
    max_degree_element,
    restrict_avoid,
    subsets,
)


@given(st.frozensets(st.integers(1, 30), max_size=12))
def test_mask_elements_round_trip(s):
    assert frozenset(elements_of(mask_of(s))) == s


@pytest.mark.parametrize(
    "ground", [0, 0b1, mask_of([2, 3, 5, 8]), mask_of([1, 3, 4, 9, 12]), mask_of(range(1, 8))]
)
def test_subsets_matches_filtered_combinations(ground):
    es = elements_of(ground)
    rng = random.Random(ground)
    meets_cases = [
        (),
        (0,),
        (mask_of([13, 14]),),  # disjoint from the ground
        (ground,),
        (mask_of(es[:2]), mask_of(es[-3:])),
        tuple(rng.randrange(1 << 14) for _ in range(3)),
    ]
    for meets in meets_cases:
        for r in range(len(es) + 2):
            brute = [
                m for m in map(mask_of, combinations(es, r)) if all(m & b for b in meets)
            ]
            assert list(subsets(ground, r, meets)) == brute, (ground, r, meets)


def test_family_dedup_and_order():
    fam = family(5, [{2, 3}, {1, 2}, {2, 3}, {4}])
    # members are kept sorted by mask value, duplicates dropped
    assert fam.sets() == [(1, 2), (2, 3), (4,)]
    assert len(fam) == 3


def test_family_rejects_out_of_ground():
    with pytest.raises(DomainError):
        family(3, [{1, 4}])


@pytest.mark.parametrize("n, members, fragment", [
    (0, (), "ground size"),
    (129, (), "ground size"),
    (3, (1, 1), "duplicate member"),
    (3, (2, 1), "sorted ascending"),
])
def test_family_rejects_bad_ground_and_unnormalized_members(n, members, fragment):
    with pytest.raises(DomainError, match=fragment):
        Family(n, members)


def test_uniform_k():
    assert family(5, [{1, 2}, {3, 4}]).uniform_k == 2
    assert family(5, [{1, 2}, {3, 4, 5}]).uniform_k is None
    assert family(5, []).uniform_k is None


def test_intersecting_edge_conventions():
    # empty family and the lone empty set are vacuously intersecting; an
    # empty set next to anything else is not
    assert is_intersecting(family(4, []))
    assert is_intersecting(family(4, [set()]))
    assert not is_intersecting(family(4, [set(), {1, 2}]))


@settings(max_examples=150)
@given(st.integers(0, 10**6), st.integers(2, 8), st.integers(1, 4), st.integers(0, 10))
def test_intersecting_matches_brute(seed, n, k, size):
    k = min(k, n)
    fam = random_uniform_family(random.Random(seed), n, k, size)
    assert is_intersecting(fam) == brute_is_intersecting(fam)


def test_degrees_and_diversity():
    fam = t2(4, 7)
    assert degree(fam, 1) == 2
    assert degree(fam, 5) == 2
    assert degree(fam, 3) == 1
    assert max_degree(fam) == 2
    # ties broken toward the smallest element
    assert max_degree_element(fam) == 1
    assert diversity(fam) == 1

    star = full_star(7, 3)
    assert diversity(star) == 0
    assert max_degree_element(star) == 1

    assert diversity(c3(9, 4)) == 3


def test_restrictions():
    fam = t2(4, 7)  # {1,2,3,4}, {1,5,6,7}, {2,5,6,7}
    x = mask_of([1])
    kept = restrict_contains_keep(fam, x)
    assert kept.sets() == [(1, 2, 3, 4), (1, 5, 6, 7)]
    stripped = restrict_contains_strip(fam, x)
    assert stripped.sets() == [(2, 3, 4), (5, 6, 7)]
    avoided = restrict_avoid(fam, x)
    assert avoided.sets() == [(2, 5, 6, 7)]
    assert len(kept) + len(avoided) == len(fam)


@settings(max_examples=100)
@given(st.integers(0, 10**6), st.integers(3, 8), st.integers(2, 4), st.integers(1, 12))
def test_restriction_partition(seed, n, k, size):
    k = min(k, n)
    fam = random_uniform_family(random.Random(seed), n, k, size)
    x = mask_of([1 + seed % n])
    assert len(restrict_contains_keep(fam, x)) + len(restrict_avoid(fam, x)) == len(fam)
    assert diversity(fam) == len(restrict_avoid(fam, mask_of([max_degree_element(fam)])))


def test_cross_intersecting():
    a = family(6, [{1, 2}, {1, 3}])
    b = family(6, [{2, 3}, {1, 6}])
    assert are_cross_intersecting(a, b)
    c = family(6, [{4, 5}])
    assert not are_cross_intersecting(a, c)
    # members of one side need not meet each other
    d = family(6, [{1, 4}, {2, 5}])
    e = family(6, [{1, 2}])
    assert are_cross_intersecting(d, e)


def _random_family(rng: random.Random, n: int, size: int, uniform: bool) -> Family:
    if uniform:
        return random_uniform_family(rng, n, rng.randint(1, n), size)
    return Family.from_masks(n, (rng.randrange(1 << n) for _ in range(size)))


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 7), st.integers(1, 3), st.integers(0, 6), st.booleans())
def test_canonical_matches_permutation_orbit(seed, n, k, size, mixed):
    k = min(k, n)
    rng = random.Random(seed)
    if mixed:
        fam = _random_family(rng, n, size, uniform=False)
    else:
        fam = random_uniform_family(rng, n, k, size)
    assert canonical_form(fam).members == perm_canonical(fam)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 5))
def test_canonical_matches_permutation_orbit_with_twins(seed, points):
    # each point of a random family becomes a class of 1-3 twins (elements
    # in exactly the same members), so that labelings tie inside each class
    rng = random.Random(seed)
    sizes = [rng.randint(1, 3) for _ in range(points)]
    while sum(sizes) > 8:
        sizes[sizes.index(max(sizes))] -= 1
    blocks = [((1 << size) - 1) << sum(sizes[:i]) for i, size in enumerate(sizes)]
    base = _random_family(rng, points, rng.randint(1, 2**points - 1), uniform=False)
    blown = (sum(b for i, b in enumerate(blocks) if m >> i & 1) for m in base)
    fam = shuffled_copy(rng, Family.from_masks(sum(sizes), blown))
    assert canonical_form(fam).members == perm_canonical(fam)


def test_census_classes_are_their_own_canonical_forms():
    # the census lays its forms out from count vectors; the canonical search
    # referees all 491 classes of its range
    rng = random.Random(95)
    seen = 0
    for s in range(1, 6):
        for m in range(s, 13):
            for mode in (False, True):
                for h in enumerate_minimal_tau2(m, s, intersecting_only=mode):
                    assert canonical_form(shuffled_copy(rng, h)) == h, (m, s, mode)
                    seen += 1
    assert seen == 491


@pytest.mark.parametrize("build", [c3, full_star], ids=["c3", "star"])
def test_canonical_matches_permutation_orbit_at_n8(build):
    # 35 members each; a search that stops early returns a larger list
    fam = build(8, 4)
    assert canonical_form(fam).members == perm_canonical(fam)


@pytest.mark.parametrize("build", [c3, full_star], ids=["c3", "star"])
def test_canonical_invariant_at_n9(build):
    fam = build(9, 4)
    shuffled = shuffled_copy(random.Random(9), fam)
    assert shuffled != fam
    assert canonical_form(shuffled) == canonical_form(fam)


def test_canonical_past_refinement():
    # colour refinement cannot tell the vertices of a hexagon from those of
    # two triangles beside it, but only a triangle labeled first starts the
    # least member list
    hexagon = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6)]
    both = family(12, hexagon + [(7, 8), (8, 9), (7, 9), (10, 11), (11, 12), (10, 12)])
    canon = canonical_form(both)
    assert canon.members[:3] == (0b011, 0b101, 0b110)
    assert canonical_form(relabel(both, {e: 13 - e for e in range(1, 13)})) == canon


def test_canonical_refuses_past_its_cap():
    # c3(12,5), 293 members, takes seconds and stays in; c3(13,5) has 408
    assert len(c3(12, 5)) <= _CANONICAL_CAP < len(c3(13, 5))
    star = full_star(14, 4)  # 286 members, many symmetries
    assert canonical_form(star) == star
    t0 = time.perf_counter()
    with pytest.raises(ScaleError):
        canonical_form(c3(13, 5))
    assert time.perf_counter() - t0 < 5


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6), st.integers(3, 7), st.integers(2, 3), st.integers(1, 8))
def test_canonical_invariant_under_relabeling(seed, n, k, size):
    k = min(k, n)
    rng = random.Random(seed)
    fam = random_uniform_family(rng, n, k, size)
    assert canonical_form(fam) == canonical_form(shuffled_copy(rng, fam))


def test_isomorphism():
    a = t2(3, 7)
    b = relabel(a, {1: 7, 2: 2, 3: 5, 4: 1, 5: 3, 6: 6, 7: 4})
    assert are_isomorphic(a, b)
    assert not are_isomorphic(t2(3, 7), family(7, t2prime(3, 7).sets() + [(1, 2, 3)]))
    assert not are_isomorphic(full_star(7, 3), c3(7, 3))


def test_dedup_isomorphism_classes():
    a = t2(3, 7)
    b = relabel(a, {1: 2, 2: 1, 3: 3, 4: 4, 5: 5, 6: 7, 7: 6})
    reps = dedup_isomorphism_classes([a, b, full_star(7, 3)])
    assert len(reps) == 2


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 7), st.integers(0, 7), st.booleans())
def test_isomorphism_matches_permutation_orbit(seed, n, size, uniform):
    rng = random.Random(seed)
    a = _random_family(rng, n, size, uniform)
    assert are_isomorphic(a, shuffled_copy(rng, a))
    b = _random_family(rng, n, len(a), uniform)
    assert are_isomorphic(a, b) == (perm_canonical(a) == perm_canonical(b))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 6), st.integers(1, 3))
def test_dedup_keeps_first_of_each_orbit(seed, n, k):
    rng = random.Random(seed)
    k = min(k, n)
    fams = []
    for _ in range(8):
        fam = random_uniform_family(rng, n, k, rng.randint(1, 4))
        fams += [fam, shuffled_copy(rng, fam)]
    rng.shuffle(fams)
    first: dict = {}
    for fam in fams:
        first.setdefault(perm_canonical(fam), fam)
    assert [id(f) for f in dedup_isomorphism_classes(fams)] == [id(f) for f in first.values()]


def test_isomorphism_past_refinement():
    # both are 2-regular on [6], so colour refinement alone cannot split them
    hexagon = family(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6)])
    triangles = family(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)])
    assert not are_isomorphic(hexagon, triangles)
    assert not are_isomorphic(triangles, hexagon)
    rng = random.Random(6)
    for fam in (hexagon, triangles):
        assert are_isomorphic(fam, shuffled_copy(rng, fam))
    assert len(dedup_isomorphism_classes([hexagon, triangles])) == 2
    # a hexagon beside two triangles on [12], relabeled so that element 1
    # moves from the hexagon into a triangle: individualizing 1 against the
    # first candidate fails and the search has to try the others
    both = family(12, hexagon.sets() + [(a + 6, b + 6) for a, b in triangles.sets()])
    swap = {e: (e + 5) % 12 + 1 for e in range(1, 13)}
    assert are_isomorphic(both, relabel(both, swap))
