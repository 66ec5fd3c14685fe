import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import family, random_intersecting_family, random_uniform_family, shift_set
from kfam.errors import DomainError
from kfam.families import is_intersecting
from kfam.shifting import shift_family


def test_shift_set_definition():
    assert shift_set({2, 3}, 1, 2) == frozenset({1, 3})
    assert shift_set({1, 3}, 1, 2) == frozenset({1, 3})
    assert shift_set({2, 3}, 2, 3) == frozenset({2, 3})
    assert shift_set({3, 4}, 2, 3) == frozenset({2, 4})


def test_shift_family_keeps_collision_source():
    fam = family(3, [{1, 3}, {2, 3}])
    assert shift_family(fam, 1, 2) == fam


def test_shift_moves_when_image_free():
    fam = family(3, [{2, 3}])
    assert shift_family(fam, 1, 2).sets() == [(1, 3)]


def test_shift_domain_errors():
    with pytest.raises(DomainError):
        shift_set({1, 2}, 2, 2)
    with pytest.raises(DomainError):
        shift_set({1, 2}, 3, 2)
    with pytest.raises(DomainError):
        shift_family(family(4, [{1, 2}]), 2, 5)


@settings(max_examples=150)
@given(st.integers(0, 10**6), st.integers(3, 9), st.integers(2, 4), st.integers(1, 12))
def test_shift_preserves_size_and_uniformity(seed, n, k, size):
    k = min(k, n)
    rng = random.Random(seed)
    fam = random_uniform_family(rng, n, k, size)
    i = rng.randint(1, n - 1)
    j = rng.randint(i + 1, n)
    out = shift_family(fam, i, j)
    assert len(out) == len(fam)
    assert out.uniform_k == fam.uniform_k


@settings(max_examples=150)
@given(st.integers(0, 10**6), st.integers(3, 9), st.integers(2, 4), st.integers(1, 12))
def test_shift_preserves_intersecting(seed, n, k, size):
    k = min(k, n)
    rng = random.Random(seed)
    fam = random_intersecting_family(rng, n, k, size)
    i = rng.randint(1, n - 1)
    j = rng.randint(i + 1, n)
    out = shift_family(fam, i, j)
    assert is_intersecting(out)


@settings(max_examples=100)
@given(st.integers(0, 10**6), st.integers(3, 8), st.integers(2, 3), st.integers(1, 10))
def test_shift_idempotent(seed, n, k, size):
    k = min(k, n)
    rng = random.Random(seed)
    fam = random_uniform_family(rng, n, k, size)
    i = rng.randint(1, n - 1)
    j = rng.randint(i + 1, n)
    once = shift_family(fam, i, j)
    assert shift_family(once, i, j) == once
