"""Closed-form size formulas against independent counting oracles.

The trace-count oracle below enumerates the actual set systems whose sizes
the formulas claim to give, so every formula line is checked against a
brute count rather than against another formula.
"""
import math
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import sum_f_of_z, sum_fprime3, sum_size_c3, sum_size_f2prime
from kfam.certify import GRID_CHECKS, certify_grid
from kfam.errors import DomainError
from kfam.families import mask_of
from kfam.formulas import (
    binom,
    ekr_bound,
    f_of_z,
    f_values,
    fprime3,
    hm_size,
    kz_bound,
    size_c3,
    size_f2prime,
    thm1_bound,
)


def count_trace_block(m: int, psize: int, tsize: int, bsize: int) -> int:
    """#{psize-subsets P of [m] : P ∩ [1,tsize] = {tsize}, P meets
    [tsize+1, tsize+bsize]} by direct enumeration."""
    head = set(range(1, tsize))
    block = set(range(tsize + 1, tsize + bsize + 1))
    count = 0
    for p in combinations(range(1, m + 1), psize):
        ps = set(p)
        if tsize in ps and not ps & head and ps & block:
            count += 1
    return count


def test_binom_basics():
    assert binom(10, 3) == math.comb(10, 3)
    assert binom(5, 0) == 1
    # out-of-range arguments count zero ways rather than raising
    assert binom(3, 5) == 0
    assert binom(-1, 2) == 0
    assert binom(4, -1) == 0


@settings(max_examples=200)
@given(st.integers(1, 400), st.integers(0, 400))
def test_binom_pascal_and_symmetry(n, k):
    assert binom(n, k) == binom(n - 1, k - 1) + binom(n - 1, k)
    if 0 <= k <= n:
        assert binom(n, k) == binom(n, n - k)


def test_frozen_values():
    assert ekr_bound(7, 3) == 15
    assert hm_size(7, 3) == 13
    assert thm1_bound(7, 3, 3) == 13
    assert size_c3(7, 3) == 10
    assert size_c3(9, 3) == 10
    assert size_c3(9, 4) == 48
    assert size_c3(10, 4) == 61
    assert size_f2prime(9, 3, 4) == 45
    assert f_of_z(9, 3, 4, 2) == 45
    assert f_of_z(9, 3, 4, 3) == 38
    assert f_of_z(9, 4, 4, 2) == 64
    assert f_of_z(9, 4, 4, 3) == 58
    assert fprime3(9, 4, 4) == 56


def test_domain_guards():
    for call in (
        lambda: ekr_bound(5, 3),
        lambda: hm_size(8, 4),
        lambda: hm_size(7, 1),
        lambda: thm1_bound(7, 3, 2),
        lambda: thm1_bound(7, 3, 4),
        lambda: thm1_bound(6, 3, 3),
        lambda: size_c3(5, 3),
        lambda: size_c3(8, 2),
        lambda: size_f2prime(5, 3, 4),
        lambda: f_of_z(9, 3, 4, 1),
        lambda: f_of_z(9, 3, 4, 5),
        lambda: fprime3(9, 3, 4),
        lambda: kz_bound(7, 4, 3),
        lambda: kz_bound(7, 3, 4),
        lambda: kz_bound(9, 3, 4, 1),
        lambda: kz_bound(9, 3, 4, 5),
    ):
        with pytest.raises(DomainError):
            call()


def test_hm_is_thm1_endpoint():
    for n, k in [(7, 3), (9, 4), (11, 5), (20, 6)]:
        assert hm_size(n, k) == thm1_bound(n, k, k)


@pytest.mark.parametrize("m", [8, 9, 10, 11])
@pytest.mark.parametrize("k", [3, 4, 5])
def test_f2prime_counts_traces(m, k):
    for s in range(2, 5):
        if m < max(2 * s, k + s):
            continue
        total = sum(count_trace_block(m, k - 1, l, s) for l in range(1, s + 1))
        assert size_f2prime(m, s, k) == total


@pytest.mark.parametrize("m", [8, 9, 10, 11])
@pytest.mark.parametrize("k", [3, 4, 5])
def test_f_of_z_counts_traces(m, k):
    for s in range(2, 5):
        if m < max(2 * s, k + s):
            continue
        for z in range(2, s + 2):
            first = sum(
                count_trace_block(m, k - 1, l - 1, s - l + 2) for l in range(2, z + 1)
            )
            second = sum(
                count_trace_block(m, k - 1, z - 1 + l, s - z + 2)
                for l in range(1, s + 2 - z)
            )
            assert f_of_z(m, s, k, z) == first + second


@pytest.mark.parametrize("m", [9, 10, 11, 12])
@pytest.mark.parametrize("k", [3, 4, 5])
def test_fprime3_counts_traces(m, k):
    for s in (4, 5):
        if m < max(2 * s, k + s):
            continue
        blocks = [(1, s), (2, s - 1), (3, s - 1), (4, s - 2)]
        blocks += [(4 + l, s - 1) for l in range(1, s - 3)]
        total = sum(count_trace_block(m, k - 1, t, b) for t, b in blocks)
        assert fprime3(m, s, k) == total


def test_f_of_z_agrees_with_f2prime_at_z2():
    for m in range(8, 14):
        for s in (2, 3, 4):
            for k in (3, 4, 5):
                if m >= max(2 * s, k + s):
                    assert f_of_z(m, s, k, 2) == size_f2prime(m, s, k)


def test_f3_fprime3_gap():
    for m in range(9, 16):
        for s in (4, 5):
            for k in (4, 5, 6):
                if m >= max(2 * s, k + s):
                    gap = f_of_z(m, s, k, 3) - fprime3(m, s, k)
                    assert gap == binom(m - s - 3, k - 3)


def test_f_monotone_in_z_desk_scale():
    for m in range(9, 16):
        for s in (3, 4, 5):
            for k in (4, 5):
                if m < max(2 * s, k + s):
                    continue
                for z in range(3, s + 2):
                    assert f_of_z(m, s, k, z - 1) >= f_of_z(m, s, k, z)


def test_closed_forms_match_layer_sums():
    # the f-mono and f3-fprime3 grid domains up to k = 16, all z in [2, s+1]
    for k in range(4, 17):
        for s in range(2, k + 1):
            for m in range(k + s, k + s + 41):
                assert size_f2prime(m, s, k) == sum_size_f2prime(m, s, k), (m, s, k)
                for z in range(2, s + 2):
                    assert f_of_z(m, s, k, z) == sum_f_of_z(m, s, k, z), (m, s, k, z)
                assert f_values(m, s, k, range(2, s + 2)) == [
                    sum_f_of_z(m, s, k, z) for z in range(2, s + 2)], (m, s, k)
                if s >= 4:
                    assert fprime3(m, s, k) == sum_fprime3(m, s, k), (m, s, k)
    for k in range(3, 41):
        for n in range(2 * k, 2 * k + 41):
            assert size_c3(n, k) == sum_size_c3(n, k), (n, k)
    # every (n, k) point of the registered grids, the big-k ones included;
    # f-mono and f3-fprime3 range over (k, s, m) and z instead
    big = {(p.params["n"], p.params["k"]) for name in GRID_CHECKS
           if name not in ("f-mono", "f3-fprime3")
           for p in certify_grid(name, full=True).points if "n" in p.params}
    assert len(big) == 14
    for n, k in big:
        assert size_c3(n, k) == sum_size_c3(n, k), (n, k)


def test_kz_identities():
    for n, a, b in [(9, 3, 4), (10, 2, 5), (12, 4, 5)]:
        assert kz_bound(n, a, b) == binom(n, a)
        assert kz_bound(n, a, b, b) == binom(n, a) - binom(n - b, a) + 1
        t = b + 1 - a
        for j in range(t, b + 1):
            assert kz_bound(n, a, b, j) == binom(n, a) - binom(n - j, a) + binom(n - j, b - j)


def _max_cross_partner(n: int, a: int, bmasks) -> int:
    """Count all a-subsets of [n] meeting every mask in bmasks."""
    count = 0
    for c in combinations(range(1, n + 1), a):
        cm = mask_of(c)
        if all(cm & bm for bm in bmasks):
            count += 1
    return count


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_kz_bound_dominates_cross_pairs(seed):
    rng = random.Random(seed)
    n = rng.randint(8, 11)
    b = rng.randint(3, 5)
    a = rng.randint(2, b)
    if n <= a + b:
        n = a + b + 1
    pool = [mask_of(c) for c in combinations(range(1, n + 1), b)]
    bmasks = rng.sample(pool, rng.randint(1, min(25, len(pool))))
    asize = _max_cross_partner(n, a, bmasks)
    total = asize + len(bmasks)
    t = b + 1 - a
    if len(bmasks) <= binom(n - t, a - 1):
        assert total <= kz_bound(n, a, b)
        # the refined bound needs the same cap on |B| from above
        for j in range(t, b + 1):
            if len(bmasks) >= binom(n - j, b - j):
                assert total <= kz_bound(n, a, b, j)
