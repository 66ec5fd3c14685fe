import math
import random

import pytest

from helpers import (
    ROOT,
    are_isomorphic,
    brute_cnkt,
    brute_tau,
    perm_canonical,
    run_python,
)
import kfam.search
from kfam.constructions import c3, full_star, t2, t2prime
from kfam.covers import covering_number
from kfam.errors import DomainError, ScaleError
from kfam.families import canonical_form, is_intersecting
from kfam.formulas import binom, f_of_z, hm_size, thm1_bound
from kfam.search import (
    find_tau_dropping_shift,
    lemmin_oracle,
    lemmin_table,
    max_intersecting_tau,
)
from kfam.shifting import shift_family


def test_cnkt_frozen_small():
    assert max_intersecting_tau(5, 2, 2).optimum == 3
    assert max_intersecting_tau(7, 3, 1).optimum == binom(6, 2) == 15
    assert max_intersecting_tau(7, 3, 2).optimum == hm_size(7, 3) == 13
    assert max_intersecting_tau(8, 3, 2).optimum == hm_size(8, 3) == 16


def test_cnkt_matches_threshold_bound():
    # the u=3 bound specializes to the exact tau>=2 optimum here
    assert max_intersecting_tau(7, 3, 2).optimum == thm1_bound(7, 3, 3)


def test_cnkt_t3_value_and_witnesses():
    res = max_intersecting_tau(7, 3, 3, all_optima=True)
    assert res.optimum == 10
    assert len(res.witnesses) == 7
    for w in res.witnesses:
        assert is_intersecting(w)
        assert len(w) == 10
        assert covering_number(w).tau >= 3
    # witnesses are pairwise non-isomorphic canonical forms
    for i, a in enumerate(res.witnesses):
        assert canonical_form(a) == a
        for b in res.witnesses[i + 1 :]:
            assert not are_isomorphic(a, b)
    # the explicit tau=3 construction is among the optima
    target = canonical_form(c3(7, 3))
    assert any(w == target for w in res.witnesses)


def test_cnkt_all_optima_counts():
    assert len(max_intersecting_tau(5, 2, 2, all_optima=True).witnesses) == 1
    assert len(max_intersecting_tau(6, 3, 2, all_optima=True).witnesses) == 12


def test_cnkt_monotone_in_t():
    values = [max_intersecting_tau(7, 3, t).optimum for t in (1, 2, 3)]
    assert values == sorted(values, reverse=True)


def test_cnkt_schedule_independent():
    # the root [k] sits at a different index after each shuffle
    base = max_intersecting_tau(7, 3, 2).optimum
    for seed in (1, 2, 3):
        assert max_intersecting_tau(7, 3, 2, rng=random.Random(seed)).optimum == base
    for n in (7, 8):
        base = max_intersecting_tau(n, 3, 3)
        for seed in (1, 2, 3):
            res = max_intersecting_tau(n, 3, 3, rng=random.Random(seed))
            assert (res.optimum, res.witnesses) == (base.optimum, base.witnesses)
    for n in (7, 8, 9, 10):
        base = max_intersecting_tau(n, 3, 3, all_optima=True)
        for seed in (1, 2, 3):
            res = max_intersecting_tau(n, 3, 3, all_optima=True, rng=random.Random(seed))
            assert (res.optimum, res.witnesses) == (base.optimum, base.witnesses)


@pytest.mark.parametrize("n,k,t,optimum,classes", [
    *[(n, 3, 1, math.comb(n - 1, 2), 1) for n in (7, 8, 9, 10)],
    *[(n, 3, 2, hm, 2) for n, hm in ((7, 13), (8, 16), (9, 19), (10, 22))],
    *[(n, 3, 3, 10, 7) for n in (7, 8, 9, 10)],
    (9, 4, 1, 56, 1),
    (9, 4, 2, 53, 1),
])
def test_cnkt_all_optima_class_counts(n, k, t, optimum, classes):
    # recorded before the search pruned by orbits of the clique's twin cells:
    # a prune that lost a class would lower the count
    res = max_intersecting_tau(n, k, t, all_optima=True)
    assert (res.optimum, len(res.witnesses)) == (optimum, classes)


def test_cnkt_orbit_prune_fires():
    # 2,222 nodes and 786 labeled optima when every candidate was branched on
    assert max_intersecting_tau(10, 3, 3, all_optima=True).nodes_explored < 2222


@pytest.mark.parametrize(
    "n,k,t",
    [(n, k, t) for n in range(1, 7) for k in range(1, n + 1) for t in range(1, k + 1)],
)
def test_cnkt_matches_unrooted_oracle(n, k, t):
    best, classes = brute_cnkt(n, k, t)
    for seed in (None, 1, 2, 3):
        rng = None if seed is None else random.Random(seed)
        res = max_intersecting_tau(n, k, t, rng=rng)
        assert res.optimum == best
        assert {perm_canonical(w) for w in res.witnesses} <= classes
        assert len(res.witnesses) == (1 if classes else 0)
    res = max_intersecting_tau(n, k, t, all_optima=True)
    assert res.optimum == best
    assert len(res.witnesses) == len(classes)
    assert {perm_canonical(w) for w in res.witnesses} == classes


@pytest.mark.parametrize("t", [1, 2, 3, 4])
def test_cnkt_n8_k4(t):
    # at n = 2k a clique holds at most one set of each complementary pair, so
    # C(7,3) = 35 bounds every t, and the 35 4-sets of [7] have tau = 4
    res = max_intersecting_tau(8, 4, t)
    assert res.optimum == math.comb(7, 3) == 35
    (w,) = res.witnesses
    assert len(w) == 35 and w.uniform_k == 4
    assert is_intersecting(w)
    assert brute_tau(w) >= t


@pytest.mark.parametrize("argv,message", [
    (["--k", "4", "--nmax", "8"], "--nmax must be at least 2k+1 = 9"),
    (["--k", "3", "--tmax", "4"], "1 <= --tmax <= k"),
])
def test_cnkt_table_refuses_an_empty_or_invalid_range(argv, message):
    # n starts at 2k+1, so a smaller --nmax would print a header and no row
    proc = run_python(ROOT / "scripts" / "cnkt_table.py", *argv)
    assert proc.returncode == 2
    assert message in proc.stderr
    assert proc.stdout == ""


def test_cnkt_guards():
    with pytest.raises(ScaleError):
        max_intersecting_tau(12, 5, 2)
    with pytest.raises(DomainError):
        max_intersecting_tau(7, 3, 4)
    with pytest.raises(DomainError):
        max_intersecting_tau(3, 4, 1)


@pytest.mark.parametrize("n, k, t", [(129, 128, 1), (129, 128, 3), (330, 329, 3)])
def test_cnkt_ground_limit_before_set_up(monkeypatch, n, k, t):
    # C(n, n-1) = n is under the vertex cap, but n is past the Family's
    # ground-set limit: the call refuses before it lists a k-set
    def listed(*args):
        raise AssertionError("k-sets listed")
    monkeypatch.setattr(kfam.search, "subsets", listed)
    with pytest.raises(DomainError, match=rf"ground size must be in \[1, 128\], got {n}"):
        max_intersecting_tau(n, k, t)


def test_lemmin_oracle_free_argmax():
    best, classes = lemmin_oracle(9, 3, 4)
    assert best == f_of_z(9, 3, 4, 2) + 2 == 47
    assert len(classes) == 1
    assert are_isomorphic(classes[0], t2prime(3, 9))


def test_lemmin_oracle_intersecting_argmax():
    best, classes = lemmin_oracle(8, 4, 4, intersecting_only=True)
    assert best == f_of_z(8, 4, 4, 3) + 3 == 48
    assert len(classes) == 1
    assert are_isomorphic(classes[0], t2(4, 8))


def test_lemmin_strict_runner_up():
    rows = lemmin_table(9, 3, 4)
    assert rows[0][0] == 47 and rows[1][0] == 41
    rows = lemmin_table(8, 4, 4, intersecting_only=True)
    assert rows[0][0] == 48 and rows[1][0] == 47


def test_lemmin_guards():
    with pytest.raises(DomainError):
        lemmin_oracle(6, 3, 4)  # m < k+s
    with pytest.raises(ScaleError):
        lemmin_oracle(12, 5, 7)


def test_tau_dropping_shift_exists_at_7_3():
    hit = find_tau_dropping_shift(7, 3)
    assert hit is not None
    fam, i, j = hit
    before = covering_number(fam).tau
    after = covering_number(shift_family(fam, i, j)).tau
    assert after < before


def test_star_shift_never_drops_below_one():
    star = full_star(7, 3)
    for i, j in [(1, 2), (2, 5), (3, 7)]:
        assert covering_number(shift_family(star, i, j)).tau >= 1
