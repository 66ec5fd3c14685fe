import math
import random

import pytest

from helpers import (
    ROOT,
    are_isomorphic,
    brute_cnkt,
    brute_tau,
    perm_canonical,
    random_intersecting_family,
    run_python,
)
from kfam.constructions import c3, full_star, t2, t2prime
from kfam.covers import covering_number
from kfam.errors import DomainError, ScaleError
from kfam.families import canonical_form, is_intersecting
from kfam.formulas import ekr_bound, f_of_z, hm_size, thm1_bound
from kfam.search import (
    find_tau_dropping_shift,
    lemmin_oracle,
    lemmin_table,
    max_intersecting_tau,
    saturate,
)
from kfam.shifting import shift_family


def test_cnkt_frozen_small():
    assert max_intersecting_tau(5, 2, 2).optimum == 3
    assert max_intersecting_tau(7, 3, 1).optimum == ekr_bound(7, 3) == 15
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
    base = max_intersecting_tau(7, 3, 3, all_optima=True)
    for seed in (1, 2, 3):
        res = max_intersecting_tau(7, 3, 3, all_optima=True, rng=random.Random(seed))
        assert (res.optimum, res.witnesses) == (base.optimum, base.witnesses)


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


def test_saturate_fixed_point_on_maximal():
    fam = c3(9, 4)
    assert saturate(fam) == fam


def test_saturate_never_loses_tau():
    rng = random.Random(19)
    for _ in range(40):
        n = rng.randint(5, 9)
        k = rng.randint(2, 3)
        fam = random_intersecting_family(rng, n, k, rng.randint(1, 10))
        before = covering_number(fam).tau
        sat = saturate(fam)
        assert fam.member_set <= sat.member_set
        assert is_intersecting(sat)
        assert covering_number(sat).tau >= before


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
