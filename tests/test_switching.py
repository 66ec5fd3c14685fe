import random

import pytest

from helpers import family, shuffled_copy
from kfam import switching
from kfam.constructions import c3, full_star, t2
from kfam.covers import covering_number, minimal_tau2_subfamily, representative_pools
from kfam.errors import DomainError, ExchangeError
from kfam.families import (
    Family,
    is_intersecting,
    mask_of,
    max_degree_element,
    restrict_avoid,
)
from kfam.fileio import load_family
from kfam.formulas import binom
from kfam.switching import exchange_Gi, switch_pipeline

DOCUMENTED_ABORTS = {
    "pass-cap",
    "tau-drifted",
    "tau-changed",
    "shift-stuck",
    "diversity-hypothesis",
    "corollary-hypothesis",
    "corollary-unavailable",
}


def _stray_instance(n=10):
    base = c3(n, 4)
    stray = mask_of([2, 3, 6, 7])
    members = [m for m in base.members if m & stray] + [stray]
    return Family.from_masks(n, members)


def _status_ok(status: str) -> bool:
    if status == "converged":
        return True
    head, _, reason = status.partition(":")
    return head == "aborted" and reason.split(":")[0] in DOCUMENTED_ABORTS


@pytest.mark.parametrize("n", [9, 10, 11, 12])
def test_pipeline_fixed_point_on_c3(n):
    fam = c3(n, 4)
    res = switch_pipeline(fam)
    assert res.converged
    assert res.family == fam
    assert res.passes == 1


def test_pipeline_fixed_point_on_c3_k5():
    fam = c3(12, 5)
    res = switch_pipeline(fam)
    assert res.converged
    assert res.family == fam


def test_pipeline_absorbs_stray_set():
    fam = _stray_instance()
    assert covering_number(fam).tau == 3
    res = switch_pipeline(fam)
    assert res.converged
    assert len(fam) == 57 and len(res.family) == 61
    assert covering_number(res.family).tau == 3
    avoid = restrict_avoid(res.family, mask_of([1]))
    assert len(avoid) == 3
    assert minimal_tau2_subfamily(avoid).subfamily.member_set == avoid.member_set


def test_pipeline_entry_guards(fixtures_dir):
    with pytest.raises(DomainError):
        switch_pipeline(full_star(9, 4))  # tau = 1
    with pytest.raises(DomainError):
        switch_pipeline(t2(4, 9))  # tau = 2
    with pytest.raises(DomainError):
        switch_pipeline(family(9, [{1, 2}, {1, 2, 3}]))  # not uniform
    with pytest.raises(DomainError):
        switch_pipeline(family(6, [{1, 2}, {3, 4}, {1, 3}]))  # not intersecting
    # n < 2k: tau = 3, intersecting and inside the diversity cap, but an
    # exchange would shrink it
    small = load_family(fixtures_dir / "switch_small_n9_k5.fam")
    assert (small.n, small.uniform_k, len(small)) == (9, 5, 76)
    assert covering_number(small).tau == 3 and is_intersecting(small)
    with pytest.raises(DomainError, match="n >= 2k"):
        switch_pipeline(small)


def test_refusal_mid_stage_keeps_the_last_family(fixtures_dir, monkeypatch):
    # an abort reports the family as of the last exchange that went through,
    # not the one its stage started from
    fam = load_family(fixtures_dir / "switch_transversal_n11_k5.fam")
    real = switching.exchange_transversal
    done = []

    def refuse_after_a_change(f, pivot, core, locked, i_mask):
        if any(out != before for before, out in done):
            raise ExchangeError("corollary-hypothesis: refused by the test")
        done.append((f, real(f, pivot, core, locked, i_mask)))
        return done[-1][1]

    monkeypatch.setattr(switching, "exchange_transversal", refuse_after_a_change)
    res = switch_pipeline(fam)
    assert res.status == "aborted:corollary-hypothesis"
    assert res.trace[-1]["stage"] == "transversal"
    assert res.family == done[-1][1] != done[0][0]


def test_shift_that_drops_tau_aborts_before_another_pass(fixtures_dir, monkeypatch):
    fam = load_family(fixtures_dir / "switch_shift_n12_k4.fam")
    drifted = t2(4, fam.n)
    monkeypatch.setattr(switching, "shift_family", lambda f, i, j: drifted)
    res = switch_pipeline(fam)
    assert res.status == "aborted:tau-drifted"
    assert res.trace[-1]["stage"] == "shift"
    assert res.passes == 1
    assert res.family == drifted


def test_no_shift_that_moves_a_set_aborts(fixtures_dir, monkeypatch):
    fam = load_family(fixtures_dir / "switch_shift_n12_k4.fam")
    monkeypatch.setattr(switching, "shift_family", lambda f, i, j: f)
    res = switch_pipeline(fam)
    assert res.status == "aborted:shift-stuck"
    assert all(entry["stage"] != "shift" for entry in res.trace)


def test_pipeline_rejects_k3_diversity():
    # at k=3 the hypothesis cap is C(n-5,0)=1 while any covering-number-3
    # family keeps at least two sets off the pivot, so the stratum is empty
    with pytest.raises(DomainError):
        switch_pipeline(c3(9, 3))


def _gi_core(fam, pivot=1):
    """The core at the pivot and the first representative of its first member."""
    avoid = restrict_avoid(fam, mask_of([pivot]))
    core = minimal_tau2_subfamily(avoid).subfamily
    return core, representative_pools(core)[0][0]


def test_exchange_gi_postconditions():
    fam = _stray_instance()
    core, rep = _gi_core(fam)
    member = core.members[0]
    out = exchange_Gi(fam, 1, core, 0, rep, member)
    assert len(out) >= len(fam)
    assert is_intersecting(out)
    rep_bit = 1 << (rep - 1)
    core_set = set(core.members)
    for s in restrict_avoid(out, mask_of([1])).members:
        assert s in core_set or s & rep_bit


def test_exchange_gi_rejects_bad_member():
    fam = _stray_instance()
    core, rep = _gi_core(fam)
    with pytest.raises(DomainError):
        exchange_Gi(fam, 1, core, 0, rep, mask_of([1, 2, 3, 4]))  # contains the pivot
    with pytest.raises(DomainError):
        exchange_Gi(fam, 1, core, 0, rep, mask_of([2, 3, 6, 7]))  # not a core member
    assert not any(cm & mask_of([9]) for cm in core.members)
    with pytest.raises(DomainError, match="every other core member"):
        exchange_Gi(fam, 1, core, 0, 9, core.members[0])  # 9 represents no member


def test_exchange_transversal_needs_more_locked_elements_than_i():
    # the pipeline always locks |I| + 1 or more elements, so a direct call
    # with fewer is an argument error, not an abort
    fam = _stray_instance()
    core, _ = _gi_core(fam)
    with pytest.raises(DomainError, match=r"need \|locked\| >= \|I\|\+1, got 0 < 3"):
        switching.exchange_transversal(fam, 1, core, 0, mask_of([2, 3]))


def _fat_diversity_instance():
    base = c3(9, 4)
    s1 = mask_of([2, 3, 6, 7])
    s2 = mask_of([2, 3, 6, 8])
    members = [m for m in base.members if m & s1 and m & s2] + [s1, s2]
    return Family.from_masks(9, members)


def test_exchange_gi_diversity_hypothesis_refusal():
    fam = _fat_diversity_instance()
    assert len(restrict_avoid(fam, mask_of([1]))) == 5  # cap is C(4,1) = 4
    core, rep = _gi_core(fam)
    with pytest.raises(ExchangeError, match="diversity-hypothesis"):
        exchange_Gi(fam, 1, core, 0, rep, core.members[0])


def test_pipeline_rejects_fat_diversity_at_entry():
    with pytest.raises(DomainError):
        switch_pipeline(_fat_diversity_instance())


def _random_admissible(rng: random.Random) -> Family:
    while True:
        n = rng.randint(9, 12)
        fam = shuffled_copy(rng, c3(n, 4))
        members = list(fam.members)
        rng.shuffle(members)
        kept = list(members)
        for m in members:
            if len(kept) <= 10 or rng.random() < 0.7:
                continue
            trial = [x for x in kept if x != m]
            cand = Family.from_masks(n, trial)
            if covering_number(cand).tau == 3:
                kept = trial
        cand = Family.from_masks(n, kept)
        pivot = max_degree_element(cand)
        if (
            covering_number(cand).tau == 3
            and len(restrict_avoid(cand, mask_of([pivot]))) <= binom(n - 5, 1)
        ):
            return cand


def _run_checking_stage_rule(fam, monkeypatch):
    """Run the pipeline and check every transversal-type I in the trace
    against its pass's core, re-derived from the pivot-avoiding part the
    pass started from: with z core members, a transversal-stage I has at most
    z - 1 elements and contains the pass's i', an extended-stage I at most z.
    Returns the pipeline's result and the number of I checked."""
    avoids = []
    real = switching.minimal_tau2_subfamily

    def spy(avoid):
        avoids.append(avoid)
        return real(avoid)

    monkeypatch.setattr(switching, "minimal_tau2_subfamily", spy)
    res = switch_pipeline(fam)
    monkeypatch.undo()
    # the z pools are nonempty and disjoint, so within the limits |I| + 1 never
    # exceeds the locked count (else exchange_transversal raises DomainError);
    # a refused I past a limit leaves no trace entry
    checked = 0
    for entry in res.trace:
        if entry["stage"] not in ("transversal", "extended"):
            continue
        core = minimal_tau2_subfamily(avoids[entry["pass"] - 1]).subfamily
        z = len(core)
        union = mask_of(e for pool in representative_pools(core) for e in pool)
        stripped = [cm & ~union for cm in core.members]
        i_prime = min(x for x in range(1, fam.n + 1)
                      if sum(st >> (x - 1) & 1 for st in stripped) >= 2)
        if entry["stage"] == "transversal":
            assert len(entry["I"]) <= z - 1 and i_prime in entry["I"], entry
        else:
            assert len(entry["I"]) <= z, entry
        checked += 1
    return res, checked


def test_stage_rule_holds_by_construction(fixtures_dir, monkeypatch):
    names = ["switch_abort_changed_n11_k5", "switch_abort_n10_k5",
             "switch_shift_n12_k4", "switch_transversal_n11_k5"]
    fams = [load_family(fixtures_dir / f"{name}.fam") for name in names]
    assert sum(_run_checking_stage_rule(fam, monkeypatch)[1] for fam in fams) > 0


def test_pipeline_random_admissible_instances(monkeypatch):
    rng = random.Random(23)
    for _ in range(12):
        fam = _random_admissible(rng)
        res, _ = _run_checking_stage_rule(fam, monkeypatch)
        assert _status_ok(res.status), res.status
        assert len(res.family) >= len(fam)
        if res.converged:
            assert is_intersecting(res.family)
            assert covering_number(res.family).tau == 3
            # pivot bookkeeping is internal; re-derive it for the check
            p = max_degree_element(res.family)
            avoid = restrict_avoid(res.family, mask_of([p]))
            mt = minimal_tau2_subfamily(avoid)
            assert mt is not None
            assert mt.subfamily.member_set == avoid.member_set
