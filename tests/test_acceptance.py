"""Acceptance gate: the ten headline checks, one reported line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; each test also enforces its runtime cap.
"""
import json
import random
import time

from helpers import are_isomorphic, family, random_intersecting_family, shuffled_copy
from kfam.certify import certify_grid
from kfam.constructions import c3, cross_closure, t2, t2prime
from kfam.covers import covering_number, enumerate_minimal_tau2
from kfam.families import (
    Family,
    is_intersecting,
    mask_of,
    max_degree_element,
    restrict_avoid,
)
from kfam.formulas import binom, f_of_z, fprime3, hm_size, size_c3, size_f2prime
from kfam.search import find_tau_dropping_shift, lemmin_oracle, max_intersecting_tau
from kfam.shifting import shift_family
from kfam.spread import peel
from kfam.switching import switch_pipeline

DOCUMENTED_ABORTS = {
    "pass-cap",
    "tau-drifted",
    "tau-changed",
    "shift-stuck",
    "diversity-hypothesis",
    "corollary-hypothesis",
    "corollary-unavailable",
    "uniformity",
}

# the grid runs backing criterion 05
ACCEPTANCE_GRIDS = ("f-mono", "g-ratio", "two-g5", "eqc3large", "eqboundf")


def _finish(num: int, ok: bool, t0: float, cap: float, detail: str = ""):
    elapsed = time.perf_counter() - t0
    status = "PASS" if ok and elapsed < cap else "FAIL"
    print(f"criterion {num:2d}: {status} ({elapsed:.2f}s, cap {cap:.0f}s)", flush=True)
    assert ok, detail
    assert elapsed < cap, f"criterion {num} over its {cap:.0f}s cap at {elapsed:.2f}s"


def _grid_nk():
    for k in (4, 5, 6):
        for n in range(2 * k + 1, 2 * k + 7):
            yield n, k


def test_criterion_01_formula_vs_enumeration():
    t0 = time.perf_counter()
    bad = [
        (n, k)
        for n, k in _grid_nk()
        if len(c3(n, k)) != size_c3(n, k)
    ]
    _finish(1, not bad, t0, 10, f"size mismatches at {bad}")


def test_criterion_02_tau_certification():
    t0 = time.perf_counter()
    bad = [(n, k) for n, k in _grid_nk() if covering_number(c3(n, k)).tau != 3]
    bad += [("t2", k) for k in (4, 5, 6) if covering_number(t2(k)).tau != 2]
    _finish(2, not bad, t0, 5, f"covering numbers off at {bad}")


def test_criterion_03_pairing_score_argmax():
    t0 = time.perf_counter()
    problems = []
    for m in (8, 9, 10):
        best, classes = lemmin_oracle(m, 4, 4, intersecting_only=True)
        if len(classes) != 1 or not are_isomorphic(classes[0], t2(4, m)):
            problems.append(("intersecting", m))
    for s in (3, 4):
        for k in (4, 5):
            for m in range(k + s, k + s + 3):
                best, classes = lemmin_oracle(m, s, k)
                if len(classes) != 1 or not are_isomorphic(classes[0], t2prime(s, m)):
                    problems.append(("free", m, s, k))
    _finish(3, not problems, t0, 300, f"argmax mismatches: {problems}")


def test_criterion_04_identity_suite():
    t0 = time.perf_counter()
    problems = []
    for s in (3, 4):
        for k in (4, 5):
            for m in range(k + s, k + s + 3):
                if f_of_z(m, s, k, 2) != size_f2prime(m, s, k):
                    problems.append(("fz2", m, s, k))
                closure2 = len(cross_closure(t2prime(s, m), k - 1))
                if f_of_z(m, s, k, 2) + 2 != closure2 + 2:
                    problems.append(("closure2", m, s, k))
                closure3 = len(cross_closure(t2(s, m), k - 1))
                if f_of_z(m, s, k, 3) + 3 != closure3 + 3:
                    problems.append(("closure3", m, s, k))
    # the three-set gap identity needs s >= 4, so the s=4 rows of the grid
    # above, carried out to k = 40
    for k in range(4, 41):
        s = 4
        for m in range(k + s, k + s + 3):
            if f_of_z(m, s, k, 3) - fprime3(m, s, k) != binom(m - s - 3, k - 3):
                problems.append(("gap", m, s, k))
    _finish(4, not problems, t0, 30, f"identity failures: {problems}")


def test_criterion_05_inequality_grids():
    t0 = time.perf_counter()
    problems = []
    for name in ACCEPTANCE_GRIDS:
        report = certify_grid(name)
        if report.n_skipped or not report.all_pass:
            problems.append((name, report.n_skipped, report.failures()[:3]))
    _finish(5, not problems, t0, 120, f"grid failures: {problems}")


def test_criterion_06_peeling_invariants():
    t0 = time.perf_counter()
    rng = random.Random(2024)
    problems = []
    for idx in range(500):
        n = rng.randint(5, 12)
        k = rng.randint(2, min(5, n // 2))
        fam = random_intersecting_family(rng, n, k, rng.randint(1, 18))
        trace = peel(fam)
        for i, w in trace.layers.items():
            if len(w) > i**i:
                problems.append(("layer", idx, i))
        for i in range(1, k + 1):
            allowed = list(trace.residues[i].members)
            for j in trace.layers:
                if j > i:
                    allowed.extend(trace.layers[j].members)
            for mm in fam.members:
                if not any(mm & g == g for g in allowed):
                    problems.append(("coverage", idx, i))
                    break
    _finish(6, not problems, t0, 120, f"peel violations: {problems[:5]}")


def test_criterion_07_shift_properties(fixtures_dir):
    t0 = time.perf_counter()
    rng = random.Random(777)
    problems = []
    for idx in range(1000):
        n = rng.randint(4, 10)
        k = rng.randint(2, min(4, n - 1))
        fam = random_intersecting_family(rng, n, k, rng.randint(1, 14))
        i = rng.randint(1, n - 1)
        j = rng.randint(i + 1, n)
        out = shift_family(fam, i, j)
        if len(out) != len(fam) or not is_intersecting(out):
            problems.append((idx, n, k, i, j))
    hit = find_tau_dropping_shift(7, 3)
    if hit is None:
        problems.append("no covering-number-dropping shift found at (7,3)")
    stored = json.loads((fixtures_dir / "shift_drop_witness.json").read_text())
    fam = family(stored["n"], [set(s) for s in stored["members"]])
    before = covering_number(fam).tau
    after = covering_number(shift_family(fam, stored["i"], stored["j"])).tau
    if not (before == stored["tau_before"] and after == stored["tau_after"] and after < before):
        problems.append("stored witness no longer drops the covering number")
    _finish(7, not problems, t0, 60, f"shift failures: {problems[:5]}")


def _random_admissible(rng: random.Random) -> Family:
    # k is fixed at 4: for k=3 the hypothesis cap is C(n-5,0) = 1, while any
    # covering-number-3 family keeps >= 2 sets off every element, so no
    # admissible k=3 instance exists and that stratum is empty
    while True:
        n = rng.randint(9, 12)
        cand = shuffled_copy(rng, c3(n, 4))
        members = list(cand.members)
        rng.shuffle(members)
        kept = list(members)
        for mm in members:
            if len(kept) <= 12 or rng.random() < 0.6:
                continue
            trial = [x for x in kept if x != mm]
            if covering_number(Family.from_masks(n, trial)).tau == 3:
                kept = trial
        out = Family.from_masks(n, kept)
        pivot = max_degree_element(out)
        if (
            covering_number(out).tau == 3
            and len(restrict_avoid(out, mask_of([pivot]))) <= binom(n - 5, 1)
        ):
            return out


def test_criterion_08_switching_pipeline():
    t0 = time.perf_counter()
    problems = []
    base = c3(10, 4)
    res = switch_pipeline(base)
    if not (res.converged and res.family == base):
        problems.append("c3(10,4) is not a fixed point")
    rng = random.Random(4242)
    for idx in range(100):
        fam = _random_admissible(rng)
        out = switch_pipeline(fam)
        if out.status == "converged":
            if len(out.family) < len(fam):
                problems.append((idx, "size drop"))
            if not is_intersecting(out.family):
                problems.append((idx, "not intersecting"))
            if covering_number(out.family).tau != 3:
                problems.append((idx, "tau moved"))
        else:
            head, _, reason = out.status.partition(":")
            if head != "aborted" or reason.split(":")[0] not in DOCUMENTED_ABORTS:
                problems.append((idx, f"silent failure: {out.status}"))
    _finish(8, not problems, t0, 300, f"pipeline failures: {problems[:5]}")


def test_criterion_09_oracle_sanity():
    t0 = time.perf_counter()
    problems = []
    for n in (7, 8):
        if max_intersecting_tau(n, 3, 1).optimum != binom(n - 1, 2):
            problems.append(("t1", n))
        if max_intersecting_tau(n, 3, 2).optimum != hm_size(n, 3):
            problems.append(("t2", n))
    for n in (7, 8, 9):
        if max_intersecting_tau(n, 3, 3).optimum < len(c3(n, 3)):
            problems.append(("t3", n))
    _finish(9, not problems, t0, 1800, f"oracle mismatches: {problems}")


def test_criterion_10_minimal_cover_size_bound():
    t0 = time.perf_counter()
    problems = []
    for s in range(1, 6):
        for m in range(s, 13):
            for mode in (False, True):
                for cls in enumerate_minimal_tau2(m, s, intersecting_only=mode):
                    if len(cls) > s + 1:
                        problems.append((m, s, mode, len(cls)))
    _finish(10, not problems, t0, 300, f"size-bound violations: {problems[:5]}")
