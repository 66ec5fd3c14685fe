"""Bipartite switching for intersecting families with covering number 3.

The pipeline normalizes such a family, under the small-diversity hypothesis
|F(pivot-bar)| <= C(n-5,k-3), toward the shape where the sets avoiding the
max-degree pivot form exactly a minimal two-cover subfamily.  Each exchange
trades a batch of stray pivot-avoiding sets for a full layer of pivot-sets
and never loses size or the intersecting property; when the cross-
intersecting bound backing that guarantee is out of range the step refuses
and the pipeline reports an aborted status instead of forcing the move.

Statuses: "converged", or "aborted:<reason>" with reason one of
pass-cap, tau-drifted, tau-changed, shift-stuck, diversity-hypothesis,
corollary-hypothesis, corollary-unavailable.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, product
from math import comb

from .covers import covering_number, minimal_tau2_subfamily
from .errors import DomainError, ExchangeError, InvariantError
from .families import (
    Family,
    elements_of,
    full_mask,
    is_intersecting,
    mask_of,
    max_degree_element,
    restrict_avoid,
    subsets,
)
from .formulas import binom
from .shifting import shift_family


@dataclass
class PipelineResult:
    family: Family
    status: str
    trace: list = field(default_factory=list)
    passes: int = 0

    @property
    def converged(self) -> bool:
        return self.status == "converged"


def exchange_Gi(fam: Family, pivot: int, core: Family, locked: int, i: int, m: int) -> Family:
    """Per-element exchange at representative i for the core member mask m:
    the exchange at I = {i}.

    core is the minimal two-cover subfamily of the pivot-avoiding sets and
    locked the mask of representatives fixed so far; i lies in every core
    member but m, so the added layer meets m.  Requires the small-diversity
    hypothesis; size never drops and intersection survives.
    """
    n = fam.n
    k = fam.uniform_k
    if k is None or k < 3:
        raise DomainError("exchange needs a uniform family with k >= 3")
    pivot_bit = 1 << (pivot - 1)
    rep_bit = 1 << (i - 1)
    if m not in core.member_set:
        raise DomainError("m must be a core member")
    if m not in fam.member_set:
        raise DomainError("core member missing from the family")
    if m & (pivot_bit | rep_bit):
        raise DomainError("core member must avoid the pivot and the representative")
    if locked & ~m:
        raise DomainError("locked representatives must lie inside the core member")
    if locked & (rep_bit | pivot_bit):
        raise DomainError("representative or pivot already locked")
    if any(not cm & rep_bit for cm in core.members if cm != m):
        raise DomainError("representative must lie in every other core member")

    avoid = sum(1 for s in fam.members if not s & pivot_bit)
    bound = binom(n - 5, k - 3)
    if avoid > bound:
        raise ExchangeError(
            f"diversity-hypothesis: |F(pivot-bar)| = {avoid} > C({n - 5},{k - 3}) = {bound}"
        )
    return _exchange(fam, pivot_bit, core, locked, rep_bit,
                     _stray(fam, pivot_bit, core, locked, rep_bit))


def exchange_transversal(fam: Family, pivot: int, core: Family, locked: int,
                         i_mask: int) -> Family:
    """Transversal exchange at the hitting set mask I, which meets every
    core member outside the locked elements.

    The deleted strays must stay within the cross-intersecting bound
    C(|Y|-t0, a-1), Y the ground left by the pivot, I and the locked
    elements; otherwise the step refuses.
    """
    n = fam.n
    k = fam.uniform_k
    if k is None or k < 3:
        raise DomainError("exchange needs a uniform family with k >= 3")
    pivot_bit = 1 << (pivot - 1)
    if i_mask == 0:
        raise DomainError("I must be nonempty")
    if i_mask & (locked | pivot_bit):
        raise DomainError("I must avoid the pivot and the locked elements")
    isz = i_mask.bit_count()
    for cm in core.members:
        if not i_mask & (cm & ~locked):
            raise DomainError("I misses a stripped core member")
    if locked.bit_count() < isz + 1:
        raise DomainError(f"need |locked| >= |I|+1, got {locked.bit_count()} < {isz + 1}")
    a = k - 1 - isz
    if a < 0:
        raise DomainError("I is too large to sit inside a k-set with the pivot")
    b = k - locked.bit_count()
    stray = _stray(fam, pivot_bit, core, locked, i_mask)
    y = (full_mask(n) & ~(pivot_bit | locked | i_mask)).bit_count()
    t0 = b + 1 - a
    if a >= 1 and b >= 1 and t0 >= 1 and y > a + b:
        threshold = binom(y - t0, a - 1)
        if len(stray) > threshold:
            raise ExchangeError(
                f"corollary-hypothesis: |B| = {len(stray)} > C({y - t0},{a - 1}) = {threshold}"
            )
    elif stray:
        raise ExchangeError(
            "corollary-unavailable: cross-intersecting bound out of range with nonempty B"
        )
    return _exchange(fam, pivot_bit, core, locked, i_mask, stray)


def _stray(fam: Family, pivot_bit: int, core: Family, locked: int, i_mask: int) -> set:
    """The pivot-avoiding sets outside the core that hold every locked
    element and miss I."""
    return {
        s for s in fam.members
        if not s & (pivot_bit | i_mask) and s & locked == locked and s not in core.member_set
    }


def _exchange(fam: Family, pivot_bit: int, core: Family, locked: int, i_mask: int,
              stray: set) -> Family:
    """The exchange at I: swap the strays and the pivot-sets that hold I and
    no locked element for every k-set {pivot} + I + T, with T outside the
    pivot, I and the locked elements and meeting each core member that misses
    I; then check that the family kept its size and stayed intersecting."""
    removed = {
        s for s in fam.members if s & pivot_bit and s & i_mask == i_mask and not s & locked
    }
    ground = full_mask(fam.n) & ~(pivot_bit | locked | i_mask)
    missed = [cm for cm in core.members if not cm & i_mask]
    layer = [pivot_bit | i_mask | t
             for t in subsets(ground, fam.uniform_k - 1 - i_mask.bit_count(), missed)]
    if removed - set(layer):
        raise InvariantError("a removed pivot-set escaped the replacement layer")
    drop = stray | removed
    result = Family.from_masks(fam.n, [s for s in fam.members if s not in drop] + layer)
    if len(result) < len(fam):
        raise InvariantError("exchange shrank the family")
    if not is_intersecting(result):
        raise InvariantError("exchange broke the intersecting property")
    return result


def _run_stage(f: Family, pivot: int, core: Family, stage: str, locked: int,
               i_prime: int, log: list, passes: int):
    """One transversal-type stage: with `locked` fixed, exchange at every I the
    stage admits that meets each stripped core member, smallest first.  With
    z core members the transversal stage admits |I| <= z - 1 with i' in I,
    the extended stage |I| <= z.  Yields each new family, so a caller stopped
    by a refusal keeps the last one."""
    z = len(core)
    if stage == "transversal":
        limit, need = z - 1, 1 << (i_prime - 1)
    else:
        limit, need = z, 0
    stripped = [cm & ~locked for cm in core.members]
    allowed = full_mask(f.n) & ~((1 << (pivot - 1)) | locked)
    for isz in range(1, min(limit, f.uniform_k - 1) + 1):
        for im in subsets(allowed, isz, stripped):
            if im & need != need:
                continue
            before = len(f)
            f = exchange_transversal(f, pivot, core, locked, im)
            log.append(_entry(passes, stage, {"I": list(elements_of(im))}, before, f))
            yield f


def _entry(passes: int, stage: str, move: dict, before: int, f: Family) -> dict:
    """One exchange's trace entry; written traces keep this key order."""
    return {"pass": passes, "stage": stage, **move, "size_before": before, "size_after": len(f)}


def _finish(f: Family, core: Family, pivot_bit: int, log: list, passes: int) -> PipelineResult:
    avoid_now = {s for s in f.members if not s & pivot_bit}
    if avoid_now != set(core.members):
        raise InvariantError("converged with a pivot-avoiding part different from the core")
    if covering_number(f).tau != 3:
        return PipelineResult(f, "aborted:tau-changed", log, passes)
    return PipelineResult(f, "converged", log, passes)


def switch_pipeline(fam: Family) -> PipelineResult:
    """Drive the family to the normalized form by repeated exchanges.

    Preconditions (domain errors): uniform k >= 3, n >= 2k, intersecting,
    covering number exactly 3, and the small-diversity hypothesis at the
    max-degree pivot.  The core subfamily is re-derived each pass; when no
    element outside pivot+representatives lies in two stripped core members,
    an (i,j)-shift is tried before the next pass.  Passes are capped at
    C(n,z) * z.
    """
    n = fam.n
    k = fam.uniform_k
    if k is None or k < 3:
        raise DomainError("pipeline needs a uniform family with k >= 3")
    if n < 2 * k:
        # outside the n > 2k regime the exchanges can shrink the family
        raise DomainError(f"pipeline needs n >= 2k, got n={n} k={k}")
    if not is_intersecting(fam):
        raise DomainError("pipeline needs an intersecting family")
    if covering_number(fam).tau != 3:
        raise DomainError("pipeline needs covering number exactly 3")
    pivot = max_degree_element(fam)
    if len(restrict_avoid(fam, 1 << (pivot - 1))) > binom(n - 5, k - 3):
        raise DomainError("small-diversity hypothesis fails at entry")

    log: list = []
    f = fam
    passes = 0
    cap = 0
    while True:
        pivot = max_degree_element(f)
        pivot_bit = 1 << (pivot - 1)
        avoid = restrict_avoid(f, pivot_bit)
        mt = minimal_tau2_subfamily(avoid)
        if mt is None:
            raise InvariantError("covering number 3 must leave a two-cover residue")
        core, pools = mt.subfamily, mt.pools
        z = len(core)
        cap = max(cap, comb(n, z) * z)
        passes += 1
        if passes > cap:
            return PipelineResult(f, "aborted:pass-cap", log, passes)

        try:
            for tup in product(*pools):
                locked = 0
                for rep, member in zip(tup, core.members):
                    before = len(f)
                    f = exchange_Gi(f, pivot, core, locked, rep, member)
                    move = {"rep": rep, "member": list(elements_of(member))}
                    log.append(_entry(passes, "per-element", move, before, f))
                    locked |= 1 << (rep - 1)

            iprime_union = mask_of(e for pool in pools for e in pool)
            u_sets = _stray(f, pivot_bit, core, 0, 0)
            if not u_sets:
                return _finish(f, core, pivot_bit, log, passes)
            if any(s & iprime_union != iprime_union for s in u_sets):
                raise InvariantError("stray avoid-set missing a representative element")
            stripped = [cm & ~iprime_union for cm in core.members]
            if any(st == 0 for st in stripped):
                raise InvariantError("core member swallowed by the representative union")

            iprime = None
            for x in elements_of(full_mask(n) & ~(iprime_union | pivot_bit)):
                if sum(1 for st in stripped if st >> (x - 1) & 1) >= 2:
                    iprime = x
                    break
            if iprime is None:
                pair_pool = sorted(
                    {
                        (min(x, y), max(x, y))
                        for sa, sb in combinations(stripped, 2)
                        for x in elements_of(sa)
                        for y in elements_of(sb)
                        if x != y
                    }
                )
                for i, j in pair_pool:
                    g = shift_family(f, i, j)
                    if g != f:
                        log.append({"pass": passes, "stage": "shift", "i": i, "j": j})
                        f = g
                        break
                else:
                    return PipelineResult(f, "aborted:shift-stuck", log, passes)
                # only a shift leads into another pass: recheck tau before it starts
                if covering_number(f).tau != 3:
                    return PipelineResult(f, "aborted:tau-drifted", log, passes)
                continue

            for f in _run_stage(f, pivot, core, "transversal", iprime_union, iprime, log, passes):
                pass
            u_sets = _stray(f, pivot_bit, core, 0, 0)
            if not u_sets:
                return _finish(f, core, pivot_bit, log, passes)
            ib = 1 << (iprime - 1)
            if any(not s & ib for s in u_sets):
                raise InvariantError("a stray set avoiding i' survived the transversal stage")

            locked2 = iprime_union | ib
            if any(cm & ~locked2 == 0 for cm in core.members):
                raise InvariantError("extended stage reached with a fully locked core member")
            for f in _run_stage(f, pivot, core, "extended", locked2, iprime, log, passes):
                pass
            u_sets = _stray(f, pivot_bit, core, 0, 0)
            if u_sets:
                raise InvariantError("stray sets survived the extended stage")
            return _finish(f, core, pivot_bit, log, passes)
        except ExchangeError as err:
            reason = str(err).split(":", 1)[0]
            return PipelineResult(f, f"aborted:{reason}", log, passes)
