"""Covering numbers, hitting-set counts, and minimal two-cover machinery.

The covering number of a family is the least size of an element set meeting
every member.  A family containing the empty set has no cover at all; its
covering number is reported as math.inf with no witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from operator import and_

from .errors import DomainError, InvariantError, ScaleError
from .families import (
    Family,
    canonical_form,
    dedup_isomorphism_classes,
    elements_of,
    is_intersecting,
    mask_of,
)
from .formulas import binom

_HITCOUNT_CAP = 10_000_000


@dataclass(frozen=True)
class CoverResult:
    tau: float
    witness_cover: int | None
    explored_nodes: int


def _greedy_cover(n: int, members) -> int:
    cover = 0
    uncovered = [m for m in members]
    while uncovered:
        best_e, best_hits = None, -1
        for e in range(1, n + 1):
            bit = 1 << (e - 1)
            hits = sum(1 for m in uncovered if m & bit)
            if hits > best_hits:
                best_e, best_hits = e, hits
        cover |= 1 << (best_e - 1)
        uncovered = [m for m in uncovered if not m & cover]
    return cover


def _disjoint_lower_bound(uncovered) -> int:
    used = 0
    count = 0
    for m in uncovered:
        if m & used == 0:
            count += 1
            used |= m
    return count


def covering_number(fam: Family) -> CoverResult:
    """Exact branch and bound.  Branches on the first uncovered member,
    trying its elements in ascending order; prunes with a disjoint-member
    lower bound against the greedy upper bound."""
    if not fam.members:
        return CoverResult(0, 0, 0)
    if 0 in fam.member_set:
        return CoverResult(math.inf, None, 0)

    members = fam.members
    best_cover = _greedy_cover(fam.n, members)
    best = [best_cover.bit_count(), best_cover]
    nodes = [0]

    def rec(cover: int, size: int):
        nodes[0] += 1
        uncovered = [m for m in members if not m & cover]
        if not uncovered:
            if size < best[0]:
                best[0], best[1] = size, cover
            return
        if size + _disjoint_lower_bound(uncovered) >= best[0]:
            return
        for e in elements_of(uncovered[0]):
            rec(cover | (1 << (e - 1)), size + 1)

    rec(0, 0)
    return CoverResult(best[0], best[1], nodes[0])


def tau(fam: Family) -> float:
    return covering_number(fam).tau


def count_hitting_sets(fam: Family, t: int) -> int:
    """Number of t-subsets of the ground set meeting every member."""
    if not (0 <= t <= fam.n):
        raise DomainError(f"need 0 <= t <= n, got t={t} n={fam.n}")
    if binom(fam.n, t) > _HITCOUNT_CAP:
        raise ScaleError(f"[{fam.n}] choose {t} exceeds the hit-count cap")
    if not fam.members:
        return binom(fam.n, t)
    if 0 in fam.member_set:
        return 0
    count = 0
    for c in combinations(range(1, fam.n + 1), t):
        m = mask_of(c)
        if all(m & b for b in fam.members):
            count += 1
    return count


@dataclass(frozen=True)
class MinimalTau2:
    """A minimal subfamily of covering number 2 with its representative pools.

    pools[i] lists the elements lying in every member except
    subfamily.members[i]; the pools are nonempty and pairwise disjoint.
    """

    subfamily: Family
    pools: tuple[tuple[int, ...], ...]


def _rep_pool(members, idx: int) -> int:
    inter_others = -1
    for j, m in enumerate(members):
        if j != idx:
            inter_others &= m
    return inter_others & ~members[idx]


def minimal_tau2_subfamily(fam: Family) -> MinimalTau2 | None:
    """Shrink fam to a minimal subfamily of covering number 2.

    Returns None when the covering number is at most 1.  Dropping one member
    lowers the covering number by at most one, so removing members from the
    back walks it down to exactly 2; a single in-order deletion pass then
    reaches minimality because removability is monotone under shrinking.  In
    that pass a nonempty subfamily has covering number 2 exactly when its
    members share no element.
    """
    result = covering_number(fam)
    if result.tau is math.inf:
        raise DomainError("family with an empty member has no finite cover")
    if result.tau <= 1:
        return None

    work = list(fam.members)
    while covering_number(Family.from_masks(fam.n, work)).tau > 2:
        work.pop()

    for m in list(work):
        trial = [x for x in work if x != m]
        if trial and not reduce(and_, trial):
            work = trial

    sub = Family.from_masks(fam.n, work)
    pools = representative_pools(sub)
    if not all(pools):
        raise InvariantError("minimal two-cover subfamily without representatives")
    return MinimalTau2(sub, pools)


def enumerate_minimal_tau2(m: int, s: int, intersecting_only: bool = False) -> list[Family]:
    """All minimal families of covering number 2 with s-element members over
    [m], one canonical representative per isomorphism class.

    A family is minimal iff its members have empty total intersection while
    every member has a nonempty representative pool (elements common to all
    other members but missing from it).  Proper subfamilies of such a family
    always share an element, so the search grows families that keep a common
    element and all pools nonempty, emitting a family the moment its total
    intersection empties out.  Branches die on their own: a set-pair count
    caps how long all pools can stay nonempty.
    """
    if not 1 <= s <= m:
        raise DomainError(f"need 1 <= s <= m, got m={m} s={s}")
    if s > 5 or m > 12:
        raise ScaleError(f"supported range is s <= 5, m <= 12, got m={m} s={s}")

    all_sets = [mask_of(c) for c in combinations(range(1, m + 1), s)]
    ground = (1 << m) - 1

    # state: (members tuple, total intersection, per-member pools)
    first = all_sets[0]
    states = [((first,), first, (ground & ~first,))]
    found: list[Family] = []

    while states:
        emitted = []
        grown = []
        for members, inter, pools in states:
            member_set = set(members)
            for b in all_sets:
                if b in member_set:
                    continue
                new_pools = []
                ok = True
                for mm, pool in zip(members, pools):
                    p = ((pool | inter) & b) & ~mm
                    if p == 0:
                        ok = False
                        break
                    new_pools.append(p)
                if not ok:
                    continue
                pb = inter & ~b
                if pb == 0:
                    continue
                new_inter = inter & b
                pairs = sorted(zip(members + (b,), new_pools + [pb]))
                new_members = tuple(p[0] for p in pairs)
                arranged = tuple(p[1] for p in pairs)
                if new_inter == 0:
                    emitted.append((new_members, new_inter, arranged))
                else:
                    grown.append((new_members, new_inter, arranged))

        for bucket, is_emit in ((emitted, True), (grown, False)):
            fams = [Family.from_masks(m, st[0]) for st in bucket]
            rep_ids = {id(r) for r in dedup_isomorphism_classes(fams)}
            kept = [(st, f) for st, f in zip(bucket, fams) if id(f) in rep_ids]
            if is_emit:
                for _, fam in kept:
                    if intersecting_only and not is_intersecting(fam):
                        continue
                    found.append(canonical_form(fam))
            else:
                states = [st for st, _ in kept]

    return found


def representative_pools(sub: Family) -> tuple[tuple[int, ...], ...]:
    """Per-member representative pools of a minimal two-cover subfamily.

    Pool i lists the elements lying in every member except members[i]; the
    pools are pairwise disjoint and, for a minimal subfamily, all nonempty.
    """
    return tuple(
        elements_of(_rep_pool(sub.members, i)) for i in range(len(sub.members))
    )
