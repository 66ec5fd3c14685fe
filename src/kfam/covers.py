"""Covering numbers, hitting-set counts, and minimal two-cover machinery.

The covering number of a family is the least size of an element set meeting
every member.  A family containing the empty set has no cover at all; its
covering number is reported as math.inf with no witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, reduce
from itertools import permutations
from operator import and_, itemgetter

from .errors import DomainError, InvariantError, ScaleError
from .families import (
    Family,
    elements_of,
    full_mask,
    is_intersecting,
    subsets,
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


def count_hitting_sets(fam: Family, t: int) -> int:
    """Number of t-subsets of the ground set meeting every member."""
    if not (0 <= t <= fam.n):
        raise DomainError(f"need 0 <= t <= n, got t={t} n={fam.n}")
    if binom(fam.n, t) > _HITCOUNT_CAP:
        raise ScaleError(f"[{fam.n}] choose {t} exceeds the hit-count cap")
    return sum(1 for _ in subsets(full_mask(fam.n), t, fam.members))


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

    Returns None when the covering number is at most 1.  The covering
    number of a prefix of the members grows with its length, one member
    adding at most one, so the longest prefix of covering number at most 2
    has covering number exactly 2; a binary search over the prefix length
    finds it.  A single in-order deletion pass then reaches minimality
    because removability is monotone under shrinking.  In that pass a
    nonempty subfamily has covering number 2 exactly when its members share
    no element.
    """
    result = covering_number(fam)
    if result.tau is math.inf:
        raise DomainError("family with an empty member has no finite cover")
    if result.tau <= 1:
        return None

    work = list(fam.members)
    if result.tau > 2:
        lo, hi = 0, len(work)  # prefix lo has covering number <= 2, hi > 2
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if covering_number(Family.from_masks(fam.n, work[:mid])).tau > 2:
                hi = mid
            else:
                lo = mid
        work = work[:lo]

    for m in list(work):
        trial = [x for x in work if x != m]
        if trial and not reduce(and_, trial):
            work = trial

    sub = Family.from_masks(fam.n, work)
    pools = representative_pools(sub)
    if not all(pools):
        raise InvariantError("minimal two-cover subfamily without representatives")
    return MinimalTau2(sub, pools)


@cache
def _member_permutations(z: int) -> tuple:
    """For each permutation of z members, a getter that reads a count vector
    in permuted order.  A vector is indexed by type: type t, a nonempty
    proper subset of the members as a bitmask, sits at index t - 1."""
    types = range(1, (1 << z) - 1)
    getters = []
    for perm in permutations(range(z)):
        image = [0] * (1 << z)
        for t in types:
            low = t & -t
            image[t] = image[t ^ low] | 1 << perm[low.bit_length() - 1]
        src = [0] * len(types)
        for t in types:
            src[image[t] - 1] = t - 1
        getters.append(itemgetter(*src))
    return tuple(getters)


def _count_vectors(z: int, s: int, m: int) -> list[tuple[int, ...]]:
    """Every count vector of z members with each pool type at least 1, each
    member covered s times and at most m elements in all."""
    full = (1 << z) - 1
    types = range(1, full)
    last = {i: t for t in types for i in range(z) if t >> i & 1}
    # one element in each pool is laid down first: member i lies in the
    # z - 1 pools of the others
    counts = [int((full ^ t).bit_count() == 1) for t in types]
    out = []

    def rec(t: int, need: list, room: int):
        if t == full:
            out.append(tuple(counts))
            return
        holders = [i for i in range(z) if t >> i & 1]
        # the last type holding a member must fill it
        lo = max([0] + [need[i] for i in holders if last[i] == t])
        hi = min([room] + [need[i] for i in holders])
        base = counts[t - 1]
        for x in range(lo, hi + 1):
            counts[t - 1] = base + x
            for i in holders:
                need[i] -= x
            rec(t + 1, need, room - x)
            for i in holders:
                need[i] += x
        counts[t - 1] = base

    rec(1, [s - z + 1] * z, m - z)  # m < z leaves no room: no vectors
    return out


@cache
def _type_order(z: int) -> tuple[int, ...]:
    """The types of z members (nonempty proper subsets, as bitmasks): those
    holding member 1 first, then within each part member 2, and so on."""
    return tuple(sorted(range(1, (1 << z) - 1), key=lambda t: [not t >> i & 1 for i in range(z)]))


# A census class is laid out from one of its count vectors by giving each
# type, in _type_order, the next block of labels; elements in no member take
# the labels left over at the top.  The least laid list over the z! member
# orders is the canonical form L* = (M1 < ... < Mz), numbering the members by
# their rank in L*.  Every laid list is a relabeling of the class, so none
# lies below L*.  Suppose M1..Mj-1 are unions of consecutive cells, one cell
# for each in/out pattern on those members, in _type_order order, while Mj's
# elements do not take the lowest labels in some cell or in the labels above
# the cells.  Exchanging labels within that cell lowers Mj and moves none of
# M1..Mj-1, so the sorted list falls at or before position j, and L* was not
# least.  By induction L* is laid out from the count vector in its own
# member order, one image of the vector; within a final cell the elements
# are twins, so how they share its labels does not matter.
def _lay(vec, order, z: int) -> tuple[int, ...]:
    masks, used = [0] * z, 0
    for t in order:
        count = vec[t - 1]
        if count:
            block = ((1 << count) - 1) << used
            used += count
            for i in range(z):
                if t >> i & 1:
                    masks[i] |= block
    return tuple(sorted(masks))


def enumerate_minimal_tau2(m: int, s: int, intersecting_only: bool = False) -> list[Family]:
    """All minimal families of covering number 2 with s-element members over
    [m], one canonical representative per isomorphism class, sorted by
    (member count, members).

    A family of z members is minimal with covering number 2 iff its members
    share no element while every member has a nonempty representative pool
    (elements lying in all other members but not in it).  Number the
    members 1..z and let c_S count the elements lying in exactly the members
    in S.  Up to relabeling of elements the family is fixed by these counts,
    and they obey: c_[z] = 0; c_{[z]-{i}} >= 1 for every i (the pools);
    the sum of c_S over S containing i is s (member size); the sum of all
    c_S is at most m (ground set).  Two families are isomorphic exactly when
    their count vectors differ by a permutation of the member numbers, so
    the census enumerates the vectors and keeps the least one of each
    orbit under the z! member permutations.  Member i holds the z - 1
    disjoint pools of the others, so z <= s + 1, and z <= 6 in range.
    Each kept class is laid out from its vector under every member order,
    and the least laid member list is its canonical form (see _lay): no
    canonical search runs.
    """
    if not 1 <= s <= m:
        raise DomainError(f"need 1 <= s <= m, got m={m} s={s}")
    if s > 5 or m > 12:
        raise ScaleError(f"supported range is s <= 5, m <= 12, got m={m} s={s}")

    found = []
    for z in range(2, s + 2):
        images = _member_permutations(z)
        order = _type_order(z)
        for vec in _count_vectors(z, s, m):
            if any(image(vec) < vec for image in images):
                continue
            fam = Family(m, min(_lay(image(vec), order, z) for image in images))
            if intersecting_only and not is_intersecting(fam):
                continue
            found.append(fam)
    found.sort(key=lambda f: (len(f.members), f.members))
    return found


def representative_pools(sub: Family) -> tuple[tuple[int, ...], ...]:
    """Per-member representative pools of a minimal two-cover subfamily.

    Pool i lists the elements lying in every member except members[i]; the
    pools are pairwise disjoint and, for a minimal subfamily, all nonempty.
    """
    return tuple(
        elements_of(_rep_pool(sub.members, i)) for i in range(len(sub.members))
    )
