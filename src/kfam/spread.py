"""Spreadness, maximal reductions, and the peeling procedure.

A family F is r-spread when |F[X]| <= r^{-|X|} |F| for every set X, where
F[X] counts the members containing X.  Spreadness is checked with exact
rational arithmetic (r = p/q), never floats.

Peeling repeatedly replaces a family by a maximal intersecting one (no
member can be swapped for a proper nonempty subset without breaking the
intersecting property) and strips the layer of largest sets.  The layer
of i-sets in such a family has at most i^i members.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import DomainError, InvariantError, ScaleError
from .families import Family, elements_of, is_intersecting


def _as_ratio(r) -> tuple[int, int]:
    f = Fraction(r)
    if f < 1:
        raise DomainError(f"spread parameter must be >= 1, got {f}")
    return f.numerator, f.denominator


# Spread checks refuse families whose members have more subsets than this
# in all, before listing any of them.
_SUBSET_CAP = 1_000_000


def _containment_counts(fam: Family) -> list[tuple[int, int]]:
    """(X, |F[X]|) for every nonempty X contained in at least one member.

    Only these can violate spreadness: any other X has F[X] empty.
    Ordered by (size, element tuple), which is not the numeric mask order.
    """
    total = sum(1 << m.bit_count() for m in fam.members)
    if total > _SUBSET_CAP:
        raise ScaleError(f"the members have {total} subsets in all, past the cap {_SUBSET_CAP}")
    counts: dict = {}
    for m in fam.members:
        x = m
        while x:
            counts[x] = counts.get(x, 0) + 1
            x = (x - 1) & m
    return sorted(counts.items(), key=lambda xc: (xc[0].bit_count(), elements_of(xc[0])))


@dataclass(frozen=True)
class SpreadCheck:
    ok: bool
    violator: tuple | None  # elements of the first violating X, or None
    lhs: int  # |F[X]| * p^|X| at the violator (0 when ok)
    rhs: int  # |F| * q^|X| at the violator (0 when ok)

    def __bool__(self) -> bool:
        return self.ok


def is_r_spread(fam: Family, r) -> SpreadCheck:
    """Exact r-spread test; reports the first violating set if any.

    Violation is strict: |F[X]| p^|X| > |F| q^|X|.  The empty set never
    violates.  Candidates are scanned smallest first, ties broken by the
    lexicographic order of the element tuples.
    """
    p, q = _as_ratio(r)
    total = len(fam)
    for x, count in _containment_counts(fam):
        sz = x.bit_count()
        lhs = count * p**sz
        rhs = total * q**sz
        if lhs > rhs:
            return SpreadCheck(False, elements_of(x), lhs, rhs)
    return SpreadCheck(True, None, 0, 0)


def maximal_reduction(fam: Family, log: list | None = None) -> Family:
    """Shrink members until none can lose an element and stay intersecting.

    Replacing a member by a proper nonempty subset is allowed whenever the
    family remains intersecting; single-element deletions suffice to reach
    a fully reduced family.  Schedule: the first member in the order
    (largest first, then by mask, then by position) that can lose an
    element loses its highest such label.  Intersections only shrink, so a
    member that cannot lose an element now never can: one sweep over a heap
    in that order, pushing each reduced member back at its new place, meets
    every member the schedule would.  Each applied replacement is appended
    to log as (old_mask, new_mask).
    """
    if not is_intersecting(fam):
        raise DomainError("maximal_reduction expects an intersecting family")
    members = list(fam.members)
    heap = [(-m.bit_count(), m, idx) for idx, m in enumerate(members)]
    heapq.heapify(heap)
    while heap:
        _, m, idx = heapq.heappop(heap)
        for e in reversed(elements_of(m)):
            cand = m & ~(1 << (e - 1))
            # m is among the members, so an empty cand fails the test
            if all(cand & o for o in members):
                members[idx] = cand
                if log is not None:
                    log.append((m, cand))
                heapq.heappush(heap, (-cand.bit_count(), cand, idx))
                break
    # drop members that became duplicates or proper supersets of another
    out = sorted(set(members))
    final = [m for m in out if not any(o != m and o & m == o for o in out)]
    if len(final) != len(out):
        # a strict superset surviving the sweep would mean the loop missed
        # a legal replacement; keep the antichain but flag the schedule bug
        raise InvariantError("reduction left a comparable pair")
    return Family.from_masks(fam.n, final)


@dataclass
class PeelTrace:
    layers: dict = field(default_factory=dict)  # i -> Family of the peeled i-sets
    residues: dict = field(default_factory=dict)  # i -> family entering round i
    reduction_log: list = field(default_factory=list)


def peel(fam: Family) -> PeelTrace:
    """Iterated reduce-and-strip decomposition of an intersecting family.

    Round i (from k down to 2) reduces the current family to a maximal
    intersecting one, records its i-sets as layer W_i, and keeps the rest.
    Invariants checked along the way: every original member contains a set
    of the current residue or of some peeled layer, and |W_i| <= i^i.
    """
    k = fam.uniform_k
    if k is None or k < 1:
        raise DomainError("peel expects a nonempty uniform family")
    if not is_intersecting(fam):
        raise DomainError("peel expects an intersecting family")
    trace = PeelTrace()
    current = fam
    trace.residues[k] = current
    for i in range(k, 1, -1):
        reduced = maximal_reduction(current, log=trace.reduction_log)
        layer = Family.from_masks(fam.n, (m for m in reduced.members if m.bit_count() == i))
        if len(layer) > i**i:
            raise InvariantError(f"layer of {i}-sets exceeds {i}^{i}")
        trace.layers[i] = layer
        current = Family.from_masks(fam.n, (m for m in reduced.members if m.bit_count() != i))
        trace.residues[i - 1] = current
        kept = [*current.members, *(g for j in range(i, k + 1) for g in trace.layers[j].members)]
        if not all(any(m & g == g for g in kept) for m in fam.members):
            raise InvariantError(f"coverage identity failed entering round {i - 1}")
    return trace
