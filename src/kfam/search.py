"""Exhaustive desk-scale oracles.

c(n,k,t), the largest size of an intersecting k-uniform family over [n]
with covering number >= t, is computed by exact search.  Since the
covering number never drops when members are added, every optimum is
attained by a saturated (maximal) intersecting family, i.e. a maximal
clique of the intersection graph on all k-sets.  We run Bron-Kerbosch
with pivoting over that graph, rooted at the member [k]: every nonempty
k-uniform family has a relabeled copy that contains [k], so the cliques
through that one vertex already reach the optimum and hold a copy of
every optimal class.  Two sound prunes cut the search further:

 - size: a branch whose clique-plus-candidates total cannot beat the
   incumbent is dropped (the incumbent starts from a known construction
   when one applies);
 - covers: if the union of current clique and candidates is hit by t - 1
   elements, no subfamily can have covering number >= t.

One exact check decides "hit by d elements" for the prune and for the
covering number of a leaf: some chosen element must meet the lowest
remaining member, so it branches on that member's k elements and recurses
on the members left unmet with d - 1 (k^d cases instead of C(n, d)).
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations

from math import comb

from .constructions import c3, cross_closure, full_star, hilton_milner
from .covers import covering_number, enumerate_minimal_tau2
from .errors import DomainError, ScaleError
from .families import (
    Family,
    canonical_form,
    dedup_isomorphism_classes,
    elements_of,
    full_mask,
    is_intersecting,
    mask_of,
    popcount,
    subsets,
)
from .shifting import shift_family

SEARCH_VERTEX_CAP = 200
SATURATE_CAP = 100_000


@dataclass
class SearchResult:
    optimum: int
    witnesses: list = field(default_factory=list)
    nodes_explored: int = 0
    pruned: int = 0


def _seed_family(n: int, k: int, t: int) -> Family | None:
    try:
        if t <= 1:
            return full_star(n, k)
        if t == 2:
            return hilton_milner(n, k)
        if t == 3:
            return c3(n, k)
    except DomainError:
        return None
    return None


def max_intersecting_tau(
    n: int, k: int, t: int, all_optima: bool = False, rng: random.Random | None = None
) -> SearchResult:
    """Exact c(n,k,t) with witness families.

    all_optima collects every optimal family up to isomorphism; otherwise a
    single witness is reported.  rng permutes the exploration order only,
    the optimum is schedule independent.
    """
    if not (1 <= k <= n):
        raise DomainError(f"need 1 <= k <= n, got k={k}, n={n}")
    if not (1 <= t <= k):
        raise DomainError(f"need 1 <= t <= k, got t={t}")
    if comb(n, k) > SEARCH_VERTEX_CAP:
        raise ScaleError(f"C({n},{k}) = {comb(n, k)} exceeds the search cap {SEARCH_VERTEX_CAP}")

    masks = list(subsets(full_mask(n), k))
    if rng is not None:
        rng.shuffle(masks)
    nv = len(masks)
    adj = [0] * nv
    for a in range(nv):
        ma = masks[a]
        for b in range(a + 1, nv):
            if ma & masks[b]:
                adj[a] |= 1 << b
                adj[b] |= 1 << a
    elems = [elements_of(m) for m in masks]
    coverv = [0] * (n + 1)
    for v, es in enumerate(elems):
        for x in es:
            coverv[x] |= 1 << v
    root = masks.index(mask_of(range(1, k + 1)))

    best = 0
    witnesses: list[Family] = []
    if not all_optima:
        seed = _seed_family(n, k, t)
        if seed is not None and covering_number(seed).tau >= t:
            best = len(seed)
            witnesses = [seed]

    nodes = 0
    pruned = 0

    def family_of(rbits: int) -> Family:
        return Family.from_masks(n, (masks[v] for v in _bit_indices(rbits)))

    def hit_by(bits: int, d: int) -> bool:
        """Whether at most d elements meet every member in bits."""
        if not bits:
            return True
        if d == 0:
            return False
        v = (bits & -bits).bit_length() - 1
        for x in elems[v]:
            if hit_by(bits & ~coverv[x], d - 1):
                return True
        return False

    def expand(rbits: int, nr: int, p: int, x: int):
        nonlocal best, witnesses, nodes, pruned
        nodes += 1
        if p == 0 and x == 0:
            if nr < best or (nr == best and not all_optima):
                return
            if hit_by(rbits, t - 1):
                return
            fam = family_of(rbits)
            if nr > best:
                best = nr
                witnesses = [fam]
            else:
                witnesses.append(fam)
            return
        potential = nr + popcount(p)
        if potential < best or (potential == best and not all_optima):
            pruned += 1
            return
        if hit_by(rbits | p, t - 1):
            pruned += 1
            return
        px = p | x
        pivot = -1
        pivot_score = -1
        w = px
        while w:
            u = (w & -w).bit_length() - 1
            score = popcount(p & adj[u])
            if score > pivot_score:
                pivot_score = score
                pivot = u
            w &= w - 1
        ext = p & ~adj[pivot]
        while ext:
            vb = ext & -ext
            v = vb.bit_length() - 1
            expand(rbits | vb, nr + 1, p & adj[v], x & adj[v])
            p &= ~vb
            x |= vb
            ext &= ~vb

    expand(1 << root, 1, adj[root], 0)

    if all_optima:
        witnesses = dedup_isomorphism_classes(witnesses)
    out = sorted(
        (canonical_form(w) for w in witnesses), key=lambda f: f.members
    )
    return SearchResult(optimum=best, witnesses=out, nodes_explored=nodes, pruned=pruned)


def _bit_indices(bits: int):
    while bits:
        yield (bits & -bits).bit_length() - 1
        bits &= bits - 1


def saturate(fam: Family) -> Family:
    """Greedy extension to a maximal intersecting family, scanning all
    k-sets in mask order.  Keeps the covering number from decreasing."""
    k = fam.uniform_k
    if k is None:
        raise DomainError("saturate expects a nonempty uniform family")
    if comb(fam.n, k) > SATURATE_CAP:
        raise ScaleError(f"C({fam.n},{k}) exceeds the saturation cap {SATURATE_CAP}")
    if not is_intersecting(fam):
        raise DomainError("saturate expects an intersecting family")
    current = list(fam.members)
    have = set(current)
    for m in subsets(full_mask(fam.n), k):
        if m in have:
            continue
        if all(m & o for o in current):
            current.append(m)
            have.add(m)
    return Family.from_masks(fam.n, current)


def lemmin_table(m: int, s: int, k: int, intersecting_only: bool = False):
    """All minimal-cover-2 classes H of s-sets over [m] scored by
    |F| + |H| where F collects the (k-1)-sets meeting every member of H.
    Sorted best first."""
    if not 2 <= k <= 6:
        raise ScaleError(f"k={k} outside the oracle range 2..6")
    if m < k + s:
        raise DomainError(f"need m >= k+s, got m={m}, k={k}, s={s}")
    rows = []
    for h in enumerate_minimal_tau2(m, s, intersecting_only=intersecting_only):
        closure = cross_closure(h, k - 1)
        rows.append((len(closure) + len(h), h, len(closure)))
    rows.sort(key=lambda r: (-r[0], r[1].members))
    return rows


def lemmin_oracle(m: int, s: int, k: int, intersecting_only: bool = False):
    """Best achievable |F| + |H| and all maximizing classes."""
    rows = lemmin_table(m, s, k, intersecting_only=intersecting_only)
    if not rows:
        return 0, []
    best = rows[0][0]
    return best, [h for value, h, _ in rows if value == best]


def find_tau_dropping_shift(n: int, k: int):
    """Witness (family, i, j) where the (i,j)-shift strictly lowers the
    covering number, or None.  Scans minimal-cover-2 intersecting classes
    first; they already contain a witness at small scales."""
    for h in enumerate_minimal_tau2(n, k, intersecting_only=True):
        before = covering_number(h).tau
        for i, j in combinations(range(1, n + 1), 2):
            shifted = shift_family(h, i, j)
            if covering_number(shifted).tau < before:
                return h, i, j
    return None
