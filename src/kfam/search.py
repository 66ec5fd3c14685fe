"""Exhaustive desk-scale oracles.

c(n,k,t), the largest size of an intersecting k-uniform family over [n]
with covering number >= t, is computed by exact search.  Since the
covering number never drops when members are added, every optimum is a
maximal clique of the graph g[1] on all k-sets, where g[i] joins two
k-sets that meet in at least i elements.  If i is the least pairwise
intersection of an optimum with two or more members, a relabeled copy
contains [k] and B_i = {1..i} + {k+1..2k-i} and is a maximal clique of
g[i].  So Bron-Kerbosch with pivoting runs once per i = max(1, 2k-n) ..
k-1 on g[i], rooted at R = {[k], B_i}; a clique found there has least
intersection exactly i, so each optimal class is reached from one root.
For k = 1 or n = k there is no pair, and the root is [k] alone.  Three
sound prunes cut the search:

 - size: the clique plus the number of classes in a greedy colouring of
   the candidates into sets pairwise non-adjacent in g[i] (at i = 1,
   pairwise disjoint k-sets, of which a clique takes at most one each)
   cannot beat the incumbent, which starts from a known construction
   when one applies;
 - covers: if the union of current clique and candidates is hit by t - 1
   elements, no subfamily can have covering number >= t;
 - orbits: the elements lying in exactly the same members of the clique R
   form a twin cell, and permuting elements inside cells fixes every
   member of R.  So after the branch on a candidate v, each candidate with
   v's cell signature (its elements in one-element cells and its count in
   each larger cell) is an image of v, and every maximal clique through it
   is an image of one through v; it joins v among the vertices done.  The
   cells start from those of the root and split by each branched vertex.

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

from .constructions import c3, full_star, hilton_milner
from .covers import count_hitting_sets, covering_number, enumerate_minimal_tau2
from .errors import DomainError, ScaleError
from .families import (
    Family,
    canonical_form,
    dedup_isomorphism_classes,
    elements_of,
    full_mask,
    mask_of,
    subsets,
)
from .shifting import shift_family

# C(11,4).  Single-witness times of the cases with t <= 3 that a cap of 200
# left out, on a 2-core x86-64 host: (10,4,t) 0.01 s, 0.06 s, 18.4 s and
# (11,4,t) 0.01 s, 0.04 s, 20.0 s for t = 1, 2, 3; (10,5,t) 0.01-2.3 s;
# (12,3), (13,3) and (n,2) for n = 21..26 at most 0.01 s; (10,6), (12,9),
# (13,10) and (n,n-2) for n = 21..25, where every two k-sets meet, at most
# 0.12 s.  At (11,7) and (26,24) the optimum, every k-set, is past
# canonical_form's cap, so the call raises ScaleError after a 0.06 s search.
# For n > 128, k = 1 and k = n-1 pass the cap but not the Family's ground-set
# limit, which is checked before any k-set is listed.  t = k >= 4 is not
# bounded: (9,4,4) did not finish in 700 s.
SEARCH_VERTEX_CAP = 330


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
    single witness is reported.  rng sets the exploration order, a fixed
    shuffle when None; the optimum is schedule independent.  nodes_explored
    and pruned are summed over the search's roots.
    """
    if not (1 <= k <= n):
        raise DomainError(f"need 1 <= k <= n, got k={k}, n={n}")
    if not (1 <= t <= k):
        raise DomainError(f"need 1 <= t <= k, got t={t}")
    if comb(n, k) > SEARCH_VERTEX_CAP:
        raise ScaleError(f"C({n},{k}) = {comb(n, k)} exceeds the search cap {SEARCH_VERTEX_CAP}")
    Family(n, ())  # the ground-set limit, before any k-set is listed

    masks = list(subsets(full_mask(n), k))
    # greedy colouring pairs k-sets in lexicographic order poorly (81 classes
    # at the (9,4,1) root against 61-63 shuffled), so the order is always a
    # shuffle, by a fixed seed when rng is None
    (random.Random(0) if rng is None else rng).shuffle(masks)
    nv = len(masks)
    elems = [elements_of(m) for m in masks]
    coverv = [0] * (n + 1)
    for v, es in enumerate(elems):
        for x in es:
            coverv[x] |= 1 << v
    # g[i][a]: the other k-sets meeting masks[a] in >= i elements, bit-parallel
    g = [[0] * nv for _ in range(k + 1)]
    for a, es in enumerate(elems):
        meet = [(1 << nv) - 1] + [0] * k
        for x in es:
            for j in range(k, 0, -1):
                meet[j] |= meet[j - 1] & coverv[x]
        for i in range(k + 1):
            g[i][a] = meet[i] & ~(1 << a)
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
    width = k.bit_length()  # bits of a count of at most k elements

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

    def colours(p: int, need: int) -> int:
        """Classes of a greedy colouring of p into non-adjacent sets, up to need."""
        c = 0
        while p and c < need:
            c += 1
            q = p
            while q:
                vb = q & -q
                p ^= vb
                q &= apart[vb.bit_length() - 1]
        return c

    def signature(m: int, cells: list, single: int) -> int:
        """m's singleton-cell elements, then its count in each larger cell."""
        key = m & single
        for c in cells:
            key = key << width | (m & c).bit_count()
        return key

    # The orbit prune is sound.  A permutation s of [n] that maps each twin
    # cell of R onto itself fixes R and every g[i], so it maps p | x, the
    # vertices adjacent to all of R, onto itself, and a maximal clique
    # through R onto one of the same size and covering number.  Two vertices
    # lie in one orbit of these s exactly when they have one signature.
    # Claim: every maximal clique through R and a vertex of x is reported,
    # up to isomorphism, unless the size or the covers prune shows it cannot
    # matter.  It holds at a root (x empty) and passes to a child, whose x
    # is a subset of its parent's.  In the loop, v joins x once its subtree
    # has run, which reports the maximal cliques through R + v (those
    # through x by the claim, the rest by the search), and an orbit mate w
    # joins with it, because an s with s(w) = v maps a maximal clique
    # through R + w to one through R + v.  By induction on the DFS order
    # the claim holds at every node, and the search misses no class.
    def expand(rbits: int, nr: int, p: int, x: int, cells: list, single: int):
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
        # colours the candidates must reach to beat the incumbent, or to tie it
        need = best - nr + (not all_optima)
        if colours(p, need) < need:
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
            score = (p & adj[u]).bit_count()
            if score > pivot_score:
                pivot_score = score
                pivot = u
            w &= w - 1
        ext = p & ~adj[pivot]
        orbits = None
        while ext:
            vb = ext & -ext
            v = vb.bit_length() - 1
            mv = masks[v]
            expand(rbits | vb, nr + 1, p & adj[v], x & adj[v], *_split(cells, single, mv))
            ext &= ~vb
            orbit = vb
            if cells and ext:
                # with a cell of two or more elements, v may have orbit mates:
                # group the candidates by signature, once per node
                if orbits is None:
                    orbits = {}
                    w = p
                    while w:
                        ub = w & -w
                        key = signature(masks[ub.bit_length() - 1], cells, single)
                        orbits[key] = orbits.get(key, 0) | ub
                        w ^= ub
                orbit = orbits[signature(mv, cells, single)] & p
            p &= ~orbit
            x |= orbit
            ext &= ~orbit

    pairs = [(i, mask_of([*range(1, i + 1), *range(k + 1, 2 * k - i + 1)]))
             for i in range(max(1, 2 * k - n), k)]
    for i, b in pairs or [(1, masks[root])]:  # [k] alone: k = 1 or n = k
        adj = g[i]
        apart = [~(a | 1 << v) for v, a in enumerate(adj)]
        other = masks.index(b)
        rbits = 1 << root | 1 << other
        cells, single = _split(*_split([full_mask(n)], 0, masks[root]), b)
        expand(rbits, rbits.bit_count(), adj[root] & adj[other], 0, cells, single)

    if all_optima:
        witnesses = dedup_isomorphism_classes(witnesses)
    out = sorted(
        (canonical_form(w) for w in witnesses), key=lambda f: f.members
    )
    return SearchResult(optimum=best, witnesses=out, nodes_explored=nodes, pruned=pruned)


def _split(cells: list, single: int, m: int) -> tuple[list, int]:
    """Twin cells refined by the member m: each cell of two or more elements
    splits into its part inside m and its part outside; parts of one element
    join the mask single."""
    kids = []
    for c in cells:
        for part in (c & m, c & ~m):
            if part & (part - 1):
                kids.append(part)
            else:
                single |= part
    return kids, single


def _bit_indices(bits: int):
    while bits:
        yield (bits & -bits).bit_length() - 1
        bits &= bits - 1


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
        hits = count_hitting_sets(h, k - 1)
        rows.append((hits + len(h), h, hits))
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
