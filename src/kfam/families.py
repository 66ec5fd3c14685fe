"""Ground sets, element sets as bitmasks, and finite set families.

Elements are labeled 1..n and an element set over [n] is stored as a plain
int with bit (e-1) standing for element e.  A Family is an immutable sorted
tuple of such masks together with its ground size.  All higher layers
(covers, constructions, compressions, search oracles) work on these masks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from .errors import DomainError, ScaleError

MAX_GROUND = 128
# canonical_form refuses larger families: c3(12,5), 293 members, takes seconds
_CANONICAL_CAP = 300


def mask_of(elements) -> int:
    """Build a mask from an iterable of 1-based element labels."""
    m = 0
    for e in elements:
        if e < 1:
            raise DomainError(f"element labels are 1-based, got {e}")
        m |= 1 << (e - 1)
    return m


def elements_of(mask: int) -> tuple[int, ...]:
    """Return the sorted tuple of 1-based labels present in a mask."""
    out = []
    e = 1
    while mask:
        if mask & 1:
            out.append(e)
        mask >>= 1
        e += 1
    return tuple(out)


def full_mask(n: int) -> int:
    return (1 << n) - 1


def subsets(ground: int, r: int, meets=()):
    """Yield the mask of each r-subset of the mask ground that meets every
    mask in meets, in itertools.combinations order of ground's ascending
    elements."""
    bits = [1 << (e - 1) for e in elements_of(ground)]
    for c in combinations(bits, r):
        m = sum(c)
        for b in meets:
            if not m & b:
                break
        else:
            yield m


@dataclass(frozen=True)
class Family:
    """An immutable family of element sets over the ground set [n].

    members is a strictly increasing tuple of masks: construction sorts and
    deduplicates.  The empty mask (the empty set) is representable; most
    operations treat it as the degenerate object it is.
    """

    n: int
    members: tuple[int, ...]

    def __post_init__(self):
        if not (1 <= self.n <= MAX_GROUND):
            raise DomainError(f"ground size must be in [1, {MAX_GROUND}], got {self.n}")
        limit = 1 << self.n
        seen = set()
        for m in self.members:
            if not (0 <= m < limit):
                raise DomainError(f"member mask {m} does not fit ground [{self.n}]")
            if m in seen:
                raise DomainError("duplicate member after normalization")
            seen.add(m)
        if list(self.members) != sorted(self.members):
            raise DomainError("members must be sorted ascending")

    @classmethod
    def from_masks(cls, n: int, masks) -> "Family":
        return cls(n, tuple(sorted(set(masks))))

    @cached_property
    def member_set(self) -> frozenset:
        return frozenset(self.members)

    @cached_property
    def incidence(self) -> tuple[list, list]:
        """The elements of each member and the members holding each element,
        as 0-based index lists: built once for the isomorphism engine."""
        sets = [[e for e in range(self.n) if m >> e & 1] for m in self.members]
        holders = [[] for _ in range(self.n)]
        for i, s in enumerate(sets):
            for e in s:
                holders[e].append(i)
        return sets, holders

    @cached_property
    def uniform_k(self):
        """Common member size if the family is uniform, else None."""
        sizes = {m.bit_count() for m in self.members}
        if len(sizes) == 1:
            return sizes.pop()
        return None

    def sets(self) -> list[tuple[int, ...]]:
        return [elements_of(m) for m in self.members]

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, mask):
        return mask in self.member_set


# ---------------------------------------------------------------------------
# basic functionals


def is_intersecting(fam: Family) -> bool:
    """True iff every pair of distinct members has nonempty intersection.

    Empty and one-member families count as intersecting.
    """
    ms = fam.members
    for i in range(len(ms)):
        a = ms[i]
        for j in range(i + 1, len(ms)):
            if a & ms[j] == 0:
                return False
    return True


def degree(fam: Family, element: int) -> int:
    if not (1 <= element <= fam.n):
        raise DomainError(f"element {element} outside ground [{fam.n}]")
    bit = 1 << (element - 1)
    return sum(1 for m in fam.members if m & bit)


def max_degree(fam: Family) -> int:
    e = max_degree_element(fam)
    return 0 if e is None else degree(fam, e)


def max_degree_element(fam: Family) -> int | None:
    """Smallest element of maximum degree, or None for the empty family."""
    if not fam.members:
        return None
    best, arg = -1, None
    for e in range(1, fam.n + 1):
        d = degree(fam, e)
        if d > best:
            best, arg = d, e
    return arg


def diversity(fam: Family) -> int:
    """Member count minus the maximum degree; zero exactly for stars and the
    empty family."""
    return len(fam.members) - max_degree(fam)


# ---------------------------------------------------------------------------
# restrictions


def restrict_avoid(fam: Family, y_mask: int) -> Family:
    """Members disjoint from Y."""
    if not (0 <= y_mask < (1 << fam.n)):
        raise DomainError(f"restriction mask {y_mask} does not fit ground [{fam.n}]")
    return Family.from_masks(fam.n, (m for m in fam.members if m & y_mask == 0))


# ---------------------------------------------------------------------------
# isomorphism and canonical relabeling


def _refine(fam: Family, colour):
    """Refine element colours (indexed 0..n-1) to an equitable partition.

    Each round colours every member by the sorted colours of its elements,
    then every element by its colour and the sorted colours of the members
    holding it.  Colours are ranks among the sorted distinct signatures, so
    they and the trace -- the sorted signature lists of every round -- do
    not depend on the labeling.  Equal traces mean each colour stands for
    the same signature in both runs.
    """
    sets, holders = fam.incidence
    trace = []
    cells = len(set(colour))
    while True:
        msig = [tuple(sorted(map(colour.__getitem__, s))) for s in sets]
        rank = {sig: r for r, sig in enumerate(sorted(set(msig)))}
        mcol = [rank[sig] for sig in msig]
        esig = [(c, tuple(sorted(map(mcol.__getitem__, h)))) for c, h in zip(colour, holders)]
        rank = {sig: r for r, sig in enumerate(sorted(set(esig)))}
        colour = [rank[sig] for sig in esig]
        trace.append((tuple(sorted(msig)), tuple(sorted(esig))))
        if len(rank) == cells:
            return colour, tuple(trace)
        cells = len(rank)


def _isomorphic_below(fam_a: Family, ca, fam_b: Family, cb) -> bool:
    """Search for a relabeling of a onto b that keeps two equitable
    colourings with equal traces: individualize the first element of a's
    smallest non-singleton cell against every element of that colour in b,
    and go on only where the refined traces agree."""
    cells: dict = {}
    for e, c in enumerate(ca):
        cells.setdefault(c, []).append(e)
    split = [cell for cell in cells.values() if len(cell) > 1]
    if not split:
        where = {c: e for e, c in enumerate(cb)}
        perm = [where[c] for c in ca]
        return fam_b.member_set == {
            sum(1 << perm[e] for e in range(fam_a.n) if m >> e & 1) for m in fam_a.members
        }
    v = min(split, key=len)[0]
    fresh = len(cells)
    ca2, ta = _refine(fam_a, ca[:v] + [fresh] + ca[v + 1 :])
    for w, c in enumerate(cb):
        if c == ca[v]:
            cb2, tb = _refine(fam_b, cb[:w] + [fresh] + cb[w + 1 :])
            if tb == ta and _isomorphic_below(fam_a, ca2, fam_b, cb2):
                return True
    return False


def dedup_isomorphism_classes(fams) -> list[Family]:
    """Reduce a list of families to isomorphism class representatives.

    Each family is refined once and bucketed by its refinement trace; the
    exact individualization test confirms inside a bucket.  The first
    member of each class in input order is kept.
    """
    buckets: dict = {}
    out = []
    for f in fams:
        colour, trace = _refine(f, [0] * f.n)
        reps = buckets.setdefault((f.n, len(f.members), trace), [])
        if not any(_isomorphic_below(f, colour, r, rc) for r, rc in reps):
            reps.append((f, colour))
            out.append(f)
    return out


# The canonical form of a family is the relabeling of [n] whose sorted
# member list is lexicographically least (masks compared numerically).  The
# search gives labels 1, 2, ... to one element at a time and keeps, at each
# level, only the partial labelings with the least key: the sorted masks of
# the fully labeled members, then the least mask any other member can still
# reach (its labeled bits plus the next free labels for the rest).  Fully
# labeled members precede all others in every completion, and every other
# member ends at or above its bound, so no completion lies below the key;
# labeling a bounding member's elements next attains it.  So a least-key
# labeling extends to the least member list, and the search is exact.
#
# Tied labelings related by an automorphism complete alike, so one per orbit
# is kept.  Equivalent labelings have equivalent parents, and one labeling
# per orbit survives each level, so they are siblings: only siblings are
# compared.  Siblings in different cells of the parent's equitable colouring
# (labeled elements individualized) are never equivalent.  Inside a cell a
# child is dropped when exchanging its element with a kept sibling's is an
# automorphism, and otherwise individualized, refined and confirmed against
# the kept ones with the isomorphism search.
#
# Twins are elements that lie in exactly the same members.  Exchanging two
# unlabeled twins is an automorphism fixing every labeled element, and both
# lie in the same bounding members, so only the least unlabeled twin of a
# class is tried.  Moreover every least member list gives each twin class
# consecutive labels.  Were twins x and y labeled a and c > a + 1 and z, no
# twin, labeled a + 1, let A hold the members with x (so with y) but not z,
# and Z those with z but not x; one is nonempty, as z is no twin.
# Exchanging labels a and a + 1 lowers every mask of Z and raises every
# mask of A; exchanging a + 1 and c does the reverse; no other mask moves.
# The exchange that lowers the least mask of A and Z puts the least moved
# mask below every old moved mask; the unmoved masks are common to both
# lists, so the sorted list falls, and it was not least.  So while the last
# labeled element has an unlabeled twin, every least list labels a twin of
# it next, and the least such twin is the only child kept.


def _label(pending, e: int, used: int):
    """Give element bit e the next label; return the members this finishes
    (as final masks) and the (label mask, unlabeled elements) still open."""
    bit, lbl = 1 << e, 1 << used
    finished, rest = [], []
    for img, todo in pending:
        if todo & bit:
            img, todo = img | lbl, todo ^ bit
            if not todo:
                finished.append(img)
                continue
        rest.append((img, todo))
    return sorted(finished), rest


def _reach(pending, used: int) -> list:
    """Least mask each open member can still reach with `used` labels out."""
    return [img | ((1 << todo.bit_count()) - 1) << used for img, todo in pending]


def _swaps(fam: Family, e: int, f: int) -> bool:
    """Whether exchanging elements e and f maps the family onto itself."""
    both = 1 << e | 1 << f
    return all(m & both in (0, both) or m ^ both in fam.member_set for m in fam.members)


def _orbit_reps(fam: Family, order, colour, es):
    """Keep one of the elements es per orbit of the automorphisms fixing the
    labeled elements `order`, each with its child's colouring or None.
    colour is the parent's equitable colouring, or None until one is needed.
    """
    if colour is None:
        if len(es) == 1:
            return [(es[0], None)]
        start = [0] * fam.n
        for lbl, x in enumerate(order):
            start[x] = lbl + 1
        colour, _ = _refine(fam, start)
    if len(set(colour)) == fam.n:  # only the identity fixes the labeled elements
        return [(e, colour) for e in es]
    cells: dict = {}
    for e in es:
        cells.setdefault(colour[e], []).append(e)
    fresh = max(colour) + 1
    kept = []
    for cell in cells.values():
        if len(cell) == 1:
            kept.append((cell[0], None))
            continue
        reps = []
        for e in cell:
            if any(_swaps(fam, e, r) for r, _, _ in reps):
                continue
            ce, te = _refine(fam, colour[:e] + [fresh] + colour[e + 1 :])
            if not any(te == tr and _isomorphic_below(fam, ce, fam, cr) for _, cr, tr in reps):
                reps.append((e, ce, te))
        kept += [(e, ce) for e, ce, _ in reps]
    return kept


def canonical_form(fam: Family) -> Family:
    """Relabel so the sorted member list is least over permutations of [n]."""
    if len(fam.members) > _CANONICAL_CAP:
        raise ScaleError(f"canonical form of {len(fam)} members: past the cap {_CANONICAL_CAP}")
    done = [m for m in fam.members if not m]
    holders = fam.incidence[1]  # twins[e]: e's twin class as a mask, e included
    twins = [sum(1 << x for x, g in enumerate(holders) if g == h) for h in holders]
    # a partial labeling: (labeled elements in label order, open members as
    # (label mask, unlabeled elements), equitable colouring or None)
    level = [((), [(0, m) for m in fam.members if m], None)]
    used = 0
    while level[0][1]:
        best, ties = None, {}
        for p, (order, pending, _) in enumerate(level):
            reach = _reach(pending, used)
            low = min(reach)
            cands = 0  # only an element of a bounding member keeps the bound
            for r, (_, todo) in zip(reach, pending):
                if r == low:
                    cands |= todo
            # a twin of a candidate, or of the element labeled last (every
            # bounding member then holds it), is unlabeled iff a candidate
            run = twins[order[-1]] & cands if order else 0
            free = cands = run & -run if run else cands
            while cands:
                e = (cands & -cands).bit_length() - 1
                cands &= cands - 1
                if twins[e] & free & (1 << e) - 1:
                    continue
                finished, rest = _label(pending, e, used)
                key = finished + [min(_reach(rest, used + 1))] if rest else finished
                if best is None or key < best:
                    best, ties = key, {}
                if key == best:
                    ties.setdefault(p, {})[e] = (finished, rest)
        nxt = []
        for p, children in ties.items():
            order, _, colour = level[p]
            for e, ce in _orbit_reps(fam, order, colour, list(children)):
                finished, rest = children[e]
                nxt.append((order + (e,), rest, ce))
        done += finished
        level = nxt
        used += 1
    return Family.from_masks(fam.n, done)
