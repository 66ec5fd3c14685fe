"""Independent answers for the benchmark's verdicts.

Nothing here imports kfam.  Families are handled as (n, members) with
members a tuple of bitmasks (bit e-1 for element e), the same encoding the
family file format round-trips through, so a checker can work from a
report or a file without trusting the code that produced it.

Three kinds of expected answer are used:

- closed forms with math.comb (stars, Hilton-Milner, the three-base family,
  grid point counts);
- brute-force checks (intersecting, uniform, covering number, hitting
  counts, spreadness, minimality, isomorphism by exhaustive relabeling);
- recorded constants with their provenance, where neither of the above is
  cheap enough to run beside every pass (RECORDED below).
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from math import comb

# Class counts and optima that no closed form gives, each with where the
# number comes from.
RECORDED = {
    # max_intersecting_tau(6, 3, 3, all_optima=True).  At n = 2k an
    # intersecting 3-family of size 10 takes one set from each of the 10
    # complementary pairs, so the 2^10 choices hold every optimum;
    # selftest.py scans them and counts orbits under S_6.
    ("cnkt-all", 6, 3, 3): {"optimum": 10, "classes": 6},
    # enumerate_minimal_tau2(m, s): minimal two-cover classes up to
    # isomorphism, as measured on the seed workbench (11 at (10,4) is also
    # pinned by its test suite).  Too large to re-derive beside a run;
    # selftest.py brute-checks the census at m <= 6 instead.
    ("census", 10, 4): 11,
    ("census", 9, 5): 22,
}

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


def mask(elements) -> int:
    m = 0
    for e in elements:
        m |= 1 << (e - 1)
    return m


def elements(m: int) -> list[int]:
    return [e + 1 for e in range(m.bit_length()) if m >> e & 1]


def masks_of(sets) -> tuple[int, ...]:
    return tuple(sorted(mask(s) for s in sets))


# --- closed forms ----------------------------------------------------------


def binom(n: int, r: int) -> int:
    return comb(n, r) if n >= 0 and r >= 0 else 0


def star_size(n: int, k: int) -> int:
    return binom(n - 1, k - 1)


def hm_size(n: int, k: int) -> int:
    """Hilton-Milner: the largest intersecting non-star family, n > 2k."""
    return binom(n - 1, k - 1) - binom(n - k - 1, k - 1) + 1


def meets_blocks(g: int, s: int, r: int) -> int:
    """r-subsets of a g-set meeting two disjoint s-blocks (the t2prime
    shape), by inclusion-exclusion."""
    return binom(g, r) - 2 * binom(g - s, r) + binom(g - 2 * s, r)


def meets_t2(g: int, k: int, r: int) -> int:
    """r-subsets of a g-set meeting three k-sets A, B, C where B and C share
    k-1 elements and A meets each in one other element (the t2 shape, also
    the base of c3).  Unions: A+B and A+C have 2k-1 elements, B+C has k+1,
    all three 2k-1."""
    return binom(g, r) - 3 * binom(g - k, r) + binom(g - 2 * k + 1, r) + binom(g - k - 1, r)


def c3_size(n: int, k: int) -> int:
    """|c3(n,k)|: the three base sets, plus the k-sets through 1 whose other
    k-1 elements, drawn from [2, n], meet all three bases."""
    return 3 + meets_t2(n - 1, k, k - 1)


def grid_points(name: str) -> int:
    """Point count of each registered grid with its default ranges."""
    big = 2 * 2  # (k, n) pairs: k in {100, 120}, two n values each
    return {
        # sum over k=4..40, s=2..k of 41 m-values and s-1 z-values
        "f-mono": 41 * (comb(41, 3) - comb(4, 3)),
        # sum over k=4..40 of (k-3) s-values times 41 m-values
        "f3-fprime3": 41 * sum(k - 3 for k in range(4, 41)),
        "g-ratio": 2 * (100 - 5) + 2 * (120 - 5),
        "two-g5": big,
        "eqc3large": big,
        "eqboundf": 4,
        "eqboundc2": 6,
        "peel-combine": big,
        "final-compare": 2,
    }[name]


GRID_NAMES = (
    "f-mono",
    "f3-fprime3",
    "g-ratio",
    "two-g5",
    "eqc3large",
    "eqboundf",
    "eqboundc2",
    "peel-combine",
    "final-compare",
)


# --- brute-force checks ----------------------------------------------------


def is_intersecting(members) -> bool:
    ms = list(members)
    return all(a & b for i, a in enumerate(ms) for b in ms[i + 1 :])


def uniform_k(members):
    sizes = {m.bit_count() for m in members}
    return sizes.pop() if len(sizes) == 1 else None


def hits_all(cover: int, members) -> bool:
    return all(cover & m for m in members)


def brute_tau(n: int, members):
    """Least size of an element set meeting every member (inf if a member
    is empty, 0 for the empty family)."""
    if not members:
        return 0
    if any(m == 0 for m in members):
        return float("inf")
    for t in range(1, n + 1):
        for c in combinations(range(1, n + 1), t):
            if hits_all(mask(c), members):
                return t
    return float("inf")


def brute_hitcount(n: int, members, t: int) -> int:
    return sum(1 for c in combinations(range(1, n + 1), t) if hits_all(mask(c), members))


def degrees(n: int, members) -> list[int]:
    return [sum(1 for m in members if m >> (e - 1) & 1) for e in range(1, n + 1)]


def brute_r_spread(members, r: Fraction) -> bool:
    """|F[X]| r^|X| <= |F| for every nonempty X inside some member."""
    total = len(members)
    seen = set()
    for m in members:
        els = elements(m)
        for size in range(1, len(els) + 1):
            for xs in combinations(els, size):
                x = mask(xs)
                if x in seen:
                    continue
                seen.add(x)
                count = sum(1 for o in members if o & x == x)
                if count * r**size > total:
                    return False
    return True


def shift(members, i: int, j: int) -> tuple[int, ...]:
    """(i,j)-compression: swap j for i unless the image is already present."""
    bi, bj = 1 << (i - 1), 1 << (j - 1)
    present = set(members)
    out = []
    for m in members:
        img = m if (m & bi or not m & bj) else (m & ~bj) | bi
        out.append(m if img != m and img in present else img)
    return tuple(sorted(out))


def is_minimal_tau2(n: int, members) -> bool:
    """Covering number 2, and dropping any member leaves a common element."""
    if brute_tau(n, members) != 2:
        return False
    for drop in range(len(members)):
        common = -1
        for j, m in enumerate(members):
            if j != drop:
                common &= m
        if common & ((1 << n) - 1) == 0:
            return False
    return True


@lru_cache(maxsize=4096)
def venn_key(n: int, members: tuple) -> tuple:
    """Complete isomorphism invariant for a family with few members.

    A family is fixed up to relabeling of [n] by how many elements lie in
    each Venn region of its members, so the least region-count vector over
    all member orders is canonical.  Cost grows as len(members)!.
    """
    best = None
    for order in permutations(members):
        counts = [0] * (1 << len(order))
        for e in range(n):
            pattern = 0
            for idx, m in enumerate(order):
                if m >> e & 1:
                    pattern |= 1 << idx
            counts[pattern] += 1
        key = tuple(counts)
        if best is None or key < best:
            best = key
    return (len(members), best)


def perm_key(n: int, members) -> tuple:
    """Least sorted member tuple over all n! relabelings; small n only."""
    best = None
    for perm in permutations(range(n)):
        out = []
        for m in members:
            img = 0
            for e in range(n):
                if m >> e & 1:
                    img |= 1 << perm[e]
            out.append(img)
        key = tuple(sorted(out))
        if best is None or key < best:
            best = key
    return best


def t2_members(k: int) -> tuple[int, ...]:
    """[k], tail+{1}, tail+{2} with tail = [k+1, 2k-1]."""
    tail = mask(range(k + 1, 2 * k))
    return (mask(range(1, k + 1)), tail | 1, tail | 2)


def t2prime_members(s: int) -> tuple[int, ...]:
    return (mask(range(1, s + 1)), mask(range(s + 1, 2 * s + 1)))



# --- the family file format ------------------------------------------------


def format_family(n: int, members) -> str:
    lines = [f"n={n}"] + [" ".join(map(str, elements(m))) for m in sorted(members)]
    return "\n".join(lines) + "\n"


def parse_family(text: str) -> tuple[int, tuple[int, ...]]:
    """(n, sorted member masks) from the text format; '#' lines skipped."""
    rows = [ln.strip() for ln in text.splitlines()]
    rows = [ln for ln in rows if ln and not ln.startswith("#")]
    n = int(rows[0].partition("=")[2])
    return n, masks_of([int(tok) for tok in ln.split()] for ln in rows[1:])
