"""Named families used throughout the workbench.

All constructors return Family objects over an explicit ground set; where a
construction only needs an initial segment, ground_n may widen it (the extra
elements simply stay unused by the base sets).
"""

from __future__ import annotations

from .errors import DomainError, ScaleError
from .families import Family, full_mask, mask_of, subsets
from .formulas import binom

_CLOSURE_CAP = 5_000_000


def _through_one(n: int, k: int, avoiders: list, what: str) -> Family:
    """The pivot completion: the sets in avoiders, which miss element 1, plus
    every k-set through 1 that meets all of them.  Refused before listing
    when the binom(n-1, k-1) candidates exceed the cap."""
    if binom(n - 1, k - 1) > _CLOSURE_CAP:
        raise ScaleError(f"{what} over [{n}] choose {k} is too large to list")
    return Family.from_masks(
        n, avoiders + [m | 1 for m in subsets(full_mask(n) - 1, k - 1, avoiders)]
    )


def full_star(n: int, k: int) -> Family:
    """All k-subsets of [n] through element 1."""
    if not (1 <= k <= n):
        raise DomainError(f"need 1 <= k <= n, got n={n} k={k}")
    return _through_one(n, k, [], "star")


def hilton_milner(n: int, k: int) -> Family:
    """The largest non-star intersecting family: one set avoiding element 1
    plus every k-set through 1 that meets it."""
    if not (k >= 2 and n > 2 * k):
        raise DomainError(f"need n > 2k >= 4, got n={n} k={k}")
    return _through_one(n, k, [mask_of(range(2, k + 2))], "Hilton-Milner family")


def t2(k: int, ground_n: int | None = None) -> Family:
    """Three k-sets with covering number exactly 2: the segment [k] and two
    sets sharing the tail block [k+1, 2k-1]."""
    if k < 2:
        raise DomainError(f"need k >= 2, got k={k}")
    n = 2 * k - 1 if ground_n is None else ground_n
    if n < 2 * k - 1:
        raise DomainError(f"ground [{n}] too small for t2({k})")
    tail = mask_of(range(k + 1, 2 * k))
    return Family.from_masks(
        n, [mask_of(range(1, k + 1)), tail | mask_of([1]), tail | mask_of([2])]
    )


def t2prime(s: int, ground_n: int | None = None) -> Family:
    """The two disjoint blocks [s] and [s+1, 2s]."""
    if s < 1:
        raise DomainError(f"need s >= 1, got s={s}")
    n = 2 * s if ground_n is None else ground_n
    if n < 2 * s:
        raise DomainError(f"ground [{n}] too small for t2prime({s})")
    return Family.from_masks(n, [mask_of(range(1, s + 1)), mask_of(range(s + 1, 2 * s + 1))])


def cross_closure(base: Family, r: int) -> Family:
    """All r-subsets of the base's ground set meeting every base member."""
    if not (0 <= r <= base.n):
        raise DomainError(f"need 0 <= r <= n, got r={r} n={base.n}")
    if binom(base.n, r) > _CLOSURE_CAP:
        raise ScaleError(f"closure over [{base.n}] choose {r} is too large to list")
    return Family.from_masks(base.n, subsets(full_mask(base.n), r, base.members))


def c3(n: int, k: int) -> Family:
    """Three base k-sets with covering number 3, plus every k-set through
    element 1 meeting all three.

    The bases are [2, k+1], {2} + [k+2, 2k], {3} + [k+2, 2k]; no single pair
    of elements covers the family.
    """
    if not (k >= 3 and n >= 2 * k):
        raise DomainError(f"need k >= 3 and n >= 2k, got n={n} k={k}")
    tail = mask_of(range(k + 2, 2 * k + 1))
    bases = [mask_of(range(2, k + 2)), tail | mask_of([2]), tail | mask_of([3])]
    return _through_one(n, k, bases, "c3")
