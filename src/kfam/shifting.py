"""Compression (shifting) operators on set families.

The (i, j)-shift replaces j by i in every member where that is possible
without colliding with another member already present.  It preserves
uniformity, family size, and the intersecting property, but can change
the covering number.
"""
from __future__ import annotations

from .errors import DomainError, InvariantError
from .families import Family


def _shift_mask(mask: int, i: int, j: int) -> int:
    bi = 1 << (i - 1)
    bj = 1 << (j - 1)
    if mask & bi or not mask & bj:
        return mask
    return (mask & ~bj) | bi


def shift_family(fam: Family, i: int, j: int) -> Family:
    """Apply the (i, j)-shift to every member of fam.

    A member is moved to its shifted image unless that image is already a
    member, in which case it stays put.  Size is preserved exactly.
    """
    if not (1 <= i < j <= fam.n):
        raise DomainError(f"shift pair out of range: i={i}, j={j}, n={fam.n}")
    present = fam.member_set
    out = []
    for mask in fam.members:
        img = _shift_mask(mask, i, j)
        out.append(mask if img != mask and img in present else img)
    shifted = Family.from_masks(fam.n, out)
    if len(shifted) != len(fam):
        raise InvariantError("shift collapsed two members, which should be impossible")
    return shifted
