"""Closed-form counts and bounds for intersecting k-uniform families.

Everything here is exact integer arithmetic.  Each nontrivial formula has a
matching enumeration oracle in the test suite that recounts it from scratch
at small parameters.  The counts that sum binomials over layers are in
closed form by the hockey-stick identity
sum_{j=a}^{b} C(j, r) = C(b+1, r+1) - C(a, r+1); their layer-by-layer sums
are kept in tests/helpers.py as oracles.
"""

from __future__ import annotations

from itertools import accumulate, repeat
from math import comb
from operator import sub

from .errors import DomainError


def binom(n: int, k: int) -> int:
    """Binomial coefficient, zero outside 0 <= k <= n."""
    if k < 0 or n < 0 or k > n:
        return 0
    return comb(n, k)


def ekr_bound(n: int, k: int) -> int:
    """Largest intersecting k-uniform family over [n]: all sets through one
    point."""
    if not (k >= 1 and n >= 2 * k):
        raise DomainError(f"need n >= 2k >= 2, got n={n} k={k}")
    return binom(n - 1, k - 1)


def hm_size(n: int, k: int) -> int:
    """Largest intersecting k-uniform family that is not a star (n > 2k)."""
    if not (k >= 2 and n > 2 * k):
        raise DomainError(f"need n > 2k >= 4, got n={n} k={k}")
    return binom(n - 1, k - 1) - binom(n - k - 1, k - 1) + 1


def thm1_bound(n: int, k: int, u: int) -> int:
    """Size bound for intersecting families whose covering number is at
    least 3, parameterized by a degree threshold u in [3, k].

    At u=k this degenerates to the non-star maximum.
    """
    if not (3 <= u <= k):
        raise DomainError(f"need 3 <= u <= k, got u={u} k={k}")
    if not n > 2 * k:
        raise DomainError(f"need n > 2k, got n={n} k={k}")
    return binom(n - 1, k - 1) + binom(n - u - 1, n - k - 1) - binom(n - u - 1, k - 1)


def size_c3(n: int, k: int) -> int:
    """Exact size of the three-cover construction c3(n, k).

    Counts the three base sets plus all k-sets through element 1 meeting
    each base set, partitioned by the least element above 1.
    """
    if not (k >= 3 and n >= 2 * k):
        raise DomainError(f"need k >= 3 and n >= 2k, got n={n} k={k}")
    return (3 + binom(n - 1, k - 1) - binom(n - k - 2, k - 2)
            - 2 * binom(n - k - 1, k - 1) + binom(n - 2 * k, k - 1))


def size_f2prime(m: int, s: int, k: int) -> int:
    """Number of (k-1)-subsets of [m] meeting both blocks of the two-block
    cover {[s], [s+1, 2s]}."""
    if not (s >= 1 and m >= 2 * s and k >= 2):
        raise DomainError(f"need s >= 1, m >= 2s, k >= 2, got m={m} s={s} k={k}")
    return binom(m, k - 1) - 2 * binom(m - s, k - 1) + binom(m - 2 * s, k - 1)


class _Tops:
    """The column C(a, r) for lo <= a < hi, an entry or a slice computed
    when it is read: the column reader of the one-point functions below."""

    def __init__(self, r: int, lo: int, hi: int):
        self.r, self.tops = r, range(lo, hi)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [binom(a, self.r) for a in self.tops[i]]
        return binom(self.tops[i], self.r)


def _f_columns(col, m: int, s: int, k: int) -> tuple:
    """The binomials f and f' read at (m, s, k), from col(r, lo, hi), the
    list of C(a, r) for lo <= a < hi: c1[i] = C(m-2s+i, k-1) for
    0 <= i <= 2s, and c2[i] = C(m-s-2+i, k-2) for 0 <= i <= s+1."""
    return col(k - 1, m - 2 * s, m + 1), col(k - 2, m - s - 2, m)


def _f(c1: list, c2: list, s: int, last: int) -> list:
    """[f(2), ..., f(last)] from the columns of _f_columns:
    f(z) = C(m, k-1) - C(m-s, k-1) - C(m-s-1, k-1) + C(m-2s+z-2, k-1)
           - (z-1) C(m-s-1, k-2),
    the first three terms and the slope C(m-s-1, k-2) taken once."""
    base = c1[2 * s] - c1[s] - c1[s - 1]
    slope = c2[1]
    # C(m-2s+z-2, k-1) - ((z-1) slope - base), the bracket accumulated over z
    return list(map(sub, c1[:last - 1], accumulate(repeat(slope, last - 2), initial=slope - base)))


def _fprime3(c1: list, c2: list, s: int) -> int:
    """f'(3) from the columns of _f_columns, with s >= 4:
    f'(3) = C(m-1, k-2) + C(m-2, k-2) + C(m-3, k-2) + C(m-4, k-2)
            - 2 C(m-s-1, k-2) - 2 C(m-s-2, k-2)
            + C(m-4, k-1) - C(m-s, k-1) - C(m-s-3, k-1) + C(m-2s+1, k-1)."""
    return (sum(c2[-4:]) - 2 * (c2[1] + c2[0])
            + c1[2 * s - 4] - c1[s] - c1[s - 3] + c1[1])


def f_values(m: int, s: int, k: int, zs) -> list:
    """Maximum weight profile f(z) of a z-member minimal two-cover paired
    with its cross-meeting (k-1)-sets, for each z (2 <= z <= s+1) of the
    sequence zs; the formula is _f's.  f(2) = size_f2prime, and by Pascal's
    rule f(z-1) - f(z) = C(m-s-1, k-2) - C(m-2s+z-3, k-2)."""
    for z in zs:
        if not (2 <= z <= s + 1):
            raise DomainError(f"need 2 <= z <= s+1, got z={z} s={s}")
    if not (m >= 2 * s and k >= 2):
        raise DomainError(f"need m >= 2s and k >= 2, got m={m} s={s} k={k}")
    if not zs:
        return []
    f = _f(*_f_columns(_Tops, m, s, k), s, max(zs))
    return [f[z - 2] for z in zs]


def f_of_z(m: int, s: int, k: int, z: int) -> int:
    """f(z) at one z: f_values(m, s, k, (z,))[0]."""
    return f_values(m, s, k, (z,))[0]


def fprime3(m: int, s: int, k: int) -> int:
    """Second-best weight profile at z=3, the formula of _fprime3; differs
    from f_of_z(m, s, k, 3) by exactly binom(m-s-3, k-3)."""
    if not (s >= 4 and m >= 2 * s and k >= 2):
        raise DomainError(f"need s >= 4 and m >= 2s, got m={m} s={s} k={k}")
    return _fprime3(*_f_columns(_Tops, m, s, k), s)


def kz_bound(n: int, a: int, b: int, j: int | None = None) -> int:
    """Size bound for the a-uniform side of a cross-intersecting pair with
    b-uniform partner over [n].

    Without j: the trivial bound C(n, a).  With a degree parameter j in
    [b-a+1, b]: the refined bound C(n,a) - C(n-j,a) + C(n-j,b-j).
    """
    if not (0 < a <= b and n > a + b):
        raise DomainError(f"need 0 < a <= b and n > a+b, got n={n} a={a} b={b}")
    if j is None:
        return binom(n, a)
    t = b - a + 1
    if not (t <= j <= b):
        raise DomainError(f"need {t} <= j <= {b}, got j={j}")
    return binom(n, a) - binom(n - j, a) + binom(n - j, b - j)
