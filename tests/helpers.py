"""Shared oracles and family generators for the test suite.

The oracles here are deliberately naive (exhaustive subset scans, full
permutation orbits) so they are correct by inspection and independent of
the implementations under test.
"""
from __future__ import annotations

import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, permutations
from pathlib import Path

from kfam.certify import SQRT_E_HI, SQRT_E_LO
from kfam.errors import DomainError, ScaleError
from kfam.families import (
    Family,
    canonical_form,
    dedup_isomorphism_classes,
    elements_of,
    is_intersecting,
    mask_of,
)
from kfam.formulas import binom, f_of_z, fprime3, size_c3, thm1_bound
from kfam.spread import is_r_spread

ROOT = Path(__file__).parents[1]


def family(n: int, sets) -> Family:
    return Family.from_sets(n, sets)


def run_python(*argv) -> subprocess.CompletedProcess:
    """Run the interpreter on argv in a new process with the repo's src/ on
    PYTHONPATH, capturing text output."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True, timeout=60)


def relabel(fam: Family, perm: dict) -> Family:
    """fam with each element e renamed perm[e]."""
    return family(fam.n, [{perm[e] for e in s} for s in fam.sets()])


def shuffled_copy(rng: random.Random, fam: Family) -> Family:
    """fam under a uniformly random relabeling of [n]."""
    labels = list(range(1, fam.n + 1))
    rng.shuffle(labels)
    return relabel(fam, dict(zip(range(1, fam.n + 1), labels)))


def are_isomorphic(fam_a: Family, fam_b: Family) -> bool:
    """Whether a relabeling maps one family onto the other, asked of the
    isomorphism engine through its one entry point."""
    return len(dedup_isomorphism_classes([fam_a, fam_b])) == 1


def brute_is_intersecting(fam: Family) -> bool:
    ms = fam.members
    return all(a & b for i, a in enumerate(ms) for b in ms[i + 1 :])


def brute_tau(fam: Family):
    """Smallest size of a set meeting every member, by exhaustive scan."""
    if not fam.members:
        return 0
    if any(m == 0 for m in fam.members):
        return float("inf")
    ground = list(range(1, fam.n + 1))
    for t in range(1, fam.n + 1):
        for cand in combinations(ground, t):
            cm = mask_of(cand)
            if all(cm & m for m in fam.members):
                return t
    return float("inf")


def brute_count_hitting(fam: Family, t: int) -> int:
    if any(m == 0 for m in fam.members):
        return 0
    count = 0
    for cand in combinations(range(1, fam.n + 1), t):
        cm = mask_of(cand)
        if all(cm & m for m in fam.members):
            count += 1
    return count


def perm_orbit(fam: Family) -> set:
    """Every relabeling of fam over the full symmetric group, each as a
    sorted tuple of masks.  Only viable for small n."""
    orbit = set()
    for perm in permutations(range(fam.n)):
        relabeled = []
        for m in fam.members:
            out = 0
            rest = m
            while rest:
                low = rest & -rest
                out |= 1 << perm[low.bit_length() - 1]
                rest ^= low
            relabeled.append(out)
        orbit.add(tuple(sorted(relabeled)))
    return orbit


def perm_canonical(fam: Family) -> tuple:
    """Lexicographically least relabeling over the full symmetric group.

    Only viable for small n; used to certify canonical_form.
    """
    return min(perm_orbit(fam))


def brute_cnkt(n: int, k: int, t: int):
    """c(n,k,t) and the perm_canonical keys of its optimal classes.

    Lists every maximal clique of the intersection graph on all k-sets of
    [n] by plain Bron-Kerbosch (no pivot, no rooting, no prunes) and judges
    each with brute_tau.  Adding a member never lowers the covering number,
    so every optimum is a maximal clique.
    """
    maximal = []

    def extend(clique, cands, done):
        if not cands and not done:
            maximal.append(clique)
        for i, v in enumerate(cands):
            later = cands[i + 1 :]
            extend(clique + [v], [u for u in later if u & v], [u for u in done if u & v])
            done = done + [v]

    extend([], [mask_of(c) for c in combinations(range(1, n + 1), k)], [])
    good = [f for f in (Family.from_masks(n, c) for c in maximal) if brute_tau(f) >= t]
    best = max((len(f) for f in good), default=0)
    classes, seen = set(), set()
    for f in good:
        if len(f) == best and f.members not in seen:
            orbit = perm_orbit(f)
            seen |= orbit
            classes.add(min(orbit))
    return best, classes


def restrict_contains_keep(fam: Family, y_mask: int) -> Family:
    """Members containing Y, kept whole."""
    if not 0 <= y_mask < 1 << fam.n:
        raise DomainError(f"restriction mask {y_mask} does not fit ground [{fam.n}]")
    return Family.from_masks(fam.n, (m for m in fam.members if m & y_mask == y_mask))


def restrict_contains_strip(fam: Family, y_mask: int) -> Family:
    """Members containing Y, with Y removed from each; ground unchanged."""
    return Family.from_masks(fam.n, (m & ~y_mask for m in restrict_contains_keep(fam, y_mask)))


def find_spread_restriction(fam: Family, r) -> tuple[tuple, Family]:
    """The least, by (size, elements), inclusion-maximal X with
    |F[X]| r^|X| >= |F|, and F(X): the members containing X, X removed.

    Needs a k-uniform F with |F| > r^k, so no X of k or more elements
    qualifies; the empty set always does.
    """
    r = Fraction(r)
    k = fam.uniform_k
    if k is None or len(fam) <= r**k:
        raise DomainError(f"need a uniform family with |F| > r^k, got |F| = {len(fam)}, r = {r}")
    dense = [
        mask_of(x)
        for size in range(k)
        for x in combinations(range(1, fam.n + 1), size)
        if len(restrict_contains_keep(fam, mask_of(x))) * r**size >= len(fam)
    ]
    x = next(x for x in dense if not any(y != x and y & x == x for y in dense))
    return elements_of(x), restrict_contains_strip(fam, x)


def lemma_spread2(g: Family, x, gp: Family, alpha, m: int) -> dict:
    """Replace the members of g containing X by X itself.  The seven
    hypotheses under which the result stays intersecting, each as a flag,
    and under "conclusion" whether it does.

    With every hypothesis true, a member of g disjoint from X would have to
    meet every member of the alpha-spread restriction gp(X), and each of its
    at most m < alpha elements lies in under a 1/m share of them.  An alpha
    below 1 counts every restriction as alpha-spread.
    """
    x = mask_of(x)
    alpha = Fraction(alpha)
    subfamily = gp.n == g.n and gp.member_set <= g.member_set
    restriction = restrict_contains_strip(gp, x) if subfamily else gp
    nonempty = subfamily and len(restriction) > 0
    replaced = [mm for mm in g.members if mm & x != x] + [x]
    return {
        "g_intersecting": brute_is_intersecting(g),
        "sizes_bounded": all(len(s) <= m for s in g.sets()),
        "subfamily_ok": subfamily,
        "restriction_nonempty": nonempty,
        "restriction_spread": nonempty and (alpha < 1 or bool(is_r_spread(restriction, alpha))),
        "alpha_exceeds_m": alpha > m,
        "x_small": 0 < len(elements_of(x)) < m,
        "conclusion": brute_is_intersecting(Family.from_masks(g.n, replaced)),
    }


def are_cross_intersecting(fam_a: Family, fam_b: Family) -> bool:
    """True iff every member of one family meets every member of the other."""
    if fam_a.n != fam_b.n:
        raise DomainError("cross-intersection needs a common ground set")
    return all(a & b for a in fam_a.members for b in fam_b.members)


def shift_set(a, i: int, j: int) -> frozenset:
    """Image of a single set under the (i, j)-shift, ignoring collisions:
    j is swapped out for i when j is present and i is not."""
    if not 1 <= i < j:
        raise DomainError(f"shift needs 1 <= i < j, got i={i}, j={j}")
    a = frozenset(a)
    return a if i in a or j not in a else a - {j} | {i}


def random_uniform_family(rng: random.Random, n: int, k: int, size: int) -> Family:
    pool = [mask_of(c) for c in combinations(range(1, n + 1), k)]
    size = min(size, len(pool))
    return Family.from_masks(n, rng.sample(pool, size))


def random_intersecting_family(rng: random.Random, n: int, k: int, target: int) -> Family:
    """Greedy intersecting family along a shuffled order of all k-sets."""
    pool = [mask_of(c) for c in combinations(range(1, n + 1), k)]
    rng.shuffle(pool)
    out = []
    for m in pool:
        if len(out) >= target:
            break
        if all(m & o for o in out):
            out.append(m)
    return Family.from_masks(n, out)


def restart_reduction(fam: Family, log: list) -> Family:
    """maximal_reduction's schedule run literally: scan the members largest
    first (then by mask, then by position), apply the first legal deletion of
    a highest label, and start the scan over after every deletion."""
    members = list(fam.members)
    changed = True
    while changed:
        changed = False
        order = sorted(range(len(members)), key=lambda i: (-bin(members[i]).count("1"), members[i]))
        for idx in order:
            m = members[idx]
            if bin(m).count("1") <= 1:
                continue
            for e in sorted(elements_of(m), reverse=True):
                cand = m & ~(1 << (e - 1))
                if all(cand & o for t, o in enumerate(members) if t != idx):
                    members[idx] = cand
                    log.append((m, cand))
                    changed = True
                    break
            if changed:
                break
    out = set(members)
    return Family.from_masks(fam.n, [m for m in out if not any(o != m and o & m == o for o in out)])


def covering_minimal_tau2(fam: Family):
    """minimal_tau2_subfamily's two passes run literally, judging every step
    by brute_tau: pop members off the back while the covering number is
    above 2, then delete in order each member whose removal keeps it at 2.
    Returns (members, pools) with pools[i] the elements of every member but
    members[i], or None when the covering number is at most 1."""
    if brute_tau(fam) <= 1:
        return None
    work = list(fam.members)
    while brute_tau(Family.from_masks(fam.n, work)) > 2:
        work.pop()
    for m in list(work):
        trial = [x for x in work if x != m]
        if brute_tau(Family.from_masks(fam.n, trial)) == 2:
            work = trial
    members = Family.from_masks(fam.n, work).members
    pools = tuple(
        tuple(e for e in range(1, fam.n + 1) if not m >> (e - 1) & 1
              and all(o >> (e - 1) & 1 for o in members if o != m))
        for m in members
    )
    return members, pools


# The census oracle: a level-by-level search that grows labeled families and
# dedups every level with the isomorphism engine.  It shares no enumeration
# with covers.enumerate_minimal_tau2, which counts Venn regions instead, and
# returns the same classes in the order of its search.


def bfs_minimal_tau2(m: int, s: int, intersecting_only: bool = False) -> list[Family]:
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


# Layer-by-layer sums of binomials: the forms the closed-form counts in
# kfam.formulas were derived from by the hockey-stick identity.


def sum_size_c3(n: int, k: int) -> int:
    total = 3 + binom(n - 2, k - 2) - binom(n - k - 2, k - 2)
    for i in range(2, k + 1):
        total += binom(n - i - 1, k - 2) - binom(n - k - i, k - 2)
    return total


def sum_size_f2prime(m: int, s: int, k: int) -> int:
    return sum(binom(m - l, k - 2) - binom(m - s - l, k - 2) for l in range(1, s + 1))


def sum_f_of_z(m: int, s: int, k: int, z: int) -> int:
    total = sum(binom(m - l + 1, k - 2) - binom(m - s - 1, k - 2) for l in range(2, z + 1))
    for l in range(1, s + 2 - z):
        total += binom(m - z - l + 1, k - 2) - binom(m - s - 1 - l, k - 2)
    return total


def sum_fprime3(m: int, s: int, k: int) -> int:
    total = binom(m - 1, k - 2) - binom(m - s - 1, k - 2)
    total += binom(m - 2, k - 2) - binom(m - s - 1, k - 2)
    total += binom(m - 3, k - 2) - binom(m - s - 2, k - 2)
    total += binom(m - 4, k - 2) - binom(m - s - 2, k - 2)
    for l in range(1, s - 3):
        total += binom(m - 4 - l, k - 2) - binom(m - s - 3 - l, k - 2)
    return total


def sum_eqboundc2_layers(n: int, k: int) -> int:
    """The layer sum sum_{i=2}^{k} C(n-k-i, k-2) on the left of eqboundc2."""
    return sum(binom(n - k - i, k - 2) for i in range(2, k + 1))


# The grid oracle: each row of kfam.certify.GRID_CHECKS as its inequality
# reads on paper.  Every point is visited in nesting order, tested against
# the row's hypotheses in list order and compared on its own, from the
# closed forms in kfam.formulas; f-mono takes f(z-1) - f(z) from two f_of_z
# calls.  Nothing is shared between points or lines.


def _g(n: int, k: int, i: int) -> int:
    return i**i * binom(n - i, k - i)


def _nk_points(n_default):
    def points(ov):
        for k in ov.get("k", (100, 120)):
            for n in ov.get("n", n_default(k)):
                yield {"n": n, "k": k}
    return points


def _f_mono_points(ov):
    for k in ov.get("k", range(4, 41)):
        for s in ov.get("s", range(2, k + 1)):
            for m in ov.get("m", range(k + s, k + s + 41)):
                for z in ov.get("z", range(3, s + 2)):
                    yield {"k": k, "s": s, "m": m, "z": z}


def _f3_fprime3_points(ov):
    for k in ov.get("k", range(4, 41)):
        for s in ov.get("s", range(4, k + 1)):
            for m in ov.get("m", range(k + s, k + s + 41)):
                yield {"k": k, "s": s, "m": m}


def _f_mono(p):
    k, s, m, z = p["k"], p["s"], p["m"], p["z"]
    diff = f_of_z(m, s, k, z - 1) - f_of_z(m, s, k, z)
    step = binom(m - s - 2, k - 3)
    return (diff, step), (step, 1), diff >= step and step > 1


def _f3_fprime3(p):
    k, s, m = p["k"], p["s"], p["m"]
    diff = f_of_z(m, s, k, 3) - fprime3(m, s, k)
    target = binom(m - s - 3, k - 3)
    return (diff, target), (target, 1), diff == target and target >= 1


def _eqc3large(p):
    n, k = p["n"], p["k"]
    lhs = size_c3(n, k) * SQRT_E_LO.numerator
    rhs = (k * k - k + 1) * binom(n - 3, k - 3) * SQRT_E_LO.denominator
    return (lhs,), (rhs,), lhs >= rhs


def _eqboundf(p):
    n, k = p["n"], p["k"]
    lhs1, rhs1 = thm1_bound(n, k, 4), 5 * binom(n - 2, k - 2)
    lhs2, rhs2 = 50 * binom(n - 2, k - 2), binom(n - 1, k - 1)
    return (lhs1, lhs2), (rhs1, rhs2), lhs1 <= rhs1 and lhs2 <= rhs2


def _eqboundc2(p):
    n, k = p["n"], p["k"]
    lhs1 = binom(n - k - 2, k - 2) + sum_eqboundc2_layers(n, k)
    rhs1 = binom(n - k, k - 1)
    lhs2, rhs2 = binom(n - 1, k - 1) - 2 * binom(n - k, k - 1), size_c3(n, k)
    return (lhs1, lhs2), (rhs1, rhs2), lhs1 <= rhs1 and lhs2 <= rhs2


def _peel_combine(p):
    n, k = p["n"], p["k"]
    lhs = 3**5 * binom(n - 3, k - 3) + 4**5 * binom(n - 4, k - 4) + 2 * _g(n, k, 5)
    rhs = 250 * binom(n - 3, k - 3)
    return (lhs,), (rhs,), lhs <= rhs


def _final_compare(p):
    k = p["k"]
    lhs1, rhs1 = (k * k - k + 1) * SQRT_E_HI.denominator, 50 * k * SQRT_E_HI.numerator
    lhs2, rhs2 = 50 * k, 4 * k + 250
    return (lhs1, lhs2), (rhs1, rhs2), lhs1 > rhs1 and lhs2 > rhs2


def _two_g5(p):
    lhs, rhs = 2 * _g(p["n"], p["k"], 5), binom(p["n"] - 5, p["k"] - 3)
    return (lhs,), (rhs,), lhs < rhs


def _g_ratio(p):
    lhs, rhs = 2 * _g(p["n"], p["k"], p["i"]), _g(p["n"], p["k"], p["i"] - 1)
    return (lhs,), (rhs,), lhs < rhs


_K4 = ("needs k >= 4", lambda p: p["k"] >= 4)
_K100 = ("needs k >= 100", lambda p: p["k"] >= 100)
_M_KS = ("needs m >= k+s", lambda p: p["m"] >= p["k"] + p["s"])
_BIG = (_K100, ("needs n > 2(k-1)^2", lambda p: p["n"] > 2 * (p["k"] - 1) ** 2))
_big_nk = _nk_points(lambda k: (2 * (k - 1) ** 2 + 1, 3 * (k - 1) ** 2))

# name -> (points of a ranges override, hypotheses in the order tested, comparison)
POINTWISE_ROWS = {
    "f-mono": (_f_mono_points, (_K4, ("needs 2 <= s <= k", lambda p: 2 <= p["s"] <= p["k"]), _M_KS,
                                ("needs 3 <= z <= s+1", lambda p: 3 <= p["z"] <= p["s"] + 1)),
               _f_mono),
    "f3-fprime3": (_f3_fprime3_points,
                   (_K4, ("needs 4 <= s <= k", lambda p: 4 <= p["s"] <= p["k"]), _M_KS), _f3_fprime3),
    "g-ratio": (lambda ov: ({**p, "i": i} for p in _big_nk(ov)
                            for i in ov.get("i", range(6, p["k"] + 1))),
                (*_BIG, ("needs 6 <= i <= k", lambda p: 6 <= p["i"] <= p["k"])), _g_ratio),
    "two-g5": (_big_nk, _BIG, _two_g5),
    "eqc3large": (_big_nk, _BIG, _eqc3large),
    "eqboundf": (_nk_points(lambda k: (50 * (k - 1) + 1, 2 * (k - 1) ** 2)),
                 (_K100, ("needs n >= 50(k-1)+1", lambda p: p["n"] >= 50 * (p["k"] - 1) + 1)),
                 _eqboundf),
    "eqboundc2": (_nk_points(lambda k: (2 * k + 1, 7 * k, 50 * (k - 1))),
                  (_K4, ("needs n > 2k", lambda p: p["n"] > 2 * p["k"])), _eqboundc2),
    "peel-combine": (_big_nk, _BIG, _peel_combine),
    "final-compare": (lambda ov: ({"k": k} for k in ov.get("k", (100, 120))), (_K100,),
                      _final_compare),
}


def pointwise_grid(name: str, ranges: dict | None = None, full: bool = False) -> dict:
    """certify_grid(name, ranges, full).to_json(), computed one point at a
    time: a point that misses a hypothesis is skipped with the reason of the
    first it misses in list order; the others are compared on their own."""
    points, hypotheses, compare = POINTWISE_ROWS[name]
    total = checked = passed = 0
    kept = []
    for p in points(ranges or {}):
        total += 1
        reason = next((reason for reason, holds in hypotheses if not holds(p)), None)
        if reason:
            kept.append({"point": p, "lhs": [], "rhs": [], "pass": False, "skipped": reason})
            continue
        lhs, rhs, ok = compare(p)
        checked += 1
        passed += ok
        if full or not ok:
            kept.append({"point": p, "lhs": list(lhs), "rhs": list(rhs), "pass": ok})
    return {"name": name, "total": total, "checked": checked, "passed": passed,
            "skipped": total - checked, "all_pass": 0 < checked == passed, "points": kept}
