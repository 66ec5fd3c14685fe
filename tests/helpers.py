"""Shared oracles and family generators for the test suite.

The oracles here are deliberately naive (exhaustive subset scans, full
permutation orbits) so they are correct by inspection and independent of
the implementations under test.
"""
from __future__ import annotations

import random
from itertools import combinations, permutations

from kfam.families import Family, elements_of, mask_of
from kfam.formulas import binom


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
