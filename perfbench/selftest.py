"""Self-tests of the benchmark itself (not of kfam).

    python3 perfbench/selftest.py

Checks that task lists are a pure function of the seed, that a wrong
answer or an exception is counted as failed, that the tracer's self time
is right on a hand-built span tree and on live calls, that the oracle's
closed forms and isomorphism keys agree with brute force, and that the
recorded (6,3,3) constants re-derive from scratch.
"""
from __future__ import annotations

import random
import shutil
import sys
import unittest
from itertools import combinations, permutations
from pathlib import Path
from types import SimpleNamespace

import oracle as O
import run as R
import workloads as W
from tracer import Node, Tracer, self_times

sys.path.insert(0, str(R.ROOT / "src"))


class Seeds(unittest.TestCase):
    def test_same_seed_same_tasks(self):
        for build in (W.classes_tasks, W.clique_tasks, W.grid_tasks):
            self.assertEqual(build(1), build(1))
        for build in (W.classes_tasks, W.clique_tasks):
            self.assertNotEqual(build(1), build(2))

    def test_same_seed_same_session(self):
        workdir = R.WORKDIR / "selftest"
        k = R.import_kfam()
        try:
            runs = []
            for seed in (1, 1, 2):
                shutil.rmtree(workdir, ignore_errors=True)
                tasks = W.session_tasks(seed, k, workdir)
                files = {p.name: p.read_text() for p in sorted(workdir.iterdir())}
                runs.append((tasks, files))
        finally:
            shutil.rmtree(R.WORKDIR, ignore_errors=True)
        self.assertEqual(runs[0], runs[1])
        self.assertNotEqual(runs[0], runs[2])
        self.assertGreaterEqual(len(runs[0][0]), 100)


class Verdicts(unittest.TestCase):
    def test_planted_wrong_expectation_fails(self):
        k = R.import_kfam()
        right = W.Task("cnkt", (7, 3, 3, False, 5), (("optimum", 10),))
        planted = W.Task("cnkt", (7, 3, 3, False, 5), (("optimum", 11),))
        census = W.Task("census", (6, 3), (("classes", 5),))
        tasks = [right, planted, census]
        _, _, answers = R.run_pass(k, tasks)
        self.assertEqual(R.judge(tasks, answers), 2)
        self.assertEqual(W.check(right, answers[0][0]), [])

    def test_exception_counts_as_failed(self):
        k = R.import_kfam()
        tasks = [W.Task("cnkt", (3, 5, 1, False, 0), (("optimum", 0),))]
        _, _, answers = R.run_pass(k, tasks)
        self.assertIsNotNone(answers[0][1])
        self.assertEqual(R.judge(tasks, answers), 1)

    def test_wrong_cli_answer_fails(self):
        k = R.import_kfam()
        task = W.Task("cli", ("verify", "grid", "--name", "final-compare", "--jobs", "1"), (("points", 3),))
        _, _, answers = R.run_pass(k, [task])
        self.assertEqual(R.judge([task], answers), 1)


class SelfTime(unittest.TestCase):
    def test_hand_built_tree(self):
        nodes = [
            Node(0, "cli.run", None, 0, 1, 10.0, 0.0, 10.0),
            Node(1, "search.max_intersecting_tau", 0, 0, 1, 3.0, 1.0, 4.0),
            Node(2, "covers.enumerate_minimal_tau2", 0, 0, 1, 4.0, 5.0, 9.0),
            Node(3, "families.canonical_form", 2, 0, 1, 1.0, 6.0, 7.0),
            Node(4, "families.are_isomorphic", 2, 0, 100, 0.5, aggregate=True),
            Node(5, "families.iso_signature", 4, 0, 300, 0.2, aggregate=True),
        ]
        got = self_times(nodes)
        want = {0: 3.0, 1: 3.0, 2: 2.5, 3: 1.0, 4: 0.3, 5: 0.2}
        for node_id, value in want.items():
            self.assertAlmostEqual(got[node_id], value)
        self.assertAlmostEqual(sum(got.values()), nodes[0].total_s)

    def test_live_wrapping_and_aggregation(self):
        def leaf(x):
            return x + 1

        def middle(n):
            return sum(mod.leaf(i) for i in range(n))

        def top(n):
            return mod.middle(n)

        for fn in (leaf, middle, top):
            fn.__module__ = "kfam.toy"
        mod = SimpleNamespace(leaf=leaf, middle=middle, top=top)
        tracer = Tracer(aggregate_after=3)
        tracer.install({"toy": mod})
        tracer.task = 0
        self.assertEqual(mod.top(5), 15)
        tracer.uninstall()
        self.assertIs(mod.leaf, leaf)
        summary = tracer.summary()
        self.assertEqual(summary["calls"]["toy.leaf"], 5)
        self.assertEqual(summary["calls"]["toy"], 7)
        spans = [n for n in tracer.nodes if n.name == "toy.leaf"]
        self.assertEqual([n.aggregate for n in spans], [False, False, False, True])
        self.assertEqual(spans[-1].calls, 2)
        total = next(n.total_s for n in tracer.nodes if n.name == "toy.top")
        self.assertAlmostEqual(summary["self_s"]["toy"], total, places=9)


class Oracle(unittest.TestCase):
    def _c3_brute(self, n, k):
        tail = O.mask(range(k + 2, 2 * k + 1))
        bases = (O.mask(range(2, k + 2)), tail | 2, tail | 4)
        through_one = sum(
            1 for c in combinations(range(2, n + 1), k - 1) if O.hits_all(O.mask(c), bases)
        )
        return 3 + through_one

    def test_c3_size(self):
        for k in (3, 4, 5):
            for n in range(2 * k, 2 * k + 6):
                self.assertEqual(O.c3_size(n, k), self._c3_brute(n, k), (n, k))

    def test_pairing_shapes(self):
        for s in (3, 4):
            for m in range(2 * s, 2 * s + 4):
                for r in (2, 3, 4):
                    self.assertEqual(O.meets_t2(m, s, r), O.brute_hitcount(m, O.t2_members(s), r))
                    self.assertEqual(O.meets_blocks(m, s, r), O.brute_hitcount(m, O.t2prime_members(s), r))

    def test_grid_points(self):
        f_mono = sum(s - 1 for k in range(4, 41) for s in range(2, k + 1) for _ in range(41))
        f3 = sum(1 for k in range(4, 41) for s in range(4, k + 1) for _ in range(41))
        self.assertEqual(O.grid_points("f-mono"), f_mono)
        self.assertEqual(O.grid_points("f3-fprime3"), f3)
        self.assertEqual(O.grid_points("g-ratio"), sum(2 * len(range(6, k + 1)) for k in (100, 120)))

    def test_venn_key_matches_relabeling(self):
        rng = random.Random(3)
        n = 6
        for _ in range(60):
            a = tuple(sorted({rng.randrange(1, 1 << n) for _ in range(rng.randint(1, 4))}))
            perm = list(range(n))
            rng.shuffle(perm)
            b = tuple(sorted(sum(1 << perm[e] for e in range(n) if m >> e & 1) for m in a))
            self.assertEqual(O.venn_key(n, a), O.venn_key(n, b))
            c = tuple(sorted({rng.randrange(1, 1 << n) for _ in range(len(a))}))
            same = O.perm_key(n, a) == O.perm_key(n, c)
            self.assertEqual(O.venn_key(n, a) == O.venn_key(n, c), same)

    def test_recorded_633(self):
        """c(6,3,3) and its class count from scratch: one set from each of
        the ten complementary pairs, orbits under S_6."""
        n = 6
        triples = [O.mask(c) for c in combinations(range(1, n + 1), 3)]
        full = (1 << n) - 1
        pairs = [(t, full ^ t) for t in triples if t < full ^ t]
        optima = set()
        for choice in range(1 << len(pairs)):
            fam = tuple(sorted(p[choice >> i & 1] for i, p in enumerate(pairs)))
            if O.brute_tau(n, fam) >= 3:
                optima.add(fam)
        relabel = [
            {t: sum(1 << perm[e] for e in range(n) if t >> e & 1) for t in triples}
            for perm in permutations(range(n))
        ]
        orbits, seen = 0, set()
        for fam in optima:
            if fam in seen:
                continue
            orbits += 1
            seen.update(tuple(sorted(r[t] for t in fam)) for r in relabel)
        want = O.RECORDED["cnkt-all", 6, 3, 3]
        self.assertTrue(optima)
        self.assertTrue(all(O.is_intersecting(f) for f in optima))
        self.assertEqual({"optimum": 10, "classes": orbits}, want)


if __name__ == "__main__":
    unittest.main()
