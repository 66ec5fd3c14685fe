"""Outside-in tracing of kfam's layers.

Only the traced run uses this.  install() rebinds the module globals
through which one kfam module calls another (and through which the
benchmark calls kfam), so every call across a layer boundary passes a
wrapper that records a span.  Nothing inside src/ changes.

A span records name, start, end, parent and task id; spans stay in memory
and are reduced to per-layer figures once, at the end.  Leaf helpers
(mask_of, elements_of, binom, ...) are not wrapped: they run millions of
times and would swamp the run.  Once a function passes AGGREGATE_AFTER
calls in one task, its further calls in that task -- and everything they
call -- fold into one aggregate node per (parent, name) that keeps a call
count and summed time, so f_of_z's ~470k calls per grid cost 470k
counter updates, not 470k span records.

Self time of a node is its total time minus the total time of its direct
children (spans and aggregates alike).
"""
from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from types import FunctionType

AGGREGATE_AFTER = 10_000

# Small helpers called from everywhere; wrapping them would measure the
# wrapper, not the layer.
LEAVES = frozenset(
    {"mask_of", "elements_of", "popcount", "full_mask", "binom", "family", "degree"}
)

# Methods reached through an object rather than a module global.
METHODS = (("certify", "GridReport", "to_json"),)


@dataclass
class Node:
    """A span (calls == 1, start/end set) or an aggregate of many calls."""

    id: int
    name: str
    parent: int | None
    task: object
    calls: int = 0
    total_s: float = 0.0
    start: float | None = None
    end: float | None = None
    aggregate: bool = False


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(nodes) -> dict[int, float]:
    """Node id -> total time minus the total time of its direct children."""
    child_total: dict = defaultdict(float)
    for node in nodes:
        if node.parent is not None:
            child_total[node.parent] += node.total_s
    return {node.id: node.total_s - child_total[node.id] for node in nodes}


class Tracer:
    def __init__(self, aggregate_after: int = AGGREGATE_AFTER):
        self.aggregate_after = aggregate_after
        self.nodes: list[Node] = []
        self.task = None
        self.counts: Counter = Counter()
        self._stack: list[Node] = []
        self._calls: Counter = Counter()
        self._aggregates: dict = {}
        self._wrapped: dict = {}
        self._rebound: list = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> Node:
        parent = self._stack[-1] if self._stack else None
        parent_id = parent.id if parent is not None else None
        self._calls[self.task, name] += 1
        if (parent is not None and parent.aggregate) or self._calls[
            self.task, name
        ] > self.aggregate_after:
            key = (self.task, parent_id, name)
            node = self._aggregates.get(key)
            if node is None:
                node = Node(len(self.nodes), name, parent_id, self.task, aggregate=True)
                self._aggregates[key] = node
                self.nodes.append(node)
            return node
        node = Node(len(self.nodes), name, parent_id, self.task)
        self.nodes.append(node)
        return node

    def call(self, fn, name: str, args, kwargs):
        node = self._open(name)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(node)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            node.calls += 1
            node.total_s += t1 - t0
            if not node.aggregate:
                node.start, node.end = t0, t1
        observe = OBSERVERS.get(name)
        if observe is not None:
            observe(self.counts, args, result, parent.name if parent else None)
        return result

    def wrap(self, fn: FunctionType, name: str):
        wrapped = self._wrapped.get(fn)
        if wrapped is None:

            @functools.wraps(fn)
            def wrapped(*args, **kwargs):
                return self.call(fn, name, args, kwargs)

            self._wrapped[fn] = wrapped
        return wrapped

    def install(self, modules: dict) -> None:
        """Rebind every public kfam function held as a module global, in the
        module that defines it and in every module that imports it."""
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if (
                    isinstance(value, FunctionType)
                    and value.__module__.startswith("kfam.")
                    and not value.__name__.startswith("_")
                    and value.__name__ not in LEAVES
                ):
                    name = f"{value.__module__.split('.', 1)[1]}.{value.__name__}"
                    self._rebind(module, attr, name)
        for mod, cls, meth in METHODS:
            if mod in modules:
                self._rebind(getattr(modules[mod], cls), meth, f"{mod}.{cls}.{meth}")

    def _rebind(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        self._rebound.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name))

    def uninstall(self) -> None:
        """Put back every original binding."""
        for owner, attr, original in reversed(self._rebound):
            setattr(owner, attr, original)
        self._rebound.clear()

    # -- reduction ---------------------------------------------------------

    def summary(self) -> dict:
        """Calls and self time per function name and per layer."""
        selfs = self_times(self.nodes)
        calls: Counter = Counter()
        self_s: Counter = Counter()
        total_s: Counter = Counter()
        for node in self.nodes:
            for key in (node.name, layer_of(node.name)):
                calls[key] += node.calls
                self_s[key] += selfs[node.id]
            total_s[node.name] += node.total_s
        return {"calls": calls, "self_s": self_s, "total_s": total_s}


# Counters read off arguments and results at the boundary: name ->
# fn(counts, args, result, parent_name).


def _search(counts, args, res, parent):
    counts["search.nodes_explored"] += res.nodes_explored
    counts["search.pruned"] += res.pruned


def _dedup(counts, args, res, parent):
    size = len(args[0])
    counts["families.dedup.in"] += size
    counts["families.dedup.out"] += len(res)
    if parent == "search.max_intersecting_tau":
        counts["search.labeled_optima"] += size


def _cover(counts, args, res, parent):
    counts["covers.covering_number.nodes"] += res.explored_nodes


def _census(counts, args, res, parent):
    counts["covers.census_classes"] += len(res)


def _grid(counts, args, report, parent):
    counts["certify.points"] += len(report.points)
    counts["certify.skipped"] += report.n_skipped


def _built(counts, args, fam, parent):
    counts["constructions.members_built"] += len(fam.members)


def _exchange(counts, args, res, parent):
    counts["switching.exchanges"] += 1


def _pipeline(counts, args, res, parent):
    counts["switching.pipelines"] += 1
    counts["switching.converged"] += res.converged


def _peel(counts, args, trace, parent):
    counts["spread.reductions"] += len(trace.reduction_log)


def _shift(counts, args, out, parent):
    counts["shifting.shifts"] += 1
    counts["shifting.changed"] += out != args[0]


OBSERVERS = {
    "search.max_intersecting_tau": _search,
    "families.dedup_isomorphism_classes": _dedup,
    "covers.covering_number": _cover,
    "covers.enumerate_minimal_tau2": _census,
    "certify.certify_grid": _grid,
    "switching.exchange_Gi": _exchange,
    "switching.exchange_transversal": _exchange,
    "switching.switch_pipeline": _pipeline,
    "spread.peel": _peel,
    "shifting.shift_family": _shift,
    **{
        f"constructions.{name}": _built
        for name in ("c3", "cross_closure", "full_star", "hilton_milner", "t2", "t2prime")
    },
}
