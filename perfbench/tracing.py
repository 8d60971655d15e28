"""Per-layer tracing for the benchmark's traced run.

The layers are prefixsim's modules.  A tracer wraps, from outside the
package, the public functions and methods each module defines, at every name
a caller looks them up by: modules import by name, so ``estimate_tv`` is
wrapped as ``prefixsim.cli.estimate_tv`` as well as in ``prefixsim.distance``.
Each call of a wrapper records a span (id, parent id, layer, start, end); the
spans of one op stay in memory until the op ends and are then reduced to per
layer self time and call counts.  The wrappers are installed only around a
traced op and restored afterwards; ``is_clean`` checks by identity that none
is left.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import itertools
import sys
from collections import Counter
from dataclasses import dataclass
from time import perf_counter

import workloads  # noqa: F401  (puts the checkout's src/ first on sys.path)
from prefixsim.hardness import SignMarginalTree

LAYERS = ("cli", "distance", "simulation", "oracles", "streams", "trees", "bits",
          "reduction", "hardness", "divergence_lab", "adhoc")

# Methods of these classes run once per element or per row and level (value
# objects, and the sign-tree walker steps inside TreeOracle's draw loop);
# wrapping them would cost more than the work they do, so their time stays
# with the caller.
UNWRAPPED_CLASSES = {"prefixsim.bits.BitString", "prefixsim.bits.Prefix",
                     "prefixsim.trees.MarginalWalker"}


def _count_draw_block(counts, args, block):
    # block is the (rows, free) result; its float64 uniform block had the same shape
    counts["oracles.rows"] += block.shape[0]
    counts["oracles.block_bytes_max"] = max(counts["oracles.block_bytes_max"], block.size * 8)
    if isinstance(getattr(args[0], "tree", None), SignMarginalTree):
        counts["hardness.walk_steps"] += block.size


def _count_edge(counts, args, result):
    counts["simulation.edges_estimated"] += 1


def _count_query(counts, args, result):
    counts["simulation.edge_lookups"] += args[0].n


def _count_sample(counts, args, result):
    counts["simulation.edge_lookups"] += 2 * args[0].n


def _count_pairs(counts, args, result):
    counts["distance.pairs"] += result.pairs_per_round * result.rounds


def _count_native(counts, args, result):
    counts["reduction.native_rows"] += len(result)


def _count_instances(counts, args, result):
    counts["divergence_lab.instances"] += sum(r.instances for r in result)


def _count_index_draws(counts, args, result):
    counts["adhoc.index_draws"] += result.loop_count


#: Work counters, keyed by the qualified name of the function they watch.
COUNTERS = {
    "prefixsim.oracles.TreeOracle.conditional_sample_batch": _count_draw_block,
    "prefixsim.reduction.AdaptedPrefixOracle.conditional_sample_batch": _count_draw_block,
    "prefixsim.simulation.est_simulation_edge": _count_edge,
    "prefixsim.simulation.LazySimulation.query": _count_query,
    "prefixsim.simulation.LazySimulation.sample": _count_sample,
    "prefixsim.distance.estimate_tv": _count_pairs,
    "prefixsim.reduction.TableIntervalOracle.draw_batch": _count_native,
    "prefixsim.divergence_lab.run_lemma_sweep": _count_instances,
    "prefixsim.adhoc.run_ad_hoc_tester": _count_index_draws,
}


@dataclass(frozen=True)
class Target:
    owner: object      # module or class whose namespace holds the binding
    name: str
    original: object
    layer: int


def _qualname(fn) -> str:
    return f"{fn.__module__}.{fn.__qualname__}"


def discover_targets(package: str = "prefixsim") -> list[Target]:
    """Every binding of a public function or method defined in a layer module."""
    modules = [m for name, m in sorted(sys.modules.items())
               if name == package or name.startswith(package + ".")]
    targets = []
    for layer, layer_name in enumerate(LAYERS):
        module = importlib.import_module(f"{package}.{layer_name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                targets += [Target(m, bound, obj, layer)
                            for m in modules for bound, value in vars(m).items() if value is obj]
            elif inspect.isclass(obj) and _qualname(obj) not in UNWRAPPED_CLASSES:
                targets += [Target(obj, attr, value, layer)
                            for attr, value in vars(obj).items()
                            if not attr.startswith("_") and inspect.isfunction(value)]
    missing = set(COUNTERS) - {_qualname(t.original) for t in targets}
    if missing:
        raise LookupError(f"counted functions not found in {package}: {sorted(missing)}")
    return targets


class Tracer:
    """Span recorder for one traced run; install it only around traced ops."""

    def __init__(self):
        self.targets = discover_targets()
        self.spans: list[tuple[int, int, int, float, float]] = []
        self.counts: Counter = Counter()
        self._stack = [0]
        self._ids = itertools.count(1)
        self._wrappers = {}
        for t in self.targets:
            if t.original not in self._wrappers:
                self._wrappers[t.original] = self._wrap(
                    t.original, t.layer, COUNTERS.get(_qualname(t.original)))

    def _wrap(self, fn, layer: int, counter):
        stack, next_id, tracer = self._stack, self._ids.__next__, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next_id()
            parent = stack[-1]
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans.append((sid, parent, layer, start, end))
            if counter is not None:
                counter(tracer.counts, args, result)
            return result

        return traced

    def is_clean(self) -> bool:
        """True when every traced name is bound to its original function."""
        return all(vars(t.owner).get(t.name) is t.original for t in self.targets)

    @contextlib.contextmanager
    def active(self):
        """Install the wrappers for the duration of the block, then restore."""
        try:
            for t in self.targets:
                setattr(t.owner, t.name, self._wrappers[t.original])
            yield self
        finally:
            for t in self.targets:
                setattr(t.owner, t.name, t.original)

    def take(self) -> tuple[list, Counter]:
        """The spans and counts recorded since the last take, clearing both."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        return spans, counts


def layer_table(spans) -> tuple[list[float], list[int]]:
    """Self seconds and entering calls per layer for the spans of one op.

    ``spans`` holds (id, parent id, layer index, start, end); parent 0 is the
    op itself.  A span's self time is its duration minus the part of its
    interval that its child spans cover.  A call enters a layer when its
    parent span belongs to another layer (or is the op).
    """
    children: dict[int, list[tuple[float, float]]] = {}
    layer_of = {0: None}
    for sid, parent, layer, start, end in spans:
        children.setdefault(parent, []).append((start, end))
        layer_of[sid] = layer
    self_s = [0.0] * len(LAYERS)
    calls = [0] * len(LAYERS)
    for sid, parent, layer, start, end in spans:
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        self_s[layer] += end - start - covered
        if layer_of[parent] != layer:
            calls[layer] += 1
    return self_s, calls
