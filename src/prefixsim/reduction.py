"""Running prefix-model algorithms against interval-conditional oracles.

The domain {1..N} is laid out on a balanced binary tree of depth
ceil(log2 N): element e gets the code binary(e - 1), zero-padded on the left.
Every tree node then holds a contiguous interval of elements (possibly empty,
for padding codes beyond N), so a prefix condition over the codes corresponds
to an interval condition over the elements, and any prefix-model algorithm
can be executed against an interval oracle draw for draw.

With positive weights, a simulation run through the adapter is bit-identical
to one over the encoded tree for every N: where padding clips a prefix's
interval into one child, the native draw consumes fewer uniforms, but the
first free bit, the only one an edge estimate reads, is forced on both
routes.  A zero weight breaks this: with weights [1, 0, 0] the encoded tree
draws under the zero-mass prefix '1' by the uniform convention, while the
native oracle returns element 3, so the two simulations do not couple.

No separate adapter exists for subcube-conditional oracles: a prefix
condition is already a subcube condition, so prefix-model algorithms run
against them as-is.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bits import PrefixLike, as_prefix
from .oracles import PrefixOracle, SampleBudget
from .streams import RandomStream
from .trees import TableMarginalTree


@dataclass(frozen=True)
class IntervalAdapter:
    """Element e of {1..N} has the depth-l code e - 1; prefixes map to element intervals.

    Padding codes (values N..2^l - 1) sit at the top of the code range, so
    the elements of every node form a contiguous interval.
    """

    size: int
    depth: int

    def prefix_interval(self, w: PrefixLike) -> tuple[int, int] | None:
        """Inclusive element interval {a..b} matching the prefix w, or None."""
        wp = as_prefix(self.depth, w)
        shift = self.depth - wp.depth
        lo, hi = wp.index << shift, (wp.index + 1) << shift
        if lo >= self.size:
            return None
        return lo + 1, min(hi, self.size)


def interval_breakdown(n_elements: int) -> IntervalAdapter:
    """Balanced interval splits of {1..N} with padding at the highest codes."""
    if n_elements < 1:
        raise ValueError("domain must have at least one element")
    depth = max(1, (n_elements - 1).bit_length())
    return IntervalAdapter(n_elements, depth)


def _split_fractions(cum: np.ndarray, n_elements: int, depth: int, level: int,
                     idx, a: int, b: int):
    """Probability of stepping right at each node, restricted to codes [a, b).

    Works elementwise on an index array.  Edges toward a side holding no
    elements of [a, b) are forced (probability 0 into emptiness); a node
    whose restriction carries zero mass but elements on both sides splits
    uniformly, realizing the zero-mass conditioning convention.
    """
    idx = np.asarray(idx, dtype=np.int64)
    span = 1 << (depth - level)
    lo = idx * span
    mid = lo + span // 2
    hi = lo + span
    elem_cap = min(b, n_elements)
    left_has = np.maximum(lo, a) < np.minimum(mid, elem_cap)
    right_has = np.maximum(mid, a) < np.minimum(hi, elem_cap)
    lmass = cum[np.minimum(mid, b)] - cum[np.maximum(lo, a)]
    rmass = cum[np.minimum(hi, b)] - cum[np.maximum(mid, a)]
    total = lmass + rmass
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(total > 0.0, rmass / np.where(total > 0.0, total, 1.0), 0.5)
    f = np.where(~right_has, 0.0, np.where(~left_has, 1.0, ratio))
    return f


def _cumulative_weights(weights, depth: int) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size < 1:
        raise ValueError("weights must be a non-empty 1-d sequence")
    if np.any(w < 0.0):
        raise ValueError("weights must be non-negative")
    if not w.sum() > 0.0:
        raise ValueError("weights must have positive total mass")
    cum = np.zeros((1 << depth) + 1)
    cum[1 : w.size + 1] = np.cumsum(w)
    cum[w.size + 1 :] = cum[w.size]
    return cum


def encoded_marginal_tree(weights) -> TableMarginalTree:
    """The marginal tree over codes representing a weight vector on {1..N}.

    Padding codes receive edge probability 0, so their mass is exactly zero
    and the element masses equal weight / total under the bijection.
    """
    n_elements = len(weights)
    adapter = interval_breakdown(n_elements)
    cum = _cumulative_weights(weights, adapter.depth)
    full = 1 << adapter.depth
    levels = []
    for level in range(adapter.depth):
        idx = np.arange(1 << level, dtype=np.int64)
        levels.append(_split_fractions(cum, n_elements, adapter.depth, level, idx, 0, full))
    return TableMarginalTree(adapter.depth, levels)


def exact_encoded_masses(weights) -> list:
    """Per-code masses of the encoded tree in exact rational arithmetic.

    Multiplies the same forced-edge split ratios as the float builder, but
    over Fractions, so the telescoping to weight / total is exact: code
    masses equal the native element masses under the bijection and
    padding codes get exactly zero.  Supported up to depth 16.
    """
    from fractions import Fraction

    n_elements = len(weights)
    adapter = interval_breakdown(n_elements)
    if adapter.depth > 16:
        raise ValueError("exact mass check supported up to depth 16")
    cum = [Fraction(0)]
    for w in weights:
        f = Fraction(w)
        if f < 0:
            raise ValueError("weights must be non-negative")
        cum.append(cum[-1] + f)
    total_codes = 1 << adapter.depth
    cum.extend([cum[-1]] * (total_codes - n_elements))
    if cum[-1] <= 0:
        raise ValueError("weights must have positive total mass")

    masses = [Fraction(1)]
    for level in range(adapter.depth):
        span = 1 << (adapter.depth - level)
        nxt = []
        for idx, node_mass in enumerate(masses):
            lo = idx * span
            mid = lo + span // 2
            hi = lo + span
            left_has = lo < min(mid, n_elements)
            right_has = mid < min(hi, n_elements)
            lmass = cum[mid] - cum[lo]
            rmass = cum[hi] - cum[mid]
            total = lmass + rmass
            if not right_has:
                f = Fraction(0)
            elif not left_has:
                f = Fraction(1)
            elif total > 0:
                f = rmass / total
            else:
                f = Fraction(1, 2)
            nxt.append(node_mass * (1 - f))
            nxt.append(node_mass * f)
        masses = nxt
    return masses


class TableIntervalOracle:
    """Interval-conditional oracle over {1..N} for an explicit weight vector.

    Draws descend the balanced splits of the requested interval, one uniform
    per level below the interval's lowest common ancestor node.
    """

    def __init__(self, weights):
        self.size = len(weights)
        self.depth = interval_breakdown(self.size).depth
        self._cum = _cumulative_weights(weights, self.depth)
        self.calls = 0

    def draw_batch(self, a_elem: int, b_elem: int, m: int, rng: RandomStream) -> np.ndarray:
        """m draws conditioned on the inclusive element interval {a..b}."""
        if not 1 <= a_elem <= b_elem <= self.size:
            raise ValueError(f"interval must satisfy 1 <= a <= b <= {self.size}")
        if m < 1:
            raise ValueError("batch size must be positive")
        self.calls += m
        a, b = a_elem - 1, b_elem
        lca_depth = self.depth if a == b - 1 else self.depth - (a ^ (b - 1)).bit_length()
        if lca_depth == self.depth:
            return np.full(m, a_elem, dtype=np.int64)
        u = rng.random((m, self.depth - lca_depth))
        idx = np.full(m, a >> (self.depth - lca_depth), dtype=np.int64)
        for t in range(self.depth - lca_depth):
            f = _split_fractions(self._cum, self.size, self.depth, lca_depth + t, idx, a, b)
            idx = (idx << 1) + (u[:, t] < f)
        return idx + 1


class AdaptedPrefixOracle(PrefixOracle):
    """Prefix oracle over codes answering each prefix of a draw with one native interval draw.

    A prefix whose cylinder holds no element (pure padding) cannot be
    conditioned on natively; such draws return the uniform-over-cylinder
    convention result without consulting the native oracle.
    """

    def __init__(self, adapter: IntervalAdapter, native: TableIntervalOracle,
                 budget: SampleBudget | None = None):
        if getattr(native, "size", adapter.size) != adapter.size:
            raise ValueError("native oracle and adapter disagree on the domain size")
        super().__init__(adapter.depth, budget)
        self.adapter = adapter
        self.native = native

    def conditional_sample_batch(self, prefixes: np.ndarray, m: int,
                                 rngs: Sequence[RandomStream]) -> np.ndarray:
        """One native draw of m elements per prefix, from the prefix's stream."""
        prefixes = self._validated(prefixes, m, rngs)
        free = self.n - prefixes.shape[1]
        out = np.empty((len(prefixes) * m, free), dtype=np.uint8)
        shifts = np.arange(free - 1, -1, -1)
        for j, (w, rng) in enumerate(zip(prefixes.tolist(), rngs)):
            rows = out[j * m:(j + 1) * m]
            interval = self.adapter.prefix_interval(w)
            if interval is None:
                rows[:] = rng.random((m, free)) < 0.5
            else:
                codes = self.native.draw_batch(interval[0], interval[1], m, rng) - 1
                rows[:] = (codes[:, None] >> shifts) & 1
        return self._charge(prefixes, m, out)
