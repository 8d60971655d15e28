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

The adapted oracle answers a multi-prefix draw with one native draw, one
stream per interval, whose rows all descend the code tree together.

mass_preserved checks exactly that the encoded tree gives every code its
element's mass weight / total and every padding code zero: the float
weights are dyadic, so the builder's split ratios multiply out in integers.

No separate adapter exists for subcube-conditional oracles: a prefix
condition is already a subcube condition, so prefix-model algorithms run
against them as-is.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

import numpy as np

from .bits import code_rows
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

    def element_bounds(self, depth: int, index) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Inclusive element bounds {a..b} of the depth-`depth` prefixes with the given indexes.

        Returns arrays (a, b, padding); where padding is set the prefix holds
        no element (pure padding codes) and its a, b are not an interval.
        """
        index = np.asarray(index, dtype=np.int64)
        if not 0 <= depth < self.depth or ((index < 0) | (index >= 1 << depth)).any():
            raise ValueError(f"need indexes of prefixes of a depth below {self.depth}")
        shift = self.depth - depth
        lo = index << shift
        return lo + 1, np.minimum((index + 1) << shift, self.size), lo >= self.size


def interval_breakdown(n_elements: int) -> IntervalAdapter:
    """Balanced interval splits of {1..N} with padding at the highest codes."""
    if n_elements < 1:
        raise ValueError("domain must have at least one element")
    depth = max(1, (n_elements - 1).bit_length())
    return IntervalAdapter(n_elements, depth)


def _split_fractions(cum: np.ndarray, n_elements: int, depth: int, level: int, idx, a, b):
    """Probability of stepping right at each node, restricted to codes [a, b).

    Works elementwise on an index array, with a and b scalars or arrays of
    one interval per node.  Edges toward a side holding no elements of
    [a, b) are forced (probability 0 into emptiness); a node whose
    restriction carries zero mass but elements on both sides splits
    uniformly, realizing the zero-mass conditioning convention.
    """
    idx = np.asarray(idx, dtype=np.int64)
    span = 1 << (depth - level)
    lo = idx * span
    mid = lo + span // 2
    hi = lo + span
    elem_cap = np.minimum(b, n_elements)
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


def mass_preserved(weights) -> bool:
    """Whether the encoded tree gives code e - 1 exactly weight_e / total and every padding code 0.

    Multiplies the float builder's split ratios, with its forced-edge rules,
    in exact integer arithmetic.  Every float weight is dyadic, so over
    their common power-of-two denominator the weights and their cumulative
    sums are integers.  A node's mass is kept as an unnormalized pair
    num / den, and each code's is compared with its element's weight by
    cross-multiplication: num * total == weight * den.
    """
    ratios = [float(w).as_integer_ratio() for w in weights]
    n_elements = len(ratios)
    depth = interval_breakdown(n_elements).depth
    scale = max(q for _, q in ratios)
    ints = [p * (scale // q) for p, q in ratios]
    if min(ints) < 0:
        raise ValueError("weights must be non-negative")
    cum = [0, *accumulate(ints)]
    total = cum[-1]
    if total == 0:
        raise ValueError("weights must have positive total mass")
    cum += [total] * ((1 << depth) - n_elements)

    masses = [(1, 1)]
    for level in range(depth):
        span = 1 << (depth - level)
        nxt = []
        for idx, (num, den) in enumerate(masses):
            lo = idx * span
            mid = lo + span // 2
            hi = lo + span
            lmass = cum[mid] - cum[lo]
            rmass = cum[hi] - cum[mid]
            if not mid < min(hi, n_elements):        # f = 0: no element right
                nxt += [(num, den), (0, den)]
            elif not lo < min(mid, n_elements):      # f = 1: no element left
                nxt += [(0, den), (num, den)]
            elif lmass + rmass > 0:                 # f = rmass / total
                split = den * (lmass + rmass)
                nxt += [(num * lmass, split), (num * rmass, split)]
            else:                                   # f = 1/2 at zero mass
                nxt += [(num, 2 * den)] * 2
        masses = nxt
    weight = ints + [0] * (len(masses) - n_elements)
    return all(num * total == w * den for (num, den), w in zip(masses, weight))


class TableIntervalOracle:
    """Interval-conditional oracle over {1..N} for an explicit weight vector.

    A draw descends the balanced splits of the requested interval, one
    uniform per level below the interval's lowest common ancestor (LCA)
    node.  One call draws under many intervals, one stream per interval:
    every interval's rows descend the tree together, one level at a time.
    """

    def __init__(self, weights):
        self.size = len(weights)
        self.depth = interval_breakdown(self.size).depth
        self._cum = _cumulative_weights(weights, self.depth)
        self.calls = 0

    def draw_batch(self, a_elem, b_elem, m: int, rngs: Sequence[RandomStream]) -> np.ndarray:
        """m draws under each inclusive element interval {a_j..b_j}, shape (k * m,) int64.

        Rows j * m to (j + 1) * m are interval j's: rngs[j] gives one
        (m, levels below the LCA) uniform block, none when a_j == b_j, so
        they are exactly what a draw of that interval alone gives.
        """
        a, b = np.asarray(a_elem, dtype=np.int64) - 1, np.asarray(b_elem, dtype=np.int64)
        if (a.ndim != 1 or a.shape != b.shape or len(rngs) != len(a)
                or not ((0 <= a) & (a < b) & (b <= self.size)).all()):
            raise ValueError(f"need intervals with 1 <= a <= b <= {self.size} and a stream per interval")
        if m < 1:
            raise ValueError("batch size must be positive")
        self.calls += m * len(rngs)
        # codes [a, b); levels below each LCA: the bit length of a ^ (b - 1), frexp's exponent
        below = np.frexp(a ^ (b - 1))[1]
        levels = int(below.max(initial=0))
        # rows are aligned on the last level; above its LCA a row's splits are
        # forced (f is 0 or 1), so its zero uniforms there take the forced side
        u = np.zeros((len(rngs) * m, levels))
        for j, (rng, t) in enumerate(zip(rngs, below.tolist())):
            u[j * m:(j + 1) * m, levels - t:] = rng.random((m, t))
        a, b = np.repeat(a, m), np.repeat(b, m)
        idx = a >> levels
        for t in range(levels):
            f = _split_fractions(self._cum, self.size, self.depth, self.depth - levels + t, idx, a, b)
            idx = (idx << 1) + (u[:, t] < f)
        return idx + 1


class AdaptedPrefixOracle(PrefixOracle):
    """An oracle over codes that answers each prefix draw with one native draw, one stream per interval.

    A prefix whose cylinder holds no element (pure padding) cannot be
    conditioned on natively; its rows are the uniform-over-cylinder
    convention result from its own stream, drawn without the native oracle.
    """

    def __init__(self, adapter: IntervalAdapter, native: TableIntervalOracle,
                 budget: SampleBudget | None = None):
        if native.size != adapter.size:
            raise ValueError("native oracle and adapter disagree on the domain size")
        super().__init__(adapter.depth, budget)
        self.adapter = adapter
        self.native = native

    def conditional_sample_batch(self, prefixes: np.ndarray, m: int,
                                 rngs: Sequence[RandomStream]) -> np.ndarray:
        """m elements per prefix: one native draw for every non-padding prefix, each from its own stream."""
        prefixes = self._validated(prefixes, m, rngs)
        k, depth = prefixes.shape
        free = self.n - depth
        a, b, padding = self.adapter.element_bounds(depth, prefixes @ (1 << np.arange(depth - 1, -1, -1)))
        out = np.empty((k * m, free), dtype=np.uint8)
        live = np.flatnonzero(~padding)
        codes = self.native.draw_batch(a[live], b[live], m, [rngs[j] for j in live]) - 1
        out[np.repeat(~padding, m)] = code_rows(codes, free)
        for j in np.flatnonzero(padding):
            out[j * m:(j + 1) * m] = rngs[j].random((m, free)) < 0.5
        return self._charge(prefixes, m, out)
