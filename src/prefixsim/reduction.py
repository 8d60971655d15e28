"""Running prefix-model algorithms against interval-conditional oracles.

The domain {1..N} is laid out on a balanced binary tree of depth
code_depth(N) = ceil(log2 N), at least 1: element e gets the code
binary(e - 1), zero-padded on the left.  Every tree node then holds a
contiguous interval of elements (possibly empty, for padding codes beyond
N), which element_bounds computes from N alone, so a prefix condition over
the codes corresponds to an interval condition over the elements, and any
prefix-model algorithm can be executed against an interval oracle draw for
draw.

The encoded tree, EncodedMarginalTree(weights), is a lazy marginal tree over
the codes, each split computed from the N + 1 cumulative sums of the weights
when a walk reaches it; the native oracle, TableIntervalOracle(weights),
keeps that tree and draws with the same split rule (_split_fractions).

For every weight vector with a positive finite total, a simulation run
through the adapted oracle is bit-identical to one over the encoded tree
for every N, because both routes walk the code tree's own splits: where
padding clips a prefix's interval into one child, the native draw consumes
fewer uniforms, but the first free bit, the only one an edge estimate
reads, is forced on both routes; a zero-mass node with elements on both
sides splits 1/2 on both; and a pure-padding prefix's rows are 0 on both.

The adapted oracle, AdaptedPrefixOracle(native), takes N and the depth from
its native oracle.  It answers a multi-prefix draw with one native draw, one
stream per interval, that descends only the levels returned (all when
hooked, as the transcript records whole rows), reading the first split of
each interval once; the rows of its pure-padding prefixes are 0.

mass_preserved recomputes the encoded tree's split rules in integers (the
float weights are dyadic) from the weights alone, and checks that every code
gets weight / total and every padding code zero.  So valid weights always
pass: it checks the rules, as verify-lemmas checks the lemmas.

No separate adapter exists for subcube-conditional oracles: a prefix
condition is already a subcube condition, so prefix-model algorithms run
against them as-is.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

from .bits import code_rows
from .oracles import PrefixOracle
from .streams import _StreamGroup
from .trees import MarginalTree


def code_depth(size: int) -> int:
    """Depth of the balanced code tree over {1..N}: ceil(log2 N), at least 1."""
    if size < 1:
        raise ValueError("domain must have at least one element")
    return max(1, (size - 1).bit_length())


def element_bounds(size: int, level: int, index) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inclusive element bounds {a..b} of the level-`level` prefixes with the given indexes.

    Element e of {1..N} has the code e - 1.  Padding codes (values N and up)
    sit at the top of the code range, so the elements of every node form a
    contiguous interval.  Returns arrays (a, b, padding); where padding is
    set the prefix holds no element (pure padding codes) and its a, b are
    not an interval.
    """
    depth = code_depth(size)
    index = np.asarray(index, dtype=np.int64)
    if not 0 <= level < depth or ((index < 0) | (index >= 1 << level)).any():
        raise ValueError(f"need indexes of prefixes of a depth below {depth}")
    shift = depth - level
    lo = index << shift
    return lo + 1, np.minimum((index + 1) << shift, size), lo >= size


def _split_fractions(cum: np.ndarray, n_elements: int, depth: int, level, idx, a, b):
    """Probability of stepping right at each node, restricted to codes [a, b).

    Works elementwise on an index array, with level (< depth), a and b
    scalars or arrays of one per node.  Edges toward a side holding no
    elements of [a, b) are forced (probability 0 into emptiness); a node
    whose restriction carries zero mass but elements on both sides splits
    1/2.  Both are the code tree's own splits, which the direct and the
    adapted routes both walk.
    """
    idx = np.asarray(idx, dtype=np.int64)
    half = 1 << (depth - level - 1)
    lo = idx * (2 * half)
    mid = lo + half
    # cum holds N + 1 sums and no code past N - 1 has mass, so every bound is capped at N
    cap = np.minimum(b, n_elements)
    mid_c, hi_c = np.minimum(mid, cap), np.minimum(mid + half, cap)
    lo_a, mid_a = np.maximum(np.minimum(lo, cap), a), np.maximum(mid_c, a)
    rmass = cum[hi_c] - cum[mid_a]
    total = (cum[mid_c] - cum[lo_a]) + rmass
    ratio = np.divide(rmass, total, out=np.full(total.shape, 0.5), where=total > 0.0)
    return np.where(mid_a < hi_c, np.where(lo_a < mid_c, ratio, 1.0), 0.0)


def _cumulative_weights(weights) -> np.ndarray:
    """The N + 1 sums of the first 0, 1, ..., N weights, once the weights check out."""
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size < 1:
        raise ValueError("weights must be a non-empty 1-d sequence")
    if np.any(w < 0.0):
        raise ValueError("weights must be non-negative")
    cum = np.zeros(w.size + 1)
    with np.errstate(over="ignore"):
        np.cumsum(w, out=cum[1:])
    # the sums are non-decreasing, so a finite total means every weight and sum is finite
    if not (np.isfinite(cum[-1]) and cum[-1] > 0.0):
        raise ValueError("weights must be finite, with a positive total mass that is finite")
    return cum


class EncodedMarginalTree(MarginalTree):
    """The marginal tree over codes representing a weight vector on {1..N}, read lazily.

    A node's handle is its index in its level and its marginal the split of
    its subtree's weight, read from cum, the N + 1 cumulative weight sums;
    N is read from cum once the weights check out, so a weight vector that
    is not 1-d raises ValueError.  Padding codes get edge probability 0, so
    element masses are weight / total.
    """

    def __init__(self, weights):
        self.cum = _cumulative_weights(weights)
        self.cum.setflags(write=False)
        self.size = len(self.cum) - 1
        super().__init__(code_depth(self.size))

    def _f(self, depth: int, h):
        return _split_fractions(self.cum, self.size, self.n, depth, h, 0, self.size)


def mass_preserved(weights) -> bool:
    """Whether the encoded tree gives code e - 1 exactly weight_e / total and every padding code 0.

    Rejects what the float builder rejects and reads N from the checked
    sums, then applies the builder's split rules in exact integer arithmetic
    to the weights alone: it never reads the float tree.  Every float
    weight is dyadic, so over their common power-of-two denominator the
    weights and their cumulative sums are integers.  A node's mass is kept
    as an unnormalized pair num / den, and each code's is compared with its
    element's weight by cross-multiplication: num * total == weight * den.
    A node's mass is its subtree's weight / total, so valid weights always
    give True: this checks the split rules, as verify-lemmas checks the
    lemmas.
    """
    n_elements = len(_cumulative_weights(weights)) - 1
    depth = code_depth(n_elements)
    ratios = [float(w).as_integer_ratio() for w in weights]
    scale = max(q for _, q in ratios)
    ints = [p * (scale // q) for p, q in ratios]
    cum = [0, *accumulate(ints)]
    total = cum[-1]
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
            # padding sits right, so the left side always holds an element
            if not mid < min(hi, n_elements):        # f = 0: no element right
                nxt += [(num, den), (0, den)]
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
    their rows descend together, one level at a time, to the depth asked.
    """

    def __init__(self, weights):
        self.tree = EncodedMarginalTree(weights)
        self.size, self.depth = self.tree.size, self.tree.n
        self.calls = 0

    def draw_batch(self, a_elem, b_elem, m: int, streams: _StreamGroup, lanes=None,
                   levels: int | None = None) -> np.ndarray:
        """m draws under each inclusive element interval {a_j..b_j}, shape (k * m,) int64.

        Rows j * m to (j + 1) * m are interval j's: lane lanes[j] of the
        stream group (lane j when lanes is None) gives one (m, levels below
        the LCA) uniform block, none when a_j == b_j, so they are exactly
        what a draw of that interval alone gives.  The lanes must be
        distinct and in [0, len(streams)), checked before any is drawn.
        With levels the rows stop at that code depth and are the nodes
        reached there: the codes of a full draw shifted right, at its cost
        in uniforms and calls.
        """
        a, b = np.asarray(a_elem, dtype=np.int64) - 1, np.asarray(b_elem, dtype=np.int64)
        lanes = range(len(streams)) if lanes is None else lanes
        if (a.ndim != 1 or a.shape != b.shape or len(lanes) != len(a) or len(set(lanes)) != len(a)
                or min(lanes, default=0) < 0 or max(lanes, default=-1) >= len(streams)
                or not ((0 <= a) & (a < b) & (b <= self.size)).all()):
            raise ValueError(f"need intervals with 1 <= a <= b <= {self.size} and a distinct lane per interval")
        if m < 1:
            raise ValueError("batch size must be positive")
        stop = self.depth if levels is None else levels
        if not 1 <= stop <= self.depth:
            raise ValueError(f"levels must be between 1 and the code depth {self.depth}")
        self.calls += m * len(a)
        # codes [a, b); levels below each LCA: the bit length of a ^ (b - 1), frexp's exponent
        below = np.frexp(a ^ (b - 1))[1]
        u = streams.draw(m, below, lanes)
        # each interval's rows step first from depth min(LCA, stop - 1), all from
        # one node: one split per interval, forced (0 or 1) above the LCA, where
        # any uniform takes the forced side
        lca = self.depth - below
        node = a >> (self.depth - np.minimum(lca, stop - 1))
        f = _split_fractions(self.tree.cum, self.size, self.depth, np.minimum(lca, stop - 1), node, a, b)
        stride = np.repeat(below, m)
        at = np.cumsum(stride) - stride   # where each row's uniforms start in u
        first = u.take(at, mode="clip") if len(u) else np.zeros(len(at))
        out = np.repeat(node << 1, m) + (first < np.repeat(f, m))
        steps = stop - int(lca.min(initial=stop))   # the most levels a row descends
        lca, a, b = (np.repeat(x, m) for x in (lca, a, b)) if steps > 1 else (lca, a, b)
        for t in range(1, steps):
            on = np.flatnonzero(lca + t < stop)
            f = _split_fractions(self.tree.cum, self.size, self.depth, lca[on] + t, out[on], a[on], b[on])
            out[on] = (out[on] << 1) + (u[at[on] + t] < f)
        return out + 1 if levels is None else out


class AdaptedPrefixOracle(PrefixOracle):
    """An oracle over codes that answers each prefix draw with one native draw, one stream per interval.

    A prefix whose cylinder holds no element (pure padding) cannot be
    conditioned on natively; its rows are 0, the code tree's own split
    there (EncodedMarginalTree forces f = 0 at every pure-padding node),
    and its lane is not read.
    """

    def __init__(self, native: TableIntervalOracle):
        super().__init__(native.depth)
        self.native = native

    def conditional_sample_batch(self, prefixes: np.ndarray, m: int,
                                 streams: _StreamGroup, levels: int | None = None) -> np.ndarray:
        """m elements per prefix: one native draw for every non-padding prefix, each from its own stream.

        The native draw descends only the levels returned, or whole rows
        when hooked, which are recorded; the pure-padding prefixes' rows
        are 0.
        """
        prefixes, levels = self._validated(prefixes, m, streams, levels)
        k, depth = prefixes.shape
        walked = self.n - depth if self.on_record is not None else levels
        a, b, padding = element_bounds(self.native.size, depth, prefixes @ (1 << np.arange(depth - 1, -1, -1)))
        live = np.flatnonzero(~padding)
        nodes = self.native.draw_batch(a[live], b[live], m, streams, live.tolist(), levels=depth + walked)
        out = np.zeros((k, m, walked), dtype=np.uint8)
        out[live] = code_rows(nodes, walked).reshape(-1, m, walked)
        return self._charge(prefixes, m, out.reshape(k * m, walked))[:, :levels]
