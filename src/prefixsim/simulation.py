"""Simulation of a hidden distribution from prefix conditional samples.

A single edge w -> wb is estimated by drawing m = ceil(n / delta) samples
conditioned on w and averaging the first free bit.  Estimating every edge
independently yields a surrogate distribution whose expected KL divergence
from the input is at most n/m <= delta.  The samples of a level's missing
edges are drawn together, in one multi-prefix draw (first_free_ones), which
asks the oracle for the first free bit only, counts each prefix's ones block
by block, and est_simulation_edge then takes each edge's k from its count.

One store holds the estimates: for each prefix w it keeps k(w), the number
of ones among the m samples of its edge, so both siblings are read from one
entry.  Per depth it keeps the node ids of the stored prefixes in sorted
order, their k as int64 and the splits k/m and (m - k)/m, so a walk reads a
whole level of rows with a few numpy calls and no Python work per row.  The
store is filled lazily, an edge the first time it lies on a
queried or sampled path, or all at once by preprocess, which touches every
edge of the tree up front (exponential work).  Because each edge's
estimation stream is keyed by (master seed, prefix), neither the order in
which edges are first touched nor their grouping into draws matters, and the
lazy simulation is bit-for-bit equal to the eagerly learned one.  The
streams of a group are seeded together (streams.substreams), one lane per
edge, each equal to the generator substream builds for its key.  Estimates
are kept as exact integers; all float probabilities are computed as k/m so
the two agree to the last bit and realization checks can run in exact
rational arithmetic.

The simulated distribution is itself a marginal tree (trees.MarginalTree)
whose handles are node ids and whose splits come from the store.  So
sample_batch and query_batch are the tree's one walk over all their rows at
once, in one pass, and materialize (hence kl_divergence and tv_distance)
reads the same splits.  Each row sees the same float operations in
the same order as a lone walk, and a (k, n) uniform block holds the same
doubles as k * n single draws, so a batch returns exactly what its rows
would one at a time; sample and query are the batch of one.

A simulation state (like the oracle it drives) has a single logical owner;
independent trials parallelize at the state level.
"""

from __future__ import annotations

import math

import numpy as np

from .bits import code_rows, element_bits
from .errors import CapabilityError
from .oracles import PrefixOracle
from .streams import RandomStream, _StreamGroup, substream, substreams
from .trees import MarginalTree
from .util import ceil_snap, row_blocks

#: Largest n for which eagerly learning all 2^n - 1 edges is supported.
MAX_PREPROCESS_N = 20


def samples_per_edge(n: int, delta: float) -> int:
    """Conditional samples per edge estimate: m = ceil(n / delta), at least 1."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if not (delta > 0.0 and math.isfinite(n / delta) and ceil_snap(n / delta) >= 1):
        raise ValueError(f"delta = {delta} gives no finite m = ceil(n / delta) >= 1")
    return ceil_snap(n / delta)


def est_simulation_edge(ones) -> int:
    """k of one edge w -> w1: how many of the m samples under w have first free bit 1.

    ones is w's entry of first_free_ones, summed over the draw's row blocks;
    the estimate of w -> w1 is k/m and of its sibling w -> w0 is (m - k)/m.
    The benchmark's tracer counts one estimated edge per call.
    """
    return int(ones)


def first_free_ones(oracle: PrefixOracle, m: int, prefixes: np.ndarray,
                    streams: _StreamGroup) -> np.ndarray:
    """How many of m conditional samples under each prefix have first free bit 1, as int64.

    prefixes is a 0/1 array with one prefix of a common depth per row, and
    streams is a stream group with one lane per prefix.  The prefixes share
    one multi-prefix draw, split into consecutive row blocks only when a
    block would exceed util.MAX_BLOCK_UNIFORMS uniforms; each block's ones
    are added up before the next is drawn, so memory stays one block at any m.
    Either way each prefix gets the uniforms one (m, free) block from its
    lane would, and costs exactly m conditional samples; the draw returns
    only the first free bit (levels=1).
    """
    count, free = len(prefixes), oracle.n - prefixes.shape[1]
    ones = np.zeros(count, dtype=np.int64)
    for rows in row_blocks(m, count * free):
        first = oracle.conditional_sample_batch(prefixes, rows, streams, levels=1).reshape(count, rows)
        ones += np.count_nonzero(first, axis=1)
    return ones


class LazySimulation(MarginalTree):
    """Simulated distribution whose edges are estimated on first touch.

    The store holds, per depth, the node ids (1 << depth) | index of the
    touched prefixes, sorted, beside each its k, the number of ones among
    the m samples of its edge, and the splits k/m and (m - k)/m.  A level of
    a walk looks up all its rows' nodes at once (searchsorted); the misses
    of one level are estimated together, each edge from its own
    (seed, prefix)-keyed stream, and merged in sorted order.
    Entries never change once written, so repeated queries are consistent
    and already-revealed masses are honored by later samples.  As a marginal
    tree its handles are the node ids, and materialize (n <= MAX_PREPROCESS_N)
    estimates every untouched edge.
    """

    _root = 1
    _max_table_n = MAX_PREPROCESS_N

    def __init__(self, n: int, oracle: PrefixOracle, delta: float, seed: int):
        if n != oracle.n:
            raise ValueError(f"oracle is over n={oracle.n}, expected {n}")
        super().__init__(n)
        self.oracle = oracle
        self.delta = delta
        self.seed = seed
        self.m = samples_per_edge(n, delta)
        # node ids reach 2^n; past int64, keep them as Python ints
        self._handle_dtype = np.int64 if n < 63 else object
        # the store: per depth, the sorted node ids estimated so far and their k
        self._nodes = [np.empty(0, dtype=self._handle_dtype) for _ in range(n)]
        self._ks = [np.empty(0, dtype=np.int64) for _ in range(n)]
        # beside them, each level's splits: the arrays k/m and (m - k)/m
        self._splits = [(np.empty(0), np.empty(0)) for _ in range(n)]
        self._user_rng = substream(seed, "user")

    @property
    def touched_pairs(self) -> int:
        """Number of distinct sibling pairs estimated so far."""
        return sum(map(len, self._ks))

    def _find(self, depth: int, nodes: np.ndarray) -> np.ndarray:
        """Where each node of the array, all at depth, sits in its level of the store.

        Missing edges are estimated on the way: the distinct misses in the
        order rows first reach them, in groups of whole prefixes whose block
        stays within util.MAX_BLOCK_UNIFORMS uniforms (a prefix too large
        alone is its own group).  A group's prefix bits and streams (keyed by
        the node id's binary digits after the leading 1) are built only for
        its draw.  The level's splits are then recomputed from its k.
        """
        keys = self._nodes[depth]
        if len(keys) == 1 << depth:  # every node of the level is stored, in index order
            return (nodes - (1 << depth)).astype(np.intp, copy=False)
        at = keys.searchsorted(nodes)
        missed = nodes
        if len(keys):
            hit = keys.take(at, mode="clip") == nodes
            if np.count_nonzero(hit) == len(nodes):
                return at
            missed = nodes[~hit]
        distinct, first = np.unique(missed, return_index=True)
        order = first.argsort()  # first-touch order
        misses = distinct[order]
        found = []
        start = 0
        for size in row_blocks(len(misses), self.m * (self.n - depth)):
            group = misses[start:start + size]
            bits = code_rows(group, depth)
            streams = substreams(self.seed, "edge", parts=[format(node, "b")[1:] for node in group.tolist()])
            ones = first_free_ones(self.oracle, self.m, bits, streams)
            found += map(est_simulation_edge, ones.tolist())
            start += size
        new_ks = np.empty(len(distinct), dtype=np.int64)
        new_ks[order] = found
        at = keys.searchsorted(distinct)
        self._nodes[depth] = keys = np.insert(keys, at, distinct)
        self._ks[depth] = ks = np.insert(self._ks[depth], at, new_ks)
        self._splits[depth] = ks / self.m, (self.m - ks) / self.m
        return keys.searchsorted(nodes)

    def _child(self, h, b):
        return (h << 1) | b

    def _split(self, depth: int, h):
        at = self._find(depth, h)  # first: it may add to the level
        ones, zeros = self._splits[depth]
        return ones.take(at), zeros.take(at)

    def _learn_all(self) -> None:
        if self.n > MAX_PREPROCESS_N:
            raise CapabilityError(f"learning all 2^n - 1 edges is supported only for n <= {MAX_PREPROCESS_N}")
        for depth in range(self.n):
            self._find(depth, np.arange(1 << depth, 2 << depth))

    def query_batch(self, bits) -> np.ndarray:
        """Masses of the rows of a (k, n) 0/1 array under the simulated distribution.

        Touches all n edges along every row's path (no short-circuit on
        zero), so a fresh path costs at most n * m conditional samples and a
        repeated one costs nothing.
        """
        bits = np.asarray(bits)
        if bits.ndim != 2 or bits.shape[1] != self.n or ((bits != 0) & (bits != 1)).any():
            raise ValueError(f"need a (k, {self.n}) array of 0/1 bits")
        p = np.ones(len(bits))
        self.walk(bits.astype(np.uint8, copy=False), p=p)
        return p

    def query(self, x) -> float:
        """Mass of x under the simulated distribution: query_batch of one row."""
        return float(self.query_batch([element_bits(x, self.n)])[0])

    def sample_batch(self, k: int, rng: RandomStream | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Draw k elements of the simulated distribution: a (k, n) uint8 bit array and their masses.

        The uniforms, one (k, n) block, come from rng when given, else from
        the simulation's own (seed, "user") stream; it holds the same
        doubles as k * n single draws, so k calls of sample() give the same
        elements and masses.
        """
        if k < 0:
            raise ValueError("cannot draw a negative number of elements")
        u = (self._user_rng if rng is None else rng).random((k, self.n))
        bits = np.empty((k, self.n), dtype=np.uint8)
        p = np.ones(k)
        self.walk(bits, u, p)
        return bits, p

    def sample(self, rng: RandomStream | None = None) -> tuple[tuple[int, ...], float]:
        """Draw x from the simulated distribution: (x as a tuple of bits, its mass), a batch of one."""
        bits, p = self.sample_batch(1, rng)
        return tuple(bits[0].tolist()), float(p[0])


def preprocess(n: int, oracle: PrefixOracle, delta: float, seed: int) -> LazySimulation:
    """Learn every edge of the tree up front (eager simulation).

    Fills all 2^n - 1 entries of a fresh LazySimulation level by level, each
    level in as few multi-prefix draws as the block cap allows and each edge
    from its own (seed, prefix)-keyed stream, costing (2^n - 1) * m
    conditional samples; later queries and samples cost nothing.
    """
    sim = LazySimulation(n, oracle, delta, seed)
    sim._learn_all()
    return sim
