"""Simulation of a hidden distribution from prefix conditional samples.

A single edge w -> wb is estimated by drawing m = ceil(n / delta) samples
conditioned on w and averaging the first free bit.  Estimating every edge
independently yields a surrogate distribution whose expected KL divergence
from the input is at most n/m <= delta.  The samples of a level's missing
edges are drawn together, in one multi-prefix draw (first_free_bits), and
est_simulation_edge then counts each edge's k from its own m rows.

One store holds the estimates: for each prefix w it keeps k(w), the number
of ones among the m samples of its edge, so both siblings are read from one
entry as k/m and (m - k)/m.  The store is filled lazily, an edge the first
time it lies on a queried or sampled path, or all at once by preprocess,
which touches every edge of the tree up front (exponential work).  Because
each edge's estimation stream is keyed by (master seed, prefix), neither the
order in which edges are first touched nor their grouping into draws
matters, and the lazy simulation is bit-for-bit equal to the eagerly learned
one.  The streams of a group are seeded together (streams.substreams), each
the generator substream builds for its key.  Estimates are kept as exact
integers; all float probabilities are computed as k/m so the two agree to
the last bit and realization checks can run in exact rational arithmetic.

Samples and queries walk many paths at once: sample_batch and query_batch
take all rows down the tree together, one level at a time, reading the k of
every row's node from the store.  Each row sees the same float operations in
the same order as a lone walk, and a (k, n) uniform block holds the same
doubles as k * n single draws, so a batch returns exactly what its rows
would one at a time; sample and query are the batch of one.

A simulation state (like the oracle it drives) has a single logical owner;
independent trials parallelize at the state level.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from .bits import code_rows, element_bits
from .errors import CapabilityError
from .oracles import PrefixOracle
from .streams import RandomStream, substream, substreams
from .trees import TableMarginalTree
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


def est_simulation_edge(first_bits: np.ndarray) -> int:
    """k of one edge w -> w1: how many of the m samples under w have first free bit 1.

    first_bits holds the first free bit of each of the m = ceil(n / delta)
    conditional samples drawn under w, a row of first_free_bits; the
    estimate of w -> w1 is k/m and of its sibling w -> w0 is (m - k)/m.
    """
    return int(np.count_nonzero(first_bits))


def first_free_bits(oracle: PrefixOracle, m: int, prefixes: np.ndarray,
                    rngs: Sequence[RandomStream]) -> np.ndarray:
    """First free bit of m conditional samples under each prefix: one uint8 row of m per prefix.

    prefixes is a 0/1 array with one prefix of a common depth per row, and
    rngs holds one stream per prefix.  The prefixes share one multi-prefix
    draw, split into consecutive row blocks only when a block would exceed
    util.MAX_BLOCK_UNIFORMS uniforms.
    Either way each prefix gets the uniforms one (m, free) block from its
    stream would, and costs exactly m conditional samples.
    """
    count, free = len(prefixes), oracle.n - prefixes.shape[1]
    return np.hstack([oracle.conditional_sample_batch(prefixes, rows, rngs)[:, 0].reshape(count, rows)
                      for rows in row_blocks(m, count * free)])


class LazySimulation:
    """Simulated distribution whose edges are estimated on first touch.

    The store maps each touched prefix, keyed by its node id
    (1 << depth) | index, to k, the number of ones among the m samples of
    its edge.  The misses of one level are estimated together, each edge
    from its own (seed, prefix)-keyed stream.
    Entries never change once written, so repeated queries are consistent
    and already-revealed masses are honored by later samples.
    """

    def __init__(self, n: int, oracle: PrefixOracle, delta: float, seed: int):
        if n != oracle.n:
            raise ValueError(f"oracle is over n={oracle.n}, expected {n}")
        self.n = n
        self.oracle = oracle
        self.delta = delta
        self.seed = seed
        self.m = samples_per_edge(n, delta)
        # node ids reach 2^n; past int64, keep them as Python ints
        self._node_dtype = np.int64 if n < 63 else object
        self._ones: dict[int, int] = {}
        self._user_rng = substream(seed, "user")

    @property
    def touched_pairs(self) -> int:
        """Number of distinct sibling pairs estimated so far."""
        return len(self._ones)

    def _counts(self, depth: int, nodes: list[int]) -> list[int]:
        """k of each node in the list, all at depth, estimating the missing edges on the way.

        The distinct misses are estimated in the order rows first reach them,
        in groups of whole prefixes whose block stays within
        util.MAX_BLOCK_UNIFORMS uniforms (a prefix too large alone is its own
        group).  A group's prefix bits and streams (keyed by the node id's
        binary digits after the leading 1) are built only for its draw.
        """
        ks = list(map(self._ones.get, nodes))
        if None not in ks:
            return ks
        misses = list(dict.fromkeys(node for node, k in zip(nodes, ks) if k is None))
        start = 0
        for size in row_blocks(len(misses), self.m * (self.n - depth)):
            group = misses[start:start + size]
            bits = code_rows(np.array(group, dtype=self._node_dtype), depth)
            rngs = substreams(self.seed, "edge", parts=[format(node, "b")[1:] for node in group])
            drawn = first_free_bits(self.oracle, self.m, bits, rngs)
            self._ones.update(zip(group, map(est_simulation_edge, drawn)))
            start += size
        return list(map(self._ones.get, nodes))

    def _learn_all(self) -> None:
        if self.n > MAX_PREPROCESS_N:
            raise CapabilityError(f"learning all 2^n - 1 edges is supported only for n <= {MAX_PREPROCESS_N}")
        for depth in range(self.n):
            self._counts(depth, list(range(1 << depth, 2 << depth)))

    def _walk(self, bits: np.ndarray, u: np.ndarray | None = None) -> np.ndarray:
        """Masses of the rows of bits, all rows walked together level by level.

        With u, column i of bits is first drawn as u[:, i] < k / m.  Each
        row's mass is p *= (k or m - k) / m from the root down, the float
        operations of a lone walk in the same order.
        """
        m = self.m
        nodes = np.ones(len(bits), dtype=self._node_dtype)
        p = np.ones(len(bits))
        for i in range(self.n):
            k = np.array(self._counts(i, nodes.tolist()), dtype=np.int64)
            if u is not None:
                bits[:, i] = u[:, i] < k / m
            b = bits[:, i]
            p *= np.where(b, k, m - k) / m
            nodes = (nodes << 1) | b
        return p

    def query_batch(self, bits) -> np.ndarray:
        """Masses of the rows of a (k, n) 0/1 array under the simulated distribution.

        Touches all n edges along every row's path (no short-circuit on
        zero), so a fresh path costs at most n * m conditional samples and a
        repeated one costs nothing.
        """
        bits = np.asarray(bits)
        if bits.ndim != 2 or bits.shape[1] != self.n or ((bits != 0) & (bits != 1)).any():
            raise ValueError(f"need a (k, {self.n}) array of 0/1 bits")
        return self._walk(bits.astype(np.uint8, copy=False))

    def query(self, x) -> float:
        """Mass of x under the simulated distribution: the walk of query_batch on one row."""
        return float(self._walk(np.array([element_bits(x, self.n)], dtype=np.uint8))[0])

    def query_exact(self, x) -> Fraction:
        p = Fraction(1)
        node = 1
        for i, b in enumerate(element_bits(x, self.n)):
            k = self._counts(i, [node])[0]
            p *= Fraction(k if b else self.m - k, self.m)
            node = (node << 1) | b
        return p

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
        return bits, self._walk(bits, u)

    def sample(self, rng: RandomStream | None = None) -> tuple[tuple[int, ...], float]:
        """Draw x from the simulated distribution: (x as a tuple of bits, its mass), a batch of one."""
        bits, p = self.sample_batch(1, rng)
        return tuple(bits[0].tolist()), float(p[0])

    def as_marginal_tree(self) -> TableMarginalTree:
        """The simulated distribution as an explicit tree; estimates every untouched edge."""
        self._learn_all()
        return TableMarginalTree(self.n, [
            np.array([self._ones[node] for node in range(1 << i, 2 << i)]) / self.m
            for i in range(self.n)])


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
