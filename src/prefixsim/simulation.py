"""Simulation of a hidden distribution from prefix conditional samples.

A single edge w -> wb is estimated by drawing m = ceil(n / delta) samples
conditioned on w and averaging the first free bit.  Estimating every edge
independently yields a surrogate distribution whose expected KL divergence
from the input is at most n/m <= delta.

One store holds the estimates: for each prefix w it keeps k(w), the number
of ones among the m samples of its edge, so both siblings are read from one
entry as k/m and (m - k)/m.  The store is filled lazily, an edge the first
time it lies on a queried or sampled path, or all at once by preprocess,
which touches every edge of the tree up front (exponential work).  Because
each edge's estimation stream is keyed by (master seed, prefix), the order
in which edges are first touched is irrelevant, and the lazy simulation is
bit-for-bit equal to the eagerly learned one.  Estimates are kept as exact
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

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bits import BitString, BitStringLike, PrefixLike, as_bitstring, as_prefix, prefix_str
from .errors import CapabilityError
from .oracles import PrefixOracle
from .streams import RandomStream, substream
from .trees import TableMarginalTree
from .util import ceil_snap, row_blocks

#: Largest n for which eagerly learning all 2^n - 1 edges is supported.
MAX_PREPROCESS_N = 20


def samples_per_edge(n: int, delta: float) -> int:
    """Conditional samples per edge estimate: m = ceil(n / delta)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if not delta > 0.0:
        raise ValueError("delta must be positive")
    return ceil_snap(n / delta)


@dataclass(frozen=True)
class EdgeEstimate:
    """An edge weight estimated as k matches out of m samples."""

    k: int
    m: int

    def __post_init__(self) -> None:
        if not 0 <= self.k <= self.m:
            raise ValueError(f"need 0 <= k <= m, got k={self.k}, m={self.m}")

    @property
    def value(self) -> float:
        return self.k / self.m

    @property
    def exact(self) -> Fraction:
        return Fraction(self.k, self.m)

    def sibling(self) -> "EdgeEstimate":
        return EdgeEstimate(self.m - self.k, self.m)


def est_simulation_edge(n: int, oracle: PrefixOracle, delta: float,
                        w: PrefixLike, b: int, rng: RandomStream) -> EdgeEstimate:
    """Estimate the probability of bit b after prefix w.

    Draws m = ceil(n / delta) conditional samples under w and counts those
    whose first free bit equals b.  Costs exactly m conditional samples,
    drawn in blocks of row_blocks sizes so memory stays bounded at any m;
    the blocks draw the same uniforms in the same order as one (m, free)
    block would.
    """
    if b not in (0, 1):
        raise ValueError("b must be 0 or 1")
    wp = as_prefix(n, w)
    m = samples_per_edge(n, delta)
    k = 0
    for rows in row_blocks(m, n - wp.depth):
        k += int(np.count_nonzero(oracle.conditional_sample_batch(wp, rows, rng)[:, 0] == b))
    return EdgeEstimate(k, m)


def _prefix_of(node: int) -> str:
    """The prefix string of a store key (1 << depth) | index."""
    depth = node.bit_length() - 1
    return prefix_str(depth, node ^ (1 << depth))


class LazySimulation:
    """Simulated distribution whose edges are estimated on first touch.

    The store maps each touched prefix, keyed by its node id
    (1 << depth) | index, to k, the number of ones among the m samples of
    its edge; a miss estimates the edge from its (seed, prefix)-keyed stream.
    Entries never change once written, so repeated queries are consistent
    and already-revealed masses are honored by later samples.
    """

    def __init__(self, n: int, oracle: PrefixOracle, delta: float, seed: int):
        if n != oracle.n:
            raise ValueError(f"oracle is over n={oracle.n}, expected {n}")
        if not delta > 0.0:
            raise ValueError("delta must be positive")
        self.n = n
        self.oracle = oracle
        self.delta = delta
        self.seed = seed
        self.m = samples_per_edge(n, delta)
        self._ones: dict[int, int] = {}
        self._user_rng = substream(seed, "user")

    @property
    def touched_pairs(self) -> int:
        """Number of distinct sibling pairs estimated so far."""
        return len(self._ones)

    @property
    def hist(self) -> dict[tuple[str, int], EdgeEstimate]:
        """Both sibling estimates of every touched pair, keyed (prefix string, bit).

        Built afresh from the store on each read; edits to it do not reach the store.
        """
        out = {}
        for node, k in self._ones.items():
            w, est = _prefix_of(node), EdgeEstimate(k, self.m)
            out[(w, 1)] = est
            out[(w, 0)] = est.sibling()
        return out

    def edge(self, w: PrefixLike, b: int) -> EdgeEstimate:
        """The estimate of the edge w -> wb, estimating the pair on a miss."""
        if b not in (0, 1):
            raise ValueError("b must be 0 or 1")
        wp = as_prefix(self.n, w)
        k = self._count((1 << wp.depth) | wp.index)
        return EdgeEstimate(k if b else self.m - k, self.m)

    def _count(self, node: int) -> int:
        k = self._ones.get(node)
        if k is None:
            w_str = _prefix_of(node)
            k = est_simulation_edge(self.n, self.oracle, self.delta, w_str, 1,
                                    substream(self.seed, "edge", w_str)).k
            self._ones[node] = k
        return k

    def _learn_all(self) -> None:
        if self.n > MAX_PREPROCESS_N:
            raise CapabilityError(f"learning all 2^n - 1 edges is supported only for n <= {MAX_PREPROCESS_N}")
        for node in range(1, 1 << self.n):
            self._count(node)

    def _counts(self, nodes: np.ndarray) -> np.ndarray:
        """k of each node in the array, estimating any missing edge on the way."""
        ks = list(map(self._ones.get, nodes.tolist()))
        if None in ks:
            ks = [self._count(node) for node in nodes.tolist()]
        return np.array(ks, dtype=np.int64)

    def _walk(self, bits: np.ndarray, u: np.ndarray | None = None) -> np.ndarray:
        """Masses of the rows of bits, all rows walked together level by level.

        With u, column i of bits is first drawn as u[:, i] < k / m.  Each
        row's mass is p *= (k or m - k) / m from the root down, the float
        operations of a lone walk in the same order.
        """
        m = self.m
        # node ids reach 2^n; past int64, keep them as Python ints
        nodes = np.ones(len(bits), dtype=np.int64 if self.n < 63 else object)
        p = np.ones(len(bits))
        for i in range(self.n):
            k = self._counts(nodes)
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

    def query(self, x: BitStringLike) -> float:
        """Mass of x under the simulated distribution: the walk of query_batch on one row."""
        return float(self._walk(np.array([as_bitstring(x, self.n).bits], dtype=np.uint8))[0])

    def query_exact(self, x: BitStringLike) -> Fraction:
        p = Fraction(1)
        node = 1
        for b in as_bitstring(x, self.n).bits:
            k = self._count(node)
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

    def sample(self, rng: RandomStream | None = None) -> tuple[BitString, float]:
        """Draw x from the simulated distribution; returns (x, mass of x): sample_batch of one."""
        bits, p = self.sample_batch(1, rng)
        return BitString(tuple(bits[0].tolist())), float(p[0])

    def as_marginal_tree(self) -> TableMarginalTree:
        """The simulated distribution as an explicit tree; estimates every untouched edge."""
        self._learn_all()
        return TableMarginalTree(self.n, [
            np.array([self._ones[node] for node in range(1 << i, 2 << i)]) / self.m
            for i in range(self.n)])


def preprocess(n: int, oracle: PrefixOracle, delta: float, seed: int) -> LazySimulation:
    """Learn every edge of the tree up front (eager simulation).

    Fills all 2^n - 1 entries of a fresh LazySimulation, each from its own
    (seed, prefix)-keyed stream, costing (2^n - 1) * m conditional samples;
    later queries and samples cost nothing.
    """
    sim = LazySimulation(n, oracle, delta, seed)
    sim._learn_all()
    return sim
