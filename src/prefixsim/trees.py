"""Explicit distributions over {0,1}^n given by per-prefix one-edge probabilities.

A marginal tree assigns to every true prefix w the probability f(w) of the
next bit being 1.  The induced mass of an element x is the product

    mass(x) = prod_i ( x_i * f(x_{1..i-1}) + (1 - x_i) * (1 - f(x_{1..i-1})) )

which always defines a probability distribution.

A tree names its nodes by handles and steps one level of a walk through
one hook, _step(depth, h): the split at the handles h, the probabilities of
their two edges, and the map from the bits taken to the children's handles.
By default a handle is the node's index in its level, the big-endian value
of its prefix, and _step is (f, 1 - f) from the tree's marginal _f: table
trees read their tables at the index, the interval code tree
(reduction.EncodedMarginalTree) a cumulative weight array.  Two trees
override _step: a simulation (simulation.LazySimulation) reads both edges
from its store of edge estimates, and the hard instances' sign trees name
nodes by a rolling 64-bit state computed from the prefix, so instances with
n in the thousands need no storage.  The base class owns the one walk over
these names: walk takes a block of rows down together, one level per
column, reading or drawing each row's bit and, for a caller that passes a
mass array, multiplying in each edge's probability, so cylinder masses,
element masses and draws are all one loop.  materialize builds the tables
level by level from the same hook, each level's handles from the child map
of the level above, and hands them to TableMarginalTree(levels), the one
table constructor, which copies and checks every table's levels.  A caller
with one prefix passes a block of one row.

This module holds trees, their walk and random_tree only; divergences
between trees (exact KL and total variation by enumeration) are computed in
divergence_lab.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import CapabilityError

#: Largest n for which exact enumeration over all 2^n elements is supported.
MAX_ENUM_N = 24


class MarginalTree:
    """Base class: a distribution over {0,1}^n defined by prefix marginals.

    A tree names its nodes with handles, _root the root's, and steps a
    level through _step(depth, h): for the handles h of nodes at that depth
    it returns (P[bit 1], P[bit 0], child), where child maps the bits taken
    (an array, or one bit for all) to the children's handles.  All work
    elementwise on arrays of handles of dtype _handle_dtype, by default the
    nodes' indexes in their levels as int64, where _step is (f, 1 - f) from
    the subclass's marginal _f(depth, h) and child(b) is (h << 1) | b.
    walk and materialize are written once, over _step.
    """

    _handle_dtype: type = np.int64
    _root: int | np.uint64 = 0
    #: Largest n that materialize supports.
    _max_table_n = MAX_ENUM_N

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("n must be at least 1")
        self.n = n

    def _step(self, depth: int, h):
        """One level of a walk from the handles h at depth: the split there, and the map from bits to children."""
        f = self._f(depth, h)
        return f, 1.0 - f, functools.partial(np.bitwise_or, h << 1)

    def walk(self, bits: np.ndarray, u: np.ndarray | None = None, p: np.ndarray | None = None,
             depth: int = 0, h: np.ndarray | None = None) -> np.ndarray:
        """Walk the rows of bits down the tree together from nodes at depth, one column per level.

        Row s starts at handle h[s] (the root when h is None); the handles the
        rows reach are returned.  With u, column t of bits is first drawn as
        u[:, t] < P[bit 1] at the node the row has reached, so the bits are a
        pure function of the start nodes and u.  With p, p[s] is multiplied
        in place by P[bit taken] at each node row s passes, root first, so
        from the root a row's p ends as its cylinder mass (a full-length
        row's, its element's mass).
        """
        if h is None:
            h = np.full(len(bits), self._root, dtype=self._handle_dtype)
        for t in range(bits.shape[1]):
            one, zero, child = self._step(depth + t, h)
            if u is not None:
                bits[:, t] = u[:, t] < one
            b = bits[:, t]
            if p is not None:
                p *= np.where(b, one, zero)
            h = child(b)
        return h

    def masses(self) -> np.ndarray:
        """All 2^n element masses, indexed by the big-endian value of x."""
        return self.materialize().masses()

    def materialize(self) -> "TableMarginalTree":
        """An explicit table-backed copy (n <= _max_table_n), built level by level."""
        if self.n > self._max_table_n:
            raise CapabilityError(f"materialization supported only for n <= {self._max_table_n}")
        h = np.full(1, self._root, dtype=self._handle_dtype)
        levels = []
        for depth in range(self.n):
            if depth:
                # each node's children along bits 0 and 1 side by side: the next level in index order
                h = np.stack((child(0), child(1)), axis=1).ravel()
            one, _, child = self._step(depth, h)
            levels.append(one)
        return TableMarginalTree(levels)


class TableMarginalTree(MarginalTree):
    """Marginal tree with explicit per-level probability tables, read at each node's index.

    n is the number of levels; level i holds the 2^i marginals of the
    prefixes of length i in index order.
    """

    def __init__(self, levels: list):
        super().__init__(len(levels))
        if self.n > MAX_ENUM_N:
            raise CapabilityError(f"explicit tables supported only for n <= {MAX_ENUM_N}")
        self._levels = [np.array(level, dtype=float) for level in levels]
        for i, arr in enumerate(self._levels):
            if arr.shape != (1 << i,):
                raise ValueError(f"level {i} must have 2^{i} entries, got shape {arr.shape}")
            if not np.all((arr >= 0.0) & (arr <= 1.0)):  # NaN fails both
                raise ValueError(f"level {i} contains values outside [0, 1] or NaN")
            arr.setflags(write=False)

    def level(self, i: int) -> np.ndarray:
        """Read-only array of f values for all prefixes of length i."""
        return self._levels[i]

    def _f(self, depth: int, h):
        return self._levels[depth][h]

    def masses(self) -> np.ndarray:
        out = np.ones(1)
        for i in range(self.n):
            f = self._levels[i]
            nxt = np.empty(2 << i)
            nxt[0::2] = out * (1.0 - f)
            nxt[1::2] = out * f
            out = nxt
        return out

    def materialize(self) -> "TableMarginalTree":
        return self


def random_tree(n: int, rng: np.random.Generator, low: float = 0.0, high: float = 1.0) -> TableMarginalTree:
    """A tree with independent marginals drawn uniformly from [low, high].

    n <= MAX_ENUM_N, checked before any level is drawn.
    """
    if not 0.0 <= low <= high <= 1.0:
        raise ValueError("need 0 <= low <= high <= 1")
    if n > MAX_ENUM_N:
        raise CapabilityError(f"explicit tables supported only for n <= {MAX_ENUM_N}")
    return TableMarginalTree([rng.uniform(low, high, 1 << i) for i in range(n)])
