"""Explicit distributions over {0,1}^n given by per-prefix one-edge probabilities.

A marginal tree assigns to every true prefix w the probability f(w) of the
next bit being 1.  The induced mass of an element x is the product

    mass(x) = prod_i ( x_i * f(x_{1..i-1}) + (1 - x_i) * (1 - f(x_{1..i-1})) )

which always defines a probability distribution.

A tree names its nodes by handles: the root's handle, the handle of a node's
child along a bit, and the marginal f at a handle.  Table trees use a node's
index in its level; the hard instances' sign trees use a rolling 64-bit state
computed from the prefix, so instances with n in the thousands need no
storage.  The base class owns every walk over these names, and the walks
are a tree's whole interface: cylinders takes a block of prefixes to their
handles and cylinder masses (a full-length row's cylinder mass is its
element's mass), descend walks a block of rows down to the leaves, and
materialize builds the tables level by level.  A caller with one prefix
passes a block of one row.

This module holds trees, their walks and random_tree only; divergences
between trees (exact KL and total variation by enumeration) are computed in
divergence_lab.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .errors import CapabilityError

#: Largest n for which exact enumeration over all 2^n elements is supported.
MAX_ENUM_N = 24


class MarginalTree:
    """Base class: a distribution over {0,1}^n defined by prefix marginals.

    A subclass names its nodes with handles: _root is the root's handle,
    _child(h, b) the handle of h's child along bit b, and _f(depth, h) the
    marginal at h, a node at that depth.  Both work elementwise on arrays of
    handles of dtype _handle_dtype.  Every walk below is written once, over
    these three.
    """

    _handle_dtype: type
    _root: int | np.uint64

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("n must be at least 1")
        self.n = n

    def _child(self, h, b):
        raise NotImplementedError

    def _f(self, depth: int, h):
        raise NotImplementedError

    def cylinders(self, prefixes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Handles and cylinder masses of the rows of a (k, depth) 0/1 array.

        All rows step down together; a row's mass is p *= f or 1 - f at each
        node it passes, root first."""
        h = np.full(len(prefixes), self._root, dtype=self._handle_dtype)
        p = np.ones(len(prefixes))
        for depth in range(prefixes.shape[1]):
            f = self._f(depth, h)
            b = prefixes[:, depth]
            p *= np.where(b, f, 1.0 - f)
            h = self._child(h, b)
        return h, p

    def descend(self, u: np.ndarray, depth: int = 0, h: np.ndarray | None = None) -> np.ndarray:
        """Walk from nodes at depth down to the leaves, one row of u per walk.

        Row s starts at handle h[s] (the root when h is None) and takes bit t
        as 1 exactly when u[s, t] < f at the node it has reached, so the
        result, uint8 of u's shape, is a pure function of the start nodes and
        u.  All rows step down together, one level at a time.
        """
        rows, free = u.shape
        out = np.empty((rows, free), dtype=np.uint8)
        if h is None:
            h = np.full(rows, self._root, dtype=self._handle_dtype)
        for t in range(free):
            if t:
                h = self._child(h, out[:, t - 1])
            out[:, t] = u[:, t] < self._f(depth + t, h)
        return out

    def masses(self) -> np.ndarray:
        """All 2^n element masses, indexed by the big-endian value of x."""
        if self.n > MAX_ENUM_N:
            raise CapabilityError(f"enumeration supported only for n <= {MAX_ENUM_N}, got n={self.n}")
        return self.materialize().masses()

    def materialize(self) -> "TableMarginalTree":
        """An explicit table-backed copy (n <= MAX_ENUM_N), built level by level."""
        if self.n > MAX_ENUM_N:
            raise CapabilityError(f"materialization supported only for n <= {MAX_ENUM_N}")
        h = np.full(1, self._root, dtype=self._handle_dtype)
        levels = [self._f(0, h)]
        for depth in range(1, self.n):
            # left and right children interleaved: the next level in index order
            h = np.stack((self._child(h, 0), self._child(h, 1)), axis=1).ravel()
            levels.append(self._f(depth, h))
        return TableMarginalTree(self.n, levels)


class TableMarginalTree(MarginalTree):
    """Marginal tree with explicit per-level probability tables.

    A node's handle is its index in its level, the big-endian value of its
    prefix.
    """

    _handle_dtype = np.int64
    _root = 0

    def __init__(self, n: int, levels: Iterable[np.ndarray]):
        super().__init__(n)
        if n > MAX_ENUM_N:
            raise CapabilityError(f"explicit tables supported only for n <= {MAX_ENUM_N}")
        self._levels = []
        for i, level in enumerate(levels):
            arr = np.asarray(level, dtype=float).copy()
            if arr.shape != (1 << i,):
                raise ValueError(f"level {i} must have 2^{i} entries, got shape {arr.shape}")
            if np.any((arr < 0.0) | (arr > 1.0)):
                raise ValueError(f"level {i} contains values outside [0, 1]")
            arr.setflags(write=False)
            self._levels.append(arr)
        if len(self._levels) != n:
            raise ValueError(f"expected {n} levels, got {len(self._levels)}")

    def level(self, i: int) -> np.ndarray:
        """Read-only array of f values for all prefixes of length i."""
        return self._levels[i]

    def _child(self, h, b):
        return (h << 1) + b

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
    """A tree with independent marginals drawn uniformly from [low, high]."""
    if not 0.0 <= low <= high <= 1.0:
        raise ValueError("need 0 <= low <= high <= 1")
    return TableMarginalTree(n, [rng.uniform(low, high, 1 << i) for i in range(n)])
