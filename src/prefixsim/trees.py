"""Explicit distributions over {0,1}^n given by per-prefix one-edge probabilities.

A marginal tree assigns to every true prefix w the probability f(w) of the
next bit being 1.  The induced mass of an element x is the product

    mass(x) = prod_i ( x_i * f(x_{1..i-1}) + (1 - x_i) * (1 - f(x_{1..i-1})) )

which always defines a probability distribution.  Small trees are backed by
explicit per-level tables; subclasses may compute f from the prefix instead
(the hard instances' sign trees do), so instances with n in the thousands
stay representable.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

import numpy as np

from .bits import BitStringLike, PrefixLike, as_bitstring, as_prefix, index_of, prefix_str
from .errors import CapabilityError

#: Largest n for which exact enumeration over all 2^n elements is supported.
MAX_ENUM_N = 24


def bernoulli_kl(p: float, q: float) -> float:
    """KL divergence of Ber(p) from Ber(q), in bits.

    Terms with p in {0, 1} contribute only their live branch; the result is
    +inf exactly when q puts zero mass where p does not.
    """
    if not (0.0 <= p <= 1.0 and 0.0 <= q <= 1.0):
        raise ValueError(f"probabilities required, got p={p}, q={q}")
    total = 0.0
    if p > 0.0:
        if q == 0.0:
            return math.inf
        total += p * math.log2(p / q)
    if p < 1.0:
        if q == 1.0:
            return math.inf
        total += (1.0 - p) * math.log2((1.0 - p) / (1.0 - q))
    return total


class MarginalTree:
    """Base class: a distribution over {0,1}^n defined by prefix marginals."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("n must be at least 1")
        self.n = n

    def marginal_bits(self, bits: tuple[int, ...]) -> float:
        raise NotImplementedError

    def descend(self, bits: tuple[int, ...], u: np.ndarray) -> np.ndarray:
        """Walk from the prefix bits down to the leaves, one row of u per walk.

        Row s takes bit t as 1 exactly when u[s, t] < f at the node it has
        reached, so the result, shape (m, n - len(bits)) as uint8, is a pure
        function of the prefix and the uniform block u of the same shape.
        """
        raise NotImplementedError

    def marginal(self, w: PrefixLike) -> float:
        """f(w): probability that the bit after prefix w is 1."""
        return self.marginal_bits(as_prefix(self.n, w).bits)

    def mass(self, x: BitStringLike) -> float:
        """Probability mass of the element x."""
        return self._path_mass(as_bitstring(x, self.n).bits)

    def conditional_mass(self, w: PrefixLike) -> float:
        """Mass of the cylinder of strings extending the prefix w."""
        return self._path_mass(as_prefix(self.n, w).bits)

    def _path_mass(self, bits: tuple[int, ...]) -> float:
        p = 1.0
        for i, b in enumerate(bits):
            f = self.marginal_bits(bits[:i])
            p *= f if b else (1.0 - f)
        return p

    def masses(self) -> np.ndarray:
        """All 2^n element masses, indexed by the big-endian value of x."""
        if self.n > MAX_ENUM_N:
            raise CapabilityError(f"enumeration supported only for n <= {MAX_ENUM_N}, got n={self.n}")
        return self.materialize().masses()

    def materialize(self) -> "TableMarginalTree":
        """An explicit table-backed copy (n <= MAX_ENUM_N)."""
        if self.n > MAX_ENUM_N:
            raise CapabilityError(f"materialization supported only for n <= {MAX_ENUM_N}")
        levels = []
        for i in range(self.n):
            level = np.empty(1 << i)
            for j in range(1 << i):
                level[j] = self.marginal(prefix_str(i, j))
            levels.append(level)
        return TableMarginalTree(self.n, levels)

    def exact_total_mass(self) -> Fraction:
        """Sum of all element masses in exact rational arithmetic.

        Telescopes to 1 for any marginal values; kept as a runnable check of
        the representation (n <= 20).
        """
        if self.n > 20:
            raise CapabilityError("exact total mass supported only for n <= 20")
        masses = [Fraction(1)]
        for i in range(self.n):
            nxt = []
            for j, cur in enumerate(masses):
                f = Fraction(self.marginal(prefix_str(i, j)))
                nxt.append(cur * (1 - f))
                nxt.append(cur * f)
            masses = nxt
        return sum(masses, Fraction(0))


class TableMarginalTree(MarginalTree):
    """Marginal tree with explicit per-level probability tables."""

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

    def marginal_bits(self, bits: tuple[int, ...]) -> float:
        return float(self._levels[len(bits)][index_of(bits)])

    def descend(self, bits: tuple[int, ...], u: np.ndarray) -> np.ndarray:
        m, free = u.shape
        out = np.empty((m, free), dtype=np.uint8)
        idx = np.full(m, index_of(bits), dtype=np.int64)
        for t in range(free):
            f = self._levels[len(bits) + t][idx]
            step = u[:, t] < f
            out[:, t] = step
            idx = (idx << 1) + step
        return out

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


def uniform_tree(n: int) -> TableMarginalTree:
    return TableMarginalTree(n, [np.full(1 << i, 0.5) for i in range(n)])


def point_mass_tree(x: BitStringLike) -> TableMarginalTree:
    """The distribution putting all mass on the single element x."""
    xs = as_bitstring(x)
    levels = []
    idx = 0
    for i, b in enumerate(xs.bits):
        level = np.zeros(1 << i)
        level[idx] = float(b)
        levels.append(level)
        idx = (idx << 1) | b
    return TableMarginalTree(xs.n, levels)


def random_tree(n: int, rng: np.random.Generator, low: float = 0.0, high: float = 1.0) -> TableMarginalTree:
    """A tree with independent marginals drawn uniformly from [low, high]."""
    if not 0.0 <= low <= high <= 1.0:
        raise ValueError("need 0 <= low <= high <= 1")
    return TableMarginalTree(n, [rng.uniform(low, high, 1 << i) for i in range(n)])


def tv_distance(a: MarginalTree, b: MarginalTree) -> float:
    """Exact total-variation distance, by enumeration (n <= MAX_ENUM_N)."""
    if a.n != b.n:
        raise ValueError(f"trees have different lengths: {a.n} vs {b.n}")
    return float(0.5 * np.sum(np.abs(a.masses() - b.masses())))


def kl_divergence(a: MarginalTree, b: MarginalTree) -> float:
    """Exact KL divergence of a from b in bits, by enumeration.

    Returns +inf iff some element has a-mass > 0 but b-mass 0; elements with
    a-mass 0 contribute nothing.
    """
    if a.n != b.n:
        raise ValueError(f"trees have different lengths: {a.n} vs {b.n}")
    pa = a.masses()
    pb = b.masses()
    pos = pa > 0.0
    if np.any(pos & (pb == 0.0)):
        return math.inf
    return float(np.sum(pa[pos] * np.log2(pa[pos] / pb[pos])))


def chain_rule_kl(a: MarginalTree, b: MarginalTree) -> float:
    """KL divergence of a from b via the per-level decomposition.

    Sums, over every prefix w, the a-cylinder mass of w times the Bernoulli
    KL of the one-edge marginals.  Equals the enumerated divergence; kept as
    an independent route for cross-checking.
    """
    if a.n != b.n:
        raise ValueError(f"trees have different lengths: {a.n} vs {b.n}")
    if a.n > MAX_ENUM_N:
        raise CapabilityError(f"supported only for n <= {MAX_ENUM_N}")
    ta, tb = a.materialize(), b.materialize()
    total = 0.0
    weights = np.ones(1)
    for i in range(a.n):
        fa = ta.level(i)
        fb = tb.level(i)
        for j in range(1 << i):
            wgt = weights[j]
            if wgt > 0.0:
                term = bernoulli_kl(float(fa[j]), float(fb[j]))
                if term == math.inf:
                    return math.inf
                total += wgt * term
        nxt = np.empty(2 << i)
        nxt[0::2] = weights * (1.0 - fa)
        nxt[1::2] = weights * fa
        weights = nxt
    return total


def tree_to_json(tree: MarginalTree) -> dict:
    """Serialize as {"n": n, "f": {prefix-string: float}} (n <= MAX_ENUM_N)."""
    table = tree.materialize()
    f = {}
    for i in range(table.n):
        level = table.level(i)
        for j in range(1 << i):
            f[prefix_str(i, j)] = float(level[j])
    return {"n": table.n, "f": f}


def tree_from_json(data: dict) -> TableMarginalTree:
    n = int(data["n"])
    if n > MAX_ENUM_N:
        raise CapabilityError(f"explicit tables supported only for n <= {MAX_ENUM_N}")
    f = data["f"]
    levels = []
    for i in range(n):
        level = np.empty(1 << i)
        for j in range(1 << i):
            key = prefix_str(i, j)
            if key not in f:
                raise ValueError(f"serialized tree is missing prefix {key!r}")
            level[j] = float(f[key])
        levels.append(level)
    return TableMarginalTree(n, levels)
