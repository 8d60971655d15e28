"""Sampling oracles over hidden distributions on {0,1}^n.

The only draw is prefix-conditional: a call takes k prefixes of one depth
and returns m elements agreeing with each prefix (their free bits); there is
no marginal or one-element draw.  Every oracle keeps one integer ledger,
conditional_calls, that counts draws, m per prefix, and is never reset.
The only per-prefix account is the optional on_record transcript hook.

Draw discipline: one stream per prefix.  A draw takes a stream group
(streams.substreams) with one lane per prefix, and a prefix's m rows consume
one uniform block of shape (m, free-levels) from its own lane and walk the
levels using one column per level, so they are exactly what a draw of that
prefix alone gives.  Each lane's generator is built for that block and
dropped after it; the group keeps the lane's position, so the next block
from the lane continues its stream.  Keeping consumption a pure function of
(prefix, batch size) is what allows two differently-routed runs with shared
keyed streams to be compared for bit-equality.  A (rows, free) block holds
the same doubles in row-major order as its rows drawn one at a time, so a
caller may split a large draw into consecutive blocks (see util.row_blocks)
without changing a bit.

A caller that reads only the first free bits asks for them with levels: the
draw returns those columns, and a tree oracle descends only those levels.
Each prefix still consumes its whole (m, free) uniform block and is charged
m rows, so the columns returned are exactly those of a full draw, and
streams, ledger and results downstream do not change.  A hooked draw still
descends every level, because its transcript records whole rows.

Table and sign trees are immutable and freely shareable; an oracle (with
its mutable ledger) belongs to one logical owner, so concurrent experiments
should each build their own oracle over the shared tree.  A simulation is a
tree too, whose splits never change once revealed, but it owns a mutable
oracle, ledger and store, so it has one owner like an oracle.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .streams import _StreamGroup
from .trees import MarginalTree


class PrefixOracle:
    """Base class for prefix-conditional sampling access to a distribution."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("n must be at least 1")
        self.n = n
        #: conditional draws made so far, m per prefix of each draw
        self.conditional_calls = 0
        #: optional transcript hook; receives one dict per prefix of each draw.
        #: While it is None, draws build no transcript at all.
        self.on_record: Optional[Callable[[dict], None]] = None

    def conditional_sample_batch(self, prefixes: np.ndarray, m: int,
                                 streams: _StreamGroup, levels: int | None = None) -> np.ndarray:
        """m independent conditional draws under each row of a (k, depth) 0/1 array.

        Returns the first levels free bits, all n - depth of them when levels
        is None, shape (k * m, levels) as uint8; rows j * m to (j + 1) * m
        are prefix j's, drawn from its own lane j of the stream group.
        """
        raise NotImplementedError

    def _validated(self, prefixes, m: int, streams: _StreamGroup,
                   levels: int | None) -> tuple[np.ndarray, int]:
        """The prefixes as a (k, depth) uint8 array and the free levels to return, once the arguments check out."""
        prefixes = np.asarray(prefixes)
        if (prefixes.ndim != 2 or prefixes.shape[1] >= self.n or len(streams) != len(prefixes)
                or ((prefixes != 0) & (prefixes != 1)).any()):
            raise ValueError(f"need a (k, depth < {self.n}) 0/1 prefix array and a stream per prefix")
        if m < 1:
            raise ValueError("batch size must be positive")
        free = self.n - prefixes.shape[1]
        if levels is None:
            levels = free
        elif not 1 <= levels <= free:
            raise ValueError(f"levels must be between 1 and the {free} free levels")
        return prefixes.astype(np.uint8, copy=False), levels

    def _charge(self, prefixes: np.ndarray, m: int, out: np.ndarray) -> np.ndarray:
        """Charge the rows of the drawn block out, record m per prefix if hooked, and return out."""
        before = self.conditional_calls
        self.conditional_calls += len(out)
        if self.on_record is not None:
            for j, w in enumerate("".join(map(str, bits)) for bits in prefixes.tolist()):
                self.on_record({"kind": "conditional", "prefix": w, "count": m,
                                "result": ["".join(map(str, row)) for row in out[j * m:(j + 1) * m].tolist()],
                                "budget_after": before + m * (j + 1)})
        return out


class TreeOracle(PrefixOracle):
    """Synthetic oracle backed by an explicit marginal tree.

    Conditioning on a zero-mass prefix is mathematically undefined; this
    oracle returns a uniform sample over the requested cylinder in that case,
    so that algorithms built on top remain total.  The convention consumes
    the same amount of randomness as a regular draw.
    """

    def __init__(self, tree: MarginalTree):
        super().__init__(tree.n)
        self.tree = tree

    def conditional_sample_batch(self, prefixes: np.ndarray, m: int,
                                 streams: _StreamGroup, levels: int | None = None) -> np.ndarray:
        """Walks all prefixes to their start nodes and masses at once, then descends all rows.

        The rows descend the levels returned, or every level when hooked;
        the first free level's marginal is read once per prefix.
        """
        prefixes, levels = self._validated(prefixes, m, streams, levels)
        k, depth = prefixes.shape
        u = np.empty((k * m, self.n - depth))
        for j in range(k):
            streams.random(j, out=u[j * m:(j + 1) * m])
        walked = u.shape[1] if self.on_record is not None else levels
        mass = np.ones(k)
        h = self.tree.walk(prefixes, p=mass)
        out = np.empty((k * m, walked), dtype=np.uint8)
        out[:, 0] = u[:, 0] < np.repeat(self.tree._split(depth, h)[0], m)
        if walked > 1:
            self.tree.walk(out[:, 1:], u[:, 1:walked], depth=depth + 1,
                           h=self.tree._child(np.repeat(h, m), out[:, 0]))
        dead = mass == 0.0
        if dead.any():
            dead = np.repeat(dead, m)
            out[dead] = u[dead, :walked] < 0.5
        return self._charge(prefixes, m, out)[:, :levels]
