"""Sampling oracles over hidden distributions on {0,1}^n.

A prefix-conditional draw returns a full element agreeing with the requested
prefix; a marginal draw returns only the first free bit.  Every oracle owns a
budget ledger that counts draws and is never reset implicitly.

Draw discipline: a conditional draw consumes one uniform block of shape
(batch, free-levels) from the supplied stream and walks the levels using one
column per level.  Keeping consumption a pure function of (prefix, batch
size) is what allows two differently-routed runs with shared keyed streams to
be compared for bit-equality.

Trees are immutable and freely shareable; an oracle (with its mutable
budget) belongs to one logical owner, so concurrent experiments should each
build their own oracle over the shared tree.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .bits import BitString, PrefixLike, as_prefix
from .streams import RandomStream
from .trees import MarginalTree


@dataclass
class SampleBudget:
    """Monotone ledger of oracle usage."""

    conditional_calls: int = 0
    marginal_calls: int = 0
    per_prefix: Optional[Counter] = None

    @classmethod
    def tracking(cls) -> "SampleBudget":
        """A budget that also keeps a per-prefix histogram of draws."""
        return cls(per_prefix=Counter())

    @property
    def total(self) -> int:
        return self.conditional_calls + self.marginal_calls

    def charge_conditional(self, prefix: str, count: int = 1) -> None:
        if count < 0:
            raise ValueError("cannot charge a negative count")
        self.conditional_calls += count
        if self.per_prefix is not None:
            self.per_prefix[prefix] += count

    def charge_marginal(self, prefix: str, count: int = 1) -> None:
        if count < 0:
            raise ValueError("cannot charge a negative count")
        self.marginal_calls += count
        if self.per_prefix is not None:
            self.per_prefix[prefix] += count

    def snapshot(self) -> dict:
        return {
            "conditional_calls": self.conditional_calls,
            "marginal_calls": self.marginal_calls,
        }


class PrefixOracle:
    """Base class for prefix-conditional sampling access to a distribution."""

    def __init__(self, n: int, budget: SampleBudget | None = None):
        if n < 1:
            raise ValueError("n must be at least 1")
        self.n = n
        self.budget = budget if budget is not None else SampleBudget()
        #: optional transcript hook; receives one dict per oracle call.  While it
        #: is None, draws build no transcript at all.
        self.on_record: Optional[Callable[[dict], None]] = None

    def conditional_sample(self, w: PrefixLike, rng: RandomStream) -> BitString:
        """One draw from the hidden distribution conditioned on the prefix w."""
        bits = self.conditional_sample_batch(w, 1, rng)[0]
        wp = as_prefix(self.n, w)
        return BitString(wp.bits + tuple(int(b) for b in bits))

    def conditional_sample_batch(self, w: PrefixLike, m: int, rng: RandomStream) -> np.ndarray:
        """m independent conditional draws; returns the free bits, shape (m, n - |w|)."""
        raise NotImplementedError

    def marginal_sample(self, w: PrefixLike, rng: RandomStream) -> int:
        """One draw of only the first free bit after the prefix w."""
        raise NotImplementedError

    def _record(self, record: dict) -> None:
        if self.on_record is not None:
            record["budget_after"] = self.budget.total
            self.on_record(record)


class TreeOracle(PrefixOracle):
    """Synthetic oracle backed by an explicit marginal tree.

    Conditioning on a zero-mass prefix is mathematically undefined; this
    oracle returns a uniform sample over the requested cylinder in that case,
    so that algorithms built on top remain total.  The convention consumes
    the same amount of randomness as a regular draw.
    """

    def __init__(self, tree: MarginalTree, budget: SampleBudget | None = None):
        super().__init__(tree.n, budget)
        self.tree = tree

    def conditional_sample_batch(self, w: PrefixLike, m: int, rng: RandomStream) -> np.ndarray:
        wp = as_prefix(self.n, w)
        if m < 1:
            raise ValueError("batch size must be positive")
        u = rng.random((m, self.n - wp.depth))
        if self.tree.conditional_mass(wp) == 0.0:
            out = (u < 0.5).astype(np.uint8)
        else:
            out = self.tree.descend(wp.bits, u)
        self.budget.charge_conditional(wp.as_str(), m)
        if self.on_record is not None:
            self._record({"kind": "conditional", "prefix": wp.as_str(), "count": m,
                          "result": ["".join(map(str, row)) for row in out.tolist()]})
        return out

    def marginal_sample(self, w: PrefixLike, rng: RandomStream) -> int:
        wp = as_prefix(self.n, w)
        if self.tree.conditional_mass(wp) == 0.0:
            bit = 1 if rng.random() < 0.5 else 0
        else:
            bit = 1 if rng.random() < self.tree.marginal_bits(wp.bits) else 0
        self.budget.charge_marginal(wp.as_str(), 1)
        self._record({"kind": "marginal", "prefix": wp.as_str(), "count": 1, "result": bit})
        return bit
