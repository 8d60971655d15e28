"""Sampling oracles over hidden distributions on {0,1}^n.

The only draw is prefix-conditional: a call returns a block of elements
agreeing with the requested prefix (their free bits); there is no marginal
or one-element draw.  Every oracle owns a budget ledger that counts draws
and is never reset implicitly.

Draw discipline: a conditional draw consumes one uniform block of shape
(batch, free-levels) from the supplied stream and walks the levels using one
column per level.  Keeping consumption a pure function of (prefix, batch
size) is what allows two differently-routed runs with shared keyed streams to
be compared for bit-equality.  A (rows, free) block holds the same doubles
in row-major order as its rows drawn one at a time, so a caller may split a
large draw into consecutive blocks (see util.row_blocks) without changing a bit.

Trees are immutable and freely shareable; an oracle (with its mutable
budget) belongs to one logical owner, so concurrent experiments should each
build their own oracle over the shared tree.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .bits import Prefix, PrefixLike, as_prefix
from .streams import RandomStream
from .trees import MarginalTree

@dataclass
class SampleBudget:
    """Monotone ledger of oracle usage."""

    conditional_calls: int = 0
    per_prefix: Optional[Counter] = None

    @classmethod
    def tracking(cls) -> "SampleBudget":
        """A budget that also keeps a per-prefix histogram of draws."""
        return cls(per_prefix=Counter())

    def charge_conditional(self, prefix: str, count: int = 1) -> None:
        if count < 0:
            raise ValueError("cannot charge a negative count")
        self.conditional_calls += count
        if self.per_prefix is not None:
            self.per_prefix[prefix] += count


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

    def conditional_sample_batch(self, w: PrefixLike, m: int, rng: RandomStream) -> np.ndarray:
        """m independent conditional draws; returns the free bits, shape (m, n - |w|)."""
        raise NotImplementedError

    def _charge(self, wp: Prefix, out: np.ndarray) -> np.ndarray:
        """Charge the rows of the drawn block out to wp, record them, and return out."""
        self.budget.charge_conditional(wp.as_str(), len(out))
        if self.on_record is not None:
            self.on_record({"kind": "conditional", "prefix": wp.as_str(), "count": len(out),
                            "result": ["".join(map(str, row)) for row in out.tolist()],
                            "budget_after": self.budget.conditional_calls})
        return out


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
            return self._charge(wp, (u < 0.5).astype(np.uint8))
        return self._charge(wp, self.tree.descend(wp.bits, u))
