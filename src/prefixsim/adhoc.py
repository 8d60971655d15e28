"""The per-index Bernoulli distinguishing task and its Poissonized tester.

An instance hides a vector p_1..p_n of Bernoulli parameters; one step of an
algorithm picks an index and receives one Ber(p_i) bit.  The planted family
D_n(delta, r) draws each p_i independently as (1-delta)/2 with probability
(1+r)/2 and (1+delta)/2 otherwise, so r = 0 gives a sign-balanced vector and
r > 0 tilts it toward the low value.  The tester distinguishes the two at
expected cost O(1 / (r^2 delta^2)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapabilityError
from .streams import RandomStream
from .util import ceil_snap


class AdHocInstance:
    """A hidden probability vector with per-index draw counters."""

    def __init__(self, probabilities):
        p = np.asarray(probabilities, dtype=float)
        if p.ndim != 1 or p.size < 1:
            raise ValueError("need a non-empty 1-d probability vector")
        if np.any((p < 0.0) | (p > 1.0)):
            raise ValueError("entries must be probabilities")
        self._p = p
        self._p.setflags(write=False)
        self.n = p.size
        self.draws = np.zeros(self.n, dtype=np.int64)

    @property
    def probabilities(self) -> np.ndarray:
        """Read-only view of the hidden vector (for verification, not testers)."""
        return self._p

    @property
    def total_draws(self) -> int:
        return int(self.draws.sum())

    def sample_many(self, counts, rng: RandomStream) -> np.ndarray:
        """Per-index ones among counts[i] draws of index i+1; bulk counters."""
        c = np.asarray(counts, dtype=np.int64)
        if c.ndim != 1 or c.size > self.n or np.any(c < 0):
            raise ValueError("counts must be non-negative and cover at most n indexes")
        self.draws[: c.size] += c
        return rng.binomial(c, self._p[: c.size])


def _validate_family(delta: float, r: float) -> None:
    if not 0.0 <= delta < 1.0 / 3.0:
        raise ValueError(f"delta must satisfy 0 <= delta < 1/3, got {delta}")
    if not 0.0 <= r < 1.0 / 12.0:
        raise ValueError(f"r must satisfy 0 <= r < 1/12, got {r}")


def gen_instance(n: int, delta: float, r: float, rng: RandomStream) -> AdHocInstance:
    """Draw an instance from D_n(delta, r).

    Each p_i is independently (1-delta)/2 with probability (1+r)/2 and
    (1+delta)/2 otherwise.  delta = 0 collapses both values to 1/2 and is
    allowed for plumbing tests.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    _validate_family(delta, r)
    low = (1.0 - delta) / 2.0
    high = (1.0 + delta) / 2.0
    pick_low = rng.random(n) < (1.0 + r) / 2.0
    return AdHocInstance(np.where(pick_low, low, high))


def tester_parameters(delta: float, r: float) -> tuple[int, float, float]:
    """(n', q, acceptance threshold) used by the tester.

    n' = ceil(15 / r^2) indexes, q = 10 / delta^2 expected draws per index;
    the threshold sits midway between the balanced mean q n'/2 and the tilted
    mean (1 - r delta) q n'/2, i.e. at (1 - r delta / 2) q n' / 2.
    """
    if not delta > 0.0:
        raise ValueError("the tester needs delta > 0")
    if not r > 0.0:
        raise ValueError("the tester needs r > 0")
    n_prime = ceil_snap(15.0 / (r * r))
    q = 10.0 / (delta * delta)
    threshold = (1.0 - r * delta / 2.0) / 2.0 * q * n_prime
    return n_prime, q, threshold


@dataclass
class TesterResult:
    accepted: bool
    ones: int
    loop_count: int
    threshold: float
    n_prime: int
    q: float

    @property
    def verdict(self) -> str:
        return "accept" if self.accepted else "reject"


def run_ad_hoc_tester(inst: AdHocInstance, delta: float, r: float,
                      rng: RandomStream) -> TesterResult:
    """Accept balanced-looking instances, reject low-tilted ones.

    Samples a uniformly chosen index Poi(n' q) times in total and accepts
    iff the number of ones reaches the threshold.  Implemented through the
    equivalent Poisson split: per-index draw counts are independent Poi(q),
    which is exactly the law of uniform routing with a Poi(n' q) total.
    """
    _validate_family(delta, r)
    n_prime, q, threshold = tester_parameters(delta, r)
    if inst.n < n_prime:
        raise CapabilityError(f"tester needs at least n' = {n_prime} indexes, instance has {inst.n}")
    counts = rng.poisson(q, n_prime)
    ones = int(inst.sample_many(counts, rng).sum())
    return TesterResult(
        accepted=ones >= threshold,
        ones=ones,
        loop_count=int(counts.sum()),
        threshold=threshold,
        n_prime=n_prime,
        q=q,
    )
