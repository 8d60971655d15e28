"""Total-variation distance estimation from two simulations.

The estimator draws pairs (x, p_a(x)) from the first simulation, queries the
same x in the second, and averages max(0, 1 - p_b(x) / p_a(x)).  For exact
masses the expectation of that statistic over x ~ a is exactly d_TV(a, b),
so feeding it (D_KL, eps^2/36)-accurate simulations gives an additive-eps
estimate with constant probability; a median over independent rounds
amplifies the success probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .simulation import LazySimulation
from .util import ceil_snap, row_blocks


@dataclass
class TvEstimate:
    estimate: float
    epsilon: float
    rounds: int
    pairs_per_round: int
    round_values: list[float] = field(default_factory=list)
    budget_a: int = 0
    budget_b: int = 0


def _median(values: list[float]) -> float:
    """The middle value, or the mean of the two middle values, as statistics.median computes them.

    Kept here so that importing the package does not load statistics and,
    with it, fractions and decimal.
    """
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def simulation_delta(epsilon: float) -> float:
    """Per-simulation KL accuracy feeding the distance pipeline: eps^2 / 36."""
    delta = epsilon * epsilon / 36.0
    if not 0.0 < epsilon < 1.0 or delta == 0.0:
        raise ValueError(f"epsilon must be in (0, 1) with epsilon^2 / 36 > 0, got {epsilon}")
    return delta


def pairs_per_round(epsilon: float, scale: float) -> int:
    """ceil(scale / epsilon^2), the pairs estimate_tv draws per round; finite and at least 1."""
    ratio = scale / (epsilon * epsilon) if epsilon * epsilon else math.inf
    if not math.isfinite(ratio):
        raise ValueError(f"scale / epsilon^2 = {ratio} is not finite")
    pairs = ceil_snap(ratio)
    if pairs < 1:
        raise ValueError(f"scale / epsilon^2 = {ratio} rounds to no pairs per round")
    return pairs


def estimate_tv(sim_a: LazySimulation, sim_b: LazySimulation, epsilon: float, *,
                scale: float = 16.0, rounds: int = 9) -> TvEstimate:
    """Estimate d_TV between the two simulated distributions within +-epsilon.

    Runs `rounds` independent repetitions of ceil(scale / epsilon^2) draws
    from sim_a, each cross-queried in sim_b, and returns the median of the
    per-round plug-in averages, clamped to [0, 1].  All sampling randomness
    flows through the simulations' own streams; budget_a and budget_b are
    the conditional samples each simulation's oracle drew during the call.

    Each round draws its pairs in row blocks (util.row_blocks, n uniforms
    a pair) with sample_batch and cross-queries them with query_batch; the
    block size changes no result, since both walks equal their one-row calls
    bit for bit and the terms are added one by one in draw order.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must be in (0, 1)")
    if rounds < 1 or scale <= 0.0:
        raise ValueError("need at least one round and a positive scale")
    pairs = pairs_per_round(epsilon, scale)
    before_a = sim_a.oracle.conditional_calls
    before_b = sim_b.oracle.conditional_calls
    round_values = []
    for _ in range(rounds):
        acc = 0.0
        for size in row_blocks(pairs, sim_a.n):
            x, pa = sim_a.sample_batch(size)
            pb = sim_b.query_batch(x)
            if not (pa > 0.0).all():
                raise RuntimeError("drawn element reported non-positive mass; simulation is inconsistent")
            # one pair at a time, in draw order, as a scalar loop would add them:
            # accumulate adds left to right, so its last entry is that loop's sum
            values = np.maximum(0.0, 1.0 - pb / pa)
            acc = float(np.add.accumulate(np.concatenate(([acc], values)))[-1])
        round_values.append(min(1.0, max(0.0, acc / pairs)))
    return TvEstimate(
        estimate=float(_median(round_values)),
        epsilon=epsilon,
        rounds=rounds,
        pairs_per_round=pairs,
        round_values=round_values,
        budget_a=sim_a.oracle.conditional_calls - before_a,
        budget_b=sim_b.oracle.conditional_calls - before_b,
    )

