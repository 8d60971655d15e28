"""Total-variation distance estimation from two simulations.

The estimator draws pairs (x, p_a(x)) from the first simulation, queries the
same x in the second, and averages max(0, 1 - p_b(x) / p_a(x)).  For exact
masses the expectation of that statistic over x ~ a is exactly d_TV(a, b),
so feeding it (D_KL, eps^2/36)-accurate simulations gives an additive-eps
estimate with constant probability; a median over independent rounds
amplifies the success probability.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

import numpy as np

from .simulation import LazySimulation
from .trees import MarginalTree
from .util import ceil_snap

#: Most pairs drawn and cross-queried at once, so a round's arrays stay
#: bounded at any epsilon.
PAIR_BLOCK = 4096


@dataclass
class TvEstimate:
    estimate: float
    epsilon: float
    rounds: int
    pairs_per_round: int
    round_values: list[float] = field(default_factory=list)
    budget_a: int = 0
    budget_b: int = 0


def simulation_delta(epsilon: float) -> float:
    """Per-simulation KL accuracy feeding the distance pipeline: eps^2 / 36."""
    delta = epsilon * epsilon / 36.0
    if not 0.0 < epsilon < 1.0 or delta == 0.0:
        raise ValueError(f"epsilon must be in (0, 1) with epsilon^2 / 36 > 0, got {epsilon}")
    return delta


def estimate_tv(sim_a: LazySimulation, sim_b: LazySimulation, epsilon: float, *,
                scale: float = 16.0, rounds: int = 9) -> TvEstimate:
    """Estimate d_TV between the two simulated distributions within +-epsilon.

    Runs `rounds` independent repetitions of ceil(scale / epsilon^2) draws
    from sim_a, each cross-queried in sim_b, and returns the median of the
    per-round plug-in averages, clamped to [0, 1].  All sampling randomness
    flows through the simulations' own streams; budget_a and budget_b are
    the conditional samples each simulation's oracle drew during the call.

    Each round draws its pairs in blocks of at most PAIR_BLOCK with
    sample_batch and cross-queries them with query_batch; the block size
    changes no result, since both walks equal their one-row calls bit for
    bit and the terms are added one by one in draw order.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must be in (0, 1)")
    if rounds < 1 or scale <= 0.0:
        raise ValueError("need at least one round and a positive scale")
    pairs = ceil_snap(scale / (epsilon * epsilon))
    before_a = sim_a.oracle.budget.conditional_calls
    before_b = sim_b.oracle.budget.conditional_calls
    round_values = []
    for _ in range(rounds):
        acc = 0.0
        for start in range(0, pairs, PAIR_BLOCK):
            x, pa = sim_a.sample_batch(min(PAIR_BLOCK, pairs - start))
            pb = sim_b.query_batch(x)
            if not (pa > 0.0).all():
                raise RuntimeError("drawn element reported non-positive mass; simulation is inconsistent")
            # one pair at a time, in draw order, as a scalar loop would add them
            for value in np.maximum(0.0, 1.0 - pb / pa).tolist():
                acc += value
        round_values.append(min(1.0, max(0.0, acc / pairs)))
    return TvEstimate(
        estimate=float(statistics.median(round_values)),
        epsilon=epsilon,
        rounds=rounds,
        pairs_per_round=pairs,
        round_values=round_values,
        budget_a=sim_a.oracle.budget.conditional_calls - before_a,
        budget_b=sim_b.oracle.budget.conditional_calls - before_b,
    )


def one_sided_expectation(a: MarginalTree, b: MarginalTree) -> float:
    """Exact E_{x ~ a}[max(0, 1 - b(x)/a(x))], by enumeration.

    Equals sum_x max(0, a(x) - b(x)) = d_TV(a, b); the identity behind the
    plug-in estimator, kept as an independent check.
    """
    pa = a.masses()
    pb = b.masses()
    diff = pa - pb
    return float(diff[diff > 0].sum())
