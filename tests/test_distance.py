import math

import numpy as np
import pytest

from prefixsim import util
from prefixsim.distance import estimate_tv, simulation_delta
from prefixsim.divergence_lab import tv_distance
from prefixsim.oracles import TreeOracle
from prefixsim.simulation import LazySimulation, preprocess
from prefixsim.streams import child_seed, substream
from prefixsim.trees import random_tree
from prefixsim.util import ceil_snap

from helpers import one_sided_expectation, point_mass_tree


def lazy_pair(tree_a, tree_b, epsilon, seed):
    delta = simulation_delta(epsilon)
    sim_a = LazySimulation(tree_a.n, TreeOracle(tree_a), delta, child_seed(seed, "a"))
    sim_b = LazySimulation(tree_b.n, TreeOracle(tree_b), delta, child_seed(seed, "b"))
    return sim_a, sim_b


def test_simulation_delta():
    assert simulation_delta(0.3) == pytest.approx(0.09 / 36.0)
    with pytest.raises(ValueError):
        simulation_delta(1.0)
    with pytest.raises(ValueError):
        simulation_delta(1e-170)   # eps^2 / 36 underflows to 0


def test_same_state_estimates_zero():
    tree = random_tree(4, substream(1, "t"), 0.2, 0.8)
    sim = LazySimulation(4, TreeOracle(tree), 0.01, seed=5)
    result = estimate_tv(sim, sim, 0.3, rounds=3)
    assert result.estimate == 0.0


def test_distinct_point_masses_estimate_one():
    a, b = lazy_pair(point_mass_tree("0000"), point_mass_tree("1111"), 0.3, seed=6)
    result = estimate_tv(a, b, 0.3, rounds=3)
    assert result.estimate == 1.0


@pytest.mark.parametrize("seed", range(8))
def test_one_sided_expectation_equals_tv(seed):
    rng = substream(seed, "pair")
    n = int(rng.integers(2, 9))
    a = random_tree(n, rng)
    b = random_tree(n, rng)
    assert one_sided_expectation(a, b) == pytest.approx(tv_distance(a, b), abs=1e-12)


def test_end_to_end_accuracy_small():
    epsilon = 0.2
    hits = 0
    trials = 20
    for t in range(trials):
        rng = substream(40, "trees", t)
        tree_a = random_tree(3, rng, 0.1, 0.9)
        tree_b = random_tree(3, rng, 0.1, 0.9)
        sim_a, sim_b = lazy_pair(tree_a, tree_b, epsilon, seed=child_seed(41, t))
        result = estimate_tv(sim_a, sim_b, epsilon)
        if abs(result.estimate - tv_distance(tree_a, tree_b)) <= epsilon:
            hits += 1
    assert hits >= (2 * trials) // 3


def test_both_divergences_usually_small():
    # feeding delta = eps^2/36 keeps each learned distribution's divergence
    # below (2/9) eps^2 except with probability 1/8 per side, so both land
    # below in at least (7/8)^2 of runs; gate with a 3 sigma binomial slack
    epsilon, runs, n = 0.1, 60, 4
    delta = simulation_delta(epsilon)
    cutoff = 2.0 * epsilon * epsilon / 9.0
    both_small = 0
    for t in range(runs):
        rng = substream(80, "trees", t)
        tree_a = random_tree(n, rng, 0.2, 0.8)
        tree_b = random_tree(n, rng, 0.2, 0.8)
        from prefixsim.divergence_lab import kl_divergence

        learned_a = preprocess(n, TreeOracle(tree_a), delta, child_seed(81, "a", t))
        learned_b = preprocess(n, TreeOracle(tree_b), delta, child_seed(81, "b", t))
        if (kl_divergence(learned_a, tree_a) <= cutoff
                and kl_divergence(learned_b, tree_b) <= cutoff):
            both_small += 1
    target = (7.0 / 8.0) ** 2
    slack = 3.0 * (target * (1.0 - target) / runs) ** 0.5
    assert both_small / runs >= target - slack


def test_budgets_and_record_fields():
    tree_a = random_tree(3, substream(50, "a"), 0.2, 0.8)
    tree_b = random_tree(3, substream(50, "b"), 0.2, 0.8)
    sim_a, sim_b = lazy_pair(tree_a, tree_b, 0.4, seed=51)
    result = estimate_tv(sim_a, sim_b, 0.4, rounds=3)
    assert result.rounds == 3
    assert result.pairs_per_round == 100
    assert len(result.round_values) == 3
    assert result.budget_a == sim_a.oracle.conditional_calls
    assert result.budget_b == sim_b.oracle.conditional_calls
    assert result.budget_a == sim_a.m * sim_a.touched_pairs
    assert result.budget_b == sim_b.m * sim_b.touched_pairs
    assert 0.0 <= result.estimate <= 1.0


def test_preprocessed_handles_work_too():
    tree = random_tree(3, substream(60, "t"), 0.2, 0.8)
    learned = preprocess(3, TreeOracle(tree), 0.05, seed=61)
    result = estimate_tv(learned, learned, 0.3, rounds=3)
    assert result.estimate == 0.0
    assert result.budget_a == 0


def test_parameter_validation():
    tree = random_tree(3, substream(70, "t"))
    sim = LazySimulation(3, TreeOracle(tree), 0.1, seed=71)
    with pytest.raises(ValueError):
        estimate_tv(sim, sim, 0.0)
    with pytest.raises(ValueError):
        estimate_tv(sim, sim, 0.3, rounds=0)


def test_no_pairs_per_round_rejected():
    # scale / eps^2 = 4e-12 snaps to 0 pairs, which would leave a round's average 0 / 0
    tree = random_tree(2, substream(72, "t"))
    sim = LazySimulation(2, TreeOracle(tree), 0.1, seed=73)
    with pytest.raises(ValueError):
        estimate_tv(sim, sim, 0.5, scale=1e-12)
    assert sim.oracle.conditional_calls == 0


def scalar_estimate_tv(sim_a, sim_b, epsilon, scale=16.0, rounds=9):
    """The estimator as one pair at a time: scalar sample, scalar query, running sum."""
    pairs = ceil_snap(scale / (epsilon * epsilon))
    before_a = sim_a.oracle.conditional_calls
    before_b = sim_b.oracle.conditional_calls
    round_values = []
    for _ in range(rounds):
        acc = 0.0
        for _ in range(pairs):
            x, pa = sim_a.sample()
            pb = sim_b.query(x)
            acc += max(0.0, 1.0 - pb / pa)
        round_values.append(min(1.0, max(0.0, acc / pairs)))
    return (round_values,
            sim_a.oracle.conditional_calls - before_a,
            sim_b.oracle.conditional_calls - before_b)


@pytest.mark.parametrize("n, epsilon, seed", [(3, 0.4, 90), (4, 0.3, 91), (5, 0.5, 92)])
def test_batched_estimate_equals_scalar_loop(n, epsilon, seed):
    tree_a = random_tree(n, substream(seed, "a"), 0.1, 0.9)
    tree_b = random_tree(n, substream(seed, "b"), 0.1, 0.9)
    result = estimate_tv(*lazy_pair(tree_a, tree_b, epsilon, seed), epsilon, rounds=3)
    round_values, budget_a, budget_b = scalar_estimate_tv(
        *lazy_pair(tree_a, tree_b, epsilon, seed), epsilon, rounds=3)
    assert result.round_values == round_values
    assert (result.budget_a, result.budget_b) == (budget_a, budget_b)


def test_one_simulation_on_both_sides_equals_scalar_loop():
    tree = random_tree(4, substream(93, "t"), 0.2, 0.8)
    sims = [LazySimulation(4, TreeOracle(tree), 0.01, seed=94) for _ in range(2)]
    result = estimate_tv(sims[0], sims[0], 0.3, rounds=2)
    round_values, budget_a, _ = scalar_estimate_tv(sims[1], sims[1], 0.3, rounds=2)
    assert result.round_values == round_values == [0.0, 0.0]
    assert result.budget_a == budget_a


def test_block_size_changes_nothing(monkeypatch):
    tree_a = random_tree(4, substream(95, "a"), 0.1, 0.9)
    tree_b = random_tree(4, substream(95, "b"), 0.1, 0.9)
    whole = estimate_tv(*lazy_pair(tree_a, tree_b, 0.3, 96), 0.3, rounds=3)
    assert whole.pairs_per_round * 4 <= util.MAX_BLOCK_UNIFORMS
    monkeypatch.setattr(util, "MAX_BLOCK_UNIFORMS", 7 * 4)
    chunked = estimate_tv(*lazy_pair(tree_a, tree_b, 0.3, 96), 0.3, rounds=3)
    assert chunked == whole


def test_non_positive_mass_is_an_error():
    class ZeroMass(LazySimulation):
        def sample_batch(self, k, rng=None):
            bits, masses = super().sample_batch(k, rng)
            return bits, 0.0 * masses

    tree = random_tree(3, substream(97, "t"), 0.2, 0.8)
    sim = ZeroMass(3, TreeOracle(tree), 0.1, seed=98)
    with pytest.raises(RuntimeError):
        estimate_tv(sim, sim, 0.3, rounds=1)


def test_block_sums_add_left_to_right(monkeypatch):
    # terms 2^-53 and 1.0: a running sum rounds each 2^-53 added to 1 away,
    # so the order of addition changes the result
    tiny = 2.0 ** -53
    terms = [tiny] * 5 + [1.0] + [tiny] * 9 + [0.5] + [tiny] * 8

    answers = iter(1.0 - np.array(terms))

    class Scripted(LazySimulation):
        """Draws elements of mass 1; queries answer 1 - term, so pair i adds terms[i]."""

        def sample_batch(self, k, rng=None):
            return np.zeros((k, self.n), dtype=np.uint8), np.ones(k)

        def query_batch(self, bits):
            return np.array([next(answers) for _ in bits])

    monkeypatch.setattr(util, "MAX_BLOCK_UNIFORMS", 7 * 2)
    sim_a, sim_b = (Scripted(2, TreeOracle(random_tree(2, substream(99, "t"))), 0.5, seed=s) for s in (0, 1))
    result = estimate_tv(sim_a, sim_b, 0.5, scale=len(terms) / 4, rounds=1)
    acc = 0.0
    for term in terms:
        acc += term
    assert result.pairs_per_round == len(terms)
    assert result.round_values == [acc / len(terms)]
    assert acc not in (math.fsum(terms), sum(sorted(terms)))
