"""Acceptance criteria for the whole package.

One test per advertised guarantee, each enforcing its stated tolerance and
printing one PASS line (run with -s to see them).  Statistical gates carry
their derivation in comments; exact gates assert bit- or rational-equality.
"""

import math
from fractions import Fraction
from itertools import product

import numpy as np

from prefixsim import adhoc, divergence_lab as lab, hardness
from prefixsim.bits import code_rows
from prefixsim.divergence_lab import kl_divergence, tv_distance
from prefixsim.distance import estimate_tv, simulation_delta
from prefixsim.oracles import TreeOracle
from prefixsim.reduction import AdaptedPrefixOracle, TableIntervalOracle, encoded_marginal_tree
from prefixsim.simulation import LazySimulation, preprocess, samples_per_edge
from prefixsim.streams import child_seed, substream
from prefixsim.trees import random_tree

from helpers import edge, hist, lane, prefix_counts, query_exact


def report(criterion: str, text: str) -> None:
    print(f"{criterion} PASS: {text}")


def test_ac1_edge_estimate_divergence_bound():
    # exact enumeration over all m in 1..64 and p on a 0.01 grid
    worst = {}
    for m in range(1, 65):
        values = [lab.expected_binomial_kl(m, round(p * 0.01, 2)) for p in range(101)]
        worst[m] = max(values)
        assert worst[m] <= 1.0 / m + 1e-12, f"bound broken at m={m}"
        if m in (1, 2):
            # equality case sits at p = 1/2
            assert int(np.argmax(values)) == 50
            assert worst[m] == 1.0 / m or abs(worst[m] - 1.0 / m) <= 1e-12
    report("AC-1", f"expected estimate divergence <= 1/m on the full grid "
                   f"(max m*value = {max(m * v for m, v in worst.items()):.6f})")


def test_ac2_learning_accuracy():
    runs = 300
    lines = []
    for n in (4, 6, 8):
        for delta in (0.1, 0.25):
            kls = []
            for i in range(runs):
                tree = random_tree(n, substream(20_000, "tree", n, delta, i), 0.2, 0.8)
                learned = preprocess(n, TreeOracle(tree), delta,
                                     seed=child_seed(20_001, n, delta, i))
                kls.append(kl_divergence(learned, tree))
            mean = float(np.mean(kls))
            se = float(np.std(kls, ddof=1)) / math.sqrt(runs)
            assert mean <= delta + 3.0 * se, f"mean KL {mean} above {delta} + 3*{se} (n={n})"
            lines.append(f"n={n} delta={delta}: mean={mean:.4f}")
    report("AC-2", "; ".join(lines))


def test_ac3_lazy_eager_coupling():
    total_ops = 0
    for n in (4, 6, 8):
        for delta in (0.5, 0.25):
            seed = child_seed(30_000, n, delta)
            tree = random_tree(n, substream(30_001, "tree", n, delta), 0.2, 0.8)
            eager = preprocess(n, TreeOracle(tree), delta, seed)
            lazy = LazySimulation(n, TreeOracle(tree), delta, seed)
            user = substream(seed, "user")
            script = substream(30_002, "script", n, delta)
            for _ in range(170):
                total_ops += 1
                if script.random() < 0.5:
                    x = tuple(script.integers(0, 2, n))
                    assert eager.query(x) == lazy.query(x)
                else:
                    assert eager.sample(user) == lazy.sample()
            for (w, b), est in hist(lazy).items():
                assert est == edge(eager, w, b)
    assert total_ops >= 1000
    report("AC-3", f"lazy and eager bit-identical over {total_ops} interleaved ops")


def test_ac4_cost_accounting():
    n, delta = 10, 0.5
    m = samples_per_edge(n, delta)
    oracle = TreeOracle(random_tree(n, substream(40_000, "tree"), 0.2, 0.8))
    records = []
    oracle.on_record = records.append
    sim = LazySimulation(n, oracle, delta, seed=40_001)

    assert oracle.conditional_calls == 0
    sim.query("0011010110")
    assert oracle.conditional_calls == n * m  # fresh path: equality
    sim.query("0011010110")
    assert oracle.conditional_calls == n * m  # repeat costs nothing
    sim.query("0011010111")
    assert oracle.conditional_calls == n * m  # sibling pairs shared
    for _ in range(25):
        sim.sample()
    assert oracle.conditional_calls == m * sim.touched_pairs
    # per prefix: each touched pair's prefix charged exactly m, no other prefix charged
    assert prefix_counts(records) == {w: m for w, _ in hist(sim)}
    report("AC-4", f"fresh query = {n}*{m} samples, repeats free, ledger = m * pairs, per prefix")


def test_ac5_tester_error_rates():
    delta, r, n, trials = 0.3, 1.0 / 13.0, 3000, 300
    accepts = rejects = 0
    for t in range(trials):
        balanced = adhoc.gen_instance(n, delta, 0.0, substream(50_000, "bal", t))
        if adhoc.run_ad_hoc_tester(balanced, delta, r, substream(50_001, "bal", t)).accepted:
            accepts += 1
        tilted = adhoc.gen_instance(n, delta, r, substream(50_000, "tilt", t))
        if not adhoc.run_ad_hoc_tester(tilted, delta, r, substream(50_001, "tilt", t)).accepted:
            rejects += 1
    accept_rate = accepts / trials
    reject_rate = rejects / trials
    # guarantee is 2/3; gate at 0.6 = 2/3 minus three binomial sigmas
    assert accept_rate >= 0.6, f"accept rate {accept_rate}"
    assert reject_rate >= 0.6, f"reject rate {reject_rate}"
    report("AC-5", f"accept rate {accept_rate:.3f}, reject rate {reject_rate:.3f} over {trials} trials")


def test_ac6_distance_estimation_end_to_end():
    n, epsilon, runs = 4, 0.1, 100
    delta = simulation_delta(epsilon)
    m = samples_per_edge(n, delta)
    assert m == 14400  # ceil(36 n / eps^2)
    hits = 0
    for t in range(runs):
        rng = substream(60_000, "trees", t)
        tree_a = random_tree(n, rng, 0.1, 0.9)
        tree_b = random_tree(n, rng, 0.1, 0.9)
        sim_a = LazySimulation(n, TreeOracle(tree_a), delta, child_seed(60_001, "a", t))
        sim_b = LazySimulation(n, TreeOracle(tree_b), delta, child_seed(60_001, "b", t))
        result = estimate_tv(sim_a, sim_b, epsilon)
        if abs(result.estimate - tv_distance(tree_a, tree_b)) <= epsilon:
            hits += 1
        # the ledger must equal the closed-form per-pair cost exactly
        assert sim_a.oracle.conditional_calls == m * sim_a.touched_pairs
        assert sim_b.oracle.conditional_calls == m * sim_b.touched_pairs
        assert sim_a.touched_pairs <= (1 << n) - 1
        assert sim_b.touched_pairs <= (1 << n) - 1
    assert hits >= math.ceil(2 * runs / 3), f"only {hits}/{runs} within epsilon"
    report("AC-6", f"{hits}/{runs} estimates within {epsilon}; ledger = {m} * touched pairs")


def test_ac7_realization():
    n, delta = 10, 0.5
    sim = LazySimulation(n, TreeOracle(random_tree(n, substream(70_000, "tree"))),
                         delta, seed=70_001)
    exact_total = Fraction(0)
    float_total = 0.0
    for x in code_rows(np.arange(1 << n), n):
        exact_total += query_exact(sim, x)
        float_total += sim.query(x)
    assert exact_total == Fraction(1)
    assert abs(float_total - 1.0) <= 1e-9
    report("AC-7", f"all 2^{n} simulated masses sum to 1 exactly (float drift "
                   f"{abs(float_total - 1.0):.2e})")


def test_ac8_divergence_lemma_sweep():
    reports = lab.run_lemma_sweep(10_000, seed=80_000)
    core = {"bounded-ratio-kl", "symmetric-chi-square", "half-mixture-bias",
            "nonadaptive-run-kl", "pinsker"}
    names = {r.name for r in reports}
    assert core <= names
    for r in reports:
        assert r.violations == 0, f"{r.name} violated {r.violations} times"
    report("AC-8", f"{len(reports)} checkers x 10^4 instances, zero violations")


def test_ac9_off_path_signs_posterior():
    n = 3
    delta = Fraction(1, 5)
    r = Fraction(1, 4)
    prefixes = [bits for length in range(n) for bits in product((0, 1), repeat=length)]
    for label in ("yes", "no"):
        for x in product((0, 1), repeat=n):
            path = {x[:i] for i in range(n)}
            off = [w for w in prefixes if w not in path]
            posterior: dict = {}
            total = Fraction(0)
            for signs in product((1, -1), repeat=len(prefixes)):
                assign = dict(zip(prefixes, signs))
                weight = Fraction(1, 2 ** len(prefixes))
                if label == "yes":
                    weight *= Fraction(1, 2 ** n)
                else:
                    for i in range(n):
                        f = hardness.tilt_marginal(assign[x[:i]], r)
                        weight *= f if x[i] else (1 - f)
                key = tuple(assign[w] for w in off)
                posterior[key] = posterior.get(key, Fraction(0)) + weight
                total += weight
            assert len(posterior) == 2 ** len(off)
            for mass in posterior.values():
                assert mass / total == Fraction(1, 2 ** len(off))
        # challenge marginals themselves take only the two allowed values
        for s in (1, -1):
            assert hardness.challenge_marginal(s, delta) in ((1 + delta) / 2, (1 - delta) / 2)
    report("AC-9", "off-path signs exactly uniform and independent given x, both labels")


def test_ac10_effective_samples():
    n, epsilon, draws = 30, 0.1, 100_000
    inst = hardness.gen_hard_instance(n, epsilon, "yes", seed=100_000)
    oracle = inst.oracle()
    counts = hardness.effective_samples(oracle, "", inst.x, lane(100_001, "draws"), draws)
    mean = counts.mean()
    se = counts.std(ddof=1) / math.sqrt(draws)
    assert mean <= 3.0
    sharper = 2.0 / (1.0 - inst.delta) + 4.0 * se
    assert mean <= sharper, f"mean {mean} above the sharper band {sharper}"
    assert oracle.conditional_calls == draws
    report("AC-10", f"mean effective count {mean:.4f} <= 3 (sharper band {sharper:.4f})")


def test_ac11_threshold_gap_sweep():
    n_grid = np.unique(np.round(np.logspace(2, 8, 25)).astype(np.int64))
    eps_grid = np.logspace(-4, math.log10(1.0 / 151.0), 25)
    margins = []
    for n in n_grid:
        for eps in eps_grid:
            margin = hardness.gap_margin(int(n), float(eps))
            assert margin > 0.0, f"gap failed at n={n}, eps={eps}"
            margins.append(margin)
    report("AC-11", f"gap strictly positive on {len(margins)} grid points "
                    f"(min margin {min(margins):.3e})")


def test_ac12_interval_reduction_coupling():
    size = 8
    weights = substream(120_000, "weights").uniform(0.05, 1.0, size)
    seed = child_seed(120_001, "sim")
    native = TableIntervalOracle(weights)
    adapted_oracle = AdaptedPrefixOracle(native)
    direct_oracle = TreeOracle(encoded_marginal_tree(weights))
    direct = LazySimulation(adapted_oracle.n, direct_oracle, 0.25, seed)
    adapted = LazySimulation(adapted_oracle.n, adapted_oracle, 0.25, seed)

    for x in code_rows(np.arange(size), adapted_oracle.n):
        assert direct.query(x) == adapted.query(x)
    for _ in range(50):
        assert direct.sample() == adapted.sample()
    assert hist(direct) == hist(adapted)
    assert direct_oracle.conditional_calls == adapted_oracle.conditional_calls
    assert native.calls == adapted_oracle.conditional_calls
    report("AC-12", f"adapter pipeline bit-identical on N={size} "
                    f"({native.calls} coupled native draws)")
