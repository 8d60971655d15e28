import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from prefixsim.bits import BitString
from prefixsim.errors import CapabilityError
from prefixsim import util
from prefixsim.oracles import SampleBudget, TreeOracle
from prefixsim.simulation import (
    EdgeEstimate,
    LazySimulation,
    est_simulation_edge,
    preprocess,
    samples_per_edge,
)
from prefixsim.streams import substream
from prefixsim.trees import kl_divergence, point_mass_tree, random_tree, uniform_tree

from helpers import chi2_critical_99, chi_square_stat


class TestSamplesPerEdge:
    @pytest.mark.parametrize("n,delta,expected", [
        (10, 0.5, 20),
        (3, 0.1, 30),
        (4, 0.1, 40),
        (8, 0.25, 32),
        (5, 0.3, 17),   # 16.66... rounds up
    ])
    def test_values(self, n, delta, expected):
        assert samples_per_edge(n, delta) == expected

    def test_validation(self):
        with pytest.raises(ValueError):
            samples_per_edge(3, 0.0)
        with pytest.raises(ValueError):
            samples_per_edge(0, 0.5)


class TestEdgeEstimate:
    @given(st.integers(min_value=1, max_value=200), st.data())
    def test_siblings_sum_to_one_exactly(self, m, data):
        k = data.draw(st.integers(min_value=0, max_value=m))
        est = EdgeEstimate(k, m)
        assert est.exact + est.sibling().exact == Fraction(1)
        assert est.value == k / m

    def test_bounds_validated(self):
        with pytest.raises(ValueError):
            EdgeEstimate(5, 4)
        with pytest.raises(ValueError):
            EdgeEstimate(-1, 4)


class TestEstSimulationEdge:
    def test_point_mass_edge(self):
        oracle = TreeOracle(point_mass_tree("1" * 6))
        est = est_simulation_edge(6, oracle, 0.5, "", 1, substream(0, "e"))
        assert est.k == est.m == 12
        assert est.value == 1.0

    def test_cost_is_exactly_m(self):
        oracle = TreeOracle(uniform_tree(10))
        est_simulation_edge(10, oracle, 0.5, "0101", 0, substream(1, "e"))
        assert oracle.budget.conditional_calls == 20

    def test_binomial_statistics(self):
        # m = 40 per estimate; mean of 500 estimates within 3 sigma
        oracle = TreeOracle(uniform_tree(8))
        repeats = 500
        estimates = [
            est_simulation_edge(8, oracle, 0.2, "", 1, substream(2, "e", i)).value
            for i in range(repeats)
        ]
        m = samples_per_edge(8, 0.2)
        assert m == 40
        band = 3.0 * (0.5 / math.sqrt(m)) / math.sqrt(repeats)
        assert abs(np.mean(estimates) - 0.5) <= band

    def test_same_stream_gives_complementary_counts(self):
        tree = random_tree(6, substream(3, "t"), 0.2, 0.8)
        e1 = est_simulation_edge(6, TreeOracle(tree), 0.4, "01", 1, substream(4, "e"))
        e0 = est_simulation_edge(6, TreeOracle(tree), 0.4, "01", 0, substream(4, "e"))
        assert e1.k + e0.k == e1.m

    def test_blocks_change_nothing(self, monkeypatch):
        # m = 120 rows of 4 free bits under "01"; a cap of 50 uniforms gives 10 blocks of 12
        tree = random_tree(6, substream(5, "t"), 0.2, 0.8)
        whole_oracle = TreeOracle(tree, SampleBudget.tracking())
        whole = est_simulation_edge(6, whole_oracle, 0.05, "01", 1, substream(6, "e"))
        monkeypatch.setattr(util, "MAX_BLOCK_UNIFORMS", 50)
        oracle = TreeOracle(tree, SampleBudget.tracking())
        records = []
        oracle.on_record = records.append
        chunked = est_simulation_edge(6, oracle, 0.05, "01", 1, substream(6, "e"))
        assert chunked == whole
        assert oracle.budget.per_prefix == whole_oracle.budget.per_prefix == {"01": 120}
        assert [r["count"] for r in records] == [12] * 10
        assert max(r["count"] * len(r["result"][0]) for r in records) <= 50


class TestPreprocess:
    def test_total_cost(self):
        oracle = TreeOracle(uniform_tree(3))
        learned = preprocess(3, oracle, 0.5, seed=7)
        m = samples_per_edge(3, 0.5)
        assert oracle.budget.conditional_calls == 7 * m
        assert learned.touched_pairs == 7

    def test_reads_after_preprocess_are_free(self):
        n = 5
        oracle = TreeOracle(random_tree(n, substream(14, "t"), 0.2, 0.8))
        learned = preprocess(n, oracle, 0.5, seed=15)
        assert learned.touched_pairs == (1 << n) - 1
        spent = oracle.budget.conditional_calls
        for v in range(1 << n):
            learned.query(BitString.from_int(v, n))
        for _ in range(50):
            learned.sample()
        learned.edge("0110", 0)
        learned.as_marginal_tree()
        assert oracle.budget.conditional_calls == spent
        assert learned.touched_pairs == (1 << n) - 1

    def test_point_mass_learned_exactly(self):
        tree = point_mass_tree("101")
        learned = preprocess(3, TreeOracle(tree), 0.5, seed=8)
        assert learned.query("101") == 1.0
        assert kl_divergence(learned.as_marginal_tree(), tree) == 0.0

    def test_capability_gate(self):
        with pytest.raises(CapabilityError):
            preprocess(21, TreeOracle(uniform_tree(21)), 0.5, seed=0)

    def test_expected_divergence_bound(self):
        # Monte Carlo check of the learning guarantee at n=4, delta=0.25
        n, delta, runs = 4, 0.25, 120
        kls = []
        for i in range(runs):
            tree = random_tree(n, substream(100, "tree", i), 0.2, 0.8)
            learned = preprocess(n, TreeOracle(tree), delta, seed=200 + i)
            kls.append(kl_divergence(learned.as_marginal_tree(), tree))
        mean = float(np.mean(kls))
        se = float(np.std(kls, ddof=1)) / math.sqrt(runs)
        assert mean <= delta + 3.0 * se


class TestPreprocessedReads:
    def test_realization_exact(self):
        learned = preprocess(4, TreeOracle(random_tree(4, substream(5, "t"))), 0.5, seed=9)
        total = sum(learned.query_exact(BitString(bits)) for bits in product((0, 1), repeat=4))
        assert total == Fraction(1)
        float_total = sum(learned.query(BitString(bits)) for bits in product((0, 1), repeat=4))
        assert abs(float_total - 1.0) < 1e-12

    def test_point_mass_sample(self):
        learned = preprocess(3, TreeOracle(point_mass_tree("011")), 0.5, seed=10)
        x, p = learned.sample(substream(11, "u"))
        assert (x.as_str(), p) == ("011", 1.0)

    def test_sample_frequencies_match_queries(self):
        learned = preprocess(4, TreeOracle(random_tree(4, substream(6, "t"), 0.2, 0.8)),
                             0.5, seed=12)
        draws = 20_000
        bits, _ = learned.sample_batch(draws, substream(13, "u"))
        counts = np.bincount(bits @ (1 << np.arange(3, -1, -1)), minlength=16)
        expected = np.array([
            learned.query(BitString.from_int(v, 4)) for v in range(16)
        ]) * draws
        live = expected > 0
        stat = chi_square_stat(counts, expected)
        assert stat < chi2_critical_99(int(live.sum()) - 1)


class TestLazySimulation:
    def test_init_is_free(self):
        oracle = TreeOracle(uniform_tree(5))
        sim = LazySimulation(5, oracle, 0.5, seed=1)
        assert oracle.budget.conditional_calls == 0
        assert sim.hist == {}

    def test_same_seed_same_behavior(self):
        tree = random_tree(5, substream(20, "t"), 0.2, 0.8)
        sims = [LazySimulation(5, TreeOracle(tree), 0.5, seed=42) for _ in range(2)]
        xs = ["01101", "11000", "01101"]
        assert [sims[0].query(x) for x in xs] == [sims[1].query(x) for x in xs]
        assert sims[0].sample() == sims[1].sample()

    def test_access_edge_memo_and_sibling_rule(self):
        oracle = TreeOracle(uniform_tree(10))
        sim = LazySimulation(10, oracle, 0.5, seed=2)
        first = sim.edge("0110", 0)
        assert oracle.budget.conditional_calls == 20
        again = sim.edge("0110", 0)
        assert again == first
        assert oracle.budget.conditional_calls == 20
        other = sim.edge("0110", 1)
        assert first.exact + other.exact == Fraction(1)
        assert oracle.budget.conditional_calls == 20

    def test_fresh_query_cost_and_ledger(self):
        n, delta = 10, 0.5
        oracle = TreeOracle(random_tree(n, substream(21, "t"), 0.2, 0.8))
        sim = LazySimulation(n, oracle, delta, seed=3)
        m = samples_per_edge(n, delta)

        value = sim.query("0110101101")
        assert oracle.budget.conditional_calls == n * m
        assert sim.query("0110101101") == value
        assert oracle.budget.conditional_calls == n * m

        # flipping the last bit shares every sibling pair
        sim.query("0110101100")
        assert oracle.budget.conditional_calls == n * m

        # a fresh top-level branch pays for n - 1 new pairs
        sim.query("1110101101")
        assert oracle.budget.conditional_calls == (2 * n - 1) * m
        assert oracle.budget.conditional_calls == m * sim.touched_pairs

    def test_sample_consistency(self):
        oracle = TreeOracle(random_tree(6, substream(22, "t"), 0.2, 0.8))
        sim = LazySimulation(6, oracle, 0.5, seed=4)
        for _ in range(50):
            x, p = sim.sample()
            assert p == sim.query(x)

    def test_point_mass_sample(self):
        sim = LazySimulation(4, TreeOracle(point_mass_tree("1100")), 0.5, seed=5)
        for _ in range(5):
            assert sim.sample() == (BitString.from_str("1100"), 1.0)

    def test_sample_distribution_matches_materialized_state(self):
        # n=5: draw a lot, then compare against the (now fully pinned) masses
        oracle = TreeOracle(random_tree(5, substream(23, "t"), 0.2, 0.8))
        sim = LazySimulation(5, oracle, 0.5, seed=6)
        draws = 100_000
        bits, _ = sim.sample_batch(draws)
        counts = np.bincount(bits @ (1 << np.arange(4, -1, -1)), minlength=32)
        expected = np.array([
            sim.query(BitString.from_int(v, 5)) for v in range(32)
        ]) * draws
        live = expected > 0
        stat = chi_square_stat(counts, expected)
        assert stat < chi2_critical_99(int(live.sum()) - 1)

    def test_lazy_matches_eager_bit_for_bit(self):
        n, delta, seed = 6, 0.25, 77
        tree = random_tree(n, substream(24, "t"), 0.2, 0.8)
        eager = preprocess(n, TreeOracle(tree), delta, seed)
        lazy = LazySimulation(n, TreeOracle(tree), delta, seed)
        user = substream(seed, "user")
        script = substream(25, "script")
        for _ in range(300):
            if script.random() < 0.5:
                x = BitString(tuple(script.integers(0, 2, n)))
                assert eager.query(x) == lazy.query(x)
            else:
                assert eager.sample(user) == lazy.sample()


def twin_simulations(n, delta, seed, tree_seed):
    tree = random_tree(n, substream(tree_seed, "t"), 0.2, 0.8)
    return [LazySimulation(n, TreeOracle(tree), delta, seed) for _ in range(2)]


def reference_walk(sim, rng=None, x=None):
    """One path walked in plain Python, level by level: (bits, mass).

    Draws each bit as rng.random() < k / m, or reads it from x.
    """
    m, p, bits = sim.m, 1.0, []
    for i in range(sim.n):
        k = sim.edge("".join(map(str, bits)), 1).k
        b = (1 if rng.random() < k / m else 0) if x is None else x[i]
        p *= (k if b else m - k) / m
        bits.append(b)
    return tuple(bits), p


class TestBatchedWalks:
    def test_walks_equal_the_plain_python_walk(self):
        batched, reference = twin_simulations(6, 0.5, seed=28, tree_seed=29)
        bits, masses = batched.sample_batch(60)
        user = substream(28, "user")
        draws = [reference_walk(reference, user) for _ in range(60)]
        assert [tuple(row) for row in bits.tolist()] == [x for x, _ in draws]
        assert masses.tolist() == [p for _, p in draws]
        rows = [BitString.from_int(c, 6).bits for c in range(64)]
        assert batched.query_batch(rows).tolist() == [reference_walk(reference, x=x)[1] for x in rows]
        assert batched.hist == reference.hist

    def test_sample_batch_equals_scalar_samples(self):
        batched, scalar = twin_simulations(6, 0.5, seed=30, tree_seed=31)
        for k in (1, 7, 0, 40):
            bits, masses = batched.sample_batch(k)
            assert bits.shape == (k, 6) and bits.dtype == np.uint8
            draws = [scalar.sample() for _ in range(k)]
            assert [BitString(tuple(row)) for row in bits.tolist()] == [x for x, _ in draws]
            assert masses.tolist() == [p for _, p in draws]
        assert batched.hist == scalar.hist
        assert batched.oracle.budget.conditional_calls == scalar.oracle.budget.conditional_calls

    def test_query_batch_equals_scalar_queries(self):
        n = 6
        batched, scalar = twin_simulations(n, 0.5, seed=35, tree_seed=36)
        codes = substream(37, "codes").integers(0, 1 << n, 50).tolist()
        rows = [BitString.from_int(c, n).bits for c in codes]
        assert batched.query_batch(rows).tolist() == [scalar.query(x) for x in rows]
        assert batched.hist == scalar.hist
        assert batched.oracle.budget.conditional_calls == scalar.oracle.budget.conditional_calls
        assert batched.query_batch(np.zeros((0, n), dtype=np.uint8)).shape == (0,)

    def test_query_batch_validates_its_rows(self):
        sim = LazySimulation(3, TreeOracle(uniform_tree(3)), 0.5, seed=38)
        for bad in ([[0, 1]], [[0, 1, 2]], [0, 1, 1], [[0, -1, 1]]):
            with pytest.raises(ValueError):
                sim.query_batch(bad)
        with pytest.raises(ValueError):
            sim.sample_batch(-1)
        assert sim.oracle.budget.conditional_calls == 0

    def test_node_ids_past_int64(self):
        # n = 70 node ids do not fit in int64; the walk keeps them as Python ints
        from prefixsim.hardness import SignAssignment, SignMarginalTree

        n = 70
        tree = SignMarginalTree(n, SignAssignment(39), 0.3, 0.7)
        batched, scalar = (LazySimulation(n, TreeOracle(tree), 10.0, seed=40) for _ in range(2))
        bits, masses = batched.sample_batch(3)
        draws = [scalar.sample() for _ in range(3)]
        assert [x.bits for x, _ in draws] == [tuple(row) for row in bits.tolist()]
        assert masses.tolist() == [p for _, p in draws]
        assert batched.query_batch(bits).tolist() == masses.tolist()
        assert batched.touched_pairs == scalar.touched_pairs


_ops = st.one_of(
    st.tuples(st.just("sample"), st.just(1)),
    st.tuples(st.just("sample_batch"), st.integers(0, 6)),
    st.tuples(st.just("query"), st.integers(0, 15)),
    st.tuples(st.just("query_batch"), st.lists(st.integers(0, 15), max_size=6)),
)


@settings(max_examples=40, deadline=None)
@given(script=st.lists(_ops, max_size=12), seed=st.integers(0, 2**32))
def test_lazy_equals_eager_over_random_scripts(script, seed):
    n, delta = 4, 0.5
    tree = random_tree(n, substream(41, "t"), 0.2, 0.8)
    eager = preprocess(n, TreeOracle(tree), delta, seed)
    lazy = LazySimulation(n, TreeOracle(tree), delta, seed)
    user = substream(seed, "user")
    for op, arg in script:
        if op == "sample":
            assert eager.sample(user) == lazy.sample()
        elif op == "sample_batch":
            for got, want in zip(lazy.sample_batch(arg), eager.sample_batch(arg, user)):
                assert np.array_equal(got, want)
        elif op == "query":
            x = BitString.from_int(arg, n)
            assert eager.query(x) == lazy.query(x)
        else:
            rows = np.array([BitString.from_int(c, n).bits for c in arg], dtype=np.uint8).reshape(-1, n)
            assert np.array_equal(eager.query_batch(rows), lazy.query_batch(rows))
        assert lazy.oracle.budget.conditional_calls == lazy.m * lazy.touched_pairs
    assert lazy.hist.items() <= eager.hist.items()


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 8), m=st.integers(1, 5), seed=st.integers(0, 2**32),
       marginals=st.sampled_from([(0.0, 1.0), (0.2, 0.8), (0.0, 0.0)]))
def test_exact_realization_sums_to_one(n, m, seed, marginals):
    # m samples per edge, with zero-mass edges in the first and last families
    tree = random_tree(n, substream(seed, "t"), *marginals)
    sim = LazySimulation(n, TreeOracle(tree), n / m, seed)
    assert sim.m == m
    assert sum(sim.query_exact(BitString.from_int(c, n)) for c in range(1 << n)) == 1
