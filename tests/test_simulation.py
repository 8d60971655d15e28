import gc
import math
import tracemalloc
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from prefixsim.bits import code_rows
from prefixsim.divergence_lab import kl_divergence, tv_distance
from prefixsim.errors import CapabilityError
from prefixsim.hardness import SignMarginalTree
from prefixsim import simulation, util
from prefixsim.oracles import TreeOracle
from prefixsim.simulation import (
    LazySimulation,
    est_simulation_edge,
    first_free_ones,
    preprocess,
    samples_per_edge,
)
from prefixsim.streams import substream, substreams
from prefixsim.trees import random_tree

from helpers import (chi2_critical_99, chi_square_stat, cylinder_mass, dict_counts, draw, edge, hist, lane, mass,
                     point_mass_tree, prefix_counts, prefix_rows, query_exact, stored_counts, uniform_tree)


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
        # n / delta overflows, and a huge delta leaves no sample
        for delta in (5e-324, 1e10, math.inf):
            with pytest.raises(ValueError):
                samples_per_edge(2, delta)


class TestEstSimulationEdge:
    def test_point_mass_edge(self):
        oracle = TreeOracle(point_mass_tree("1" * 6))
        ones = first_free_ones(oracle, samples_per_edge(6, 0.5), prefix_rows(""), lane(0, "e"))
        assert est_simulation_edge(ones[0]) == samples_per_edge(6, 0.5) == 12

    def test_cost_is_exactly_m(self):
        oracle = TreeOracle(uniform_tree(10))
        first_free_ones(oracle, samples_per_edge(10, 0.5), prefix_rows("0101"), lane(1, "e"))
        assert oracle.conditional_calls == 20

    def test_binomial_statistics(self):
        # m = 40 per estimate; mean of 500 estimates within 3 sigma
        oracle = TreeOracle(uniform_tree(8))
        repeats = 500
        m = samples_per_edge(8, 0.2)
        assert m == 40
        estimates = [
            est_simulation_edge(ones) / m
            for ones in first_free_ones(oracle, m, prefix_rows(*[""] * repeats),
                                        substreams(2, "e", parts=range(repeats)))
        ]
        band = 3.0 * (0.5 / math.sqrt(m)) / math.sqrt(repeats)
        assert abs(np.mean(estimates) - 0.5) <= band

    def test_same_stream_gives_complementary_counts(self):
        tree = random_tree(6, substream(3, "t"), 0.2, 0.8)
        m = samples_per_edge(6, 0.4)
        k = est_simulation_edge(first_free_ones(TreeOracle(tree), m, prefix_rows("01"), lane(4, "e"))[0])
        first = draw(TreeOracle(tree), "01", m, lane(4, "e"))[:, 0]
        assert k == np.count_nonzero(first == 1)
        assert m - k == np.count_nonzero(first == 0)

    def test_blocks_change_nothing(self, monkeypatch):
        # m = 120 rows of 4 free bits under "01"; a cap of 50 uniforms gives 10 blocks of 12
        tree = random_tree(6, substream(5, "t"), 0.2, 0.8)
        whole_oracle = TreeOracle(tree)
        whole_records = []
        whole_oracle.on_record = whole_records.append
        whole = first_free_ones(whole_oracle, 120, prefix_rows("01"), lane(6, "e"))
        monkeypatch.setattr(util, "MAX_BLOCK_UNIFORMS", 50)
        oracle = TreeOracle(tree)
        records = []
        oracle.on_record = records.append
        chunked = first_free_ones(oracle, 120, prefix_rows("01"), lane(6, "e"))
        assert [row for r in records for row in r["result"]] == whole_records[0]["result"]
        assert chunked.tolist() == whole.tolist()
        assert est_simulation_edge(chunked[0]) == est_simulation_edge(whole[0])
        assert prefix_counts(records) == prefix_counts(whole_records) == {"01": 120}
        assert [r["count"] for r in records] == [12] * 10
        assert max(r["count"] * len(r["result"][0]) for r in records) <= 50

    @pytest.mark.parametrize("cap", [50, 1000])
    def test_row_blocks_of_a_prefix_group_change_nothing(self, monkeypatch, cap):
        # m = 120 rows of 4 free bits for each of 4 prefixes: a cap of 50
        # draws all four 3 rows at a time, a cap of 1000 62 then 58 rows
        tree = random_tree(6, substream(5, "t"), 0.2, 0.8)
        prefixes = prefix_rows("01", "11", "10", "01")

        def streams():
            return substreams(6, "e", parts=range(4))

        whole_oracle = TreeOracle(tree)
        whole_records = []
        whole_oracle.on_record = whole_records.append
        whole = first_free_ones(whole_oracle, 120, prefixes, streams())
        alone = [draw(TreeOracle(tree), w, 120, lane(6, "e", j)) for j, w in enumerate(("01", "11", "10", "01"))]
        assert [r["result"] for r in whole_records] == [["".join(map(str, row)) for row in rows.tolist()]
                                                         for rows in alone]
        assert whole.tolist() == [np.count_nonzero(rows[:, 0]) for rows in alone]
        blocks = []
        draw_block = TreeOracle.conditional_sample_batch

        def recording(self, prefixes, m, streams, levels=None):
            blocks.append(m)
            return draw_block(self, prefixes, m, streams, levels)

        monkeypatch.setattr(TreeOracle, "conditional_sample_batch", recording)
        monkeypatch.setattr(util, "MAX_BLOCK_UNIFORMS", cap)
        oracle = TreeOracle(tree)
        records = []
        oracle.on_record = records.append
        assert first_free_ones(oracle, 120, prefixes, streams()).tolist() == whole.tolist()
        assert blocks == ([3] * 40 if cap == 50 else [62, 58])
        # prefix j's rows, block after block, are its rows of the whole draw
        assert [[row for r in records[j::4] for row in r["result"]] for j in range(4)] == [
            r["result"] for r in whole_records]
        assert prefix_counts(records) == prefix_counts(whole_records) == {"01": 240, "11": 120, "10": 120}
        assert [(r["prefix"], r["count"]) for r in records] == [
            (w, rows) for rows in blocks for w in ("01", "11", "10", "01")]

    def test_a_draw_past_the_block_cap_holds_one_block(self):
        # n = 1 leaves one free bit per row: m = 2^20 is one block, 2^24 is 16
        def peak(m):
            oracle = TreeOracle(uniform_tree(1))
            tracemalloc.start()
            try:
                ones = first_free_ones(oracle, m, prefix_rows(""), lane(7, "e", m))
                top = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert oracle.conditional_calls == m and 0 < ones[0] < m
            return top

        assert peak(1 << 24) - peak(1 << 20) <= 2 << 20


class TestPreprocess:
    def test_total_cost(self):
        oracle = TreeOracle(uniform_tree(3))
        learned = preprocess(3, oracle, 0.5, seed=7)
        m = samples_per_edge(3, 0.5)
        assert oracle.conditional_calls == 7 * m
        assert learned.touched_pairs == 7

    def test_reads_after_preprocess_are_free(self):
        n = 5
        oracle = TreeOracle(random_tree(n, substream(14, "t"), 0.2, 0.8))
        learned = preprocess(n, oracle, 0.5, seed=15)
        assert learned.touched_pairs == (1 << n) - 1
        spent = oracle.conditional_calls
        for v in range(1 << n):
            learned.query(code_rows(v, n))
        for _ in range(50):
            learned.sample()
        edge(learned, "0110", 0)
        learned.materialize()
        assert oracle.conditional_calls == spent
        assert learned.touched_pairs == (1 << n) - 1

    def test_learning_every_edge_starts_no_garbage_collection(self):
        # a stream group holds no generator between draws, so the 1,023 edge
        # streams of n = 10 leave no container objects behind to be collected
        oracle = TreeOracle(random_tree(10, substream(16, "t"), 0.2, 0.8))
        collections = []

        def count(phase, info):
            if phase == "start":
                collections.append(info["generation"])

        gc.collect()
        gc.callbacks.append(count)
        try:
            preprocess(10, oracle, 0.25, seed=17)
        finally:
            gc.callbacks.remove(count)
        assert collections == []

    def test_point_mass_learned_exactly(self):
        tree = point_mass_tree("101")
        learned = preprocess(3, TreeOracle(tree), 0.5, seed=8)
        assert learned.query("101") == 1.0
        assert kl_divergence(learned, tree) == 0.0

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
            kls.append(kl_divergence(learned, tree))
        mean = float(np.mean(kls))
        se = float(np.std(kls, ddof=1)) / math.sqrt(runs)
        assert mean <= delta + 3.0 * se


class TestPreprocessedReads:
    def test_realization_exact(self):
        learned = preprocess(4, TreeOracle(random_tree(4, substream(5, "t"))), 0.5, seed=9)
        total = sum(query_exact(learned, bits) for bits in product((0, 1), repeat=4))
        assert total == Fraction(1)
        float_total = sum(learned.query(bits) for bits in product((0, 1), repeat=4))
        assert abs(float_total - 1.0) < 1e-12

    def test_point_mass_sample(self):
        learned = preprocess(3, TreeOracle(point_mass_tree("011")), 0.5, seed=10)
        x, p = learned.sample(substream(11, "u"))
        assert (x, p) == ((0, 1, 1), 1.0)

    def test_sample_frequencies_match_queries(self):
        learned = preprocess(4, TreeOracle(random_tree(4, substream(6, "t"), 0.2, 0.8)),
                             0.5, seed=12)
        draws = 20_000
        bits, _ = learned.sample_batch(draws, substream(13, "u"))
        counts = np.bincount(bits @ (1 << np.arange(3, -1, -1)), minlength=16)
        expected = np.array([
            learned.query(code_rows(v, 4)) for v in range(16)
        ]) * draws
        live = expected > 0
        stat = chi_square_stat(counts, expected)
        assert stat < chi2_critical_99(int(live.sum()) - 1)


class TestLazySimulation:
    def test_init_is_free(self):
        oracle = TreeOracle(uniform_tree(5))
        sim = LazySimulation(5, oracle, 0.5, seed=1)
        assert oracle.conditional_calls == 0
        assert hist(sim) == {}

    def test_same_seed_same_behavior(self):
        tree = random_tree(5, substream(20, "t"), 0.2, 0.8)
        sims = [LazySimulation(5, TreeOracle(tree), 0.5, seed=42) for _ in range(2)]
        xs = ["01101", "11000", "01101"]
        assert [sims[0].query(x) for x in xs] == [sims[1].query(x) for x in xs]
        assert sims[0].sample() == sims[1].sample()

    def test_access_edge_memo_and_sibling_rule(self):
        oracle = TreeOracle(uniform_tree(10))
        sim = LazySimulation(10, oracle, 0.5, seed=2)
        first = edge(sim, "0110", 0)
        assert oracle.conditional_calls == 20
        again = edge(sim, "0110", 0)
        assert again == first
        assert oracle.conditional_calls == 20
        other = edge(sim, "0110", 1)
        assert first + other == Fraction(1)
        assert oracle.conditional_calls == 20

    def test_fresh_query_cost_and_ledger(self):
        n, delta = 10, 0.5
        oracle = TreeOracle(random_tree(n, substream(21, "t"), 0.2, 0.8))
        sim = LazySimulation(n, oracle, delta, seed=3)
        m = samples_per_edge(n, delta)

        value = sim.query("0110101101")
        assert oracle.conditional_calls == n * m
        assert sim.query("0110101101") == value
        assert oracle.conditional_calls == n * m

        # flipping the last bit shares every sibling pair
        sim.query("0110101100")
        assert oracle.conditional_calls == n * m

        # a fresh top-level branch pays for n - 1 new pairs
        sim.query("1110101101")
        assert oracle.conditional_calls == (2 * n - 1) * m
        assert oracle.conditional_calls == m * sim.touched_pairs

    def test_sample_consistency(self):
        oracle = TreeOracle(random_tree(6, substream(22, "t"), 0.2, 0.8))
        sim = LazySimulation(6, oracle, 0.5, seed=4)
        for _ in range(50):
            x, p = sim.sample()
            assert p == sim.query(x)

    def test_point_mass_sample(self):
        sim = LazySimulation(4, TreeOracle(point_mass_tree("1100")), 0.5, seed=5)
        for _ in range(5):
            assert sim.sample() == ((1, 1, 0, 0), 1.0)

    def test_sample_distribution_matches_materialized_state(self):
        # n=5: draw a lot, then compare against the (now fully pinned) masses
        oracle = TreeOracle(random_tree(5, substream(23, "t"), 0.2, 0.8))
        sim = LazySimulation(5, oracle, 0.5, seed=6)
        draws = 100_000
        bits, _ = sim.sample_batch(draws)
        counts = np.bincount(bits @ (1 << np.arange(4, -1, -1)), minlength=32)
        expected = np.array([
            sim.query(code_rows(v, 5)) for v in range(32)
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
                x = tuple(script.integers(0, 2, n))
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
        k = int(edge(sim, "".join(map(str, bits)), 1) * m)
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
        rows = code_rows(np.arange(64), 6).tolist()
        assert batched.query_batch(rows).tolist() == [reference_walk(reference, x=x)[1] for x in rows]
        assert hist(batched) == hist(reference)

    def test_sample_batch_equals_scalar_samples(self):
        batched, scalar = twin_simulations(6, 0.5, seed=30, tree_seed=31)
        for k in (1, 7, 0, 40):
            bits, masses = batched.sample_batch(k)
            assert bits.shape == (k, 6) and bits.dtype == np.uint8
            draws = [scalar.sample() for _ in range(k)]
            assert [tuple(row) for row in bits.tolist()] == [x for x, _ in draws]
            assert masses.tolist() == [p for _, p in draws]
        assert hist(batched) == hist(scalar)
        assert batched.oracle.conditional_calls == scalar.oracle.conditional_calls

    def test_query_batch_equals_scalar_queries(self):
        n = 6
        batched, scalar = twin_simulations(n, 0.5, seed=35, tree_seed=36)
        codes = substream(37, "codes").integers(0, 1 << n, 50).tolist()
        rows = code_rows(codes, n).tolist()
        assert batched.query_batch(rows).tolist() == [scalar.query(x) for x in rows]
        assert hist(batched) == hist(scalar)
        assert batched.oracle.conditional_calls == scalar.oracle.conditional_calls
        assert batched.query_batch(np.zeros((0, n), dtype=np.uint8)).shape == (0,)

    def test_query_batch_validates_its_rows(self):
        sim = LazySimulation(3, TreeOracle(uniform_tree(3)), 0.5, seed=38)
        for bad in ([[0, 1]], [[0, 1, 2]], [0, 1, 1], [[0, -1, 1]]):
            with pytest.raises(ValueError):
                sim.query_batch(bad)
        with pytest.raises(ValueError):
            sim.sample_batch(-1)
        assert sim.oracle.conditional_calls == 0

    def test_node_ids_past_int64(self):
        # n = 70 node ids do not fit in int64; the walk keeps them as Python ints
        from prefixsim.hardness import SignMarginalTree

        n = 70
        tree = SignMarginalTree(n, 39, 0.3, 0.7)
        batched, scalar = (LazySimulation(n, TreeOracle(tree), 10.0, seed=40) for _ in range(2))
        bits, masses = batched.sample_batch(3)
        draws = [scalar.sample() for _ in range(3)]
        assert [x for x, _ in draws] == [tuple(row) for row in bits.tolist()]
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
            x = code_rows(arg, n)
            assert eager.query(x) == lazy.query(x)
        else:
            rows = code_rows(np.array(arg, dtype=np.int64), n).reshape(-1, n)
            assert np.array_equal(eager.query_batch(rows), lazy.query_batch(rows))
        assert lazy.oracle.conditional_calls == lazy.m * lazy.touched_pairs
    assert hist(lazy).items() <= hist(eager).items()


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 8), m=st.integers(1, 5), seed=st.integers(0, 2**32),
       marginals=st.sampled_from([(0.0, 1.0), (0.2, 0.8), (0.0, 0.0)]))
def test_exact_realization_sums_to_one(n, m, seed, marginals):
    # m samples per edge, with zero-mass edges in the first and last families
    tree = random_tree(n, substream(seed, "t"), *marginals)
    sim = LazySimulation(n, TreeOracle(tree), n / m, seed)
    assert sim.m == m
    assert sum(query_exact(sim, x) for x in code_rows(np.arange(1 << n), n)) == 1


def level_script(tree):
    """Learn tree eagerly, and walk it lazily in batches; what each gave, charged and drew."""
    out = []
    for eager in (True, False):
        oracle = TreeOracle(tree)
        records = []
        oracle.on_record = records.append
        if eager:
            sim = preprocess(6, oracle, 0.5, seed=60)
            results = []
        else:
            sim = LazySimulation(6, oracle, 0.5, seed=60)
            rows = code_rows([45, 2, 63, 44, 17], 6).tolist()
            results = [sim.query_batch(rows).tolist(), *(a.tolist() for a in sim.sample_batch(30))]
        drawn = {}
        for r in records:
            drawn.setdefault(r["prefix"], []).extend(r["result"])
        out.append((hist(sim), prefix_counts(records), list(drawn), drawn, results))
    return out


@pytest.mark.parametrize("cap", [50, 100])
def test_level_blocks_change_nothing(monkeypatch, cap):
    # m = 12: at depth d a prefix draws 12 * (6 - d) uniforms, so a cap of 50
    # splits depths 0 and 1 into row blocks and groups 1 to 4 prefixes deeper
    tree = random_tree(6, substream(61, "t"), 0.2, 0.8)
    blocks = []
    draw_block = TreeOracle.conditional_sample_batch

    def recording(self, prefixes, m, streams, levels=None):
        blocks.append(len(prefixes) * m * (self.n - prefixes.shape[1]))
        return draw_block(self, prefixes, m, streams, levels)

    monkeypatch.setattr(TreeOracle, "conditional_sample_batch", recording)
    whole = level_script(tree)
    whole_blocks, blocks[:] = len(blocks), []
    monkeypatch.setattr(util, "MAX_BLOCK_UNIFORMS", cap)
    groups = []
    draw_group = simulation.first_free_ones

    def recording_groups(oracle, m, prefixes, streams):
        groups.append((len(prefixes), len(prefixes) * m * (oracle.n - prefixes.shape[1])))
        return draw_group(oracle, m, prefixes, streams)

    # a level's prefix bits and streams are built one block's group at a time
    monkeypatch.setattr(simulation, "first_free_ones", recording_groups)
    assert level_script(tree) == whole
    assert max(blocks) <= cap and len(blocks) > whole_blocks
    assert all(k == 1 or uniforms <= cap for k, uniforms in groups)
    assert max(k for k, _ in groups) > 1


def test_lazy_script_touches_edges_in_first_touch_order():
    # recorded when every edge was its own draw: estimating a level's misses
    # in one draw keeps the order in which rows first reach them
    tree = random_tree(5, substream(50, "t"), 0.2, 0.8)
    oracle = TreeOracle(tree)
    records = []
    oracle.on_record = records.append
    sim = LazySimulation(5, oracle, 0.5, seed=51)
    sim.sample_batch(3)
    sim.query_batch([[1, 1, 0, 1, 0], [0, 0, 0, 0, 1], [1, 1, 0, 1, 1], [0, 1, 1, 1, 0]])
    sim.query("10101")
    sim.sample()
    sim.sample_batch(6)
    assert [r["prefix"] for r in records] == [
        "", "0", "1", "01", "10", "010", "100", "101", "0100", "1000", "1010",
        "11", "00", "110", "000", "011", "1101", "0000", "0111", "0110"]
    assert [r["count"] for r in records] == [10] * 20
    assert oracle.conditional_calls == 200


def assert_store_sorted(sim):
    """Node ids strictly increase at every depth, and touched_pairs counts the entries."""
    for nodes, ks in zip(sim._nodes, sim._ks):
        ids = nodes.tolist()
        assert len(ids) == len(ks) and all(a < b for a, b in zip(ids, ids[1:]))
    assert sim.touched_pairs == sum(map(len, sim._nodes))


@pytest.mark.parametrize("n", [5, 70])
def test_store_lookups_equal_a_dict_reference(n):
    # n = 70 keeps node ids as Python ints in object arrays
    tree = random_tree(5, substream(80, "t"), 0.2, 0.8) if n == 5 else SignMarginalTree(70, 81, 0.3, 0.7)
    sim = LazySimulation(n, TreeOracle(tree), n / 4, seed=82)
    records = []
    sim.oracle.on_record = records.append
    reference, store, reference_records = TreeOracle(tree), {}, []
    reference.on_record = reference_records.append
    deep = n - 2
    # repeated nodes within a call, and calls interleaving depths and hits with misses
    calls = [(deep, [5, 1, 5, 3]), (2, [3, 0, 3]), (deep, [3, 0, 1, 7, 0]), (2, [1, 3, 2, 0]),
             (0, [0, 0]), (deep, [7, 5, 2, 2, 6, 4]), (deep, [6, 0])]
    for depth, indexes in calls:
        nodes = [(1 << depth) | i for i in indexes]
        ks = stored_counts(sim, depth, np.array(nodes, dtype=sim._handle_dtype))
        assert ks.dtype == np.int64
        assert ks.tolist() == dict_counts(store, reference, sim.m, sim.seed, nodes)
        assert_store_sorted(sim)
    assert sim.touched_pairs == len(store) == 13
    assert sim.oracle.conditional_calls == reference.conditional_calls == sim.m * 13
    assert [r["prefix"] for r in records] == [r["prefix"] for r in reference_records]


def test_store_stays_sorted_through_lazy_walks():
    sim = LazySimulation(6, TreeOracle(random_tree(6, substream(83, "t"), 0.1, 0.9)), 0.5, seed=84)
    for _ in range(4):
        sim.sample_batch(5)
        sim.query_batch(code_rows(substream(85, "q").integers(0, 64, 7), 6))
        assert_store_sorted(sim)
    assert sim.oracle.conditional_calls == sim.m * sim.touched_pairs
    sim.materialize()
    assert_store_sorted(sim)
    assert [nodes.tolist() for nodes in sim._nodes] == [list(range(1 << i, 2 << i)) for i in range(6)]


class TestSimulationIsATree:
    """A simulation is a MarginalTree whose splits are (k/m, (m - k)/m) from its store."""

    def test_divergences_take_the_simulation_directly(self):
        tree_a = random_tree(4, substream(86, "a"), 0.1, 0.9)
        tree_b = random_tree(4, substream(86, "b"), 0.1, 0.9)
        sims = [LazySimulation(4, TreeOracle(t), 0.5, seed=87 + i) for i, t in enumerate((tree_a, tree_b))]
        sims[0].sample_batch(3)  # a partly filled store first
        kl, tv = kl_divergence(sims[0], tree_a), tv_distance(*sims)
        for sim in sims:
            assert sim.touched_pairs == 15 and sim.oracle.conditional_calls == 15 * sim.m
        tables = [sim.materialize() for sim in sims]
        assert kl == kl_divergence(tables[0], tree_a)
        assert tv == tv_distance(*tables)
        # the table holds k/m from the store, level by level in index order
        for sim, table in zip(sims, tables):
            for depth in range(4):
                assert table.level(depth).tolist() == (sim._ks[depth] / sim.m).tolist()

    @pytest.mark.parametrize("n", [6, 70])
    def test_cylinder_masses_are_store_products(self, n):
        tree = random_tree(n, substream(88, "t"), 0.1, 0.9) if n == 6 else SignMarginalTree(n, 89, 0.2, 0.7)
        sim = LazySimulation(n, TreeOracle(tree), n / 3, seed=90)
        rng = substream(91, "w")
        for length in (0, 1, 3, n - 1, n):
            w = "".join(map(str, rng.integers(0, 2, length).tolist()))
            before = sim.touched_pairs
            got = mass(sim, w) if length == n else cylinder_mass(sim, w)
            assert sim.touched_pairs - before <= length
            want = 1.0
            for i in range(length):
                want *= float(edge(sim, w[:i], int(w[i])))
            assert got == want
        assert sim.query(w) == want

    @pytest.mark.parametrize("n", [simulation.MAX_PREPROCESS_N + 1, 24, 70])
    def test_materialize_past_the_learning_cap_draws_nothing(self, n):
        sim = LazySimulation(n, TreeOracle(SignMarginalTree(n, 92, 0.3, 0.6)), 0.5, seed=93)
        with pytest.raises(CapabilityError):
            sim.materialize()
        with pytest.raises(CapabilityError):
            sim.masses()
        assert sim.oracle.conditional_calls == 0 and sim.touched_pairs == 0
