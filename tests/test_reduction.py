from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, strategies as st

from prefixsim.bits import BitString, Prefix
from prefixsim.reduction import (
    TableIntervalOracle,
    adapt,
    encoded_marginal_tree,
    exact_encoded_masses,
    interval_breakdown,
)
from prefixsim.simulation import LazySimulation
from prefixsim.oracles import TreeOracle
from prefixsim.streams import child_seed, substream


class TestEncoding:
    def test_depth_and_element_codes(self):
        adapter = interval_breakdown(8)
        assert adapter.depth == 3
        # element 5 carries the code binary(5 - 1) = 100
        assert adapter.encode(5).as_str() == "100"
        assert adapter.decode(BitString.from_str("100")) == 5

    def test_prefix_to_interval(self):
        adapter = interval_breakdown(8)
        assert adapter.prefix_interval("") == (1, 8)
        assert adapter.prefix_interval("1") == (5, 8)
        assert adapter.prefix_interval("10") == (5, 6)

    def test_padding(self):
        adapter = interval_breakdown(5)
        assert adapter.depth == 3
        assert adapter.prefix_interval("11") is None
        assert adapter.prefix_interval("1") == (5, 5)
        with pytest.raises(ValueError):
            adapter.decode(BitString.from_str("101"))

    @given(st.integers(min_value=1, max_value=300))
    def test_bijection(self, n_elements):
        adapter = interval_breakdown(n_elements)
        seen = set()
        for e in range(1, n_elements + 1):
            code = adapter.encode(e)
            assert adapter.decode(code) == e
            seen.add(code.as_int())
        assert len(seen) == n_elements

    @pytest.mark.parametrize("n_elements", [1, 2, 5, 8, 11, 16])
    def test_every_prefix_decodes_to_an_interval(self, n_elements):
        adapter = interval_breakdown(n_elements)
        depth = adapter.depth
        for length in range(depth):
            for bits in product((0, 1), repeat=length):
                w = Prefix(depth, bits)
                members = sorted(
                    code + 1
                    for code in range(min(1 << depth, n_elements))
                    if tuple(BitString.from_int(code, depth).bits[:length]) == bits
                )
                interval = adapter.prefix_interval(w)
                if not members:
                    assert interval is None
                else:
                    assert interval == (members[0], members[-1])
                    assert members == list(range(members[0], members[-1] + 1))


class TestBreakdownTree:
    @pytest.mark.parametrize("n_elements", [1, 3, 5, 8])
    def test_structural_invariants(self, n_elements):
        tree = interval_breakdown(n_elements).breakdown_tree()
        tree.validate()
        assert tree.node_set(0, 0) == frozenset(range(1, n_elements + 1))

    def test_padding_leaves_empty(self):
        tree = interval_breakdown(5).breakdown_tree()
        assert tree.node_set(3, 5) == frozenset()
        assert tree.node_set(3, 4) == frozenset({5})


class TestEncodedTree:
    def test_padding_gets_zero_mass(self):
        weights = [0.2, 0.2, 0.2, 0.2, 0.2]
        tree = encoded_marginal_tree(weights)
        masses = tree.masses()
        assert np.all(masses[5:] == 0.0)
        assert masses[:5] == pytest.approx(weights, abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_exact_mass_preservation(self, seed):
        rng = substream(seed, "weights")
        n_elements = int(rng.integers(1, 40))
        weights = rng.uniform(0.0, 1.0, n_elements)
        weights[rng.random(n_elements) < 0.2] = 0.0
        if weights.sum() == 0.0:
            weights[0] = 1.0
        masses = exact_encoded_masses(weights)
        total = sum(Fraction(float(w)) for w in weights)
        depth = interval_breakdown(n_elements).depth
        for code in range(1 << depth):
            expected = Fraction(float(weights[code])) / total if code < n_elements else Fraction(0)
            assert masses[code] == expected


class TestAdaptedOracle:
    def test_one_native_draw_per_conditional_draw(self):
        weights = substream(1, "w").uniform(0.1, 1.0, 8)
        native = TableIntervalOracle(weights)
        oracle = adapt(interval_breakdown(8), native)
        rng = substream(2, "draw")
        oracle.conditional_sample_batch("1", 1, rng)
        oracle.conditional_sample_batch("", 10, rng)
        assert native.calls == 11
        assert oracle.budget.conditional_calls == 11

    def test_native_draws_stay_in_interval(self):
        weights = substream(3, "w").uniform(0.1, 1.0, 11)
        native = TableIntervalOracle(weights)
        rng = substream(4, "draw")
        for (a, b) in [(1, 11), (2, 2), (3, 7), (9, 11)]:
            elems = native.draw_batch(a, b, 200, rng)
            assert elems.min() >= a and elems.max() <= b

    def test_zero_mass_native_interval_still_valid(self):
        weights = np.array([1.0, 0.0, 0.0, 0.0, 2.0])
        native = TableIntervalOracle(weights)
        elems = native.draw_batch(2, 4, 500, substream(5, "draw"))
        assert set(np.unique(elems)) <= {2, 3, 4}

    def test_padding_prefix_uses_convention(self):
        weights = substream(6, "w").uniform(0.1, 1.0, 5)
        native = TableIntervalOracle(weights)
        oracle = adapt(interval_breakdown(5), native)
        out = oracle.conditional_sample_batch("11", 1, substream(7, "draw"))
        assert out.shape == (1, 1)
        assert native.calls == 0
        assert oracle.budget.conditional_calls == 1

    def test_transcript_matches_draws(self):
        weights = substream(9, "w").uniform(0.1, 1.0, 6)
        hooked, plain = (adapt(interval_breakdown(6), TableIntervalOracle(weights)) for _ in range(2))
        records = []
        hooked.on_record = records.append
        rng, plain_rng = substream(10, "draw"), substream(10, "draw")
        for w in ("0", "11"):   # "11" is pure padding
            out = hooked.conditional_sample_batch(w, 5, rng)
            assert np.array_equal(out, plain.conditional_sample_batch(w, 5, plain_rng))
            assert records[-1]["result"] == ["".join(map(str, row)) for row in out.tolist()]
        assert [(r["prefix"], r["count"]) for r in records] == [("0", 5), ("11", 5)]
        assert records[-1]["budget_after"] == 10


class TestCoupling:
    @pytest.mark.parametrize("size", [2, 4, 8, 16, 3, 5, 6, 12, 100])
    def test_power_of_two_pipeline_is_bit_identical(self, size):
        weights = substream(size, "w").uniform(0.05, 1.0, size)
        adapter = interval_breakdown(size)
        sim_seed = child_seed(99, "sim", size)
        direct = LazySimulation(adapter.depth, TreeOracle(encoded_marginal_tree(weights)),
                                0.4, sim_seed)
        native = TableIntervalOracle(weights)
        adapted = LazySimulation(adapter.depth, adapt(adapter, native), 0.4, sim_seed)
        for code in range(size):
            x = BitString.from_int(code, adapter.depth)
            assert direct.query(x) == adapted.query(x)
        for _ in range(10):
            assert direct.sample() == adapted.sample()
        assert direct.hist == adapted.hist
        assert direct.oracle.budget.conditional_calls == adapted.oracle.budget.conditional_calls

    def test_padded_domain_pipeline_is_consistent(self):
        # padded sizes couple bit for bit (see above); the adapted simulation
        # must also realize exactly on its own
        weights = substream(10, "w").uniform(0.1, 1.0, 5)
        adapter = interval_breakdown(5)
        native = TableIntervalOracle(weights)
        sim = LazySimulation(adapter.depth, adapt(adapter, native), 0.4, 123)
        total = sum(sim.query_exact(BitString.from_int(c, adapter.depth)) for c in range(8))
        assert total == Fraction(1)
        for _ in range(20):
            x, p = sim.sample()
            assert p == sim.query(x)
