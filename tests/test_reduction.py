from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from prefixsim.bits import code_rows
from prefixsim.reduction import (
    AdaptedPrefixOracle,
    TableIntervalOracle,
    _split_fractions,
    encoded_marginal_tree,
    interval_breakdown,
    mass_preserved,
)
from prefixsim.simulation import LazySimulation
from prefixsim.oracles import SampleBudget, TreeOracle
from prefixsim.streams import child_seed, substream

from helpers import assert_ledger, draw, hist, prefix_blocks, prefix_rows


def prefix_interval(adapter, w):
    """Inclusive element interval {a..b} of the prefix w (a '01' string or bits), or None for pure padding."""
    bits = "".join(map(str, w))
    a, b, padding = adapter.element_bounds(len(bits), [int(bits or "0", 2)])
    return None if padding[0] else (int(a[0]), int(b[0]))


class TestEncoding:
    def test_depth_and_element_codes(self):
        adapter = interval_breakdown(8)
        assert adapter.depth == 3

    def test_prefix_to_interval(self):
        adapter = interval_breakdown(8)
        assert prefix_interval(adapter, "") == (1, 8)
        assert prefix_interval(adapter, "1") == (5, 8)
        assert prefix_interval(adapter, "10") == (5, 6)

    def test_padding(self):
        adapter = interval_breakdown(5)
        assert adapter.depth == 3
        assert prefix_interval(adapter, "11") is None
        assert prefix_interval(adapter, "1") == (5, 5)

    def test_bounds_of_a_level_at_once(self):
        # size 5, depth 3: the depth-2 prefixes hold {1, 2}, {3, 4}, {5} and padding
        a, b, padding = interval_breakdown(5).element_bounds(2, [0, 1, 2, 3])
        assert a[:3].tolist() == [1, 3, 5] and b[:3].tolist() == [2, 4, 5]
        assert padding.tolist() == [False, False, False, True]

    @pytest.mark.parametrize("depth, index", [(1, [2]), (2, [0, -1]), (0, [1]), (3, [0]), (-1, [0])])
    def test_index_outside_the_tree_is_rejected(self, depth, index):
        with pytest.raises(ValueError):
            interval_breakdown(5).element_bounds(depth, index)

    @pytest.mark.parametrize("n_elements", [1, 2, 5, 8, 11, 16])
    def test_every_prefix_decodes_to_an_interval(self, n_elements):
        adapter = interval_breakdown(n_elements)
        depth = adapter.depth
        for length in range(depth):
            for bits in product((0, 1), repeat=length):
                members = sorted(
                    code + 1
                    for code in range(min(1 << depth, n_elements))
                    if tuple(code_rows(code, depth)[:length].tolist()) == bits
                )
                interval = prefix_interval(adapter, bits)
                if not members:
                    assert interval is None
                else:
                    assert interval == (members[0], members[-1])
                    assert members == list(range(members[0], members[-1] + 1))


def members(adapter, bits):
    """The elements under the prefix bits, as a set."""
    interval = prefix_interval(adapter, bits)
    return set() if interval is None else set(range(interval[0], interval[1] + 1))


class TestBreakdownTree:
    @pytest.mark.parametrize("n_elements", [1, 3, 5, 8])
    def test_structural_invariants(self, n_elements):
        # the root holds the whole domain and every node is the disjoint union of its children
        adapter = interval_breakdown(n_elements)
        assert members(adapter, ()) == set(range(1, n_elements + 1))
        for length in range(adapter.depth - 1):
            for bits in product((0, 1), repeat=length):
                left, right = members(adapter, bits + (0,)), members(adapter, bits + (1,))
                assert left | right == members(adapter, bits) and not left & right

    def test_padding_leaves_empty(self):
        adapter = interval_breakdown(5)
        assert members(adapter, "11") == set()
        assert members(adapter, "10") == {5}


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
        masses = fraction_masses(weights)
        total = sum(Fraction(float(w)) for w in weights)
        depth = interval_breakdown(n_elements).depth
        for code in range(1 << depth):
            expected = Fraction(float(weights[code])) / total if code < n_elements else Fraction(0)
            assert masses[code] == expected
        assert mass_preserved(weights)

    def test_mass_check_rejects_bad_weights(self):
        for weights in ([], [0.0, 0.0], [0.5, -0.25], [1.0, float("nan")]):
            with pytest.raises(ValueError):
                mass_preserved(weights)


def fraction_masses(weights) -> list:
    """Per-code masses of the encoded tree over Fractions: the float builder's split ratios, exactly."""
    n_elements = len(weights)
    depth = interval_breakdown(n_elements).depth
    cum = [Fraction(0)]
    for w in weights:
        cum.append(cum[-1] + Fraction(w))
    cum.extend([cum[-1]] * ((1 << depth) - n_elements))
    masses = [Fraction(1)]
    for level in range(depth):
        span = 1 << (depth - level)
        nxt = []
        for idx, node_mass in enumerate(masses):
            lo = idx * span
            mid = lo + span // 2
            hi = lo + span
            lmass = cum[mid] - cum[lo]
            rmass = cum[hi] - cum[mid]
            total = lmass + rmass
            if not mid < min(hi, n_elements):
                f = Fraction(0)
            elif not lo < min(mid, n_elements):
                f = Fraction(1)
            elif total > 0:
                f = rmass / total
            else:
                f = Fraction(1, 2)
            nxt.append(node_mass * (1 - f))
            nxt.append(node_mass * f)
        masses = nxt
    return masses


def fraction_verdict(weights) -> bool:
    """The mass check as cli ran it over Fractions: every code's mass is its weight / total, padding 0."""
    masses = fraction_masses(weights)
    total = sum(Fraction(float(w)) for w in weights)
    return all(mass == (Fraction(float(weights[code])) / total if code < len(weights) else 0)
               for code, mass in enumerate(masses))


@st.composite
def mass_weights(draw):
    """Weight vectors with zero runs, N = 1, powers of two and sizes up to 4096."""
    size = draw(st.one_of(st.sampled_from([1, 2, 3, 4, 64, 300, 512, 513, 4095, 4096]),
                          st.integers(1, 4096)))
    rng = substream(draw(st.integers(0, 2 ** 32)), "mass-weights")
    weights = rng.uniform(0.0, 1.0, size) * 2.0 ** rng.integers(-60, 60, size)
    if draw(st.booleans()):
        weights[rng.random(size) < 0.2] = 0.0
    start = draw(st.integers(0, size - 1))
    weights[start:start + draw(st.integers(0, size))] = 0.0
    if draw(st.booleans()):
        weights = np.round(weights * 8) / 8
    if not weights.sum() > 0.0:
        weights[draw(st.integers(0, size - 1))] = 1.0
    return weights


@settings(max_examples=40, deadline=None)
@given(mass_weights())
def test_integer_mass_check_equals_fraction_check(weights):
    assert mass_preserved(weights) == fraction_verdict(weights)


class TestAdaptedOracle:
    def test_one_native_draw_per_conditional_draw(self):
        weights = substream(1, "w").uniform(0.1, 1.0, 8)
        native = TableIntervalOracle(weights)
        oracle = AdaptedPrefixOracle(interval_breakdown(8), native)
        rng = substream(2, "draw")
        draw(oracle, "1", 1, rng)
        draw(oracle, "", 10, rng)
        assert native.calls == 11
        assert oracle.budget.conditional_calls == 11

    def test_native_draws_stay_in_interval(self):
        weights = substream(3, "w").uniform(0.1, 1.0, 11)
        native = TableIntervalOracle(weights)
        rng = substream(4, "draw")
        for (a, b) in [(1, 11), (2, 2), (3, 7), (9, 11)]:
            elems = native.draw_batch([a], [b], 200, [rng])
            assert elems.min() >= a and elems.max() <= b

    def test_zero_mass_native_interval_still_valid(self):
        weights = np.array([1.0, 0.0, 0.0, 0.0, 2.0])
        native = TableIntervalOracle(weights)
        elems = native.draw_batch([2], [4], 500, [substream(5, "draw")])
        assert set(np.unique(elems)) <= {2, 3, 4}

    @pytest.mark.parametrize("a, b, m, streams", [
        ([1, 0], [3, 2], 4, 2),     # a < 1 in the second row
        ([1, 4], [3, 3], 4, 2),     # a > b
        ([1, 2], [3, 12], 4, 2),    # b > N
        ([1, 2], [3, 5], 4, 1),     # fewer streams than intervals
        ([1], [3], 4, 2),           # more streams than intervals
        ([1, 2], [3], 4, 2),        # bounds of different lengths
        ([[1]], [[3]], 4, 1),       # not one interval per row
        ([1, 2], [3, 5], 0, 2),     # m < 1
    ])
    def test_draw_batch_rejects_bad_arguments(self, a, b, m, streams):
        native = TableIntervalOracle(substream(16, "w").uniform(0.1, 1.0, 11))
        with pytest.raises(ValueError):
            native.draw_batch(a, b, m, [substream(17, j) for j in range(streams)])
        assert native.calls == 0

    def test_padding_prefix_uses_convention(self):
        weights = substream(6, "w").uniform(0.1, 1.0, 5)
        native = TableIntervalOracle(weights)
        oracle = AdaptedPrefixOracle(interval_breakdown(5), native)
        out = draw(oracle, "11", 1, substream(7, "draw"))
        assert out.shape == (1, 1)
        assert native.calls == 0
        assert oracle.budget.conditional_calls == 1

    def test_transcript_matches_draws(self):
        weights = substream(9, "w").uniform(0.1, 1.0, 6)
        hooked, plain = (AdaptedPrefixOracle(interval_breakdown(6), TableIntervalOracle(weights))
                         for _ in range(2))
        records = []
        hooked.on_record = records.append
        rng, plain_rng = substream(10, "draw"), substream(10, "draw")
        for w in ("0", "11"):   # "11" is pure padding
            out = draw(hooked, w, 5, rng)
            assert np.array_equal(out, draw(plain, w, 5, plain_rng))
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
        adapted = LazySimulation(adapter.depth, AdaptedPrefixOracle(adapter, native), 0.4, sim_seed)
        for x in code_rows(np.arange(size), adapter.depth):
            assert direct.query(x) == adapted.query(x)
        for _ in range(10):
            assert direct.sample() == adapted.sample()
        assert hist(direct) == hist(adapted)
        assert direct.oracle.budget.conditional_calls == adapted.oracle.budget.conditional_calls

    @settings(max_examples=25, deadline=None)
    @given(size=st.integers(1, 4096), seed=st.integers(0, 2**32))
    def test_direct_equals_adapted_for_positive_weights(self, size, seed):
        weights = substream(seed, "w").uniform(0.01, 1.0, size)
        adapter = interval_breakdown(size)
        delta = adapter.depth / 3   # m = 3 samples per edge
        direct_oracle = TreeOracle(encoded_marginal_tree(weights))
        adapted_oracle = AdaptedPrefixOracle(adapter, TableIntervalOracle(weights))
        direct = LazySimulation(adapter.depth, direct_oracle, delta, seed)
        adapted = LazySimulation(adapter.depth, adapted_oracle, delta, seed)
        assert direct.m == 3
        for got, want in zip(adapted.sample_batch(32), direct.sample_batch(32)):
            assert np.array_equal(got, want)
        assert hist(adapted) == hist(direct)
        assert adapted_oracle.budget.conditional_calls == direct_oracle.budget.conditional_calls
        assert adapted_oracle.native.calls <= adapted_oracle.budget.conditional_calls

    def test_padded_domain_pipeline_is_consistent(self):
        # padded sizes couple bit for bit (see above); the adapted simulation
        # must also realize exactly on its own
        weights = substream(10, "w").uniform(0.1, 1.0, 5)
        adapter = interval_breakdown(5)
        native = TableIntervalOracle(weights)
        sim = LazySimulation(adapter.depth, AdaptedPrefixOracle(adapter, native), 0.4, 123)
        total = sum(sim.query_exact(x) for x in code_rows(np.arange(8), adapter.depth))
        assert total == Fraction(1)
        for _ in range(20):
            x, p = sim.sample()
            assert p == sim.query(x)


@settings(max_examples=40, deadline=None)
@given(size=st.integers(1, 40), data=st.data(), m=st.integers(1, 5), seed=st.integers(0, 2**32))
def test_adapted_multi_prefix_draw_equals_single_prefix_draws(size, data, m, seed):
    weights = substream(seed, "w").uniform(0.1, 1.0, size)
    adapter = interval_breakdown(size)
    prefixes = data.draw(prefix_blocks(adapter.depth))

    def streams():
        return [substream(seed, "draw", j) for j in range(len(prefixes))]

    native = TableIntervalOracle(weights)
    oracle = AdaptedPrefixOracle(adapter, native, SampleBudget.tracking())
    records = []
    oracle.on_record = records.append
    block = oracle.conditional_sample_batch(prefixes, m, streams())
    single = AdaptedPrefixOracle(adapter, TableIntervalOracle(weights))
    assert np.array_equal(block, np.concatenate([
        single.conditional_sample_batch(prefixes[j:j + 1], m, [rng]) for j, rng in enumerate(streams())]))
    padding = sum(prefix_interval(adapter, w) is None for w in prefixes.tolist())
    assert native.calls == m * (len(prefixes) - padding)
    assert_ledger(oracle, prefixes, m, block, records)


def test_adapted_multi_prefix_draw_with_pure_padding():
    # size 5 has depth 3: "11" holds only padding codes, "10" only element 5
    weights = substream(14, "w").uniform(0.1, 1.0, 5)
    native = TableIntervalOracle(weights)
    oracle = AdaptedPrefixOracle(interval_breakdown(5), native, SampleBudget.tracking())
    records = []
    oracle.on_record = records.append
    prefixes = prefix_rows("01", "11", "10")
    block = oracle.conditional_sample_batch(prefixes, 4, [substream(15, w) for w in ("01", "11", "10")])
    assert native.calls == 8
    assert np.array_equal(block[4:8], substream(15, "11").random((4, 1)) < 0.5)
    assert np.all(block[8:] == 0)
    assert_ledger(oracle, prefixes, 4, block, records)


def single_interval_draw(native, a_elem, b_elem, m, rng):
    """Reference: m draws under one interval, descending from its LCA with one uniform per level."""
    a, b = a_elem - 1, b_elem
    lca_depth = native.depth if a == b - 1 else native.depth - (a ^ (b - 1)).bit_length()
    if lca_depth == native.depth:
        return np.full(m, a_elem, dtype=np.int64)
    u = rng.random((m, native.depth - lca_depth))
    idx = np.full(m, a >> (native.depth - lca_depth), dtype=np.int64)
    for t in range(native.depth - lca_depth):
        f = _split_fractions(native._cum, native.size, native.depth, lca_depth + t, idx, a, b)
        idx = (idx << 1) + (u[:, t] < f)
    return idx + 1


@st.composite
def intervals(draw, size: int):
    a = draw(st.integers(1, size))
    return a, draw(st.integers(a, size))


@settings(max_examples=60, deadline=None)
@given(size=st.integers(1, 300), data=st.data(), m=st.integers(1, 5), seed=st.integers(0, 2**32))
def test_multi_interval_draw_equals_single_interval_draws(size, data, m, seed):
    weights = substream(seed, "w").uniform(0.1, 1.0, size)
    zero_a, zero_b = data.draw(intervals(size))
    weights[zero_a - 1:zero_b] = 0.0   # zero-mass nodes inside split at 0.5
    if not weights.sum() > 0.0:
        weights[-1] = 1.0
    single = data.draw(st.integers(1, size))
    clipped = data.draw(st.integers(1, size))
    bounds = [(1, size), (single, single), (clipped, size), (zero_a, zero_b),
              *data.draw(st.lists(intervals(size), max_size=6))]
    a, b = (np.array(col) for col in zip(*bounds))

    def streams():
        return [substream(seed, "draw", j) for j in range(len(bounds))]

    native, reference = TableIntervalOracle(weights), TableIntervalOracle(weights)
    rngs, reference_rngs = streams(), streams()
    got = native.draw_batch(a, b, m, rngs)
    want = np.concatenate([single_interval_draw(reference, lo, hi, m, rng)
                           for lo, hi, rng in zip(a.tolist(), b.tolist(), reference_rngs)])
    assert got.dtype == np.int64 and np.array_equal(got, want)
    assert ((np.repeat(a, m) <= got) & (got <= np.repeat(b, m))).all()
    assert native.calls == m * len(bounds)
    # each stream gave exactly the uniforms of its own draw, none for one element
    assert [rng.random() for rng in rngs] == [rng.random() for rng in reference_rngs]
