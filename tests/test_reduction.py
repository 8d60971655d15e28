from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from prefixsim import reduction, trees
from prefixsim.bits import code_rows
from prefixsim.reduction import (
    AdaptedPrefixOracle,
    EncodedMarginalTree,
    TableIntervalOracle,
    _split_fractions,
    code_depth,
    element_bounds,
    mass_preserved,
)
from prefixsim.simulation import LazySimulation
from prefixsim.oracles import TreeOracle
from prefixsim.streams import child_seed, substream, substreams

from helpers import (assert_ledger, assert_levels_draw, draw, draws_after, hist, lane, prefix_blocks, prefix_rows,
                     query_exact, table_builder_levels)


def prefix_interval(size, w):
    """Inclusive element interval {a..b} of the prefix w (a '01' string or bits) over {1..size}, or None for pure padding."""
    bits = "".join(map(str, w))
    a, b, padding = element_bounds(size, len(bits), [int(bits or "0", 2)])
    return None if padding[0] else (int(a[0]), int(b[0]))


class TestEncoding:
    def test_depth_and_element_codes(self):
        for size, depth in ((1, 1), (2, 1), (3, 2), (4, 2), (5, 3), (8, 3), (4096, 12)):
            assert code_depth(size) == depth
            native = TableIntervalOracle(np.ones(size))
            assert AdaptedPrefixOracle(native).n == native.depth == depth
        with pytest.raises(ValueError):
            code_depth(0)

    def test_prefix_to_interval(self):
        assert prefix_interval(8, "") == (1, 8)
        assert prefix_interval(8, "1") == (5, 8)
        assert prefix_interval(8, "10") == (5, 6)

    def test_padding(self):
        assert code_depth(5) == 3
        assert prefix_interval(5, "11") is None
        assert prefix_interval(5, "1") == (5, 5)

    def test_bounds_of_a_level_at_once(self):
        # size 5, depth 3: the depth-2 prefixes hold {1, 2}, {3, 4}, {5} and padding
        a, b, padding = element_bounds(5, 2, [0, 1, 2, 3])
        assert a[:3].tolist() == [1, 3, 5] and b[:3].tolist() == [2, 4, 5]
        assert padding.tolist() == [False, False, False, True]

    @pytest.mark.parametrize("depth, index", [(1, [2]), (2, [0, -1]), (0, [1]), (3, [0]), (-1, [0])])
    def test_index_outside_the_tree_is_rejected(self, depth, index):
        with pytest.raises(ValueError):
            element_bounds(5, depth, index)

    @pytest.mark.parametrize("n_elements", [1, 2, 5, 8, 11, 16])
    def test_every_prefix_decodes_to_an_interval(self, n_elements):
        depth = code_depth(n_elements)
        for length in range(depth):
            for bits in product((0, 1), repeat=length):
                members = sorted(
                    code + 1
                    for code in range(min(1 << depth, n_elements))
                    if tuple(code_rows(code, depth)[:length].tolist()) == bits
                )
                interval = prefix_interval(n_elements, bits)
                if not members:
                    assert interval is None
                else:
                    assert interval == (members[0], members[-1])
                    assert members == list(range(members[0], members[-1] + 1))


def members(size, bits):
    """The elements of {1..size} under the prefix bits, as a set."""
    interval = prefix_interval(size, bits)
    return set() if interval is None else set(range(interval[0], interval[1] + 1))


class TestBreakdownTree:
    @pytest.mark.parametrize("n_elements", [1, 3, 5, 8])
    def test_structural_invariants(self, n_elements):
        # the root holds the whole domain and every node is the disjoint union of its children
        assert members(n_elements, ()) == set(range(1, n_elements + 1))
        for length in range(code_depth(n_elements) - 1):
            for bits in product((0, 1), repeat=length):
                left, right = members(n_elements, bits + (0,)), members(n_elements, bits + (1,))
                assert left | right == members(n_elements, bits) and not left & right

    def test_padding_leaves_empty(self):
        assert members(5, "11") == set()
        assert members(5, "10") == {5}


class TestEncodedTree:
    def test_padding_gets_zero_mass(self):
        weights = [0.2, 0.2, 0.2, 0.2, 0.2]
        tree = EncodedMarginalTree(weights)
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
        depth = code_depth(n_elements)
        for code in range(1 << depth):
            expected = Fraction(float(weights[code])) / total if code < n_elements else Fraction(0)
            assert masses[code] == expected
        assert mass_preserved(weights)

    def test_mass_check_rejects_bad_weights(self):
        for weights in ([], [0.0, 0.0], [0.5, -0.25], [1.0, float("nan")], [1.0, float("inf")],
                        [1e308, 1e308], 5.0, np.array(5.0)):
            with pytest.raises(ValueError):
                mass_preserved(weights)

    @pytest.mark.parametrize("weights", [5.0, np.array(5.0)], ids=["float", "0-d-array"])
    def test_tree_and_oracle_reject_scalar_weights(self, weights):
        # N is read from the checked sums, so a scalar fails the weights' check
        with pytest.raises(ValueError):
            EncodedMarginalTree(weights)
        with pytest.raises(ValueError):
            TableIntervalOracle(weights)

    @pytest.mark.parametrize("weights", [[1.0, float("inf"), 2.0], [1.0, float("nan")], [1e308, 1e308],
                                         [float("inf")]])
    def test_tree_and_oracle_reject_non_finite_weights(self, weights):
        # an infinite weight (or a total past the float range) gave NaN splits
        # and an oracle that never drew the infinite element
        with pytest.raises(ValueError):
            EncodedMarginalTree(weights)
        with pytest.raises(ValueError):
            TableIntervalOracle(weights)


def fraction_masses(weights) -> list:
    """Per-code masses of the encoded tree over Fractions: the float builder's split ratios, exactly."""
    n_elements = len(weights)
    depth = code_depth(n_elements)
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


MASS_SIZES = st.one_of(st.sampled_from([1, 2, 3, 4, 64, 300, 512, 513, 4095, 4096]), st.integers(1, 4096))


@st.composite
def mass_weights(draw, sizes=MASS_SIZES):
    """Weight vectors with zero runs, of the sizes drawn (N = 1, powers of two and sizes up to 4096)."""
    size = draw(sizes)
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


#: Sizes 1 to 4096, and every 2^k - 1 and 2^k + 1 among them.
CODE_TREE_SIZES = st.one_of(st.integers(1, 4096),
                            st.sampled_from([(1 << k) + d for k in range(1, 13) for d in (-1, 1) if (1 << k) + d <= 4096]))


@settings(max_examples=60, deadline=None)
@given(mass_weights(CODE_TREE_SIZES))
def test_lazy_code_tree_materializes_the_table_builders_levels(weights):
    tree = EncodedMarginalTree(weights)
    assert len(tree.cum) == len(weights) + 1
    table = tree.materialize()
    want = table_builder_levels(weights)
    assert table.n == tree.n == len(want)
    for depth, level in enumerate(want):
        assert table.level(depth).tobytes() == level.tobytes()


@pytest.mark.parametrize("size", [10 ** 6 + 3, 2 ** 20 + 1])
def test_direct_equals_adapted_on_the_lazy_code_tree(size, monkeypatch):
    # no table is built on either route: the direct oracle walks the lazy tree
    def no_table(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(trees.TableMarginalTree, "__init__", no_table)
    weights = substream(size, "w").uniform(0.01, 1.0, size)
    depth = code_depth(size)
    direct_oracle = TreeOracle(EncodedMarginalTree(weights))
    adapted_oracle = AdaptedPrefixOracle(TableIntervalOracle(weights))
    direct, adapted = (LazySimulation(oracle, depth / 3, 41) for oracle in (direct_oracle, adapted_oracle))
    assert direct.m == 3
    bits, masses = direct.sample_batch(32)
    adapted_bits, adapted_masses = adapted.sample_batch(32)
    assert np.array_equal(bits, adapted_bits) and np.array_equal(masses, adapted_masses)
    assert np.array_equal(direct.query_batch(bits), masses)
    assert np.array_equal(adapted.query_batch(bits), masses)
    assert hist(direct) == hist(adapted)
    for sim in (direct, adapted):
        assert sim.oracle.conditional_calls == sim.m * sim.touched_pairs
    # the lazy splits along the sampled paths are their nodes' weight shares
    for level in range(depth):
        index = np.unique(bits[:, :level] @ (1 << np.arange(level - 1, -1, -1)))
        half = 1 << (depth - level - 1)
        shares = [weights[mid:mid + half].sum() / weights[mid - half:mid + half].sum()
                  for mid in (index * 2 + 1) * half]
        np.testing.assert_allclose(direct_oracle.tree._step(level, index)[0], shares, rtol=1e-9, atol=0)


class TestAdaptedOracle:
    def test_one_native_draw_per_conditional_draw(self):
        weights = substream(1, "w").uniform(0.1, 1.0, 8)
        native = TableIntervalOracle(weights)
        oracle = AdaptedPrefixOracle(native)
        stream = lane(2, "draw")
        draw(oracle, "1", 1, stream)
        draw(oracle, "", 10, stream)
        assert native.calls == 11
        assert oracle.conditional_calls == 11

    def test_native_draws_stay_in_interval(self):
        weights = substream(3, "w").uniform(0.1, 1.0, 11)
        native = TableIntervalOracle(weights)
        stream = lane(4, "draw")
        for (a, b) in [(1, 11), (2, 2), (3, 7), (9, 11)]:
            elems = native.draw_batch([a], [b], 200, stream)
            assert elems.min() >= a and elems.max() <= b

    def test_zero_mass_native_interval_still_valid(self):
        weights = np.array([1.0, 0.0, 0.0, 0.0, 2.0])
        native = TableIntervalOracle(weights)
        elems = native.draw_batch([2], [4], 500, lane(5, "draw"))
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
            native.draw_batch(a, b, m, substreams(17, parts=range(streams)))
        assert native.calls == 0

    @pytest.mark.parametrize("lanes", [[-1], [2], [5], [0, 0], [1, 1]],
                             ids=["negative", "past-the-end", "far-past-the-end", "repeated-0", "repeated-1"])
    def test_draw_batch_rejects_bad_lanes(self, lanes):
        # each interval reads a lane of its own: a lane out of range, or shared,
        # is rejected before any lane is drawn or any row charged
        native = TableIntervalOracle(np.ones(8))
        group = substreams(18, parts=range(2))
        with pytest.raises(ValueError):
            native.draw_batch([1] * len(lanes), [8] * len(lanes), 4, group, lanes)
        assert native.calls == 0
        assert draws_after(group) == draws_after(substreams(18, parts=range(2)))

    def test_padding_prefix_draws_zeros(self):
        weights = substream(6, "w").uniform(0.1, 1.0, 5)
        native = TableIntervalOracle(weights)
        oracle = AdaptedPrefixOracle(native)
        out = draw(oracle, "11", 1, lane(7, "draw"))
        assert out.tolist() == [[0]]
        assert native.calls == 0
        assert oracle.conditional_calls == 1

    def test_transcript_matches_draws(self):
        weights = substream(9, "w").uniform(0.1, 1.0, 6)
        hooked, plain = (AdaptedPrefixOracle(TableIntervalOracle(weights)) for _ in range(2))
        records = []
        hooked.on_record = records.append
        stream, plain_stream = lane(10, "draw"), lane(10, "draw")
        for w in ("0", "11"):   # "11" is pure padding
            out = draw(hooked, w, 5, stream)
            assert np.array_equal(out, draw(plain, w, 5, plain_stream))
            assert records[-1]["result"] == ["".join(map(str, row)) for row in out.tolist()]
        assert [(r["prefix"], r["count"]) for r in records] == [("0", 5), ("11", 5)]
        assert records[-1]["budget_after"] == 10
        # the unhooked oracle keeps the same ledger as the hooked one's transcript
        assert plain.conditional_calls == records[-1]["budget_after"] == sum(r["count"] for r in records)


class TestCoupling:
    @pytest.mark.parametrize("size", [2, 4, 8, 16, 3, 5, 6, 12, 100])
    def test_pipeline_is_bit_identical(self, size):
        weights = substream(size, "w").uniform(0.05, 1.0, size)
        depth = code_depth(size)
        sim_seed = child_seed(99, "sim", size)
        native = TableIntervalOracle(weights)
        direct = LazySimulation(TreeOracle(native.tree.materialize()), 0.4, sim_seed)
        adapted = LazySimulation(AdaptedPrefixOracle(native), 0.4, sim_seed)
        for x in code_rows(np.arange(size), depth):
            assert direct.query(x) == adapted.query(x)
        for _ in range(10):
            assert direct.sample() == adapted.sample()
        assert hist(direct) == hist(adapted)
        assert direct.oracle.conditional_calls == adapted.oracle.conditional_calls

    @settings(max_examples=25, deadline=None)
    @given(size=st.integers(1, 4096), seed=st.integers(0, 2**32))
    def test_direct_equals_adapted_for_positive_weights(self, size, seed):
        weights = substream(seed, "w").uniform(0.01, 1.0, size)
        depth = code_depth(size)
        delta = depth / 3   # m = 3 samples per edge
        direct_oracle = TreeOracle(EncodedMarginalTree(weights))
        adapted_oracle = AdaptedPrefixOracle(TableIntervalOracle(weights))
        direct = LazySimulation(direct_oracle, delta, seed)
        adapted = LazySimulation(adapted_oracle, delta, seed)
        assert direct.m == 3
        for got, want in zip(adapted.sample_batch(32), direct.sample_batch(32)):
            assert np.array_equal(got, want)
        assert hist(adapted) == hist(direct)
        assert adapted_oracle.conditional_calls == direct_oracle.conditional_calls
        assert adapted_oracle.native.calls <= adapted_oracle.conditional_calls

    @settings(max_examples=40, deadline=None)
    @given(weights=mass_weights(st.integers(1, 70)), seed=st.integers(0, 2**32))
    def test_direct_equals_adapted_with_zero_weights(self, weights, seed):
        # both routes walk the code tree's own splits: 1/2 at a zero-mass node
        # with elements on both sides, 0 at a pure-padding one
        depth = code_depth(len(weights))
        direct, adapted = (LazySimulation(oracle, depth / 3, seed) for oracle in (
            TreeOracle(EncodedMarginalTree(weights)), AdaptedPrefixOracle(TableIntervalOracle(weights))))
        assert direct.m == 3
        for sim in (direct, adapted):
            sim.materialize()
        assert hist(direct) == hist(adapted)
        assert direct.oracle.conditional_calls == adapted.oracle.conditional_calls
        codes = code_rows(np.arange(1 << depth), depth)
        assert np.array_equal(direct.query_batch(codes), adapted.query_batch(codes))

    def test_padded_domain_pipeline_is_consistent(self):
        # padded sizes couple bit for bit (test_pipeline_is_bit_identical
        # runs 3, 5, 6, 12 and 100); the adapted simulation must also realize
        # exactly on its own
        weights = substream(10, "w").uniform(0.1, 1.0, 5)
        native = TableIntervalOracle(weights)
        sim = LazySimulation(AdaptedPrefixOracle(native), 0.4, 123)
        total = sum(query_exact(sim, x) for x in code_rows(np.arange(8), 3))
        assert total == Fraction(1)
        for _ in range(20):
            x, p = sim.sample()
            assert p == sim.query(x)


@settings(max_examples=40, deadline=None)
@given(size=st.integers(1, 40), data=st.data(), m=st.integers(1, 5), seed=st.integers(0, 2**32))
def test_adapted_multi_prefix_draw_equals_single_prefix_draws(size, data, m, seed):
    weights = substream(seed, "w").uniform(0.1, 1.0, size)
    prefixes = data.draw(prefix_blocks(code_depth(size)))

    native = TableIntervalOracle(weights)
    oracle = AdaptedPrefixOracle(native)
    records = []
    oracle.on_record = records.append
    block = oracle.conditional_sample_batch(prefixes, m, substreams(seed, "draw", parts=range(len(prefixes))))
    single = AdaptedPrefixOracle(TableIntervalOracle(weights))
    assert np.array_equal(block, np.concatenate([
        single.conditional_sample_batch(prefixes[j:j + 1], m, lane(seed, "draw", j))
        for j in range(len(prefixes))]))
    padding = sum(prefix_interval(size, w) is None for w in prefixes.tolist())
    assert native.calls == m * (len(prefixes) - padding)
    assert_ledger(oracle, prefixes, m, block, records)


def test_adapted_multi_prefix_draw_with_pure_padding():
    # size 5 has depth 3: "11" holds only padding codes, "10" only element 5
    weights = substream(14, "w").uniform(0.1, 1.0, 5)
    native = TableIntervalOracle(weights)
    oracle = AdaptedPrefixOracle(native)
    records = []
    oracle.on_record = records.append
    prefixes = prefix_rows("01", "11", "10")
    group = substreams(15, parts=("01", "11", "10"))
    block = oracle.conditional_sample_batch(prefixes, 4, group)
    assert native.calls == 8
    # the code tree's split at a pure-padding node is f = 0, and its lane is not read
    assert np.all(block[4:8] == 0)
    assert draws_after(group)[1] == substream(15, "11").random()
    assert np.all(block[8:] == 0)
    assert_ledger(oracle, prefixes, 4, block, records)


def test_adapted_levels_draw_is_the_first_columns_of_a_full_draw():
    # size 5 has depth 3: "11" holds only padding codes, "1" element 5 and padding
    weights = substream(16, "w").uniform(0.1, 1.0, 5)
    for prefixes in (prefix_rows("01", "11", "10", "11"), prefix_rows(""), prefix_rows("1", "0", "1")):
        assert_levels_draw(lambda: AdaptedPrefixOracle(TableIntervalOracle(weights)), prefixes, 6,
                           lambda: substreams(17, "draw", parts=range(len(prefixes))))


def single_interval_draw(native, a_elem, b_elem, m, rng):
    """Reference: m draws under one interval, descending from its LCA with one uniform per level."""
    a, b = a_elem - 1, b_elem
    lca_depth = native.depth if a == b - 1 else native.depth - (a ^ (b - 1)).bit_length()
    if lca_depth == native.depth:
        return np.full(m, a_elem, dtype=np.int64)
    u = rng.random((m, native.depth - lca_depth))
    idx = np.full(m, a >> (native.depth - lca_depth), dtype=np.int64)
    for t in range(native.depth - lca_depth):
        f = _split_fractions(native.tree.cum, native.size, native.depth, lca_depth + t, idx, a, b)
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

    native, reference = TableIntervalOracle(weights), TableIntervalOracle(weights)
    group = substreams(seed, "draw", parts=range(len(bounds)))
    reference_rngs = [substream(seed, "draw", j) for j in range(len(bounds))]
    got = native.draw_batch(a, b, m, group)
    want = np.concatenate([single_interval_draw(reference, lo, hi, m, rng)
                           for lo, hi, rng in zip(a.tolist(), b.tolist(), reference_rngs)])
    assert got.dtype == np.int64 and np.array_equal(got, want)
    assert ((np.repeat(a, m) <= got) & (got <= np.repeat(b, m))).all()
    assert native.calls == m * len(bounds)
    # each stream gave exactly the uniforms of its own draw, none for one element
    assert draws_after(group) == [rng.random() for rng in reference_rngs]


def test_an_interval_lane_drawn_in_row_blocks_is_one_whole_draw():
    # the intervals' lanes draw 4, 0, 2 and 1 uniforms per row; blocks after
    # the first advance each lane past the rows it drew
    bounds = ([1, 4, 9, 3], [11, 4, 11, 4])
    widths = [4, 0, 2, 1]
    weights = substream(18, "w").uniform(0.1, 1.0, 11)
    whole = TableIntervalOracle(weights).draw_batch(*bounds, 7, substreams(19, parts=range(4)))
    group = substreams(19, parts=range(4))
    native = TableIntervalOracle(weights)
    blocks = [native.draw_batch(*bounds, rows, group) for rows in (3, 1, 3)]
    for j in range(4):
        rows = np.concatenate([block.reshape(4, -1)[j] for block in blocks])
        assert np.array_equal(rows, whole[j * 7:(j + 1) * 7])
    refs = [substream(19, j) for j in range(4)]
    for ref, t in zip(refs, widths):
        ref.random((7, t))
    assert draws_after(group) == [ref.random() for ref in refs]


# Level-limited draws: the native draw stops at a code depth and the adapted
# oracle asks it for the levels it returns.  Both must give the first columns
# of a full draw at the full draw's cost, with each lane left where the full
# draw leaves it.

def level_prefixes(size: int, depth: int) -> np.ndarray:
    """Prefixes of one depth over {1..size}: the first, the last and one between them, and
    the one clipped by element size (its LCA lies below it) and the pure-padding one after it."""
    width = code_depth(size) - depth
    clipped = (size - 1) >> width
    index = sorted({0, (1 << depth) // 3, clipped, min(clipped + 1, (1 << depth) - 1), (1 << depth) - 1})
    return code_rows(np.array(index), depth).reshape(len(index), depth)


@pytest.mark.parametrize("size", [5, 300, 1000, 4096])
def test_native_levels_draw_is_a_full_draw_shifted(size):
    # the whole domain, the last element alone, the one or two elements of its
    # parent node, and random intervals
    weights = substream(size, "w").uniform(0.1, 1.0, size)
    depth = code_depth(size)
    lo, hi = np.sort(substream(size, "bounds").integers(1, size + 1, (2, 6)), axis=0)
    parent_a, parent_b, _ = element_bounds(size, depth - 1, [(size - 1) >> 1])
    bounds = np.concatenate([[1, size], parent_a, lo]), np.concatenate([[size, size], parent_b, hi])
    full_native, group = TableIntervalOracle(weights), substreams(size, "draw", parts=range(len(bounds[0])))
    full = full_native.draw_batch(*bounds, 4, group) - 1
    after = draws_after(group)
    for levels in range(1, depth + 1):
        native, group = TableIntervalOracle(weights), substreams(size, "draw", parts=range(len(bounds[0])))
        nodes = native.draw_batch(*bounds, 4, group, levels=levels)
        assert nodes.dtype == np.int64 and np.array_equal(nodes, full >> (depth - levels))
        assert native.calls == full_native.calls
        assert draws_after(group) == after
    with pytest.raises(ValueError):
        TableIntervalOracle(weights).draw_batch(*bounds, 4, group, levels=depth + 1)


@pytest.mark.parametrize("size", [5, 300, 1000, 4096])
def test_adapted_levels_draw_at_every_depth(size):
    # the blocks hold whole, deep-LCA and pure-padding prefixes (no padding at 4096)
    weights = substream(size, "w").uniform(0.1, 1.0, size)
    for depth in range(code_depth(size)):
        prefixes = level_prefixes(size, depth)
        assert_levels_draw(lambda: AdaptedPrefixOracle(TableIntervalOracle(weights)), prefixes, 3,
                           lambda: substreams(size, depth, parts=range(len(prefixes))))


def test_first_free_level_reads_one_split_per_interval(monkeypatch):
    # every row of an interval sits at the prefix node, so a levels=1 draw
    # splits one node per non-padding prefix (forced where the LCA lies below)
    weights = substream(21, "w").uniform(0.1, 1.0, 300)
    split, sizes = reduction._split_fractions, []
    monkeypatch.setattr(reduction, "_split_fractions", lambda *args: sizes.append(np.size(args[4])) or split(*args))
    oracle = AdaptedPrefixOracle(TableIntervalOracle(weights))
    prefixes = prefix_rows("0000", "0110", "1001", "1111")   # "1001" holds 289..300 (LCA at depth 5), "1111" padding
    oracle.conditional_sample_batch(prefixes, 50, substreams(22, parts=range(4)), levels=1)
    assert sizes == [3]
    sizes.clear()
    oracle.conditional_sample_batch(prefixes[:1], 50, substreams(22, parts=range(1)), levels=2)
    assert sizes == [1, 50]


def test_full_and_hooked_draws_keep_their_pinned_rows():
    # pinned from the descent that walked every row to full depth on every
    # draw; "11" is pure padding, whose rows are 0
    weights = substream(30, "w").uniform(0.1, 1.0, 11)
    elems = TableIntervalOracle(weights).draw_batch([1, 4, 9, 3], [11, 4, 11, 4], 3, substreams(31, parts=range(4)))
    assert elems.tolist() == [5, 11, 2, 4, 4, 4, 11, 10, 11, 3, 3, 3]
    oracle, records = AdaptedPrefixOracle(TableIntervalOracle(weights)), []
    oracle.on_record = records.append
    block = oracle.conditional_sample_batch(prefix_rows("01", "10", "11", "00"), 2, substreams(32, parts=range(4)),
                                            levels=1)
    assert block.ravel().tolist() == [1, 0, 1, 1, 0, 0, 1, 0]
    assert [r["result"] for r in records] == [["10", "00"], ["10", "10"], ["00", "00"], ["10", "00"]]
