import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from prefixsim.hardness import SignMarginalTree, gen_hard_instance
from prefixsim.oracles import TreeOracle
from prefixsim.streams import substream, substreams
from prefixsim.trees import TableMarginalTree, random_tree

from helpers import (assert_ledger, assert_levels_draw, chi2_critical_99, chi_square_stat, cylinder_mass, draw,
                     draws_after, lane, marginal, mass, point_mass_tree, prefix_blocks, prefix_counts, prefix_rows,
                     uniform_tree)


class TestBudget:
    def test_documented_increments(self):
        oracle = TreeOracle(uniform_tree(3))
        stream = lane(0, "draws")
        draw(oracle, "0", 1, stream)
        assert oracle.conditional_calls == 1
        draw(oracle, "", 5, stream)
        assert oracle.conditional_calls == 6

    def test_per_prefix_histogram(self):
        oracle = TreeOracle(uniform_tree(3))
        records = []
        oracle.on_record = records.append
        stream = lane(0, "draws")
        draw(oracle, "0", 4, stream)
        draw(oracle, "0", 1, stream)
        draw(oracle, "11", 1, stream)
        assert prefix_counts(records) == {"0": 5, "11": 1}
        assert oracle.conditional_calls == 6


class TestConditionalSampling:
    def test_sample_extends_prefix(self):
        oracle = TreeOracle(random_tree(5, substream(1, "t")))
        for w in ("", "0", "10", "0110"):
            out = draw(oracle, w, 3, lane(2, "draw", w))
            assert out.shape == (3, 5 - len(w)) and out.dtype == np.uint8
            assert set(np.unique(out)) <= {0, 1}

    def test_forced_last_level(self):
        # f(w) = 1 at the deepest level forces the closing bit
        levels = [np.array([0.5]), np.array([1.0, 0.0])]
        oracle = TreeOracle(TableMarginalTree(levels))
        out = draw(oracle, "0", 20, lane(3, "draw"))
        assert np.all(out == 1)

    def test_point_mass_returns_the_point(self):
        oracle = TreeOracle(point_mass_tree("1010"))
        stream = lane(4, "draw")
        for w in ("", "1", "10", "101"):
            out = draw(oracle, w, 5, stream)
            assert all(w + "".join(map(str, row)) == "1010" for row in out.tolist())

    def test_cylinder_frequencies_chi_square(self):
        # uniform tree, unconditioned draws: all 8 outcomes equally likely
        oracle = TreeOracle(uniform_tree(3))
        draws = 10_000
        bits = draw(oracle, "", draws, lane(5, "gof"))
        codes = bits @ np.array([4, 2, 1])
        observed = np.bincount(codes, minlength=8)
        stat = chi_square_stat(observed, np.full(8, draws / 8))
        assert stat < chi2_critical_99(7)

    def test_batch_matches_walk_distribution(self):
        tree = random_tree(4, substream(11, "t"), 0.2, 0.8)
        oracle = TreeOracle(tree)
        draws = 20_000
        bits = draw(oracle, "10", draws, lane(12, "gof"))
        codes = bits @ np.array([2, 1])
        expected = np.array([
            mass(tree, "10" + suffix) / cylinder_mass(tree, "10")
            for suffix in ("00", "01", "10", "11")
        ]) * draws
        stat = chi_square_stat(np.bincount(codes, minlength=4), expected)
        assert stat < chi2_critical_99(3)


class TestZeroMassConvention:
    def test_dead_prefix_draws_its_subtree(self):
        # conditioning inside the dead subtree of a point mass walks the
        # subtree's own marginals, which are all 0
        oracle = TreeOracle(point_mass_tree("000"))
        assert cylinder_mass(oracle.tree, "1") == 0.0
        assert [marginal(oracle.tree, w) for w in ("1", "10", "11")] == [0.0, 0.0, 0.0]
        bits = draw(oracle, "1", 20_000, lane(8, "conv"))
        assert bits.shape == (20_000, 2) and np.all(bits == 0)

    def test_an_underflowed_prefix_draws_its_split(self):
        # a yes-instance prefix of 1,150 edges, each 0.05 or 0.95, is live but
        # its float cylinder mass underflows to 0.0
        instance = gen_hard_instance(1200, None, "yes", 7, delta=0.9)
        tree, w = instance.marginal_tree(), instance.x[:1150]
        assert cylinder_mass(tree, w) == 0.0
        one = marginal(tree, w)
        draws = 4_000
        ones = TreeOracle(tree).conditional_sample_batch(np.array([w], dtype=np.uint8), draws,
                                                         lane(7, "underflow"), levels=1)
        assert abs(ones.mean() - one) < 3.0 * np.sqrt(one * (1.0 - one) / draws)

    def test_sample_still_extends_prefix(self):
        oracle = TreeOracle(point_mass_tree("000"))
        out = draw(oracle, "11", 1, lane(9, "conv"))
        assert out.shape == (1, 1)
        assert oracle.conditional_calls == 1


def test_transcript_hook():
    oracle = TreeOracle(uniform_tree(2))
    records = []
    oracle.on_record = records.append
    stream = lane(10, "log")
    out = draw(oracle, "0", 2, stream)
    last = draw(oracle, "1", 1, stream)
    assert [r["kind"] for r in records] == ["conditional", "conditional"]
    assert [(r["prefix"], r["count"]) for r in records] == [("0", 2), ("1", 1)]
    assert records[0]["result"] == ["".join(map(str, row)) for row in out.tolist()]
    assert records[1]["result"] == ["".join(map(str, row)) for row in last.tolist()]
    assert records[0]["budget_after"] == 2
    assert records[1]["budget_after"] == 3



# table trees, where (0, 0) puts all mass on 0...0, and sign trees, where (0, 1)
# puts it on one path: both leave most prefixes at zero mass
_trees = st.one_of(
    st.builds(lambda n, seed, span: random_tree(n, substream(seed, "t"), *span),
              st.integers(1, 6), st.integers(0, 2**32),
              st.sampled_from([(0.2, 0.8), (0.0, 1.0), (0.0, 0.0)])),
    st.builds(lambda n, seed, values: SignMarginalTree(n, seed, *values),
              st.integers(1, 10), st.integers(0, 2**32), st.sampled_from([(0.3, 0.7), (0.0, 1.0)])),
)


@settings(max_examples=60, deadline=None)
@given(tree=_trees, data=st.data(), m=st.integers(1, 5), seed=st.integers(0, 2**32))
def test_multi_prefix_draw_equals_single_prefix_draws(tree, data, m, seed):
    prefixes = data.draw(prefix_blocks(tree.n))

    oracle = TreeOracle(tree)
    records = []
    oracle.on_record = records.append
    block = oracle.conditional_sample_batch(prefixes, m, substreams(seed, "draw", parts=range(len(prefixes))))
    single = TreeOracle(tree)
    assert np.array_equal(block, np.concatenate([
        single.conditional_sample_batch(prefixes[j:j + 1], m, lane(seed, "draw", j))
        for j in range(len(prefixes))]))
    # the unhooked oracle keeps the same ledger as the hooked one's transcript
    assert single.conditional_calls == records[-1]["budget_after"] == sum(r["count"] for r in records)
    # each row walks the tree's marginals from its prefix in plain Python,
    # under a zero-mass prefix too
    for j, w in enumerate(prefixes.tolist()):
        rng = substream(seed, "draw", j)
        for row, uniforms in zip(block[j * m:(j + 1) * m].tolist(), rng.random((m, tree.n - len(w)))):
            path = list(w)
            for u in uniforms:
                path.append(int(u < marginal(tree, path)))
            assert row == path[len(w):]
    assert_ledger(oracle, prefixes, m, block, records)


@pytest.mark.parametrize("tree, prefixes", [
    # f = 0 at the root: every prefix starting with 1 has zero mass
    (TableMarginalTree([np.zeros(1), *(substream(20, "t").uniform(0.2, 0.8, 1 << i) for i in (1, 2, 3))]),
     prefix_rows("10", "01", "11", "00", "10")),
    (SignMarginalTree(6, 21, 0.3, 0.7), prefix_rows("01", "11", "01", "10")),
    (SignMarginalTree(6, 21, 0.3, 0.7), prefix_rows("")),
])
def test_levels_draw_is_the_first_columns_of_a_full_draw(tree, prefixes):
    assert_levels_draw(lambda: TreeOracle(tree), prefixes, 7,
                       lambda: substreams(22, "draw", parts=range(len(prefixes))))


def test_draw_arguments_validated():
    oracle = TreeOracle(uniform_tree(3))
    stream = lane(13, "bad")
    for prefixes, m in ((prefix_rows("0"), 0),          # no rows
                        (prefix_rows("0", "1"), 1),     # a stream short
                        (prefix_rows("000"), 1),        # not a true prefix
                        (np.array([[2]]), 1),           # not a bit
                        (np.array([0, 1]), 1)):         # not a 2-d block
        with pytest.raises(ValueError):
            oracle.conditional_sample_batch(prefixes, m, stream)
    for levels in (0, 3):                               # none, or more than are free
        with pytest.raises(ValueError):
            oracle.conditional_sample_batch(prefix_rows("0"), 1, stream, levels=levels)
    assert oracle.conditional_calls == 0


def test_a_lane_drawn_in_row_blocks_is_one_whole_draw():
    # every block after the first rebuilds each lane's generator and advances it past the rows drawn
    tree = random_tree(6, substream(23, "t"), 0.2, 0.8)
    prefixes = prefix_rows("01", "11", "01")
    whole = TreeOracle(tree).conditional_sample_batch(prefixes, 9, substreams(24, "edge", parts=range(3)))
    group = substreams(24, "edge", parts=range(3))
    blocks = [TreeOracle(tree).conditional_sample_batch(prefixes, rows, group) for rows in (4, 1, 4)]
    for j in range(3):
        rows = np.concatenate([block.reshape(3, -1, 4)[j] for block in blocks])
        assert np.array_equal(rows, whole[j * 9:(j + 1) * 9])
    refs = [substream(24, "edge", j) for j in range(3)]
    for ref in refs:
        ref.random((9, 4))
    assert draws_after(group) == [ref.random() for ref in refs]
