import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from prefixsim.streams import _entropy_words, child_seed, substream, substreams


def _seed_words(seeds) -> np.ndarray:
    """SeedSequence(s).generate_state(4, np.uint64) of each seed 0 <= s < 2^128, as one (k, 4) array."""
    return _entropy_words(b"".join(s.to_bytes(16, "little") * 2 for s in seeds))


def test_same_key_same_stream():
    a = substream(7, "edge", "0110")
    b = substream(7, "edge", "0110")
    assert a.random(10).tolist() == b.random(10).tolist()


def test_distinct_keys_differ():
    seeds = {
        child_seed(7, "edge", ""),
        child_seed(7, "edge", "0"),
        child_seed(7, "edge", "1"),
        child_seed(7, "user"),
        child_seed(8, "edge", ""),
    }
    assert len(seeds) == 5


def test_creation_order_is_irrelevant():
    first = substream(3, "edge", "01")
    second = substream(3, "edge", "10")
    a1 = first.random(5).tolist()
    a2 = second.random(5).tolist()

    second_again = substream(3, "edge", "10")
    first_again = substream(3, "edge", "01")
    assert second_again.random(5).tolist() == a2
    assert first_again.random(5).tolist() == a1


# Group seeding: substreams runs SeedSequence's algorithm vectorized over a
# group; default_rng (substream) is the reference it must equal bit for bit.

BOUNDARY_SEEDS = [0, 1, 2 ** 32 - 1, 2 ** 64, 2 ** 96 - 1, 2 ** 128 - 1]   # 0 to 4 nonzero uint32 words


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 2 ** 128 - 1), max_size=9))
@example(BOUNDARY_SEEDS)
def test_seed_words_equal_seed_sequence(seeds):
    words = _seed_words(seeds)
    assert words.shape == (len(seeds), 4) and words.dtype == np.uint64
    for seed, row in zip(seeds, words):
        reference = np.random.SeedSequence(seed).generate_state(4, np.uint64)
        assert np.array_equal(row, reference)
        assert np.array_equal(_seed_words([seed])[0], reference)


@pytest.mark.parametrize("parts", [[], ["01"], ["", "0", "1", "00", "0110", 7]])
def test_substreams_equal_substream(parts):
    group = substreams(11, "edge", parts=parts)
    assert len(group) == len(parts)
    for lane, part in enumerate(parts):
        ref = substream(11, "edge", part)
        assert group.draw(1, 1, [lane]).tolist() == [[ref.random()]]
        assert np.array_equal(group.draw(40, 3, [lane]), ref.random((40, 3)))
        assert np.array_equal(group.draw(5, [5], [lane]), ref.random(25))


@pytest.mark.parametrize("key", [(), ("edge",), ("effective", "no", 3), ("ключ", -7, "é")])
def test_group_child_seeds_equal_child_seed(key):
    # the group hashes (seed, *key) once and writes each part's digest into the entropy block
    parts = ["", "0110", 0, 17, -3, "ü", "邊", 2 ** 70]
    group = substreams(5, *key, parts=parts)
    assert np.array_equal(group._words, _seed_words([child_seed(5, *key, part) for part in parts]))
    assert group.draw(1, 1).ravel().tolist() == [substream(5, *key, part).random() for part in parts]


def test_lanes_keep_their_own_positions():
    # lanes read in any order and in blocks of any shape each continue their own stream
    group = substreams(3, "edge", parts=["a", "b"])
    refs = [substream(3, "edge", part) for part in ("a", "b")]
    for lane, rows, cols in ((0, 2, 3), (1, 5, 1), (0, 1, 1), (1, 1, 0), (0, 4, 2), (1, 7, 1)):
        assert np.array_equal(group.draw(rows, cols, [lane]), refs[lane].random((rows, cols)))


# The block draw: one call fills the next rows of many lanes, each lane's
# slice what substream's Generator.random gives for that lane's key.

@settings(max_examples=40, deadline=None)
@given(st.data())
def test_block_draw_of_a_lane_subset_in_any_order(data):
    parts = ["", "0", "1", "01", "110", 9]
    group = substreams(13, "edge", parts=parts)
    refs = [substream(13, "edge", part) for part in parts]
    for _ in range(3):   # each call continues where the lanes stand
        lanes = data.draw(st.permutations(range(len(parts))).flatmap(
            lambda order: st.integers(0, len(order)).map(lambda size: order[:size])))
        rows, cols = data.draw(st.integers(0, 6)), data.draw(st.integers(0, 4))
        block = group.draw(rows, cols, lanes)
        assert block.shape == (len(lanes) * rows, cols) and block.dtype == np.float64
        for i, lane in enumerate(lanes):
            assert np.array_equal(block[i * rows:(i + 1) * rows], refs[lane].random((rows, cols)))
    assert group.draw(1, 1).ravel().tolist() == [ref.random() for ref in refs]


def test_block_draw_of_one_width_per_lane():
    # the lanes' (rows, width) blocks follow each other row-major; width 0 draws nothing
    group = substreams(14, parts=range(4))
    refs = [substream(14, part) for part in range(4)]
    widths = [3, 0, 1, 2]
    flat = group.draw(5, np.array(widths), [2, 1, 3, 0])
    assert flat.shape == (5 * 6,)
    want = [refs[lane].random((5, widths[i])).ravel() for i, lane in enumerate([2, 1, 3, 0])]
    assert np.array_equal(flat, np.concatenate(want))
    assert group.draw(1, 1).ravel().tolist() == [ref.random() for ref in refs]


def test_block_draw_of_no_rows_draws_nothing():
    group = substreams(15, "edge", parts=["a", "b", "c"])
    assert group.draw(0, 4).shape == (0, 4) and group.draw(0, 0).shape == (0, 0)
    assert group.draw(2, 0).shape == (6, 0)
    assert group.draw(0, [2, 1], [2, 0]).shape == (0,)
    assert group.draw(1, 1).ravel().tolist() == [substream(15, "edge", p).random() for p in "abc"]


def test_a_lane_read_across_several_blocks_is_one_draw():
    # blocks of 3, 0, 1 and 4 rows of width 5 give the rows of one (8, 5) draw
    group = substreams(16, parts=["x", "y"])
    blocks = [group.draw(rows, 5, [1, 0]) for rows in (3, 0, 1, 4)]
    for i, part in enumerate(("y", "x")):
        rows = np.concatenate([block.reshape(2, -1, 5)[i] for block in blocks])
        assert np.array_equal(rows, substream(16, part).random((8, 5)))
