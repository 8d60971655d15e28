import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from prefixsim.streams import _seed_words, child_seed, substream, substreams


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
        assert group.random(lane) == ref.random()
        assert np.array_equal(group.random(lane, (40, 3)), ref.random((40, 3)))
        out = np.empty(25)
        assert group.random(lane, out=out) is out and np.array_equal(out, ref.random(25))


@pytest.mark.parametrize("key", [(), ("edge",), ("effective", "no", 3), ("ключ", -7, "é")])
def test_group_child_seeds_equal_child_seed(key):
    # the group hashes (seed, *key) once and copies the hash per part
    parts = ["", "0110", 0, 17, -3, "ü", "邊", 2 ** 70]
    group = substreams(5, *key, parts=parts)
    assert np.array_equal(group._words, _seed_words([child_seed(5, *key, part) for part in parts]))
    assert [group.random(lane) for lane in range(len(parts))] == [
        substream(5, *key, part).random() for part in parts]


def test_lanes_keep_their_own_positions():
    # lanes read in any order and in blocks of any shape each continue their own stream
    group = substreams(3, "edge", parts=["a", "b"])
    refs = [substream(3, "edge", part) for part in ("a", "b")]
    for lane, size in ((0, (2, 3)), (1, 5), (0, None), (1, (1, 0)), (0, (4, 2)), (1, 7)):
        assert np.array_equal(group.random(lane, size), refs[lane].random(size))
