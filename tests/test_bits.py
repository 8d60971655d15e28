import numpy as np
import pytest
from hypothesis import given, strategies as st

from prefixsim.bits import code_rows, element_bits, prefix_bits


def test_bitstring_basics():
    x = element_bits("101", 3)
    assert x == (1, 0, 1)
    assert all(type(b) is int for b in x)
    assert "".join(map(str, x)) == "101"
    assert code_rows(5, 3).tolist() == list(x)


def test_bitstring_validation():
    with pytest.raises(ValueError):
        element_bits((), 1)
    with pytest.raises(ValueError):
        element_bits((0, 2), 2)
    with pytest.raises(ValueError):
        element_bits("0a1", 3)
    with pytest.raises(ValueError):
        element_bits("010", 4)
    with pytest.raises(ValueError):
        element_bits((1, 1), 1)


@given(st.integers(min_value=1, max_value=16), st.data())
def test_bitstring_int_roundtrip(n, data):
    value = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    x = element_bits(code_rows(value, n), n)
    assert len(x) == n
    assert int("".join(map(str, x)), 2) == value
    assert element_bits("".join(map(str, x)), n) == x


def test_prefix_basics():
    w = prefix_bits("10", 4)
    assert w == (1, 0)
    assert element_bits("1011", 4)[:len(w)] == w
    assert element_bits("1111", 4)[:len(w)] != w
    assert prefix_bits((), 4) == ()
    assert prefix_bits("", 1) == ()


def test_prefix_must_be_true_prefix():
    with pytest.raises(ValueError):
        prefix_bits((0, 1, 1), 3)
    with pytest.raises(ValueError):
        prefix_bits("01", 2)
    with pytest.raises(ValueError):
        prefix_bits((), 0)
    with pytest.raises(ValueError):
        prefix_bits((0, 2), 3)
    with pytest.raises(ValueError):
        prefix_bits("1-", 3)


def test_coercions():
    # a '01' string, a tuple and a uint8 row give the same tuple of ints
    row = np.array([0, 1, 0], dtype=np.uint8)
    assert element_bits("010", 3) == element_bits((0, 1, 0), 3) == element_bits(row, 3) == (0, 1, 0)
    assert prefix_bits("01", 3) == prefix_bits([0, 1], 3) == prefix_bits(row[:2], 3) == (0, 1)
    assert all(type(b) is int for b in element_bits(row, 3))


@given(width=st.integers(1, 70), data=st.data())
def test_code_rows_are_big_endian(width, data):
    # object arrays hold node ids past 2^62; int64 codes are shifted past their 64 bits at width > 64
    for dtype, top in ((object, (1 << width) - 1), (np.int64, min((1 << width) - 1, 2**63 - 1))):
        values = data.draw(st.lists(st.integers(0, top), min_size=1, max_size=8))
        rows = code_rows(np.array(values, dtype=dtype), width)
        assert rows.dtype == np.uint8 and rows.shape == (len(values), width)
        assert rows.tolist() == [[int(c) for c in format(v, f"0{width}b")] for v in values]
