import pytest
from hypothesis import given, strategies as st

from prefixsim.bits import BitString, Prefix, as_bitstring, as_prefix


def test_bitstring_basics():
    x = BitString.from_str("101")
    assert x.n == 3
    assert x.bits == (1, 0, 1)
    assert x.as_str() == "101"
    assert x.as_int() == 5
    assert list(x) == [1, 0, 1]
    assert x[1] == 0


def test_bitstring_validation():
    with pytest.raises(ValueError):
        BitString(())
    with pytest.raises(ValueError):
        BitString((0, 2))
    with pytest.raises(ValueError):
        BitString.from_int(8, 3)


@given(st.integers(min_value=1, max_value=16), st.data())
def test_bitstring_int_roundtrip(n, data):
    value = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    x = BitString.from_int(value, n)
    assert x.n == n
    assert x.as_int() == value
    assert BitString.from_str(x.as_str()) == x


def test_prefix_basics():
    w = Prefix.from_str(4, "10")
    assert w.depth == 2
    assert w.is_prefix_of(BitString.from_str("1011"))
    assert not w.is_prefix_of(BitString.from_str("1111"))
    assert Prefix(4, ()).depth == 0


def test_prefix_must_be_true_prefix():
    with pytest.raises(ValueError):
        Prefix(3, (0, 1, 1))
    with pytest.raises(ValueError):
        Prefix.from_str(2, "01")
    with pytest.raises(ValueError):
        Prefix(0, ())


def test_coercions():
    assert as_prefix(3, "01") == Prefix(3, (0, 1))
    assert as_prefix(3, (0, 1)) == Prefix(3, (0, 1))
    assert as_bitstring("010") == BitString((0, 1, 0))
    assert as_bitstring((1, 1), n=2) == BitString((1, 1))
    with pytest.raises(ValueError):
        as_bitstring("010", n=4)
    with pytest.raises(ValueError):
        as_prefix(2, Prefix(3, (0,)))
