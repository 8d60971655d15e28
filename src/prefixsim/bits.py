"""Bit strings and true prefixes of the domain {0,1}^n."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Union


def _validated_bits(bits: Iterable[int]) -> tuple[int, ...]:
    out = tuple(int(b) for b in bits)
    if any(b not in (0, 1) for b in out):
        raise ValueError(f"bits must be 0 or 1, got {out!r}")
    return out


@dataclass(frozen=True)
class BitString:
    """An immutable element of {0,1}^n, n >= 1."""

    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "bits", _validated_bits(self.bits))
        if len(self.bits) < 1:
            raise ValueError("a bit string must have length at least 1")

    @classmethod
    def from_str(cls, s: str) -> "BitString":
        return cls(tuple(int(c) for c in s))

    @classmethod
    def from_int(cls, value: int, n: int) -> "BitString":
        """The n-bit big-endian encoding of value (0 <= value < 2**n)."""
        if not 0 <= value < (1 << n):
            raise ValueError(f"value {value} does not fit in {n} bits")
        return cls(tuple((value >> (n - 1 - i)) & 1 for i in range(n)))

    @property
    def n(self) -> int:
        return len(self.bits)

    def as_str(self) -> str:
        return "".join(map(str, self.bits))

    def as_int(self) -> int:
        return index_of(self.bits)

    def __len__(self) -> int:
        return len(self.bits)

    def __iter__(self) -> Iterator[int]:
        return iter(self.bits)

    def __getitem__(self, i):
        return self.bits[i]

    def __str__(self) -> str:
        return self.as_str()


@dataclass(frozen=True)
class Prefix:
    """A true prefix w of strings in {0,1}^n: 0 <= |w| < n."""

    n: int
    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "bits", _validated_bits(self.bits))
        if self.n < 1:
            raise ValueError("ambient length must be at least 1")
        if len(self.bits) >= self.n:
            raise ValueError(f"prefix of length {len(self.bits)} is not a true prefix for n={self.n}")

    @classmethod
    def from_str(cls, n: int, s: str) -> "Prefix":
        return cls(n, tuple(int(c) for c in s))

    @property
    def depth(self) -> int:
        return len(self.bits)

    def is_prefix_of(self, x: BitString) -> bool:
        return x.n == self.n and x.bits[: self.depth] == self.bits


PrefixLike = Union[Prefix, str, tuple, list]
BitStringLike = Union[BitString, str, tuple, list]


def index_of(bits: Iterable[int]) -> int:
    """The big-endian value of a bit sequence."""
    value = 0
    for b in bits:
        value = (value << 1) | b
    return value


def as_prefix(n: int, w: PrefixLike) -> Prefix:
    """Coerce a prefix-like value (Prefix, '010' string, or bit sequence)."""
    if isinstance(w, Prefix):
        if w.n != n:
            raise ValueError(f"prefix has ambient length {w.n}, expected {n}")
        return w
    if isinstance(w, str):
        return Prefix.from_str(n, w)
    return Prefix(n, tuple(int(b) for b in w))


def as_bitstring(x: BitStringLike, n: int | None = None) -> BitString:
    """Coerce a bitstring-like value, optionally checking its length."""
    if isinstance(x, BitString):
        out = x
    elif isinstance(x, str):
        out = BitString.from_str(x)
    else:
        out = BitString(tuple(int(b) for b in x))
    if n is not None and out.n != n:
        raise ValueError(f"bit string has length {out.n}, expected {n}")
    return out
