"""Elements and true prefixes of the domain {0,1}^n, and the bit order of codes.

A caller passes one element or prefix as a '01' string or a sequence of 0/1
bits; the package holds it as a tuple of ints.  Blocks of elements or
prefixes are 0/1 arrays with one per row.
"""

from __future__ import annotations

import numpy as np


def element_bits(x, n: int) -> tuple[int, ...]:
    """The element x of {0,1}^n, a '01' string or a 0/1 sequence, as a tuple of ints."""
    bits = tuple(int(b) for b in x)
    if len(bits) != n or not set(bits) <= {0, 1}:
        raise ValueError(f"an element needs {n} bits, each 0 or 1, got {bits!r}")
    return bits


def prefix_bits(w, n: int) -> tuple[int, ...]:
    """The true prefix w (0 <= |w| < n), a '01' string or a 0/1 sequence, as a tuple of ints."""
    bits = tuple(int(b) for b in w)
    if len(bits) >= n or not set(bits) <= {0, 1}:
        raise ValueError(f"a true prefix for n={n} needs fewer than {n} bits, each 0 or 1, got {bits!r}")
    return bits


def code_rows(codes, width: int) -> np.ndarray:
    """The low width bits of each integer code as a uint8 row, most significant bit first.

    codes is an int or an int64 array; the result has codes' shape plus a last axis of width.
    """
    return ((np.asarray(codes)[..., None] >> np.arange(width - 1, -1, -1)) & 1).astype(np.uint8)
