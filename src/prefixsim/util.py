"""Small numeric helpers shared across modules."""

from __future__ import annotations

import math
from typing import Iterator

#: Most uniforms a caller asks of one draw call; larger draws are split into
#: consecutive blocks of whole rows or whole prefixes (row_blocks), so memory
#: stays bounded.
MAX_BLOCK_UNIFORMS = 1 << 20


def row_blocks(rows: int, free: int) -> Iterator[int]:
    """Sizes of consecutive blocks covering rows items of free uniforms each.

    Each block holds at most MAX_BLOCK_UNIFORMS uniforms, but at least one
    item; an item is a draw's row, or a prefix with all its rows.
    """
    step = max(1, MAX_BLOCK_UNIFORMS // max(free, 1))
    for start in range(0, rows, step):
        yield min(step, rows - start)


def ceil_snap(value: float, tol: float = 1e-9) -> int:
    """Ceiling that forgives float noise in quotients that are really integers.

    Quantities like n/delta or 15/r**2 are integers for the parameter values
    used throughout, but float division can land a hair above them; snapping
    keeps sample counts at their intended values.
    """
    nearest = round(value)
    if abs(value - nearest) <= tol * max(1.0, abs(value)):
        return int(nearest)
    return math.ceil(value)
