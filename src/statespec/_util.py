"""Internal helpers shared across modules.

Array ownership follows one rule.  An array that comes from the user is
copied on input, so later edits to the caller's array cannot reach a
result.  An array the package has just allocated, and hands to nobody
else, is adopted without a copy: wrapped in `owned` before it is passed
to a dataclass.  Either way `frozen_array` marks the stored array
read-only, so every array a returned result holds is read-only, and
every check in the dataclass ``__post_init__`` runs the same on both
paths.
"""

from __future__ import annotations

import numpy as np


class owned:
    """Marks an array the package has just allocated and holds no other
    reference to, so `frozen_array` adopts it instead of copying it."""

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray):
        self.array = array


def frozen_array(values, dtype=None, ndim=None, name="array") -> np.ndarray:
    """A read-only ndarray of ``values``, optionally checking rank.

    ``values`` is copied, unless it is wrapped in `owned`: then the array
    itself is marked read-only in place (converted only if its dtype
    differs).
    """
    if isinstance(values, owned):
        arr = np.asarray(values.array, dtype=dtype)
    else:
        arr = np.array(values, dtype=dtype)
    if ndim is not None and arr.ndim != ndim:
        raise ValueError(f"{name} must have {ndim} dimension(s), got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


def append_in_place(values: np.ndarray, size: int, block: np.ndarray, capacity: int = 0) -> int:
    """Write ``block`` after the first ``size`` entries of the 1-d ``values``
    and return the new size.

    A full ``values`` is enlarged in place to hold the block, or to
    ``capacity`` if that is more, so blocks appended one by one are never
    held beside their concatenation, nor is room held for values that
    never come.  The realloc behind `ndarray.resize` mostly extends or
    remaps a large array where it lies: growing it a block at a time
    measured no slower than growing it by half.  ``values`` must own its
    data and have no views; the caller trims it to the final size with
    ``values.resize(size, refcheck=False)``.
    """
    end = size + block.size
    if end > values.size:
        values.resize(max(end, capacity), refcheck=False)
    values[size:end] = block
    return end
