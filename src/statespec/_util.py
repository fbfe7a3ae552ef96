"""Internal helpers shared across modules.

Array ownership follows one rule.  An array that comes from the user is
copied on input, so later edits to the caller's array cannot reach a
result.  An array the package has just allocated, and hands to nobody
else, is adopted without a copy: wrapped in `owned` before it is passed
to a dataclass.  Either way `frozen_array` marks the stored array
read-only, so every array a returned result holds is read-only, and
every check in the dataclass ``__post_init__`` runs the same on both
paths.  `frozen_field` is the one way a result stores an array field.

An array read in blocks, of a length not known in advance, grows in place
by `append_in_place`.
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


def frozen_field(result, name: str, dtype=None, ndim=None) -> np.ndarray:
    """Field ``name`` of the frozen dataclass ``result`` as a `frozen_array`,
    stored back in its place and returned."""
    arr = frozen_array(getattr(result, name), dtype=dtype, ndim=ndim, name=name)
    object.__setattr__(result, name, arr)
    return arr


def append_in_place(values: np.ndarray, block: np.ndarray) -> None:
    """Grow the 1-d ``values`` in place by ``block``, written at its end.

    Blocks appended one by one are never held beside their concatenation.
    The realloc behind `ndarray.resize` mostly extends or remaps a large
    array where it lies: growing it a block at a time measured no slower
    than growing it by half.  ``values`` must own its data and have no views.
    """
    size = values.size
    values.resize(size + block.size, refcheck=False)
    values[size:] = block
