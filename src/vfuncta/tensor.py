"""Read-only parameter arrays.

The network's weights, the arrays read back from containers and the
parameters of an outer update are all `Tensor` leaves: a float32 or
float64 numpy array, checked finite and marked read-only once. The
forward and backward passes of the network live in `model.py` and work
on the plain arrays under `.data`.
"""

from __future__ import annotations

import numpy as np

from .errors import NonFiniteError


class Tensor:
    """Immutable dense array of parameters; non-finite input is rejected."""

    __slots__ = ("data",)

    def __init__(self, data, dtype=None):
        arr = np.array(data, dtype=dtype, copy=True)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        if not np.isfinite(arr).all():
            raise NonFiniteError("tensor")
        arr.setflags(write=False)
        self.data = arr

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype})"
