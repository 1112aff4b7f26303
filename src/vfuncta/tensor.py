"""Read-only parameter arrays.

The network's weights, the arrays read back from containers and the
parameters of an outer update are all `Tensor` leaves: a float32 or
float64 numpy array, checked finite and marked read-only once. An array
that no one can write any more is held as it is rather than copied, so
a loaded model's parameters stay views of the one array its file was
read into. The forward and backward passes of the network live in
`model.py` and work on the plain arrays under `.data`.
"""

from __future__ import annotations

import numpy as np

from .errors import NonFiniteError


class Tensor:
    """Immutable dense array of parameters; non-finite input is rejected."""

    __slots__ = ("data",)

    def __init__(self, data, dtype=None):
        if _frozen(data, dtype):
            arr = data
        else:
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


def _frozen(data, dtype) -> bool:
    """Whether `data` can be held without a copy: a C-contiguous, aligned
    float32 or float64 array in native byte order (and in `dtype`, when
    given) that is read-only, as is every array down to the one that owns
    its memory."""
    if not (isinstance(data, np.ndarray) and data.dtype in (np.float32, np.float64)
            and (dtype is None or np.dtype(dtype) == data.dtype)
            and data.flags.c_contiguous and data.flags.aligned):
        return False
    arr = data
    while isinstance(arr, np.ndarray):
        if arr.flags.writeable:
            return False
        if arr.base is None:
            return True
        arr = arr.base
    return False
