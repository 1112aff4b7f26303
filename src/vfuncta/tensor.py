"""Read-only parameter arrays.

`MetaModel` alone makes `Tensor` leaves, one per parameter array it is
given (every other module passes and reads plain arrays): a float32 or
float64 array, checked finite and marked read-only once. An array that
no one can write any more is held as it is rather than copied, so a
loaded model's parameters stay views of the one array its file was read
into. The network's passes in `model.py` work on the arrays under `.data`.
"""

from __future__ import annotations

import numpy as np

from .errors import NonFiniteError


class Tensor:
    """One parameter's immutable array; non-finite input is refused by `name`."""

    __slots__ = ("data",)

    def __init__(self, data, name: str):
        if _frozen(data):
            arr = data
        else:
            arr = np.array(data, copy=True)
            if arr.dtype not in (np.float32, np.float64):
                arr = arr.astype(np.float64)
        if not np.isfinite(arr).all():
            raise NonFiniteError(name)
        arr.setflags(write=False)
        self.data = arr


def _frozen(data) -> bool:
    """Whether `data` can be held without a copy: a C-contiguous, aligned
    float32 or float64 array in native byte order that is read-only, as
    is every array down to the one that owns its memory."""
    if not (isinstance(data, np.ndarray) and data.dtype in (np.float32, np.float64)
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
