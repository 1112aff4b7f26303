"""The holder of one parameter array: `MetaModel`'s per-layer lists hold a
`Tensor` per parameter, and its passes read the array under `.data`."""


class Tensor:
    """One parameter's read-only array, as `MetaModel` took it in."""

    __slots__ = ("data",)

    def __init__(self, data):
        self.data = data
