"""Exception hierarchy shared across the package."""


class VfunctaError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(VfunctaError):
    """Operand shapes are incompatible. The message names both shapes."""


class ContractError(VfunctaError):
    """A caller violated an operation's precondition."""


class NonFiniteError(VfunctaError):
    """An operation produced NaN or Inf values."""

    def __init__(self, op: str):
        super().__init__(f"non-finite values produced by '{op}'")
        self.op = op


class DivergenceError(VfunctaError):
    """Optimization produced a non-finite loss or weight (`what`) at inner
    step `step`, the outer step being step K; `iteration`, when set, is
    the outer iteration it ended."""

    def __init__(self, step: int, loss_history, what: str = "loss"):
        super().__init__()
        self.step = step
        self.loss_history = list(loss_history)
        self.what = what
        self.iteration: int | None = None

    def __str__(self) -> str:
        history = ", ".join(f"{x:.6g}" for x in self.loss_history)
        where = "" if self.iteration is None else f" of outer iteration {self.iteration}"
        return f"non-finite {self.what} at step {self.step}{where} (history: [{history}])"


class FormatError(VfunctaError):
    """A binary file does not conform to its container format."""


class BadMagicError(FormatError):
    pass


class UnsupportedVersionError(FormatError):
    pass


class TruncatedFileError(FormatError):
    pass


class ChecksumError(FormatError):
    pass


class FingerprintMismatchError(VfunctaError):
    """An encoding was produced by a different model than the one supplied."""

    def __init__(self, expected: int, actual: int):
        super().__init__(
            f"encoding was produced by model {expected:016x}, "
            f"but decode was given model {actual:016x}"
        )
        self.expected = expected
        self.actual = actual


class SingleClassError(VfunctaError):
    """AUROC is undefined when only one class is present."""


class ConfigError(VfunctaError):
    """A configuration file is malformed or inconsistent."""


class DataError(VfunctaError):
    """A video file or corpus manifest could not be read."""
