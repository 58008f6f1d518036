"""Exception types shared across the package."""


class BalanceLabError(Exception):
    """Base class for every error raised by this package."""


class ShapeError(BalanceLabError, ValueError):
    """Array dimensions do not satisfy an operation's precondition."""


class ContractError(BalanceLabError, ValueError):
    """An argument violates a documented contract (stale cache, bad label, ...)."""


class NumericError(BalanceLabError, ArithmeticError):
    """A computation produced or received non-finite values."""


class SpecError(BalanceLabError, ValueError):
    """Invalid dataset spec, split fractions, sampling weights, or method parameter."""


class FormatError(BalanceLabError, ValueError):
    """A dataset or checkpoint file is malformed.

    Carries the offending line number when known.
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ConfigError(BalanceLabError, ValueError):
    """Experiment configuration is malformed; the message names the key path."""


class DivergenceError(BalanceLabError, ArithmeticError):
    """Training produced a non-finite loss."""

    def __init__(self, epoch: int, batch: int, loss: float):
        super().__init__(f"non-finite loss {loss!r} at epoch {epoch}, batch {batch}")
        self.epoch = epoch
        self.batch = batch
