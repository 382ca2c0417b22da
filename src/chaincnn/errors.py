"""Exception types shared across the package.

Everything derives from ValueError or OSError family roots so callers
that do not care about the fine-grained class can still catch broadly.
The CLI maps these onto process exit codes.
"""


class ChainCnnError(Exception):
    """Root of the package exception hierarchy."""


class ShapeError(ChainCnnError, ValueError):
    """Operands have incompatible or unsupported shapes."""


class ParameterError(ChainCnnError, ValueError):
    """A numeric argument is outside its allowed range."""


class ModeError(ChainCnnError, ValueError):
    """An operation was invoked in a mode it does not support: with a model
    of the wrong kind, or as a backward through an already consumed graph."""


class DegenerateStatsError(ChainCnnError, ValueError):
    """Batch statistics are undefined, e.g. a fully masked batch."""


class EmptyLossError(ChainCnnError, ValueError):
    """A loss or metric was requested over zero masked-in positions."""


class NonFiniteError(ChainCnnError, ArithmeticError):
    """A NaN or infinity surfaced where finite values are required."""


class ConfigError(ChainCnnError, ValueError):
    """A run configuration file or override is invalid."""


class UsageError(ChainCnnError, ValueError):
    """Bad command-line invocation."""


class DataFormatError(ChainCnnError, ValueError):
    """An input file does not follow its declared binary or text format."""


class MalformedRecordError(DataFormatError):
    """A decoded protein record violates the record invariants."""


class CheckpointError(DataFormatError):
    """A checkpoint file is corrupt or does not match the target model."""
