"""Error taxonomy shared across the package.

Exit-code mapping used by the CLI:

* usage errors (bad flags) -> 2, handled by argparse
* :class:`DataError` and subclasses -> 3
* :class:`NumericError` -> 4
"""


class FbeqError(Exception):
    """Base class for package errors."""


class DataError(FbeqError):
    """Malformed input data, file format, or incompatible configuration."""


class FormatError(DataError):
    """A binary stream or audio file violates its format contract."""


class ConfigError(DataError):
    """Inconsistent geometry or parameter set."""


class NumericError(FbeqError):
    """A numeric invariant was violated at run time."""
