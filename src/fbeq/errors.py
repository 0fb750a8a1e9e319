"""Error taxonomy shared across the package.

Exit-code mapping used by the CLI:

* usage errors (bad flags) -> 2, handled by argparse
* :class:`DataError` and subclasses -> 3
* :class:`NumericError` -> 4
"""

import dataclasses
import math
import numbers


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


def check_field_types(settings) -> None:
    """Raise :class:`ConfigError` naming the first field of the dataclass
    ``settings`` whose value does not fit its declared type.

    An ``int`` field takes an integer, NumPy's included; a ``float`` field
    takes a finite real number.  Neither takes a ``bool``.
    """
    for field in dataclasses.fields(settings):
        value = getattr(settings, field.name)
        if field.type not in ("int", "float"):
            continue
        kind = numbers.Integral if field.type == "int" else numbers.Real
        if isinstance(value, bool) or not isinstance(value, kind):
            noun = "an integer" if field.type == "int" else "a real number"
            raise ConfigError(f"{field.name} must be {noun}, got {value!r}")
        try:
            finite = math.isfinite(value)
        except OverflowError:  # an int beyond the float range
            finite = False
        if not finite:
            raise ConfigError(f"{field.name} must be finite, got {value}")
