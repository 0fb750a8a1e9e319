"""Engine configuration: defaults, plain-text config files, flag overrides.

Config files are ``key = value`` lines; ``#`` starts a comment.  Flags win
over file values, which win over defaults.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .errors import ConfigError

MODES = ("ols", "direct")


@dataclass(frozen=True)
class Config:
    """Full engine configuration; defaults give the 16 kHz low-latency setup.

    Checked when built, and immutable: the filterbank geometry first, then
    the estimator's constants and the engine's settings.  The estimator's
    derived linear values are computed when the config is built, where each
    must come out finite, and kept for the gain loop.
    """

    frame_size: int = 512
    proto_len: int = 512
    hop: int = 64
    sample_rate_hz: int = 16000
    alpha_dd: float = 0.98
    xi_min_db: float = -15.0
    alpha_noise: float = 0.8
    gamma_threshold: float = 2.5
    init_frames: int = 6
    shorten_len: int = 128
    mode: str = "ols"
    g_max: float = 4.0

    def __post_init__(self) -> None:
        check_field_types(self)  # every field, before any value check
        m, big_l, r = self.frame_size, self.proto_len, self.hop
        if m <= 0 or big_l <= 0 or r <= 0 or self.sample_rate_hz <= 0:
            raise ConfigError("filterbank geometry values must be positive")
        if m % 2 != 0:
            raise ConfigError("frame size must be even for half-spectrum storage, "
                              f"got {m}")
        if big_l % 2 != 0:
            raise ConfigError(f"prototype order must be even, got {big_l}")
        if big_l + 1 < m:
            raise ConfigError(f"prototype length {big_l + 1} must be at least the "
                              f"frame size {m}")
        if r > m:
            raise ConfigError(f"hop {r} must not exceed frame size {m}")
        if m % r != 0:
            raise ConfigError(f"hop {r} must divide frame size {m}")
        if not 0.0 < self.alpha_dd < 1.0:
            raise ConfigError(f"alpha_dd must be in (0, 1), got {self.alpha_dd}")
        if not 0.0 < self.alpha_noise < 1.0:
            raise ConfigError(f"alpha_noise must be in (0, 1), got {self.alpha_noise}")
        if self.gamma_threshold <= 0.0:
            raise ConfigError(
                f"gamma_threshold must be positive, got {self.gamma_threshold}"
            )
        if self.init_frames < 1:
            raise ConfigError(f"init_frames must be >= 1, got {self.init_frames}")
        for derived, name in _DERIVED_FROM.items():
            try:
                with np.errstate(divide="ignore", invalid="ignore"):
                    value = getattr(self, derived)
            except OverflowError:
                value = math.inf
            if not math.isfinite(value):
                raise ConfigError(f"{name} = {getattr(self, name)} makes {derived} "
                                  f"non-finite ({value})")
        check_shorten_len(self.shorten_len, num_taps=self.proto_len + 1,
                          hop=self.hop)
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got '{self.mode}'")
        if not self.g_max > 0.0:
            raise ConfigError(f"g_max must be positive and finite, got {self.g_max}")

    @property
    def tau(self) -> int:
        """Group-delay center of the prototype, ``proto_len / 2`` samples."""
        return self.proto_len // 2

    @property
    def num_bins(self) -> int:
        """Stored (half-spectrum) bin count, ``frame_size / 2 + 1``."""
        return self.frame_size // 2 + 1

    def num_frames(self, num_samples: int) -> int:
        """Analysis frame count for a given input length."""
        return max(0, int(num_samples) // self.hop)

    @cached_property
    def xi_min(self) -> float:
        """A priori SNR floor as a linear power ratio."""
        return 10.0 ** (self.xi_min_db / 10.0)

    @cached_property
    def gate_bias_factor(self) -> float:
        """Correction for the gate's truncation of the power distribution.

        Updating the noise PSD only from frames below ``gamma_threshold``
        discards the upper tail of the per-bin power distribution, so the
        plain conditional mean settles below the true noise power.  For a
        complex-Gaussian bin the power is exponentially distributed and the
        shrinkage under the gate is
        ``B(T) = (1 - (1 + T) e^-T) / (1 - e^-T)`` with ``T`` the threshold;
        scaling gated updates by ``1/B`` makes the true PSD the tracker's
        fixed point.  Tends to 1 as the gate opens up (``T`` large).
        """
        t = self.gamma_threshold
        et = np.exp(-t)
        return (1.0 - et) / (1.0 - (1.0 + t) * et)

    # Callers that ask for either part get the config itself.
    def filterbank_spec(self) -> Config:
        return self

    def estimator_params(self) -> Config:
        return self


def check_field_types(settings) -> None:
    """Raise :class:`ConfigError` naming the first field of the dataclass
    ``settings`` whose value does not fit its declared type.

    An ``int`` field takes an integer, NumPy's included; a ``float`` field
    takes a finite real number.  Neither takes a ``bool``.  An accepted
    value is stored as the Python type of its field: a NumPy scalar as the
    number it equals, an integer given for a ``float`` field as a ``float``,
    so ``Config(g_max=4)`` prints and serializes as ``Config()`` does.
    """
    for field in fields(settings):
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
        plain = int if field.type == "int" else float
        if type(value) is not plain:
            object.__setattr__(settings, field.name, plain(value))


def check_shorten_len(shorten_len: int, num_taps: int | None = None,
                      hop: int | None = None) -> None:
    """Validate the short-filter length P, the one place P and the hop are checked.

    P must be positive and even.  Given ``num_taps``, the central-P window
    around the group-delay point ``(num_taps - 1) // 2`` must fit inside a
    filter of that many taps.  Given ``hop``, ``hop <= P + 1``, or the
    2P-point overlap-save blocks would alias.
    """
    p = shorten_len
    if p <= 0 or p % 2 != 0:
        raise ConfigError(f"shorten_len must be a positive even number, got {p}")
    if num_taps is not None:
        start = (num_taps - 1) // 2 - p // 2
        if start < 0:  # P is even, so the window's end fits when its start does
            raise ConfigError(
                f"shorten_len {p} does not fit inside a {num_taps}-tap filter: "
                f"its central window [{start}, {start + p - 1}] falls outside "
                f"taps 0..{num_taps - 1}"
            )
    if hop is not None and hop > p + 1:
        raise ConfigError(
            f"hop {hop} exceeds shorten_len + 1 = {p + 1}; "
            "overlap-save blocks would alias"
        )


# Each derived constant and the setting it is computed from.
_DERIVED_FROM = {"xi_min": "xi_min_db", "gate_bias_factor": "gamma_threshold"}

_FIELDS = {f.name: f.type for f in fields(Config)}
# Parses a flag or config-file value by its field's type; text stays text.
_PARSERS = {"int": int, "float": float}


def _coerce(key: str, raw: str):
    if key not in _FIELDS:
        raise ConfigError(f"unknown config key '{key}'")
    try:
        return _PARSERS.get(_FIELDS[key], str)(raw)
    except ValueError as exc:
        raise ConfigError(f"config key '{key}': {exc}") from exc


def load_config_file(path) -> dict:
    """Parse a ``key = value`` UTF-8 config file into an override dict."""
    overrides: dict = {}
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.encode("utf-8")  # bytes that were not UTF-8 are surrogates now
            except UnicodeEncodeError:
                raise ConfigError(f"{path}:{lineno}: not UTF-8 text") from None
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise ConfigError(
                    f"{path}:{lineno}: expected 'key = value', got '{body}'"
                )
            key, _, value = body.partition("=")
            overrides[key.strip()] = _coerce(key.strip(), value.strip())
    return overrides


def build_config(config_path=None, overrides: dict | None = None) -> Config:
    """Compose defaults, an optional config file, and explicit overrides."""
    merged: dict = {}
    if config_path is not None:
        merged.update(load_config_file(config_path))
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key not in _FIELDS:
            raise ConfigError(f"unknown config key '{key}'")
        merged[key] = value
    return Config(**merged)
