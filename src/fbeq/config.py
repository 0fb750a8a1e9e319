"""Engine configuration: defaults, plain-text config files, flag overrides.

Config files are ``key = value`` lines; ``#`` starts a comment.  Flags win
over file values, which win over defaults.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .errors import ConfigError, check_field_types
from .filterbank import FilterbankSpec, check_shorten_len
from .gains import EstimatorParams

MODES = ("ols", "direct")


@dataclass(frozen=True)
class Config(EstimatorParams, FilterbankSpec):
    """Full engine configuration; defaults give the 16 kHz low-latency setup.

    Checked when built, and immutable.  A :class:`FilterbankSpec` and an
    :class:`EstimatorParams` itself, with their fields (geometry first) and
    defaults, so it goes wherever either part is taken.
    """

    shorten_len: int = 128
    mode: str = "ols"
    g_max: float = 4.0

    def __post_init__(self) -> None:
        check_field_types(self)  # every field, before any value check
        self._check_geometry()
        self._check_constants()
        check_shorten_len(self.shorten_len, num_taps=self.proto_len + 1,
                          hop=self.hop)
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got '{self.mode}'")
        if not self.g_max > 0.0:
            raise ConfigError(f"g_max must be positive and finite, got {self.g_max}")

    # A Config is both parts; these return it to callers that still ask for one.
    def filterbank_spec(self) -> FilterbankSpec:
        return self

    def estimator_params(self) -> EstimatorParams:
        return self


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
    """Parse a ``key = value`` config file into an override dict."""
    overrides: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
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
