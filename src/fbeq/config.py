"""Engine configuration: defaults, plain-text config files, flag overrides.

Config files are ``key = value`` lines; ``#`` starts a comment.  Flags win
over file values, which win over defaults.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .errors import ConfigError
from .filterbank import FilterbankSpec, check_shorten_len
from .gains import EstimatorParams

MODES = ("ols", "direct")


@dataclass
class Config:
    """Full engine configuration; defaults give the 16 kHz low-latency setup."""

    frame_size: int = 512
    proto_len: int = 512
    hop: int = 64
    sample_rate_hz: int = 16000
    shorten_len: int = 128
    mode: str = "ols"
    gains: str | None = None
    g_max: float = 4.0
    alpha_dd: float = 0.98
    xi_min_db: float = -15.0
    gain_floor_db: float = -25.0
    alpha_noise: float = 0.8
    gamma_threshold: float = 2.5
    init_frames: int = 6
    lambda_floor: float = 1e-20

    def filterbank_spec(self) -> FilterbankSpec:
        return FilterbankSpec(
            frame_size=self.frame_size,
            proto_len=self.proto_len,
            hop=self.hop,
            sample_rate_hz=self.sample_rate_hz,
        )

    def estimator_params(self) -> EstimatorParams:
        return EstimatorParams(
            alpha_dd=self.alpha_dd,
            xi_min_db=self.xi_min_db,
            gain_floor_db=self.gain_floor_db,
            alpha_noise=self.alpha_noise,
            gamma_threshold=self.gamma_threshold,
            init_frames=self.init_frames,
            lambda_floor=self.lambda_floor,
        )

    def validate(self) -> "Config":
        """Re-validate every module-level invariant; returns self."""
        self.filterbank_spec()
        self.estimator_params()
        check_shorten_len(self.shorten_len, num_taps=self.proto_len + 1,
                          hop=self.hop)
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got '{self.mode}'")
        if self.g_max <= 0:
            raise ConfigError(f"g_max must be positive, got {self.g_max}")
        return self


_FIELDS = {f.name: f.type for f in fields(Config)}


def _coerce(key: str, raw: str):
    if key not in _FIELDS:
        raise ConfigError(f"unknown config key '{key}'")
    kind = _FIELDS[key]
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
    except ValueError as exc:
        raise ConfigError(f"config key '{key}': {exc}") from exc
    if raw.lower() in ("none", ""):
        return None
    return raw


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
    return Config(**merged).validate()
