"""Per-frame subband gain estimation.

A classical MMSE log-spectral-amplitude suppressor: gated recursive noise-PSD
tracking, decision-directed a priori SNR, and the LSA gain rule

    G = (xi / (1 + xi)) * exp(0.5 * E1(nu)),   nu = gamma * xi / (1 + xi),

with gains clamped to ``[gain_floor, 1]``.  Gains are real (magnitude-only);
complex per-bin responses enter the pipeline only through gain-stream files.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DataError
from .special import exp_integral_e1

# Below this, nu is treated as its continuity limit (the gain clamps to 1).
_NU_FLOOR = 1e-12


@dataclass(frozen=True)
class EstimatorParams:
    """Suppressor constants; defaults are the normative values for this package.

    The derived linear values are computed on first use and kept, since the
    gain loop reads them on every frame.
    """

    alpha_dd: float = 0.98
    xi_min_db: float = -15.0
    gain_floor_db: float = -25.0
    alpha_noise: float = 0.8
    gamma_threshold: float = 2.5
    init_frames: int = 6
    lambda_floor: float = 1e-20

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha_dd < 1.0:
            raise ConfigError(f"alpha_dd must be in (0, 1), got {self.alpha_dd}")
        if not 0.0 < self.alpha_noise < 1.0:
            raise ConfigError(f"alpha_noise must be in (0, 1), got {self.alpha_noise}")
        if self.gain_floor_db >= 0.0:
            raise ConfigError(
                f"gain_floor_db must be negative, got {self.gain_floor_db}"
            )
        if self.gamma_threshold <= 0.0:
            raise ConfigError(
                f"gamma_threshold must be positive, got {self.gamma_threshold}"
            )
        if self.init_frames < 1:
            raise ConfigError(f"init_frames must be >= 1, got {self.init_frames}")
        if self.lambda_floor <= 0.0:
            raise ConfigError(f"lambda_floor must be positive, got {self.lambda_floor}")

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

    @cached_property
    def gain_floor(self) -> float:
        """Gain floor as a linear amplitude."""
        return 10.0 ** (self.gain_floor_db / 20.0)


class GainFrame(NamedTuple):
    """Per-bin gains for one frame (real for the built-in estimator)."""

    values: np.ndarray


@dataclass
class NoiseTrackerState:
    """Single-owner per-stream state: noise PSD, DD memory, frame counter."""

    noise_psd: np.ndarray
    xi_prev: np.ndarray
    frame_count: int = 0

    @classmethod
    def initial(cls, num_bins: int, params: EstimatorParams) -> "NoiseTrackerState":
        # xi_prev seeds the decision-directed recursion at unity, matching the
        # common reference initialization of this estimator family.
        return cls(
            noise_psd=np.full(num_bins, params.lambda_floor, dtype=np.float64),
            xi_prev=np.full(num_bins, max(1.0, params.xi_min)),
            frame_count=0,
        )


def update_noise_psd(state: NoiseTrackerState, frame,
                     params: EstimatorParams) -> NoiseTrackerState:
    """Advance the noise-PSD estimate with one analysis frame.

    During the first ``init_frames`` frames the PSD is the running mean of
    the per-bin powers (input treated as noise-only).  Afterwards a bin is
    updated by recursive averaging only while its a posteriori SNR against
    the current estimate stays below ``gamma_threshold``; louder bins leave
    the estimate untouched.  Gated updates are scaled by
    ``params.gate_bias_factor`` so the truncated average stays centered on
    the true noise power.  The PSD never drops below ``lambda_floor``.

    The state is updated in place and returned.  ``frame`` is taken as
    ``complex128``, the dtype of the analysis frames.
    """
    frame = np.asarray(frame, dtype=np.complex128)
    if frame.shape != state.noise_psd.shape:
        raise DataError(
            f"frame has {frame.shape} bins, tracker expects {state.noise_psd.shape}"
        )
    power = np.abs(frame)
    power *= power
    if state.frame_count < params.init_frames:
        n = state.frame_count
        if n == 0:
            state.noise_psd = power
        else:
            state.noise_psd = (state.noise_psd * n + power) / (n + 1)
    else:
        gate = power < params.gamma_threshold * state.noise_psd
        updated = params.alpha_noise * state.noise_psd
        power *= (1.0 - params.alpha_noise) * params.gate_bias_factor
        updated += power
        np.copyto(state.noise_psd, updated, where=gate)
    np.maximum(state.noise_psd, params.lambda_floor, out=state.noise_psd)
    state.frame_count += 1
    return state


def mmse_lsa_gain(frame, state: NoiseTrackerState,
                  params: EstimatorParams) -> GainFrame:
    """Compute per-bin suppression gains for one frame.

    Per bin: a posteriori SNR ``gamma = |x|^2 / noise_psd``; decision-directed
    a priori SNR ``xi = max(xi_min, alpha_dd * G_prev^2 * gamma_prev +
    (1 - alpha_dd) * max(gamma - 1, 0))``; ``nu = gamma * xi / (1 + xi)``;
    gain ``(xi / (1 + xi)) * exp(0.5 * E1(nu))`` clamped to
    ``[gain_floor, 1]``.  Updates the DD memory in ``state`` in place.

    ``frame`` is taken as ``complex128``, the dtype of the analysis frames.

    Returns
    -------
    GainFrame
        Real nonnegative gains (zero phase modification).
    """
    frame = np.asarray(frame, dtype=np.complex128)
    if frame.shape != state.noise_psd.shape:
        raise DataError(
            f"frame has {frame.shape} bins, tracker expects {state.noise_psd.shape}"
        )
    gamma = np.abs(frame)
    gamma *= gamma
    gamma /= state.noise_psd
    xi = gamma - 1.0
    np.maximum(xi, 0.0, out=xi)
    xi *= 1.0 - params.alpha_dd
    xi += params.alpha_dd * state.xi_prev
    np.maximum(xi, params.xi_min, out=xi)
    ratio = xi + 1.0
    np.divide(xi, ratio, out=ratio)
    nu = gamma * ratio
    np.maximum(nu, _NU_FLOOR, out=nu)
    gain = exp_integral_e1(nu)
    gain *= 0.5
    np.exp(gain, out=gain)
    gain *= ratio
    np.maximum(gain, params.gain_floor, out=gain)  # np.clip, minus its
    np.minimum(gain, 1.0, out=gain)                # Python-level overhead
    xi_prev = gain * gain
    xi_prev *= gamma
    state.xi_prev = np.maximum(xi_prev, params.xi_min, out=xi_prev)
    return GainFrame(values=gain)


def estimate_gains(frames: np.ndarray, params: EstimatorParams,
                   state: NoiseTrackerState | None = None) -> np.ndarray:
    """Run the tracker + gain rule over a matrix of consecutive frames.

    Per frame: noise-PSD update first, then the gain (so the gain always sees
    the current frame's estimate).  Deterministic: identical inputs give
    bit-identical gains.

    Parameters
    ----------
    frames : numpy.ndarray
        ``K x bins`` complex analysis frames.
    params : EstimatorParams
    state : NoiseTrackerState, optional
        The tracker to continue (advanced in place); a fresh one when omitted.

    Returns
    -------
    numpy.ndarray
        ``K x bins`` real gains in ``[gain_floor, 1]``.
    """
    frames = np.asarray(frames)
    if frames.ndim != 2:
        raise DataError(f"expected a 2-D frame matrix, got shape {frames.shape}")
    if state is None:
        state = NoiseTrackerState.initial(frames.shape[1], params)
    out = np.empty(frames.shape, dtype=np.float64)
    for k in range(frames.shape[0]):
        state = update_noise_psd(state, frames[k], params)
        out[k] = mmse_lsa_gain(frames[k], state, params).values
    return out
