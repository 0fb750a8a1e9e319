"""Per-frame subband gain estimation.

A classical MMSE log-spectral-amplitude suppressor: gated recursive noise-PSD
tracking, decision-directed a priori SNR, and the LSA gain rule

    G = (xi / (1 + xi)) * exp(0.5 * E1(nu)),   nu = gamma * xi / (1 + xi),

with gains clamped to ``[gain_floor, 1]``.  Gains are real (magnitude-only);
complex per-bin responses enter the pipeline only through gain-stream files.
E1 is :func:`scipy.special.exp1`, imported at the first call of
:func:`exp_integral_e1`, so ``import fbeq`` does not load ``scipy.special``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import Config
from .errors import DataError, NumericError

# Below this, nu is treated as its continuity limit (the gain clamps to 1).
_NU_FLOOR = 1e-12


class GainFrame(NamedTuple):
    """Per-bin gains for one frame (real for the built-in estimator)."""

    values: np.ndarray


@dataclass
class NoiseTrackerState:
    """Single-owner per-stream state: noise PSD, DD memory, frame counter.

    ``noise_psd`` has the shape of the last :func:`update_noise_psd` input:
    the estimate after one frame, or after each frame of an ``n x bins``
    block, for :func:`mmse_lsa_gain` to read, which cuts a block to its last
    row once it has formed the block's SNR.  So between blocks the state
    holds one frame's estimate.  The next update continues from the last row
    either way.
    """

    noise_psd: np.ndarray
    xi_prev: np.ndarray
    frame_count: int = 0

    @classmethod
    def initial(cls, num_bins: int, params: Config) -> "NoiseTrackerState":
        # xi_prev seeds the decision-directed recursion at unity, matching the
        # common reference initialization of this estimator family.
        return cls(
            noise_psd=np.full(num_bins, params.lambda_floor, dtype=np.float64),
            xi_prev=np.full(num_bins, max(1.0, params.xi_min)),
            frame_count=0,
        )


def update_noise_psd(state: NoiseTrackerState, frame,
                     params: Config) -> NoiseTrackerState:
    """Advance the noise-PSD estimate with one analysis frame or a block.

    During the first ``init_frames`` frames the PSD is the running mean of
    the per-bin powers (input treated as noise-only).  Afterwards a bin is
    updated by recursive averaging only while its a posteriori SNR against
    the current estimate stays below ``gamma_threshold``; louder bins leave
    the estimate untouched.  Gated updates are scaled by
    ``params.gate_bias_factor`` so the truncated average stays centered on
    the true noise power.  The PSD never drops below ``lambda_floor``.

    ``frame`` is one frame of bins, or an ``n x bins`` block of consecutive
    frames, taken as ``complex128``, the dtype of the analysis frames.  The
    state is advanced in place and returned; its ``noise_psd`` then has the
    shape of ``frame``, one estimate per frame.  The tracker never reads the
    gains, so a block gives the bits of its frames one at a time; a block of
    zero frames leaves the state as it was.  NumPy's floating-point error
    state is left to the caller: an input loud enough to overflow ``|x|^2``
    warns here unless the caller silences it, as :func:`estimate_gains` does.
    """
    frame = np.asarray(frame, dtype=np.complex128)
    estimate = state.noise_psd
    if estimate.ndim == 2:  # a block's last row; the block stays as it was
        estimate = estimate[-1].copy()
    if frame.shape != estimate.shape and (frame.ndim != 2
                                          or frame.shape[1:] != estimate.shape):
        raise DataError(
            f"frame has {frame.shape} bins, tracker expects {estimate.shape}"
        )
    power = np.abs(frame)
    power *= power
    first = state.frame_count
    if frame.ndim == 1:
        state.noise_psd = _track_frame(estimate, power, first, params)
        state.frame_count += 1
    elif len(frame):
        state.noise_psd = np.empty_like(power)
        for k, row in enumerate(state.noise_psd):
            row[...] = estimate
            estimate = _track_frame(row, power[k], first + k, params)
        state.frame_count += len(frame)
    return state


def _track_frame(psd, power, n, params: Config) -> np.ndarray:
    """Advance the estimate ``psd`` in place by frame ``n`` of the stream and
    return it.  A gated update scales ``power`` in place."""
    if n >= params.init_frames:
        updated = psd * params.gamma_threshold
        gate = power < updated
        np.multiply(psd, params.alpha_noise, out=updated)
        power *= (1.0 - params.alpha_noise) * params.gate_bias_factor
        updated += power
        np.copyto(psd, updated, where=gate)
    elif n:
        psd *= n
        psd += power
        psd /= n + 1
    else:
        psd[...] = power
    return np.maximum(psd, params.lambda_floor, out=psd)


def mmse_lsa_gain(frame, state: NoiseTrackerState,
                  params: Config) -> GainFrame:
    """Compute per-bin suppression gains for one frame or a block.

    Per bin: a posteriori SNR ``gamma = |x|^2 / noise_psd``; decision-directed
    a priori SNR ``xi = max(xi_min, alpha_dd * G_prev^2 * gamma_prev +
    (1 - alpha_dd) * max(gamma - 1, 0))``; ``nu = gamma * xi / (1 + xi)``;
    gain ``(xi / (1 + xi)) * exp(0.5 * E1(nu))`` clamped to
    ``[gain_floor, 1]``.  Updates the DD memory in ``state`` in place.

    ``frame`` is taken as ``complex128``, the dtype of the analysis frames,
    and has the shape of ``state.noise_psd``: one frame after a one-frame
    :func:`update_noise_psd`, the same ``n x bins`` block after a block
    update.  ``gamma`` and the decision-directed increment are formed for
    the whole block; the rest runs frame by frame, since each frame's ``xi``
    reads the previous frame's gain.  Once ``gamma`` is formed, a block's
    ``noise_psd`` is cut to its last row, the estimate the next update
    continues from, so the block's estimates are freed before the frame loop.
    A block of zero frames gives zero rows of gains and leaves the state as it
    was.  As in :func:`update_noise_psd`, NumPy's floating-point error state
    is left to the caller.

    Returns
    -------
    GainFrame
        Real nonnegative gains (zero phase modification), shaped as ``frame``.

    Raises
    ------
    NumericError
        A frame so loud that ``gamma`` overflows, which makes ``nu`` NaN;
        the frame is counted from the start of the stream.  The tracker is
        left with the estimate after the input's last frame (one row), the
        frame count past the input and ``xi_prev`` from the frame before the
        overflowing one, so the stream cannot be continued.
    """
    frame = np.asarray(frame, dtype=np.complex128)
    if frame.shape != state.noise_psd.shape:
        if frame.ndim == 2 and frame.shape == (0,) + state.noise_psd.shape[-1:]:
            return GainFrame(values=np.empty(frame.shape))
        raise DataError(
            f"frame has {frame.shape} bins, tracker expects {state.noise_psd.shape}"
        )
    gamma = np.abs(frame)
    gamma *= gamma
    gamma /= state.noise_psd
    if state.noise_psd.ndim == 2:  # hold one row, so the block dies here
        state.noise_psd = state.noise_psd[-1].copy()
    # Each frame's decision-directed increment, overwritten by its gains.
    gains = np.subtract(gamma, 1.0)
    np.maximum(gains, 0.0, out=gains)
    gains *= 1.0 - params.alpha_dd
    k = 0
    try:
        if frame.ndim == 1:
            state.xi_prev = _lsa_frame(state.xi_prev, gamma, gains, params)
        else:
            for k, gain in enumerate(gains):
                state.xi_prev = _lsa_frame(state.xi_prev, gamma[k], gain, params)
    except ValueError:  # E1 of a NaN, from an infinite gamma
        n = len(frame) if frame.ndim == 2 else 1
        raise NumericError(
            f"input power overflowed at frame {state.frame_count - n + k}: the "
            "a posteriori SNR is not finite"
        ) from None
    return GainFrame(values=gains)


# scipy.special.exp1, bound on the first call.
_exp1 = None


def exp_integral_e1(x):
    """Exponential integral ``E1(x) = int_x^inf exp(-t)/t dt`` for ``x > 0``.

    Parameters
    ----------
    x : float or array_like
        Strictly positive argument(s).

    Returns
    -------
    float or numpy.ndarray
        ``E1`` evaluated elementwise with :func:`scipy.special.exp1`; a
        Python float for scalar input, the input's shape otherwise.

    Raises
    ------
    ValueError
        If any argument is not strictly positive (NaN included).
    """
    global _exp1
    if _exp1 is None:
        from scipy.special import exp1 as _exp1

    arr = np.asarray(x, dtype=float)
    # A NaN minimum fails too.  The ufunc reduce skips ndarray.all's Python
    # wrapper; its initial value lets an empty input pass.
    if not np.minimum.reduce(arr, axis=None, initial=np.inf) > 0.0:
        raise ValueError("exp_integral_e1 requires x > 0")
    out = _exp1(arr)
    if arr.ndim == 0:
        return float(out)
    return out


def _lsa_frame(xi_prev, gamma, gain, params: Config) -> np.ndarray:
    """Replace one frame's decision-directed increment ``gain`` by its gains;
    return its DD memory."""
    xi = params.alpha_dd * xi_prev
    xi += gain
    np.maximum(xi, params.xi_min, out=xi)
    ratio = xi + 1.0
    np.divide(xi, ratio, out=ratio)
    nu = np.multiply(gamma, ratio, out=xi)  # xi is not read again
    np.maximum(nu, _NU_FLOOR, out=nu)
    np.multiply(exp_integral_e1(nu), 0.5, out=gain)
    np.exp(gain, out=gain)
    gain *= ratio
    np.maximum(gain, params.gain_floor, out=gain)  # np.clip, minus its
    np.minimum(gain, 1.0, out=gain)                # Python-level overhead
    memory = gain * gain
    memory *= gamma
    return np.maximum(memory, params.xi_min, out=memory)


def estimate_gains(frames: np.ndarray, params: Config,
                   state: NoiseTrackerState | None = None) -> np.ndarray:
    """Run the tracker + gain rule over a matrix of consecutive frames.

    One :func:`update_noise_psd` call over the block, then one
    :func:`mmse_lsa_gain` call, so the gain always sees the current frame's
    estimate; the gain call leaves only the last frame's PSD.  Gains and state
    equal the per-frame chain's bit for bit, for any split of the frames into
    blocks.  NumPy's overflow and invalid-value warnings are silenced for the
    block, so an input loud enough to overflow the a posteriori SNR raises
    only the ``NumericError`` of :func:`mmse_lsa_gain`.

    Parameters
    ----------
    frames : numpy.ndarray
        ``K x bins`` complex analysis frames.
    params : Config
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
    if not len(frames):
        return np.empty(frames.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        state = update_noise_psd(state, frames, params)
        return mmse_lsa_gain(frames, state, params).values
