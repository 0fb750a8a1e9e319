"""Per-frame subband gain estimation.

A classical MMSE log-spectral-amplitude suppressor: gated recursive noise-PSD
tracking, decision-directed a priori SNR, and the LSA gain rule

    G = (xi / (1 + xi)) * exp(0.5 * E1(nu)),   nu = gamma * xi / (1 + xi),

with gains clamped at 1 and no floor: for a fixed ``gamma`` the rule rises
with ``xi``, and ``xi >= max(xi_min, alpha_dd * xi_min + (1 - alpha_dd) *
max(gamma - 1, 0))`` because the decision-directed memory never drops below
``xi_min``, so the least gain is the rule at that bound minimised over
``gamma`` (-18.29 dB at the defaults).  Gains are real (magnitude-only);
complex per-bin responses enter the pipeline only through gain-stream files.
E1 is :func:`scipy.special.exp1`, imported at the first call of
:func:`exp_integral_e1`, so ``import fbeq`` does not load ``scipy.special``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .config import Config
from .errors import DataError, NumericError

# The least noise-PSD estimate, so the a posteriori SNR stays finite.
_LAMBDA_FLOOR = 1e-20
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
            noise_psd=np.full(num_bins, _LAMBDA_FLOOR),
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
    the true noise power.  No frame's PSD drops below ``_LAMBDA_FLOOR``.

    ``frame`` is one frame of bins, or an ``n x bins`` block of consecutive
    frames, taken as ``complex128``, the dtype of the analysis frames.  The
    state is advanced in place and returned; its ``noise_psd`` then has the
    shape of ``frame``, one estimate per frame.  A block runs the one-frame
    step on each of its frames, and the tracker never reads the gains, so a
    block gives the bits of its frames one at a time; a block of zero frames
    leaves the state as it was.  NumPy's floating-point error state is left
    to the caller: an input loud enough to overflow ``|x|^2`` warns here
    unless the caller silences it, as :func:`estimate_gains` does.
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
    constants = _constants(params.gamma_threshold, params.alpha_noise,
                           (1.0 - params.alpha_noise) * params.gate_bias_factor,
                           _LAMBDA_FLOOR)
    if frame.ndim == 1:
        state.noise_psd = _track_frame(estimate, power, first, params, constants)
        state.frame_count += 1
    elif len(frame):
        work = np.empty(estimate.shape), np.empty(estimate.shape, dtype=bool)
        state.noise_psd = np.empty_like(power)
        for k, row in enumerate(state.noise_psd):
            row[...] = estimate
            estimate = _track_frame(row, power[k], first + k, params, constants,
                                    *work)
        state.frame_count += len(frame)
    return state


def _track_frame(psd, power, n, params: Config, constants, update=None,
                 gate=None) -> np.ndarray:
    """Advance the estimate ``psd`` in place by frame ``n`` of the stream and
    return it.  A gated update scales ``power`` in place.  ``constants`` are
    :func:`update_noise_psd`'s; ``update`` and ``gate`` are work buffers,
    allocated here when not given."""
    threshold, alpha, scale, floor = constants
    if n >= params.init_frames:
        update = np.multiply(psd, threshold, out=update)
        gate = np.less(power, update, out=gate)
        np.multiply(psd, alpha, out=update)
        np.multiply(power, scale, out=power)
        np.add(update, power, out=update)
        np.putmask(psd, gate, update)
    elif n:
        psd *= n
        psd += power
        psd /= n + 1
    else:
        psd[...] = power
    np.maximum(psd, floor, out=psd)
    return psd


@lru_cache(maxsize=64)
def _constants(*values) -> tuple[np.ndarray, ...]:
    """``values`` as read-only 0-d float64 arrays, cached per value: a ufunc
    takes one ~0.2 µs faster than a Python float, with the same bits."""
    arrays = tuple(np.array(value, dtype=np.float64) for value in values)
    for array in arrays:
        array.flags.writeable = False
    return arrays


def mmse_lsa_gain(frame, state: NoiseTrackerState,
                  params: Config) -> GainFrame:
    """Compute per-bin suppression gains for one frame or a block.

    Per bin: a posteriori SNR ``gamma = |x|^2 / noise_psd``; decision-directed
    a priori SNR ``xi = max(xi_min, alpha_dd * G_prev^2 * gamma_prev +
    (1 - alpha_dd) * max(gamma - 1, 0))``; ``nu = gamma * xi / (1 + xi)``;
    gain ``(xi / (1 + xi)) * exp(0.5 * E1(nu))`` clamped at 1.  No gain is
    below the least gain that ``xi_min`` and ``alpha_dd`` allow (see
    :mod:`fbeq.gains`).  Updates the DD memory in ``state`` in place.

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
    zero, increment, *constants = _constants(
        0.0, 1.0 - params.alpha_dd,  # for the increment, then _lsa_frame's
        1.0, 0.5, params.alpha_dd, params.xi_min, _NU_FLOOR)
    one = constants[0]
    # Each frame's decision-directed increment, overwritten by its gains.
    gains = np.subtract(gamma, one)
    np.maximum(gains, zero, out=gains)
    np.multiply(gains, increment, out=gains)
    k = 0
    try:
        if frame.ndim == 1:
            state.xi_prev = _lsa_frame(state.xi_prev, gamma, gains, constants)
        else:
            # The first frame allocates its DD memory once E1 is done, so
            # no second memory row is alive beside the previous one at E1's
            # sort; later frames rewrite it in place.
            xi, memory = np.empty(gamma.shape[-1]), None
            for k, gain in enumerate(gains):
                memory = state.xi_prev = _lsa_frame(state.xi_prev, gamma[k], gain,
                                                    constants, xi, memory)
    except ValueError:  # E1 of a NaN, from an infinite gamma
        n = len(frame) if frame.ndim == 2 else 1
        raise NumericError(
            f"input power overflowed at frame {state.frame_count - n + k}: the "
            "a posteriori SNR is not finite"
        ) from None
    return GainFrame(values=gains)


# scipy.special.exp1, bound on the first call.
_exp1 = None


def exp_integral_e1(x, out=None):
    """Exponential integral ``E1(x) = int_x^inf exp(-t)/t dt`` for ``x > 0``.

    An array is evaluated in ascending order of its arguments, in one work
    buffer, and the values are scattered back to their positions.  E1 is
    elementwise, so the result is bit for bit :func:`scipy.special.exp1`
    applied to each element.  scipy's loops depend on the argument (a series
    that stops early up to 1, a continued fraction whose length falls with
    ``x`` above it); in ascending order their branches go alike from one
    argument to the next, which saves more than the sort costs.

    Parameters
    ----------
    x : float or array_like
        Strictly positive argument(s).
    out : numpy.ndarray, optional
        A float64 array of ``x``'s shape to receive the values; it may be
        ``x`` itself.  Allocated when not given.

    Returns
    -------
    float or numpy.ndarray
        ``E1`` evaluated elementwise with :func:`scipy.special.exp1`; a
        Python float for scalar input without ``out``, ``out`` (of the
        input's shape) otherwise.

    Raises
    ------
    ValueError
        If any argument is not strictly positive (NaN included), or an
        ``out`` that is not a float64 array of ``x``'s shape.
    """
    global _exp1
    if _exp1 is None:
        from scipy.special import exp1 as _exp1

    x = np.asarray(x, dtype=float)
    if out is not None and not (isinstance(out, np.ndarray) and out.dtype == np.float64
                                and out.shape == x.shape):
        raise ValueError(f"exp_integral_e1 needs out as a float64 array of shape "
                         f"{x.shape}, got {getattr(out, 'dtype', type(out).__name__)} "
                         f"{np.shape(out)}")
    if x.ndim == 0 and out is None:
        # E1 is finite (at most ~745) for every x > 0, and inf or NaN for 0,
        # -0.0, a negative x and NaN.
        value = float(_exp1(x))
        if not math.isfinite(value):
            raise ValueError("exp_integral_e1 requires x > 0")
        return value
    flat = x.reshape(-1)
    order = flat.argsort()
    work = flat[order]
    # The sort puts -inf, negatives and zeros of either sign first and NaN
    # last, so its ends show whether every x is positive.
    if len(work) and (work[0] <= 0 or math.isnan(work[-1])):
        raise ValueError("exp_integral_e1 requires x > 0")
    _exp1(work, out=work)
    if out is None:
        out = np.empty(x.shape)
    out.put(order, work)
    return out


def _lsa_frame(xi_prev, gamma, gain, constants, xi=None,
               memory=None) -> np.ndarray:
    """Replace one frame's decision-directed increment ``gain`` by its gains;
    write its DD memory to ``memory`` and return it.

    ``xi_prev`` is read first, so it may be ``memory`` itself, which is
    written last: when E1 raises, ``memory`` still holds the frame before.
    ``constants`` are :func:`mmse_lsa_gain`'s; ``xi`` is a work buffer, and
    ``gain`` holds ``xi / (1 + xi)`` once the increment is read.  Buffers
    not given are allocated here.
    """
    one, half, alpha, xi_min, nu_floor = constants
    xi = np.multiply(alpha, xi_prev, out=xi)
    np.add(xi, gain, out=xi)
    np.maximum(xi, xi_min, out=xi)
    ratio = np.add(xi, one, out=gain)  # the increment is not read again
    np.divide(xi, ratio, out=ratio)
    nu = np.multiply(gamma, ratio, out=xi)  # xi is not read again
    np.maximum(nu, nu_floor, out=nu)
    exp_integral_e1(nu, out=nu)
    np.multiply(nu, half, out=nu)
    np.exp(nu, out=nu)
    np.multiply(nu, ratio, out=gain)
    np.minimum(gain, one, out=gain)
    memory = np.multiply(gain, gain, out=memory)
    np.multiply(memory, gamma, out=memory)
    return np.maximum(memory, xi_min, out=memory)


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
        ``K x bins`` real gains, at most 1 and at least the least gain that
        ``params.xi_min`` and ``params.alpha_dd`` allow (see :mod:`fbeq.gains`).
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
