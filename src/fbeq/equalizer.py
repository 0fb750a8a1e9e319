"""From subband gains to short time-domain filters, and block filtering.

The mapping is the synthesis sum that turns a frame's gains into a
high-order linear-phase filter (one tap per prototype lag), followed by
rectangular extraction of the central ``P`` taps, which fixes the group delay
to ``P/2`` samples.  :func:`gains_to_taps` computes it as one inverse FFT of
the half spectrum, read at the central ``P`` lags only; the step-by-step
chain (:func:`fbeq.filterbank.expand_hermitian`, :func:`subband_to_time`,
:func:`shorten_filter`) forms all ``L+1`` taps and is kept as its reference.
Filtering runs per hop with the frame's filter held constant over
the block, either by overlap-save fast convolution (2P-point transforms,
keep the last r samples) or by direct FIR convolution; the two are exactly
equivalent and cross-checked in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import fbeg
from .errors import ConfigError, DataError, NumericError
from .filterbank import (
    HERMITIAN_IMAG_TOL,
    PrototypeFilter,
    analyze_polyphase,
    check_shorten_len,
    design_prototype,
    slide_history,
    _check_hermitian_edges,
    _first_flagged,
    _frame_blocks,
)
from .gains import estimate_gains

ESTIMATOR_MMSE_LSA = "mmse-lsa"


class LatencyReport(NamedTuple):
    """Signal-path group delay and block buffering, reported separately."""

    filter_group_delay_samples: int
    block_buffer_samples: int
    sample_rate_hz: int

    @property
    def group_delay_ms(self) -> float:
        return 1000.0 * self.filter_group_delay_samples / self.sample_rate_hz

    @property
    def block_ms(self) -> float:
        return 1000.0 * self.block_buffer_samples / self.sample_rate_hz


@dataclass
class EngineState:
    """Filtering state for one stream: the last 2P input samples.

    Single-owner, strictly sequential; zero-initialized history.
    """

    history: np.ndarray
    hop: int

    @classmethod
    def create(cls, shorten_len: int, hop: int) -> "EngineState":
        check_shorten_len(shorten_len, hop=hop)
        return cls(history=np.zeros(2 * shorten_len, dtype=np.float64), hop=hop)

    def push(self, block) -> np.ndarray:
        self.history = slide_history(self.history, block, self.hop)
        return self.history


def gains_to_taps(half, proto: PrototypeFilter, shorten_len: int,
                  first_frame: int = 0) -> np.ndarray:
    """Map half-spectrum gains straight to their central ``shorten_len`` taps.

    Equals ``shorten_filter(subband_to_time(expand_hermitian(half), proto),
    P)`` to rounding without forming the ``L+1`` taps: for a Hermitian
    spectrum, ``sum_i W_i * exp(-j*(2*pi/M)*i*(l - tau))`` is the unscaled
    real inverse DFT of the half spectrum at ``(tau - l) mod M``.  So each
    frame takes one ``irfft``, read at the lags ``tau - P/2 .. tau + P/2 - 1``
    and weighted by the prototype there.  The ``irfft`` ignores the DC and
    Nyquist imaginary parts, which the Hermitian check bounds.

    Parameters
    ----------
    half : array_like
        ``M/2+1`` complex gains, or a ``K x (M/2+1)`` matrix of frames.
    proto : PrototypeFilter
    shorten_len : int
        ``P``, even, with the central window inside the prototype's taps.
    first_frame : int
        Index of row 0 in error messages, for a block cut from a longer
        stream.

    Returns
    -------
    numpy.ndarray
        Real taps, shape ``(..., P)``.  Each frame is transformed on its own,
        so a matrix gives the same bits as its rows one at a time.

    Raises
    ------
    NumericError
        A DC or Nyquist bin that is not real, as in
        :func:`fbeq.filterbank.expand_hermitian`.
    ConfigError
        An odd ``P``, or one whose window does not fit the prototype.
    """
    half = _check_hermitian_edges(half, first_frame)
    m = 2 * (half.shape[-1] - 1)
    check_shorten_len(shorten_len, num_taps=proto.taps.size)
    lags = np.arange(proto.tau - shorten_len // 2, proto.tau + shorten_len // 2)
    kernel = np.fft.irfft(half, n=m, axis=-1, norm="forward")
    short = kernel[..., (proto.tau - lags) % m]
    short *= proto.taps[lags]
    return short


def subband_to_time(gains_full, proto: PrototypeFilter) -> np.ndarray:
    """Map full-band (Hermitian) gain vectors to their time-domain filters.

    All ``L+1`` taps; :func:`gains_to_taps` computes only the central ``P``
    and is what :func:`process_stream` uses.  This one is its reference.

    ``taps[l] = h(l) * sum_i W_i * exp(-j*(2*pi/M)*i*(l - tau))``; the inner
    sum is one M-point DFT of the gains, gathered at ``(l - tau) mod M``.

    Parameters
    ----------
    gains_full : array_like
        ``M`` complex gains, Hermitian-symmetric (e.g. from
        :func:`fbeq.filterbank.expand_hermitian`), or a ``K x M`` matrix of
        such frames.
    proto : PrototypeFilter

    Returns
    -------
    numpy.ndarray
        Real taps over lags ``0..L``, shape ``(..., L+1)`` (one row per frame
        for a matrix).

    Raises
    ------
    NumericError
        If the synthesis sum's imaginary residue exceeds
        ``HERMITIAN_IMAG_TOL`` relative to the frame's largest ``|tap|``
        (non-Hermitian input); for a matrix the message names the first such
        frame.
    """
    gains_full = np.asarray(gains_full, dtype=np.complex128)
    taps = np.asarray(proto.taps, dtype=np.float64)
    lag_bins = (np.arange(taps.size) - proto.tau) % gains_full.shape[-1]
    complex_taps = np.fft.fft(gains_full, axis=-1)[..., lag_bins]
    np.multiply(taps, complex_taps, out=complex_taps)
    magnitude = np.abs(complex_taps.imag)
    residue = magnitude.max(axis=-1, initial=0.0)
    real_scale = np.abs(complex_taps.real, out=magnitude).max(axis=-1, initial=0.0)
    # |z| >= |Re z|: a frame that passes against max|Re| passes against max|z|.
    if (residue > HERMITIAN_IMAG_TOL * real_scale).any():
        scale = np.abs(complex_taps).max(axis=-1, initial=0.0)
        bad = _first_flagged(residue > HERMITIAN_IMAG_TOL * scale)
        if bad is not None:
            k, where = bad
            raise NumericError(
                f"non-Hermitian gains{where}: imaginary residue "
                f"{residue.flat[k]:.3e} exceeds {HERMITIAN_IMAG_TOL:.0e} relative"
            )
    return complex_taps.real


def shorten_filter(taps, shorten_len: int) -> np.ndarray:
    """Extract the central ``shorten_len`` taps around the group-delay point.

    For the fixed support ``[tau - P/2, tau + P/2 - 1]`` this rectangular
    extraction is the L2-optimal length-P approximation (the squared error
    equals the discarded tail energy); the resulting group delay is ``P/2``.
    Works along the last axis: ``(..., L+1)`` taps in, ``(..., P)`` out.  The
    result is a copy, so the high-order taps can be freed.
    """
    taps = np.asarray(taps, dtype=np.float64)
    p = int(shorten_len)
    check_shorten_len(p, num_taps=taps.shape[-1])
    start = (taps.shape[-1] - 1) // 2 - p // 2
    return taps[..., start : start + p].copy()


def filter_to_freq(taps) -> np.ndarray:
    """2P-point DFT of ``(..., P)`` shortened taps: the ``(..., P+1)`` lower bins."""
    taps = np.asarray(taps, dtype=np.float64)
    return np.fft.rfft(taps, n=2 * taps.shape[-1], axis=-1)


def _overlap_save(blocks: np.ndarray, bins: np.ndarray, hop: int) -> np.ndarray:
    """Circularly filter each 2P-sample block by its response; keep the last ``hop``.

    Those samples are free of circular wrap, so they equal linear convolution
    with the block's filter.  ``blocks`` is one block or a ``K x 2P`` matrix.
    """
    spectra = np.fft.rfft(blocks, axis=-1) * bins
    return np.fft.irfft(spectra, n=blocks.shape[-1], axis=-1)[..., -hop:]


def ols_filter_frame(state: EngineState, bins, new_samples) -> np.ndarray:
    """Filter one hop by overlap-save.

    Pushes the ``hop`` new samples into the 2P-sample history, multiplies the
    history's DFT by the ``P+1`` response bins (the upper half follows from
    Hermitian symmetry), inverse-transforms, and returns the last ``hop``
    samples — the alias-free tail, equal to linear convolution with the
    frame's filter.
    """
    bins = np.asarray(bins)
    fft_size = 2 * (bins.size - 1)
    if fft_size != state.history.size:
        raise ConfigError(
            f"response implies a {fft_size}-point block, state holds "
            f"{state.history.size} samples"
        )
    return _overlap_save(state.push(new_samples), bins, state.hop)


def direct_filter_block(state: EngineState, taps, new_samples) -> np.ndarray:
    """Filter one hop by the ``P`` taps in direct FIR form; same contract as overlap-save."""
    taps = np.asarray(taps, dtype=np.float64)
    if 2 * taps.size != state.history.size:
        raise ConfigError(
            f"filter of {taps.size} taps does not match a history of "
            f"{state.history.size} samples"
        )
    history = state.push(new_samples)
    full = np.convolve(history, taps)
    return full[history.size - state.hop : history.size]


def _clamp_magnitude(frames: np.ndarray, g_max: float) -> np.ndarray:
    """Clamp complex gains to ``|g| <= g_max``, preserving phase."""
    mag = np.abs(frames)
    over = mag > g_max
    if not np.any(over):
        return frames
    out = frames.copy()
    out[over] *= g_max / mag[over]
    return out


def process_stream(x, gain_source, cfg) -> tuple[np.ndarray, LatencyReport]:
    """Run the full enhancement pipeline over a signal.

    Per frame: polyphase analysis -> per-bin gains -> central-P taps
    (:func:`gains_to_taps`) -> 2P-point response -> overlap-save filtering
    of the hop (or direct FIR in ``direct`` mode).
    DFT-response streams (type B) skip the mapping stages and drive the
    overlap-save engine directly.  Each step runs on blocks of
    ``BLOCK_FRAMES`` frames, through the same public functions a per-hop
    caller uses, so the output equals that per-hop chain exactly.

    Parameters
    ----------
    x : array_like
        Input signal.
    gain_source : str or tuple or path-like
        ``"mmse-lsa"`` for the built-in estimator, a path to an FBEG file,
        or a preloaded ``(StreamHeader, frames)`` pair.
    cfg : fbeq.config.Config
        Validated configuration.

    Returns
    -------
    (numpy.ndarray, LatencyReport)
        ``floor(T/r) * r`` output samples and the latency accounting.

    Raises
    ------
    DataError
        A non-finite input sample (its index is reported), or a gain stream
        that does not fit the configuration or the input.
    NumericError
        A subband-gain frame whose DC or Nyquist bin is not real (the frame
        is named).
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    if not np.isfinite(x).all():
        bad = int(np.argmin(np.isfinite(x)))
        raise DataError(f"input sample {bad} is non-finite ({x[bad]})")
    spec = cfg.filterbank_spec()
    proto = design_prototype(spec)
    p = cfg.shorten_len
    report = LatencyReport(
        filter_group_delay_samples=p // 2,
        block_buffer_samples=spec.hop,
        sample_rate_hz=spec.sample_rate_hz,
    )
    num_frames = spec.num_frames(x.size)
    if num_frames == 0:
        return np.zeros(0, dtype=np.float64), report

    if isinstance(gain_source, str) and gain_source == ESTIMATOR_MMSE_LSA:
        header, stream_frames = None, None
    elif isinstance(gain_source, tuple):
        header, stream_frames = gain_source
    else:
        header, stream_frames = fbeg.load_gain_stream(gain_source)

    if header is None:
        analysis = analyze_polyphase(x, proto, spec)
        gain_rows = estimate_gains(analysis.frames, cfg.estimator_params())
        g_max = None
    else:
        fbeg.check_stream_geometry(header, spec, p)
        if np.shape(stream_frames) != (header.num_frames, header.num_bins):
            raise ConfigError(
                f"gain stream frames have shape {np.shape(stream_frames)}; its "
                f"header declares {header.num_frames} x {header.num_bins}"
            )
        if header.num_frames < num_frames:
            raise DataError(
                f"gain stream ends after frame {header.num_frames}; the input "
                f"requires {num_frames} frames"
            )
        if header.record_type == fbeg.TYPE_SUBBAND_GAINS:
            gain_rows, g_max = stream_frames[:num_frames], cfg.g_max
        elif cfg.mode == "direct":
            raise ConfigError(
                "DFT-response (type B) streams carry no time-domain taps; "
                "use the ols mode"
            )
        else:
            return _ols_batch(x, lambda frames: stream_frames[frames], num_frames,
                              spec.hop, p), report

    def short_taps(frames: slice) -> np.ndarray:
        rows = gain_rows[frames]
        if g_max is not None:
            rows = _clamp_magnitude(rows, g_max)
        return gains_to_taps(rows, proto, p, first_frame=frames.start)

    if cfg.mode == "direct":
        short = np.empty((num_frames, p), dtype=np.float64)
        for frames in _frame_blocks(num_frames):
            short[frames] = short_taps(frames)
        return _run_direct(x, short, spec.hop), report
    return _ols_batch(x, lambda frames: filter_to_freq(short_taps(frames)),
                      num_frames, spec.hop, p), report


def _ols_batch(x: np.ndarray, responses, num_frames: int, hop: int,
               shorten_len: int) -> np.ndarray:
    """Overlap-save over K frames, a block at a time; equal to K ``ols_filter_frame`` calls.

    ``responses(frames)`` returns the ``P+1``-bin responses of a slice of
    frames.  Row k of the strided ``K x 2P`` view of the zero-padded input is
    the history ``EngineState`` holds after the k-th hop: the 2P samples
    ending at sample ``(k+1)*hop``.
    """
    fft_size = 2 * shorten_len
    padded = np.concatenate([np.zeros(fft_size - hop), x[: num_frames * hop]])
    blocks = np.lib.stride_tricks.sliding_window_view(padded, fft_size)[::hop]
    out = np.empty((num_frames, hop), dtype=np.float64)
    for frames in _frame_blocks(num_frames):
        out[frames] = _overlap_save(blocks[frames], responses(frames), hop)
    return out.ravel()


def _run_direct(x: np.ndarray, short: np.ndarray, hop: int) -> np.ndarray:
    """Per-frame direct FIR filtering, the reference for the batched overlap-save."""
    num_frames, p = short.shape
    state = EngineState.create(p, hop)
    out = np.empty(num_frames * hop, dtype=np.float64)
    for k in range(num_frames):
        out[k * hop : (k + 1) * hop] = direct_filter_block(
            state, short[k], x[k * hop : (k + 1) * hop]
        )
    return out
