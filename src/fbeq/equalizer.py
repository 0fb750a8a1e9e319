"""From subband gains to short time-domain filters, and block filtering.

The mapping is the synthesis sum that turns a frame's gains into a
high-order linear-phase filter (one tap per prototype lag), followed by
rectangular extraction of the central ``P`` taps, which fixes the group delay
to ``P/2`` samples.  :func:`gains_to_taps` computes it as one inverse FFT of
the half spectrum, read at the central ``P`` lags only; the step-by-step
chain (:func:`fbeq.filterbank.expand_hermitian`, :func:`subband_to_time`,
:func:`shorten_filter`) forms all ``L+1`` taps and is kept as its reference.
Filtering holds each frame's filter over its hop, by overlap-save (2P-point
transforms, keep the last r samples) or by direct FIR convolution, one hop
or a block of hops per call.  :func:`process_stream` streams a signal through
these steps a block at a time, carrying each step's state between blocks.
"""

from __future__ import annotations

import os
from contextlib import nullcontext
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import fbeg
from .audio_io import _check_finite
from .errors import ConfigError, DataError, NumericError
from .filterbank import (
    HERMITIAN_IMAG_TOL,
    analyze_polyphase,
    check_shorten_len,
    design_prototype,
    slide_history,
    _check_hermitian_edges,
    _first_flagged,
    _frame_blocks,
    _hop_block,
    _hop_windows,
)
from .gains import NoiseTrackerState, estimate_gains

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

    def push(self, block, hops: int | None = None) -> np.ndarray:
        """Shift in one hop and return the new history; or shift in ``hops``
        hops and return the ``hops x 2P`` histories after each of them.

        A block of the wrong size or with a NaN or infinite sample is a
        ``DataError``, raised before the history changes.
        """
        if hops is None:
            self.history = slide_history(self.history, block, self.hop)
            return self.history
        block = _hop_block(block, hops * self.hop)
        extended = np.concatenate([self.history, block])  # zero hops: unchanged
        self.history = extended[-self.history.size :].copy()  # a view would keep the block
        return _hop_windows(extended[self.hop :], self.history.size, self.hop, hops)


def gains_to_taps(half, proto, shorten_len: int,
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
    proto : numpy.ndarray
        The ``L+1`` prototype taps, centred at ``tau = L/2``.
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
    check_shorten_len(shorten_len, num_taps=proto.size)
    tau = (proto.size - 1) // 2
    lags = np.arange(tau - shorten_len // 2, tau + shorten_len // 2)
    kernel = np.fft.irfft(half, n=m, axis=-1, norm="forward")
    del half  # the caller's last reference when it passed the gains inline
    short = kernel[..., (tau - lags) % m]
    del kernel  # before the broadcast multiply allocates its buffer
    short *= proto[lags]
    return short


def subband_to_time(gains_full, proto) -> np.ndarray:
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
    proto : array_like
        The ``L+1`` prototype taps, centred at ``tau = L/2``.

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
    taps = np.asarray(proto, dtype=np.float64)
    lag_bins = (np.arange(taps.size) - (taps.size - 1) // 2) % gains_full.shape[-1]
    complex_taps = np.fft.fft(gains_full, axis=-1)[..., lag_bins]
    np.multiply(taps, complex_taps, out=complex_taps)
    residue = np.abs(complex_taps.imag).max(axis=-1, initial=0.0)
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


def ols_filter_frame(state: EngineState, bins, new_samples) -> np.ndarray:
    """Filter one hop, or ``n`` hops, by overlap-save.

    ``bins``: one ``P+1``-bin response or ``n x (P+1)``, one per hop of
    ``new_samples``.  Each hop's 2P-sample history is multiplied by its
    response in the DFT domain; the last ``hop`` samples back are free of
    circular wrap, so they equal linear convolution with the hop's filter.
    Hops are transformed one by one: ``n`` hops give ``n`` one-hop calls' bits,
    and zero hops give no samples and leave the state as it was.
    """
    bins = np.asarray(bins)
    fft_size = 2 * (bins.shape[-1] - 1)
    if fft_size != state.history.size:
        raise ConfigError(
            f"response implies a {fft_size}-point block, state holds "
            f"{state.history.size} samples"
        )
    windows = state.push(new_samples, len(bins) if bins.ndim > 1 else None)
    spectra = np.fft.rfft(windows, axis=-1)
    spectra *= bins
    return np.fft.irfft(spectra, n=fft_size, axis=-1)[..., -state.hop :].ravel()


def direct_filter_block(state: EngineState, taps, new_samples) -> np.ndarray:
    """Filter one hop, or ``n`` hops by ``n x P`` taps, in direct FIR form;
    otherwise as :func:`ols_filter_frame`."""
    taps = np.atleast_2d(np.asarray(taps, dtype=np.float64))
    if 2 * taps.shape[-1] != state.history.size:
        raise ConfigError(
            f"filter of {taps.shape[-1]} taps does not match a history of "
            f"{state.history.size} samples"
        )
    tail = slice(state.history.size - state.hop, state.history.size)
    windows = state.push(new_samples, len(taps))
    filtered = [np.convolve(w, row)[tail] for w, row in zip(windows, taps)]
    return np.concatenate(filtered) if filtered else np.empty(0)


def _clamp_magnitude(frames: np.ndarray, g_max: float) -> np.ndarray:
    """Clamp complex gains to ``|g| <= g_max``, preserving phase.

    ``frames`` itself comes back when no gain is over.  That is certain,
    without forming ``|g|``, when no real or imaginary part exceeds
    ``g_max / 2`` in size: then ``|g| <= g_max / sqrt(2)``.
    """
    half = 0.5 * g_max
    parts = np.ascontiguousarray(frames).view(frames.real.dtype)
    if parts.max(initial=0.0) <= half and parts.min(initial=0.0) >= -half:
        return frames
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
    overlap-save engine directly.  The signal goes through the public per-hop
    functions in blocks of at most ``BLOCK_FRAMES`` hops, carrying the analysis
    history, noise tracker and overlap-save history between blocks: the output
    equals the per-hop chain exactly.  A gain file is read and checked a block
    of records at a time, in the same loop and then, for the records past the
    input's last frame, in a second one, so memory does not grow with the
    signal or the file; it is opened and checked even for an input shorter
    than one hop.

    Parameters
    ----------
    x : array_like
        Input signal of any real numeric dtype, widened to float64 a block at
        a time, with the same output as its whole widening.  An object-dtype
        array is not converted: the finite check raises ``TypeError``.
    gain_source : str or path-like
        ``"mmse-lsa"`` for the built-in estimator, or the path of an FBEG file.
    cfg : fbeq.config.Config
        Validated configuration.

    Returns
    -------
    (numpy.ndarray, LatencyReport)
        ``floor(T/r) * r`` output samples and the latency accounting.

    Raises
    ------
    DataError
        A non-finite input sample (its index is reported), or a gain file
        with fewer frames than the input needs.
    ConfigError
        A ``gain_source`` that is neither a string nor path-like, a gain file
        whose geometry does not fit the configuration, or a DFT-response file
        in ``direct`` mode.
    NumericError
        A subband-gain frame whose DC or Nyquist bin is not real, past the
        input's last frame too, or an input loud enough to overflow the
        estimator's a posteriori SNR (the frame is named).
    FormatError
        A gain file that :func:`fbeq.fbeg.load_gain_stream` would reject,
        with the same message.
    """
    if not isinstance(gain_source, (str, os.PathLike)):
        raise ConfigError(f"gain source must be {ESTIMATOR_MMSE_LSA!r} or the path "
                          f"of an FBEG file, got {type(gain_source).__name__}")
    x = np.ravel(x)
    _check_finite(x, "input ")
    proto = design_prototype(cfg)
    p, hop = cfg.shorten_len, cfg.hop
    report = LatencyReport(
        filter_group_delay_samples=p // 2,
        block_buffer_samples=hop,
        sample_rate_hz=cfg.sample_rate_hz,
    )
    num_frames = cfg.num_frames(x.size)
    estimator = gain_source == ESTIMATOR_MMSE_LSA
    with (nullcontext((None, None)) if estimator
          else fbeg.open_gain_stream(gain_source)) as (header, read):
        if estimator:
            tracker = NoiseTrackerState.initial(cfg.num_bins, cfg)
            history = np.zeros(cfg.proto_len)
        else:
            # The reader ties a type-A file's bin count to its frame size.
            if header.frame_size != cfg.frame_size or header.hop != hop:
                raise ConfigError(
                    f"gain stream was written for frame size {header.frame_size}, "
                    f"hop {header.hop}; active configuration is {cfg.frame_size}, "
                    f"{hop}"
                )
            responses = header.record_type == fbeg.TYPE_DFT_RESPONSES
            if responses and header.num_bins != p + 1:
                raise ConfigError(f"DFT-response stream has {header.num_bins} bins, "
                                  f"configuration expects {p + 1}")
            if header.num_frames < num_frames:
                raise DataError(
                    f"gain stream ends after frame {header.num_frames}; the input "
                    f"requires {num_frames} frames"
                )
            if responses and cfg.mode == "direct":
                raise ConfigError(
                    "DFT-response (type B) streams carry no time-domain taps; "
                    "use the ols mode"
                )

        engine = EngineState.create(p, hop)
        out = np.empty(num_frames * hop, dtype=np.float64)
        # A block's frames, gains and taps each go once their consumer has
        # run, and the histories carried on are copies, so no array of one
        # block is alive while the next is analysed.  The gains are passed
        # with no name left on them here, so they die inside gains_to_taps
        # after its inverse FFT (CPython 3.11 and later move a call's
        # arguments into the callee's frame; 3.10 frees them on return).
        for frames in _frame_blocks(num_frames):
            samples = slice(frames.start * hop, frames.stop * hop)
            block = np.asarray(x[samples], dtype=np.float64)
            if estimator:
                # Complex now, as gains_to_taps needs them: the real gains die
                # before the mapping's kernel is formed.
                taps = gains_to_taps(estimate_gains(
                    analyze_polyphase(block, proto, cfg, history).frames,
                    cfg, tracker).astype(np.complex128),
                    proto, p, first_frame=frames.start)
                history = np.concatenate([history, block])[-history.size:].copy()
            elif responses:
                out[samples] = ols_filter_frame(engine, read(frames), block)
                continue
            else:
                taps = gains_to_taps(_clamp_magnitude(read(frames), cfg.g_max),
                                     proto, p, first_frame=frames.start)
            if cfg.mode == "direct":
                out[samples] = direct_filter_block(engine, taps, block)
            else:
                out[samples] = ols_filter_frame(engine, filter_to_freq(taps), block)
            del taps
        if not estimator:  # the records past the input's end
            for frames in _frame_blocks(header.num_frames, first=num_frames):
                rows = read(frames)
                if not responses:
                    _check_hermitian_edges(_clamp_magnitude(rows, cfg.g_max),
                                           frames.start)
    return out, report
