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
The gain source is chosen once, by a context manager that yields the filters.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import fbeg
from .audio_io import WavReader, _check_finite, _first_non_finite
from .config import check_shorten_len
from .errors import ConfigError, DataError, NumericError
from .filterbank import (
    HERMITIAN_IMAG_TOL,
    EngineState,
    analyze_polyphase,
    design_prototype,
    _check_hermitian_edges,
    _first_flagged,
    _frame_blocks,
    _read_only,
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
        ``M/2+1`` real or complex gains, or a ``K x (M/2+1)`` matrix of frames.
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
    start = (proto.size - 1) // 2 - shorten_len // 2
    kernel = np.fft.irfft(half, n=m, axis=-1, norm="forward")
    del half  # the caller's last reference when it passed the gains inline
    # take, unlike kernel[..., bins], gives C-ordered rows for the rfft.
    short = kernel.take(_central_bins(shorten_len, m), axis=-1)
    del kernel  # before the broadcast multiply allocates its buffer
    short *= proto[start : start + shorten_len]
    return short


@lru_cache(maxsize=64)
def _central_bins(shorten_len: int, m: int) -> np.ndarray:
    """Kernel bins ``(tau - l) mod M`` of the central lags ``l = tau - P/2 ..
    tau + P/2 - 1``, which do not depend on ``tau``; read-only."""
    return _read_only((shorten_len // 2 - np.arange(shorten_len)) % m)


@lru_cache(maxsize=64)
def _lag_bins(num_taps: int, m: int) -> np.ndarray:
    """DFT bins ``(l - tau) mod M`` of the lags ``l = 0..L``; read-only."""
    return _read_only((np.arange(num_taps) - (num_taps - 1) // 2) % m)


def _check_last_axis(array: np.ndarray, what: str) -> np.ndarray:
    """``array`` if its last axis has a value, else a ``DataError`` naming its shape."""
    if not array.ndim or not array.shape[-1]:
        raise DataError(f"{what} need a non-empty last axis, got shape {array.shape}")
    return array


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
    DataError
        Gains that are 0-d or have no bins.
    NumericError
        If the synthesis sum's imaginary residue exceeds
        ``HERMITIAN_IMAG_TOL`` relative to the frame's largest ``|tap|``
        (non-Hermitian input); for a matrix the message names the first such
        frame.
    """
    gains_full = _check_last_axis(np.asarray(gains_full, dtype=np.complex128), "gains")
    taps = np.asarray(proto, dtype=np.float64)
    lag_bins = _lag_bins(taps.size, gains_full.shape[-1])
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
    taps = _check_last_axis(np.asarray(taps, dtype=np.float64), "taps")
    p = int(shorten_len)
    check_shorten_len(p, num_taps=taps.shape[-1])
    start = (taps.shape[-1] - 1) // 2 - p // 2
    return taps[..., start : start + p].copy()


def filter_to_freq(taps) -> np.ndarray:
    """2P-point DFT of ``(..., P)`` shortened taps: the ``(..., P+1)`` lower bins."""
    taps = _check_last_axis(np.asarray(taps, dtype=np.float64), "taps")
    return np.fft.rfft(taps, n=2 * taps.shape[-1], axis=-1)


def ols_filter_frame(state: EngineState, bins, new_samples,
                     first_frame: int = 0) -> np.ndarray:
    """Filter one hop, or ``n`` hops, by overlap-save.

    ``bins``: one ``P+1``-bin response or ``n x (P+1)``, one per hop of
    ``new_samples``.  Each hop's 2P-sample history is multiplied by its
    response in the DFT domain; the last ``hop`` samples back are free of
    circular wrap, so they equal linear convolution with the hop's filter.
    Hops are transformed one by one: ``n`` hops give ``n`` one-hop calls' bits,
    and zero hops give no samples and leave the state as it was.  A non-finite
    output (a finite input loud enough to overflow) is a ``NumericError`` naming
    its frame and sample, counted from ``first_frame``, with the hops taken in.
    """
    bins = _check_last_axis(np.asarray(bins), "bins")
    fft_size = 2 * (bins.shape[-1] - 1)
    if fft_size != state.history.size:
        raise ConfigError(
            f"response implies a {fft_size}-point block, state holds "
            f"{state.history.size} samples"
        )
    windows = state.push(new_samples, len(bins) if bins.ndim > 1 else None)
    spectra = np.fft.rfft(windows, axis=-1)
    spectra *= bins
    return _finite_output(
        np.fft.irfft(spectra, n=fft_size, axis=-1)[..., -state.hop :].ravel(),
        state.hop, first_frame)


def direct_filter_block(state: EngineState, taps, new_samples,
                        first_frame: int = 0) -> np.ndarray:
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
    return _finite_output(np.concatenate(filtered) if filtered else np.empty(0),
                          state.hop, first_frame)


def _finite_output(filtered: np.ndarray, hop: int, first_frame: int) -> np.ndarray:
    """``filtered``, the output of hops from ``first_frame`` on, once a finite
    sum, or a search when the sum overflowed, shows every sample finite; else
    a ``NumericError`` naming the first one."""
    if (not math.isfinite(np.add.reduce(filtered))
            and (bad := _first_non_finite(filtered)) is not None):
        raise NumericError(
            f"filtered output overflowed at frame {first_frame + bad // hop}"
            f": output sample {first_frame * hop + bad} is not finite")
    return filtered


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


def _mapped(gains, proto, cfg):
    """``filters(frames, block)`` that maps ``gains(frames, block)`` to the
    ``cfg.mode`` filter.  Module level, so ``_block_filters``' generator
    holds no function past building this one."""
    def filters(frames, block):
        taps = gains_to_taps(gains(frames, block), proto, cfg.shorten_len,
                             first_frame=frames.start)
        return taps if cfg.mode == "direct" else filter_to_freq(taps)
    return filters


@contextmanager
def _block_filters(gain_source, proto, cfg, num_frames: int):
    """Yield ``filters(frames, block)``: the filters of the hops in the slice
    ``frames``, whose input samples are ``block``, in the form the
    ``cfg.mode`` filter takes (taps, or 2P-point responses for ``ols``).

    A gain file is checked against ``cfg`` and ``num_frames`` on entry, and
    its records past the input's last frame on a clean exit.  A block's gains
    reach :func:`gains_to_taps` with no name left on them, so they die inside
    it after its inverse FFT (CPython 3.11 and later move a call's arguments
    into the callee's frame; 3.10 frees them on return).
    """
    p, hop = cfg.shorten_len, cfg.hop
    if gain_source == ESTIMATOR_MMSE_LSA:
        tracker = NoiseTrackerState.initial(cfg.num_bins, cfg)
        analysis = EngineState(np.zeros(cfg.proto_len + 1), hop)
        yield _mapped(lambda frames, block: estimate_gains(
            analyze_polyphase(block, proto, cfg, analysis).frames, cfg, tracker),
            proto, cfg)
        return
    with fbeg.open_gain_stream(gain_source) as (header, read):
        if header.record_type == fbeg.TYPE_ANALYSIS_FRAMES:
            raise ConfigError(f"record type {header.record_type} at offset 6 holds "
                              "analysis frames, not gains")
        # The reader ties a type-A file's bin count to its frame size.
        if header.frame_size != cfg.frame_size or header.hop != hop:
            raise ConfigError(f"gain stream was written for frame size {header.frame_size}"
                              f", hop {header.hop}; active configuration is "
                              f"{cfg.frame_size}, {hop}")
        type_b = header.record_type == fbeg.TYPE_DFT_RESPONSES
        if type_b and header.num_bins != p + 1:
            raise ConfigError(f"DFT-response stream has {header.num_bins} bins, "
                              f"configuration expects {p + 1}")
        if header.num_frames < num_frames:
            raise DataError(f"gain stream ends after frame {header.num_frames}; the "
                            f"input requires {num_frames} frames")
        if type_b and cfg.mode == "direct":
            raise ConfigError("DFT-response (type B) streams carry no time-domain "
                              "taps; use the ols mode")
        yield ((lambda frames, block: read(frames)) if type_b else _mapped(
            lambda frames, block: _clamp_magnitude(read(frames), cfg.g_max),
            proto, cfg))
        for frames in _frame_blocks(header.num_frames, first=num_frames):
            rows = read(frames)
            if not type_b:
                _check_hermitian_edges(_clamp_magnitude(rows, cfg.g_max), frames.start)


def process_stream(x, gain_source, cfg, out=None) -> tuple[np.ndarray, LatencyReport]:
    """Run the full enhancement pipeline over a signal.

    Per frame: polyphase analysis -> per-bin gains -> central-P taps
    (:func:`gains_to_taps`) -> 2P-point response -> overlap-save filtering
    of the hop (or direct FIR in ``direct`` mode).
    DFT-response streams (type B) skip the mapping stages and drive the
    overlap-save engine directly.  The gain source is chosen once: it yields
    each block's filters, and the loop makes one filter call per block of at
    most ``BLOCK_FRAMES`` hops, through the public per-hop functions, with
    the analysis and overlap-save :class:`EngineState` and the noise tracker
    carried between blocks: the output equals the per-hop chain exactly.  A
    gain file is read and checked a block of records at a time, then past the
    input's last frame, so memory does not grow with the signal or the file;
    it is opened and checked even for an input shorter than one hop.

    Parameters
    ----------
    x : array_like or fbeq.audio_io.WavReader
        Input signal of any real numeric dtype, widened to float64 a block at
        a time by each stage that reads it, with the same output as its whole
        widening.  An object-dtype array is not converted: the finite check
        raises ``TypeError``.  A reader (``read_wav(path, stream=True)
        .samples``) is read a block at a time in stream order, then past the
        last whole hop, and checks each sample as it reads it: its errors
        come when their block is reached.
    gain_source : str or path-like
        ``"mmse-lsa"`` for the built-in estimator, or the path of an FBEG file.
    cfg : fbeq.config.Config
        Validated configuration.
    out : optional
        Filled by ``out[a:b] = block``, once per block in stream order, in place
        of a new float64 array: such an array, or a ``fbeq.audio_io.BlockEncoder``.

    Returns
    -------
    (numpy.ndarray, LatencyReport)
        ``floor(T/r) * r`` output samples, ``out`` if given, and the latency report.

    Raises
    ------
    DataError
        A non-finite input sample (its index is reported), or a gain file
        with fewer frames than the input needs.
    ConfigError
        A ``gain_source`` that is neither a string nor path-like, a file of
        analysis frames (record type 2) in place of gains, a gain file whose
        geometry does not fit the configuration, a DFT-response file in
        ``direct`` mode, or an ``out`` of another length.
    NumericError
        A subband-gain frame whose DC or Nyquist bin is not real, past the
        input's last frame too, an input loud enough to overflow the
        estimator's a posteriori SNR, or a filtered output that is not finite
        (a finite input loud enough to overflow the filtering); the frame is
        named.
    FormatError
        A gain file that :func:`fbeq.fbeg.load_gain_stream` would reject,
        with the same message, or a streamed input whose data ends early.
    """
    if not isinstance(gain_source, (str, os.PathLike)):
        raise ConfigError(f"gain source must be {ESTIMATOR_MMSE_LSA!r} or the path "
                          f"of an FBEG file, got {type(gain_source).__name__}")
    streamed = isinstance(x, WavReader)  # it checks each slice it reads
    if not streamed:
        x = np.ravel(x)
        _check_finite(x, "input ")
    proto = design_prototype(cfg)
    p, hop = cfg.shorten_len, cfg.hop
    report = LatencyReport(
        filter_group_delay_samples=p // 2,
        block_buffer_samples=hop,
        sample_rate_hz=cfg.sample_rate_hz,
    )
    num_frames = cfg.num_frames(len(x))
    filter_block = direct_filter_block if cfg.mode == "direct" else ols_filter_frame
    with _block_filters(gain_source, proto, cfg, num_frames) as filters:
        engine = EngineState.create(p, hop)
        if out is None:
            out = np.empty(num_frames * hop, dtype=np.float64)
        elif len(out) != num_frames * hop:
            raise ConfigError(f"out holds {len(out)} samples, not {num_frames * hop}")
        # A block's frames, gains and filters each go once their consumer has
        # run, and the histories carried on are copies, so no array of one
        # block is alive while the next is analysed.  The block is the
        # input's own slice, or a streamed file's read: each EngineState.push
        # widens it for its call alone, so no float64 copy is held through
        # the mapping.  An input loud enough to overflow a stage shows as a
        # non-finite output, which the filter screens, so NumPy's overflow
        # and invalid-value warnings are silenced here.
        with np.errstate(over="ignore", invalid="ignore"):
            for frames in _frame_blocks(num_frames):
                samples = slice(frames.start * hop, frames.stop * hop)
                block = x[samples]
                out[samples] = filter_block(engine, filters(frames, block), block,
                                            first_frame=frames.start)
        if streamed:
            x[num_frames * hop :]  # read to check the samples past the last hop
    return out, report
