"""From subband gains to short time-domain filters, and block filtering.

Two mapping stages: the synthesis sum turning a full-band gain vector into a
high-order linear-phase filter (one tap per prototype lag), then rectangular
extraction of the central ``P`` taps — fixing the group delay to ``P/2``
samples.  Filtering runs per hop with the frame's filter held constant over
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
    FilterbankSpec,
    PrototypeFilter,
    analyze_polyphase,
    design_prototype,
)
from .gains import estimate_gains

IMAG_RESIDUE_TOL = 1e-9

ESTIMATOR_MMSE_LSA = "mmse-lsa"


class HighOrderFilter(NamedTuple):
    """Per-frame time-domain filter over all prototype lags (length L+1)."""

    taps: np.ndarray


class ShortenedFilter(NamedTuple):
    """Length-P extraction of a HighOrderFilter; delays the signal by P/2."""

    taps: np.ndarray
    group_delay: int


class FreqResponse(NamedTuple):
    """Half-spectrum of the 2P-point DFT of a ShortenedFilter (P+1 bins)."""

    bins: np.ndarray


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
    frame_index: int = 0

    @classmethod
    def create(cls, shorten_len: int, hop: int) -> "EngineState":
        if hop > shorten_len + 1:
            raise ConfigError(
                f"hop {hop} exceeds shorten_len + 1 = {shorten_len + 1}; "
                "overlap-save blocks would alias"
            )
        return cls(history=np.zeros(2 * shorten_len, dtype=np.float64), hop=hop)

    def push(self, block) -> np.ndarray:
        block = np.asarray(block, dtype=np.float64).ravel()
        if block.size != self.hop:
            raise DataError(
                f"expected a block of {self.hop} samples, got {block.size}"
            )
        self.history = np.concatenate([self.history[block.size :], block])
        self.frame_index += 1
        return self.history


def _expand_hermitian_rows(half: np.ndarray) -> np.ndarray:
    """Batched half-to-full spectrum expansion with the edge-bin reality check."""
    half = np.atleast_2d(np.asarray(half, dtype=np.complex128))
    scale = np.max(np.abs(half), axis=1, initial=0.0)
    edge_imag = np.maximum(np.abs(half[:, 0].imag), np.abs(half[:, -1].imag))
    bad = np.flatnonzero(edge_imag > 1e-9 * scale)
    if bad.size:
        k = int(bad[0])
        raise NumericError(
            f"Hermitian symmetry error in frame {k}: DC/Nyquist bins are not "
            f"real (|imag| = {edge_imag[k]:.3e})"
        )
    m = 2 * (half.shape[1] - 1)
    full = np.empty((half.shape[0], m), dtype=np.complex128)
    full[:, : half.shape[1]] = half
    full[:, half.shape[1] :] = np.conj(half[:, -2:0:-1])
    return full


def _full_gains_to_taps(full: np.ndarray, proto: PrototypeFilter) -> np.ndarray:
    """Batched synthesis sum: rows of M full-band gains -> rows of L+1 taps.

    ``taps[l] = h(l) * sum_i W_i * exp(-j*(2*pi/M)*i*(l - tau))``; the inner
    sum is one M-point DFT of the gain row, gathered at ``(l - tau) mod M``.
    Raises on imaginary residue above ``IMAG_RESIDUE_TOL`` relative (the
    caller passed non-Hermitian gains), then discards the imaginary part.
    """
    full = np.atleast_2d(np.asarray(full, dtype=np.complex128))
    m = full.shape[1]
    taps = np.asarray(proto.taps, dtype=np.float64)
    lag_bins = (np.arange(taps.size) - proto.tau) % m
    spectrum = np.fft.fft(full, axis=1)
    complex_taps = taps[None, :] * spectrum[:, lag_bins]
    scale = np.max(np.abs(complex_taps), axis=1, initial=0.0)
    residue = np.max(np.abs(complex_taps.imag), axis=1, initial=0.0)
    bad = np.flatnonzero(residue > IMAG_RESIDUE_TOL * scale)
    if bad.size:
        k = int(bad[0])
        raise NumericError(
            f"non-Hermitian gains in frame {k}: imaginary residue "
            f"{residue[k]:.3e} exceeds {IMAG_RESIDUE_TOL:.0e} relative"
        )
    return complex_taps.real


def subband_to_time(gains_full, proto: PrototypeFilter) -> HighOrderFilter:
    """Map one full-band (Hermitian) gain vector to its time-domain filter.

    Parameters
    ----------
    gains_full : array_like
        ``M`` complex gains, Hermitian-symmetric (e.g. from
        :func:`fbeq.filterbank.expand_hermitian`).
    proto : PrototypeFilter

    Returns
    -------
    HighOrderFilter
        Real taps over lags ``0..L``.

    Raises
    ------
    NumericError
        If the synthesis sum's imaginary residue exceeds ``1e-9`` relative
        (non-Hermitian input).
    """
    gains_full = np.asarray(gains_full, dtype=np.complex128).ravel()
    return HighOrderFilter(taps=_full_gains_to_taps(gains_full, proto)[0])


def shorten_filter(hd: HighOrderFilter, shorten_len: int) -> ShortenedFilter:
    """Extract the central ``shorten_len`` taps around the group-delay point.

    For the fixed support ``[tau - P/2, tau + P/2 - 1]`` this rectangular
    extraction is the L2-optimal length-P approximation (the squared error
    equals the discarded tail energy); the resulting group delay is ``P/2``.
    """
    taps = np.asarray(hd.taps, dtype=np.float64)
    tau = (taps.size - 1) // 2
    p = int(shorten_len)
    if p <= 0 or p % 2 != 0:
        raise ConfigError(f"shorten length must be a positive even number, got {p}")
    start = tau - p // 2
    if start < 0 or start + p > taps.size:
        raise ConfigError(
            f"extraction window [{start}, {start + p - 1}] falls outside "
            f"taps 0..{taps.size - 1}"
        )
    return ShortenedFilter(taps=taps[start : start + p].copy(), group_delay=p // 2)


def filter_to_freq(sf: ShortenedFilter) -> FreqResponse:
    """2P-point DFT of the shortened filter, lower P+1 bins."""
    taps = np.asarray(sf.taps, dtype=np.float64)
    return FreqResponse(bins=np.fft.rfft(taps, n=2 * taps.size))


def ols_filter_frame(state: EngineState, resp: FreqResponse,
                     new_samples) -> np.ndarray:
    """Filter one hop by overlap-save.

    Pushes the ``hop`` new samples into the 2P-sample history, multiplies the
    history's DFT by the response bin-wise (the upper half follows from
    Hermitian symmetry), inverse-transforms, and returns the last ``hop``
    samples — the alias-free tail, equal to linear convolution with the
    frame's filter.
    """
    bins = np.asarray(resp.bins)
    fft_size = 2 * (bins.size - 1)
    if fft_size != state.history.size:
        raise ConfigError(
            f"response implies a {fft_size}-point block, state holds "
            f"{state.history.size} samples"
        )
    history = state.push(new_samples)
    y = np.fft.irfft(np.fft.rfft(history) * bins, n=fft_size)
    return y[-state.hop :]


def direct_filter_block(state: EngineState, sf: ShortenedFilter,
                        new_samples) -> np.ndarray:
    """Filter one hop by direct FIR convolution; same contract as overlap-save."""
    taps = np.asarray(sf.taps, dtype=np.float64)
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

    Per frame: polyphase analysis -> per-bin gains -> full-band expansion ->
    time-domain filter -> central-P extraction -> 2P-point response ->
    overlap-save filtering of the hop (or direct FIR in ``direct`` mode).
    DFT-response streams (type B) skip the mapping stages and drive the
    overlap-save engine directly.

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
        short_taps = _gain_rows_to_short_taps(gain_rows, proto, spec, p)
    elif header.record_type == fbeg.TYPE_SUBBAND_GAINS:
        fbeg.check_stream_geometry(header, spec, p)
        _require_frames(header.num_frames, num_frames)
        gain_rows = _clamp_magnitude(stream_frames[:num_frames], cfg.g_max)
        short_taps = _gain_rows_to_short_taps(gain_rows, proto, spec, p)
    else:
        fbeg.check_stream_geometry(header, spec, p)
        _require_frames(header.num_frames, num_frames)
        if cfg.mode == "direct":
            raise ConfigError(
                "DFT-response (type B) streams carry no time-domain taps; "
                "use the ols mode"
            )
        responses = stream_frames[:num_frames]
        return _run_ols(x, responses, spec.hop, p), report

    if cfg.mode == "direct":
        return _run_direct(x, short_taps, spec.hop, p), report
    responses = np.fft.rfft(short_taps, n=2 * p, axis=1)
    return _run_ols(x, responses, spec.hop, p), report


def _require_frames(available: int, needed: int) -> None:
    if available < needed:
        raise DataError(
            f"gain stream ends after frame {available}; the input requires "
            f"{needed} frames"
        )


def _gain_rows_to_short_taps(gain_rows: np.ndarray, proto: PrototypeFilter,
                             spec: FilterbankSpec, shorten_len: int) -> np.ndarray:
    full = _expand_hermitian_rows(gain_rows)
    hd = _full_gains_to_taps(full, proto)
    start = proto.tau - shorten_len // 2
    if start < 0 or start + shorten_len > hd.shape[1]:
        raise ConfigError(
            f"extraction window [{start}, {start + shorten_len - 1}] falls "
            f"outside taps 0..{hd.shape[1] - 1}"
        )
    return hd[:, start : start + shorten_len]


def _run_ols(x: np.ndarray, responses: np.ndarray, hop: int,
             shorten_len: int) -> np.ndarray:
    state = EngineState.create(shorten_len, hop)
    num_frames = responses.shape[0]
    out = np.empty(num_frames * hop, dtype=np.float64)
    for k in range(num_frames):
        out[k * hop : (k + 1) * hop] = ols_filter_frame(
            state, FreqResponse(responses[k]), x[k * hop : (k + 1) * hop]
        )
    return out


def _run_direct(x: np.ndarray, taps_rows: np.ndarray, hop: int,
                shorten_len: int) -> np.ndarray:
    state = EngineState.create(shorten_len, hop)
    num_frames = taps_rows.shape[0]
    out = np.empty(num_frames * hop, dtype=np.float64)
    for k in range(num_frames):
        sf = ShortenedFilter(taps=taps_rows[k], group_delay=shorten_len // 2)
        out[k * hop : (k + 1) * hop] = direct_filter_block(
            state, sf, x[k * hop : (k + 1) * hop]
        )
    return out
