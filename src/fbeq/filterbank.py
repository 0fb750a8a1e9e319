"""GDFT-modulated analysis filterbank.

Prototype low-pass design (windowed sinc, Hann taper) plus causal subband
analysis with downsampling in polyphase form (windowed time-fold, M-point
DFT, per-bin phase correction), batched over a signal or streamed one hop
at a time.  Only the lower half-spectrum is computed; real inputs make the
upper half redundant.

Frame indexing convention, used consistently package-wide: with 0-based
sample time, frame ``k`` (``k = 1..floor(T/r)``) becomes available once
``k*r`` samples have arrived and reads samples ``x[k*r - 1 - l]`` for
``l = 0..L``, with zero initial state for negative time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .audio_io import _check_finite
from .errors import ConfigError, DataError, NumericError, check_field_types

HERMITIAN_IMAG_TOL = 1e-9
# Frames per block in analyze_polyphase and process_stream.  At the default
# geometry a block's largest temporaries (BLOCK_FRAMES x (L+1) floats in the
# analysis, ~0.26 MB) fit a per-core L2 cache and are reused by the
# allocator; 64 was the fastest of 8..128.
BLOCK_FRAMES = 64


@dataclass(frozen=True)
class FilterbankSpec:
    """Filterbank geometry: subband count, prototype order, hop, sample rate."""

    frame_size: int = 512
    proto_len: int = 512
    hop: int = 64
    sample_rate_hz: int = 16000

    def __post_init__(self) -> None:
        check_field_types(self)
        self._check_geometry()

    def _check_geometry(self) -> None:
        m, big_l, r = self.frame_size, self.proto_len, self.hop
        if m <= 0 or big_l <= 0 or r <= 0 or self.sample_rate_hz <= 0:
            raise ConfigError("filterbank geometry values must be positive")
        if m % 2 != 0:
            raise ConfigError(
                f"frame size must be even for half-spectrum storage, got {m}"
            )
        if big_l % 2 != 0:
            raise ConfigError(f"prototype order must be even, got {big_l}")
        if big_l + 1 < m:
            raise ConfigError(
                f"prototype length {big_l + 1} must be at least the frame size {m}"
            )
        if r > m:
            raise ConfigError(f"hop {r} must not exceed frame size {m}")
        if m % r != 0:
            raise ConfigError(f"hop {r} must divide frame size {m}")

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


class AnalysisFrameSeq(NamedTuple):
    """Subband analysis result: a ``K x (M/2+1)`` complex matrix."""

    frames: np.ndarray


def design_prototype(spec: FilterbankSpec) -> np.ndarray:
    """Design the windowed-sinc prototype low-pass filter.

    The impulse response over lags ``l = 0..L`` is

    ``taps[l] = (1/M) * sin(z)/z * win(l)``, ``z = (2*pi/M)*(l - tau)``,

    with the removable singularity at ``l = tau`` taking its limit value
    ``win(tau)/M``, and ``win(l) = 0.5 - 0.5*cos(2*pi*l/L)`` (Hann over
    ``L+1`` points: zero endpoints, unit peak at ``tau``).

    Parameters
    ----------
    spec : FilterbankSpec
        Validated filterbank geometry.

    Returns
    -------
    numpy.ndarray
        The ``L+1`` float64 taps; symmetric about ``tau`` bit-exactly (the
        second half is mirrored from the first rather than recomputed).
        Every function that takes a prototype takes this array and reads its
        centre, ``(taps.size - 1) // 2``, from its length.
    """
    m, big_l, tau = spec.frame_size, spec.proto_len, spec.tau
    lags = np.arange(tau + 1, dtype=np.float64)
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * lags / big_l)
    # np.sinc(u) = sin(pi u)/(pi u); u = 2(l - tau)/M gives sin(z)/z above.
    core = np.sinc(2.0 * (lags - tau) / m) / m
    half = window * core
    return np.concatenate([half, half[-2::-1]])


def _prototype_taps(proto, spec: FilterbankSpec) -> np.ndarray:
    """The prototype's taps as float64, checked to be the ``L+1`` of ``spec``."""
    taps = np.asarray(proto, dtype=np.float64)
    if taps.size != spec.proto_len + 1:
        raise ConfigError(f"prototype has {taps.size} taps, geometry expects "
                          f"{spec.proto_len + 1}")
    return taps


def _analysis_segments(x: np.ndarray, spec: FilterbankSpec, history=None) -> np.ndarray:
    """Time-ascending windows ``x[k*r - 1 - L .. k*r - 1]`` for each frame k;
    ``history`` holds the ``L`` samples before ``x[0]`` (zeros when omitted)."""
    big_l, r = spec.proto_len, spec.hop
    num_frames = spec.num_frames(x.size)
    history = np.zeros(big_l) if history is None else np.asarray(history, dtype=np.float64)
    if history.shape != (big_l,):
        raise DataError(f"analysis history must hold the {big_l} samples before "
                        f"the input, got {history.size}")
    padded = np.concatenate([history, x])
    return _hop_windows(padded[r - 1 :], big_l + 1, r, num_frames)


def _phase_correction(spec: FilterbankSpec) -> np.ndarray:
    """Per-bin factor ``exp(+j*(2*pi/M)*i*tau)`` undoing the lag shift of the fold."""
    i = np.arange(spec.num_bins)
    twice_tau = 2 * spec.tau
    if twice_tau % spec.frame_size == 0:
        # exp(j*pi*i*(2*tau/M)) is exactly +/-1; avoids trig roundoff.
        parity = (i * (twice_tau // spec.frame_size)) % 2
        return np.where(parity == 0, 1.0 + 0.0j, -1.0 + 0.0j)
    angles = 2.0 * np.pi * ((i * spec.tau) % spec.frame_size) / spec.frame_size
    return np.exp(1j * angles)


def _fold_and_transform(segments: np.ndarray, taps: np.ndarray,
                        spec: FilterbankSpec, correction: np.ndarray) -> np.ndarray:
    """Window, fold the lag-indexed products into M bins, DFT, and phase-correct.

    ``segments[..., :]`` are time-ascending windows ``x[k*r - 1 - L .. k*r -
    1]``; their product with ``taps``, ``x[k*r - 1 - l] * taps[l]`` at lag
    ``l``, is formed here and folded in place, so it dies before the phase
    correction's broadcast buffer is allocated.  The result is the
    half-spectrum frame(s) ``x_i(k)``.
    """
    m = spec.frame_size
    windowed = segments[..., ::-1] * taps
    length = windowed.shape[-1]
    folded = windowed[..., :m]
    folded += 0.0  # as a NumPy sum starts, so all-(-0.0) columns fold to +0.0
    for start in range(m, length, m):
        folded[..., : length - start] += windowed[..., start : start + m]
    spectra = np.fft.rfft(folded, axis=-1)
    del windowed, folded
    spectra *= correction
    return spectra


def analyze_polyphase(x, proto, spec: FilterbankSpec,
                      history=None) -> AnalysisFrameSeq:
    """Subband analysis via the polyphase realization.

    Windows the ``L+1`` most recent samples with the prototype, folds the
    products into ``M`` bins, applies an M-point DFT, and corrects each bin
    for the ``tau``-lag offset (``(-1)**i`` when ``2*tau`` is a multiple of
    ``M``, as in the default geometry).  Output matches the per-bin inner
    product ``x_i(k) = sum_l x[k*r - 1 - l] * taps[l] *
    exp(-j*(2*pi/M)*i*(l - tau))`` to floating-point tolerance; the tests
    hold that sum as a reference oracle.  Frames are computed in blocks of
    ``BLOCK_FRAMES``, so the temporaries stay cache-sized; each frame is
    computed on its own, so the output does not depend on the block size.
    An input of at most one block, zero frames included, returns that block's
    transform; a longer one fills a preallocated ``K``-row matrix.
    ``history``, the ``L`` samples before ``x`` (zeros when omitted), lets a
    signal cut at hop boundaries be analysed piece by piece to the same bits.
    """
    taps = _prototype_taps(proto, spec)
    x = np.asarray(x, dtype=np.float64).ravel()
    num_frames = spec.num_frames(x.size)
    segments = _analysis_segments(x, spec, history)
    correction = _phase_correction(spec)
    if num_frames <= BLOCK_FRAMES:
        return AnalysisFrameSeq(_fold_and_transform(segments, taps, spec, correction))
    frames = np.empty((num_frames, spec.num_bins), dtype=np.complex128)
    for block in _frame_blocks(num_frames):
        frames[block] = _fold_and_transform(segments[block], taps, spec, correction)
    return AnalysisFrameSeq(frames)


def _frame_blocks(num_frames: int, first: int = 0):
    """Consecutive slices of at most ``BLOCK_FRAMES`` frames covering
    ``first..K-1``."""
    for start in range(first, num_frames, BLOCK_FRAMES):
        yield slice(start, min(start + BLOCK_FRAMES, num_frames))


def expand_hermitian(half) -> np.ndarray:
    """Expand half-spectra of ``M/2+1`` bins to full ``M``-bin spectra.

    Works along the last axis, so ``half`` is one frame or a ``K x (M/2+1)``
    matrix of frames.  ``full[..., i] = half[..., i]`` for ``i <= M/2`` and
    ``full[..., M-i] = conj(half[..., i])`` for the rest.  Bins 0 and ``M/2``
    must be (numerically) real and are written as their real parts, as an
    ``irfft`` reads them, so the result is exactly Hermitian.

    Raises
    ------
    NumericError
        If a DC or Nyquist bin has imaginary part above
        ``HERMITIAN_IMAG_TOL * max |half|`` of its frame (Hermitian symmetry
        error); for a matrix the message names the first such frame.
    """
    half = _check_hermitian_edges(half, 0)
    n = half.shape[-1]
    full = np.empty(half.shape[:-1] + (2 * (n - 1),), dtype=np.complex128)
    full[..., :n] = half
    full.imag[..., : n : n - 1] = 0.0  # bins 0 and M/2
    np.conjugate(half[..., -2:0:-1], out=full[..., n:])
    return full


def _check_hermitian_edges(half, first_frame: int) -> np.ndarray:
    """Return ``half`` as complex128 after checking that its DC and Nyquist bins are real.

    The check and its errors are those documented on :func:`expand_hermitian`;
    ``first_frame`` is the index of row 0 in the messages, for a block cut
    from a longer stream.
    """
    half = np.asarray(half, dtype=np.complex128)
    n = half.shape[-1] if half.ndim else 1
    if n < 2:
        raise DataError(f"half-spectrum needs at least 2 bins, got {n}")
    edge_imag = np.abs(half[..., :: n - 1].imag).max(axis=-1)  # bins 0 and M/2
    if edge_imag.any():  # an all-zero edge passes whatever the scale
        scale = np.abs(half).max(axis=-1)
        bad = _first_flagged(edge_imag > HERMITIAN_IMAG_TOL * scale, first_frame)
        if bad is not None:
            k, where = bad
            raise NumericError(
                f"Hermitian symmetry error{where}: DC/Nyquist bins are not real "
                f"(|imag| = {edge_imag.flat[k]:.3e}, "
                f"limit {HERMITIAN_IMAG_TOL * scale.flat[k]:.3e})"
            )
    return half


def _first_flagged(flags: np.ndarray, first_frame: int = 0) -> tuple[int, str] | None:
    """Index of the first set per-frame flag and its error-message text.

    ``None`` when no flag is set; the text is ``" in frame k"`` with ``k``
    counted from ``first_frame``, or empty when ``flags`` is 0-d (a single
    frame).
    """
    if flags.ndim == 0:  # a NumPy bool; its .any() costs more than the check
        return (0, "") if flags else None
    if not flags.any():
        return None
    k = int(np.argmax(flags))
    return k, f" in frame {first_frame + k}"


def slide_history(history: np.ndarray, block, hop: int) -> np.ndarray:
    """Shift ``hop`` new samples into a sliding history, dropping the oldest.

    Returns a new array of ``history.size`` samples ending with ``block``.

    Raises
    ------
    DataError
        If ``block`` does not hold exactly ``hop`` samples, or holds a
        non-finite one.
    """
    return np.concatenate([history[hop:], _hop_block(block, hop)])


def _hop_block(block, size: int) -> np.ndarray:
    """``block`` as a flat float64 array of exactly ``size`` samples, all finite.

    Raises ``DataError`` "expected a block of S samples, got N" for a block of
    another size, and "input sample N is non-finite (V)" for its first NaN or
    infinite sample, ``N`` counted within the block.  A finite sum proves
    every sample finite, so only a block whose sum is not finite pays to
    locate the sample.  A block of finite samples whose sum overflows passes,
    after NumPy's overflow warning.
    """
    block = np.asarray(block, dtype=np.float64).ravel()
    if block.size != size:
        raise DataError(f"expected a block of {size} samples, got {block.size}")
    if not math.isfinite(np.add.reduce(block)):
        _check_finite(block, "input ")
    return block


def _hop_windows(samples: np.ndarray, size: int, hop: int, count: int) -> np.ndarray:
    """``count`` windows of ``size`` contiguous ``samples``, ``hop`` apart: a view
    on the buffer, ~20x cheaper per call than ``sliding_window_view``."""
    item = samples.itemsize
    return np.ndarray((count, size), samples.dtype, samples, strides=(hop * item, item))


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


class PolyphaseAnalyzer:
    """Streaming polyphase analysis: one subband frame per pushed hop.

    Owns the ``L+1``-sample history (zero-initialized); not safe for
    concurrent use by multiple streams.
    """

    def __init__(self, proto, spec: FilterbankSpec) -> None:
        self.spec = spec
        self._taps = _prototype_taps(proto, spec)
        self._correction = _phase_correction(spec)
        self._history = np.zeros(spec.proto_len + 1, dtype=np.float64)

    def push(self, block) -> np.ndarray:
        """Consume ``hop`` new samples and return the resulting frame."""
        self._history = slide_history(self._history, block, self.spec.hop)
        return _fold_and_transform(self._history, self._taps, self.spec,
                                   self._correction)
