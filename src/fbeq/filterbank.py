"""GDFT-modulated analysis filterbank.

Prototype low-pass design (windowed sinc, Hann taper) plus causal subband
analysis with downsampling in polyphase form (windowed time-fold, M-point
DFT, per-bin phase correction), batched over a signal or streamed one hop
at a time.  Only the lower half-spectrum is computed; real inputs make the
upper half redundant.  :class:`EngineState` slides a stream's past input
for the analysis and for the short filter alike.

Frame indexing convention, used consistently package-wide: with 0-based
sample time, frame ``k`` (``k = 1..floor(T/r)``) becomes available once
``k*r`` samples have arrived and reads samples ``x[k*r - 1 - l]`` for
``l = 0..L``, with zero initial state for negative time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .audio_io import _check_finite
from .config import Config, check_shorten_len
from .errors import ConfigError, DataError, NumericError

HERMITIAN_IMAG_TOL = 1e-9
# Frames per block in analyze_polyphase and process_stream.  At the default
# geometry a block's largest temporaries (BLOCK_FRAMES x (L+1) floats in the
# analysis, ~0.26 MB) fit a per-core L2 cache and are reused by the
# allocator; 64 was the fastest of 8..128.
BLOCK_FRAMES = 64


class AnalysisFrameSeq(NamedTuple):
    """Subband analysis result: a ``K x (M/2+1)`` complex matrix."""

    frames: np.ndarray


def design_prototype(cfg: Config) -> np.ndarray:
    """Design the windowed-sinc prototype low-pass filter.

    The impulse response over lags ``l = 0..L`` is

    ``taps[l] = (1/M) * sin(z)/z * win(l)``, ``z = (2*pi/M)*(l - tau)``,

    with the removable singularity at ``l = tau`` taking its limit value
    ``win(tau)/M``, and ``win(l) = 0.5 - 0.5*cos(2*pi*l/L)`` (Hann over
    ``L+1`` points: zero endpoints, unit peak at ``tau``).

    Parameters
    ----------
    cfg : fbeq.config.Config
        Validated configuration; only its geometry is read.

    Returns
    -------
    numpy.ndarray
        The ``L+1`` float64 taps; symmetric about ``tau`` bit-exactly (the
        second half is mirrored from the first rather than recomputed).
        Every function that takes a prototype takes this array and reads its
        centre, ``(taps.size - 1) // 2``, from its length.
    """
    m, big_l, tau = cfg.frame_size, cfg.proto_len, cfg.tau
    lags = np.arange(tau + 1, dtype=np.float64)
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * lags / big_l)
    # np.sinc(u) = sin(pi u)/(pi u); u = 2(l - tau)/M gives sin(z)/z above.
    core = np.sinc(2.0 * (lags - tau) / m) / m
    half = window * core
    return np.concatenate([half, half[-2::-1]])


def _prototype_taps(proto, cfg: Config) -> np.ndarray:
    """The prototype's taps as float64, checked to be the ``L+1`` of ``cfg``."""
    taps = np.asarray(proto, dtype=np.float64)
    if taps.size != cfg.proto_len + 1:
        raise ConfigError(f"prototype has {taps.size} taps, geometry expects "
                          f"{cfg.proto_len + 1}")
    return taps


def _read_only(table: np.ndarray) -> np.ndarray:
    """``table`` made read-only, as every cached geometry table is shared."""
    table.flags.writeable = False
    return table


@lru_cache(maxsize=64)
def _phase_correction(frame_size: int, tau: int) -> np.ndarray:
    """Per-bin factor ``exp(+j*(2*pi/M)*i*tau)`` undoing the lag shift of the
    fold; built once per ``(M, tau)`` and read-only."""
    i = np.arange(frame_size // 2 + 1)
    if 2 * tau % frame_size == 0:
        # exp(j*pi*i*(2*tau/M)) is exactly +/-1; avoids trig roundoff.
        parity = (i * (2 * tau // frame_size)) % 2
        return _read_only(np.where(parity == 0, 1.0 + 0.0j, -1.0 + 0.0j))
    angles = 2.0 * np.pi * ((i * tau) % frame_size) / frame_size
    return _read_only(np.exp(1j * angles))


def _fold_and_transform(segments: np.ndarray, taps: np.ndarray,
                        cfg: Config, correction: np.ndarray) -> np.ndarray:
    """Window, fold the lag-indexed products into M bins, DFT, and phase-correct.

    ``segments[..., :]`` are time-ascending windows ``x[k*r - 1 - L .. k*r -
    1]``; their product with ``taps``, ``x[k*r - 1 - l] * taps[l]`` at lag
    ``l``, is formed here and folded in place, so it dies before the phase
    correction's broadcast buffer is allocated.  ``segments`` is released
    once the product exists, so windows passed with no other reference die
    before the DFT.  The result is the half-spectrum frame(s) ``x_i(k)``.
    """
    m = cfg.frame_size
    windowed = segments[..., ::-1] * taps
    del segments
    length = windowed.shape[-1]
    folded = windowed[..., :m]
    folded += 0.0  # as a NumPy sum starts, so all-(-0.0) columns fold to +0.0
    for start in range(m, length, m):
        folded[..., : length - start] += windowed[..., start : start + m]
    spectra = np.fft.rfft(folded, axis=-1)
    del windowed, folded
    spectra *= correction
    return spectra


def analyze_polyphase(x, proto, cfg: Config,
                      state: EngineState | None = None) -> AnalysisFrameSeq:
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
    ``state``, an :class:`EngineState` of the ``L+1`` samples before ``x``
    (zeros when omitted), is advanced past the ``K*r`` samples analysed, so a
    signal cut at hop boundaries can be analysed piece by piece to the same
    bits.  Any other ``state``, or a NaN or infinite sample among those
    analysed (counted within ``x``), is a ``DataError`` that leaves it as it was.
    """
    taps = _prototype_taps(proto, cfg)
    x = np.ravel(x)
    num_frames = cfg.num_frames(x.size)
    size = cfg.proto_len + 1
    if state is None:
        state = EngineState(np.zeros(size), cfg.hop)
    elif not (isinstance(state, EngineState) and np.shape(state.history) == (size,)
              and state.hop == cfg.hop):
        raise DataError(f"analysis state must be an EngineState of the L+1 = {size} "
                        f"samples before the input, at hop {cfg.hop}")
    x = x[: num_frames * cfg.hop]
    correction = _phase_correction(cfg.frame_size, cfg.tau)
    if num_frames <= BLOCK_FRAMES:  # the windows die inside the fold
        return AnalysisFrameSeq(_fold_and_transform(state.push(x, num_frames), taps,
                                                    cfg, correction))
    segments = state.push(x, num_frames)
    frames = np.empty((num_frames, cfg.num_bins), dtype=np.complex128)
    for block in _frame_blocks(num_frames):
        frames[block] = _fold_and_transform(segments[block], taps, cfg, correction)
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
    edges = half[..., :: n - 1].imag  # bins 0 and M/2
    # An all-zero edge passes whatever the scale; one count screens it, as
    # the reductions below cost several µs per call on a single frame.
    if np.count_nonzero(edges):
        edge_imag = np.abs(edges).max(axis=-1)
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


@dataclass
class EngineState:
    """A stream's last ``n`` input samples: ``L+1`` for the analysis, ``2P``
    for the filter.

    Single-owner, strictly sequential; :meth:`create` makes the filter's,
    zero-initialized.
    """

    history: np.ndarray
    hop: int

    @classmethod
    def create(cls, shorten_len: int, hop: int) -> "EngineState":
        check_shorten_len(shorten_len, hop=hop)
        return cls(history=np.zeros(2 * shorten_len, dtype=np.float64), hop=hop)

    def push(self, block, hops: int | None = None) -> np.ndarray:
        """Shift in one hop and return the new history; or shift in ``hops``
        hops and return the ``hops x n`` histories after each of them.

        A block of the wrong size or with a NaN or infinite sample is a
        ``DataError``, raised before the history changes.
        """
        if hops is None:
            self.history = np.concatenate([self.history[self.hop :],
                                           _hop_block(block, self.hop)])
            return self.history
        block = _hop_block(block, hops * self.hop)
        extended = np.concatenate([self.history, block])  # zero hops: unchanged
        self.history = extended[-self.history.size :].copy()  # a view would keep the block
        return _hop_windows(extended[self.hop :], self.history.size, self.hop, hops)


class PolyphaseAnalyzer:
    """Streaming polyphase analysis: one subband frame per pushed hop.

    Owns an :class:`EngineState` of the last ``L+1`` samples
    (zero-initialized); not safe for concurrent use by multiple streams.
    """

    def __init__(self, proto, cfg: Config) -> None:
        self.cfg = cfg
        self._taps = _prototype_taps(proto, cfg)
        self._correction = _phase_correction(cfg.frame_size, cfg.tau)
        self._state = EngineState(np.zeros(cfg.proto_len + 1), cfg.hop)

    def push(self, block) -> np.ndarray:
        """Consume ``hop`` new samples and return the resulting frame."""
        return _fold_and_transform(self._state.push(block), self._taps, self.cfg,
                                   self._correction)
