"""Objective evaluation.

Segmental noise attenuation over the frames that are noise-only in the clean
reference, segmental SNR over all frames, and a real/imaginary-plus-magnitude
spectral distance.  The metrics take signals that are already aligned;
:func:`compute_report` alone compensates the delay (it advances the processed
signal by the filter group delay before framing) and picks the framing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audio_io import _check_finite
from .errors import DataError
from .config import Config
from .filterbank import analyze_polyphase, design_prototype

NOISE_ONLY_THRESHOLD_DB = -40.0
SEG_NA_CLAMP_DB = 100.0


@dataclass(frozen=True)
class MetricReport:
    """Evaluation summary; ``None`` marks a not-applicable metric."""

    seg_na_db: float | None
    seg_snr_db: float | None
    ri_mag_loss: float
    frames_noise_only: int
    frames_total: int
    seg_na_clamped_frames: int


def _frame_energies(x: np.ndarray, frame_len: int, num_frames: int) -> np.ndarray:
    trimmed = x[: num_frames * frame_len].reshape(num_frames, frame_len)
    return np.sum(trimmed * trimmed, axis=1)


def _noise_only(clean, frame_len: int) -> np.ndarray:
    """Mask of the frames of the clean reference whose energy sits below the peak.

    Frame ``m`` is noise-only iff its energy in dB is below the peak frame
    energy plus ``NOISE_ONLY_THRESHOLD_DB`` (-40 dB); zero-energy frames
    always qualify.
    """
    clean = np.asarray(clean, dtype=np.float64).ravel()
    if frame_len <= 0:
        raise DataError(f"frame length must be positive, got {frame_len}")
    num_frames = clean.size // frame_len
    if num_frames == 0:
        raise DataError(
            f"frame length {frame_len} exceeds the {clean.size}-sample signal"
        )
    energies = _frame_energies(clean, frame_len, num_frames)
    peak = float(np.max(energies))
    if peak == 0.0:
        return np.ones(num_frames, dtype=bool)
    # energy < peak * 10^(threshold/10), zero energies included.
    return energies < peak * 10.0 ** (NOISE_ONLY_THRESHOLD_DB / 10.0)


def _seg_na_detail(noise, processed, noise_only: np.ndarray,
                   frame_len: int) -> tuple[float | None, int]:
    """seg_na over the frames ``noise_only`` marks, and the number of frames
    clamped for a zero denominator."""
    noise = np.asarray(noise, dtype=np.float64).ravel()
    processed = np.asarray(processed, dtype=np.float64).ravel()
    r = frame_len
    num_frames = min(noise_only.size, noise.size // r, processed.size // r)
    indices = np.flatnonzero(noise_only[:num_frames])
    if indices.size == 0:
        return None, 0
    noise_e = _frame_energies(noise, r, num_frames)[indices]
    proc_e = _frame_energies(processed, r, num_frames)[indices]
    clamp = 10.0 ** (SEG_NA_CLAMP_DB / 10.0)
    zero_den = proc_e == 0.0
    ratios = np.where(zero_den, clamp, noise_e / np.where(zero_den, 1.0, proc_e))
    mean_ratio = float(np.mean(ratios))
    clamped = int(np.count_nonzero(zero_den))
    if mean_ratio <= 0.0:
        return None, clamped
    return 10.0 * float(np.log10(mean_ratio)), clamped


def seg_na(clean, noise, processed, frame_len: int) -> float | None:
    """Segmental noise attenuation in dB over the noise-only frames of ``clean``.

    ``10*log10`` of the mean, over noise-only frames, of the per-frame ratio
    of reference-noise energy to processed energy (within those frames the
    processed signal is residual noise).  A ``frame_len``-sample frame is
    noise-only when its clean energy is below the loudest frame's by
    ``NOISE_ONLY_THRESHOLD_DB`` (-40 dB); every frame is when ``clean`` is
    silent.  ``processed`` must already be aligned with ``noise`` (slice off
    its delay first).  Zero-denominator frames clamp at +100 dB; no
    noise-only frame, or reference noise with no energy in them, yields
    ``None`` (not applicable).
    """
    value, _ = _seg_na_detail(noise, processed, _noise_only(clean, frame_len),
                              frame_len)
    return value


def seg_snr(clean, processed, frame_len: int) -> float | None:
    """Segmental SNR in dB: mean over frames of ``10*log10`` signal-to-error.

    ``processed`` must already be aligned with ``clean``.  Frames with zero
    clean energy are excluded; a zero-error frame makes the metric not
    applicable (infinite SNR) and returns ``None``.
    """
    clean = np.asarray(clean, dtype=np.float64).ravel()
    processed = np.asarray(processed, dtype=np.float64).ravel()
    if frame_len <= 0:
        raise DataError(f"frame length must be positive, got {frame_len}")
    num_frames = min(clean.size, processed.size) // frame_len
    if num_frames == 0:
        raise DataError(f"no full frames (clean {clean.size}, processed "
                        f"{processed.size}, frame {frame_len})")
    clean_e = _frame_energies(clean, frame_len, num_frames)
    common = num_frames * frame_len
    err_e = _frame_energies(processed[:common] - clean[:common], frame_len, num_frames)
    include = clean_e > 0.0
    if not np.any(include):
        return None
    if np.any(err_e[include] == 0.0):
        return None
    terms = np.log10(clean_e[include] / err_e[include])
    return 10.0 * float(np.mean(terms))


def ri_mag_loss(ref, est) -> float:
    """Squared Frobenius distance of real, imaginary, and magnitude parts.

    ``sum (Re ref - Re est)^2 + sum (Im ref - Im est)^2 +
    sum (|ref| - |est|)^2`` over two ``K x (M/2+1)`` half-spectrum frame
    matrices, such as :func:`fbeq.filterbank.analyze_polyphase` returns.
    """
    ref, est = np.asarray(ref), np.asarray(est)
    if ref.shape != est.shape:
        raise DataError(f"frame shapes differ: {ref.shape} vs {est.shape}")
    diff = ref - est
    parts = np.sum(diff.real**2) + np.sum(diff.imag**2)
    del diff  # freed before the magnitudes are formed
    mag_diff = np.abs(ref) - np.abs(est)
    mag_diff *= mag_diff
    return float(parts + np.sum(mag_diff))


def compute_report(clean, processed, cfg: Config, noise=None,
                   delay: int = 0) -> MetricReport:
    """Assemble the full metric set for one processed signal.

    The processed signal is advanced by ``delay`` samples first; frames are
    ``cfg.hop`` samples, and the spectral distance re-analyzes both signals
    with ``cfg``.  ``noise`` (the ground-truth additive noise) enables the
    attenuation metric.

    Raises
    ------
    DataError
        If ``delay`` is negative: slicing would keep the signal's tail instead;
        if no full frame of the processed signal remains after the delay; or
        for a NaN or infinite sample, named as "noise sample N" by its array
        and its index there.
    """
    if delay < 0:
        raise DataError(f"delay must be >= 0, got {delay}")
    clean = np.asarray(clean, dtype=np.float64).ravel()
    processed = np.asarray(processed, dtype=np.float64).ravel()
    _check_finite(clean, "clean ")
    _check_finite(processed, "processed ")
    if noise is not None:  # not widened here, so no float64 copy outlives seg_na
        _check_finite(np.ravel(noise), "noise ")
    shifted = processed[delay:]
    noise_only = _noise_only(clean, cfg.hop)
    if shifted.size < cfg.hop:
        raise DataError(
            f"no full frames remain after delay compensation by {delay} samples "
            f"(processed {processed.size}, frame {cfg.hop})"
        )
    na_value, na_clamped = (None, 0) if noise is None else _seg_na_detail(
        noise, shifted, noise_only, cfg.hop
    )
    snr_value = seg_snr(clean, shifted, cfg.hop)
    proto = design_prototype(cfg)
    common = min(clean.size, shifted.size)
    ref = analyze_polyphase(clean[:common], proto, cfg).frames
    est = analyze_polyphase(shifted[:common], proto, cfg).frames
    return MetricReport(
        seg_na_db=na_value,
        seg_snr_db=snr_value,
        ri_mag_loss=ri_mag_loss(ref, est),
        frames_noise_only=int(np.count_nonzero(noise_only)),
        frames_total=noise_only.size,
        seg_na_clamped_frames=na_clamped,
    )
