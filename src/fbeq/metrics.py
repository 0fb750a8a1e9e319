"""Objective evaluation.

Segmental noise attenuation over noise-only frames, segmental SNR over all
frames, and a real/imaginary-plus-magnitude spectral distance, with
noise-only frame labeling from the clean reference and delay compensation
(the processed signal is advanced by the filter group delay before framing).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .filterbank import AnalysisFrameSeq, FilterbankSpec, analyze_polyphase, design_prototype

NOISE_ONLY_THRESHOLD_DB = -40.0
SEG_NA_CLAMP_DB = 100.0


@dataclass(frozen=True)
class FrameLabeling:
    """Noise-only frame index set over a framing of the clean reference."""

    noise_only: frozenset
    num_frames: int
    frame_len: int

    @property
    def num_noise_only(self) -> int:
        return len(self.noise_only)


@dataclass(frozen=True)
class MetricReport:
    """Evaluation summary; ``None`` marks a not-applicable metric."""

    seg_na_db: float | None
    seg_snr_db: float | None
    ri_mag_loss: float | None
    frames_noise_only: int
    frames_total: int
    seg_na_clamped_frames: int
    delay_compensation_samples: int


def _advance(processed, delay: int) -> np.ndarray:
    """The processed signal advanced by ``delay`` samples (delay compensation).

    Raises
    ------
    DataError
        If ``delay`` is negative: slicing would keep the signal's tail instead.
    """
    if delay < 0:
        raise DataError(f"delay must be >= 0, got {delay}")
    return np.asarray(processed, dtype=np.float64).ravel()[delay:]


def _frame_energies(x: np.ndarray, frame_len: int, num_frames: int) -> np.ndarray:
    trimmed = x[: num_frames * frame_len].reshape(num_frames, frame_len)
    return np.sum(trimmed * trimmed, axis=1)


def label_noise_only(clean, frame_len: int,
                     threshold_db: float = NOISE_ONLY_THRESHOLD_DB) -> FrameLabeling:
    """Label frames of the clean reference whose energy sits below the peak.

    Frame ``m`` is noise-only iff its energy in dB is below the peak frame
    energy plus ``threshold_db`` (default -40 dB); zero-energy frames always
    qualify.
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
        mask = np.ones(num_frames, dtype=bool)
    else:
        # energy < peak * 10^(threshold/10), zero energies included.
        mask = energies < peak * 10.0 ** (threshold_db / 10.0)
    return FrameLabeling(
        noise_only=frozenset(int(m) for m in np.flatnonzero(mask)),
        num_frames=num_frames,
        frame_len=frame_len,
    )


def _seg_na_detail(noise, processed, labeling: FrameLabeling,
                   delay: int = 0) -> tuple[float | None, int, int]:
    noise = np.asarray(noise, dtype=np.float64).ravel()
    shifted = _advance(processed, delay)
    r = labeling.frame_len
    num_frames = min(labeling.num_frames, noise.size // r, shifted.size // r)
    indices = np.array(sorted(m for m in labeling.noise_only if m < num_frames),
                       dtype=int)
    if indices.size == 0:
        return None, 0, 0
    noise_e = _frame_energies(noise, r, num_frames)[indices]
    proc_e = _frame_energies(shifted, r, num_frames)[indices]
    clamp = 10.0 ** (SEG_NA_CLAMP_DB / 10.0)
    zero_den = proc_e == 0.0
    ratios = np.where(zero_den, clamp, noise_e / np.where(zero_den, 1.0, proc_e))
    mean_ratio = float(np.mean(ratios))
    if mean_ratio <= 0.0:
        return None, int(indices.size), int(np.count_nonzero(zero_den))
    return (
        10.0 * float(np.log10(mean_ratio)),
        int(indices.size),
        int(np.count_nonzero(zero_den)),
    )


def seg_na(noise, processed, labeling: FrameLabeling, delay: int = 0) -> float | None:
    """Segmental noise attenuation in dB over the labeled noise-only frames.

    ``10*log10`` of the mean, over noise-only frames, of the per-frame ratio
    of reference-noise energy to processed energy (within those frames the
    processed signal is residual noise).  The processed signal is advanced
    by ``delay`` samples before framing.  Zero-denominator frames clamp at
    +100 dB; an empty label set yields ``None`` (not applicable).
    """
    value, _, _ = _seg_na_detail(noise, processed, labeling, delay)
    return value


def seg_snr(clean, processed, frame_len: int, delay: int = 0) -> float | None:
    """Segmental SNR in dB: mean over frames of ``10*log10`` signal-to-error.

    Frames with zero clean energy are excluded; a zero-error frame makes the
    metric not applicable (infinite SNR) and returns ``None``.
    """
    clean = np.asarray(clean, dtype=np.float64).ravel()
    shifted = _advance(processed, delay)
    if frame_len <= 0:
        raise DataError(f"frame length must be positive, got {frame_len}")
    num_frames = min(clean.size, shifted.size) // frame_len
    if num_frames == 0:
        raise DataError(
            "no full frames remain after delay compensation "
            f"(clean {clean.size}, processed {shifted.size}, frame {frame_len})"
        )
    clean_e = _frame_energies(clean, frame_len, num_frames)
    diff = shifted[: num_frames * frame_len].reshape(num_frames, frame_len) - \
        clean[: num_frames * frame_len].reshape(num_frames, frame_len)
    err_e = np.sum(diff * diff, axis=1)
    include = clean_e > 0.0
    if not np.any(include):
        return None
    if np.any(err_e[include] == 0.0):
        return None
    terms = np.log10(clean_e[include] / err_e[include])
    return 10.0 * float(np.mean(terms))


def ri_mag_loss(ref: AnalysisFrameSeq, est: AnalysisFrameSeq) -> float:
    """Squared Frobenius distance of real, imaginary, and magnitude parts.

    ``sum (Re ref - Re est)^2 + sum (Im ref - Im est)^2 +
    sum (|ref| - |est|)^2`` over the half-spectrum frame matrices.
    """
    if ref.spec != est.spec:
        raise DataError("frame sequences come from different geometries")
    if ref.frames.shape != est.frames.shape:
        raise DataError(
            f"frame shapes differ: {ref.frames.shape} vs {est.frames.shape}"
        )
    diff = ref.frames - est.frames
    mag_diff = np.abs(ref.frames) - np.abs(est.frames)
    return float(
        np.sum(diff.real**2) + np.sum(diff.imag**2) + np.sum(mag_diff**2)
    )


def compute_report(clean, processed, noise=None, spec: FilterbankSpec | None = None,
                   delay: int = 0) -> MetricReport:
    """Assemble the full metric set for one processed signal.

    ``noise`` (the ground-truth additive noise) enables the attenuation
    metric; ``spec`` enables the spectral distance (both signals are
    re-analyzed).  ``delay`` advances the processed signal first.
    """
    clean = np.asarray(clean, dtype=np.float64).ravel()
    shifted = _advance(processed, delay)
    frame_len = spec.hop if spec is not None else 64
    labeling = label_noise_only(clean, frame_len)
    na_value, _, na_clamped = (None, 0, 0) if noise is None else _seg_na_detail(
        noise, shifted, labeling
    )
    snr_value = seg_snr(clean, shifted, frame_len)
    loss = None
    if spec is not None:
        proto = design_prototype(spec)
        common = min(clean.size, shifted.size)
        ref = analyze_polyphase(clean[:common], proto, spec)
        est = analyze_polyphase(shifted[:common], proto, spec)
        loss = ri_mag_loss(ref, est)
    return MetricReport(
        seg_na_db=na_value,
        seg_snr_db=snr_value,
        ri_mag_loss=loss,
        frames_noise_only=labeling.num_noise_only,
        frames_total=labeling.num_frames,
        seg_na_clamped_frames=na_clamped,
        delay_compensation_samples=delay,
    )
