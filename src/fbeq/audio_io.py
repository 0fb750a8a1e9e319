"""WAV ingestion/emission and SNR-controlled mixing for test material.

Mono PCM16 or IEEE-float32 only; mismatched sample rates are errors — the
DSP chain never resamples.  ``scipy.io.wavfile`` is imported on the first
read or write rather than at module import, so ``import fbeq`` does not pay
for loading it.
"""

from __future__ import annotations

import math
import struct
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, FormatError

PCM16_SCALE = 32768.0
PCM16_CHUNK = 1 << 14  # samples rounded at a time when encoding PCM16


@dataclass(frozen=True)
class AudioBuffer:
    """Mono audio: float samples (nominally in [-1, 1]) plus sample rate."""

    samples: np.ndarray
    sample_rate_hz: int


def read_wav(path, expected_rate: int | None = None) -> AudioBuffer:
    """Read a mono WAV file.

    The samples come back as float32, which holds either format exactly:
    PCM16 is scaled by ``1/32768`` in place, and float32 passes through
    uncopied.  Widened to float64 they are the file's exact values.

    Raises
    ------
    FormatError
        Unparseable or compressed files, and files cut short of the size
        their header declares.
    DataError
        Stereo files, unsupported sample formats, a non-finite sample (its
        index is reported), or a rate different from ``expected_rate`` (no
        silent resampling).
    """
    from scipy.io import wavfile

    try:
        with warnings.catch_warnings():
            # A data chunk cut short only warns, and the samples before the cut
            # come back.
            warnings.filterwarnings("error", "Reached EOF prematurely",
                                    wavfile.WavFileWarning)
            rate, data = wavfile.read(path)
    except (ValueError, struct.error, wavfile.WavFileWarning) as exc:
        raise FormatError(f"{path}: not a readable WAV file ({exc})") from exc
    if data.ndim != 1:
        raise DataError(
            f"{path}: only mono is supported, file has {data.shape[1]} channels"
        )
    if data.dtype == np.int16:
        samples = data.astype(np.float32)
        samples *= 1.0 / PCM16_SCALE  # exact: 16 significant bits times 2**-15
    elif data.dtype == np.float32:
        samples = data
    else:
        raise DataError(
            f"{path}: unsupported sample format {data.dtype}; "
            "use PCM 16-bit or IEEE float 32-bit"
        )
    if expected_rate is not None and rate != expected_rate:
        raise DataError(
            f"{path}: sample rate {rate} Hz does not match the configured "
            f"{expected_rate} Hz (resampling is not performed)"
        )
    _check_finite(samples, f"{path}: ")
    return AudioBuffer(samples=samples, sample_rate_hz=int(rate))


def _check_finite(samples: np.ndarray, context: str, first: int = 0) -> None:
    """Raise ``DataError`` "<context>sample N is non-finite (V)" for the first bad
    sample, ``N`` counted from ``first``."""
    finite = np.isfinite(samples)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise DataError(f"{context}sample {first + bad} is non-finite ({samples[bad]})")


def _encode_pcm16(samples: np.ndarray, context: str) -> tuple[np.ndarray, int]:
    """The int16 codes of ``samples`` and the number saturated, encoded
    ``PCM16_CHUNK`` samples at a time so no whole-signal float buffer is made."""
    codes = np.empty(samples.size, dtype=np.int16)
    clipped = 0
    for start in range(0, samples.size, PCM16_CHUNK):
        chunk = samples[start : start + PCM16_CHUNK]
        _check_finite(chunk, context, start)
        # One buffer: |x| * 32768 equals |x * 32768| exactly (a power of two).
        rounded = np.abs(chunk)
        with np.errstate(over="ignore"):  # |x| near 1e308 saturates as inf
            rounded *= PCM16_SCALE
        rounded += 0.5
        np.floor(rounded, out=rounded)
        np.copysign(rounded, chunk, out=rounded)
        clipped += (int(np.count_nonzero(rounded > 32767.0))
                    + int(np.count_nonzero(rounded < -32768.0)))
        np.clip(rounded, -32768.0, 32767.0, out=rounded)
        codes[start : start + chunk.size] = rounded
    return codes, clipped


def write_wav(path, buf: AudioBuffer, fmt: str = "pcm16") -> int:
    """Write a mono WAV file; returns the number of saturated samples.

    ``pcm16`` scales by 32768, rounds half away from zero, and saturates to
    ``[-32768, 32767]`` (so +1.0 lands on 32767 and -1.0 on -32768 exactly).
    ``float32`` writes IEEE floats untouched.

    Raises
    ------
    DataError
        A non-finite sample, or for ``float32`` a finite one beyond the
        float32 range; the message names the first one, and no file is
        written.
    """
    from scipy.io import wavfile

    samples = np.asarray(buf.samples, dtype=np.float64).ravel()
    context = f"refusing to write {path}: "
    if fmt == "pcm16":
        codes, clipped = _encode_pcm16(samples, context)
        wavfile.write(path, buf.sample_rate_hz, codes)
        return clipped
    _check_finite(samples, context)
    if fmt == "float32":
        with np.errstate(over="ignore"):  # an overflowing sample is reported below
            single = samples.astype(np.float32)
        if not np.isfinite(single).all():
            bad = int(np.argmin(np.isfinite(single)))
            raise DataError(f"{context}sample {bad} ({samples[bad]}) "
                            "is beyond the float32 range")
        wavfile.write(path, buf.sample_rate_hz, single)
        return 0
    raise ConfigError(f"unknown WAV format '{fmt}' (use pcm16 or float32)")


def mix_at_snr(clean, noise, snr_db: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Mix noise into clean speech at a target SNR.

    Crops the noise at a seeded random offset, scales it by
    ``sqrt(P_clean / (P_noise * 10^(snr_db/10)))`` with powers measured over
    the full utterance, and returns ``(clean + scaled, scaled)`` so callers
    keep the ground-truth noise.  Same seed, same mixture, bit for bit.

    Raises
    ------
    DataError
        A non-finite ``snr_db`` or one that gives no finite positive noise
        scale, a noise shorter than the clean signal, an empty clean signal,
        a negative seed, or a zero-power clean signal or noise crop.
    """
    if not math.isfinite(snr_db):
        raise DataError(f"snr_db must be finite, got {snr_db}")
    clean = np.asarray(clean, dtype=np.float64).ravel()
    noise = np.asarray(noise, dtype=np.float64).ravel()
    if noise.size < clean.size:
        raise DataError(
            f"noise ({noise.size} samples) is shorter than clean "
            f"({clean.size} samples)"
        )
    if clean.size == 0:
        raise DataError("clean signal is empty")
    if seed < 0:
        raise DataError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    offset = int(rng.integers(0, noise.size - clean.size, endpoint=True))
    crop = noise[offset : offset + clean.size]
    clean_power = float(np.mean(clean * clean))
    noise_power = float(np.mean(crop * crop))
    if clean_power == 0.0:
        raise DataError("clean signal has zero power")
    if noise_power == 0.0:
        raise DataError("noise crop has zero power")
    try:
        gain = np.sqrt(clean_power / (noise_power * 10.0 ** (snr_db / 10.0)))
    except (OverflowError, ZeroDivisionError):  # 10^(snr/10) past the float range
        gain = math.nan
    if not 0.0 < gain < math.inf:
        raise DataError(f"snr_db {snr_db} gives no finite positive noise scale")
    scaled = gain * crop
    return clean + scaled, scaled
