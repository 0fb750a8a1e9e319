"""WAV ingestion/emission and SNR-controlled mixing for test material.

Mono PCM16 or IEEE-float32 only; mismatched sample rates are errors — the
DSP chain never resamples.  ``read_wav`` parses the RIFF chunks itself;
``scipy.io.wavfile`` is imported on the first write rather than at module
import, so ``import fbeq`` and a read do not pay for loading it.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, FormatError

PCM16_SCALE = 32768.0
PCM16_CHUNK = 1 << 14  # samples rounded at a time when encoding PCM16
_CHUNK = struct.Struct("<4sI")  # chunk id and size
_FMT = struct.Struct("<HHIIHH")  # tag, channels, rate, byte rate, block align, bits
_WAVE_FORMAT_EXTENSIBLE = 0xFFFE
_GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"  # after the tag
_SAMPLE_TYPES = {1: np.dtype("<i2"), 3: np.dtype("<f4")}  # PCM16, IEEE float32


@dataclass(frozen=True)
class AudioBuffer:
    """Mono audio: float samples (nominally in [-1, 1]) plus sample rate."""

    samples: np.ndarray
    sample_rate_hz: int


def read_wav(path, expected_rate: int | None = None) -> AudioBuffer:
    """Read a mono WAV file.

    The RIFF chunks are walked here: mono PCM16 (format tag 1) or IEEE
    float32 (tag 3), plain or ``WAVE_FORMAT_EXTENSIBLE``, with unknown chunks
    such as ``fact`` skipped.  The samples come back as float32, which holds
    either format exactly: PCM16 is scaled by ``1/32768`` in place, and
    float32 passes through uncopied.  Widened to float64 they are the file's
    exact values.

    Raises
    ------
    FormatError
        A file that is not RIFF/WAVE, one shorter than its RIFF header
        declares, a chunk that runs past the RIFF end, or a missing ``fmt ``
        or ``data`` chunk; the message names the byte offset.
    DataError
        Stereo files, unsupported sample formats (compressed ones included),
        or a rate different from ``expected_rate`` (no silent resampling),
        each with the byte offset of its field; or a non-finite sample (its
        index is reported).
    """
    with open(path, "rb") as fh:
        head = fh.read(12)
        if head[:4] != b"RIFF":
            raise _unreadable(path, "no RIFF id at byte 0")
        if head[8:12] != b"WAVE":
            raise _unreadable(path, "no WAVE id at byte 8")
        end = 8 + int.from_bytes(head[4:8], "little")
        file_size = os.fstat(fh.fileno()).st_size
        if end > file_size:
            raise _unreadable(path, f"RIFF size at byte 4 declares a {end}-byte file, "
                                    f"the file has {file_size} bytes")
        pos, fmt = 12, None
        while pos + 8 <= end:
            fh.seek(pos)
            chunk, size = _CHUNK.unpack(fh.read(8))
            if pos + 8 + size > end:
                raise _unreadable(path, f"{chunk!r} chunk size at byte {pos + 4} runs "
                                        f"past the RIFF end at byte {end}")
            if chunk == b"fmt ":
                fmt = _read_fmt(fh, path, pos + 8, size, expected_rate)
            elif chunk == b"data":
                break
            pos += 8 + size + size % 2  # an odd-sized chunk is padded
        else:
            raise _unreadable(path, f"no data chunk before the RIFF end at byte {end}")
        if fmt is None:
            raise _unreadable(path, f"data chunk at byte {pos} precedes the fmt chunk")
        dtype, rate = fmt
        data = np.fromfile(fh, dtype, size // dtype.itemsize)
    if data.dtype == np.int16:
        samples = data.astype(np.float32)
        samples *= 1.0 / PCM16_SCALE  # exact: 16 significant bits times 2**-15
    else:
        samples = data
    _check_finite(samples, f"{path}: ")
    return AudioBuffer(samples=samples, sample_rate_hz=rate)


def _read_fmt(fh, path, body: int, size: int,
              expected_rate: int | None) -> tuple[np.dtype, int]:
    """The sample type and rate of the ``fmt `` chunk whose ``size`` bytes
    start at byte ``body``, where ``fh`` is positioned; the rate is checked
    against ``expected_rate``."""
    if size < 16:
        raise _unreadable(path, f"fmt chunk size {size} at byte {body - 4} is under 16")
    tag, channels, rate, _, align, bits = _FMT.unpack(fh.read(16))
    tag_at = body
    if tag == _WAVE_FORMAT_EXTENSIBLE and size >= 40:
        guid = fh.read(24)[8:]  # past the extension size, valid bits, channel mask
        if guid[4:] == _GUID_TAIL:
            tag, tag_at = int.from_bytes(guid[:4], "little"), body + 24
    if channels != 1:
        raise DataError(f"{path}: only mono is supported, file has {channels} "
                        f"channels (byte {body + 2})")
    dtype = _SAMPLE_TYPES.get(tag)
    if dtype is None or bits != 8 * dtype.itemsize or align != dtype.itemsize:
        raise DataError(f"{path}: unsupported sample format (format tag {tag} at byte "
                        f"{tag_at}, {bits}-bit samples in {align}-byte blocks at byte "
                        f"{body + 12}); use PCM 16-bit or IEEE float 32-bit")
    if expected_rate is not None and rate != expected_rate:
        raise DataError(
            f"{path}: sample rate {rate} Hz at byte {body + 4} does not match the "
            f"configured {expected_rate} Hz (resampling is not performed)"
        )
    return dtype, rate


def _unreadable(path, what: str) -> FormatError:
    return FormatError(f"{path}: not a readable WAV file ({what})")


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
