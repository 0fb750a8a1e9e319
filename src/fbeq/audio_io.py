"""WAV ingestion/emission and SNR-controlled mixing for test material.

Mono PCM16 or IEEE-float32 only; mismatched sample rates are errors — the
DSP chain never resamples.  ``read_wav`` parses the RIFF chunks and
``write_wav`` packs them itself, so neither loads ``scipy.io``.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, FormatError

PCM16_SCALE = 32768.0
PCM16_CHUNK = 1 << 14  # samples encoded at a time when writing a whole signal
_CHUNK = struct.Struct("<4sI")  # chunk id and size
_FMT = struct.Struct("<HHIIHH")  # tag, channels, rate, byte rate, block align, bits
_WAVE_FORMAT_EXTENSIBLE = 0xFFFE
_GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"  # after the tag
_SAMPLE_TYPES = {1: np.dtype("<i2"), 3: np.dtype("<f4")}  # PCM16, IEEE float32
_FORMATS = {"pcm16": _SAMPLE_TYPES[1], "float32": _SAMPLE_TYPES[3]}


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


def _first_non_finite(samples: np.ndarray) -> int | None:
    """The flat index of the first NaN or infinite sample, or ``None``.  A
    finite maximum and minimum prove there is none: most calls build no mask."""
    kind = samples.dtype.kind  # np.isfinite raises TypeError for objects
    if kind in "biu" or (kind == "f" and math.isfinite(samples.max(initial=0.0))
                         and math.isfinite(samples.min(initial=0.0))):
        return None
    finite = np.isfinite(samples)
    return None if finite.all() else int(np.argmin(finite))


def _check_finite(samples: np.ndarray, context: str) -> None:
    """Raise ``DataError`` "<context>sample N is non-finite (V)" for the first one."""
    if (bad := _first_non_finite(samples)) is not None:
        raise DataError(f"{context}sample {bad} is non-finite ({samples[bad]})")


class BlockEncoder:
    """A WAV file's samples in its own sample type, encoded a block at a time.

    ``encoder[a:b] = block`` encodes in stream order by :func:`write_wav`'s
    rules, counting PCM16 saturations in ``clipped``.  The first non-finite
    sample, and for float32 the first past its range, are kept as text naming
    their index in the whole signal, for ``write_wav`` to raise.
    """

    def __init__(self, size: int, fmt: str) -> None:
        if fmt not in _FORMATS:
            raise ConfigError(f"unknown WAV format '{fmt}' (use pcm16 or float32)")
        self.fmt, self.data, self.clipped = fmt, np.empty(size, _FORMATS[fmt]), 0
        self.non_finite = self.beyond_range = None

    def __len__(self) -> int:
        return self.data.size

    def __setitem__(self, where: slice, block) -> None:
        start = where.indices(self.data.size)[0]
        block = np.asarray(block, dtype=np.float64)
        if self.non_finite is None and (bad := _first_non_finite(block)) is not None:
            self.non_finite = f"sample {start + bad} is non-finite ({block[bad]})"
        if self.non_finite or self.beyond_range:  # only a non-finite one can follow
            return
        if self.fmt == "float32":
            codes = self.data[where]
            with np.errstate(over="ignore"):  # an overflowing sample is reported
                codes[...] = block
            if (bad := _first_non_finite(codes)) is not None:
                self.beyond_range = (f"sample {start + bad} ({block[bad]}) "
                                     "is beyond the float32 range")
            return
        # One buffer: |x| * 32768 equals |x * 32768| exactly (a power of two).
        rounded = np.abs(block)
        with np.errstate(over="ignore"):  # |x| near 1e308 saturates as inf
            rounded *= PCM16_SCALE
        rounded += 0.5
        np.floor(rounded, out=rounded)
        np.copysign(rounded, block, out=rounded)
        if rounded.max(initial=0.0) > 32767.0 or rounded.min(initial=0.0) < -32768.0:
            self.clipped += (int(np.count_nonzero(rounded > 32767.0))
                             + int(np.count_nonzero(rounded < -32768.0)))
            np.clip(rounded, -32768.0, 32767.0, out=rounded)
        self.data[where] = rounded


def _write_samples(path, data: np.ndarray, rate: int, context: str) -> None:
    """Write ``data``, little-endian ``int16`` or ``float32`` samples, as a mono
    WAV file laid out as ``scipy.io.wavfile.write`` lays it out: a float
    file's ``fmt `` chunk carries a zero ``cbSize`` and is followed by a
    ``fact`` chunk.  A file past the 4 GiB a RIFF size field can declare is
    a ``DataError``, raised before the file is opened."""
    tag = 3 if data.dtype.kind == "f" else 1
    width = data.dtype.itemsize
    fmt = _FMT.pack(tag, 1, rate, rate * width, width, 8 * width)
    fact = b""
    if tag == 3:
        fmt += b"\x00\x00"
        fact = struct.pack("<4sII", b"fact", 4, data.size)
    riff_size = 20 + len(fmt) + len(fact) + data.nbytes  # "WAVE", two chunk heads
    if riff_size > 0xFFFFFFFF:  # RF64 is not written
        raise DataError(f"{context}{data.size} samples make a {riff_size + 8}-byte "
                        "file, past the 4 GiB a RIFF header can declare")
    with open(path, "wb") as fh:
        fh.write(_CHUNK.pack(b"RIFF", riff_size) + b"WAVE"
                 + _CHUNK.pack(b"fmt ", len(fmt)) + fmt + fact
                 + _CHUNK.pack(b"data", data.nbytes))
        data.tofile(fh)


def write_wav(path, buf: AudioBuffer, fmt: str = "pcm16") -> int:
    """Write a mono WAV file; returns the number of saturated samples.

    ``pcm16`` scales by 32768, rounds half away from zero, and saturates to
    ``[-32768, 32767]`` (so +1.0 lands on 32767 and -1.0 on -32768 exactly).
    ``float32`` writes IEEE floats untouched.  The bytes are those
    ``scipy.io.wavfile.write`` gives for the same samples, little-endian.
    ``buf.samples`` may be a :class:`BlockEncoder` filled in ``fmt``, whose
    samples are written as they are; others are encoded ``PCM16_CHUNK`` at a time.

    Raises
    ------
    ConfigError
        An unknown ``fmt``, before any sample is read, or an encoder's other one.
    DataError
        A non-finite sample, or for ``float32`` a finite one beyond the
        float32 range, the message naming the first one; or a file past the
        4 GiB a RIFF header can declare.  No file is written.
    """
    encoder = buf.samples
    if not isinstance(encoder, BlockEncoder):
        samples = np.ravel(encoder)
        encoder = BlockEncoder(samples.size, fmt)
        for start in range(0, samples.size, PCM16_CHUNK):
            encoder[start : start + PCM16_CHUNK] = samples[start : start + PCM16_CHUNK]
    elif encoder.fmt != fmt:
        raise ConfigError(f"samples encoded as {encoder.fmt}, not {fmt}")
    context = f"refusing to write {path}: "
    if encoder.non_finite or encoder.beyond_range:
        raise DataError(context + (encoder.non_finite or encoder.beyond_range))
    _write_samples(path, encoder.data, buf.sample_rate_hz, context)
    return encoder.clipped


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
