"""WAV ingestion/emission and SNR-controlled mixing for test material.

Mono PCM16 or IEEE-float32 only; mismatched sample rates are errors — the
DSP chain never resamples.  ``read_wav`` parses the RIFF chunks and
``write_wav`` packs them itself, so neither loads ``scipy.io``.  Both can
stream: :class:`WavReader` reads a file a slice at a time, and
:class:`BlockEncoder` writes one a block at a time into a temporary file
that ``write_wav`` renames into place.
"""

from __future__ import annotations

import math
import os
import stat
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
_PCM16_SAFE_MAX = 32767.0 / PCM16_SCALE  # the largest sample that cannot saturate
_FLOAT32_MAX = float(np.finfo(np.float32).max)


@dataclass(frozen=True)
class AudioBuffer:
    """Mono audio: float samples (nominally in [-1, 1]) plus sample rate.

    ``samples`` may also be a streamed file's :class:`WavReader`, or a
    :class:`BlockEncoder` for :func:`write_wav` to publish."""

    samples: np.ndarray
    sample_rate_hz: int


def read_wav(path, expected_rate: int | None = None, stream: bool = False) -> AudioBuffer:
    """Read a mono WAV file, whole or (``stream=True``) a slice at a time.

    The RIFF chunks are walked here: mono PCM16 (format tag 1) or IEEE
    float32 (tag 3), plain or ``WAVE_FORMAT_EXTENSIBLE``, with unknown chunks
    such as ``fact`` skipped.  The samples come as float32, which holds
    either format exactly: PCM16 is scaled by ``1/32768`` in place, and
    float32 is the file's own bytes.  Widened to float64 they are the file's
    exact values.  With ``stream`` the header alone is read here, and
    ``samples`` is an open :class:`WavReader` for the caller to close;
    otherwise it is that reader's whole-range read, a writable array.

    Raises
    ------
    FormatError
        A file that is not RIFF/WAVE, one shorter than its RIFF header
        declares, a chunk that runs past the RIFF end, a missing ``fmt `` or
        ``data`` chunk, or a ``data`` chunk that ends inside a sample; the
        message names the byte offset.
    DataError
        Stereo files, unsupported sample formats (compressed ones included),
        or a rate different from ``expected_rate`` (no silent resampling),
        each with the byte offset of its field; or a non-finite sample (its
        index is reported).  A streamed file raises the sample errors, and a
        ``FormatError`` for data that ends early, from the read that meets them.
    """
    fh = open(path, "rb")
    try:
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
        if size % dtype.itemsize:
            raise _unreadable(path, f"data chunk size {size} at byte {pos + 4} is not "
                                    f"a whole number of {dtype.itemsize}-byte samples")
    except BaseException:
        fh.close()
        raise
    reader = WavReader(fh, path, dtype, pos + 8, size // dtype.itemsize)
    if stream:
        return AudioBuffer(samples=reader, sample_rate_hz=rate)
    with reader:
        return AudioBuffer(samples=reader[:], sample_rate_hz=rate)


class WavReader:
    """The samples of an open WAV file, read a slice at a time.

    ``reader[a:b]`` reads samples ``a..b-1`` as float32 by :func:`read_wav`'s
    rules and checks them, naming a non-finite sample by its index in the
    whole signal; reads in stream order do not seek.  A context manager that
    closes the file.
    """

    def __init__(self, fh, path, dtype: np.dtype, offset: int, size: int) -> None:
        self._fh, self.path, self.dtype, self.size = fh, path, dtype, size
        self._offset = self._pos = offset  # where the samples start; fh's position

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, where: slice) -> np.ndarray:
        start, stop, step = where.indices(self.size)
        if step != 1:
            raise ConfigError("a WAV file is read in contiguous slices")
        data = np.empty(max(stop - start, 0), self.dtype)
        at = self._offset + start * self.dtype.itemsize
        if at != self._pos:
            self._fh.seek(at)
        got = self._fh.readinto(data)
        self._pos = at + got
        if got < data.nbytes:
            raise _unreadable(self.path, f"data runs out at byte {self._pos}, short of "
                                         f"the {self.size} samples its chunk declares")
        if data.dtype == np.int16:
            samples = data.astype(np.float32)
            samples *= 1.0 / PCM16_SCALE  # exact: 16 significant bits times 2**-15
        else:
            samples = data
        if (bad := _first_non_finite(samples)) is not None:
            raise DataError(f"{self.path}: sample {start + bad} is non-finite "
                            f"({samples[bad]})")
        return samples

    def __enter__(self) -> "WavReader":
        return self

    def __exit__(self, *exc) -> None:
        self._fh.close()


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
    """A WAV file written a block at a time, for :func:`write_wav` to publish.

    The header goes first, for ``size`` samples at ``rate`` Hz in ``fmt``,
    into a temporary file beside the resolved ``path``; ``encoder[a:b] =
    block`` then encodes each block in stream order by :func:`write_wav`'s
    rules and appends it, counting PCM16 saturations in ``clipped``.  The
    first non-finite sample, and for float32 the first past its range, are
    kept as text naming their index in the whole signal, for ``write_wav``
    to raise.  An existing ``path`` that is not a regular file (a device, a
    pipe) is written in place.  As a context manager, it removes its
    temporary file if it was not published.

    Raises
    ------
    ConfigError
        An unknown ``fmt``, before anything else.
    DataError
        A file past the 4 GiB a RIFF header can declare, before any file is
        touched.
    OSError
        The errors ``open(path, "wb")`` would raise, naming ``path``.
    """

    def __init__(self, path, size: int, rate: int, fmt: str = "pcm16") -> None:
        if fmt not in _FORMATS:
            raise ConfigError(f"unknown WAV format '{fmt}' (use pcm16 or float32)")
        self.path, self.size, self.rate, self.fmt = path, size, rate, fmt
        self.clipped, self.non_finite, self.beyond_range = 0, None, None
        self._written = 0
        header = _wav_header(size, rate, _FORMATS[fmt], f"refusing to write {path}: ")
        self._fh, self._temp, self._target = _open_output(path)
        try:
            self._fh.write(header)
        except BaseException:
            self.close()
            raise

    def __len__(self) -> int:
        return self.size

    def __setitem__(self, where: slice, block) -> None:
        start, stop, _ = where.indices(self.size)
        block = np.asarray(block, dtype=np.float64)
        if start != self._written or block.shape != (stop - start,):
            raise ConfigError(f"expected the block of samples {self._written} on, "
                              f"got {block.shape} samples for {start}..{stop - 1}")
        self._written = stop
        # One screen: extremes inside the format's range prove every sample
        # finite and encodable without overflow or saturation; outside it,
        # finite extremes prove every sample finite.
        low, high = block.min(initial=0.0), block.max(initial=0.0)
        if self.fmt == "pcm16":
            outside = not (-1.0 <= low and high <= _PCM16_SAFE_MAX)
        else:
            outside = not (-_FLOAT32_MAX <= low and high <= _FLOAT32_MAX)
        if (outside and self.non_finite is None
                and not (math.isfinite(low) and math.isfinite(high))):
            bad = int(np.argmin(np.isfinite(block)))
            self.non_finite = f"sample {start + bad} is non-finite ({block[bad]})"
        if self.non_finite or self.beyond_range:  # nothing more is written
            return
        codes = block
        if self.fmt == "pcm16":
            if outside and (low < -2.0 or high > 2.0):  # so that 32768 x stays finite
                block = block.clip(-2.0, 2.0)  # past +-1, it saturates either way
            # Round half away from zero: sign(t) * floor(|t| + 0.5), by a cast
            # that truncates; t = 32768 x is exact (a power of two).
            codes = block * PCM16_SCALE
            codes += np.copysign(0.5, codes)
            if outside and high > _PCM16_SAFE_MAX:  # codes truncating past 32767 saturate
                over = codes >= 32768.0
                self.clipped += int(np.count_nonzero(over))
                np.copyto(codes, 32767.0, where=over)
            if outside and low < -1.0:  # and so do those past -32768
                over = codes <= -32769.0
                self.clipped += int(np.count_nonzero(over))
                np.copyto(codes, -32768.0, where=over)
        elif outside:
            with np.errstate(over="ignore"):  # an overflowing sample is reported
                codes = block.astype(_FORMATS["float32"])
            if (bad := _first_non_finite(codes)) is not None:
                self.beyond_range = (f"sample {start + bad} ({block[bad]}) "
                                     "is beyond the float32 range")
                return
        self._fh.write(codes.astype(_FORMATS[self.fmt]))

    def publish(self) -> int:
        """Move the file to ``path``; returns ``clipped``.  A recorded error is
        raised as a ``DataError``, and the temporary file removed, instead."""
        error = self.non_finite or self.beyond_range
        if not error and self._written != self.size:
            raise ConfigError(f"encoder holds {self._written} of its {self.size} samples")
        self._fh.close()
        if error:
            self.close()
            raise DataError(f"refusing to write {self.path}: {error}")
        if self._temp is not None:
            os.replace(self._temp, self._target)
            self._temp = None
        return self.clipped

    def close(self) -> None:
        """Close the file and remove it if it was not published."""
        self._fh.close()
        if self._temp is not None:
            os.unlink(self._temp)
            self._temp = None

    def __enter__(self) -> "BlockEncoder":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _open_output(path) -> tuple:
    """``(file, temporary, target)`` for writing ``path``: a new temporary file
    beside the resolved ``path``, with the mode of the file it will replace,
    and that resolved path; or, for an existing file that is not a regular
    one (a device, a pipe), that file itself, ``None`` and ``None``."""
    try:
        fd = os.open(path, os.O_WRONLY)  # an existing target, checked as open() checks it
    except FileNotFoundError:
        mode = None  # 0o666 less the umask, as open() creates a file
    else:
        info = os.fstat(fd)
        if not stat.S_ISREG(info.st_mode):
            return open(fd, "wb"), None, None
        os.close(fd)
        mode = stat.S_IMODE(info.st_mode)
    target = os.path.realpath(path)
    folder, name = os.path.split(target)
    temp = os.path.join(folder, f".{name}.{os.urandom(4).hex()}.tmp")
    try:
        fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:  # named as open(path, "wb") names it
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    if mode is not None:
        os.chmod(fd, mode)
    return open(fd, "wb"), temp, target


def _wav_header(size: int, rate: int, dtype: np.dtype, context: str) -> bytes:
    """The header of a mono WAV file of ``size`` ``dtype`` samples, laid out
    as ``scipy.io.wavfile.write`` lays it out: a float file's ``fmt `` chunk
    carries a zero ``cbSize`` and is followed by a ``fact`` chunk.  A file
    past the 4 GiB a RIFF size field can declare is a ``DataError``."""
    tag = 3 if dtype.kind == "f" else 1
    width = dtype.itemsize
    fmt = _FMT.pack(tag, 1, rate, rate * width, width, 8 * width)
    fact = b""
    if tag == 3:
        fmt += b"\x00\x00"
        fact = struct.pack("<4sII", b"fact", 4, size)
    riff_size = 20 + len(fmt) + len(fact) + size * width  # "WAVE", two chunk heads
    if riff_size > 0xFFFFFFFF:  # RF64 is not written
        raise DataError(f"{context}{size} samples make a {riff_size + 8}-byte "
                        "file, past the 4 GiB a RIFF header can declare")
    return (_CHUNK.pack(b"RIFF", riff_size) + b"WAVE" + _CHUNK.pack(b"fmt ", len(fmt))
            + fmt + fact + _CHUNK.pack(b"data", size * width))


def write_wav(path, buf: AudioBuffer, fmt: str = "pcm16") -> int:
    """Write a mono WAV file; returns the number of saturated samples.

    ``pcm16`` scales by 32768, rounds half away from zero, and saturates to
    ``[-32768, 32767]`` (so +1.0 lands on 32767 and -1.0 on -32768 exactly).
    ``float32`` writes IEEE floats untouched.  The bytes are those
    ``scipy.io.wavfile.write`` gives for the same samples, little-endian.
    ``buf.samples`` may be a :class:`BlockEncoder` for ``path`` at
    ``buf.sample_rate_hz`` in ``fmt``, which is published as it is; other
    samples are fed to one ``PCM16_CHUNK`` at a time.  The file appears at
    ``path`` whole, by a rename, so ``path`` may be the file the samples were
    read from; a symlink at ``path`` is kept and its target replaced.

    Raises
    ------
    ConfigError
        An unknown ``fmt``, before any sample is read, or an encoder for
        another format, path or rate.
    DataError
        A non-finite sample, or for ``float32`` a finite one beyond the
        float32 range, the message naming the first one; or a file past the
        4 GiB a RIFF header can declare.  Nothing is left at ``path`` or
        beside it, and a file already there is not changed.
    """
    encoder = buf.samples
    if not isinstance(encoder, BlockEncoder):
        samples = np.ravel(encoder)
        with BlockEncoder(path, samples.size, buf.sample_rate_hz, fmt) as encoder:
            for start in range(0, samples.size, PCM16_CHUNK):
                encoder[start : start + PCM16_CHUNK] = samples[start : start + PCM16_CHUNK]
            return encoder.publish()
    if encoder.fmt != fmt:
        raise ConfigError(f"samples encoded as {encoder.fmt}, not {fmt}")
    if (os.fspath(encoder.path), encoder.rate) != (os.fspath(path), buf.sample_rate_hz):
        raise ConfigError(f"samples encoded for {encoder.path} at {encoder.rate} Hz, "
                          f"not {path} at {buf.sample_rate_hz} Hz")
    return encoder.publish()


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
