"""FBEG gain-stream files.

Binary container for per-frame complex responses, the integration point for
externally computed front-ends, and for the analysis frames such a front-end
reads.  Little-endian layout, bit-exact, no padding:

=======  ====  =====================================================
offset   size  field
=======  ====  =====================================================
0        4     magic ``b"FBEG"``
4        2     u16 version (= 1)
6        1     u8 record type: 0 = subband gains, 1 = DFT responses,
               2 = analysis frames
7        1     u8 reserved (= 0)
8        4     u32 analysis frame size M
12       4     u32 hop r
16       4     u32 bins per record (types 0 and 2: M/2+1; type 1: D)
20       4     u32 frame count
24       ...   frames x bins x (f32 real, f32 imag)
=======  ====  =====================================================

The one reader, :func:`open_gain_stream`, checks the header with the payload
size it implies, then decodes records a block at a time, each checked where
it lies in the file.  :func:`load_gain_stream` reads every record in one
call; :func:`fbeq.equalizer.process_stream` reads a block at a time.
"""

from __future__ import annotations

import os
import stat
import struct
import sys
import warnings
from contextlib import contextmanager
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DataError, FormatError

MAGIC = b"FBEG"
VERSION = 1
TYPE_SUBBAND_GAINS = 0
TYPE_DFT_RESPONSES = 1
TYPE_ANALYSIS_FRAMES = 2
# The types whose records are the frame size's half spectrum.
_HALF_SPECTRUM_TYPES = (TYPE_SUBBAND_GAINS, TYPE_ANALYSIS_FRAMES)

_HEADER = struct.Struct("<4sHBBIIII")
ALIAS_TAIL_TOLERANCE = 1e-4


class StreamHeader(NamedTuple):
    """Decoded FBEG header."""

    record_type: int
    frame_size: int
    hop: int
    num_bins: int
    num_frames: int


def write_gain_stream(path, frames, record_type: int, frame_size: int,
                      hop: int) -> None:
    """Serialize a ``K x bins`` complex frame matrix to an FBEG file.

    Values are stored as IEEE-754 32-bit (real, imag) pairs; pass
    ``complex64`` data for a bit-exact round-trip.  Before the file is
    opened, a 3-D or deeper array or a value that is NaN, infinite or past
    the float32 range raises :class:`DataError` naming its shape or place,
    and a bad record type, bin count, frame size or hop :class:`ConfigError`.
    """
    with np.errstate(over="ignore"):  # an overflowing value is reported below
        frames = np.atleast_2d(np.asarray(frames, dtype=np.complex64))
    if frames.ndim != 2:
        raise DataError(f"expected a 2-D frame matrix, got shape {frames.shape}")
    num_frames, num_bins = frames.shape
    if record_type not in (*_HALF_SPECTRUM_TYPES, TYPE_DFT_RESPONSES):
        raise ConfigError(f"unknown record type {record_type}")
    if record_type in _HALF_SPECTRUM_TYPES and num_bins != frame_size // 2 + 1:
        raise ConfigError(
            f"type-{record_type} records need {frame_size // 2 + 1} bins for "
            f"frame size {frame_size}, got {num_bins}"
        )
    if num_bins < 2:
        raise ConfigError(f"records need at least 2 bins, got {num_bins}")
    if not np.isfinite(frames).all():
        frame, bin_ = np.argwhere(~np.isfinite(frames))[0]
        raise DataError(f"value in frame {frame}, bin {bin_} is NaN, infinite "
                        "or beyond the float32 range")
    try:
        header = _HEADER.pack(MAGIC, VERSION, record_type, 0, frame_size, hop,
                              num_bins, num_frames)
    except struct.error as exc:
        raise ConfigError(f"frame size {frame_size} or hop {hop} does not fit "
                          f"the header's u32 fields: {exc}") from exc
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(frames, dtype="<c8"))


def _check_alias_tail(frames: np.ndarray, hop: int, first: int) -> bool:
    """Warn if a DFT-response record implies time taps that would alias.

    The overlap-save engine keeps the last ``hop`` samples of a ``2P``-point
    circular convolution; those are linear-convolution samples only if the
    implied time filter is supported on taps ``0 .. 2P - hop``.  Energy
    beyond that, above ``ALIAS_TAIL_TOLERANCE`` relative, triggers a warning
    naming the first such frame counted from ``first``, filed under the first
    caller outside fbeq and ``contextlib``.  Returns whether it warned.
    """
    fft_size = 2 * (frames.shape[1] - 1)
    taps = np.fft.irfft(frames, n=fft_size, axis=1)
    total = np.sum(taps * taps, axis=1)
    tail = np.sum(taps[:, fft_size - hop + 1 :] ** 2, axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        bad = np.flatnonzero(tail > ALIAS_TAIL_TOLERANCE * total)
    if bad.size:
        level, caller = 1, sys._getframe()
        while caller and caller.f_globals.get("__name__", "").partition(".")[0] \
                in ("fbeq", "contextlib"):
            level, caller = level + 1, caller.f_back
        warnings.warn(
            f"DFT-response stream implies time-aliasing: frame {first + bad[0]} "
            f"has relative tail energy {tail[bad[0]] / total[bad[0]]:.3e} beyond "
            f"tap {fft_size - hop} (tolerance {ALIAS_TAIL_TOLERANCE:.0e})",
            stacklevel=level,
        )
    return bool(bad.size)


def _read_header(fh) -> StreamHeader:
    """Read and check the header of the FBEG file open as ``fh``, and the
    payload size it declares against the file's size."""
    data = fh.read(_HEADER.size)
    if len(data) < _HEADER.size:
        raise FormatError(
            f"truncated header: {len(data)} bytes, need {_HEADER.size} "
            "(offset 0)"
        )
    magic, version, record_type, _reserved, frame_size, hop, num_bins, \
        num_frames = _HEADER.unpack(data)
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r} at offset 0, expected {MAGIC!r}")
    if version != VERSION:
        raise FormatError(
            f"unsupported version {version} at offset 4, expected {VERSION}"
        )
    if record_type not in (*_HALF_SPECTRUM_TYPES, TYPE_DFT_RESPONSES):
        raise FormatError(f"unknown record type {record_type} at offset 6")
    if num_bins < 2:
        raise FormatError(f"bin count {num_bins} at offset 16 must be >= 2")
    if record_type in _HALF_SPECTRUM_TYPES and num_bins != frame_size // 2 + 1:
        raise FormatError(
            f"bin count {num_bins} at offset 16 does not match frame size "
            f"{frame_size} (expected {frame_size // 2 + 1})"
        )
    info = os.fstat(fh.fileno())
    if not stat.S_ISREG(info.st_mode):
        raise FormatError(f"{fh.name} is not a regular file, so its payload "
                          "size cannot be checked")
    expected = num_frames * num_bins * 8
    payload_size = info.st_size - _HEADER.size
    if payload_size != expected:
        raise FormatError(
            f"payload is {payload_size} bytes at offset {_HEADER.size}, "
            f"expected {expected} ({num_frames} frames x {num_bins} bins)"
        )
    return StreamHeader(record_type, frame_size, hop, num_bins, num_frames)


def _read_records(fh, header: StreamHeader, first: int, count: int) -> np.ndarray:
    """Decode records ``first .. first + count - 1`` of the file open as ``fh``."""
    record_size = 8 * header.num_bins
    offset = _HEADER.size + first * record_size
    fh.seek(offset)
    data = fh.read(count * record_size)
    if len(data) != count * record_size:
        raise FormatError(
            f"payload ends at offset {offset + len(data)}, inside frame "
            f"{first + len(data) // record_size} of {header.num_frames}"
        )
    stored = np.frombuffer(data, dtype="<c8")
    parts = stored.view("<f4")  # real, imag, real, ... as laid out in the file
    if not np.isfinite(parts).all():
        bad = int(np.argmin(np.isfinite(parts)))
        frame, rem = divmod(bad, 2 * header.num_bins)
        raise FormatError(
            f"non-finite value in frame {first + frame}, bin {rem // 2} "
            f"({'imag' if rem % 2 else 'real'} part) at offset "
            f"{offset + 4 * bad}"
        )
    return stored.astype(np.complex128).reshape(count, header.num_bins)


@contextmanager
def open_gain_stream(path):
    """Open an FBEG file; yield its checked header and ``read(frames)``.

    ``read`` decodes the records in the slice ``frames`` as
    :func:`load_gain_stream` documents and, for type B, warns once per file
    about the first record that would alias, filed under the first caller
    outside fbeq.  Records the caller does not read are not checked.
    """
    with open(path, "rb") as fh:
        header = _read_header(fh)
        warned = False

        def read(frames: slice) -> np.ndarray:
            nonlocal warned
            rows = _read_records(fh, header, frames.start, frames.stop - frames.start)
            if header.record_type == TYPE_DFT_RESPONSES and not warned:
                warned = _check_alias_tail(rows, header.hop, frames.start)
            return rows

        yield header, read


def load_gain_stream(path) -> tuple[StreamHeader, np.ndarray]:
    """Read a whole FBEG file in one call to :func:`open_gain_stream`'s reader.

    Returns
    -------
    (StreamHeader, numpy.ndarray)
        Header plus a ``num_frames x num_bins`` complex128 matrix: the exact
        widening of the stored 32-bit values, bit for bit (signed zeros and
        subnormals included).

    Raises
    ------
    FormatError
        Bad magic, version, record type, inconsistent bin count, a
        truncated/oversized payload, a file that is not a regular file, or a
        non-finite payload value — with the offending byte offset (and, for
        a payload value, its frame and bin).
    """
    with open_gain_stream(path) as (header, read):
        return header, read(slice(0, header.num_frames))

