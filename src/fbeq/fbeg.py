"""FBEG gain-stream files.

Binary container for per-frame complex responses, the integration point for
externally computed front-ends.  Little-endian layout, bit-exact, no padding:

=======  ====  =====================================================
offset   size  field
=======  ====  =====================================================
0        4     magic ``b"FBEG"``
4        2     u16 version (= 1)
6        1     u8 record type: 0 = subband gains, 1 = DFT responses
7        1     u8 reserved (= 0)
8        4     u32 analysis frame size M
12       4     u32 hop r
16       4     u32 bins per record (type 0: M/2+1; type 1: D)
20       4     u32 frame count
24       ...   frames x bins x (f32 real, f32 imag)
=======  ====  =====================================================
"""

from __future__ import annotations

import struct
import warnings
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, FormatError
from .filterbank import FilterbankSpec

MAGIC = b"FBEG"
VERSION = 1
TYPE_SUBBAND_GAINS = 0
TYPE_DFT_RESPONSES = 1

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
    ``complex64`` data for a bit-exact round-trip.
    """
    frames = np.atleast_2d(np.asarray(frames, dtype=np.complex64))
    num_frames, num_bins = frames.shape
    if record_type not in (TYPE_SUBBAND_GAINS, TYPE_DFT_RESPONSES):
        raise ConfigError(f"unknown record type {record_type}")
    if record_type == TYPE_SUBBAND_GAINS and num_bins != frame_size // 2 + 1:
        raise ConfigError(
            f"subband-gain records need {frame_size // 2 + 1} bins for "
            f"frame size {frame_size}, got {num_bins}"
        )
    if num_bins < 2:
        raise ConfigError(f"records need at least 2 bins, got {num_bins}")
    header = _HEADER.pack(
        MAGIC, VERSION, record_type, 0, frame_size, hop, num_bins, num_frames
    )
    interleaved = np.empty((num_frames, num_bins, 2), dtype="<f4")
    interleaved[..., 0] = frames.real
    interleaved[..., 1] = frames.imag
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(interleaved.tobytes())


def _check_alias_tail(frames: np.ndarray, hop: int) -> None:
    """Warn if a DFT-response record implies time taps that would alias.

    The overlap-save engine keeps the last ``hop`` samples of a ``2P``-point
    circular convolution; those are linear-convolution samples only if the
    implied time filter is supported on taps ``0 .. 2P - hop``.  Energy
    beyond that, above ``ALIAS_TAIL_TOLERANCE`` relative, triggers a warning.
    """
    fft_size = 2 * (frames.shape[1] - 1)
    if hop <= 0 or fft_size - hop + 1 >= fft_size:
        return
    taps = np.fft.irfft(frames, n=fft_size, axis=1)
    total = np.sum(taps * taps, axis=1)
    tail = np.sum(taps[:, fft_size - hop + 1 :] ** 2, axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        bad = np.flatnonzero(tail > ALIAS_TAIL_TOLERANCE * total)
    if bad.size:
        warnings.warn(
            f"DFT-response stream implies time-aliasing: frame {bad[0]} has "
            f"relative tail energy {tail[bad[0]] / total[bad[0]]:.3e} beyond "
            f"tap {fft_size - hop} (tolerance {ALIAS_TAIL_TOLERANCE:.0e})",
            stacklevel=3,
        )


def load_gain_stream(path) -> tuple[StreamHeader, np.ndarray]:
    """Read an FBEG file.

    Returns
    -------
    (StreamHeader, numpy.ndarray)
        Header plus a ``num_frames x num_bins`` complex128 matrix (exact
        widening of the stored 32-bit values).

    Raises
    ------
    FormatError
        Bad magic, version, record type, inconsistent bin count, a
        truncated/oversized payload, or a non-finite payload value — with
        the offending byte offset (and, for a payload value, its frame and
        bin).
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < _HEADER.size:
        raise FormatError(
            f"truncated header: {len(data)} bytes, need {_HEADER.size} "
            "(offset 0)"
        )
    magic, version, record_type, _reserved, frame_size, hop, num_bins, \
        num_frames = _HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r} at offset 0, expected {MAGIC!r}")
    if version != VERSION:
        raise FormatError(
            f"unsupported version {version} at offset 4, expected {VERSION}"
        )
    if record_type not in (TYPE_SUBBAND_GAINS, TYPE_DFT_RESPONSES):
        raise FormatError(f"unknown record type {record_type} at offset 6")
    if num_bins < 2:
        raise FormatError(f"bin count {num_bins} at offset 16 must be >= 2")
    if record_type == TYPE_SUBBAND_GAINS and num_bins != frame_size // 2 + 1:
        raise FormatError(
            f"bin count {num_bins} at offset 16 does not match frame size "
            f"{frame_size} (expected {frame_size // 2 + 1})"
        )
    expected = num_frames * num_bins * 8
    payload = data[_HEADER.size :]
    if len(payload) != expected:
        raise FormatError(
            f"payload is {len(payload)} bytes at offset {_HEADER.size}, "
            f"expected {expected} ({num_frames} frames x {num_bins} bins)"
        )
    flat = np.frombuffer(payload, dtype="<f4").reshape(num_frames, num_bins, 2)
    if not np.isfinite(flat).all():
        first = int(np.argmin(np.isfinite(flat).ravel()))
        frame, rem = divmod(first, 2 * num_bins)
        raise FormatError(
            f"non-finite value in frame {frame}, bin {rem // 2} "
            f"({'imag' if rem % 2 else 'real'} part) at offset "
            f"{_HEADER.size + 4 * first}"
        )
    frames = flat[..., 0].astype(np.complex128)
    frames += 1j * flat[..., 1].astype(np.float64)
    header = StreamHeader(record_type, frame_size, hop, num_bins, num_frames)
    if record_type == TYPE_DFT_RESPONSES and num_frames:
        _check_alias_tail(frames, hop)
    return header, frames


def check_stream_geometry(header: StreamHeader, spec: FilterbankSpec,
                          shorten_len: int) -> None:
    """Reject a stream whose geometry does not match the active configuration."""
    if header.frame_size != spec.frame_size or header.hop != spec.hop:
        raise ConfigError(
            f"gain stream was written for frame size {header.frame_size}, "
            f"hop {header.hop}; active configuration is {spec.frame_size}, "
            f"{spec.hop}"
        )
    if header.record_type == TYPE_SUBBAND_GAINS:
        if header.num_bins != spec.num_bins:
            raise ConfigError(
                f"subband-gain stream has {header.num_bins} bins, "
                f"configuration expects {spec.num_bins}"
            )
    else:
        if header.num_bins != shorten_len + 1:
            raise ConfigError(
                f"DFT-response stream has {header.num_bins} bins, "
                f"configuration expects {shorten_len + 1}"
            )
