import errno
import os
import re
import stat
import struct
import threading
import warnings

import numpy as np
import pytest
from scipy.io import wavfile

from fbeq import audio_io
from fbeq.audio_io import AudioBuffer, BlockEncoder, mix_at_snr, read_wav, write_wav
from fbeq.cli import main
from fbeq.errors import ConfigError, DataError, FormatError


class TestWavRoundTrip:
    def test_float32_is_lossless(self, tmp_path):
        rng = np.random.default_rng(0)
        samples = (0.8 * rng.standard_normal(2000)).astype(np.float32)
        path = tmp_path / "f.wav"
        clipped = write_wav(path, AudioBuffer(samples.astype(np.float64), 16000),
                            fmt="float32")
        assert clipped == 0
        back = read_wav(path)
        assert back.sample_rate_hz == 16000
        assert back.samples.dtype == np.float32
        np.testing.assert_array_equal(back.samples,
                                      samples.astype(np.float64))

    def test_pcm16_round_trip_error_bounded(self, tmp_path):
        rng = np.random.default_rng(1)
        samples = rng.uniform(-0.9, 0.9, 2000)
        path = tmp_path / "p.wav"
        assert write_wav(path, AudioBuffer(samples, 16000)) == 0
        back = read_wav(path)
        # quantization step is 1/32768; rounding error at most half a step
        assert np.max(np.abs(back.samples - samples)) <= 0.5 / 32768.0

    def test_pcm16_values_survive_exactly(self, tmp_path):
        # multiples of the quantization step must come back bit-exact
        samples = np.array([0.0, 1.0 / 32768.0, -5.0 / 32768.0, 0.25, -0.5])
        path = tmp_path / "q.wav"
        write_wav(path, AudioBuffer(samples, 8000))
        back = read_wav(path)
        np.testing.assert_array_equal(back.samples, samples)
        assert back.sample_rate_hz == 8000

    def test_expected_rate_accepted(self, tmp_path):
        path = tmp_path / "r.wav"
        write_wav(path, AudioBuffer(np.zeros(100), 16000))
        assert read_wav(path, expected_rate=16000).sample_rate_hz == 16000


class TestPcm16Rounding:
    def test_rounds_half_away_from_zero(self, tmp_path):
        # 0.5/32768 scales to 0.5 exactly -> away from zero
        samples = np.array([0.5, -0.5, 1.5, -1.5, 2.4, -2.4]) / 32768.0
        path = tmp_path / "h.wav"
        write_wav(path, AudioBuffer(samples, 16000))
        _, raw = wavfile.read(path)
        np.testing.assert_array_equal(raw, np.array([1, -1, 2, -2, 2, -2],
                                                    dtype=np.int16))

    def test_saturation_is_asymmetric(self, tmp_path):
        # +1.0 overflows to 32768 and is saturated; -1.0 is representable
        samples = np.array([1.0, -1.0, 2.0, -2.0, 0.999969482421875])
        path = tmp_path / "s.wav"
        clipped = write_wav(path, AudioBuffer(samples, 16000))
        assert clipped == 3  # +1.0, +2.0, -2.0; -1.0 is representable
        _, raw = wavfile.read(path)
        np.testing.assert_array_equal(
            raw, np.array([32767, -32768, 32767, -32768, 32767],
                          dtype=np.int16)
        )

    def test_clip_count(self, tmp_path):
        samples = np.array([2.0, -2.0, 0.5, 1.0, -1.0])
        path = tmp_path / "c.wav"
        # 2.0 -> 65536 clips, -2.0 -> -65536 clips, 1.0 -> 32768 clips,
        # -1.0 -> -32768 is exactly representable
        assert write_wav(path, AudioBuffer(samples, 16000)) == 3


class TestReadContract:
    """``read_wav`` returns float32 samples whose float64 widening is the file's
    exact value, bit for bit: ``code / 32768`` for PCM16, the stored float for
    float32."""

    def test_pcm16_codes(self, tmp_path):
        codes = np.array([-32768, -32767, -1, 0, 1, 12345, 32767], dtype=np.int16)
        path = tmp_path / "p.wav"
        wavfile.write(path, 16000, codes)
        samples = read_wav(path).samples
        assert samples.dtype == np.float32
        want = codes.astype(np.float64) / 32768.0
        assert samples.astype(np.float64).tobytes() == want.tobytes()

    def test_float32_values(self, tmp_path):
        info = np.finfo(np.float32)
        values = np.array([-0.0, 0.0, info.smallest_subnormal, -info.smallest_subnormal,
                           info.smallest_normal * (1 - info.eps), info.smallest_normal,
                           info.max, -info.max, 1.0, -1.0], dtype=np.float32)
        path = tmp_path / "f.wav"
        wavfile.write(path, 16000, values)
        samples = read_wav(path).samples
        assert samples.dtype == np.float32
        assert samples.tobytes() == values.tobytes()
        assert (samples.astype(np.float64).tobytes()
                == values.astype(np.float64).tobytes())


KSDATAFORMAT_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"


def extensible_wav(path, data, tag, guid_tail=KSDATAFORMAT_TAIL):
    """Write mono ``data`` as a ``WAVE_FORMAT_EXTENSIBLE`` file whose subformat
    GUID starts with ``tag``, with a ``fact`` chunk as float files carry."""
    size = data.itemsize
    fmt = struct.pack("<HHIIHHHHI", 0xFFFE, 1, 16000, 16000 * size, size, 8 * size,
                      22, 8 * size, 4) + struct.pack("<I", tag) + guid_tail
    chunks = (b"fmt " + struct.pack("<I", len(fmt)) + fmt
              + b"fact" + struct.pack("<II", 4, data.size)
              + b"data" + struct.pack("<I", data.nbytes) + data.tobytes())
    path.write_bytes(b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks)


class TestExtensibleFormat:
    """``WAVE_FORMAT_EXTENSIBLE`` files read as their subformat, as scipy reads
    them; an unknown subformat GUID is an unsupported format."""

    @pytest.mark.parametrize("dtype, tag", [(np.int16, 1), (np.float32, 3)])
    def test_reads_as_subformat(self, tmp_path, dtype, tag):
        data = (np.arange(-50, 50) * 300).astype(dtype)
        path = tmp_path / "x.wav"
        extensible_wav(path, data, tag)
        want = wavfile.read(path)[1]
        assert want.dtype == dtype
        got = read_wav(path, expected_rate=16000).samples
        scale = 1.0 / 32768.0 if dtype == np.int16 else 1.0
        assert got.tobytes() == (want.astype(np.float32) * np.float32(scale)).tobytes()

    def test_unknown_subformat_rejected(self, tmp_path):
        path = tmp_path / "x.wav"
        extensible_wav(path, np.zeros(10, dtype=np.int16), 1, guid_tail=bytes(12))
        with pytest.raises(DataError, match="format tag 65534 at byte 20"):
            read_wav(path)


def pcm16_oracle(samples):
    """Single-pass PCM16 encoding: the int16 codes and the saturated count."""
    samples = np.asarray(samples, dtype=np.float64)
    with np.errstate(over="ignore"):
        rounded = np.copysign(np.floor(np.abs(samples * 32768.0) + 0.5), samples)
    saturated = int(np.count_nonzero((rounded > 32767.0) | (rounded < -32768.0)))
    return np.clip(rounded, -32768.0, 32767.0).astype(np.int16), saturated


class TestPcm16Chunks:
    """PCM16 is encoded ``PCM16_CHUNK`` samples at a time, with the bytes, the
    saturated count and the error of one pass over the whole signal."""

    @staticmethod
    def signal(chunk):
        rng = np.random.default_rng(11)
        x = rng.uniform(-1.1, 1.1, 2 * chunk + 7)
        for edge in (chunk, 2 * chunk):  # saturate and round halves on both sides
            x[edge - 2 : edge + 2] = [1.0, -1.5, 2.5 / 32768.0, -2.0]
        return x

    @pytest.mark.parametrize("chunk", [None, 5], ids=["module-chunk", "chunk-5"])
    def test_matches_single_pass(self, tmp_path, monkeypatch, chunk):
        if chunk is not None:
            monkeypatch.setattr(audio_io, "PCM16_CHUNK", chunk)
        x = self.signal(audio_io.PCM16_CHUNK)
        codes, saturated = pcm16_oracle(x)
        assert saturated >= 6
        path, want = tmp_path / "chunked.wav", tmp_path / "oracle.wav"
        assert write_wav(path, AudioBuffer(x, 16000)) == saturated
        wavfile.write(want, 16000, codes)
        assert path.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("chunk", [None, 5], ids=["module-chunk", "chunk-5"])
    def test_non_finite_named_by_signal_index(self, tmp_path, monkeypatch, chunk):
        if chunk is not None:
            monkeypatch.setattr(audio_io, "PCM16_CHUNK", chunk)
        x = self.signal(audio_io.PCM16_CHUNK)
        bad = audio_io.PCM16_CHUNK + 3
        x[bad], x[bad + 1] = np.inf, np.nan
        path = tmp_path / "x.wav"
        message = f"refusing to write {path}: sample {bad} is non-finite (inf)"
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            write_wav(path, AudioBuffer(x, 16000))
        assert not path.exists()


class TestBlockEncoder:
    """Blocks encoded as they come give the bytes, the saturated count and the
    errors of ``write_wav`` over the whole signal."""

    BLOCK = 5

    @classmethod
    def signal(cls):
        x = np.random.default_rng(13).uniform(-1.1, 1.1, 4 * cls.BLOCK + 3)
        for edge in range(cls.BLOCK, x.size - 1, cls.BLOCK):
            # saturated samples and exact half-steps of both formats on each edge
            x[edge - 2 : edge + 2] = [1.0 + 2.0**-24, -1.5, 2.5 / 32768.0, -2.0]
        return x

    @classmethod
    def encoded(cls, path, x, fmt):
        encoder = BlockEncoder(path, x.size, 16000, fmt)
        for start in range(0, x.size, cls.BLOCK):
            encoder[start : start + cls.BLOCK] = x[start : start + cls.BLOCK]
        return encoder

    @pytest.mark.parametrize("fmt", ["pcm16", "float32"])
    def test_matches_whole_signal(self, tmp_path, fmt):
        x = self.signal()
        blocks, whole = tmp_path / "blocks.wav", tmp_path / "whole.wav"
        clipped = write_wav(blocks, AudioBuffer(self.encoded(blocks, x, fmt), 16000),
                            fmt=fmt)
        assert clipped == write_wav(whole, AudioBuffer(x, 16000), fmt=fmt)
        assert clipped == (pcm16_oracle(x)[1] if fmt == "pcm16" else 0)
        assert fmt == "float32" or clipped >= 8
        assert blocks.read_bytes() == whole.read_bytes()

    @pytest.mark.parametrize("fmt, bad, message", [
        ("pcm16", {13: np.inf, 17: np.nan}, "sample 13 is non-finite (inf)"),
        ("float32", {7: 1e39, 17: np.nan}, "sample 17 is non-finite (nan)"),
        ("float32", {7: 1e39, 13: -1e39}, "sample 7 (1e+39) is beyond the float32 range"),
    ])
    def test_errors_name_the_signal_index(self, tmp_path, fmt, bad, message):
        """A non-finite sample is reported before an earlier one beyond the
        float32 range, as the whole-signal checks report them."""
        x = self.signal()
        for index, value in bad.items():
            x[index] = value
        path = tmp_path / "x.wav"
        want = f"^{re.escape(f'refusing to write {path}: {message}')}$"
        for samples in (self.encoded(path, x, fmt), x):
            with pytest.raises(DataError, match=want):
                write_wav(path, AudioBuffer(samples, 16000), fmt=fmt)
        assert list(tmp_path.iterdir()) == []  # no file, no temporary beside it

    # The largest float64 samples that round to the PCM16 extremes, and the
    # smallest past them: 32767.5 / 32768 and -32768.5 / 32768 saturate.
    EDGES = [32767.5 / 32768.0, np.nextafter(32767.5 / 32768.0, 0.0),
             -32768.5 / 32768.0, np.nextafter(-32768.5 / 32768.0, 0.0)]

    @pytest.mark.parametrize("past", [[1.2, 2.5, 1e308], [-1.3, -7.0, -1e308],
                                      [1.2, -1.3, 3.0, -1e300]],
                             ids=["above", "below", "both"])
    def test_saturating_block_bytes(self, tmp_path, past):
        """A block with samples past either extreme, one past the overflow of
        ``32768 x`` included, saturates them and counts them as one pass over
        the whole signal does, with no warning."""
        x = np.concatenate([0.3 * np.random.default_rng(17).uniform(-1, 1, 40),
                            self.EDGES, past])
        codes, saturated = pcm16_oracle(x)
        path, want = tmp_path / "x.wav", tmp_path / "want.wav"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            encoder = BlockEncoder(path, x.size, 16000)
            encoder[0 : x.size] = x
            assert encoder.clipped == saturated == 2 + len(past)
            assert write_wav(path, AudioBuffer(encoder, 16000)) == saturated
        wavfile.write(want, 16000, codes)
        assert path.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("fmt", ["pcm16", "float32"])
    def test_non_finite_block_stops_the_count(self, tmp_path, fmt, value):
        """A non-finite sample in a saturating block is the error, and no
        later block is counted or written."""
        path = tmp_path / "x.wav"
        encoder = BlockEncoder(path, 12, 16000, fmt)
        encoder[0:4] = [0.5, 1.5, -1.5, 0.0]
        encoder[4:8] = [2.0, value, 1e39, -2.0]
        encoder[8:12] = [1.5, 1.5, 0.1, 0.1]
        assert encoder.clipped == (2 if fmt == "pcm16" else 0)
        message = f"refusing to write {path}: sample 5 is non-finite ({value})"
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            write_wav(path, AudioBuffer(encoder, 16000), fmt=fmt)
        assert encoder.clipped == (2 if fmt == "pcm16" else 0)
        assert list(tmp_path.iterdir()) == []

    def test_float32_rounds_to_its_range_within_half_an_ulp(self, tmp_path):
        """A sample past the float32 maximum by less than half its ulp rounds
        down to it and is written; one half an ulp past it rounds to infinity
        (ties to even, and the maximum is odd) and is beyond the range."""
        top = float(np.finfo(np.float32).max)
        near = [top + 2.0**102, -(top + 2.0**102), top, 0.25]
        path, want = tmp_path / "x.wav", tmp_path / "want.wav"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert write_wav(path, AudioBuffer(np.array(near), 16000), "float32") == 0
        wavfile.write(want, 16000, np.array([top, -top, top, 0.25], np.float32))
        assert path.read_bytes() == want.read_bytes()
        message = (f"refusing to write {path}: sample 1 ({top + 2.0**103!r}) is "
                   "beyond the float32 range")
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            write_wav(path, AudioBuffer(np.array([top, top + 2.0**103]), 16000),
                      "float32")
        assert path.read_bytes() == want.read_bytes()  # the file there is kept

    def test_rejects_an_encoder_of_another_format(self, tmp_path):
        with BlockEncoder(tmp_path / "x.wav", 4, 16000, "float32") as encoder:
            encoder[0:4] = np.zeros(4)
            with pytest.raises(ConfigError,
                               match="^samples encoded as float32, not pcm16$"):
                write_wav(tmp_path / "x.wav", AudioBuffer(encoder, 16000))
        assert list(tmp_path.iterdir()) == []


class TestWavReader:
    """``read_wav(path, stream=True)`` reads the header alone and returns a
    reader whose slices are the whole read's, checked as they are read."""

    FILES = {
        "pcm16": lambda path, x: wavfile.write(path, 16000, (x * 30000).astype(np.int16)),
        "float32": lambda path, x: write_wav(path, AudioBuffer(x, 16000), fmt="float32"),
        "extensible": lambda path, x: extensible_wav(path, x.astype(np.float32), 3),
    }

    @pytest.mark.parametrize("kind", FILES)
    def test_array_read_is_the_whole_range_read(self, tmp_path, kind):
        path = tmp_path / "x.wav"
        self.FILES[kind](path, np.random.default_rng(17).uniform(-1, 1, 1001))
        whole = read_wav(path).samples
        assert whole.dtype == np.float32 and whole.flags.writeable
        with read_wav(path, expected_rate=16000, stream=True).samples as reader:
            assert len(reader) == whole.size == 1001
            assert reader[:].tobytes() == whole.tobytes()
            blocks = [reader[start : start + 300] for start in range(0, 1001, 300)]
            assert np.concatenate(blocks).tobytes() == whole.tobytes()
            assert reader[990:2000].tobytes() == whole[990:].tobytes()  # out of order
            assert reader[5:5].size == 0

    @pytest.mark.parametrize("kind", ["pcm16", "float32"])
    def test_data_that_ends_early_names_the_byte(self, tmp_path, kind):
        """A file cut short after its header and first block were read."""
        path = tmp_path / "x.wav"
        self.FILES[kind](path, np.zeros(100_000))
        data = path.read_bytes().index(b"data") + 8
        end = data + 40_000 * (2 if kind == "pcm16" else 4) + 1
        with read_wav(path, stream=True).samples as reader:
            assert reader[0:100].size == 100
            os.truncate(path, end)
            message = (f"{path}: not a readable WAV file (data runs out at byte "
                       f"{end}, short of the 100000 samples its chunk declares)")
            with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
                reader[100:50_000]

    def test_non_finite_named_by_its_index_in_the_signal(self, tmp_path):
        x = np.zeros(1000)
        x[700], x[800] = np.inf, np.nan
        path = tmp_path / "x.wav"
        wavfile.write(path, 16000, x.astype(np.float32))
        with read_wav(path, stream=True).samples as reader:
            assert not reader[0:700].any()
            with pytest.raises(DataError, match=re.escape(
                    f"{path}: sample 700 is non-finite (inf)")):
                reader[600:900]
        with pytest.raises(DataError, match=re.escape(
                f"{path}: sample 700 is non-finite (inf)")):
            read_wav(path)

    def test_rejects_a_strided_slice(self, tmp_path):
        path = tmp_path / "x.wav"
        write_wav(path, AudioBuffer(np.zeros(10), 16000))
        with read_wav(path, stream=True).samples as reader:
            with pytest.raises(ConfigError, match="contiguous"):
                reader[::2]


class TestEncoderFile:
    """The encoder's file appears at the path only when published, whole."""

    def test_blocks_out_of_order_or_missing_are_refused(self, tmp_path):
        with BlockEncoder(tmp_path / "x.wav", 10, 16000) as encoder:
            with pytest.raises(ConfigError, match="samples 0 on"):
                encoder[5:10] = np.zeros(5)
            encoder[0:5] = np.zeros(5)
            with pytest.raises(ConfigError, match="samples 5 on"):
                encoder[5:10] = np.zeros(4)
            with pytest.raises(ConfigError, match="^encoder holds 5 of its 10 samples$"):
                write_wav(tmp_path / "x.wav", AudioBuffer(encoder, 16000))
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("other", [{"path": "y.wav"}, {"rate": 8000}])
    def test_rejects_an_encoder_for_another_path_or_rate(self, tmp_path, other):
        path, rate = tmp_path / other.get("path", "x.wav"), other.get("rate", 16000)
        with BlockEncoder(tmp_path / "x.wav", 0, 16000) as encoder:
            with pytest.raises(ConfigError, match="^samples encoded for "):
                write_wav(path, AudioBuffer(encoder, rate))
        assert list(tmp_path.iterdir()) == []

    def test_a_failed_header_write_leaves_no_file(self, tmp_path, monkeypatch):
        opened = []

        class Full:
            """A file on a full disk: every write fails."""

            def __init__(self, fh):
                self.fh = fh

            def write(self, data):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

            def close(self):
                self.fh.close()

        def open_full(path, real=audio_io._open_output):
            fh, temp, target = real(path)
            opened.append((fh, temp))
            return Full(fh), temp, target

        monkeypatch.setattr(audio_io, "_open_output", open_full)
        with pytest.raises(OSError, match=os.strerror(errno.ENOSPC)):
            BlockEncoder(tmp_path / "x.wav", 10, 16000)
        [(fh, temp)] = opened
        assert fh.closed
        assert os.path.basename(temp).startswith(".x.wav.")
        assert list(tmp_path.iterdir()) == []

    def test_replaces_a_file_keeping_its_mode_and_a_symlink(self, tmp_path):
        x = np.linspace(-1, 1, 100)
        want = tmp_path / "want.wav"
        write_wav(want, AudioBuffer(x, 16000))
        target, link = tmp_path / "target.wav", tmp_path / "link.wav"
        target.write_bytes(b"old")
        target.chmod(0o640)
        link.symlink_to(target)
        write_wav(link, AudioBuffer(x, 16000))
        assert link.is_symlink() and link.resolve() == target
        assert target.read_bytes() == want.read_bytes()
        assert target.stat().st_mode & 0o777 == 0o640
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "link.wav", "target.wav", "want.wav"]

    def test_a_pipe_is_written_in_place(self, tmp_path):
        x = np.linspace(-1, 1, 5000)
        want = tmp_path / "want.wav"
        write_wav(want, AudioBuffer(x, 16000))
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        got = []
        reader = threading.Thread(target=lambda: got.append(pipe.read_bytes()))
        reader.start()
        write_wav(pipe, AudioBuffer(x, 16000))
        reader.join(timeout=10)
        assert got == [want.read_bytes()]
        assert stat.S_ISFIFO(pipe.lstat().st_mode)


def wav_with_data(path, tag, itemsize, data: bytes):
    """A plain mono WAV whose ``data`` chunk holds ``data`` as it is, padded
    to an even size as RIFF requires."""
    fmt = struct.pack("<HHIIHH", tag, 1, 16000, 16000 * itemsize, itemsize,
                      8 * itemsize)
    chunks = (b"fmt " + struct.pack("<I", len(fmt)) + fmt + b"data"
              + struct.pack("<I", len(data)) + data + b"\0" * (len(data) % 2))
    path.write_bytes(b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks)


class TestReadValidation:
    @pytest.mark.parametrize("stream", [False, True], ids=["whole", "stream"])
    @pytest.mark.parametrize("dtype, tag, extra",
                             [(np.int16, 1, 1), (np.float32, 3, 1), (np.float32, 3, 3)])
    def test_rejects_partial_trailing_sample(self, tmp_path, dtype, tag, extra, stream):
        size = np.dtype(dtype).itemsize
        data = np.arange(4, dtype=dtype).tobytes() + b"\x01" * extra
        path = tmp_path / "partial.wav"
        wav_with_data(path, tag, size, data)
        message = (f"data chunk size {len(data)} at byte 40 is not a whole number "
                   f"of {size}-byte samples")
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: not a "
                                              f"readable WAV file \\({message}\\)$"):
            read_wav(path, stream=stream)
        wav_with_data(path, tag, size, data[:-extra])  # whole samples still read
        with read_wav(path, stream=True).samples as reader:
            assert reader[:].tobytes() == read_wav(path).samples.tobytes()
            assert len(reader) == 4

    def test_rejects_stereo(self, tmp_path):
        path = tmp_path / "st.wav"
        wavfile.write(path, 16000, np.zeros((100, 2), dtype=np.int16))
        with pytest.raises(DataError, match="2 channels"):
            read_wav(path)

    def test_rejects_rate_mismatch(self, tmp_path):
        path = tmp_path / "rm.wav"
        wavfile.write(path, 44100, np.zeros(100, dtype=np.int16))
        with pytest.raises(DataError, match="does not match"):
            read_wav(path, expected_rate=16000)

    def test_rejects_unsupported_dtype(self, tmp_path):
        path = tmp_path / "d.wav"
        wavfile.write(path, 16000, np.zeros(100, dtype=np.float64))
        with pytest.raises(DataError, match="unsupported sample format"):
            read_wav(path)

    def test_rejects_non_finite(self, tmp_path):
        path = tmp_path / "nf.wav"
        data = np.zeros(100, dtype=np.float32)
        data[3] = np.inf
        data[50] = np.nan
        wavfile.write(path, 16000, data)
        with pytest.raises(DataError, match=r"sample 3 is non-finite \(inf\)"):
            read_wav(path)

    def test_rejects_garbage_file(self, tmp_path):
        path = tmp_path / "g.wav"
        path.write_bytes(b"this is not audio at all, not even close....")
        with pytest.raises(FormatError, match="not a readable WAV"):
            read_wav(path)

    @pytest.mark.parametrize("fmt", ["pcm16", "float32"])
    @pytest.mark.parametrize("cut", [30, 50, -1], ids=["at-30", "at-50", "last-byte"])
    def test_rejects_truncated_file(self, tmp_path, fmt, cut):
        path = tmp_path / "cut.wav"
        write_wav(path, AudioBuffer(np.full(100, 0.1), 16000), fmt=fmt)
        path.write_bytes(path.read_bytes()[:cut])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: not a "
                                                  "readable WAV"):
                read_wav(path)


def scipy_samples(path, rate):
    """``scipy.io.wavfile``'s reading of ``path`` as ``read_wav`` returns it, or
    None when scipy raises, stops short of the size the RIFF header declares,
    or reads no finite mono PCM16 or float32 samples at ``rate``."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            warnings.filterwarnings("error", "Reached EOF prematurely")
            file_rate, data = wavfile.read(path)
    except Exception:
        return None
    if file_rate != rate or data.ndim != 1 or data.dtype not in (np.int16, np.float32):
        return None
    if not np.isfinite(data).all():
        return None
    if data.dtype == np.int16:
        data = data.astype(np.float32) / np.float32(32768.0)
    return data


class TestHeaderSweep:
    """Each of bytes 0-59 of a ``write_wav`` file, set in turn to each of seven
    values: ``read_wav`` either loads the samples that scipy reads (the file's
    own where scipy cannot read it) or raises ``FormatError``/``DataError``,
    and ``fbeq enhance`` on it exits 0 or 3, never with a traceback."""

    @pytest.mark.parametrize("fmt", ["pcm16", "float32"])
    def test_one_byte_edits(self, tmp_path, capsys, fmt):
        path, edited, out = tmp_path / "in.wav", tmp_path / "edit.wav", tmp_path / "o.wav"
        x = 0.5 * np.sin(np.arange(200) / 7.0)
        write_wav(path, AudioBuffer(x, 16000), fmt=fmt)
        original, valid = path.read_bytes(), read_wav(path).samples
        kinds = set()
        for offset in range(60):
            for value in (0, 1, 2, 3, 0x7F, 0x80, 0xFF):
                data = bytearray(original)
                data[offset] = value
                edited.write_bytes(bytes(data))
                try:
                    got = read_wav(edited, expected_rate=16000).samples
                except (FormatError, DataError) as exc:
                    got, kind = None, type(exc).__name__
                else:
                    want = scipy_samples(edited, 16000)
                    want = valid if want is None else want
                    assert got.tobytes() == want.tobytes(), (offset, value)
                    kind = "loaded"
                kinds.add(kind)
                code = main(["enhance", "--in", str(edited), "--out", str(out)])
                err = capsys.readouterr().err
                assert code == (0 if got is not None else 3), (offset, value, err)
                assert "Traceback" not in err
        assert kinds == {"loaded", "FormatError", "DataError"}, kinds


class TestWriteValidation:
    def test_rejects_non_finite(self, tmp_path):
        path = tmp_path / "x.wav"
        message = f"refusing to write {path}: sample 1 is non-finite (nan)"
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            write_wav(path, AudioBuffer(np.array([0.0, np.nan, np.inf]), 16000))

    def test_float32_rejects_samples_past_its_range(self, tmp_path):
        path = tmp_path / "x.wav"
        message = (f"refusing to write {path}: sample 2 (-1e+39) is beyond the "
                   "float32 range")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
                write_wav(path, AudioBuffer(np.array([0.5, 3e38, -1e39, 1e308]),
                                            16000), fmt="float32")
        assert not path.exists()

    def test_pcm16_saturates_extremes_without_warning(self, tmp_path):
        path = tmp_path / "x.wav"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            clipped = write_wav(path, AudioBuffer(np.array([1e308, -1e308, 0.5]),
                                                  16000))
        assert clipped == 2
        assert wavfile.read(path)[1].tolist() == [32767, -32768, 16384]

    def test_rejects_unknown_format(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown WAV format"):
            write_wav(tmp_path / "x.wav", AudioBuffer(np.zeros(4), 16000),
                      fmt="pcm24")

    def test_format_checked_before_samples(self, tmp_path):
        path = tmp_path / "x.wav"
        with pytest.raises(ConfigError, match="^unknown WAV format 'bogus'"):
            write_wav(path, AudioBuffer([0.1, np.nan], 16000), fmt="bogus")
        assert not path.exists()

    def test_rejects_a_file_past_4_gib(self, tmp_path):
        """The size is checked when the encoder is made, before any file is
        opened, so no 4 GiB of samples is needed."""
        path = tmp_path / "x.wav"
        message = (f"refusing to write {path}: 2147483648 samples make a "
                   "4294967340-byte file, past the 4 GiB a RIFF header can declare")
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            BlockEncoder(path, 2**31, 16000, "pcm16")
        assert list(tmp_path.iterdir()) == []


class TestWriteMatchesScipy:
    """``write_wav`` packs the RIFF chunks itself, byte for byte as
    ``scipy.io.wavfile.write`` writes the same samples."""

    @pytest.mark.parametrize("size", [0, 1, 1001])
    @pytest.mark.parametrize("fmt", ["pcm16", "float32"])
    def test_same_bytes(self, tmp_path, fmt, size):
        samples = 0.5 * np.random.default_rng(size).standard_normal(size)
        ours, theirs = tmp_path / "ours.wav", tmp_path / "theirs.wav"
        write_wav(ours, AudioBuffer(samples, 22050), fmt=fmt)
        if fmt == "pcm16":
            values = pcm16_oracle(samples)[0]
        else:
            values = samples.astype(np.float32)
        wavfile.write(theirs, 22050, values)
        assert ours.read_bytes() == theirs.read_bytes()


class TestMixAtSnr:
    def test_zero_db_equalizes_power(self):
        rng = np.random.default_rng(2)
        clean = rng.standard_normal(4000)
        noise = rng.standard_normal(8000)
        mixture, scaled = mix_at_snr(clean, noise, 0.0, seed=0)
        p_clean = np.mean(clean**2)
        p_noise = np.mean(scaled**2)
        assert p_noise == pytest.approx(p_clean, rel=1e-10)
        np.testing.assert_allclose(mixture - scaled, clean, rtol=0, atol=1e-12)

    def test_snr_hits_target(self):
        rng = np.random.default_rng(3)
        clean = rng.standard_normal(4000)
        noise = rng.standard_normal(8000)
        for target in (-5.0, 0.0, 10.0, 30.0):
            _, scaled = mix_at_snr(clean, noise, target, seed=7)
            got = 10.0 * np.log10(np.mean(clean**2) / np.mean(scaled**2))
            assert got == pytest.approx(target, abs=1e-6)

    def test_same_seed_same_mixture(self):
        rng = np.random.default_rng(4)
        clean = rng.standard_normal(2000)
        noise = rng.standard_normal(5000)
        a1, n1 = mix_at_snr(clean, noise, 5.0, seed=42)
        a2, n2 = mix_at_snr(clean, noise, 5.0, seed=42)
        np.testing.assert_array_equal(a1, a2)
        np.testing.assert_array_equal(n1, n2)

    def test_different_seeds_use_different_crops(self):
        rng = np.random.default_rng(5)
        clean = rng.standard_normal(2000)
        noise = rng.standard_normal(50000)
        _, n1 = mix_at_snr(clean, noise, 0.0, seed=1)
        _, n2 = mix_at_snr(clean, noise, 0.0, seed=2)
        assert not np.array_equal(n1, n2)

    def test_crop_offset_is_seeded_draw(self):
        rng = np.random.default_rng(6)
        clean = rng.standard_normal(1000)
        noise = rng.standard_normal(3000)
        _, scaled = mix_at_snr(clean, noise, 0.0, seed=9)
        offset = int(np.random.default_rng(9).integers(0, 2000, endpoint=True))
        crop = noise[offset : offset + 1000]
        gain = np.sqrt(np.mean(clean**2) / np.mean(crop**2))
        np.testing.assert_array_equal(scaled, gain * crop)

    def test_noise_exactly_clean_length(self):
        rng = np.random.default_rng(8)
        clean = rng.standard_normal(500)
        noise = rng.standard_normal(500)
        _, scaled = mix_at_snr(clean, noise, 0.0, seed=0)
        assert scaled.size == 500

    def test_short_noise_rejected(self):
        with pytest.raises(DataError, match="shorter than clean"):
            mix_at_snr(np.ones(100), np.ones(99), 0.0, seed=0)

    def test_zero_power_rejected(self):
        rng = np.random.default_rng(10)
        with pytest.raises(DataError, match="clean signal has zero power"):
            mix_at_snr(np.zeros(100), rng.standard_normal(200), 0.0, seed=0)
        with pytest.raises(DataError, match="noise crop has zero power"):
            mix_at_snr(np.ones(100), np.zeros(100), 0.0, seed=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(DataError, match="seed must be non-negative, got -1"):
            mix_at_snr(np.ones(100), np.ones(200), 0.0, seed=-1)

    @pytest.mark.parametrize("snr_db", [np.nan, np.inf, -np.inf])
    def test_non_finite_snr_rejected(self, snr_db):
        with pytest.raises(DataError, match=f"^snr_db must be finite, got {snr_db}$"):
            mix_at_snr(np.ones(100), np.ones(200), snr_db, seed=0)

    @pytest.mark.parametrize("snr_db", [4000.0, -4000.0])
    def test_snr_past_the_float_range_rejected(self, snr_db):
        """10^(snr_db/10) overflows, or underflows to a zero noise power."""
        with pytest.raises(DataError, match=re.escape(
                f"snr_db {snr_db} gives no finite positive noise scale")):
            mix_at_snr(np.ones(100), np.ones(200), snr_db, seed=0)

    def test_empty_clean_rejected(self):
        with pytest.raises(DataError, match="empty"):
            mix_at_snr(np.array([]), np.ones(100), 0.0, seed=0)
