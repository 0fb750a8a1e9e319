import struct
import warnings

import numpy as np
import pytest

from fbeq.errors import ConfigError, FormatError
from fbeq.fbeg import (
    ALIAS_TAIL_TOLERANCE,
    MAGIC,
    TYPE_DFT_RESPONSES,
    TYPE_SUBBAND_GAINS,
    StreamHeader,
    check_stream_geometry,
    load_gain_stream,
    write_gain_stream,
)
from fbeq.filterbank import FilterbankSpec


def random_gains(rng, num_frames, num_bins):
    values = rng.standard_normal((num_frames, num_bins)) + 1j * rng.standard_normal(
        (num_frames, num_bins)
    )
    return values.astype(np.complex64)


class TestRoundTrip:
    def test_type_a_bit_identical(self, tmp_path):
        rng = np.random.default_rng(3)
        frames = random_gains(rng, 17, 9)
        path = tmp_path / "gains.fbeg"
        write_gain_stream(path, frames, TYPE_SUBBAND_GAINS, 16, 4)
        header, loaded = load_gain_stream(path)
        assert header == StreamHeader(TYPE_SUBBAND_GAINS, 16, 4, 9, 17)
        assert loaded.dtype == np.complex128
        np.testing.assert_array_equal(loaded.astype(np.complex64), frames)
        # widening f32 -> f64 is exact, so equality holds at f64 too
        np.testing.assert_array_equal(loaded, frames.astype(np.complex128))

    def test_type_b_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        # smooth unit responses: no alias-tail warning expected
        frames = np.ones((4, 9), dtype=np.complex64)
        path = tmp_path / "resp.fbeg"
        write_gain_stream(path, frames, TYPE_DFT_RESPONSES, 16, 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            header, loaded = load_gain_stream(path)
        assert header.record_type == TYPE_DFT_RESPONSES
        assert header.num_bins == 9
        np.testing.assert_array_equal(loaded, frames.astype(np.complex128))

    def test_empty_stream(self, tmp_path):
        path = tmp_path / "empty.fbeg"
        write_gain_stream(path, np.zeros((0, 9), dtype=np.complex64),
                          TYPE_SUBBAND_GAINS, 16, 4)
        header, loaded = load_gain_stream(path)
        assert header.num_frames == 0
        assert loaded.shape == (0, 9)

    def test_exact_byte_layout(self, tmp_path):
        frames = np.array([[1.5 + 2.5j, -3.0 + 0.25j]], dtype=np.complex64)
        path = tmp_path / "layout.fbeg"
        write_gain_stream(path, frames, TYPE_DFT_RESPONSES, 16, 1)
        raw = path.read_bytes()
        assert len(raw) == 24 + 1 * 2 * 8
        assert raw[:4] == b"FBEG"
        assert struct.unpack_from("<H", raw, 4)[0] == 1
        assert raw[6] == TYPE_DFT_RESPONSES
        assert raw[7] == 0
        assert struct.unpack_from("<IIII", raw, 8) == (16, 1, 2, 1)
        np.testing.assert_array_equal(
            np.frombuffer(raw[24:], dtype="<f4"),
            np.array([1.5, 2.5, -3.0, 0.25], dtype=np.float32),
        )


class TestWriteValidation:
    def test_unknown_record_type(self, tmp_path):
        with pytest.raises(ConfigError, match="record type"):
            write_gain_stream(tmp_path / "x.fbeg",
                              np.ones((1, 9), dtype=np.complex64), 7, 16, 4)

    def test_type_a_bin_count_must_match_frame_size(self, tmp_path):
        with pytest.raises(ConfigError, match="9 bins"):
            write_gain_stream(tmp_path / "x.fbeg",
                              np.ones((1, 8), dtype=np.complex64),
                              TYPE_SUBBAND_GAINS, 16, 4)


class TestLoadValidation:
    def make_valid(self, tmp_path):
        path = tmp_path / "valid.fbeg"
        rng = np.random.default_rng(11)
        write_gain_stream(path, random_gains(rng, 3, 9), TYPE_SUBBAND_GAINS, 16, 4)
        return path.read_bytes()

    def test_bad_magic(self, tmp_path):
        raw = bytearray(self.make_valid(tmp_path))
        raw[:4] = b"GEBF"
        bad = tmp_path / "bad.fbeg"
        bad.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="offset 0"):
            load_gain_stream(bad)

    def test_bad_version(self, tmp_path):
        raw = bytearray(self.make_valid(tmp_path))
        struct.pack_into("<H", raw, 4, 2)
        bad = tmp_path / "bad.fbeg"
        bad.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="offset 4"):
            load_gain_stream(bad)

    def test_bad_record_type(self, tmp_path):
        raw = bytearray(self.make_valid(tmp_path))
        raw[6] = 9
        bad = tmp_path / "bad.fbeg"
        bad.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="offset 6"):
            load_gain_stream(bad)

    def test_inconsistent_bins(self, tmp_path):
        raw = bytearray(self.make_valid(tmp_path))
        struct.pack_into("<I", raw, 16, 10)
        bad = tmp_path / "bad.fbeg"
        bad.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="offset 16"):
            load_gain_stream(bad)

    def test_truncated_header(self, tmp_path):
        bad = tmp_path / "bad.fbeg"
        bad.write_bytes(self.make_valid(tmp_path)[:10])
        with pytest.raises(FormatError, match="truncated header"):
            load_gain_stream(bad)

    def test_truncated_payload(self, tmp_path):
        raw = self.make_valid(tmp_path)
        bad = tmp_path / "bad.fbeg"
        bad.write_bytes(raw[:-4])
        with pytest.raises(FormatError, match="offset 24"):
            load_gain_stream(bad)

    def test_oversized_payload(self, tmp_path):
        raw = self.make_valid(tmp_path)
        bad = tmp_path / "bad.fbeg"
        bad.write_bytes(raw + b"\x00" * 8)
        with pytest.raises(FormatError, match="offset 24"):
            load_gain_stream(bad)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("frame, bin_, part", [(0, 0, 0), (2, 5, 1), (1, 8, 0)])
    def test_non_finite_payload(self, tmp_path, value, frame, bin_, part):
        raw = bytearray(self.make_valid(tmp_path))
        offset = 24 + 4 * ((frame * 9 + bin_) * 2 + part)
        struct.pack_into("<f", raw, offset, value)
        bad = tmp_path / "bad.fbeg"
        bad.write_bytes(bytes(raw))
        label = "imag" if part else "real"
        with pytest.raises(
            FormatError,
            match=rf"frame {frame}, bin {bin_} \({label} part\) at offset {offset}$",
        ):
            load_gain_stream(bad)

    def test_non_finite_payload_reports_first(self, tmp_path):
        raw = bytearray(self.make_valid(tmp_path))
        struct.pack_into("<f", raw, 24 + 4 * 40, np.inf)   # frame 2, bin 2
        struct.pack_into("<f", raw, 24 + 4 * 21, np.nan)   # frame 1, bin 1 imag
        bad = tmp_path / "bad.fbeg"
        bad.write_bytes(bytes(raw))
        with pytest.raises(FormatError,
                           match=r"frame 1, bin 1 \(imag part\) at offset 108"):
            load_gain_stream(bad)

    def test_fuzzed_headers_never_crash(self, tmp_path):
        """Random corruption must surface as FormatError, nothing harsher."""
        base = self.make_valid(tmp_path)
        rng = np.random.default_rng(13)
        bad = tmp_path / "fuzz.fbeg"
        for _ in range(200):
            raw = bytearray(base)
            for _ in range(rng.integers(1, 4)):
                raw[rng.integers(0, 24)] = rng.integers(0, 256)
            bad.write_bytes(bytes(raw))
            try:
                load_gain_stream(bad)
            except FormatError:
                pass


class TestAliasTailWarning:
    def test_leaky_response_warns(self, tmp_path):
        # a one-sample delay of 2P-r+1 lands entirely past the safe support
        fft_size = 16
        hop = 4
        k = np.arange(9)
        delay = fft_size - hop + 1
        frames = np.exp(-2j * np.pi * k * delay / fft_size)[None, :]
        path = tmp_path / "leaky.fbeg"
        write_gain_stream(path, frames, TYPE_DFT_RESPONSES, 16, hop)
        with pytest.warns(UserWarning, match="time-aliasing"):
            load_gain_stream(path)

    def test_compact_response_silent(self, tmp_path):
        fft_size = 16
        hop = 4
        rng = np.random.default_rng(17)
        taps = np.zeros(fft_size)
        taps[: fft_size - hop + 1] = rng.standard_normal(fft_size - hop + 1)
        frames = np.fft.rfft(taps)[None, :]
        path = tmp_path / "compact.fbeg"
        write_gain_stream(path, frames, TYPE_DFT_RESPONSES, 16, hop)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            load_gain_stream(path)

    def test_tolerance_boundary(self, tmp_path):
        # tail energy just above the threshold triggers; just below stays quiet
        fft_size = 16
        hop = 4
        taps = np.zeros(fft_size)
        taps[0] = 1.0
        tail_amp = np.sqrt(2.0 * ALIAS_TAIL_TOLERANCE)
        taps[fft_size - 1] = tail_amp
        frames = np.fft.rfft(taps)[None, :]
        path = tmp_path / "edge.fbeg"
        write_gain_stream(path, frames, TYPE_DFT_RESPONSES, 16, hop)
        with pytest.warns(UserWarning, match="relative tail energy"):
            load_gain_stream(path)

        taps[fft_size - 1] = tail_amp / 10.0
        frames = np.fft.rfft(taps)[None, :]
        write_gain_stream(path, frames, TYPE_DFT_RESPONSES, 16, hop)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            load_gain_stream(path)


class TestGeometryCheck:
    def test_matching_type_a(self):
        spec = FilterbankSpec(frame_size=16, proto_len=16, hop=4)
        check_stream_geometry(StreamHeader(TYPE_SUBBAND_GAINS, 16, 4, 9, 5),
                              spec, shorten_len=8)

    def test_matching_type_b(self):
        spec = FilterbankSpec(frame_size=16, proto_len=16, hop=4)
        check_stream_geometry(StreamHeader(TYPE_DFT_RESPONSES, 16, 4, 9, 5),
                              spec, shorten_len=8)

    def test_frame_size_mismatch(self):
        spec = FilterbankSpec()
        with pytest.raises(ConfigError, match="written for frame size 16"):
            check_stream_geometry(StreamHeader(TYPE_SUBBAND_GAINS, 16, 4, 9, 5),
                                  spec, shorten_len=128)

    def test_type_b_bins_mismatch(self):
        spec = FilterbankSpec(frame_size=16, proto_len=16, hop=4)
        with pytest.raises(ConfigError, match="expects 9"):
            check_stream_geometry(StreamHeader(TYPE_DFT_RESPONSES, 16, 4, 17, 5),
                                  spec, shorten_len=8)
