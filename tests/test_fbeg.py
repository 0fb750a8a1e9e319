import gc
import os
import re
import struct
import threading
import tracemalloc
import warnings
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fbeq import fbeg, filterbank
from fbeq.config import Config
from fbeq.equalizer import process_stream
from fbeq.errors import ConfigError, DataError, FormatError
from fbeq.fbeg import (
    ALIAS_TAIL_TOLERANCE,
    MAGIC,
    TYPE_ANALYSIS_FRAMES,
    TYPE_DFT_RESPONSES,
    TYPE_SUBBAND_GAINS,
    StreamHeader,
    load_gain_stream,
    write_gain_stream,
)


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


F32 = np.finfo(np.float32)
# Signed zeros, the smallest and largest subnormals, the smallest normal and
# the largest finite value, each with both signs.
F32_EDGES = [sign * v for v in (0.0, float(F32.smallest_subnormal),
                                float(F32.smallest_normal - F32.smallest_subnormal),
                                float(F32.smallest_normal), float(F32.max))
             for sign in (1.0, -1.0)]


class TestRoundTripProperty:
    """Loading widens every stored float32 part exactly, bit for bit."""

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(record_type=st.sampled_from([TYPE_SUBBAND_GAINS, TYPE_DFT_RESPONSES,
                                        TYPE_ANALYSIS_FRAMES]),
           half_m=st.integers(1, 8), num_frames=st.integers(0, 6), data=st.data())
    def test_load_is_exact_widening(self, tmp_path, record_type, half_m,
                                    num_frames, data):
        num_bins = half_m + 1
        size = 2 * num_frames * num_bins
        edges = F32_EDGES[:size]
        others = data.draw(st.lists(st.floats(width=32).filter(np.isfinite),
                                    min_size=size - len(edges),
                                    max_size=size - len(edges)))
        parts = data.draw(st.permutations(edges + others))
        stored = np.array(parts, dtype=np.float32).view(np.complex64)
        stored = stored.reshape(num_frames, num_bins)
        path = tmp_path / "edges.fbeg"
        write_gain_stream(path, stored, record_type, 2 * half_m, 1)
        with warnings.catch_warnings():  # huge type-B responses may alias
            warnings.simplefilter("ignore")
            header, loaded = load_gain_stream(path)
        assert header.record_type == record_type
        assert loaded.dtype == np.complex128
        assert np.array_equal(loaded.view(np.uint64),
                              stored.astype(np.complex128).view(np.uint64))

    def test_peak_memory_is_file_plus_result(self, tmp_path):
        path = tmp_path / "long.fbeg"
        write_gain_stream(path, random_gains(np.random.default_rng(19), 1000, 257),
                          TYPE_SUBBAND_GAINS, 512, 64)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            _, loaded = load_gain_stream(path)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= path.stat().st_size + loaded.nbytes + 64 * 1024


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

    def test_one_bin_responses(self, tmp_path):
        path = tmp_path / "x.fbeg"
        with pytest.raises(ConfigError, match=r"^records need at least 2 bins, got 1$"):
            write_gain_stream(path, np.ones((3, 1), dtype=np.complex64),
                              TYPE_DFT_RESPONSES, 16, 4)
        assert not path.exists()

    def test_three_dimensional_frames(self, tmp_path):
        path = tmp_path / "x.fbeg"
        with pytest.raises(DataError, match=re.escape(
                "expected a 2-D frame matrix, got shape (2, 3, 9)")):
            write_gain_stream(path, np.ones((2, 3, 9), dtype=np.complex64),
                              TYPE_SUBBAND_GAINS, 16, 4)
        assert not path.exists()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e39, 1e39j])
    def test_value_the_loader_would_reject(self, tmp_path, value):
        """1e39 is finite as complex128 and inf once stored as float32."""
        frames = np.ones((3, 9), dtype=np.complex128)
        frames[1, 2] = value
        path = tmp_path / "x.fbeg"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow warning from the cast
            with pytest.raises(DataError, match=r"^value in frame 1, bin 2 is "):
                write_gain_stream(path, frames, TYPE_SUBBAND_GAINS, 16, 4)
        assert not path.exists()

    @pytest.mark.parametrize("frame_size, hop", [(16, 2**32), (16, -1), (2**33, 4)])
    def test_geometry_outside_header_fields(self, tmp_path, frame_size, hop):
        path = tmp_path / "x.fbeg"
        with pytest.raises(ConfigError, match="does not fit the header's u32"):
            write_gain_stream(path, np.ones((1, 9), dtype=np.complex64),
                              TYPE_DFT_RESPONSES, frame_size, hop)
        assert not path.exists()


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

    @pytest.mark.parametrize("bins", [0, 1])
    def test_fewer_than_two_bins(self, tmp_path, bins):
        raw = bytearray(self.make_valid(tmp_path))
        raw[6] = TYPE_DFT_RESPONSES
        struct.pack_into("<I", raw, 16, bins)
        bad = tmp_path / "bad.fbeg"
        bad.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match=rf"^bin count {bins} at offset 16 "
                                              r"must be >= 2$"):
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

    def test_pipe_rejected(self, tmp_path):
        """A pipe has no size to check the header against."""
        raw = self.make_valid(tmp_path)
        pipe = tmp_path / "pipe.fbeg"
        os.mkfifo(pipe)

        def feed():
            with open(pipe, "wb") as fh:
                fh.write(raw)

        writer = threading.Thread(target=feed)
        writer.start()
        try:
            with pytest.raises(FormatError, match="is not a regular file"):
                load_gain_stream(pipe)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()

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

    @pytest.mark.parametrize("hop, warns", [(0, False), (1, False), (2, True)])
    def test_hop_below_two_has_no_tail(self, tmp_path, hop, warns):
        """The tail past tap ``2P - hop`` is empty for a hop of 0 or 1, so
        even a response wholly on the last tap gives no warning there."""
        taps = np.zeros(16)
        taps[-1] = 1.0
        path = tmp_path / "last-tap.fbeg"
        write_gain_stream(path, np.fft.rfft(taps)[None, :], TYPE_DFT_RESPONSES,
                          16, hop)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            load_gain_stream(path)
        assert [str(w.message).split(":")[0] for w in caught] == (
            ["DFT-response stream implies time-aliasing"] if warns else [])


SMALL = dict(frame_size=16, proto_len=16, hop=4, shorten_len=8)


class TestBlockReading:
    """``process_stream`` reads a gain file four records at a time here and
    rejects what ``load_gain_stream`` rejects, with the same message.

    The input needs 6 frames and the file holds 10, so frames 6-9 are
    records past the input's last frame, read only to be checked.
    """

    @staticmethod
    def run(path, num_frames=6):
        with patch.object(filterbank, "BLOCK_FRAMES", 4):
            return process_stream(np.ones(4 * num_frames), path,
                                  Config(**SMALL))

    @staticmethod
    def unity_file(tmp_path, num_frames=10, record_type=TYPE_SUBBAND_GAINS):
        path = tmp_path / "unity.fbeg"
        write_gain_stream(path, np.ones((num_frames, 9), dtype=np.complex64),
                          record_type, 16, 4)
        return path

    # frame 1: first block; 3 and 4: either side of a block boundary;
    # 8: past the input's last frame, in a subband-gain and a response file
    @pytest.mark.parametrize("frame, bin_, part, record_type", [
        pytest.param(1, 3, 0, TYPE_SUBBAND_GAINS, id="1-3-0"),
        pytest.param(3, 8, 1, TYPE_SUBBAND_GAINS, id="3-8-1"),
        pytest.param(4, 0, 0, TYPE_SUBBAND_GAINS, id="4-0-0"),
        pytest.param(8, 5, 1, TYPE_SUBBAND_GAINS, id="8-5-1"),
        pytest.param(8, 5, 1, TYPE_DFT_RESPONSES, id="8-5-1-responses"),
    ])
    def test_non_finite_value_reported_as_by_loader(self, tmp_path, frame, bin_,
                                                    part, record_type):
        path = self.unity_file(tmp_path, record_type=record_type)
        raw = bytearray(path.read_bytes())
        offset = 24 + 4 * ((frame * 9 + bin_) * 2 + part)
        struct.pack_into("<f", raw, offset, np.nan)
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError) as loaded:
            load_gain_stream(path)
        assert str(loaded.value).endswith(
            f"frame {frame}, bin {bin_} ({'imag' if part else 'real'} part) "
            f"at offset {offset}")
        with pytest.raises(FormatError, match=f"^{re.escape(str(loaded.value))}$"):
            self.run(path)

    def test_file_cut_short_after_size_check(self, tmp_path):
        path = self.unity_file(tmp_path, num_frames=400)  # past the read buffer
        cut = 24 + 72 * 200 + 30
        read_header = fbeg._read_header

        def read_then_cut(fh):
            header = read_header(fh)
            os.truncate(path, cut)
            return header

        with patch.object(fbeg, "_read_header", read_then_cut):
            with pytest.raises(FormatError, match=rf"^payload ends at offset "
                                                  rf"{cut}, inside frame 200 of 400$"):
                self.run(path, num_frames=300)

    @pytest.mark.parametrize("leaky", [[5, 6, 9], [9]])
    def test_leaky_responses_warn_once_as_loader(self, tmp_path, leaky):
        k = np.arange(9)
        frames = np.ones((10, 9), dtype=np.complex128)
        frames[leaky] = np.exp(-2j * np.pi * k * 13 / 16)  # delay past tap 12
        path = tmp_path / "leaky.fbeg"
        write_gain_stream(path, frames, TYPE_DFT_RESPONSES, 16, 4)
        with pytest.warns(UserWarning) as loaded:
            load_gain_stream(path)
        assert f"frame {leaky[0]} " in str(loaded[0].message)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            self.run(path)
        assert [str(w.message) for w in caught] == [str(loaded[0].message)]
        # Filed under the caller, so a caller's module filter can match it.
        assert loaded[0].filename == caught[0].filename == __file__

    def test_file_closed_after_mid_file_error(self, tmp_path):
        path = self.unity_file(tmp_path)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<f", raw, 24 + 4 * (5 * 9 * 2), np.inf)  # frame 5
        path.write_bytes(bytes(raw))
        handles = []
        read_records = fbeg._read_records

        def spy(fh, *args):
            handles.append(fh)
            return read_records(fh, *args)

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with patch.object(fbeg, "_read_records", spy):
                with pytest.raises(FormatError, match="frame 5, bin 0"):
                    self.run(path)
            assert len(handles) == 2 and all(fh.closed for fh in handles)
            del handles
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


class TestGeometryCheck:
    """``process_stream`` checks a gain file's frame size, hop and, for type
    B, bin count against the configuration before it reads a record."""

    @staticmethod
    def run(path, **overrides):
        return process_stream(np.ones(24), path, Config(**{**SMALL, **overrides}))

    def test_matching_type_a(self, tmp_path):
        out, _ = self.run(TestBlockReading.unity_file(tmp_path))
        assert out.shape == (24,)

    def test_matching_type_b(self, tmp_path):
        path = TestBlockReading.unity_file(tmp_path, record_type=TYPE_DFT_RESPONSES)
        out, _ = self.run(path)
        assert out.shape == (24,)

    def test_frame_size_mismatch(self, tmp_path):
        with pytest.raises(ConfigError, match=r"^gain stream was written for frame "
                                              r"size 16, hop 4; active configuration "
                                              r"is 32, 4$"):
            self.run(TestBlockReading.unity_file(tmp_path), frame_size=32,
                     proto_len=32)

    def test_hop_mismatch(self, tmp_path):
        with pytest.raises(ConfigError, match=r"^gain stream was written for frame "
                                              r"size 16, hop 4; active configuration "
                                              r"is 16, 8$"):
            self.run(TestBlockReading.unity_file(tmp_path), hop=8)

    def test_type_b_bins_mismatch(self, tmp_path):
        path = tmp_path / "wide.fbeg"
        write_gain_stream(path, np.ones((10, 17), dtype=np.complex64),
                          TYPE_DFT_RESPONSES, 16, 4)
        with pytest.raises(ConfigError, match=r"^DFT-response stream has 17 bins, "
                                              r"configuration expects 9$"):
            self.run(path)

    def test_geometry_checked_before_record_count(self, tmp_path):
        """A short file of the wrong geometry names the geometry."""
        path = TestBlockReading.unity_file(tmp_path, num_frames=1)
        with pytest.raises(ConfigError, match="written for frame size 16"):
            self.run(path, hop=8)
