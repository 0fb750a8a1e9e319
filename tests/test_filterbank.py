import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbeq import filterbank
from fbeq.errors import ConfigError, DataError, NumericError
from fbeq.filterbank import (
    FilterbankSpec,
    PolyphaseAnalyzer,
    analyze_polyphase,
    design_prototype,
    expand_hermitian,
)

from conftest import analyze_direct, geometries, modulation


def brute_force_frames(x, proto, spec):
    """O(T*M*L) evaluation of the analysis sum, one exp call per (i, l)."""
    x = np.asarray(x, dtype=np.float64)
    num_frames = x.size // spec.hop
    out = np.zeros((num_frames, spec.num_bins), dtype=np.complex128)
    for k in range(1, num_frames + 1):
        for i in range(spec.num_bins):
            acc = 0.0 + 0.0j
            for l in range(spec.proto_len + 1):
                t = k * spec.hop - 1 - l
                if t < 0:
                    continue
                phase = np.exp(-2j * np.pi * i * (l - spec.tau) / spec.frame_size)
                acc += x[t] * proto[l] * phase
            out[k - 1, i] = acc
    return out


class TestFilterbankSpec:
    def test_default_geometry(self):
        spec = FilterbankSpec()
        assert (spec.frame_size, spec.proto_len, spec.hop) == (512, 512, 64)
        assert spec.sample_rate_hz == 16000
        assert spec.tau == 256
        assert spec.num_bins == 257

    def test_num_frames_floor(self):
        spec = FilterbankSpec()
        assert spec.num_frames(16000) == 250
        assert spec.num_frames(63) == 0
        assert spec.num_frames(129) == 2

    def test_rejects_odd_proto_len(self):
        with pytest.raises(ConfigError, match="even"):
            FilterbankSpec(proto_len=511)

    def test_rejects_short_prototype(self):
        with pytest.raises(ConfigError, match="at least the frame size"):
            FilterbankSpec(frame_size=32, proto_len=16, hop=4)

    def test_rejects_bad_hop(self):
        with pytest.raises(ConfigError, match="divide"):
            FilterbankSpec(hop=60)
        with pytest.raises(ConfigError, match="exceed"):
            FilterbankSpec(frame_size=16, proto_len=16, hop=32)

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            FilterbankSpec(frame_size=0)
        with pytest.raises(ConfigError):
            FilterbankSpec(hop=-4)


class TestDesignPrototype:
    def test_center_tap_is_inverse_frame_size(self, default_proto):
        assert default_proto[256] == 1.0 / 512.0

    def test_endpoints_are_zero(self, default_proto):
        assert default_proto[0] == 0.0
        assert default_proto[512] == 0.0

    def test_golden_quarter_band_tap(self, default_proto):
        # Independent high-precision evaluation of the tap formula at l=192.
        assert default_proto[192] == pytest.approx(
            0.00150091414894989, rel=1e-13
        )
        assert default_proto[192] == default_proto[320]

    def test_symmetry_is_bit_exact(self, default_proto):
        np.testing.assert_array_equal(default_proto,
                                      default_proto[::-1])

    def test_all_finite(self, default_proto):
        assert np.all(np.isfinite(default_proto))
        assert default_proto.dtype == np.float64
        assert default_proto.shape == (513,)

    def test_small_geometry_center(self, small_proto):
        assert small_proto.size == 17
        assert small_proto[8] == 1.0 / 16.0


class TestModulation:
    def test_zero_bin_is_unity(self, default_spec):
        for l in (0, 100, 512):
            assert modulation(default_spec, 0, l) == 1.0

    def test_center_lag_is_unity(self, default_spec):
        assert modulation(default_spec, 37, 256) == 1.0

    def test_quarter_turn(self, default_spec):
        value = modulation(default_spec, 128, 257)
        assert value == pytest.approx(-1j, abs=1e-15)

    def test_bin_out_of_range(self, default_spec):
        with pytest.raises(ConfigError, match="bin index"):
            modulation(default_spec, 512, 0)
        with pytest.raises(ConfigError, match="bin index"):
            modulation(default_spec, -1, 0)


class TestAnalyzeDirect:
    def test_impulse_sifts_one_tap(self, default_spec, default_proto):
        # An impulse at sample 0 sits at lag hop-1 inside frame 1.
        x = np.zeros(64)
        x[0] = 1.0
        frames = analyze_direct(x, default_proto, default_spec).frames
        lag = default_spec.hop - 1
        expected = default_proto[lag] * np.array(
            [modulation(default_spec, i, lag) for i in range(257)]
        )
        np.testing.assert_allclose(frames[0], expected, rtol=0, atol=1e-18)

    def test_zeros_give_zero_frames(self, default_spec, default_proto):
        frames = analyze_direct(np.zeros(640), default_proto, default_spec).frames
        assert frames.shape == (10, 257)
        assert np.all(frames == 0)

    def test_empty_input(self, default_spec, default_proto):
        frames = analyze_direct(np.zeros(0), default_proto, default_spec).frames
        assert frames.shape == (0, 257)

    def test_partial_hop_is_dropped(self, small_spec, small_proto):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(18)
        frames = analyze_direct(x, small_proto, small_spec).frames
        assert frames.shape[0] == 4

    def test_matches_brute_force_small(self, small_spec, small_proto):
        rng = np.random.default_rng(11)
        x = rng.uniform(-1.0, 1.0, size=160)
        got = analyze_direct(x, small_proto, small_spec).frames
        want = brute_force_frames(x, small_proto, small_spec)
        scale = np.max(np.abs(want))
        assert np.max(np.abs(got - want)) <= 1e-10 * scale

    def test_causality(self, small_spec, small_proto):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(200)
        full = analyze_direct(x, small_proto, small_spec).frames
        cut = analyze_direct(x[:100], small_proto, small_spec).frames
        np.testing.assert_array_equal(full[: cut.shape[0]], cut)


class TestAnalyzePolyphase:
    def test_matches_direct_default_geometry(self, default_spec, default_proto):
        rng = np.random.default_rng(17)
        for _ in range(3):
            x = rng.standard_normal(1600)
            d = analyze_direct(x, default_proto, default_spec).frames
            p = analyze_polyphase(x, default_proto, default_spec).frames
            scale = np.max(np.abs(d))
            assert np.max(np.abs(d - p)) <= 1e-10 * scale

    def test_matches_direct_small_geometry(self, small_spec, small_proto):
        rng = np.random.default_rng(23)
        for _ in range(10):
            x = rng.standard_normal(300)
            d = analyze_direct(x, small_proto, small_spec).frames
            p = analyze_polyphase(x, small_proto, small_spec).frames
            scale = np.max(np.abs(d))
            assert np.max(np.abs(d - p)) <= 1e-10 * scale

    def test_general_phase_correction_path(self):
        # 2*tau not a multiple of M exercises the complex correction factor.
        spec = FilterbankSpec(frame_size=8, proto_len=22, hop=4)
        assert (2 * spec.tau) % spec.frame_size != 0
        proto = design_prototype(spec)
        rng = np.random.default_rng(29)
        x = rng.standard_normal(240)
        d = analyze_direct(x, proto, spec).frames
        p = analyze_polyphase(x, proto, spec).frames
        scale = np.max(np.abs(d))
        assert np.max(np.abs(d - p)) <= 1e-10 * scale

    def test_odd_multiple_sign_correction(self):
        # 2*tau = 3*M keeps the exact +/-1 path with an odd multiplier.
        spec = FilterbankSpec(frame_size=8, proto_len=24, hop=4)
        assert (2 * spec.tau) % spec.frame_size == 0
        assert (2 * spec.tau) // spec.frame_size == 3
        proto = design_prototype(spec)
        rng = np.random.default_rng(31)
        x = rng.standard_normal(240)
        d = analyze_direct(x, proto, spec).frames
        p = analyze_polyphase(x, proto, spec).frames
        scale = np.max(np.abs(d))
        assert np.max(np.abs(d - p)) <= 1e-10 * scale

    def test_zeros(self, default_spec, default_proto):
        frames = analyze_polyphase(np.zeros(256), default_proto,
                                   default_spec).frames
        assert frames.shape == (4, 257)
        assert np.all(frames == 0)

    @pytest.mark.parametrize("size", [0, 63])
    def test_no_whole_hop_gives_empty_frames(self, default_spec, default_proto, size):
        frames = analyze_polyphase(np.ones(size), default_proto, default_spec).frames
        assert frames.shape == (0, 257) and frames.dtype == np.complex128

    def test_linearity(self, small_spec, small_proto):
        rng = np.random.default_rng(41)
        x1 = rng.standard_normal(200)
        x2 = rng.standard_normal(200)
        a, b = 0.7, -2.3
        lhs = analyze_polyphase(a * x1 + b * x2, small_proto, small_spec).frames
        rhs = (
            a * analyze_polyphase(x1, small_proto, small_spec).frames
            + b * analyze_polyphase(x2, small_proto, small_spec).frames
        )
        scale = np.max(np.abs(rhs))
        assert np.max(np.abs(lhs - rhs)) <= 1e-10 * scale


class TestAnalyzePolyphaseBlocksProperty:
    """Blocked analysis equals one block and the direct oracle, on drawn geometries.

    The block is smaller than the frame count, so every draw crosses at
    least one block boundary.
    """

    @settings(max_examples=100, deadline=None)
    @given(geometry=geometries(), num_frames=st.integers(2, 40),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_matches_one_block_and_direct(self, geometry, num_frames, seed, data):
        block_frames = data.draw(st.integers(1, min(7, num_frames - 1)),
                                 label="block_frames")
        spec = FilterbankSpec(frame_size=geometry["frame_size"],
                              proto_len=geometry["proto_len"], hop=geometry["hop"])
        proto = design_prototype(spec)
        x = np.random.default_rng(seed).standard_normal(num_frames * spec.hop + 1)
        with patch.object(filterbank, "BLOCK_FRAMES", block_frames):
            blocked = analyze_polyphase(x, proto, spec).frames
        with patch.object(filterbank, "BLOCK_FRAMES", num_frames):
            whole = analyze_polyphase(x, proto, spec).frames
        assert np.array_equal(blocked, whole)
        d = analyze_direct(x, proto, spec).frames
        assert np.max(np.abs(d - blocked)) <= 1e-10 * np.max(np.abs(d))


class TestAnalysisHistory:
    @pytest.mark.parametrize("cut", [1, 3, 40])
    def test_pieces_with_their_history_equal_one_call(self, small_spec, small_proto, cut):
        x = np.random.default_rng(109).standard_normal(4 * 50)
        whole = analyze_polyphase(x, small_proto, small_spec).frames
        first = analyze_polyphase(x[: 4 * cut], small_proto, small_spec).frames
        before = np.concatenate([np.zeros(16), x])[4 * cut : 4 * cut + 16]
        rest = analyze_polyphase(x[4 * cut :], small_proto, small_spec, before).frames
        assert np.array_equal(np.concatenate([first, rest]), whole)

    def test_history_must_hold_l_samples(self, small_spec, small_proto):
        for size in (8, 3):  # two frames, and none
            with pytest.raises(DataError, match="must hold the 16 samples .* got 15"):
                analyze_polyphase(np.ones(size), small_proto, small_spec, np.zeros(15))

    def test_one_block_peak(self, default_spec, default_proto):
        """One block with its history, the call ``process_stream`` makes per
        block, returns that block's transform: 2.65 block frame matrices at
        peak, where filling a preallocated ``K``-row matrix takes 3.65."""
        rng = np.random.default_rng(197)
        block = rng.standard_normal(filterbank.BLOCK_FRAMES * default_spec.hop)
        history = rng.standard_normal(default_spec.proto_len)
        analyze_polyphase(block, default_proto, default_spec, history)  # first-call imports
        tracemalloc.start()
        try:
            analyze_polyphase(block, default_proto, default_spec, history)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        matrix = filterbank.BLOCK_FRAMES * default_spec.num_bins * 16
        assert peak / matrix <= 3.0, peak / matrix

    def test_one_block_windowed_product_dies_before_phase_correction(
            self, default_spec, default_proto):
        """The block's windowed product (1.0 block frame matrices) is freed
        after the DFT, before the phase correction's broadcast multiply
        allocates its buffer: 2.16 block frame matrices at peak, 2.65 while
        the product outlived the fold."""
        rng = np.random.default_rng(199)
        block = rng.standard_normal(filterbank.BLOCK_FRAMES * default_spec.hop)
        history = rng.standard_normal(default_spec.proto_len)
        analyze_polyphase(block, default_proto, default_spec, history)  # first-call imports
        tracemalloc.start()
        try:
            analyze_polyphase(block, default_proto, default_spec, history)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        matrix = filterbank.BLOCK_FRAMES * default_spec.num_bins * 16
        assert peak / matrix <= 2.3, peak / matrix


class TestPolyphaseAnalyzer:
    def test_streaming_matches_batch(self, default_spec, default_proto):
        rng = np.random.default_rng(43)
        x = rng.standard_normal(64 * 40)
        batch = analyze_polyphase(x, default_proto, default_spec).frames
        analyzer = PolyphaseAnalyzer(default_proto, default_spec)
        streamed = np.array(
            [analyzer.push(x[k * 64 : (k + 1) * 64]) for k in range(40)]
        )
        np.testing.assert_array_equal(streamed, batch)

    def test_wrong_block_length(self, small_spec, small_proto):
        analyzer = PolyphaseAnalyzer(small_proto, small_spec)
        with pytest.raises(DataError, match="block of 4 samples"):
            analyzer.push(np.ones(5))

    def test_wrong_prototype_length(self, small_spec, default_proto):
        with pytest.raises(ConfigError, match="taps"):
            PolyphaseAnalyzer(default_proto, small_spec)

    @pytest.mark.parametrize("analyze", [
        lambda proto, spec: PolyphaseAnalyzer(proto, spec).push(np.ones(spec.hop)),
        lambda proto, spec: analyze_polyphase(np.ones(40), proto, spec),
    ], ids=["PolyphaseAnalyzer", "analyze_polyphase"])
    def test_both_entry_points_check_prototype_length(self, analyze):
        spec = FilterbankSpec(frame_size=16, proto_len=16, hop=4)
        proto = design_prototype(FilterbankSpec(frame_size=16, proto_len=32, hop=4))
        with pytest.raises(ConfigError,
                           match="^prototype has 33 taps, geometry expects 17$"):
            analyze(proto, spec)


class TestExpandHermitian:
    def test_all_ones(self):
        full = expand_hermitian(np.ones(9))
        assert full.shape == (16,)
        np.testing.assert_array_equal(full, np.ones(16, dtype=np.complex128))

    def test_matches_full_band_brute_force(self, small_spec, small_proto):
        rng = np.random.default_rng(47)
        x = rng.standard_normal(80)
        half = analyze_direct(x, small_proto, small_spec).frames[-1]
        full = expand_hermitian(half)
        m, tau, big_l = small_spec.frame_size, small_spec.tau, small_spec.proto_len
        k = small_spec.num_frames(x.size)
        want = np.zeros(m, dtype=np.complex128)
        for i in range(m):
            for l in range(big_l + 1):
                t = k * small_spec.hop - 1 - l
                if t >= 0:
                    want[i] += x[t] * small_proto[l] * np.exp(
                        -2j * np.pi * i * (l - tau) / m
                    )
        np.testing.assert_allclose(full, want, atol=1e-12 * np.max(np.abs(want)))

    def test_hermitian_pairing(self, default_spec, default_proto):
        rng = np.random.default_rng(53)
        x = rng.standard_normal(640)
        frames = analyze_direct(x, default_proto, default_spec).frames
        full = expand_hermitian(frames[-1])
        m = default_spec.frame_size
        for i in range(1, m // 2):
            assert abs(full[m - i] - np.conj(full[i])) <= 1e-12

    def test_complex_edge_bin_rejected(self):
        half = np.ones(9, dtype=np.complex128)
        half[0] = 1j
        with pytest.raises(NumericError, match="symmetry"):
            expand_hermitian(half)

    def test_too_short(self):
        with pytest.raises(DataError, match="at least 2 bins"):
            expand_hermitian(np.ones(1))
