import numpy as np
import pytest

from fbeq.config import Config
from fbeq.equalizer import (
    EngineState,
    FreqResponse,
    HighOrderFilter,
    LatencyReport,
    ShortenedFilter,
    _clamp_magnitude,
    direct_filter_block,
    filter_to_freq,
    ols_filter_frame,
    process_stream,
    shorten_filter,
    subband_to_time,
)
from fbeq.errors import ConfigError, DataError, NumericError
from fbeq.fbeg import (
    TYPE_DFT_RESPONSES,
    TYPE_SUBBAND_GAINS,
    StreamHeader,
    write_gain_stream,
)
from fbeq.filterbank import expand_hermitian


def random_hermitian_gains(rng, num_bins):
    half = rng.standard_normal(num_bins) + 1j * rng.standard_normal(num_bins)
    half[0] = half[0].real
    half[-1] = half[-1].real
    return half


def brute_force_taps(gains_full, proto):
    """Synthesis sum evaluated term by term, one exp call per (i, l)."""
    m = gains_full.size
    out = np.zeros(proto.taps.size, dtype=np.complex128)
    for l in range(proto.taps.size):
        for i in range(m):
            out[l] += gains_full[i] * np.exp(-2j * np.pi * i * (l - proto.tau) / m)
        out[l] *= proto.taps[l]
    return out


class TestSubbandToTime:
    def test_matches_brute_force(self, small_spec, small_proto):
        rng = np.random.default_rng(7)
        for _ in range(20):
            half = random_hermitian_gains(rng, small_spec.num_bins)
            full = expand_hermitian(half)
            got = subband_to_time(full, small_proto).taps
            want = brute_force_taps(full, small_proto)
            assert np.max(np.abs(want.imag)) <= 1e-12 * np.max(np.abs(want.real))
            np.testing.assert_allclose(got, want.real, rtol=0,
                                       atol=1e-12 * np.max(np.abs(want.real)))

    def test_unity_gains_give_center_impulse(self, default_proto):
        hd = subband_to_time(np.ones(512, dtype=np.complex128), default_proto)
        expected = np.zeros(513)
        expected[256] = 1.0
        np.testing.assert_allclose(hd.taps, expected, atol=1e-12)

    def test_unity_gains_small_geometry(self, small_proto):
        hd = subband_to_time(np.ones(16, dtype=np.complex128), small_proto)
        expected = np.zeros(17)
        expected[8] = 1.0
        np.testing.assert_allclose(hd.taps, expected, atol=1e-13)

    def test_taps_are_real_arrays(self, small_proto):
        rng = np.random.default_rng(11)
        full = expand_hermitian(random_hermitian_gains(rng, 9))
        hd = subband_to_time(full, small_proto)
        assert hd.taps.dtype == np.float64
        assert hd.taps.shape == (17,)

    def test_non_hermitian_rejected(self, small_proto):
        gains = np.ones(16, dtype=np.complex128)
        gains[3] = 2.0 + 1j  # mirror bin 13 stays at 1: not Hermitian
        with pytest.raises(NumericError, match="non-Hermitian"):
            subband_to_time(gains, small_proto)


class TestShortenFilter:
    def test_extracts_central_window(self):
        rng = np.random.default_rng(13)
        taps = rng.standard_normal(513)
        sf = shorten_filter(HighOrderFilter(taps=taps), 128)
        np.testing.assert_array_equal(sf.taps, taps[192:320])
        assert sf.group_delay == 64

    def test_projection_is_l2_optimal_for_the_support(self):
        # any perturbation of the kept taps increases the approximation error
        rng = np.random.default_rng(17)
        taps = rng.standard_normal(17)
        sf = shorten_filter(HighOrderFilter(taps=taps), 8)
        padded = np.zeros(17)
        padded[4:12] = sf.taps
        base_err = np.sum((taps - padded) ** 2)
        for _ in range(25):
            perturbed = padded.copy()
            perturbed[4:12] += 0.1 * rng.standard_normal(8)
            assert np.sum((taps - perturbed) ** 2) > base_err

    def test_error_equals_discarded_energy(self):
        rng = np.random.default_rng(19)
        taps = rng.standard_normal(513)
        sf = shorten_filter(HighOrderFilter(taps=taps), 128)
        padded = np.zeros(513)
        padded[192:320] = sf.taps
        discarded = np.sum(taps[:192] ** 2) + np.sum(taps[320:] ** 2)
        assert np.sum((taps - padded) ** 2) == pytest.approx(discarded, rel=1e-12)

    def test_odd_or_nonpositive_length(self):
        hd = HighOrderFilter(taps=np.ones(17))
        with pytest.raises(ConfigError, match="even"):
            shorten_filter(hd, 7)
        with pytest.raises(ConfigError, match="even"):
            shorten_filter(hd, 0)

    def test_window_out_of_range(self):
        hd = HighOrderFilter(taps=np.ones(17))
        with pytest.raises(ConfigError, match="outside"):
            shorten_filter(hd, 18)


class TestFilterToFreq:
    def test_matches_direct_dft(self):
        rng = np.random.default_rng(23)
        taps = rng.standard_normal(8)
        resp = filter_to_freq(ShortenedFilter(taps=taps, group_delay=4))
        assert resp.bins.shape == (9,)
        n = 16
        for k in range(9):
            want = sum(taps[j] * np.exp(-2j * np.pi * k * j / n) for j in range(8))
            assert abs(resp.bins[k] - want) <= 1e-12


class TestEngineState:
    def test_create_zero_history(self):
        state = EngineState.create(8, 4)
        np.testing.assert_array_equal(state.history, np.zeros(16))
        assert state.frame_index == 0

    def test_push_shifts(self):
        state = EngineState.create(2, 2)
        state.push([1.0, 2.0])
        np.testing.assert_array_equal(state.history, [0.0, 0.0, 1.0, 2.0])
        state.push([3.0, 4.0])
        np.testing.assert_array_equal(state.history, [1.0, 2.0, 3.0, 4.0])
        assert state.frame_index == 2

    def test_hop_too_large(self):
        with pytest.raises(ConfigError, match="alias"):
            EngineState.create(8, 10)

    def test_wrong_block_size(self):
        state = EngineState.create(8, 4)
        with pytest.raises(DataError, match="4 samples"):
            state.push(np.ones(6))


class TestBlockFiltering:
    def test_direct_equals_global_convolution(self):
        rng = np.random.default_rng(29)
        taps = rng.standard_normal(8)
        x = rng.standard_normal(25 * 4)
        sf = ShortenedFilter(taps=taps, group_delay=4)
        state = EngineState.create(8, 4)
        out = np.concatenate(
            [direct_filter_block(state, sf, x[k * 4 : (k + 1) * 4])
             for k in range(25)]
        )
        want = np.convolve(x, taps)[: out.size]
        np.testing.assert_allclose(out, want, rtol=0,
                                   atol=1e-12 * np.max(np.abs(want)))

    def test_ols_equals_global_convolution(self):
        rng = np.random.default_rng(31)
        taps = rng.standard_normal(8)
        x = rng.standard_normal(25 * 4)
        resp = filter_to_freq(ShortenedFilter(taps=taps, group_delay=4))
        state = EngineState.create(8, 4)
        out = np.concatenate(
            [ols_filter_frame(state, resp, x[k * 4 : (k + 1) * 4])
             for k in range(25)]
        )
        want = np.convolve(x, taps)[: out.size]
        np.testing.assert_allclose(out, want, rtol=0,
                                   atol=1e-12 * np.max(np.abs(want)))

    def test_ols_equals_direct_with_time_varying_filters(self):
        rng = np.random.default_rng(37)
        x = rng.standard_normal(40 * 4)
        filters = [rng.standard_normal(8) for _ in range(40)]
        s1 = EngineState.create(8, 4)
        s2 = EngineState.create(8, 4)
        peak = 0.0
        worst = 0.0
        for k in range(40):
            block = x[k * 4 : (k + 1) * 4]
            sf = ShortenedFilter(taps=filters[k], group_delay=4)
            a = direct_filter_block(s1, sf, block)
            b = ols_filter_frame(s2, filter_to_freq(sf), block)
            peak = max(peak, np.max(np.abs(a)))
            worst = max(worst, np.max(np.abs(a - b)))
        assert worst <= 1e-12 * peak

    def test_ols_response_size_mismatch(self):
        state = EngineState.create(8, 4)
        with pytest.raises(ConfigError, match="block"):
            ols_filter_frame(state, FreqResponse(bins=np.ones(5)), np.ones(4))

    def test_direct_taps_size_mismatch(self):
        state = EngineState.create(8, 4)
        sf = ShortenedFilter(taps=np.ones(6), group_delay=3)
        with pytest.raises(ConfigError, match="does not match"):
            direct_filter_block(state, sf, np.ones(4))


class TestClampMagnitude:
    def test_clamps_preserving_phase(self):
        g = np.array([[3.0 + 4.0j, 0.5j, -2.0]])
        out = _clamp_magnitude(g, 4.0)
        assert abs(out[0, 0]) == pytest.approx(4.0, rel=1e-15)
        assert np.angle(out[0, 0]) == pytest.approx(np.angle(3.0 + 4.0j), rel=1e-15)
        assert out[0, 1] == 0.5j
        assert out[0, 2] == -2.0

    def test_no_copy_when_under_limit(self):
        g = np.array([[1.0 + 0.5j]])
        assert _clamp_magnitude(g, 4.0) is g


def small_config(**overrides):
    base = dict(frame_size=16, proto_len=16, hop=4, shorten_len=8)
    base.update(overrides)
    return Config(**base)


class TestProcessStream:
    def test_unity_gains_delay_by_half_window(self):
        cfg = small_config()
        rng = np.random.default_rng(41)
        x = rng.standard_normal(4 * 120)
        frames = np.ones((120, 9), dtype=np.complex128)
        header = StreamHeader(TYPE_SUBBAND_GAINS, 16, 4, 9, 120)
        out, report = process_stream(x, (header, frames), cfg)
        assert out.size == 480
        assert report.filter_group_delay_samples == 4
        warm = 16 + 2 * 8
        err = out[warm:] - np.concatenate([np.zeros(4), x])[warm : out.size]
        rms = np.sqrt(np.mean(x**2))
        assert np.sqrt(np.mean(err**2)) <= 1e-12 * rms

    def test_estimator_modes_agree(self):
        rng = np.random.default_rng(43)
        x = rng.standard_normal(4 * 100)
        out_ols, _ = process_stream(x, "mmse-lsa", small_config(mode="ols"))
        out_dir, _ = process_stream(x, "mmse-lsa", small_config(mode="direct"))
        assert np.max(np.abs(out_ols - out_dir)) <= 1e-9 * np.max(np.abs(out_ols))

    def test_estimator_output_shape_and_determinism(self):
        rng = np.random.default_rng(47)
        x = rng.standard_normal(4 * 50 + 3)  # partial hop dropped
        cfg = small_config()
        out1, report = process_stream(x, "mmse-lsa", cfg)
        out2, _ = process_stream(x, "mmse-lsa", cfg)
        assert out1.shape == (200,)
        assert np.all(np.isfinite(out1))
        np.testing.assert_array_equal(out1, out2)
        assert report.block_buffer_samples == 4

    def test_type_b_identity_response(self):
        cfg = small_config()
        rng = np.random.default_rng(53)
        x = rng.standard_normal(4 * 60)
        frames = np.ones((60, 9), dtype=np.complex128)  # rfft of delta at 0
        header = StreamHeader(TYPE_DFT_RESPONSES, 16, 4, 9, 60)
        out, _ = process_stream(x, (header, frames), cfg)
        np.testing.assert_allclose(out, x[:240], rtol=0,
                                   atol=1e-12 * np.max(np.abs(x)))

    def test_type_b_rejects_direct_mode(self):
        frames = np.ones((10, 9), dtype=np.complex128)
        header = StreamHeader(TYPE_DFT_RESPONSES, 16, 4, 9, 10)
        with pytest.raises(ConfigError, match="ols"):
            process_stream(np.ones(40), (header, frames),
                           small_config(mode="direct"))

    def test_stream_too_short(self):
        frames = np.ones((3, 9), dtype=np.complex128)
        header = StreamHeader(TYPE_SUBBAND_GAINS, 16, 4, 9, 3)
        with pytest.raises(DataError, match="ends after frame 3"):
            process_stream(np.ones(40), (header, frames), small_config())

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_input(self, value):
        x = np.ones(4 * 30)
        x[37] = value
        x[50] = np.nan
        with pytest.raises(DataError, match=r"input sample 37 is non-finite"):
            process_stream(x, "mmse-lsa", small_config())

    def test_stream_geometry_mismatch(self):
        frames = np.ones((10, 9), dtype=np.complex128)
        header = StreamHeader(TYPE_SUBBAND_GAINS, 32, 4, 9, 10)
        with pytest.raises(ConfigError, match="written for frame size 32"):
            process_stream(np.ones(40), (header, frames), small_config())

    def test_loads_stream_from_file(self, tmp_path):
        cfg = small_config()
        rng = np.random.default_rng(59)
        x = rng.standard_normal(4 * 30)
        path = tmp_path / "unity.fbeg"
        write_gain_stream(path, np.ones((30, 9), dtype=np.complex64),
                          TYPE_SUBBAND_GAINS, 16, 4)
        out_file, _ = process_stream(x, path, cfg)
        header = StreamHeader(TYPE_SUBBAND_GAINS, 16, 4, 9, 30)
        out_mem, _ = process_stream(x, (header, np.ones((30, 9))), cfg)
        np.testing.assert_array_equal(out_file, out_mem)

    def test_external_gains_are_clamped(self):
        cfg = small_config()  # g_max defaults to 4.0
        rng = np.random.default_rng(61)
        x = rng.standard_normal(4 * 40)
        hot = np.full((40, 9), 100.0, dtype=np.complex128)
        header = StreamHeader(TYPE_SUBBAND_GAINS, 16, 4, 9, 40)
        out_hot, _ = process_stream(x, (header, hot), cfg)
        out_4, _ = process_stream(x, (header, np.full((40, 9), 4.0 + 0j)), cfg)
        np.testing.assert_allclose(out_hot, out_4, rtol=0,
                                   atol=1e-12 * np.max(np.abs(out_4)))

    def test_empty_input(self):
        out, report = process_stream(np.zeros(0), "mmse-lsa", small_config())
        assert out.shape == (0,)
        assert report.filter_group_delay_samples == 4

    def test_latency_report_default_geometry(self):
        report = LatencyReport(filter_group_delay_samples=64,
                               block_buffer_samples=64, sample_rate_hz=16000)
        assert report.group_delay_ms == pytest.approx(4.0, abs=1e-12)
        assert report.block_ms == pytest.approx(4.0, abs=1e-12)
