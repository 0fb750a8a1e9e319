import contextlib
import re
import tracemalloc
import warnings
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fbeq import equalizer, filterbank
from fbeq.audio_io import AudioBuffer, BlockEncoder, write_wav
from fbeq.config import Config
from fbeq.equalizer import (
    EngineState,
    LatencyReport,
    _clamp_magnitude,
    direct_filter_block,
    filter_to_freq,
    gains_to_taps,
    ols_filter_frame,
    process_stream,
    shorten_filter,
    subband_to_time,
)
from fbeq.errors import ConfigError, DataError, NumericError
from fbeq.fbeg import (
    TYPE_ANALYSIS_FRAMES,
    TYPE_DFT_RESPONSES,
    TYPE_SUBBAND_GAINS,
    load_gain_stream,
    write_gain_stream,
)
from fbeq.filterbank import (
    HERMITIAN_IMAG_TOL,
    PolyphaseAnalyzer,
    analyze_polyphase,
    design_prototype,
    expand_hermitian,
)
from fbeq.gains import NoiseTrackerState, mmse_lsa_gain, update_noise_psd

from conftest import first_overflowing_frame, gain_file, geometries, make_speech


def random_hermitian_gains(rng, num_bins):
    half = rng.standard_normal(num_bins) + 1j * rng.standard_normal(num_bins)
    half[0] = half[0].real
    half[-1] = half[-1].real
    return half


def brute_force_taps(gains_full, proto):
    """Synthesis sum evaluated term by term, one exp call per (i, l)."""
    m, tau = gains_full.size, (proto.size - 1) // 2
    out = np.zeros(proto.size, dtype=np.complex128)
    for l in range(proto.size):
        for i in range(m):
            out[l] += gains_full[i] * np.exp(-2j * np.pi * i * (l - tau) / m)
        out[l] *= proto[l]
    return out


class TestSubbandToTime:
    def test_matches_brute_force(self, small_spec, small_proto):
        rng = np.random.default_rng(7)
        for _ in range(20):
            half = random_hermitian_gains(rng, small_spec.num_bins)
            full = expand_hermitian(half)
            got = subband_to_time(full, small_proto)
            want = brute_force_taps(full, small_proto)
            assert np.max(np.abs(want.imag)) <= 1e-12 * np.max(np.abs(want.real))
            np.testing.assert_allclose(got, want.real, rtol=0,
                                       atol=1e-12 * np.max(np.abs(want.real)))

    def test_unity_gains_give_center_impulse(self, default_proto):
        taps = subband_to_time(np.ones(512, dtype=np.complex128), default_proto)
        expected = np.zeros(513)
        expected[256] = 1.0
        np.testing.assert_allclose(taps, expected, atol=1e-12)

    def test_unity_gains_small_geometry(self, small_proto):
        taps = subband_to_time(np.ones(16, dtype=np.complex128), small_proto)
        expected = np.zeros(17)
        expected[8] = 1.0
        np.testing.assert_allclose(taps, expected, atol=1e-13)

    def test_taps_are_real_arrays(self, small_proto):
        rng = np.random.default_rng(11)
        full = expand_hermitian(random_hermitian_gains(rng, 9))
        taps = subband_to_time(full, small_proto)
        assert taps.dtype == np.float64
        assert taps.shape == (17,)

    def test_non_hermitian_rejected(self, small_proto):
        gains = np.ones(16, dtype=np.complex128)
        gains[3] = 2.0 + 1j  # mirror bin 13 stays at 1: not Hermitian
        with pytest.raises(NumericError, match="non-Hermitian"):
            subband_to_time(gains, small_proto)


class TestShortenFilter:
    def test_extracts_central_window(self):
        rng = np.random.default_rng(13)
        taps = rng.standard_normal(513)
        short = shorten_filter(taps, 128)
        np.testing.assert_array_equal(short, taps[192:320])
        assert not np.shares_memory(short, taps)

    def test_projection_is_l2_optimal_for_the_support(self):
        # any perturbation of the kept taps increases the approximation error
        rng = np.random.default_rng(17)
        taps = rng.standard_normal(17)
        padded = np.zeros(17)
        padded[4:12] = shorten_filter(taps, 8)
        base_err = np.sum((taps - padded) ** 2)
        for _ in range(25):
            perturbed = padded.copy()
            perturbed[4:12] += 0.1 * rng.standard_normal(8)
            assert np.sum((taps - perturbed) ** 2) > base_err

    def test_error_equals_discarded_energy(self):
        rng = np.random.default_rng(19)
        taps = rng.standard_normal(513)
        padded = np.zeros(513)
        padded[192:320] = shorten_filter(taps, 128)
        discarded = np.sum(taps[:192] ** 2) + np.sum(taps[320:] ** 2)
        assert np.sum((taps - padded) ** 2) == pytest.approx(discarded, rel=1e-12)

    def test_odd_or_nonpositive_length(self):
        taps = np.ones(17)
        with pytest.raises(ConfigError, match="even"):
            shorten_filter(taps, 7)
        with pytest.raises(ConfigError, match="even"):
            shorten_filter(taps, 0)

    def test_window_out_of_range(self):
        with pytest.raises(ConfigError, match="outside"):
            shorten_filter(np.ones(17), 18)


class TestFilterToFreq:
    def test_matches_direct_dft(self):
        rng = np.random.default_rng(23)
        taps = rng.standard_normal(8)
        bins = filter_to_freq(taps)
        assert bins.shape == (9,)
        n = 16
        for k in range(9):
            want = sum(taps[j] * np.exp(-2j * np.pi * k * j / n) for j in range(8))
            assert abs(bins[k] - want) <= 1e-12


class TestEmptyLastAxis:
    """A 0-d input, or one of no values along its last axis, is a
    ``DataError`` naming its shape, with no NumPy warning on the way."""

    PROTO = design_prototype(Config(frame_size=16, proto_len=16, hop=4, shorten_len=8))
    CALLS = {
        "subband_to_time": lambda a: subband_to_time(a, TestEmptyLastAxis.PROTO),
        "shorten_filter": lambda a: shorten_filter(a, 8),
        "filter_to_freq": filter_to_freq,
        "ols_filter_frame": lambda a: ols_filter_frame(EngineState.create(8, 4), a,
                                                       np.ones(4)),
    }

    @pytest.mark.parametrize("shape", [(), (0,), (3, 0)],
                             ids=["0-d", "no-bins", "rows-of-no-bins"])
    @pytest.mark.parametrize("name", list(CALLS))
    def test_rejected_with_its_shape(self, name, shape):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match=re.escape(f"got shape {shape}")):
                self.CALLS[name](np.ones(shape))


class TestGainsToTaps:
    """The one-inverse-FFT mapping against the three-step chain it replaces."""

    @settings(max_examples=100, deadline=None)
    @given(geometry=geometries(), num_frames=st.integers(1, 8),
           seed=st.integers(0, 2**32 - 1), complex_gains=st.booleans())
    def test_matches_chain_and_rows(self, geometry, num_frames, seed, complex_gains):
        m, p = geometry["frame_size"], geometry["shorten_len"]
        proto = design_prototype(Config(**geometry))
        rng = np.random.default_rng(seed)
        if complex_gains:
            half = np.stack([random_hermitian_gains(rng, m // 2 + 1)
                             for _ in range(num_frames)])
        else:
            half = rng.standard_normal((num_frames, m // 2 + 1))
        got = gains_to_taps(half, proto, p)
        want = shorten_filter(subband_to_time(expand_hermitian(half), proto), p)
        assert got.shape == (num_frames, p)
        assert got.flags.c_contiguous  # filter_to_freq's rfft runs on rows
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        rows = np.stack([gains_to_taps(row, proto, p) for row in half])
        assert np.array_equal(got, rows)

    def test_rejects_window_outside_prototype(self, small_proto):
        with pytest.raises(ConfigError, match="outside"):
            gains_to_taps(np.ones(9), small_proto, 18)

    def test_kernel_dies_before_the_prototype_weighting(self, default_proto):
        """The inverse-FFT kernel is freed once its central lags are gathered,
        before the broadcast multiply by the prototype allocates its buffer:
        with the gains held by the caller, one 64-row block peaks at 1.27
        block frame matrices, 1.51 while the kernel outlived the gather."""
        cfg = Config()
        rng = np.random.default_rng(201)
        gains = np.stack([random_hermitian_gains(rng, cfg.num_bins)
                          for _ in range(filterbank.BLOCK_FRAMES)])
        gains_to_taps(gains, default_proto, cfg.shorten_len)  # first-call imports
        tracemalloc.start()
        try:
            gains_to_taps(gains, default_proto, cfg.shorten_len)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert block_frame_matrices(cfg, peak) <= 1.35, block_frame_matrices(cfg, peak)

    @pytest.mark.parametrize("mode", ["ols", "direct"])
    def test_edge_imaginary_parts_under_tolerance_are_dropped(self, tmp_path, mode):
        """DC/Nyquist imaginary parts the check lets through change no output bit."""
        rng = np.random.default_rng(67)
        gains = np.stack([random_hermitian_gains(rng, 9) for _ in range(20)])
        limit = 0.999 * HERMITIAN_IMAG_TOL * np.abs(gains).max(axis=1)
        salted = gains.copy()
        salted[:, 0] += 1j * limit
        salted[:, -1] -= 1j * limit
        cfg = small_config(mode=mode, g_max=10.0)
        assert np.abs(salted).max() < cfg.g_max  # no clamping
        x = rng.standard_normal(80)
        out, _ = process_stream(x, gain_file(tmp_path, salted, 16, 4), cfg)
        want, _ = process_stream(x, gain_file(tmp_path, gains, 16, 4), cfg)
        assert np.array_equal(out, want)


class TestMatrixMapping:
    """Each mapping step on a K-frame matrix equals the same step row by row."""

    def test_expand_hermitian_rows(self):
        rng = np.random.default_rng(71)
        half = np.stack([random_hermitian_gains(rng, 9) for _ in range(6)])
        rows = np.stack([expand_hermitian(row) for row in half])
        assert np.array_equal(expand_hermitian(half), rows)

    def test_subband_to_time_rows(self, small_proto):
        rng = np.random.default_rng(73)
        full = expand_hermitian(
            np.stack([random_hermitian_gains(rng, 9) for _ in range(6)]))
        rows = np.stack([subband_to_time(row, small_proto) for row in full])
        assert np.array_equal(subband_to_time(full, small_proto), rows)

    def test_shorten_filter_rows(self):
        taps = np.random.default_rng(79).standard_normal((6, 17))
        rows = np.stack([shorten_filter(row, 8) for row in taps])
        assert np.array_equal(shorten_filter(taps, 8), rows)

    def test_filter_to_freq_rows(self):
        taps = np.random.default_rng(83).standard_normal((6, 8))
        rows = np.stack([filter_to_freq(row) for row in taps])
        assert np.array_equal(filter_to_freq(taps), rows)

    def test_expand_hermitian_names_bad_frame(self):
        half = np.ones((6, 9), dtype=np.complex128)
        half[3, -1] = 1.0 + 1j
        half[5, 0] = 1j
        with pytest.raises(NumericError, match="symmetry error in frame 3:"):
            expand_hermitian(half)

    def test_subband_to_time_names_bad_frame(self, small_proto):
        gains = np.ones((6, 16), dtype=np.complex128)
        gains[2, 3] = 2.0 + 1j  # mirror bin 13 stays at 1: not Hermitian
        gains[4, 5] = 3.0
        with pytest.raises(NumericError, match="non-Hermitian gains in frame 2:"):
            subband_to_time(gains, small_proto)

    def test_single_frame_error_names_no_frame(self, small_proto):
        gains = np.ones(16, dtype=np.complex128)
        gains[3] = 2.0 + 1j
        with pytest.raises(NumericError, match="^non-Hermitian gains: "):
            subband_to_time(gains, small_proto)


def _first_frame_flagged(flags):
    """The first frame a reference predicate flags, or None."""
    return int(np.argmax(flags)) if flags.any() else None


def _raised_frame(fn, *args):
    """The frame a Hermitian check names in its error, or None when it passes."""
    try:
        fn(*args)
    except NumericError as exc:
        return int(str(exc).split(" in frame ")[1].split(":")[0])
    return None


class TestHermitianChecksProperty:
    """The Hermitian checks decide as the plain predicates on ``max|z|`` do.

    ``expand_hermitian`` rejects a frame when ``edge_imag > TOL*max|half|``
    and ``subband_to_time`` when ``residue > TOL*max|z|``.  Both screen with a
    cheaper test first, which must not change a decision or the frame named.
    Perturbations are scaled to land on both sides of the tolerance, and one
    frame is all zero.
    """

    @settings(max_examples=150, deadline=None)
    @given(m=st.integers(1, 32).map(lambda n: 2 * n), extra=st.integers(0, 16),
           num_frames=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
           factors=st.lists(st.sampled_from([0.0, 0.3, 0.999, 1.0, 1.001, 1.5, 3.0]),
                            min_size=8, max_size=8))
    def test_decisions_match_reference(self, m, extra, num_frames, seed, factors):
        rng = np.random.default_rng(seed)
        bins = m // 2 + 1
        half = np.stack([random_hermitian_gains(rng, bins) for _ in range(num_frames)])
        half[rng.integers(num_frames)] = 0.0
        for k in range(num_frames):
            edge = rng.integers(2) * (bins - 1)
            half[k, edge] += 1j * factors[k] * HERMITIAN_IMAG_TOL * np.abs(half[k]).max()
        edge_imag = np.abs(half[:, [0, -1]].imag).max(axis=1)
        want = _first_frame_flagged(
            edge_imag > HERMITIAN_IMAG_TOL * np.abs(half).max(axis=1))
        assert _raised_frame(expand_hermitian, half) == want
        proto = design_prototype(Config(frame_size=m, proto_len=m + 2 * extra,
                                        hop=1, shorten_len=2))
        assert _raised_frame(gains_to_taps, half, proto, 2) == want

        half[:, [0, -1]] = half[:, [0, -1]].real
        full = expand_hermitian(half)
        lag_bins = (np.arange(proto.size) - (proto.size - 1) // 2) % m

        def synthesis(gains):
            return proto * np.fft.fft(gains, axis=-1)[..., lag_bins]

        scale = np.abs(synthesis(full)).max(axis=1)
        for k in range(num_frames):  # an unmirrored imaginary part breaks symmetry
            unit = np.zeros(m, dtype=np.complex128)
            unit[rng.integers(m)] = 1j
            # Sized so the residue is about factors[k] * TOL * max|z|.
            unit *= factors[k] * HERMITIAN_IMAG_TOL * scale[k] / max(
                np.abs(synthesis(unit).imag).max(), 1e-300)
            full[k] += unit
        taps = synthesis(full)
        residue = np.abs(taps.imag).max(axis=1)
        want = _first_frame_flagged(
            residue > HERMITIAN_IMAG_TOL * np.abs(taps).max(axis=1))
        assert _raised_frame(subband_to_time, full, proto) == want


class TestHermitianChainProperty:
    """``expand_hermitian -> subband_to_time`` accepts exactly what ``gains_to_taps`` accepts.

    DC/Nyquist imaginary parts are drawn on both sides of the edge tolerance.
    Accepted edges are written as their real parts, so the chain's synthesis
    is Hermitian to rounding and agrees with ``gains_to_taps``.
    """

    @settings(max_examples=150, deadline=None)
    @given(geometry=geometries(), num_frames=st.integers(1, 8),
           seed=st.integers(0, 2**32 - 1),
           factors=st.lists(st.sampled_from([0.0, 0.5, 0.999, 1.001, 3.0]),
                            min_size=16, max_size=16))
    def test_chain_matches_gains_to_taps(self, geometry, num_frames, seed, factors):
        m, p = geometry["frame_size"], geometry["shorten_len"]
        proto = design_prototype(Config(**geometry))
        rng = np.random.default_rng(seed)
        half = np.stack([random_hermitian_gains(rng, m // 2 + 1)
                         for _ in range(num_frames)])
        limit = HERMITIAN_IMAG_TOL * np.abs(half).max(axis=1)
        half[:, 0] += 1j * np.array(factors[:num_frames]) * limit
        half[:, -1] -= 1j * np.array(factors[8 : 8 + num_frames]) * limit

        def chain(gains):
            return subband_to_time(expand_hermitian(gains), proto)

        want = _raised_frame(gains_to_taps, half, proto, p)
        assert _raised_frame(chain, half) == want
        if want is None:
            taps = gains_to_taps(half, proto, p)
            got = shorten_filter(chain(half), p)
            assert np.max(np.abs(got - taps)) <= 1e-12 * np.max(np.abs(taps))


def _geometry_outputs(geometry, seed):
    """Every output that reads a cached geometry table, for one geometry:
    one-hop analysis through a state and through a ``PolyphaseAnalyzer``,
    then both mappings of the analysed frames' magnitudes."""
    spec = Config(**geometry)
    proto = design_prototype(spec)
    x = np.random.default_rng(seed).standard_normal(3 * spec.hop)
    state = EngineState(np.zeros(spec.proto_len + 1), spec.hop)
    analyzer = PolyphaseAnalyzer(proto, spec)
    hops = [x[k * spec.hop : (k + 1) * spec.hop] for k in range(3)]
    frames = np.concatenate([analyze_polyphase(hop, proto, spec, state).frames
                             for hop in hops])
    pushed = np.stack([analyzer.push(hop) for hop in hops])
    gains = np.abs(frames)
    return (frames, pushed, subband_to_time(expand_hermitian(gains), proto),
            gains_to_taps(gains, proto, geometry["shorten_len"]))


def _clear_geometry_tables():
    for table in (filterbank._phase_correction, equalizer._lag_bins,
                  equalizer._central_bins):
        table.cache_clear()


class TestGeometryTables:
    """The index and phase tables built once per geometry and shared."""

    @pytest.mark.parametrize("table, args", [
        (filterbank._phase_correction, (16, 8)),
        (filterbank._phase_correction, (8, 11)),
        (equalizer._lag_bins, (17, 16)),
        (equalizer._central_bins, (8, 16)),
    ], ids=["phase-sign", "phase-exp", "lag-bins", "central-bins"])
    def test_one_read_only_array_per_geometry(self, table, args):
        first = table(*args)
        assert table(*args) is first
        with pytest.raises(ValueError, match="read-only"):
            first[0] = first[1]

    @settings(max_examples=60, deadline=None)
    @given(geometry=geometries(), seed=st.integers(0, 2**32 - 1))
    def test_mappings_equal_an_arange_oracle(self, geometry, seed):
        """The cached bins give the bits of index arrays built afresh."""
        m, p = geometry["frame_size"], geometry["shorten_len"]
        proto = design_prototype(Config(**geometry))
        tau = (proto.size - 1) // 2
        rng = np.random.default_rng(seed)
        half = np.stack([random_hermitian_gains(rng, m // 2 + 1) for _ in range(3)])
        full = expand_hermitian(half)
        lag_bins = (np.arange(proto.size) - tau) % m
        want = (proto * np.fft.fft(full, axis=-1)[..., lag_bins]).real
        assert np.array_equal(subband_to_time(full, proto), want)
        lags = np.arange(tau - p // 2, tau + p // 2)
        kernel = np.fft.irfft(half, n=m, axis=-1, norm="forward")
        want = kernel[..., (tau - lags) % m] * proto[lags]
        assert np.array_equal(gains_to_taps(half, proto, p), want)

    @settings(max_examples=60, deadline=None)
    @given(first=geometries(), second=geometries(), seed=st.integers(0, 2**32 - 1))
    @example(first=dict(frame_size=16, proto_len=16, hop=4, shorten_len=8),
             second=dict(frame_size=16, proto_len=22, hop=4, shorten_len=8), seed=1)
    @example(first=dict(frame_size=16, proto_len=22, hop=4, shorten_len=8),
             second=dict(frame_size=16, proto_len=22, hop=4, shorten_len=12), seed=2)
    @example(first=dict(frame_size=16, proto_len=22, hop=4, shorten_len=8),
             second=dict(frame_size=8, proto_len=22, hop=4, shorten_len=8), seed=3)
    def test_alternating_geometries_give_each_ones_bits(self, first, second, seed):
        """Calls that alternate between two geometries in one process give
        each geometry's bits from a fresh process (tables cleared).  The
        explicit pairs share M and P, M and L, or L and P, so a table keyed on too
        few of them fails here."""
        alone = []
        for geometry in (first, second):
            _clear_geometry_tables()
            alone.append(_geometry_outputs(geometry, seed))
        for _ in range(2):
            for geometry, want in zip((first, second), alone):
                got = _geometry_outputs(geometry, seed)
                assert all(np.array_equal(a, b) for a, b in zip(got, want))


class TestOneFrameEdgeScreen:
    """A single 1-D frame through the DC/Nyquist check, whose all-zero edges
    skip the reductions: both sides of the tolerance, the zero signs, and a
    real input."""

    @staticmethod
    def _mappings(small_proto):
        return {"expand_hermitian": expand_hermitian,
                "gains_to_taps": lambda half: gains_to_taps(half, small_proto, 8)}

    @pytest.mark.parametrize("name", ["expand_hermitian", "gains_to_taps"])
    @pytest.mark.parametrize("edge", [0, -1], ids=["dc", "nyquist"])
    def test_tolerance_on_each_side(self, small_proto, name, edge):
        mapping = self._mappings(small_proto)[name]
        half = random_hermitian_gains(np.random.default_rng(131), 9)
        limit = HERMITIAN_IMAG_TOL * np.abs(half).max()
        accepted = half.copy()
        accepted[edge] += 0.999j * limit
        assert np.array_equal(mapping(accepted), mapping(half))
        rejected = half.copy()
        rejected[edge] += 1.001j * limit
        with pytest.raises(NumericError) as info:
            mapping(rejected)
        assert str(info.value).startswith(
            "Hermitian symmetry error: DC/Nyquist bins are not real (|imag| = ")
        assert "in frame" not in str(info.value)

    @pytest.mark.parametrize("name", ["expand_hermitian", "gains_to_taps"])
    def test_negative_zero_edges_and_real_input_pass_unchanged(self, small_proto, name):
        mapping = self._mappings(small_proto)[name]
        real = np.random.default_rng(137).uniform(0.1, 1.0, 9)
        want = mapping(real.astype(np.complex128)).tobytes()
        assert mapping(real).tobytes() == want
        signed = real.astype(np.complex128)
        signed.imag[[0, -1]] = -0.0
        assert np.signbit(signed.imag[[0, -1]]).all()
        assert mapping(signed).tobytes() == want

    def test_matrix_message_names_the_first_bad_frame(self, small_proto):
        """Counted from ``first_frame``; ``expand_hermitian``'s matrix message
        is pinned in ``TestMatrixMapping``."""
        half = np.ones((6, 9), dtype=np.complex128)
        half[2, -1] = 1.0 + 1j
        half[4, 0] = 5j
        with pytest.raises(NumericError, match="^Hermitian symmetry error in frame 12: "):
            gains_to_taps(half, small_proto, 8, first_frame=10)


class TestEngineState:
    def test_one_class_for_analysis_and_filter(self):
        """The analysis and the filter slide one kind of state; the package
        root and ``fbeq.equalizer`` name the class ``fbeq.filterbank`` owns."""
        import fbeq
        assert fbeq.EngineState is EngineState is filterbank.EngineState

    def test_create_rejects_odd_shorten_len(self):
        with pytest.raises(ConfigError, match="positive even"):
            EngineState.create(7, 4)

    def test_create_zero_history(self):
        state = EngineState.create(8, 4)
        np.testing.assert_array_equal(state.history, np.zeros(16))

    def test_push_shifts(self):
        state = EngineState.create(2, 2)
        state.push([1.0, 2.0])
        np.testing.assert_array_equal(state.history, [0.0, 0.0, 1.0, 2.0])
        state.push([3.0, 4.0])
        np.testing.assert_array_equal(state.history, [1.0, 2.0, 3.0, 4.0])

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
        state = EngineState.create(8, 4)
        out = np.concatenate(
            [direct_filter_block(state, taps, x[k * 4 : (k + 1) * 4])
             for k in range(25)]
        )
        want = np.convolve(x, taps)[: out.size]
        np.testing.assert_allclose(out, want, rtol=0,
                                   atol=1e-12 * np.max(np.abs(want)))

    def test_ols_equals_global_convolution(self):
        rng = np.random.default_rng(31)
        taps = rng.standard_normal(8)
        x = rng.standard_normal(25 * 4)
        bins = filter_to_freq(taps)
        state = EngineState.create(8, 4)
        out = np.concatenate(
            [ols_filter_frame(state, bins, x[k * 4 : (k + 1) * 4])
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
            a = direct_filter_block(s1, filters[k], block)
            b = ols_filter_frame(s2, filter_to_freq(filters[k]), block)
            peak = max(peak, np.max(np.abs(a)))
            worst = max(worst, np.max(np.abs(a - b)))
        assert worst <= 1e-12 * peak

    def test_ols_response_size_mismatch(self):
        state = EngineState.create(8, 4)
        with pytest.raises(ConfigError, match="block"):
            ols_filter_frame(state, np.ones(5), np.ones(4))

    def test_direct_taps_size_mismatch(self):
        state = EngineState.create(8, 4)
        with pytest.raises(ConfigError, match="does not match"):
            direct_filter_block(state, np.ones(6), np.ones(4))


class TestMultiHopFiltering:
    """``n`` hops in one call give the bits of ``n`` one-hop calls."""

    @pytest.mark.parametrize("hops", [1, 2, 5])
    def test_ols_and_direct(self, hops):
        rng = np.random.default_rng(107)
        x = rng.standard_normal(12 * 4)
        filters = rng.standard_normal((12, 8))
        for step, to_filter in ((ols_filter_frame, filter_to_freq),
                                (direct_filter_block, np.asarray)):
            one, many = EngineState.create(8, 4), EngineState.create(8, 4)
            want = np.concatenate([step(one, to_filter(filters[k]), x[4 * k : 4 * k + 4])
                                   for k in range(12)])
            got = np.concatenate([  # the last call takes what is left
                step(many, to_filter(filters[k : k + hops]), x[4 * k : 4 * (k + hops)])
                for k in range(0, 12, hops)])
            assert np.array_equal(got, want)
            assert np.array_equal(many.history, one.history)

    @pytest.mark.parametrize("step", [ols_filter_frame, direct_filter_block])
    def test_zero_hops_change_nothing(self, step):
        state = EngineState.create(8, 4)
        width = 9 if step is ols_filter_frame else 8
        step(state, np.ones(width), np.arange(4.0))
        before = state.history.copy()
        assert step(state, np.empty((0, width)), np.empty(0)).shape == (0,)
        assert np.array_equal(state.history, before)

    @pytest.mark.parametrize("step", [ols_filter_frame, direct_filter_block])
    def test_samples_must_fill_one_hop_per_filter(self, step):
        state = EngineState.create(8, 4)
        filters = np.ones((3, 9)) if step is ols_filter_frame else np.ones((3, 8))
        with pytest.raises(DataError, match="block of 12 samples, got 8"):
            step(state, filters, np.ones(8))


def _per_hop_entries():
    """Each per-hop entry point as ``(fresh state, step(state, samples), samples
    per call)`` on the 16/16/4 geometry with ``P = 8``; the filters are fixed."""
    spec = Config(frame_size=16, proto_len=16, hop=4, shorten_len=8)
    taps = np.random.default_rng(113).standard_normal((3, 8))
    bins = filter_to_freq(taps)
    return {
        "analyzer-push": (lambda: PolyphaseAnalyzer(design_prototype(spec), spec),
                          lambda state, x: state.push(x), 4),
        "ols-one-hop": (lambda: EngineState.create(8, 4),
                        lambda state, x: ols_filter_frame(state, bins[0], x), 4),
        "direct-one-hop": (lambda: EngineState.create(8, 4),
                           lambda state, x: direct_filter_block(state, taps[0], x), 4),
        "ols-three-hops": (lambda: EngineState.create(8, 4),
                           lambda state, x: ols_filter_frame(state, bins, x), 12),
        "direct-three-hops": (lambda: EngineState.create(8, 4),
                              lambda state, x: direct_filter_block(state, taps, x), 12),
    }


PER_HOP_ENTRIES = _per_hop_entries()


class TestPerHopNonFiniteInput:
    """A NaN or infinite sample is rejected where its hop enters, before any
    state changes, so the stream goes on as if the bad hop never came."""

    @pytest.mark.parametrize("entry", PER_HOP_ENTRIES)
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_rejected_and_state_kept(self, entry, value, where):
        fresh, step, size = PER_HOP_ENTRIES[entry]
        x = np.random.default_rng(127).standard_normal(3 * size)
        bad = x[size : 2 * size].copy()
        index = {"first": 0, "middle": size // 2, "last": size - 1}[where]
        bad[index] = value
        clean_run, faulty_run = fresh(), fresh()
        step(clean_run, x[:size])
        step(faulty_run, x[:size])
        message = f"input sample {index} is non-finite ({value})"
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            step(faulty_run, bad)
        want = step(clean_run, x[size : 2 * size])
        got = step(faulty_run, x[size : 2 * size])
        assert np.array_equal(got, want)


def clamp_oracle(frames, g_max):
    """The clamp forming ``|g|`` for every bin, as it was before the screen."""
    mag = np.abs(frames)
    over = mag > g_max
    if not np.any(over):
        return frames
    out = frames.copy()
    out[over] *= g_max / mag[over]
    return out


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

    @pytest.mark.parametrize("case", ["parts-under-half", "part-above-half",
                                      "just-under-g-max", "over-g-max"])
    def test_equals_unscreened_clamp(self, tmp_path, case):
        """Gain files on both sides of the ``g_max / 2`` screen and of
        ``g_max`` itself: the clamp and ``process_stream`` give the bits of
        the clamp that forms every ``|g|``."""
        cfg = Config()
        rng = np.random.default_rng(61)
        stored, bins = 43, cfg.frame_size // 2 + 1  # 3 records past the input
        gains = random_hermitian_gains(rng, stored * bins).reshape(stored, bins)
        gains[:, [0, -1]] = gains[:, [0, -1]].real
        gains /= np.max(np.abs(gains.view(np.float64)))  # every part in [-1, 1]
        # Bin 7 of a few frames sits at the case's magnitude, at several phases.
        angles = np.pi * np.array([0.0, 0.25, 0.5, 0.9])
        size = {"parts-under-half": 1.0, "part-above-half": 2.0 * (1 + 1e-6),
                "just-under-g-max": cfg.g_max * (1 - 1e-6),
                "over-g-max": cfg.g_max * (1 + 1e-6)}[case]
        gains[[2, 20, 41, 42], 7] = size * np.exp(1j * angles)
        gains[[5, 41], 0] = size  # and a DC bin
        path = gain_file(tmp_path, gains, cfg.frame_size, cfg.hop)
        rows = load_gain_stream(path)[1]
        parts, mag = np.abs(rows.view(np.float64)), np.abs(rows)
        if case == "parts-under-half":
            assert parts.max() <= cfg.g_max / 2
        elif case == "part-above-half":
            assert parts.max() > cfg.g_max / 2 and mag.max() <= cfg.g_max
        elif case == "just-under-g-max":
            assert cfg.g_max * (1 - 1e-5) < mag.max() <= cfg.g_max
        else:
            assert mag.max() > cfg.g_max

        clamped = _clamp_magnitude(rows, cfg.g_max)
        assert np.array_equal(clamped, clamp_oracle(rows, cfg.g_max))
        assert (clamped is rows) == (case != "over-g-max")
        for row in np.split(rows, stored):  # a block may hold one such bin
            assert np.array_equal(_clamp_magnitude(row, cfg.g_max),
                                  clamp_oracle(row, cfg.g_max))
        x = np.random.default_rng(67).standard_normal(40 * cfg.hop)
        out, _ = process_stream(x, path, cfg)
        with patch.object(equalizer, "_clamp_magnitude", clamp_oracle):
            want, _ = process_stream(x, path, cfg)
        assert np.array_equal(out, want)


def small_config(**overrides):
    base = dict(frame_size=16, proto_len=16, hop=4, shorten_len=8)
    base.update(overrides)
    return Config(**base)


class TestProcessStream:
    def test_unity_gains_delay_by_half_window(self, tmp_path):
        cfg = small_config()
        rng = np.random.default_rng(41)
        x = rng.standard_normal(4 * 120)
        path = gain_file(tmp_path, np.ones((120, 9)), 16, 4)
        out, report = process_stream(x, path, cfg)
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

    def test_type_b_identity_response(self, tmp_path):
        cfg = small_config()
        rng = np.random.default_rng(53)
        x = rng.standard_normal(4 * 60)
        frames = np.ones((60, 9))  # rfft of delta at 0
        out, _ = process_stream(
            x, gain_file(tmp_path, frames, 16, 4, TYPE_DFT_RESPONSES), cfg)
        np.testing.assert_allclose(out, x[:240], rtol=0,
                                   atol=1e-12 * np.max(np.abs(x)))

    def test_type_b_rejects_direct_mode(self, tmp_path):
        path = gain_file(tmp_path, np.ones((10, 9)), 16, 4, TYPE_DFT_RESPONSES)
        with pytest.raises(ConfigError, match="ols"):
            process_stream(np.ones(40), path, small_config(mode="direct"))

    @pytest.mark.parametrize("mode", ["ols", "direct"])
    def test_rejects_analysis_frames(self, tmp_path, mode):
        path = gain_file(tmp_path, np.ones((10, 9)), 16, 4, TYPE_ANALYSIS_FRAMES)
        with pytest.raises(ConfigError, match="^record type 2 at offset 6 holds "
                                              "analysis frames, not gains$"):
            process_stream(np.ones(40), path, small_config(mode=mode))

    def test_stream_too_short(self, tmp_path):
        path = gain_file(tmp_path, np.ones((3, 9)), 16, 4)
        with pytest.raises(DataError, match="ends after frame 3"):
            process_stream(np.ones(40), path, small_config())

    @pytest.mark.parametrize("block_frames", [1, 4, 64])
    @pytest.mark.parametrize("mode", ["ols", "direct"])
    def test_hermitian_error_names_stream_frame(self, tmp_path, block_frames, mode):
        frames = np.ones((20, 9), dtype=np.complex128)
        frames[13, 0] = 1.0 + 0.5j
        frames[17, -1] = 1j
        path = gain_file(tmp_path, frames, 16, 4)
        with patch.object(filterbank, "BLOCK_FRAMES", block_frames):
            with pytest.raises(NumericError, match="symmetry error in frame 13:"):
                process_stream(np.ones(80), path, small_config(mode=mode))

    @pytest.mark.parametrize("block_frames", [1, 4, 64])
    @pytest.mark.parametrize("mode", ["ols", "direct"])
    def test_hermitian_error_past_input_end(self, tmp_path, block_frames, mode):
        frames = np.ones((60, 9), dtype=np.complex128)
        frames[55, 0] = 1.0 + 0.5j
        path = gain_file(tmp_path, frames, 16, 4)
        with patch.object(filterbank, "BLOCK_FRAMES", block_frames):
            with pytest.raises(NumericError, match="symmetry error in frame 55:"):
                process_stream(np.ones(200), path, small_config(mode=mode))

    def test_gain_file_checked_for_input_under_one_hop(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            process_stream(np.ones(3), tmp_path / "missing.fbeg", small_config())
        path = gain_file(tmp_path, np.ones((10, 17)), 32, 4)
        with pytest.raises(ConfigError, match="written for frame size 32"):
            process_stream(np.ones(3), path, small_config())
        frames = np.ones((2, 9), dtype=np.complex128)
        frames[1, -1] = 1j
        path = gain_file(tmp_path, frames, 16, 4)
        with pytest.raises(NumericError, match="symmetry error in frame 1:"):
            process_stream(np.ones(3), path, small_config())

    @pytest.mark.parametrize("source", [3, b"gains.fbeg", None])
    def test_rejects_gain_source_of_another_type(self, source):
        with patch("builtins.open") as opened:
            with pytest.raises(ConfigError, match=f"got {type(source).__name__}$"):
                process_stream(np.ones(40), source, small_config())
        opened.assert_not_called()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_input(self, value):
        x = np.ones(4 * 30)
        x[37] = value
        x[50] = np.nan
        with pytest.raises(DataError, match=r"input sample 37 is non-finite"):
            process_stream(x, "mmse-lsa", small_config())

    def test_stream_geometry_mismatch(self, tmp_path):
        path = gain_file(tmp_path, np.ones((10, 17)), 32, 4)
        with pytest.raises(ConfigError, match="written for frame size 32"):
            process_stream(np.ones(40), path, small_config())

    def test_loads_stream_from_file(self, tmp_path):
        cfg = small_config()
        rng = np.random.default_rng(59)
        x = rng.standard_normal(4 * 30)
        path = tmp_path / "unity.fbeg"
        write_gain_stream(path, np.ones((30, 9), dtype=np.complex64),
                          TYPE_SUBBAND_GAINS, 16, 4)
        out_file, _ = process_stream(x, path, cfg)
        want = per_hop_chain(x, np.ones((30, 9)), cfg, TYPE_SUBBAND_GAINS)
        np.testing.assert_array_equal(out_file, want)

    def test_external_gains_are_clamped(self, tmp_path):
        cfg = small_config()  # g_max defaults to 4.0
        rng = np.random.default_rng(61)
        x = rng.standard_normal(4 * 40)
        hot = gain_file(tmp_path, np.full((40, 9), 100.0), 16, 4)
        out_hot, _ = process_stream(x, hot, cfg)
        out_4, _ = process_stream(x, gain_file(tmp_path, np.full((40, 9), 4.0), 16, 4),
                                  cfg)
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


class TestGainPathHooks:
    """Every gain path reaches the filter through the ``fbeq.equalizer`` module
    globals that perfbench's tracer wraps, as often as its blocks need."""

    HOOKS = ("design_prototype", "analyze_polyphase", "estimate_gains",
             "ols_filter_frame", "direct_filter_block", "_clamp_magnitude")

    @pytest.mark.parametrize("kind, mode", [
        ("mmse-lsa", "ols"), ("mmse-lsa", "direct"), ("type-a", "ols"),
        ("type-a", "direct"), ("type-b", "ols")])
    def test_each_hook_called_per_block(self, tmp_path, kind, mode):
        cfg = small_config(mode=mode)
        # Blocks of 4 frames: 3 cover the input's 10 frames, 1 the 3 records past it.
        num_frames, stored, blocks, past = 10, 13, 3, 1
        x = np.random.default_rng(71).standard_normal(num_frames * cfg.hop + 2)
        source = "mmse-lsa"
        if kind == "type-a":
            gains = random_hermitian_gains(np.random.default_rng(73), stored * 9)
            gains = gains.reshape(stored, 9)
            gains[:, [0, -1]] = gains[:, [0, -1]].real
            source = gain_file(tmp_path, gains, cfg.frame_size, cfg.hop)
        elif kind == "type-b":
            source = gain_file(tmp_path, np.ones((stored, cfg.shorten_len + 1)),
                               cfg.frame_size, cfg.hop, TYPE_DFT_RESPONSES)
        counts = dict.fromkeys(self.HOOKS, 0)

        def counted(name, function):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return function(*args, **kwargs)
            return wrapper

        with patch.object(filterbank, "BLOCK_FRAMES", 4):
            want, _ = process_stream(x, source, cfg)
            with contextlib.ExitStack() as hooks:
                for name in self.HOOKS:
                    hooks.enter_context(patch.object(
                        equalizer, name, counted(name, getattr(equalizer, name))))
                out, _ = process_stream(x, source, cfg)
        assert np.array_equal(out, want)
        assert counts == {
            "design_prototype": 1,
            "analyze_polyphase": blocks if kind == "mmse-lsa" else 0,
            "estimate_gains": blocks if kind == "mmse-lsa" else 0,
            "ols_filter_frame": blocks if mode == "ols" else 0,
            "direct_filter_block": blocks if mode == "direct" else 0,
            "_clamp_magnitude": blocks + past if kind == "type-a" else 0,
        }


class TestInputPowerOverflow:
    """An input so loud that its a posteriori SNR overflows raises
    ``NumericError`` naming the first such frame, counted from the start of
    the stream; a tenth of the lower level still gives finite output."""

    @pytest.mark.parametrize("mode", ["ols", "direct"])
    @pytest.mark.parametrize("scale", [1e156, 1e200])
    @pytest.mark.parametrize("onset", [0, 100], ids=["from-start", "second-block"])
    def test_names_first_overflowing_frame(self, mode, scale, onset):
        cfg = Config(mode=mode)
        spec = cfg.filterbank_spec()
        x = np.random.default_rng(71).standard_normal(200 * cfg.hop)
        x[onset * cfg.hop:] *= scale
        frames = analyze_polyphase(x, design_prototype(spec), spec).frames
        first = first_overflowing_frame(frames, cfg.estimator_params())
        assert first >= onset
        with pytest.raises(NumericError,
                           match=f"input power overflowed at frame {first}: "):
            process_stream(x, "mmse-lsa", cfg)

    @pytest.mark.parametrize("mode", ["ols", "direct"])
    def test_finite_just_below_overflow(self, mode):
        x = 1e155 * np.random.default_rng(71).standard_normal(200 * 64)
        out, _ = process_stream(x, "mmse-lsa", Config(mode=mode))
        assert np.isfinite(out).all()


class TestOutputOverflow:
    """A finite input loud enough that a gain file's filtering overflows
    raises ``NumericError`` naming the first frame whose output is not
    finite, counted from the start of the stream, with no NumPy warning
    (the test suite turns ``RuntimeWarning`` into errors)."""

    @staticmethod
    def unity_file(tmp_path, record_type, frames):
        bins = 257 if record_type == TYPE_SUBBAND_GAINS else 129
        return gain_file(tmp_path, np.ones((frames, bins), dtype=np.complex64),
                         512, 64, record_type)

    @pytest.mark.parametrize("record_type", [TYPE_SUBBAND_GAINS, TYPE_DFT_RESPONSES],
                             ids=["type-A", "type-B"])
    def test_whole_input_overflowing(self, tmp_path, record_type):
        source = self.unity_file(tmp_path, record_type, 10)
        with pytest.raises(NumericError, match="^filtered output overflowed at "
                                               "frame 0: output sample 0 is not finite$"):
            process_stream(np.full(640, 1e307), source, Config())

    @pytest.mark.parametrize("record_type", [TYPE_SUBBAND_GAINS, TYPE_DFT_RESPONSES],
                             ids=["type-A", "type-B"])
    def test_names_the_first_frame_of_a_later_block(self, tmp_path, record_type):
        """The per-hop chain, run with the warnings silenced and each filter
        told its frame, is the oracle: it raises the same error."""
        cfg = Config()
        source = self.unity_file(tmp_path, record_type, 200)
        x = np.random.default_rng(73).standard_normal(200 * cfg.hop)
        x[150 * cfg.hop + 9 :] = 1e307  # in the third block of 64 frames
        rows = load_gain_stream(source)[1]
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError) as reference:
                per_hop_chain(x, rows, cfg, record_type)
        message = str(reference.value)
        frame, sample = map(int, re.fullmatch(
            r"filtered output overflowed at frame (\d+): output sample (\d+) "
            r"is not finite", message).groups())
        assert frame >= 150 and frame == sample // cfg.hop
        with pytest.raises(NumericError, match=f"^{message}$"):
            process_stream(x, source, cfg)

    @pytest.mark.parametrize("step, response, first_sample", [
        (ols_filter_frame, np.ones(129, dtype=complex), 0),
        (direct_filter_block, np.ones(128), 17),  # 18 x 1e307 overflows
    ], ids=["ols", "direct"])
    @pytest.mark.parametrize("first_frame", [None, 5])
    def test_per_hop_filters_raise(self, step, response, first_sample, first_frame):
        """Either per-hop filter screens its own output, so a library caller
        gets the error ``process_stream`` gives, not non-finite audio, on
        every call; the frame and the sample are counted from
        ``first_frame``."""
        state = EngineState.create(128, 64)
        frame = first_frame or 0
        kwargs = {} if first_frame is None else {"first_frame": first_frame}
        with np.errstate(over="ignore", invalid="ignore"):
            for sample in (first_sample, 0, 0):  # later hops overflow at once
                message = (f"filtered output overflowed at frame {frame}: "
                           f"output sample {frame * 64 + sample} is not finite")
                with pytest.raises(NumericError, match=f"^{message}$"):
                    step(state, response, np.full(64, 1e307), **kwargs)

    def test_finite_output_passes(self, tmp_path):
        """Direct filtering of the same input stays finite: no error."""
        source = self.unity_file(tmp_path, TYPE_SUBBAND_GAINS, 10)
        out, _ = process_stream(np.full(640, 1e307), source, Config(mode="direct"))
        assert np.isfinite(out).all()


def per_hop_chain(x, rows, cfg, record_type=None, empty_at=None):
    """Run the public per-hop functions one hop at a time.

    ``record_type`` None runs the built-in estimator
    (``PolyphaseAnalyzer.push -> update_noise_psd -> mmse_lsa_gain``);
    otherwise ``rows`` holds one gain-stream record per frame.  Filtering
    follows ``cfg.mode``.  Before hop ``empty_at``, the estimator and the
    filter are also called with zero hops, which must return nothing.
    """
    spec, p, hop = cfg.filterbank_spec(), cfg.shorten_len, cfg.hop
    proto = design_prototype(spec)
    params = cfg.estimator_params()
    analyzer = PolyphaseAnalyzer(proto, spec)
    tracker = NoiseTrackerState.initial(spec.num_bins, params)
    engine = EngineState.create(p, hop)
    direct = cfg.mode == "direct"
    out = []
    for k in range(spec.num_frames(x.size)):
        block = x[k * hop : (k + 1) * hop]
        if k == empty_at:
            if record_type is None:
                none = np.empty((0, spec.num_bins), dtype=np.complex128)
                tracker = update_noise_psd(tracker, none, params)
                assert mmse_lsa_gain(none, tracker, params).values.shape == none.shape
            step = direct_filter_block if direct else ols_filter_frame
            assert step(engine, np.empty((0, p if direct else p + 1)),
                        block[:0]).shape == (0,)
        if record_type == TYPE_DFT_RESPONSES:
            resp = rows[k]
        else:
            if record_type is None:
                frame = analyzer.push(block)
                tracker = update_noise_psd(tracker, frame, params)
                gains = mmse_lsa_gain(frame, tracker, params).values
            else:
                gains = _clamp_magnitude(rows[k : k + 1], cfg.g_max)[0]
            taps = gains_to_taps(gains, proto, p)
            if direct:
                out.append(direct_filter_block(engine, taps, block, first_frame=k))
                continue
            resp = filter_to_freq(taps)
        out.append(ols_filter_frame(engine, resp, block, first_frame=k))
    return np.concatenate(out)


class TestZeroHopCalls:
    """A zero-hop call inside the per-hop chain returns nothing and leaves its
    state as it was, so every later hop keeps its bits: in the noise tracker
    and gain rule (during the running mean and after it), and in overlap-save
    and direct filtering."""

    @pytest.mark.parametrize("mode, record_type", [
        ("ols", None), ("direct", None), ("ols", TYPE_DFT_RESPONSES)],
        ids=["estimator-ols", "estimator-direct", "type-B-ols"])
    def test_later_hops_unchanged(self, mode, record_type):
        cfg = Config(mode=mode, frame_size=16, proto_len=16, hop=4,
                     shorten_len=8)
        rng = np.random.default_rng(131)
        x = rng.standard_normal(30 * 4)
        rows = np.fft.rfft(rng.standard_normal((30, 8)), n=16, axis=1)
        want = per_hop_chain(x, rows, cfg, record_type)
        for empty_at in (0, 1, 12):
            got = per_hop_chain(x, rows, cfg, record_type, empty_at)
            assert np.array_equal(got, want)


GEOMETRIES = [
    dict(frame_size=512, proto_len=512, hop=64, shorten_len=128),
    dict(frame_size=16, proto_len=16, hop=4, shorten_len=8),
    dict(frame_size=256, proto_len=384, hop=32, shorten_len=64),
]


class TestBatchEqualsPerHop:
    """``process_stream`` is the per-hop chain vectorised over frames, bit for bit."""

    @pytest.mark.parametrize("geometry", GEOMETRIES,
                             ids=lambda g: "{frame_size}-{proto_len}-{hop}-"
                                           "{shorten_len}".format(**g))
    def test_estimator(self, geometry):
        rng = np.random.default_rng(89)
        x = make_speech(0.5) + 0.05 * rng.standard_normal(8000)
        cfg = Config(**geometry)
        out, _ = process_stream(x, "mmse-lsa", cfg)
        assert np.array_equal(out, per_hop_chain(x, None, cfg))

    def test_subband_gain_stream(self, tmp_path):
        cfg = Config()
        rng = np.random.default_rng(97)
        x = rng.standard_normal(64 * 40)
        gains = random_hermitian_gains(rng, 257 * 40).reshape(40, 257) * 2.0
        gains[:, [0, -1]] = gains[:, [0, -1]].real  # some bins above g_max
        path = gain_file(tmp_path, gains, 512, 64)
        out, _ = process_stream(x, path, cfg)
        rows = load_gain_stream(path)[1]
        assert np.array_equal(out, per_hop_chain(x, rows, cfg, TYPE_SUBBAND_GAINS))

    def test_dft_response_stream(self, tmp_path):
        cfg = Config()
        rng = np.random.default_rng(101)
        x = rng.standard_normal(64 * 40)
        responses = np.fft.rfft(rng.standard_normal((40, 128)), n=256, axis=1)
        path = gain_file(tmp_path, responses, 512, 64, TYPE_DFT_RESPONSES)
        out, _ = process_stream(x, path, cfg)
        rows = load_gain_stream(path)[1]
        assert np.array_equal(out, per_hop_chain(x, rows, cfg, TYPE_DFT_RESPONSES))


class TestBatchEqualsPerHopProperty:
    """The batch/per-hop equality above, over drawn geometries instead of three.

    The batch runs in blocks of fewer frames than the signal has, so every
    draw crosses at least one block boundary.  Gain files hold 0-5 records
    past the input's last frame, and the input may end in a partial hop.
    """

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(geometry=geometries(), num_frames=st.integers(2, 40),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_every_gain_source(self, tmp_path, geometry, num_frames, seed, data):
        block_frames = data.draw(st.integers(1, min(7, num_frames - 1)),
                                 label="block_frames")
        extra = data.draw(st.integers(0, 5), label="extra")
        tail = data.draw(st.integers(0, geometry["hop"] - 1), label="tail")
        with patch.object(filterbank, "BLOCK_FRAMES", block_frames):
            self._check_every_gain_source(tmp_path, geometry, num_frames, extra,
                                          tail, seed)

    @staticmethod
    def _check_every_gain_source(tmp_path, geometry, num_frames, extra, tail, seed):
        cfg = Config(**geometry)
        m, hop, p = cfg.frame_size, cfg.hop, cfg.shorten_len
        bins, stored = m // 2 + 1, num_frames + extra
        rng = np.random.default_rng(seed)
        n = num_frames * hop + tail
        # Loud and quiet stretches, so the noise tracker's gate both opens and shuts.
        x = rng.standard_normal(n) * np.where(np.arange(n) // (4 * hop) % 2, 4.0, 1.0)

        out, _ = process_stream(x, "mmse-lsa", cfg)
        assert np.array_equal(out, per_hop_chain(x, None, cfg))

        gains = 3.0 * random_hermitian_gains(rng, stored * bins).reshape(stored, bins)
        gains[:, [0, -1]] = gains[:, [0, -1]].real  # some bins above g_max
        path = gain_file(tmp_path, gains, m, hop)
        out, _ = process_stream(x, path, cfg)
        rows = load_gain_stream(path)[1]
        assert np.array_equal(out, per_hop_chain(x, rows, cfg, TYPE_SUBBAND_GAINS))

        responses = np.fft.rfft(rng.standard_normal((stored, p)), n=2 * p, axis=1)
        path = gain_file(tmp_path, responses, m, hop, TYPE_DFT_RESPONSES)
        out, _ = process_stream(x, path, cfg)
        rows = load_gain_stream(path)[1]
        assert np.array_equal(out, per_hop_chain(x, rows, cfg, TYPE_DFT_RESPONSES))


class TestOlsEqualsDirectProperty:
    """Criterion 03 over drawn geometries: overlap-save and direct FIR agree.

    The signal spans at least 2P samples, so the output is more than the
    filters' near-zero edge taps and a relative error means something.  Both
    modes run in blocks of fewer frames than the signal has, so both cross
    block boundaries; direct filtering at that block size gives the bits of
    one block over the whole signal.  The gain file holds 0-5 records past the
    input's last frame.
    """

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(geometry=geometries(), seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_estimator_and_subband_gains(self, tmp_path, geometry, seed, data):
        shortest = -(-2 * geometry["shorten_len"] // geometry["hop"])
        num_frames = data.draw(st.integers(shortest, shortest + 40), label="num_frames")
        block_frames = data.draw(st.integers(1, min(7, num_frames - 1)),
                                 label="block_frames")
        ols = Config(mode="ols", **geometry)
        direct = Config(mode="direct", **geometry)
        m, hop = ols.frame_size, ols.hop
        rng = np.random.default_rng(seed)
        n = num_frames * hop
        x = rng.standard_normal(n) * np.where(np.arange(n) // (4 * hop) % 2, 4.0, 1.0)
        stored = num_frames + data.draw(st.integers(0, 5), label="extra")
        gains = 3.0 * random_hermitian_gains(rng, stored * (m // 2 + 1)).reshape(
            stored, m // 2 + 1)
        gains[:, [0, -1]] = gains[:, [0, -1]].real  # some bins above g_max
        for source in ("mmse-lsa", gain_file(tmp_path, gains, m, hop)):
            with patch.object(filterbank, "BLOCK_FRAMES", block_frames):
                y_ols, _ = process_stream(x, source, ols)
                y_dir, _ = process_stream(x, source, direct)
            with patch.object(filterbank, "BLOCK_FRAMES", num_frames):
                y_one, _ = process_stream(x, source, direct)
            assert np.array_equal(y_dir, y_one)
            assert np.max(np.abs(y_ols - y_dir)) <= 1e-9 * np.max(np.abs(y_dir))


class TestUnityGainProperty:
    """Criterion 01 over drawn geometries, in both modes: unity subband gains
    pass the input through, delayed by P/2, once ``L + 2P`` samples have
    filled the analysis and filter histories.  This holds for P >= 2M too,
    since the prototype is zero at the lags ``tau +- M``."""

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(geometry=geometries(), mode=st.sampled_from(["ols", "direct"]),
           extra=st.integers(1, 30), seed=st.integers(0, 2**32 - 1))
    def test_delayed_identity(self, tmp_path, geometry, mode, extra, seed):
        cfg = Config(mode=mode, **geometry)
        m, hop, p = cfg.frame_size, cfg.hop, cfg.shorten_len
        warm = cfg.proto_len + 2 * p
        num_frames = -(-warm // hop) + extra
        x = np.random.default_rng(seed).standard_normal(num_frames * hop)
        path = gain_file(tmp_path, np.ones((num_frames, m // 2 + 1)), m, hop)
        y, _ = process_stream(x, path, cfg)
        ref = x[warm - p // 2 : y.size - p // 2]
        assert np.linalg.norm(y[warm:] - ref) <= 1e-9 * np.linalg.norm(ref)


class TestFileEqualsLoadedProperty:
    """``process_stream`` reading a gain file a block at a time gives the bits
    of the same file read in one block, whether the file holds exactly the
    frames the input needs or more.  Overlap-save is also held to the per-hop
    chain over the rows ``load_gain_stream`` reads back."""

    @pytest.mark.parametrize("extra", [0, 5])
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(geometry=geometries(), num_frames=st.integers(2, 30),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_every_record_type(self, tmp_path, extra, geometry, num_frames, seed,
                               data):
        block_frames = data.draw(st.integers(1, min(7, num_frames - 1)),
                                 label="block_frames")
        m, hop, p = geometry["frame_size"], geometry["hop"], geometry["shorten_len"]
        bins, stored = m // 2 + 1, num_frames + extra
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(num_frames * hop + data.draw(st.integers(0, hop - 1)))
        gains = 3.0 * random_hermitian_gains(rng, stored * bins).reshape(stored, bins)
        gains[:, [0, -1]] = gains[:, [0, -1]].real  # some bins above g_max
        responses = np.fft.rfft(rng.standard_normal((stored, p)), n=2 * p, axis=1)
        cases = ((TYPE_SUBBAND_GAINS, gains, ("ols", "direct")),
                 (TYPE_DFT_RESPONSES, responses, ("ols",)))
        for record_type, frames, modes in cases:
            path = gain_file(tmp_path, frames, m, hop, record_type)
            with warnings.catch_warnings():  # random responses may alias
                warnings.simplefilter("ignore")
                rows = load_gain_stream(path)[1]
                for mode in modes:
                    cfg = Config(mode=mode, **geometry)
                    with patch.object(filterbank, "BLOCK_FRAMES", block_frames):
                        blockwise, _ = process_stream(x, path, cfg)
                    with patch.object(filterbank, "BLOCK_FRAMES", stored):
                        whole, _ = process_stream(x, path, cfg)
                    assert np.array_equal(blockwise, whole)
                    if mode == "ols":
                        assert np.array_equal(
                            blockwise, per_hop_chain(x, rows, cfg, record_type))


def block_frame_matrices(cfg, num_bytes):
    """``num_bytes`` in units of one block's complex analysis-frame matrix."""
    return num_bytes / (filterbank.BLOCK_FRAMES * (cfg.frame_size // 2 + 1) * 16)


class TestStreamMemory:
    """Beyond its output, ``process_stream`` holds one block's arrays at a time:
    its peak does not grow with the signal or the gain file, and on a 4 s
    signal the working set past the output stays within a few block frame
    matrices (2.09 from the estimator, 2.06 from a type-A file), since no
    array of one block outlives its consumer."""

    def test_peak_does_not_grow_with_signal_length(self):
        cfg = Config()
        rate = cfg.sample_rate_hz
        process_stream(np.zeros(rate), "mmse-lsa", cfg)  # first-call imports

        def peak_bytes(seconds):
            x = 0.1 * np.random.default_rng(113).standard_normal(seconds * rate)
            tracemalloc.start()
            try:
                process_stream(x, "mmse-lsa", cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        short, long = peak_bytes(4), peak_bytes(60)
        extra_output = 56 * rate * 8
        assert long <= short + extra_output + 2**20, (short, long)
        assert block_frame_matrices(cfg, short - 4 * rate * 8) <= 4.0

    def test_peak_does_not_grow_with_gain_file_length(self, tmp_path):
        """A gain file is read a block at a time, not loaded whole."""
        cfg = Config()
        rate, bins = cfg.sample_rate_hz, cfg.frame_size // 2 + 1

        def gain_file(seconds):
            path = tmp_path / f"{seconds}s.fbeg"
            record = np.full((1, bins), 0.5, dtype=np.complex64)
            frames = np.broadcast_to(record, (seconds * rate // cfg.hop, bins))
            write_gain_stream(path, frames, TYPE_SUBBAND_GAINS, cfg.frame_size,
                              cfg.hop)
            return path

        def peak_bytes(seconds):
            x = 0.1 * np.random.default_rng(127).standard_normal(seconds * rate)
            path = gain_file(seconds)
            tracemalloc.start()
            try:
                process_stream(x, path, cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        process_stream(np.zeros(rate), gain_file(1), cfg)  # first-call imports
        short, long = peak_bytes(4), peak_bytes(60)
        extra_output = 56 * rate * 8
        assert long <= short + extra_output + 2**20, (short, long)
        assert block_frame_matrices(cfg, short - 4 * rate * 8) <= 3.0


class TestFloat32Input:
    """A float32 signal, as ``read_wav`` returns, is widened a block at a time:
    the output is that of its float64 widening, bit for bit, and no float64
    copy of the whole input is made."""

    @pytest.mark.parametrize("source, mode", [
        ("mmse-lsa", "ols"), ("mmse-lsa", "direct"), (TYPE_SUBBAND_GAINS, "ols"),
        (TYPE_SUBBAND_GAINS, "direct"), (TYPE_DFT_RESPONSES, "ols")])
    def test_equals_float64_widening(self, tmp_path, source, mode):
        cfg = Config(mode=mode)
        rng = np.random.default_rng(131)
        frames = 150  # three blocks, the last one partial, plus a partial hop
        x = make_speech(frames * cfg.hop / cfg.sample_rate_hz)
        x = np.concatenate([x + 0.05 * rng.standard_normal(x.size),
                            rng.standard_normal(17)]).astype(np.float32)
        if source == TYPE_SUBBAND_GAINS:
            rows = random_hermitian_gains(rng, 257 * frames).reshape(frames, 257)
            rows[:, [0, -1]] = rows[:, [0, -1]].real
            source = gain_file(tmp_path, rows, 512, 64)
        elif source == TYPE_DFT_RESPONSES:
            responses = np.fft.rfft(rng.standard_normal((frames, 128)), n=256, axis=1)
            source = gain_file(tmp_path, responses, 512, 64, TYPE_DFT_RESPONSES)
        narrow, _ = process_stream(x, source, cfg)
        wide, _ = process_stream(x.astype(np.float64), source, cfg)
        assert narrow.dtype == np.float64
        assert np.array_equal(narrow, wide)

    def test_no_whole_input_float64_copy(self):
        cfg = Config()
        rate = cfg.sample_rate_hz
        x = (0.1 * np.random.default_rng(137).standard_normal(4 * rate)).astype(np.float32)
        process_stream(x[:rate], "mmse-lsa", cfg)  # first-call imports

        def peak_bytes(signal):
            tracemalloc.start()
            try:
                process_stream(signal, "mmse-lsa", cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        wide = x.astype(np.float64)
        narrow_peak, wide_peak = peak_bytes(x), peak_bytes(wide)
        # One widened block (32 KB) past a float64 input's run, and 1 KB for
        # objects; a float64 copy of the whole 4 s input would add 512 KB.
        one_block = filterbank.BLOCK_FRAMES * cfg.hop * 8
        assert narrow_peak <= wide_peak + one_block + 2**10, (narrow_peak, wide_peak)

    def test_no_widened_block_held_through_the_mapping(self):
        """Each stage widens the float32 block for its own call, so the working
        set past the output is 2.09 block frame matrices, 2.71 while one
        float64 copy of the block lived through the analysis and mapping."""
        cfg = Config()
        rate = cfg.sample_rate_hz
        x = (0.1 * np.random.default_rng(139).standard_normal(4 * rate)
             ).astype(np.float32)
        process_stream(x[:rate], "mmse-lsa", cfg)  # first-call imports
        tracemalloc.start()
        try:
            process_stream(x, "mmse-lsa", cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        past_output = block_frame_matrices(cfg, peak - 4 * rate * 8)
        assert past_output <= 2.3, past_output


class TestOutParameter:
    """``out`` takes the output a block at a time in place of a new array."""

    @staticmethod
    def run(tmp_path, source, cfg, scale=1.0, **kwargs):
        rng = np.random.default_rng(149)
        frames = 150  # three blocks, the last one partial, plus a partial hop
        x = make_speech(frames * cfg.hop / cfg.sample_rate_hz)
        x = scale * np.concatenate([x + 0.05 * rng.standard_normal(x.size),
                                    rng.standard_normal(17)])
        if source == TYPE_SUBBAND_GAINS:
            rows = random_hermitian_gains(rng, 257 * frames).reshape(frames, 257)
            rows[:, [0, -1]] = rows[:, [0, -1]].real
            source = gain_file(tmp_path, rows, 512, 64)
        elif source == TYPE_DFT_RESPONSES:
            responses = np.fft.rfft(rng.standard_normal((frames, 128)), n=256, axis=1)
            source = gain_file(tmp_path, responses, 512, 64, TYPE_DFT_RESPONSES)
        return process_stream(x, source, cfg, **kwargs)[0]

    @pytest.mark.parametrize("source, mode", [
        ("mmse-lsa", "ols"), ("mmse-lsa", "direct"), (TYPE_SUBBAND_GAINS, "ols"),
        (TYPE_SUBBAND_GAINS, "direct"), (TYPE_DFT_RESPONSES, "ols")])
    def test_fills_out_and_returns_it(self, tmp_path, source, mode):
        cfg = Config(mode=mode)
        out = np.empty(150 * cfg.hop)
        assert self.run(tmp_path, source, cfg, out=out) is out
        assert np.array_equal(out, self.run(tmp_path, source, cfg))

    def test_type_b_in_direct_mode_still_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="use the ols mode"):
            self.run(tmp_path, TYPE_DFT_RESPONSES, Config(mode="direct"),
                     out=np.empty(150 * 64))

    @pytest.mark.parametrize("size", [150 * 64 - 1, 150 * 64 + 1])
    def test_out_of_another_length_rejected(self, size):
        with pytest.raises(ConfigError, match=f"^out holds {size} samples, not 9600$"):
            self.run(None, "mmse-lsa", Config(), out=np.empty(size))

    @pytest.mark.parametrize("fmt", ["pcm16", "float32"])
    def test_encoder_gives_the_whole_signal_file(self, tmp_path, fmt):
        """Blocks of 3 hops encoded as they come, on an input loud enough that
        PCM16 saturates, give the file and count of the whole-signal write."""
        cfg = Config()
        blocks, whole = tmp_path / "blocks.wav", tmp_path / "whole.wav"
        with patch.object(filterbank, "BLOCK_FRAMES", 3):
            encoder = self.run(tmp_path, "mmse-lsa", cfg, scale=8.0,
                               out=BlockEncoder(blocks, 150 * cfg.hop, 16000, fmt))
        output = self.run(tmp_path, "mmse-lsa", cfg, scale=8.0)
        clipped = write_wav(blocks, AudioBuffer(encoder, 16000), fmt=fmt)
        assert clipped == write_wav(whole, AudioBuffer(output, 16000), fmt=fmt)
        assert fmt == "float32" or clipped > 0
        assert blocks.read_bytes() == whole.read_bytes()


class TestOtherInputDtypes:
    """Any other real numeric input is widened a block at a time too: the
    output is that of its float64 widening, bit for bit, and an int16 input
    adds no whole-signal float64 copy to the output's 8 bytes per sample."""

    @pytest.mark.parametrize("mode", ["ols", "direct"])
    @pytest.mark.parametrize("kind", ["int16", "float16", "list"])
    def test_equals_float64_widening(self, kind, mode):
        cfg = Config(mode=mode)
        rng = np.random.default_rng(151)
        frames = 150  # three blocks, the last one partial, plus a partial hop
        x = make_speech(frames * cfg.hop / cfg.sample_rate_hz)
        x = np.concatenate([x + 0.05 * rng.standard_normal(x.size),
                            rng.standard_normal(17)])
        signal = {"int16": np.round(8000 * x).astype(np.int16),
                  "float16": x.astype(np.float16), "list": x.tolist()}[kind]
        got, _ = process_stream(signal, "mmse-lsa", cfg)
        want, _ = process_stream(np.asarray(signal, dtype=np.float64), "mmse-lsa", cfg)
        assert np.array_equal(got, want)

    def test_int16_peak_grows_by_the_output_alone(self):
        cfg = Config()
        rate = cfg.sample_rate_hz
        codes = (3000 * np.random.default_rng(157).standard_normal(20 * rate)
                 ).astype(np.int16)
        process_stream(codes[:rate], "mmse-lsa", cfg)  # first-call imports

        def peak_bytes(signal):
            tracemalloc.start()
            try:
                process_stream(signal, "mmse-lsa", cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        short, long = peak_bytes(codes[: 4 * rate]), peak_bytes(codes)
        # 8 output bytes per added sample; a float64 copy of the input adds 8 more.
        assert long - short <= 8.5 * 16 * rate, (short, long)
