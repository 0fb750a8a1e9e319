import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import exp1

from fbeq.config import Config
from fbeq.errors import ConfigError, DataError, NumericError
from fbeq.filterbank import (
    BLOCK_FRAMES,
    analyze_polyphase,
    design_prototype,
)
from fbeq import gains as gains_module
from fbeq.gains import (
    GainFrame,
    NoiseTrackerState,
    estimate_gains,
    mmse_lsa_gain,
    update_noise_psd,
)

from conftest import first_overflowing_frame, geometries


def reference_gains(frames, p):
    """Independent re-derivation of the whole estimator, scipy E1 inside."""
    xi_min = 10.0 ** (p.xi_min_db / 10.0)
    floor = 10.0 ** (p.gain_floor_db / 20.0)
    t = p.gamma_threshold
    comp = (1.0 - np.exp(-t)) / (1.0 - (1.0 + t) * np.exp(-t))
    num_frames, bins = frames.shape
    psd = np.full(bins, p.lambda_floor)
    xi_prev = np.full(bins, max(1.0, xi_min))
    out = np.empty((num_frames, bins))
    for k in range(num_frames):
        power = np.abs(frames[k]) ** 2
        if k < p.init_frames:
            psd = power.copy() if k == 0 else (psd * k + power) / (k + 1)
        else:
            gate = power < t * psd
            psd = np.where(gate,
                           p.alpha_noise * psd + (1 - p.alpha_noise) * comp * power,
                           psd)
        psd = np.maximum(psd, p.lambda_floor)
        gamma = power / psd
        xi = np.maximum(xi_min, p.alpha_dd * xi_prev
                        + (1 - p.alpha_dd) * np.maximum(gamma - 1.0, 0.0))
        ratio = xi / (1.0 + xi)
        nu = np.maximum(gamma * ratio, 1e-12)
        g = np.clip(ratio * np.exp(0.5 * exp1(nu)), floor, 1.0)
        xi_prev = np.maximum(g * g * gamma, xi_min)
        out[k] = g
    return out


class TestEstimatorParams:
    """The estimator's constants and derived values, on a ``Config``."""

    def test_default_values(self):
        p = Config()
        assert p.alpha_dd == 0.98
        assert p.xi_min_db == -15.0
        assert p.gain_floor_db == -25.0
        assert p.alpha_noise == 0.8
        assert p.gamma_threshold == 2.5
        assert p.init_frames == 6

    def test_derived_linear_values(self):
        p = Config()
        assert p.xi_min == pytest.approx(10.0 ** -1.5, rel=1e-15)
        assert p.gain_floor == pytest.approx(10.0 ** -1.25, rel=1e-15)

    def test_gate_bias_factor_value(self):
        # (1 - e^-T) / (1 - (1+T) e^-T) at T = 2.5, 30-digit reference.
        assert Config().gate_bias_factor == pytest.approx(
            1.2879357027272202, rel=1e-14
        )

    def test_gate_bias_factor_opens_to_unity(self):
        assert Config(gamma_threshold=50.0).gate_bias_factor == (
            pytest.approx(1.0, abs=1e-12)
        )
        f = [Config(gamma_threshold=t).gate_bias_factor
             for t in (2.0, 2.5, 3.0)]
        assert f[0] > f[1] > f[2] > 1.0

    def test_validation(self):
        with pytest.raises(ConfigError, match="alpha_dd"):
            Config(alpha_dd=1.0)
        with pytest.raises(ConfigError, match="alpha_noise"):
            Config(alpha_noise=0.0)
        with pytest.raises(ConfigError, match="gain_floor_db"):
            Config(gain_floor_db=0.0)
        with pytest.raises(ConfigError, match="gamma_threshold"):
            Config(gamma_threshold=-2.0)
        with pytest.raises(ConfigError, match="init_frames"):
            Config(init_frames=0)
        with pytest.raises(ConfigError, match="lambda_floor"):
            Config(lambda_floor=0.0)


class TestNoiseTrackerState:
    def test_initial_state(self):
        p = Config()
        state = NoiseTrackerState.initial(5, p)
        np.testing.assert_array_equal(state.noise_psd, np.full(5, p.lambda_floor))
        np.testing.assert_array_equal(state.xi_prev, np.ones(5))
        assert state.frame_count == 0


class TestUpdateNoisePsd:
    def test_running_mean_during_init(self):
        p = Config()
        state = NoiseTrackerState.initial(4, p)
        rng = np.random.default_rng(2)
        frames = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
        powers = np.abs(frames) ** 2
        for k in range(5):
            update_noise_psd(state, frames[k], p)
            np.testing.assert_allclose(
                state.noise_psd, powers[: k + 1].mean(axis=0), rtol=1e-12
            )
        assert state.frame_count == 5

    def test_gate_closed_leaves_psd_alone(self):
        p = Config()
        state = NoiseTrackerState(noise_psd=np.ones(3), xi_prev=np.ones(3),
                                  frame_count=10)
        update_noise_psd(state, np.sqrt(9.0) * np.ones(3), p)
        np.testing.assert_array_equal(state.noise_psd, np.ones(3))

    def test_gate_boundary_is_exclusive(self):
        # power exactly at gamma_threshold*psd must not update
        p = Config()
        state = NoiseTrackerState(noise_psd=np.ones(2), xi_prev=np.ones(2),
                                  frame_count=10)
        update_noise_psd(state, np.sqrt(2.5) * np.ones(2), p)
        np.testing.assert_array_equal(state.noise_psd, np.ones(2))

    def test_gated_update_arithmetic(self):
        p = Config()
        state = NoiseTrackerState(noise_psd=np.ones(1), xi_prev=np.ones(1),
                                  frame_count=10)
        update_noise_psd(state, np.array([np.sqrt(0.5)]), p)
        expected = p.alpha_noise * 1.0 + (1.0 - p.alpha_noise) * p.gate_bias_factor * 0.5
        assert state.noise_psd[0] == pytest.approx(expected, rel=1e-15)

    def test_mixed_gate(self):
        p = Config()
        state = NoiseTrackerState(noise_psd=np.ones(2), xi_prev=np.ones(2),
                                  frame_count=10)
        update_noise_psd(state, np.array([0.0, 10.0]), p)
        assert state.noise_psd[0] == pytest.approx(0.8, rel=1e-15)
        assert state.noise_psd[1] == 1.0

    def test_zero_frames_decay_geometrically_to_floor(self):
        p = Config()
        state = NoiseTrackerState(noise_psd=np.ones(2), xi_prev=np.ones(2),
                                  frame_count=10)
        for n in range(1, 8):
            update_noise_psd(state, np.zeros(2), p)
            np.testing.assert_allclose(state.noise_psd, 0.8 ** n, rtol=1e-12)
        for _ in range(250):
            update_noise_psd(state, np.zeros(2), p)
        np.testing.assert_array_equal(state.noise_psd, np.full(2, p.lambda_floor))

    def test_dimension_mismatch(self):
        p = Config()
        state = NoiseTrackerState.initial(4, p)
        with pytest.raises(DataError, match="bins"):
            update_noise_psd(state, np.ones(5), p)

    def test_frame_after_block_leaves_block_rows(self):
        p = Config(init_frames=2)
        frames = np.arange(1.0, 13.0).reshape(4, 3)
        frames[3] = 1.0  # under the gate: the last frame moves the estimate
        chain = NoiseTrackerState.initial(3, p)
        for frame in frames:
            update_noise_psd(chain, frame, p)
        state = update_noise_psd(NoiseTrackerState.initial(3, p), frames[:3], p)
        rows = state.noise_psd
        before = rows.copy()
        update_noise_psd(state, frames[3], p)
        np.testing.assert_array_equal(state.noise_psd, chain.noise_psd)
        np.testing.assert_array_equal(rows, before)
        assert state.frame_count == 4
        with pytest.raises(DataError, match="bins"):
            update_noise_psd(state, np.ones((2, 4)), p)
        update_noise_psd(state, np.ones((0, 3)), p)  # an empty block: no change
        np.testing.assert_array_equal(state.noise_psd, chain.noise_psd)

    def test_tracks_white_noise_within_3db(self):
        """Stationary-noise accuracy after 100 frames, every bin within 3 dB.

        Smoothing 0.98 suits the 4 ms hop (the 0.8 default corresponds to a
        much longer hop and wobbles past 3 dB); 40 init frames give the
        running mean a stable start.  Long-run truth comes from averaging
        2500 independently seeded frames.
        """
        spec = Config(frame_size=16, proto_len=16, hop=4, shorten_len=8)
        proto = design_prototype(spec)
        rng = np.random.default_rng(999)
        oracle_frames = analyze_polyphase(
            rng.normal(0.0, 0.1, size=spec.hop * 2500), proto, spec
        ).frames
        true_power = np.mean(np.abs(oracle_frames) ** 2, axis=0)

        p = Config(alpha_noise=0.98, init_frames=40)
        rng = np.random.default_rng(0)
        frames = analyze_polyphase(
            rng.normal(0.0, 0.1, size=spec.hop * 110), proto, spec
        ).frames
        state = NoiseTrackerState.initial(spec.num_bins, p)
        for k in range(100):
            update_noise_psd(state, frames[k], p)
        err_db = 10.0 * np.log10(state.noise_psd / true_power)
        assert np.max(np.abs(err_db)) <= 3.0


class TestMmseLsaGain:
    def test_zero_frames_leave_state(self):
        p = Config()
        state = update_noise_psd(NoiseTrackerState.initial(5, p), np.ones((3, 5)), p)
        mmse_lsa_gain(np.ones((3, 5)), state, p)
        psd, xi_prev = state.noise_psd.copy(), state.xi_prev.copy()
        none = np.empty((0, 5), dtype=np.complex128)
        update_noise_psd(state, none, p)
        assert mmse_lsa_gain(none, state, p).values.shape == (0, 5)
        assert np.array_equal(state.noise_psd, psd)
        assert np.array_equal(state.xi_prev, xi_prev)
        assert state.frame_count == 3

    def test_unit_xi_gamma_two(self):
        # gamma=2 with DD memory at 1 gives xi=1, nu=1; 30-digit reference
        # for 0.5*exp(0.5*E1(1)).
        p = Config()
        state = NoiseTrackerState(noise_psd=np.ones(3), xi_prev=np.ones(3),
                                  frame_count=10)
        result = mmse_lsa_gain(np.full(3, np.sqrt(2.0)), state, p)
        assert isinstance(result, GainFrame)
        np.testing.assert_allclose(result.values, 0.55796713657494580, rtol=1e-13)
        np.testing.assert_allclose(result.values, 0.5580, atol=1e-3)

    def test_zero_power_frame_passes_through(self):
        # gamma -> 0 sends exp(0.5*E1(nu)) -> infinity; the clamp lands at 1,
        # i.e. near-silent frames are not suppressed.
        p = Config()
        state = NoiseTrackerState(noise_psd=np.ones(4), xi_prev=np.ones(4),
                                  frame_count=10)
        result = mmse_lsa_gain(np.zeros(4), state, p)
        np.testing.assert_array_equal(result.values, np.ones(4))

    def test_vanishing_noise_estimate_passes_through(self):
        # lambda -> 0+ with fixed frame power: xi, gamma -> inf, G -> 1.
        p = Config()
        state = NoiseTrackerState(noise_psd=np.full(4, p.lambda_floor),
                                  xi_prev=np.ones(4), frame_count=10)
        result = mmse_lsa_gain(np.ones(4), state, p)
        np.testing.assert_array_equal(result.values, np.ones(4))

    def test_floor_clamp_with_raised_floor(self):
        p = Config(gain_floor_db=-1.0)
        state = NoiseTrackerState(noise_psd=np.ones(3), xi_prev=np.ones(3),
                                  frame_count=10)
        result = mmse_lsa_gain(np.ones(3), state, p)
        np.testing.assert_array_equal(result.values, np.full(3, 10.0 ** (-1.0 / 20.0)))

    def test_dd_memory_update(self):
        p = Config()
        state = NoiseTrackerState(noise_psd=np.full(5, 2.0),
                                  xi_prev=np.full(5, 0.7), frame_count=3)
        frame = np.linspace(0.5, 3.0, 5) * (1 + 1j)
        gamma = np.abs(frame) ** 2 / 2.0
        result = mmse_lsa_gain(frame, state, p)
        np.testing.assert_allclose(
            state.xi_prev,
            np.maximum(result.values ** 2 * gamma, p.xi_min),
            rtol=1e-14,
        )

    def test_bounds_on_random_frames(self):
        p = Config()
        rng = np.random.default_rng(31)
        state = NoiseTrackerState.initial(16, p)
        for k in range(200):
            frame = rng.standard_normal(16) + 1j * rng.standard_normal(16)
            update_noise_psd(state, frame, p)
            g = mmse_lsa_gain(frame, state, p).values
            assert np.all(np.isfinite(g))
            assert np.all(g >= p.gain_floor)
            assert np.all(g <= 1.0)

    def test_dimension_mismatch(self):
        p = Config()
        state = NoiseTrackerState.initial(4, p)
        with pytest.raises(DataError, match="bins"):
            mmse_lsa_gain(np.ones(3), state, p)

    def test_block_keeps_its_last_estimate(self):
        """After a block update and its gains the tracker holds one row, the
        block's last estimate, and the next calls continue the per-frame
        chain bit for bit."""
        p = Config(init_frames=2)
        rng = np.random.default_rng(223)
        scale = 10.0 ** rng.uniform(-1.0, 1.0, size=(9, 1))
        frames = scale * (rng.standard_normal((9, 5)) + 1j * rng.standard_normal((9, 5)))
        chain = NoiseTrackerState.initial(5, p)
        chain_gains = [mmse_lsa_gain(frame, update_noise_psd(chain, frame, p), p).values
                       for frame in frames[:4]]
        state = update_noise_psd(NoiseTrackerState.initial(5, p), frames[:4], p)
        estimates = state.noise_psd.copy()
        gains = mmse_lsa_gain(frames[:4], state, p).values
        assert np.array_equal(gains, np.array(chain_gains))
        assert state.noise_psd.shape == (5,)
        assert np.array_equal(state.noise_psd, estimates[-1])
        assert np.array_equal(state.noise_psd, chain.noise_psd)
        for frame in frames[4:6]:
            assert np.array_equal(
                mmse_lsa_gain(frame, update_noise_psd(state, frame, p), p).values,
                mmse_lsa_gain(frame, update_noise_psd(chain, frame, p), p).values)
        block = mmse_lsa_gain(frames[6:], update_noise_psd(state, frames[6:], p), p)
        for k, frame in enumerate(frames[6:]):
            assert np.array_equal(
                block.values[k],
                mmse_lsa_gain(frame, update_noise_psd(chain, frame, p), p).values)
        assert np.array_equal(state.noise_psd, chain.noise_psd)
        assert np.array_equal(state.xi_prev, chain.xi_prev)
        assert state.frame_count == chain.frame_count == 9


class TestEstimateGains:
    def test_matches_reference_implementation(self, small_spec, small_proto):
        rng = np.random.default_rng(37)
        # noise plus a strong tone so both gate branches get exercised
        t = np.arange(4 * 80) / 16.0
        x = rng.standard_normal(4 * 80) + 4.0 * np.sin(2 * np.pi * 3.0 * t)
        frames = analyze_polyphase(x, small_proto, small_spec).frames
        p = Config()
        got = estimate_gains(frames, p)
        want = reference_gains(frames, p)
        assert np.max(np.abs(got - want) / want) <= 1e-12

    def test_deterministic(self, small_spec, small_proto):
        rng = np.random.default_rng(41)
        frames = analyze_polyphase(rng.standard_normal(400), small_proto,
                                   small_spec).frames
        p = Config()
        np.testing.assert_array_equal(estimate_gains(frames, p),
                                      estimate_gains(frames, p))

    def test_shape_and_bounds(self, small_spec, small_proto):
        rng = np.random.default_rng(43)
        frames = analyze_polyphase(rng.standard_normal(400), small_proto,
                                   small_spec).frames
        p = Config()
        g = estimate_gains(frames, p)
        assert g.shape == frames.shape
        assert g.dtype == np.float64
        assert np.all((g >= p.gain_floor) & (g <= 1.0))

    def test_median_suppression_on_stationary_noise(self, default_spec,
                                                    default_proto):
        """Median gain over the last 100 noise frames stays at or below -15 dB."""
        rng = np.random.default_rng(1)
        x = rng.normal(0.0, 0.1, size=default_spec.hop * 600)
        frames = analyze_polyphase(x, default_proto, default_spec).frames
        g = estimate_gains(frames, Config())
        median_db = np.median(20.0 * np.log10(g[-100:]))
        assert median_db <= -15.0

    def test_rejects_non_matrix(self):
        with pytest.raises(DataError, match="2-D"):
            estimate_gains(np.ones(7), Config())

    def test_empty_matrix_leaves_state(self):
        p = Config()
        state = NoiseTrackerState.initial(5, p)
        assert estimate_gains(np.zeros((0, 5)), p, state).shape == (0, 5)
        np.testing.assert_array_equal(state.noise_psd, np.full(5, p.lambda_floor))
        assert state.frame_count == 0

    def test_block_estimates_die_before_the_frame_loop(self, default_spec,
                                                       default_proto):
        """On a block the caller holds, the tracker's per-frame estimates are
        cut to their last row once the a posteriori SNR is formed: 1.05 block
        frame matrices at peak, 1.54 while all rows lived through the loop."""
        rng = np.random.default_rng(227)
        x = rng.standard_normal((BLOCK_FRAMES + 8) * default_spec.hop)
        frames = analyze_polyphase(x, default_proto, default_spec).frames[8:].copy()
        p = Config()
        state = NoiseTrackerState.initial(default_spec.num_bins, p)
        estimate_gains(frames, p, state)  # first-call imports, past init_frames
        tracemalloc.start()
        try:
            estimate_gains(frames, p, state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        matrix = BLOCK_FRAMES * default_spec.num_bins * 16
        assert peak / matrix <= 1.2, peak / matrix


class TestBlockGuards:
    """A block skips the floor on the noise estimate and the floor on ``nu``
    only where neither can bind.  On white noise neither binds and both are
    skipped; after 100 ms of exact zeros (power and ``gamma`` 0) both bind
    and both run.  Either way the block equals the one-frame chain, which
    always clamps."""

    @staticmethod
    def clamp_flags(monkeypatch, name):
        """Record the ``clamp`` argument of every call to ``gains.<name>``."""
        flags, original = [], getattr(gains_module, name)

        def spy(*args):
            flags.append(args[3])
            return original(*args)

        monkeypatch.setattr(gains_module, name, spy)
        return flags

    @pytest.mark.parametrize("zeros, clamped", [(0, False), (1600, True)],
                             ids=["white-noise", "after-100-ms-of-zeros"])
    def test_block_equals_chain(self, default_spec, default_proto, monkeypatch,
                                zeros, clamped):
        rng = np.random.default_rng(331)
        x = np.concatenate([np.zeros(zeros),
                            rng.standard_normal(BLOCK_FRAMES * default_spec.hop)])
        frames = analyze_polyphase(x, default_proto,
                                   default_spec).frames[:BLOCK_FRAMES]
        p, bins = Config(), default_spec.num_bins
        chain = NoiseTrackerState.initial(bins, p)
        want = []
        for frame in frames:
            update_noise_psd(chain, frame, p)
            want.append(mmse_lsa_gain(frame, chain, p).values)

        tracker = self.clamp_flags(monkeypatch, "_track_frame")
        rule = self.clamp_flags(monkeypatch, "_lsa_frame")
        state = NoiseTrackerState.initial(bins, p)
        got = estimate_gains(frames, p, state)
        assert np.array_equal(got, np.array(want))
        assert np.array_equal(state.noise_psd, chain.noise_psd)
        assert np.array_equal(state.xi_prev, chain.xi_prev)
        # The running mean always clamps; past it the guard decides.
        assert tracker[:p.init_frames] == [True] * p.init_frames
        assert tracker[p.init_frames:] == [clamped] * (len(frames) - p.init_frames)
        assert rule == [clamped] * len(frames)
        if clamped:  # and the floors bind, so skipping them would show
            estimates = update_noise_psd(NoiseTrackerState.initial(bins, p),
                                         frames, p).noise_psd
            assert np.all(estimates[:zeros // default_spec.hop]
                          == p.lambda_floor)

    def test_first_frame_of_a_call_clamps(self, default_spec):
        """A call's first frame may start from any estimate, so it clamps
        even where the block's power clears the floor."""
        p, bins = Config(), default_spec.num_bins
        frames = np.ones((3, bins), dtype=complex)
        below = NoiseTrackerState(noise_psd=np.full(bins, 0.1 * p.lambda_floor),
                                  xi_prev=np.ones(bins), frame_count=p.init_frames)
        chain = NoiseTrackerState(noise_psd=below.noise_psd.copy(),
                                  xi_prev=np.ones(bins), frame_count=p.init_frames)
        for frame in frames:
            update_noise_psd(chain, frame, p)
        update_noise_psd(below, frames, p)
        assert np.array_equal(below.noise_psd[-1], chain.noise_psd)


class TestInputPowerOverflow:
    """An overflowing a posteriori SNR is a ``NumericError`` naming its frame
    from the start of the stream, in a block, across blocks and frame by
    frame."""

    @pytest.mark.parametrize("scale", [1e156, 1e200])
    def test_names_first_overflowing_frame(self, default_spec, default_proto,
                                           scale):
        x = np.random.default_rng(73).standard_normal(100 * default_spec.hop)
        x[30 * default_spec.hop:] *= scale
        frames = analyze_polyphase(x, default_proto, default_spec).frames
        p, bins = Config(), frames.shape[1]
        first = first_overflowing_frame(frames, p)
        assert first >= 30
        message = f"input power overflowed at frame {first}: "
        with pytest.raises(NumericError, match=message):
            estimate_gains(frames, p)
        state = NoiseTrackerState.initial(bins, p)
        estimate_gains(frames[:20], p, state)
        with pytest.raises(NumericError, match=message):
            estimate_gains(frames[20:], p, state)
        state = NoiseTrackerState.initial(bins, p)
        # The one-frame calls leave NumPy's error state to their caller.
        with pytest.raises(NumericError, match=message), \
                np.errstate(over="ignore", invalid="ignore"):
            for frame in frames:
                mmse_lsa_gain(frame, update_noise_psd(state, frame, p), p)

    def test_what_the_error_leaves_in_the_tracker(self, default_spec,
                                                  default_proto):
        """The block's last estimate, the frame count past the block, and the
        DD memory of the frame before the overflowing one."""
        x = np.random.default_rng(73).standard_normal(100 * default_spec.hop)
        x[30 * default_spec.hop:] *= 1e200
        frames = analyze_polyphase(x, default_proto, default_spec).frames
        p, bins = Config(), frames.shape[1]
        first = first_overflowing_frame(frames, p)
        chain = NoiseTrackerState.initial(bins, p)
        estimate_gains(frames[:first], p, chain)
        state = NoiseTrackerState.initial(bins, p)
        with np.errstate(over="ignore", invalid="ignore"):
            update_noise_psd(state, frames, p)
            estimates = state.noise_psd.copy()
            with pytest.raises(NumericError, match=f"at frame {first}: "):
                mmse_lsa_gain(frames, state, p)
        assert np.array_equal(state.noise_psd, estimates[-1])
        assert state.frame_count == len(frames)
        assert np.array_equal(state.xi_prev, chain.xi_prev)

    def test_finite_just_below_overflow(self, default_spec, default_proto):
        x = 1e155 * np.random.default_rng(73).standard_normal(100 * default_spec.hop)
        frames = analyze_polyphase(x, default_proto, default_spec).frames
        gains = estimate_gains(frames, Config())
        assert np.isfinite(gains).all()


class TestBlocksEqualPerFrameProperty:
    """Block calls give the per-frame chain's bits, for any split into blocks."""

    @settings(max_examples=60, deadline=None)
    @given(geometry=geometries(), num_frames=st.integers(1, 20),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_any_split(self, geometry, num_frames, seed, data):
        bins = geometry["frame_size"] // 2 + 1
        init_frames = data.draw(st.integers(1, num_frames + 1), label="init_frames")
        params = Config(
            alpha_dd=data.draw(st.floats(0.05, 0.99), label="alpha_dd"),
            alpha_noise=data.draw(st.floats(0.05, 0.99), label="alpha_noise"),
            gamma_threshold=data.draw(st.floats(0.5, 10.0), label="gamma_threshold"),
            init_frames=init_frames,
        )
        # Edges at 0 and K, plus any inside: a block may hold the frame where
        # the running mean hands over to the gated recursion, or end there.
        inner = data.draw(st.sets(st.integers(1, max(1, num_frames - 1)),
                                  max_size=num_frames - 1), label="edges")
        edges = [0, *sorted(inner), num_frames]
        rng = np.random.default_rng(seed)
        # Frame levels spread over 40 dB, so the gate both opens and closes.
        scale = 10.0 ** rng.uniform(-1.0, 1.0, size=(num_frames, 1))
        frames = scale * (rng.standard_normal((num_frames, bins))
                          + 1j * rng.standard_normal((num_frames, bins)))

        chain = NoiseTrackerState.initial(bins, params)
        chain_gains, chain_psd = [], []
        for frame in frames:
            chain = update_noise_psd(chain, frame, params)
            chain_psd.append(chain.noise_psd.copy())
            chain_gains.append(mmse_lsa_gain(frame, chain, params).values)

        whole = NoiseTrackerState.initial(bins, params)
        whole_gains = estimate_gains(frames, params, whole)
        split = NoiseTrackerState.initial(bins, params)
        split_gains = np.concatenate(
            [estimate_gains(frames[a:b], params, split)
             for a, b in zip(edges, edges[1:])])

        block = update_noise_psd(NoiseTrackerState.initial(bins, params), frames,
                                 params)
        assert np.array_equal(block.noise_psd, np.array(chain_psd))
        assert np.array_equal(mmse_lsa_gain(frames, block, params).values,
                              np.array(chain_gains))
        assert np.array_equal(block.xi_prev, chain.xi_prev)
        for state, gains in ((whole, whole_gains), (split, split_gains)):
            assert np.array_equal(gains, np.array(chain_gains))
            assert np.array_equal(state.noise_psd, chain.noise_psd)
            assert np.array_equal(state.xi_prev, chain.xi_prev)
            assert state.frame_count == chain.frame_count == num_frames
