import re
import warnings

import numpy as np
import pytest
from scipy.io import wavfile

from fbeq.audio_io import AudioBuffer, mix_at_snr, read_wav, write_wav
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
        assert back.samples.dtype == np.float64
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


class TestReadValidation:
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

    def test_empty_clean_rejected(self):
        with pytest.raises(DataError, match="empty"):
            mix_at_snr(np.array([]), np.ones(100), 0.0, seed=0)
