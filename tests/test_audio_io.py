import re
import struct
import warnings

import numpy as np
import pytest
from scipy.io import wavfile

from fbeq import audio_io
from fbeq.audio_io import AudioBuffer, mix_at_snr, read_wav, write_wav
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
