import argparse
import csv
import dataclasses
import inspect
import io
import json
import os
import re
import struct
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import fbeq
from fbeq import fbeg
from fbeq.audio_io import AudioBuffer, read_wav, write_wav
from fbeq.cli import _build_parser, main
from fbeq.config import Config, build_config, check_field_types, load_config_file
from fbeq.errors import ConfigError
from fbeq.filterbank import analyze_polyphase, design_prototype
from fbeq.gains import estimate_gains

SMALL_FLAGS = ["-M", "16", "-L", "16", "-r", "4", "-P", "8"]


def write_test_wav(path, samples, rate=16000):
    write_wav(path, AudioBuffer(np.asarray(samples, dtype=np.float64), rate),
              fmt="float32")


def wavfile_write_float32(path, samples, rate=16000):
    """A float32 WAV of ``samples`` as they are, NaN included, which
    ``write_wav`` refuses."""
    from scipy.io import wavfile
    wavfile.write(path, rate, np.asarray(samples, dtype=np.float32))


def write_with_nan(path, num_frames, offset):
    """A unity type-A file for ``SMALL_FLAGS`` with a NaN float at byte
    ``offset``, patched in because ``write_gain_stream`` rejects NaN."""
    fbeg.write_gain_stream(path, np.ones((num_frames, 9), dtype=np.complex64),
                           fbeg.TYPE_SUBBAND_GAINS, 16, 4)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<f", raw, offset, np.nan)
    path.write_bytes(bytes(raw))


FLOAT_SETTINGS = [f.name for f in dataclasses.fields(Config) if f.type == "float"]
NUMERIC_SETTINGS = [f.name for f in dataclasses.fields(Config)
                    if f.type in ("int", "float")]
# Finite settings whose derived constant is not: 10^400 overflows, and the gate
# bias factor divides by a zero (inf) or takes 0/0 (nan).
NON_FINITE_DERIVED = [("xi_min_db", 4000.0), ("gamma_threshold", 1e-9),
                      ("gamma_threshold", 1e-300)]
# The filterbank geometry: the fields that FilterbankSpec held before the fold.
GEOMETRY = ("frame_size", "proto_len", "hop", "sample_rate_hz")


def replace_in_spec(**changes):
    """Change fields of the default config's ``filterbank_spec()``, as a caller
    that derives a geometry from a config in hand writes it."""
    return dataclasses.replace(Config().filterbank_spec(), **changes)


class TestConfigValidation:
    def test_defaults_validate(self):
        cfg = Config()
        assert cfg.frame_size == 512
        assert cfg.hop == 64
        assert cfg.shorten_len == 128
        assert cfg.mode == "ols"
        # The gain file is an input of ``enhance``, not a setting.
        assert "gains" not in {f.name for f in dataclasses.fields(Config)}

    def test_defaults_are_those_of_the_parts(self):
        """The parts that the filterbank and the estimator are given carry
        every default of the config."""
        cfg = Config()
        for part in (cfg.filterbank_spec(), cfg.estimator_params()):
            for field in dataclasses.fields(Config):
                assert getattr(part, field.name) == field.default, field.name

    def test_immutable(self):
        cfg = Config()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.g_max = -1.0

    def test_spec_and_params_round_trip(self):
        cfg = Config(frame_size=16, proto_len=16, hop=4, shorten_len=8,
                     alpha_dd=0.9, init_frames=12)
        spec = cfg.filterbank_spec()
        assert (spec.frame_size, spec.proto_len, spec.hop) == (16, 16, 4)
        params = cfg.estimator_params()
        assert params.alpha_dd == 0.9
        assert params.init_frames == 12

    def test_odd_shorten_len(self):
        with pytest.raises(ConfigError, match="positive even"):
            Config(shorten_len=127)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", FLOAT_SETTINGS)
    def test_non_finite_setting(self, name, value):
        with pytest.raises(ConfigError, match=f"^{name} must be .*finite"):
            Config(**{name: value})

    @pytest.mark.parametrize("name, value", NON_FINITE_DERIVED)
    def test_non_finite_derived_constant(self, name, value):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="^" + re.escape(
                    f"{name} = {value} makes ") + r"\w+ non-finite"):
                Config(**{name: value})

    def test_shorten_len_must_fit_prototype(self):
        with pytest.raises(ConfigError, match="does not fit"):
            Config(frame_size=16, proto_len=16, hop=4,
                   shorten_len=32)

    def test_hop_may_not_exceed_overlap_save_budget(self):
        with pytest.raises(ConfigError, match="alias"):
            Config(frame_size=512, proto_len=512, hop=256,
                   shorten_len=128)

    def test_unknown_mode(self):
        for mode in ("zero-latency", "DIRECT"):
            with pytest.raises(ConfigError, match="mode must be one of"):
                Config(mode=mode)

    def test_nonpositive_g_max(self):
        for g_max in (0.0, -1.0):  # silence, and inverted polarity
            with pytest.raises(ConfigError, match="g_max"):
                Config(g_max=g_max)

    @pytest.mark.parametrize("build, name, value", [
        (Config, "frame_size", 512.0),
        (Config, "hop", 64.0),
        (Config, "init_frames", 6.5),
        (Config, "sample_rate_hz", 16000.5),
        (Config, "alpha_dd", "0.9"),
        (Config, "shorten_len", None),
    ] + [(Config, name, True) for name in NUMERIC_SETTINGS]
      # A geometry field changed on a config's filterbank spec, under the ids
      # the FilterbankSpec cases had before the fold.
      + [pytest.param(replace_in_spec, name, True, id=f"FilterbankSpec-{name}-True")
         for name in GEOMETRY])
    def test_wrong_type_rejected_when_built(self, build, name, value):
        with pytest.raises(ConfigError, match=f"^{name} must be an? .*, "
                                              f"got {re.escape(repr(value))}$"):
            build(**{name: value})

    def test_int_beyond_float_range_is_not_finite(self):
        with pytest.raises(ConfigError, match="^g_max must be finite, got 1000"):
            Config(g_max=10**400)

    def test_numpy_scalars_accepted(self):
        assert Config(hop=np.int64(32)).filterbank_spec().hop == 32
        params = Config(alpha_dd=np.float32(0.9)).estimator_params()
        assert params.alpha_dd == np.float32(0.9)

    @pytest.mark.parametrize("build", [
        lambda **kw: Config(**kw),
        lambda **kw: dataclasses.replace(Config(), **kw),
    ], ids=["Config", "replace"])
    def test_numpy_scalars_stored_as_python_numbers(self, build):
        cfg = build(hop=np.int64(32), init_frames=np.int32(6), g_max=np.float32(4.0),
                    alpha_dd=np.float64(0.98), xi_min_db=np.int16(-15))
        stored = {name: type(getattr(cfg, name))
                  for name in ("hop", "init_frames", "g_max", "alpha_dd", "xi_min_db")}
        assert stored == {"hop": int, "init_frames": int, "g_max": float,
                          "alpha_dd": float, "xi_min_db": float}
        assert "np." not in repr(cfg)
        assert type(cfg.num_frames(1000)) is int
        assert json.dumps(cfg.num_frames(1000)) == "31"
        plain = Config(hop=32, xi_min_db=-15)
        assert cfg == plain and hash(cfg) == hash(plain)
        assert repr(cfg) == repr(plain)

    @pytest.mark.parametrize("build", [
        lambda **kw: Config(**kw),
        lambda **kw: dataclasses.replace(Config(), **kw),
    ], ids=["Config", "replace"])
    def test_integer_in_a_float_field_stored_as_float(self, build):
        """An ``int`` given for a ``float`` field prints and serializes as the
        equal default does."""
        cfg, default = build(g_max=4, xi_min_db=-15, hop=64), Config()
        assert type(cfg.g_max) is float and type(cfg.xi_min_db) is float
        assert type(cfg.hop) is int
        assert repr(cfg) == repr(default)
        assert "g_max=4.0" in repr(cfg) and "xi_min_db=-15.0" in repr(cfg)
        assert (json.dumps(dataclasses.asdict(cfg))
                == json.dumps(dataclasses.asdict(default)))
        assert cfg == default and hash(cfg) == hash(default)

    def test_integer_in_a_config_file_stored_as_float(self, tmp_path):
        path = tmp_path / "fbeq.conf"
        path.write_text("g_max = 4\nxi_min_db = -15\n", encoding="utf-8")
        cfg = build_config(path)
        assert repr(cfg) == repr(Config())
        assert type(cfg.g_max) is float and type(cfg.xi_min_db) is float


class TestConfigIsItsParts:
    """A ``Config`` holds the filterbank geometry and the estimator's constants
    itself: it goes wherever a geometry or the estimator's settings are
    taken."""

    def test_is_a_filterbank_spec_only(self):
        """It is the filterbank spec itself, and the only settings type."""
        cfg = Config()
        assert Config.__bases__ == (object,)
        for name in ("FilterbankSpec", "EstimatorParams"):
            assert not hasattr(fbeq, name)
            assert name not in fbeq.__all__
        assert not hasattr(fbeq.filterbank, "FilterbankSpec")
        assert cfg.filterbank_spec() is cfg
        assert cfg.estimator_params() is cfg

    def test_fields_defaults_and_order(self):
        defaults = {"frame_size": 512, "proto_len": 512, "hop": 64,
                    "sample_rate_hz": 16000, "alpha_dd": 0.98, "xi_min_db": -15.0,
                    "gain_floor_db": -25.0, "alpha_noise": 0.8,
                    "gamma_threshold": 2.5, "init_frames": 6, "lambda_floor": 1e-20,
                    "shorten_len": 128, "mode": "ols", "g_max": 4.0}
        fields = dataclasses.fields(Config)
        assert [f.name for f in fields] == list(defaults)
        assert {f.name: f.default for f in fields} == defaults
        assert list(inspect.get_annotations(Config)) == list(defaults)

    def test_two_wrong_types_name_the_estimator_field_first(self):
        with pytest.raises(ConfigError, match="^alpha_dd must be a real number"):
            Config(shorten_len=None, alpha_dd="x")

    def test_one_type_walk_per_build(self, monkeypatch):
        calls = []

        def counting(settings):
            calls.append(type(settings).__name__)
            check_field_types(settings)

        monkeypatch.setattr(fbeq.config, "check_field_types", counting)
        cfg = Config()
        dataclasses.replace(cfg, hop=32)
        assert calls == ["Config", "Config"]

    def test_types_then_geometry_then_estimator_then_engine(self):
        with pytest.raises(ConfigError, match="^alpha_dd must be a real number"):
            Config(hop=3, alpha_dd="x", mode="x")
        with pytest.raises(ConfigError, match="^hop 3 must divide"):
            Config(hop=3, alpha_dd=2.0, mode="x")
        with pytest.raises(ConfigError, match="^alpha_dd must be in"):
            Config(alpha_dd=2.0, mode="x")
        with pytest.raises(ConfigError, match="^mode must be one of"):
            Config(mode="x")

    def test_same_bits_as_the_parts(self):
        cfg = Config(frame_size=32, proto_len=64, hop=8, shorten_len=16,
                     alpha_dd=0.9, xi_min_db=-20.0, init_frames=3)
        spec = Config(frame_size=32, proto_len=64, hop=8, shorten_len=16)
        params = Config(alpha_dd=0.9, xi_min_db=-20.0, init_frames=3)
        x = 0.1 * np.random.default_rng(191).standard_normal(8 * 100)
        frames = analyze_polyphase(x, design_prototype(cfg), cfg).frames
        want = analyze_polyphase(x, design_prototype(spec), spec).frames
        assert np.array_equal(frames, want)
        assert np.array_equal(estimate_gains(frames, cfg),
                              estimate_gains(want, params))


class TestConfigFile:
    def test_parses_keys_comments_and_blanks(self, tmp_path):
        path = tmp_path / "fbeq.conf"
        path.write_text(
            "# engine geometry\n"
            "frame_size = 16\n"
            "proto_len=16   # tight spacing is fine\n"
            "\n"
            "hop = 4\n"
            "alpha_noise = 0.9\n"
            "mode = direct\n"
        )
        got = load_config_file(path)
        assert got == {
            "frame_size": 16, "proto_len": 16, "hop": 4,
            "alpha_noise": 0.9, "mode": "direct",
        }
        assert isinstance(got["frame_size"], int)
        assert isinstance(got["alpha_noise"], float)

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "bad.conf"
        path.write_text("window_type = hann\n")
        with pytest.raises(ConfigError, match="unknown config key"):
            load_config_file(path)

    def test_malformed_line_reports_position(self, tmp_path):
        path = tmp_path / "bad.conf"
        path.write_text("hop = 4\njust some words\n")
        with pytest.raises(ConfigError, match="bad.conf:2"):
            load_config_file(path)

    def test_bad_value_type(self, tmp_path):
        path = tmp_path / "bad.conf"
        path.write_text("frame_size = many\n")
        with pytest.raises(ConfigError, match="frame_size"):
            load_config_file(path)

    def test_non_utf8_names_path_and_line(self, tmp_path, capsys):
        path, out = tmp_path / "bad.cfg", tmp_path / "design.csv"
        path.write_bytes(b"hop = 64\n\xff\xfe = 3\n")
        with pytest.raises(ConfigError, match=re.escape(
                f"{path}:2: not UTF-8 text")):
            load_config_file(path)
        assert main(["design", "--config", str(path), "--out", str(out)]) == 3
        assert f"{path}:2: " in capsys.readouterr().err
        assert not out.exists()

    def test_flags_win_over_file(self, tmp_path):
        path = tmp_path / "fbeq.conf"
        path.write_text("alpha_dd = 0.90\nhop = 32\n")
        cfg = build_config(path, {"alpha_dd": 0.95, "hop": None})
        assert cfg.alpha_dd == 0.95  # flag beats file
        assert cfg.hop == 32         # absent flag falls back to file

    def test_file_wins_over_defaults(self, tmp_path):
        path = tmp_path / "fbeq.conf"
        path.write_text("gamma_threshold = 3.0\n")
        assert build_config(path).gamma_threshold == 3.0
        assert build_config(None).gamma_threshold == 2.5

    def test_unknown_override_key(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            build_config(None, {"tap_count": 512})

    def test_composed_config_is_validated(self, tmp_path):
        path = tmp_path / "fbeq.conf"
        path.write_text("frame_size = 15\n")
        with pytest.raises(ConfigError, match="even"):
            build_config(path)


class TestCliDesign:
    def test_csv_matches_prototype(self, tmp_path, default_spec,
                                   default_proto):
        out = tmp_path / "design.csv"
        assert main(["design", "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["index", "tap", "freq_hz", "mag_db"]
        body = rows[1:]
        assert len(body) == 1025  # 2048-point spectrum, one-sided
        taps = np.array([float(row[1]) for row in body[:513]])
        np.testing.assert_array_equal(taps, default_proto)
        assert body[513][1] == ""  # taps column exhausted
        assert float(body[256][1]) == 1.0 / 512.0

    def test_minus_three_db_crossing(self, tmp_path):
        out = tmp_path / "design.csv"
        main(["design", "--out", str(out)])
        with open(out, newline="") as fh:
            body = list(csv.reader(fh))[1:]
        freq = np.array([float(row[2]) for row in body])
        mag = np.array([float(row[3]) for row in body])
        mag -= mag[0]  # half-power point is relative to the passband gain
        above = np.nonzero(mag < -3.0)[0][0]
        f0, f1 = freq[above - 1], freq[above]
        m0, m1 = mag[above - 1], mag[above]
        crossing = f0 + (f1 - f0) * (-3.0 - m0) / (m1 - m0)
        assert crossing == pytest.approx(26.78785316214763, abs=1.0)

    def test_stdout_output(self, capsys):
        assert main(["design", *SMALL_FLAGS]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("index,tap,freq_hz,mag_db")
        assert len(lines) == 1026

    def test_more_taps_than_response_bins(self, tmp_path):
        """L + 1 = 2049 taps outrun the 1025 bins of the 2048-point response."""
        out = tmp_path / "design.csv"
        assert main(["design", "-M", "2048", "-L", "2048", "-r", "64", "-P", "128",
                     "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            body = list(csv.reader(fh))[1:]
        assert len(body) == 2049
        assert all(row[1] != "" for row in body)
        assert all(row[2] != "" and row[3] != "" for row in body[:1025])
        assert all(row[2:] == ["", ""] for row in body[1025:])


class TestCliAnalyze:
    def test_writes_subband_frames(self, tmp_path, small_spec, small_proto):
        rng = np.random.default_rng(0)
        x = rng.uniform(-0.5, 0.5, 400)
        wav = tmp_path / "in.wav"
        write_test_wav(wav, x)
        out = tmp_path / "frames.fbeg"
        assert main(["analyze", *SMALL_FLAGS, "--in", str(wav),
                     "--out", str(out)]) == 0
        header, frames = fbeg.load_gain_stream(out)
        assert header.record_type == fbeg.TYPE_SUBBAND_GAINS
        assert (header.frame_size, header.hop) == (16, 4)
        seq = analyze_polyphase(read_wav(wav).samples, small_proto, small_spec)
        want = seq.frames.astype(np.complex64).astype(np.complex128)
        np.testing.assert_array_equal(frames, want)


class TestCliEnhance:
    def test_estimator_pipeline_and_latency_line(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        x = 0.1 * rng.standard_normal(4000)
        wav = tmp_path / "in.wav"
        write_test_wav(wav, x)
        out = tmp_path / "out.wav"
        code = main(["enhance", *SMALL_FLAGS, "--in", str(wav),
                     "--out", str(out), "--format", "float32"])
        assert code == 0
        assert capsys.readouterr().out.strip() == (
            "group_delay_ms=0.250 block_ms=0.250"
        )
        back = read_wav(out)
        assert back.samples.size == 4000  # floor(T / hop) * hop

    def test_default_geometry_latency_line(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        wav = tmp_path / "in.wav"
        write_test_wav(wav, 0.1 * rng.standard_normal(16000))
        out = tmp_path / "out.wav"
        assert main(["enhance", "--in", str(wav), "--out", str(out)]) == 0
        assert capsys.readouterr().out.strip() == (
            "group_delay_ms=4.000 block_ms=4.000"
        )

    def test_gain_stream_replaces_estimator(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        x = 0.2 * rng.standard_normal(160)
        wav = tmp_path / "in.wav"
        write_test_wav(wav, x)
        stream = tmp_path / "unity.fbeg"
        ones = np.ones((40, 9), dtype=np.complex64)  # shorten_len 8 -> 9 bins
        fbeg.write_gain_stream(stream, ones, fbeg.TYPE_DFT_RESPONSES, 16, 4)
        out = tmp_path / "out.wav"
        code = main(["enhance", *SMALL_FLAGS, "--in", str(wav),
                     "--out", str(out), "--format", "float32",
                     "--gains", str(stream)])
        assert code == 0
        enhanced = read_wav(out).samples
        # an all-ones response is the zero-phase identity filter
        np.testing.assert_allclose(enhanced, read_wav(wav).samples,
                                   rtol=0, atol=1e-6)

    def leaky_run(self, tmp_path):
        """``fbeq enhance`` on a type-B file whose responses alias: a unit
        delay of ``2P - r + 1`` taps lies wholly past the safe support."""
        wav = tmp_path / "in.wav"
        write_test_wav(wav, 0.2 * np.random.default_rng(4).standard_normal(160))
        stream = tmp_path / "leaky.fbeg"
        leaky = np.exp(-2j * np.pi * np.arange(9) * 13 / 16)
        fbeg.write_gain_stream(stream, np.tile(leaky, (40, 1)).astype(np.complex64),
                               fbeg.TYPE_DFT_RESPONSES, 16, 4)
        return main(["enhance", *SMALL_FLAGS, "--in", str(wav), "--gains",
                     str(stream), "--out", str(tmp_path / "out.wav")])

    def test_library_warning_is_a_warning_line(self, tmp_path, capsys):
        assert self.leaky_run(tmp_path) == 0
        out, err = capsys.readouterr()
        assert out == "group_delay_ms=0.250 block_ms=0.250\n"
        assert err == ("warning: DFT-response stream implies time-aliasing: "
                       "frame 0 has relative tail energy 1.000e+00 beyond tap 12 "
                       "(tolerance 1e-04)\n")

    def test_warning_filters_still_apply(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)
            with pytest.raises(UserWarning, match="time-aliasing"):
                self.leaky_run(tmp_path)

    def test_gains_named_like_the_estimator_is_a_file(self, tmp_path, monkeypatch):
        """``--gains`` always names a file, even one called ``mmse-lsa``."""
        monkeypatch.chdir(tmp_path)
        write_test_wav("in.wav", 0.2 * np.random.default_rng(5).standard_normal(160))
        ones = np.ones((40, 9), dtype=np.complex64)
        for name in ("mmse-lsa", "unity.fbeg"):
            fbeg.write_gain_stream(name, ones, fbeg.TYPE_SUBBAND_GAINS, 16, 4)
        args = ["enhance", *SMALL_FLAGS, "--in", "in.wav", "--format", "float32"]
        assert main([*args, "--out", "named.wav", "--gains", "mmse-lsa"]) == 0
        assert main([*args, "--out", "file.wav", "--gains", "unity.fbeg"]) == 0
        assert main([*args, "--out", "estimator.wav"]) == 0
        named = Path("named.wav").read_bytes()
        assert named == Path("file.wav").read_bytes()
        assert named != Path("estimator.wav").read_bytes()

    def test_empty_gains_is_an_error(self, tmp_path, capsys):
        wav, out = tmp_path / "in.wav", tmp_path / "out.wav"
        write_test_wav(wav, np.zeros(160))
        code = main(["enhance", *SMALL_FLAGS, "--in", str(wav), "--out", str(out),
                     "--gains", ""])
        assert code == 3
        assert capsys.readouterr().err.startswith("fbeq: error: ")
        assert not out.exists()

    def test_saturation_warning(self, tmp_path, capsys):
        """Gains of 4 on a half-scale square wave push the output past full
        scale; pcm16 saturates it and says how many samples it clipped."""
        wav, stream, out = tmp_path / "in.wav", tmp_path / "loud.fbeg", tmp_path / "out.wav"
        write_test_wav(wav, 0.5 * np.sign(np.sin(2 * np.pi * np.arange(1600) / 80) + 0.5))
        fbeg.write_gain_stream(stream, np.full((400, 9), 4.0, dtype=np.complex64),
                               fbeg.TYPE_SUBBAND_GAINS, 16, 4)
        args = ["enhance", *SMALL_FLAGS, "--in", str(wav), "--gains", str(stream)]
        assert main([*args, "--out", str(tmp_path / "ref.wav"), "--format", "float32"]) == 0
        over = np.count_nonzero(np.abs(read_wav(tmp_path / "ref.wav").samples) > 1.0)
        capsys.readouterr()
        assert main([*args, "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert over > 0
        assert captured.err == f"warning: {over} samples saturated in {out}\n"
        assert captured.out == "group_delay_ms=0.250 block_ms=0.250\n"
        assert np.abs(read_wav(out).samples).max() <= 1.0

    @staticmethod
    def loud_gain_run(tmp_path, frames):
        """``fbeq enhance --format float32`` with gains of 4 on a float32 input
        of 3e38 from sample 6000 on: past the first 4096-sample block, the
        output leaves the float32 range."""
        wav, stream, out = tmp_path / "in.wav", tmp_path / "loud.fbeg", tmp_path / "out.wav"
        x = np.zeros(8192)
        x[6000:] = 3e38
        write_test_wav(wav, x)
        fbeg.write_gain_stream(stream, frames, fbeg.TYPE_SUBBAND_GAINS, 512, 64)
        code = main(["enhance", "--format", "float32", "--in", str(wav),
                     "--gains", str(stream), "--out", str(out)])
        return code, out

    def test_float32_range_error_names_the_signal_index(self, tmp_path, capsys):
        code, out = self.loud_gain_run(
            tmp_path, np.full((128, 257), 4.0, dtype=np.complex64))
        assert code == 3
        assert capsys.readouterr().err == (
            f"fbeq: error: refusing to write {out}: sample 6064 "
            "(1.2000000021991023e+39) is beyond the float32 range\n")
        assert not out.exists()

    def test_gain_file_error_reported_before_the_output_error(self, tmp_path, capsys):
        """The output is encoded as it is filtered, but its errors wait for
        write_wav: a gain-file error found later still wins."""
        frames = np.full((140, 257), 4.0, dtype=np.complex64)
        frames[135, 0] = 4.0 + 0.5j  # past the input's 128 frames
        code, out = self.loud_gain_run(tmp_path, frames)
        assert code == 4
        assert "symmetry error in frame 135:" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_record_past_input_end(self, tmp_path, capsys):
        wav = tmp_path / "in.wav"
        write_test_wav(wav, np.zeros(160))  # 40 frames
        stream = tmp_path / "tail.fbeg"
        offset = 24 + 8 * (70 * 9 + 2)
        write_with_nan(stream, 100, offset)
        code = main(["enhance", *SMALL_FLAGS, "--in", str(wav),
                     "--out", str(tmp_path / "out.wav"), "--gains", str(stream)])
        assert code == 3
        assert capsys.readouterr().err.strip() == (
            f"fbeq: error: non-finite value in frame 70, bin 2 (real part) "
            f"at offset {offset}"
        )

    @pytest.mark.parametrize("mode", ["ols", "direct"])
    def test_non_real_edge_bin_past_input_end(self, tmp_path, capsys, mode):
        wav = tmp_path / "in.wav"
        write_test_wav(wav, np.zeros(200))  # 50 frames
        frames = np.ones((60, 9), dtype=np.complex64)
        frames[55, 0] = 1.0 + 0.5j
        stream = tmp_path / "edge.fbeg"
        fbeg.write_gain_stream(stream, frames, fbeg.TYPE_SUBBAND_GAINS, 16, 4)
        code = main(["enhance", *SMALL_FLAGS, "--mode", mode, "--in", str(wav),
                     "--out", str(tmp_path / "out.wav"), "--gains", str(stream)])
        assert code == 4
        assert "symmetry error in frame 55:" in capsys.readouterr().err


class TestStreamedEnhance:
    """``fbeq enhance`` reads its input and writes its output a block at a
    time (4096 samples at the default geometry).  An error found after blocks
    were written keeps its exit code and message, and leaves no file at
    ``--out`` and no temporary beside it; a file already at ``--out`` keeps
    its bytes."""

    PREVIOUS = b"an earlier output"

    @staticmethod
    def nan_input(tmp_path, index, size):
        wav = tmp_path / "in.wav"
        x = 0.1 * np.random.default_rng(167).standard_normal(size)
        x[index] = np.nan
        wavfile_write_float32(wav, x)
        return ["--in", str(wav)], f"fbeq: error: {wav}: sample {index} is non-finite (nan)\n"

    @staticmethod
    def nan_mid(tmp_path):
        return 3, *TestStreamedEnhance.nan_input(tmp_path, 3 * 4096 + 5, 5 * 4096)

    @staticmethod
    def nan_in_final_partial_hop(tmp_path):
        return 3, *TestStreamedEnhance.nan_input(tmp_path, 2 * 4096 + 30, 2 * 4096 + 40)

    @staticmethod
    def numeric_mid(tmp_path):
        wav, stream = tmp_path / "in.wav", tmp_path / "edge.fbeg"
        write_test_wav(wav, 0.1 * np.random.default_rng(173).standard_normal(200 * 64))
        frames = np.ones((200, 257), dtype=np.complex64)
        frames[150, 0] = 1.0 + 0.5j
        fbeg.write_gain_stream(stream, frames, fbeg.TYPE_SUBBAND_GAINS, 512, 64)
        return 4, ["--in", str(wav), "--gains", str(stream)], (
            "fbeq: error: Hermitian symmetry error in frame 150: DC/Nyquist bins are "
            "not real (|imag| = 5.000e-01, limit 1.118e-09)\n")

    @staticmethod
    def float32_range(tmp_path):
        wav, stream = tmp_path / "in.wav", tmp_path / "loud.fbeg"
        x = np.zeros(8192)
        x[6000:] = 3e38
        write_test_wav(wav, x)
        fbeg.write_gain_stream(stream, np.full((128, 257), 4.0, dtype=np.complex64),
                               fbeg.TYPE_SUBBAND_GAINS, 512, 64)
        return 3, ["--in", str(wav), "--gains", str(stream), "--format", "float32"], (
            "fbeq: error: refusing to write {out}: sample 6064 "
            "(1.2000000021991023e+39) is beyond the float32 range\n")

    @pytest.mark.parametrize("existing", [False, True], ids=["new-out", "existing-out"])
    @pytest.mark.parametrize("case", ["nan_mid", "nan_in_final_partial_hop",
                                      "numeric_mid", "float32_range"])
    def test_error_leaves_out_as_it_was(self, tmp_path, capsys, case, existing):
        code, args, err = getattr(self, case)(tmp_path)
        folder = tmp_path / "outputs"
        folder.mkdir()
        out = folder / "out.wav"
        if existing:
            out.write_bytes(self.PREVIOUS)
        assert main(["enhance", *args, "--out", str(out)]) == code
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", err.format(out=out))
        assert [p.name for p in folder.iterdir()] == (["out.wav"] if existing else [])
        assert not existing or out.read_bytes() == self.PREVIOUS

    @pytest.mark.parametrize("fmt", ["pcm16", "float32"])
    def test_in_may_be_out(self, tmp_path, capsys, fmt):
        wav, other = tmp_path / "x.wav", tmp_path / "other.wav"
        write_test_wav(wav, 0.1 * np.random.default_rng(179).standard_normal(3 * 4096))
        copy = tmp_path / "copy.wav"
        copy.write_bytes(wav.read_bytes())
        assert main(["enhance", "--in", str(copy), "--out", str(other),
                     "--format", fmt]) == 0
        assert main(["enhance", "--in", str(wav), "--out", str(wav),
                     "--format", fmt]) == 0
        assert wav.read_bytes() == other.read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "copy.wav", "other.wav", "x.wav"]

    def test_symlinked_out_keeps_its_link(self, tmp_path, capsys):
        wav, want = tmp_path / "in.wav", tmp_path / "want.wav"
        write_test_wav(wav, 0.1 * np.random.default_rng(181).standard_normal(4096))
        assert main(["enhance", "--in", str(wav), "--out", str(want)]) == 0
        target, link = tmp_path / "target.wav", tmp_path / "link.wav"
        target.write_bytes(b"old")
        link.symlink_to(target)
        assert main(["enhance", "--in", str(wav), "--out", str(link)]) == 0
        assert link.is_symlink() and link.resolve() == target
        assert target.read_bytes() == want.read_bytes()

    def test_unwritable_out_named_as_open_names_it(self, tmp_path, capsys):
        wav = tmp_path / "in.wav"
        write_test_wav(wav, np.zeros(640))
        for out, error in ((tmp_path / "none" / "out.wav", "No such file or directory"),
                           (tmp_path, "Is a directory")):
            assert main(["enhance", "--in", str(wav), "--out", str(out)]) == 3
            with pytest.raises(OSError) as exc:
                open(out, "wb")
            assert capsys.readouterr().err == f"fbeq: error: {exc.value}\n"
            assert error in str(exc.value)


class TestEnhanceMemory:
    """Peak growth of ``fbeq enhance`` per added input sample, on a float32
    WAV: none, as the input is read and the output encoded and written a
    block at a time, so the peak does not depend on the signal's length."""

    @staticmethod
    def growth_per_sample(tmp_path, fmt):
        rate = 16000
        rng = np.random.default_rng(139)

        def peak_bytes(seconds):
            wav = tmp_path / f"{seconds}s.wav"
            write_test_wav(wav, 0.1 * rng.standard_normal(seconds * rate))
            argv = ["enhance", "--in", str(wav), "--out", str(tmp_path / "out.wav"),
                    "--format", fmt]
            tracemalloc.start()
            try:
                assert main(argv) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak_bytes(1)  # first-call imports
        short, long = peak_bytes(4), peak_bytes(60)
        return (long - short) / (56 * rate)

    def test_pcm16_peak_grows_by_at_most_half_a_byte_per_input_sample(self, tmp_path):
        growth = self.growth_per_sample(tmp_path, "pcm16")
        assert growth <= 0.5, growth

    def test_float32_peak_grows_by_at_most_half_a_byte_per_input_sample(self, tmp_path):
        growth = self.growth_per_sample(tmp_path, "float32")
        assert growth <= 0.5, growth


class TestAnalyzeEvaluateMemory:
    """Peak growth of ``fbeq analyze`` and ``fbeq evaluate`` per added input
    sample, on float32 WAVs (the wider of the two formats)."""

    @staticmethod
    def growth_per_sample(tmp_path, argv_for):
        rate = 16000
        rng = np.random.default_rng(163)

        def peak_bytes(seconds):
            t = np.arange(seconds * rate)
            clean = 0.3 * np.sin(t / 7.0) * (t % 8000 < 4000)
            paths = {}
            for name, x in (("clean", clean),
                            ("noisy", clean + 0.1 * rng.standard_normal(t.size))):
                paths[name] = tmp_path / f"{name}{seconds}.wav"
                write_test_wav(paths[name], x)
            argv = argv_for(paths)
            tracemalloc.start()
            try:
                assert main(argv) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak_bytes(1)  # first-call imports
        short, long = peak_bytes(2), peak_bytes(10)
        return (long - short) / (8 * rate)

    def test_analyze_within_110_bytes_per_sample(self, tmp_path):
        """The float32 input, the complex128 frames and their complex64
        narrowing, ~100 bytes per sample: no further copy for the file."""
        growth = self.growth_per_sample(tmp_path, lambda paths: [
            "analyze", "--in", str(paths["noisy"]), "--out", str(tmp_path / "f.fbeg")])
        assert growth <= 110, growth

    def test_evaluate_within_255_bytes_per_sample(self, tmp_path):
        """Two whole complex128 frame matrices (128 bytes per sample), the
        float64 signals, and the complex difference, freed before the
        magnitudes are formed."""
        growth = self.growth_per_sample(tmp_path, lambda paths: [
            "evaluate", "--clean", str(paths["clean"]), "--processed",
            str(paths["noisy"]), "--out", str(tmp_path / "m.csv")])
        assert growth <= 255, growth


class TestCliMix:
    def test_mix_hits_target_snr(self, tmp_path):
        rng = np.random.default_rng(4)
        clean = 0.3 * np.sin(2 * np.pi * 440 * np.arange(4000) / 16000)
        noise = 0.1 * rng.standard_normal(9000)
        cw, nw = tmp_path / "c.wav", tmp_path / "n.wav"
        write_test_wav(cw, clean)
        write_test_wav(nw, noise)
        out_mix, out_noise = tmp_path / "mix.wav", tmp_path / "scaled.wav"
        code = main(["mix", "--clean", str(cw), "--noise", str(nw),
                     "--snr-db", "10", "--out-mix", str(out_mix),
                     "--out-noise", str(out_noise), "--seed", "5"])
        assert code == 0
        mixture = read_wav(out_mix).samples
        scaled = read_wav(out_noise).samples
        clean_back = read_wav(cw).samples
        snr = 10 * np.log10(np.mean(clean_back**2) / np.mean(scaled**2))
        assert snr == pytest.approx(10.0, abs=1e-3)
        np.testing.assert_allclose(mixture, clean_back + scaled,
                                   rtol=0, atol=1e-6)

    def test_seed_defaults_to_zero(self, tmp_path):
        rng = np.random.default_rng(5)
        cw, nw = tmp_path / "c.wav", tmp_path / "n.wav"
        write_test_wav(cw, 0.3 * np.sin(np.arange(4000) / 5.0))
        write_test_wav(nw, 0.1 * rng.standard_normal(9000))
        mixes = []
        for name, seed_flag in (("default", []), ("zero", ["--seed", "0"])):
            out_mix = tmp_path / f"{name}.wav"
            assert main(["mix", "--clean", str(cw), "--noise", str(nw),
                         "--snr-db", "0", "--out-mix", str(out_mix),
                         "--out-noise", str(tmp_path / f"{name}_n.wav"),
                         *seed_flag]) == 0
            mixes.append(read_wav(out_mix).samples)
        np.testing.assert_array_equal(mixes[0], mixes[1])

    def test_pcm16_saturation_warning(self, tmp_path, capsys):
        """At -10 dB the scaled noise and the mixture pass full scale; each
        pcm16 file says how many of its samples were clipped."""
        rng = np.random.default_rng(6)
        cw, nw = tmp_path / "c.wav", tmp_path / "n.wav"
        write_test_wav(cw, 0.5 * np.sin(np.arange(4000) / 5.0))
        write_test_wav(nw, 0.1 * rng.standard_normal(9000))
        outs = {}
        for fmt in ("float32", "pcm16"):
            outs[fmt] = tmp_path / f"mix_{fmt}.wav", tmp_path / f"noise_{fmt}.wav"
            capsys.readouterr()
            assert main(["mix", "--clean", str(cw), "--noise", str(nw),
                         "--snr-db", "-10", "--out-mix", str(outs[fmt][0]),
                         "--out-noise", str(outs[fmt][1]), "--format", fmt]) == 0
        over = [np.count_nonzero(np.abs(read_wav(path).samples) > 1.0)
                for path in outs["float32"]]
        assert min(over) > 0
        assert capsys.readouterr().err == "".join(
            f"warning: {n} samples saturated in {path}\n"
            for n, path in zip(over, outs["pcm16"]))


class TestCliEvaluate:
    def _make_files(self, tmp_path):
        rng = np.random.default_rng(6)
        clean = np.concatenate([0.3 * np.sin(np.linspace(0, 300, 2000)),
                                np.zeros(2000)])
        noise = 0.02 * rng.standard_normal(4000)
        processed = clean + 0.5 * noise
        paths = {}
        for name, data in (("clean", clean), ("noise", noise),
                           ("processed", processed)):
            p = tmp_path / f"{name}.wav"
            write_test_wav(p, data)
            paths[name] = str(p)
        return paths

    def test_full_row(self, tmp_path, capsys):
        paths = self._make_files(tmp_path)
        code = main(["evaluate", *SMALL_FLAGS, "--clean", paths["clean"],
                     "--processed", paths["processed"],
                     "--noise", paths["noise"], "--snr-db", "0",
                     "--delay", "0"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0] == ["file", "snr_db", "seg_na_db", "seg_snr_db",
                           "ri_mag_loss", "frames_noise_only", "frames_total"]
        row = rows[1]
        assert row[0] == paths["processed"]
        assert row[1] == "0.000"
        assert float(row[2]) == pytest.approx(20 * np.log10(2), abs=0.2)
        assert float(row[3]) > 0.0
        assert float(row[4]) > 0.0
        assert int(row[5]) > 0
        assert int(row[6]) == 1000  # 4000 samples / hop 4

    def test_not_applicable_markers(self, tmp_path, capsys):
        paths = self._make_files(tmp_path)
        code = main(["evaluate", *SMALL_FLAGS, "--clean", paths["clean"],
                     "--processed", paths["clean"], "--delay", "0"])
        assert code == 0
        row = list(csv.reader(io.StringIO(capsys.readouterr().out)))[1]
        assert row[1] == "n/a"  # no --snr-db given
        assert row[2] == "n/a"  # no --noise given
        assert row[3] == "n/a"  # processed == clean: error is exactly zero

    def test_multiple_processed_files(self, tmp_path, capsys):
        paths = self._make_files(tmp_path)
        code = main(["evaluate", *SMALL_FLAGS, "--clean", paths["clean"],
                     "--processed", paths["processed"], paths["clean"],
                     "--noise", paths["noise"], "--delay", "0"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert len(rows) == 3
        assert rows[1][0] == paths["processed"]
        assert rows[2][0] == paths["clean"]


class TestExitCodes:
    def test_usage_error_is_two(self):
        with pytest.raises(SystemExit) as exc_info:
            main(["polish"])
        assert exc_info.value.code == 2
        with pytest.raises(SystemExit) as exc_info:
            main(["analyze"])  # missing required --in/--out
        assert exc_info.value.code == 2

    def test_missing_input_file_is_three(self, tmp_path, capsys):
        code = main(["enhance", "--in", str(tmp_path / "nope.wav"),
                     "--out", str(tmp_path / "out.wav")])
        assert code == 3
        assert "fbeq: error:" in capsys.readouterr().err

    def test_negative_delay_is_three(self, tmp_path, capsys):
        clean = np.concatenate([0.3 * np.sin(np.linspace(0, 300, 4000)),
                                np.zeros(4000)])
        cw, pw = tmp_path / "clean.wav", tmp_path / "proc.wav"
        write_test_wav(cw, clean)
        write_test_wav(pw, 0.5 * clean)
        code = main(["evaluate", "--clean", str(cw), "--processed", str(pw),
                     "--delay", "-3200"])
        assert code == 3
        assert "delay must be >= 0, got -3200" in capsys.readouterr().err

    def test_delay_past_the_clip_is_three(self, tmp_path, capsys):
        cw = tmp_path / "clean.wav"
        write_test_wav(cw, 0.3 * np.sin(np.linspace(0, 300, 4000)))
        code = main(["evaluate", "--clean", str(cw), "--processed", str(cw),
                     "--delay", "4000"])
        assert code == 3
        assert capsys.readouterr().err.strip() == (
            "fbeq: error: no full frames remain after delay compensation by 4000 "
            "samples (processed 4000, frame 64)")

    @pytest.mark.parametrize("failure", ["negative-delay", "unreadable-wav"])
    @pytest.mark.parametrize("to_file", [True, False], ids=["out-file", "stdout"])
    def test_failed_evaluate_writes_no_csv(self, tmp_path, capsys, failure, to_file):
        clean = np.concatenate([0.3 * np.sin(np.linspace(0, 300, 4000)),
                                np.zeros(4000)])
        cw, good = tmp_path / "clean.wav", tmp_path / "good.wav"
        write_test_wav(cw, clean)
        write_test_wav(good, 0.5 * clean)
        processed, delay = [str(good)], "0"
        if failure == "negative-delay":
            delay = "-3200"
        else:  # the first file scores; the second fails
            bad = tmp_path / "bad.wav"
            bad.write_bytes(b"RIFF this is not a WAV file")
            processed.append(str(bad))
        out = tmp_path / "scores.csv"
        code = main(["evaluate", "--clean", str(cw), "--processed", *processed,
                     "--delay", delay, *(["--out", str(out)] if to_file else [])])
        captured = capsys.readouterr()
        assert code == 3
        assert "fbeq: error:" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_config_error_is_three(self, capsys):
        assert main(["design", "-M", "15"]) == 3
        assert "fbeq: error:" in capsys.readouterr().err

    def test_negative_mix_seed_is_three(self, tmp_path, capsys):
        cw, nw = tmp_path / "c.wav", tmp_path / "n.wav"
        write_test_wav(cw, 0.3 * np.sin(np.arange(400) / 5.0))
        write_test_wav(nw, 0.1 * np.random.default_rng(9).standard_normal(900))
        code = main(["mix", "--clean", str(cw), "--noise", str(nw), "--snr-db", "0",
                     "--seed", "-1", "--out-mix", str(tmp_path / "m.wav"),
                     "--out-noise", str(tmp_path / "s.wav")])
        assert code == 3
        assert capsys.readouterr().err.strip() == (
            "fbeq: error: seed must be non-negative, got -1")

    @pytest.mark.parametrize("snr_db", ["nan", "inf", "-inf"])
    def test_non_finite_mix_snr_is_three(self, tmp_path, capsys, snr_db):
        cw, nw = tmp_path / "c.wav", tmp_path / "n.wav"
        write_test_wav(cw, 0.3 * np.sin(np.arange(400) / 5.0))
        write_test_wav(nw, 0.1 * np.random.default_rng(9).standard_normal(900))
        out_mix, out_noise = tmp_path / "m.wav", tmp_path / "s.wav"
        code = main(["mix", "--clean", str(cw), "--noise", str(nw),
                     f"--snr-db={snr_db}", "--out-mix", str(out_mix),
                     "--out-noise", str(out_noise)])
        assert code == 3
        assert capsys.readouterr().err.strip() == (
            f"fbeq: error: snr_db must be finite, got {snr_db}")
        assert not out_mix.exists() and not out_noise.exists()

    @pytest.mark.parametrize("snr_db", ["4000", "-4000"])
    def test_mix_snr_past_the_float_range_is_three(self, tmp_path, capsys, snr_db):
        cw, nw = tmp_path / "c.wav", tmp_path / "n.wav"
        write_test_wav(cw, 0.3 * np.sin(np.arange(400) / 5.0))
        write_test_wav(nw, 0.1 * np.random.default_rng(9).standard_normal(900))
        out_mix, out_noise = tmp_path / "m.wav", tmp_path / "s.wav"
        code = main(["mix", "--clean", str(cw), "--noise", str(nw),
                     f"--snr-db={snr_db}", "--out-mix", str(out_mix),
                     "--out-noise", str(out_noise)])
        assert code == 3
        assert capsys.readouterr().err.strip() == (
            f"fbeq: error: snr_db {float(snr_db)} gives no finite positive noise scale")
        assert not out_mix.exists() and not out_noise.exists()

    @pytest.mark.parametrize("name, value", NON_FINITE_DERIVED)
    def test_non_finite_derived_constant_is_three(self, tmp_path, capsys, name, value):
        """Reported as the setting's fault, not as a traceback or an input
        overflow once digital silence reaches the gate."""
        wav, out = tmp_path / "in.wav", tmp_path / "out.wav"
        write_test_wav(wav, np.concatenate([
            np.zeros(1600), 0.1 * np.random.default_rng(10).standard_normal(1600)]))
        code = main(["enhance", "--" + name.replace("_", "-"), str(value),
                     "--in", str(wav), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith(f"fbeq: error: {name} = {value} makes "), err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("cut", [30, 50], ids=["in-fmt", "in-data"])
    def test_truncated_wav_is_three(self, tmp_path, capsys, cut):
        wav, out = tmp_path / "in.wav", tmp_path / "out.wav"
        write_wav(wav, AudioBuffer(np.full(1600, 0.1), 16000), fmt="pcm16")
        wav.write_bytes(wav.read_bytes()[:cut])
        code = main(["enhance", "--in", str(wav), "--out", str(out)])
        assert code == 3
        assert capsys.readouterr().err.startswith(
            f"fbeq: error: {wav}: not a readable WAV file")
        assert not out.exists()

    def test_non_finite_setting_is_three(self, tmp_path, capsys):
        code = main(["enhance", "--gamma-threshold", "nan",
                     "--in", str(tmp_path / "in.wav"),
                     "--out", str(tmp_path / "out.wav")])
        assert code == 3
        assert capsys.readouterr().err.strip() == (
            "fbeq: error: gamma_threshold must be finite, got nan")

    def test_gains_config_key_is_three(self, tmp_path, capsys):
        path = tmp_path / "fbeq.conf"
        path.write_text(f"gains = {tmp_path / 'g.fbeg'}\n")
        code = main(["enhance", "--config", str(path),
                     "--in", str(tmp_path / "in.wav"),
                     "--out", str(tmp_path / "out.wav")])
        assert code == 3
        assert "unknown config key 'gains'" in capsys.readouterr().err

    def test_non_finite_gain_stream_is_three(self, tmp_path, capsys):
        wav = tmp_path / "in.wav"
        write_test_wav(wav, 0.1 * np.random.default_rng(8).standard_normal(160))
        stream = tmp_path / "nan.fbeg"
        write_with_nan(stream, 40, 24 + 8 * (12 * 9 + 3))
        code = main(["enhance", *SMALL_FLAGS, "--in", str(wav),
                     "--out", str(tmp_path / "out.wav"),
                     "--gains", str(stream)])
        assert code == 3
        err = capsys.readouterr().err
        assert "fbeq: error:" in err
        assert f"frame 12, bin 3 (real part) at offset {24 + 8 * (12 * 9 + 3)}" in err
        assert not (tmp_path / "out.wav").exists()

    def test_numeric_violation_is_four(self, tmp_path, capsys):
        rng = np.random.default_rng(7)
        wav = tmp_path / "in.wav"
        write_test_wav(wav, 0.1 * rng.standard_normal(160))
        gains = np.ones((40, 9), dtype=np.complex64)
        gains[0, 0] = 1j  # zero-frequency bin must be real
        stream = tmp_path / "bad.fbeg"
        fbeg.write_gain_stream(stream, gains, fbeg.TYPE_SUBBAND_GAINS, 16, 4)
        code = main(["enhance", *SMALL_FLAGS, "--in", str(wav),
                     "--out", str(tmp_path / "out.wav"),
                     "--gains", str(stream)])
        assert code == 4
        assert "fbeq: error:" in capsys.readouterr().err


# One argv per subcommand, touching its own arguments and the shared flags.
COMMAND_ARGV = {
    "design": ["design", *SMALL_FLAGS, "--out", "taps.csv"],
    "analyze": ["analyze", "--config", "run.cfg", "--in", "a.wav",
                "--out", "a.fbeg"],
    "enhance": ["enhance", "--in", "a.wav", "--out", "b.wav", "--gains",
                "g.fbeg", "--g-max", "2", "--format", "float32"],
    "mix": ["mix", "--clean", "c.wav", "--noise", "n.wav", "--snr-db", "5",
            "--seed", "3", "--out-mix", "m.wav", "--out-noise", "s.wav"],
    "evaluate": ["evaluate", "--clean", "c.wav", "--processed", "p.wav",
                 "q.wav", "--delay", "64"],
}
ALL_COMMANDS = "{design,analyze,enhance,mix,evaluate}"
# The settings only ``enhance`` reads, each with a valid value as it prints.
ENGINE_FLAGS = [
    ["--mode", "direct"], ["--gains", "g.fbeg"], ["--g-max", "2.0"],
    ["--alpha-dd", "0.9"], ["--xi-min-db", "-10.0"], ["--gain-floor-db", "-20.0"],
    ["--alpha-noise", "0.9"], ["--gamma-threshold", "3.0"], ["--init-frames", "4"],
    ["--lambda-floor", "1e-12"],
]


def _exit_and_output(parser_or_main, argv, capsys):
    """Exit code and (stdout, stderr) of a call that argparse ends."""
    with pytest.raises(SystemExit) as exc_info:
        parser_or_main(argv)
    captured = capsys.readouterr()
    return exc_info.value.code, captured.out, captured.err


class TestParserPerCommand:
    """A call builds only the subcommand it runs; nothing it prints or parses
    differs from the parser with all five."""

    @pytest.fixture(autouse=True)
    def _fixed_width(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")

    @pytest.mark.parametrize("command", list(COMMAND_ARGV))
    def test_help_usage_and_namespace_match_full_parser(self, command, capsys):
        full, one = _build_parser(), _build_parser(command)
        assert one.format_usage() == full.format_usage()
        helps = [_exit_and_output(p.parse_args, [command, "--help"], capsys)
                 for p in (full, one)]
        assert helps[0] == helps[1]
        assert helps[0][0] == 0 and f"usage: fbeq {command}" in helps[0][1]
        argv = COMMAND_ARGV[command]
        assert vars(one.parse_args(argv)) == vars(full.parse_args(argv))

    @pytest.mark.parametrize("bad", [
        ["extra"], ["--mode", "bad"], ["--g-max", "x"], ["--no-such-flag"],
    ], ids=["unrecognized", "bad-choice", "bad-type", "unknown-flag"])
    @pytest.mark.parametrize("command", list(COMMAND_ARGV))
    def test_usage_errors_match_full_parser(self, command, bad, capsys):
        argv = COMMAND_ARGV[command] + bad
        want = _exit_and_output(_build_parser().parse_args, argv, capsys)
        assert _exit_and_output(main, argv, capsys) == want
        assert want[0] == 2

    @pytest.mark.parametrize("flag", ENGINE_FLAGS, ids=lambda flag: flag[0])
    @pytest.mark.parametrize("command", list(COMMAND_ARGV))
    def test_engine_flags_only_on_enhance(self, command, flag, capsys):
        argv = COMMAND_ARGV[command] + flag
        if command == "enhance":
            args = _build_parser(command).parse_args(argv)
            assert str(getattr(args, flag[0][2:].replace("-", "_"))) == flag[1]
            return
        code, _, err = _exit_and_output(_build_parser(command).parse_args, argv,
                                        capsys)
        assert code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in err

    def test_enhance_help_lists_its_flags(self, capsys):
        code, out, _ = _exit_and_output(main, ["enhance", "--help"], capsys)
        options = out.split("\n\n", 1)[1]  # past the usage lines
        assert code == 0
        assert re.findall(r"(?<![\w-])--?[A-Za-z][\w-]*", options) == [
            "-h", "--help", "--config", "--mode", "--gains", "--in", "--out",
            "--format", "-M", "--frame-size", "-L", "--proto-len", "-r", "--hop",
            "-P", "--shorten-len", "--sample-rate", "--g-max", "--alpha-dd",
            "--xi-min-db", "--gain-floor-db", "--alpha-noise", "--gamma-threshold",
            "--init-frames", "--lambda-floor"]

    @pytest.mark.parametrize("argv, code", [
        (["--help"], 0), ([], 2), (["enhanc"], 2),
    ], ids=["help", "no-command", "misspelt"])
    def test_no_command_lists_every_command(self, argv, code, capsys):
        got = _exit_and_output(main, argv, capsys)
        assert got == _exit_and_output(_build_parser().parse_args, argv, capsys)
        assert got[0] == code
        assert ALL_COMMANDS in got[1] + got[2]

    def test_builds_one_subparser_per_call_and_caches_none(self, tmp_path,
                                                           monkeypatch, capsys):
        built, init = [], argparse.ArgumentParser.__init__

        def counting_init(parser, *args, **kwargs):
            init(parser, *args, **kwargs)
            built.append(parser.prog)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        argv = ["enhance", "--in", str(tmp_path / "nope.wav"),
                "--out", str(tmp_path / "out.wav")]
        assert main(argv) == 3
        assert built == ["fbeq", "fbeq enhance"]
        assert main(argv) == 3
        assert built == ["fbeq", "fbeq enhance"] * 2

    def test_module_entry_point_reads_sys_argv(self, capsys):
        want = _exit_and_output(_build_parser().parse_args,
                                ["enhance", "--help"], capsys)
        env = dict(os.environ, COLUMNS="80")
        src = str(Path(fbeq.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [env.get("PYTHONPATH")] if p])
        result = subprocess.run([sys.executable, "-m", "fbeq", "enhance", "--help"],
                                env=env, capture_output=True, text=True,
                                timeout=60)
        assert (result.returncode, result.stdout, result.stderr) == want
