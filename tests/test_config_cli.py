import argparse
import csv
import io
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fbeq
from fbeq import fbeg
from fbeq.audio_io import AudioBuffer, read_wav, write_wav
from fbeq.cli import _build_parser, main
from fbeq.config import Config, build_config, load_config_file
from fbeq.errors import ConfigError
from fbeq.filterbank import analyze_polyphase, design_prototype

SMALL_FLAGS = ["-M", "16", "-L", "16", "-r", "4", "-P", "8"]


def write_test_wav(path, samples, rate=16000):
    write_wav(path, AudioBuffer(np.asarray(samples, dtype=np.float64), rate),
              fmt="float32")


def write_with_nan(path, num_frames, offset):
    """A unity type-A file for ``SMALL_FLAGS`` with a NaN float at byte
    ``offset``, patched in because ``write_gain_stream`` rejects NaN."""
    fbeg.write_gain_stream(path, np.ones((num_frames, 9), dtype=np.complex64),
                           fbeg.TYPE_SUBBAND_GAINS, 16, 4)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<f", raw, offset, np.nan)
    path.write_bytes(bytes(raw))


class TestConfigValidation:
    def test_defaults_validate(self):
        cfg = Config().validate()
        assert cfg.frame_size == 512
        assert cfg.hop == 64
        assert cfg.shorten_len == 128
        assert cfg.mode == "ols"
        assert cfg.gains is None  # the built-in estimator supplies the gains

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
            Config(shorten_len=127).validate()

    def test_shorten_len_must_fit_prototype(self):
        with pytest.raises(ConfigError, match="does not fit"):
            Config(frame_size=16, proto_len=16, hop=4,
                   shorten_len=32).validate()

    def test_hop_may_not_exceed_overlap_save_budget(self):
        with pytest.raises(ConfigError, match="alias"):
            Config(frame_size=512, proto_len=512, hop=256,
                   shorten_len=128).validate()

    def test_unknown_mode(self):
        with pytest.raises(ConfigError, match="mode must be one of"):
            Config(mode="zero-latency").validate()

    def test_nonpositive_g_max(self):
        with pytest.raises(ConfigError, match="g_max"):
            Config(g_max=0.0).validate()


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
            "gains = none\n"
        )
        got = load_config_file(path)
        assert got == {
            "frame_size": 16, "proto_len": 16, "hop": 4,
            "alpha_noise": 0.9, "mode": "direct", "gains": None,
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
        np.testing.assert_array_equal(taps, default_proto.taps)
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
    "design": ["design", *SMALL_FLAGS, "--mode", "direct", "--out", "taps.csv"],
    "analyze": ["analyze", "--config", "run.cfg", "--in", "a.wav",
                "--out", "a.fbeg"],
    "enhance": ["enhance", "--in", "a.wav", "--out", "b.wav", "--gains",
                "g.fbeg", "--g-max", "2", "--format", "float32"],
    "mix": ["mix", "--clean", "c.wav", "--noise", "n.wav", "--snr-db", "5",
            "--seed", "3", "--out-mix", "m.wav", "--out-noise", "s.wav"],
    "evaluate": ["evaluate", "--clean", "c.wav", "--processed", "p.wav",
                 "q.wav", "--delay", "64", "--alpha-dd", "0.9"],
}
ALL_COMMANDS = "{design,analyze,enhance,mix,evaluate}"


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
