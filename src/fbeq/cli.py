"""Command-line front end.

Subcommands: ``design`` (prototype taps/response as CSV), ``analyze``
(subband frames to a gain-stream file), ``enhance`` (full pipeline),
``mix`` (SNR-controlled mixing), ``evaluate`` (metric CSV).  A call builds
only the subcommand it runs; help, no command or an unknown one get all five.

Exit codes: 0 success, 2 usage error, 3 data/format/config error,
4 numeric invariant violation.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import sys

import numpy as np

from . import fbeg
from .audio_io import AudioBuffer, mix_at_snr, read_wav, write_wav
from .config import MODES, Config, build_config
from .equalizer import ESTIMATOR_MMSE_LSA, process_stream
from .errors import FbeqError, NumericError
from .filterbank import analyze_polyphase, design_prototype
from .metrics import compute_report

RESPONSE_DFT_SIZE = 2048
NOT_APPLICABLE = "n/a"

_OVERRIDE_FIELDS = tuple(f.name for f in dataclasses.fields(Config))
_COMMANDS = ("design", "analyze", "enhance", "mix", "evaluate")


def _add_shared_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE",
                        help="key = value config file; flags win over it")
    geo = parser.add_argument_group("geometry")
    geo.add_argument("-M", "--frame-size", type=int, dest="frame_size")
    geo.add_argument("-L", "--proto-len", type=int, dest="proto_len")
    geo.add_argument("-r", "--hop", type=int, dest="hop")
    geo.add_argument("-P", "--shorten-len", type=int, dest="shorten_len")
    geo.add_argument("--sample-rate", type=int, dest="sample_rate_hz")
    parser.add_argument("--mode", choices=MODES)
    parser.add_argument("--gains", metavar="FBEG",
                        help="gain-stream file replacing the estimator")
    est = parser.add_argument_group("estimator constants")
    est.add_argument("--g-max", type=float, dest="g_max")
    est.add_argument("--alpha-dd", type=float, dest="alpha_dd")
    est.add_argument("--xi-min-db", type=float, dest="xi_min_db")
    est.add_argument("--gain-floor-db", type=float, dest="gain_floor_db")
    est.add_argument("--alpha-noise", type=float, dest="alpha_noise")
    est.add_argument("--gamma-threshold", type=float, dest="gamma_threshold")
    est.add_argument("--init-frames", type=int, dest="init_frames")
    est.add_argument("--lambda-floor", type=float, dest="lambda_floor")


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``fbeq`` parser, with only ``command``'s subparser when it names
    one and with all of them otherwise (help, no command, a misspelt one).

    Help texts, usage lines and parsed namespaces are the same either way.
    """
    # One command's parser still lists all five in its usage line, which
    # argparse prints for arguments the command leaves unrecognized.
    if command in _COMMANDS:
        wanted, metavar = (command,), "{" + ",".join(_COMMANDS) + "}"
    else:
        wanted, metavar = _COMMANDS, None
    parser = argparse.ArgumentParser(
        prog="fbeq",
        description="Low-latency subband speech enhancement "
                    "(filter-bank equalizer).",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)

    if "design" in wanted:
        p = sub.add_parser("design", help="dump prototype taps and response as CSV")
        _add_shared_flags(p)
        p.add_argument("--out", default="-", metavar="CSV",
                       help="output path, '-' for stdout (default)")
        p.set_defaults(func=cmd_design)

    if "analyze" in wanted:
        p = sub.add_parser("analyze", help="write subband frames to an FBEG file")
        _add_shared_flags(p)
        p.add_argument("--in", dest="in_wav", required=True, metavar="WAV")
        p.add_argument("--out", required=True, metavar="FBEG")
        p.set_defaults(func=cmd_analyze)

    if "enhance" in wanted:
        p = sub.add_parser("enhance", help="run the enhancement pipeline")
        _add_shared_flags(p)
        p.add_argument("--in", dest="in_wav", required=True, metavar="WAV")
        p.add_argument("--out", required=True, metavar="WAV")
        p.add_argument("--format", choices=("pcm16", "float32"), default="pcm16")
        p.set_defaults(func=cmd_enhance)

    if "mix" in wanted:
        p = sub.add_parser("mix", help="mix noise into clean speech at a target SNR")
        _add_shared_flags(p)
        p.add_argument("--clean", required=True, metavar="WAV")
        p.add_argument("--noise", required=True, metavar="WAV")
        p.add_argument("--snr-db", type=float, required=True)
        p.add_argument("--seed", type=int, default=0,
                       help="picks the noise crop offset (default 0)")
        p.add_argument("--out-mix", required=True, metavar="WAV")
        p.add_argument("--out-noise", required=True, metavar="WAV")
        p.add_argument("--format", choices=("pcm16", "float32"), default="float32")
        p.set_defaults(func=cmd_mix)

    if "evaluate" in wanted:
        p = sub.add_parser("evaluate", help="emit a metric CSV row per file")
        _add_shared_flags(p)
        p.add_argument("--clean", required=True, metavar="WAV")
        p.add_argument("--processed", required=True, nargs="+", metavar="WAV")
        p.add_argument("--noise", metavar="WAV",
                       help="ground-truth additive noise (enables seg_na)")
        p.add_argument("--snr-db", type=float,
                       help="nominal mixture SNR, echoed into the CSV")
        p.add_argument("--delay", type=int,
                       help="delay compensation in samples "
                            "(default: the filter group delay)")
        p.add_argument("--out", default="-", metavar="CSV")
        p.set_defaults(func=cmd_evaluate)
    return parser


def _overrides(args: argparse.Namespace) -> dict:
    return {name: getattr(args, name, None) for name in _OVERRIDE_FIELDS}


@contextlib.contextmanager
def _open_text_out(path: str):
    if path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh


def cmd_design(args: argparse.Namespace, cfg: Config) -> int:
    spec = cfg.filterbank_spec()
    proto = design_prototype(spec)
    response = np.fft.rfft(proto.taps, n=RESPONSE_DFT_SIZE)
    with np.errstate(divide="ignore"):
        mag_db = 20.0 * np.log10(np.abs(response))
    freqs = np.arange(response.size) * spec.sample_rate_hz / RESPONSE_DFT_SIZE
    with _open_text_out(args.out) as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "tap", "freq_hz", "mag_db"])
        for i in range(max(proto.taps.size, response.size)):
            tap = format(proto.taps[i], ".17g") if i < proto.taps.size else ""
            if i < response.size:
                freq, mag = format(freqs[i], ".17g"), format(mag_db[i], ".6f")
            else:
                freq, mag = "", ""
            writer.writerow([i, tap, freq, mag])
    return 0


def cmd_analyze(args: argparse.Namespace, cfg: Config) -> int:
    spec = cfg.filterbank_spec()
    buf = read_wav(args.in_wav, expected_rate=spec.sample_rate_hz)
    seq = analyze_polyphase(buf.samples, design_prototype(spec), spec)
    fbeg.write_gain_stream(
        args.out, seq.frames.astype(np.complex64),
        fbeg.TYPE_SUBBAND_GAINS, spec.frame_size, spec.hop,
    )
    return 0


def cmd_enhance(args: argparse.Namespace, cfg: Config) -> int:
    buf = read_wav(args.in_wav, expected_rate=cfg.sample_rate_hz)
    source = cfg.gains or ESTIMATOR_MMSE_LSA
    enhanced, report = process_stream(buf.samples, source, cfg)
    clipped = write_wav(
        args.out, AudioBuffer(enhanced, cfg.sample_rate_hz), fmt=args.format
    )
    if clipped:
        print(f"warning: {clipped} samples saturated in {args.out}",
              file=sys.stderr)
    print(f"group_delay_ms={report.group_delay_ms:.3f} "
          f"block_ms={report.block_ms:.3f}")
    return 0


def cmd_mix(args: argparse.Namespace, cfg: Config) -> int:
    clean = read_wav(args.clean, expected_rate=cfg.sample_rate_hz)
    noise = read_wav(args.noise, expected_rate=cfg.sample_rate_hz)
    mixture, scaled = mix_at_snr(clean.samples, noise.samples,
                                 args.snr_db, args.seed)
    for path, samples in ((args.out_mix, mixture), (args.out_noise, scaled)):
        clipped = write_wav(
            path, AudioBuffer(samples, cfg.sample_rate_hz), fmt=args.format
        )
        if clipped:
            print(f"warning: {clipped} samples saturated in {path}",
                  file=sys.stderr)
    return 0


def _metric_cell(value, fmt: str) -> str:
    return NOT_APPLICABLE if value is None else format(value, fmt)


def cmd_evaluate(args: argparse.Namespace, cfg: Config) -> int:
    spec = cfg.filterbank_spec()
    clean = read_wav(args.clean, expected_rate=spec.sample_rate_hz)
    noise = None
    if args.noise:
        noise = read_wav(args.noise, expected_rate=spec.sample_rate_hz).samples
    delay = args.delay if args.delay is not None else cfg.shorten_len // 2
    # Score every file before writing, so a failing file leaves no partial CSV.
    reports = []
    for path in args.processed:
        processed = read_wav(path, expected_rate=spec.sample_rate_hz)
        report = compute_report(clean.samples, processed.samples,
                                noise=noise, spec=spec, delay=delay)
        reports.append(report)
        if report.seg_na_clamped_frames:
            print(
                f"warning: {report.seg_na_clamped_frames} noise-only "
                f"frames of {path} had zero energy; their attenuation "
                "was clamped at +100 dB",
                file=sys.stderr,
            )
    with _open_text_out(args.out) as fh:
        writer = csv.writer(fh)
        writer.writerow(["file", "snr_db", "seg_na_db", "seg_snr_db",
                         "ri_mag_loss", "frames_noise_only", "frames_total"])
        for path, report in zip(args.processed, reports):
            writer.writerow([
                path,
                _metric_cell(args.snr_db, ".3f"),
                _metric_cell(report.seg_na_db, ".6f"),
                _metric_cell(report.seg_snr_db, ".6f"),
                _metric_cell(report.ri_mag_loss, ".6e"),
                report.frames_noise_only,
                report.frames_total,
            ])
    return 0


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        cfg = build_config(args.config, _overrides(args))
        return args.func(args, cfg)
    except NumericError as exc:
        print(f"fbeq: error: {exc}", file=sys.stderr)
        return 4
    except FbeqError as exc:
        print(f"fbeq: error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"fbeq: error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
