"""The benchmark's three workloads and their output checks.

``enhance``  the user's main path: ``fbeq enhance`` in-process, built-in
             MMSE-LSA estimator, overlap-save filtering.  Gain estimation
             (tracker, gain rule, E1) does most of the work.
``gainfile`` the same CLI call driven by a type-A FBEG gain stream: no
             analysis and no estimator, so mapping, overlap-save and FBEG
             loading do the work.  A gain-stage change must not move it.
``stream``   one closed-loop stream: each 64-sample hop goes through the
             public per-hop calls and is timed on its own; per-call overhead
             on small arrays dominates, as in real-time use.

A call processes the whole clip once.  ``check`` counts the failed units of a
call (the call itself for the CLI workloads, each hop for ``stream``): a unit
fails if it raised, if it differs from a reference computed once at set-up,
or if it differs at all from the run's first output.
"""

from __future__ import annotations

import contextlib
import io
import sys
import traceback
from dataclasses import dataclass
from time import perf_counter

import numpy as np
from scipy.io import wavfile

import fbeq
import fbeq.cli
import fbeq.equalizer
import fbeq.gains

from .tracing import count_one

LATENCY_LINE = "group_delay_ms=4.000 block_ms=4.000"
PCM16_SCALE = 32768.0
# OLS and direct filtering agree to ~1e-15; after PCM16 rounding a sample
# may land one step apart.
PCM16_TOLERANCE = 1
STREAM_RTOL = 1e-9
SEG_NA_MIN_DB = 10.0
SEG_SNR_GAIN_MIN_DB = 2.0
NOISE_ONLY_THRESHOLD_DB = -40.0
SEG_NA_CLAMP_RATIO = 1e10


class SetupError(RuntimeError):
    """The reference run failed its own checks; nothing can be measured."""


@dataclass
class Call:
    """One timed pass over the clip.

    ``scale`` converts its wall times to the reference machine speed; the
    measurement loop sets it from the probes around the call.
    """

    seconds: float
    output: np.ndarray | None
    error: str | None = None
    hop_seconds: np.ndarray | None = None
    hop_errors: np.ndarray | None = None
    scale: float = 1.0


@dataclass(frozen=True)
class Quality:
    seg_snr_gain_db: float
    seg_na_db: float

    @property
    def ok(self) -> bool:
        return (self.seg_na_db >= SEG_NA_MIN_DB
                and self.seg_snr_gain_db >= SEG_SNR_GAIN_MIN_DB)


def _frame_energy(x: np.ndarray, frame: int, count: int) -> np.ndarray:
    rows = x[: count * frame].reshape(count, frame)
    return np.sum(rows * rows, axis=1)


def _seg_snr_db(clean: np.ndarray, out: np.ndarray, frame: int, delay: int) -> float:
    shifted = out[delay:]
    count = min(clean.size, shifted.size) // frame
    clean_e = _frame_energy(clean, frame, count)
    err_e = _frame_energy(shifted[: count * frame] - clean[: count * frame],
                          frame, count)
    keep = clean_e > 0.0
    with np.errstate(divide="ignore"):
        return 10.0 * float(np.mean(np.log10(clean_e[keep] / err_e[keep])))


def measure_quality(inputs, out: np.ndarray, hop: int, delay: int) -> Quality:
    """Segmental SNR gain and noise attenuation, both with delay compensation.

    Frames are ``hop`` samples; noise-only frames are those whose clean
    energy lies more than 40 dB under the loudest frame.
    """
    clean, noise = inputs.clean, inputs.noise
    gain = (_seg_snr_db(clean, out, hop, delay)
            - _seg_snr_db(clean, inputs.mixture, hop, 0))
    shifted = out[delay:]
    count = min(clean.size, noise.size, shifted.size) // hop
    clean_e = _frame_energy(clean, hop, count)
    quiet = clean_e < np.max(clean_e) * 10.0 ** (NOISE_ONLY_THRESHOLD_DB / 10.0)
    noise_e = _frame_energy(noise, hop, count)[quiet]
    out_e = _frame_energy(shifted, hop, count)[quiet]
    ratio = np.where(out_e > 0.0, noise_e / np.where(out_e > 0.0, out_e, 1.0),
                     SEG_NA_CLAMP_RATIO)
    return Quality(gain, 10.0 * float(np.log10(np.mean(ratio))))


def _latency_line(group_delay: int, hop: int, rate: int) -> str:
    return (f"group_delay_ms={1000.0 * group_delay / rate:.3f} "
            f"block_ms={1000.0 * hop / rate:.3f}")


def _first_error() -> str:
    text = traceback.format_exc()
    print(text, file=sys.stderr)
    return text.strip().splitlines()[-1]


class CliWorkload:
    """``fbeq enhance`` called in-process; checked against ``--mode direct``."""

    def __init__(self, inputs, cfg, workdir, extra_args: list[str]) -> None:
        self.inputs = inputs
        self.hops = inputs.mixture.size // cfg.hop
        self.units = 1
        self.delay = cfg.shorten_len // 2
        self.hop = cfg.hop
        self.out_path = workdir / "enhanced.wav"
        base = ["enhance", "--in", str(inputs.mixture_path), *extra_args]
        self.argv = [*base, "--out", str(self.out_path)]
        ref_path = workdir / "reference.wav"
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            code = fbeq.cli.main([*base, "--out", str(ref_path), "--mode", "direct"])
        stdout = captured.getvalue()
        if code != 0 or stdout.strip().splitlines()[-1:] != [LATENCY_LINE]:
            raise SetupError(f"direct-mode reference failed (exit {code}): {stdout!r}")
        self.reference = self._read(ref_path)
        quality = measure_quality(inputs, self.reference / PCM16_SCALE, self.hop,
                                  self.delay)
        if not quality.ok:
            raise SetupError(f"direct-mode reference misses the quality gates: {quality}")

    @staticmethod
    def _read(path) -> np.ndarray:
        _, data = wavfile.read(path)
        return data

    def call(self, tracer=None) -> Call:
        main = fbeq.cli.main if tracer is None else tracer.wrap("cli", fbeq.cli.main)
        captured = io.StringIO()
        error = None
        self.out_path.unlink(missing_ok=True)
        with contextlib.redirect_stdout(captured):
            start = perf_counter()
            try:
                code = main(self.argv)
            except Exception:  # a crash is a failed call, not a stopped run
                code, error = None, _first_error()
            seconds = perf_counter() - start
        last_line = captured.getvalue().strip().splitlines()[-1:]
        if error is None and code != 0:
            error = f"exit code {code}"
        if error is None and last_line != [LATENCY_LINE]:
            error = f"latency line {last_line}"
        output = self._read(self.out_path) if error is None else None
        return Call(seconds, output, error)

    def check(self, call: Call, first: np.ndarray) -> tuple[int, Quality | None]:
        """Failed units of ``call``; ``first`` is the run's first output."""
        if (call.error is not None or call.output is None
                or call.output.shape != self.reference.shape):
            return 1, None
        diff = np.abs(call.output.astype(np.int64) - self.reference.astype(np.int64))
        quality = measure_quality(self.inputs, call.output / PCM16_SCALE, self.hop,
                                  self.delay)
        failed = (np.max(diff, initial=0) > PCM16_TOLERANCE or not quality.ok
                  or not np.array_equal(call.output, first))
        return int(failed), quality


def _gains_to_response(gains, proto, shorten_len):
    """Map one frame's half-spectrum gains to the 2P-point filter response."""
    full = fbeq.expand_hermitian(gains)
    short = fbeq.shorten_filter(fbeq.subband_to_time(full, proto), shorten_len)
    return fbeq.filter_to_freq(short)


class StreamWorkload:
    """Per-hop closed loop over one stream; checked against ``process_stream``."""

    def __init__(self, inputs, cfg, proto) -> None:
        self.inputs = inputs
        self.spec = cfg.filterbank_spec()
        self.params = cfg.estimator_params()
        self.proto = proto
        self.shorten_len = cfg.shorten_len
        self.hop = cfg.hop
        self.delay = cfg.shorten_len // 2
        self.hops = self.units = inputs.mixture.size // cfg.hop
        self.reference, report = fbeq.process_stream(inputs.mixture, "mmse-lsa", cfg)
        line = _latency_line(report.filter_group_delay_samples,
                             report.block_buffer_samples, report.sample_rate_hz)
        if line != LATENCY_LINE:
            raise SetupError(f"process_stream reports {line!r}")
        self.tolerance = STREAM_RTOL * np.max(np.abs(self.reference))
        if not measure_quality(inputs, self.reference, self.hop, self.delay).ok:
            raise SetupError("process_stream reference misses the quality gates")

    def call(self, tracer=None) -> Call:
        hop, params, proto, p = self.hop, self.params, self.proto, self.shorten_len
        analyzer = fbeq.PolyphaseAnalyzer(proto, self.spec)
        tracker = fbeq.NoiseTrackerState.initial(self.spec.num_bins, params)
        engine = fbeq.EngineState.create(p, hop)
        push, to_response = analyzer.push, _gains_to_response
        if tracer is not None:
            push = tracer.wrap("filterbank.analysis", push, count_one)
            to_response = tracer.wrap("equalizer.map", to_response)
        # Resolved here so a traced call picks up the installed wrappers.
        update = fbeq.gains.update_noise_psd
        rule = fbeq.gains.mmse_lsa_gain
        ols = fbeq.equalizer.ols_filter_frame

        x = self.inputs.mixture
        out = np.zeros(self.hops * hop)
        hop_seconds = np.empty(self.hops)
        hop_errors = np.zeros(self.hops, dtype=bool)
        error = None
        for k in range(self.hops):
            block = x[k * hop : (k + 1) * hop]
            start = perf_counter()
            try:
                frame = push(block)
                tracker = update(tracker, frame, params)
                gains = rule(frame, tracker, params).values
                out[k * hop : (k + 1) * hop] = ols(engine, to_response(gains, proto, p),
                                                   block)
            except Exception:  # a crashing hop is a failed hop, not a stopped run
                hop_errors[k] = True
                if error is None:
                    error = _first_error()
            hop_seconds[k] = perf_counter() - start
        return Call(float(np.sum(hop_seconds)), out, error, hop_seconds, hop_errors)

    def check(self, call: Call, first: np.ndarray) -> tuple[int, Quality | None]:
        """Failed hops of ``call``; ``first`` is the run's first output."""
        diff = np.abs(call.output - self.reference).reshape(self.hops, self.hop)
        changed = np.any((call.output != first).reshape(self.hops, self.hop), axis=1)
        bad = call.hop_errors | changed | ~(np.max(diff, axis=1) <= self.tolerance)
        quality = measure_quality(self.inputs, call.output, self.hop, self.delay)
        if not quality.ok:
            return self.hops, quality
        return int(np.count_nonzero(bad)), quality


def build(name: str, inputs, cfg, workdir, proto):
    if name == "enhance":
        return CliWorkload(inputs, cfg, workdir, [])
    if name == "gainfile":
        return CliWorkload(inputs, cfg, workdir, ["--gains", str(inputs.gains_path)])
    if name == "stream":
        return StreamWorkload(inputs, cfg, proto)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("enhance", "gainfile", "stream")
