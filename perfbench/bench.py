"""Measurement loop, metrics and the result line.

An untraced run (``--trace 0``) reports the end-to-end metrics: set-up time,
real-time factor, per-hop service time, peak memory and output quality.  A
traced run (``--trace 1``) alternates untraced and traced calls and reports
per-layer self times from the traced ones, per second of audio, plus the
tracing overhead.  Both runs check every output.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

import fbeq

from . import calibration
from .inputs import make_inputs
from .tracing import Tracer
from .workloads import WORKLOADS, Call, SetupError, build

SETUP_REPEATS = 7
SETUP_NOMINAL_S = 0.3
TAIL_BEYOND = 10
BYTES_PER_MB = 1e6
WORK_DIR = ".perfbench_work"

# Timed in a fresh interpreter each time, so imports are not already cached.
SETUP_SNIPPET = """\
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import fbeq
cfg = fbeq.build_config()
fbeq.design_prototype(cfg.filterbank_spec())
print(repr(time.perf_counter() - start), fbeq.__file__)
"""

END_TO_END = {
    "setup_s": "s",
    "rtf": "s/s",
    "rtf_tail": "s/s",
    "hop_p50_us": "us",
    "hop_p99_us": "us",
    "peak_mem_mb": "MB",
    "seg_snr_gain_db": "dB",
    "seg_na_db": "dB",
}

# Per-layer metric -> span name whose self time it reports.
SELF_TIMES = {
    "special.e1_s": "special.e1",
    "gains.estimate_s": "gains.estimate",
    "gains.tracker_s": "gains.tracker",
    "gains.rule_s": "gains.rule",
    "filterbank.design_s": "filterbank.design",
    "filterbank.analysis_s": "filterbank.analysis",
    "equalizer.process_self_s": "equalizer.process_stream",
    "equalizer.map_s": "equalizer.map",
    "equalizer.ols_s": "equalizer.ols",
    "fbeg.load_s": "fbeg.load",
    "audio_io.read_s": "audio_io.read",
    "audio_io.write_s": "audio_io.write",
    "cli.self_s": "cli",
}
# Per-layer metric -> (span name, unit) whose element count it reports.
COUNTS = {
    "special.e1_evals": ("special.e1", "1/s"),
    "filterbank.frames": ("filterbank.analysis", "1/s"),
    "equalizer.ols_calls": ("equalizer.ols", "1/s"),
    "fbeg.bytes_read": ("fbeg.load", "B/s"),
}

PER_LAYER = {
    **{name: "s/s" for name in SELF_TIMES},
    **{name: unit for name, (_, unit) in COUNTS.items()},
    "equalizer.process_stream_s": "s/s",
    "trace.rtf": "s/s",
    "trace.unattributed_s": "s/s",
    "trace.overhead_frac": "ratio",
}


@dataclass
class Run:
    """Every call of one measurement, split by whether it was traced."""

    untraced: list[Call] = field(default_factory=list)
    traced: list[Call] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    quality: list = field(default_factory=list)
    errors: list[str] = field(default_factory=list)


def tail(values, cap: float = 1.0) -> tuple[float, float, int]:
    """The highest percentile (at most ``cap``) with ``TAIL_BEYOND`` samples beyond it.

    Nearest-rank, never below the median.  Returns the value, the percentile
    and the sample count.
    """
    ordered = np.sort(np.asarray(values, dtype=np.float64))
    n = ordered.size
    rank = max(math.ceil(0.5 * n), min(math.ceil(cap * n), n - TAIL_BEYOND))
    return float(ordered[rank - 1]), 100.0 * rank / n, n


def measure_setup(root: Path) -> tuple[list[float], list[float]]:
    """Seconds to import fbeq, build the config and design the prototype.

    Returns the wall times and the speed scale of each sample.
    """
    src = root / "src"
    command = [sys.executable, "-c", SETUP_SNIPPET, str(src)]
    units = calibration.units_for(SETUP_NOMINAL_S)
    walls, scales = [], []
    for _ in range(SETUP_REPEATS):
        done, scale = calibration.timed(
            lambda: subprocess.run(command, cwd=root, capture_output=True,
                                   text=True, timeout=120, check=True),
            units)
        seconds, module_file = done.stdout.split()
        if not Path(module_file).resolve().is_relative_to(src.resolve()):
            raise RuntimeError(f"set-up imported fbeq from {module_file}, not {src}")
        walls.append(float(seconds))
        scales.append(scale)
    return walls, scales


def peak_memory_mb(workload) -> float:
    """Peak traced allocation of one untimed call."""
    gc.collect()
    tracemalloc.start()
    try:
        workload.call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / BYTES_PER_MB


def measure(workload, seconds: float, tracer: Tracer | None = None,
            corrupt=None) -> Run:
    """Call the workload until ``seconds`` have passed, checking every output.

    The first call warms caches and is not timed; every later output must
    equal it bit for bit.  With a tracer, traced and untraced calls
    alternate.  ``corrupt``, when given, alters each timed call's output
    before it is checked.
    """
    run = Run()

    def record(call: Call) -> None:
        failed, quality = workload.check(call, baseline.output)
        run.attempted += workload.units
        run.failed += failed
        if quality is not None:
            run.quality.append(quality)
        if call.error is not None:
            run.errors.append(call.error)

    def traced_call() -> Call:
        with tracer.installed():
            return workload.call(tracer)

    baseline = workload.call()
    record(baseline)
    units = calibration.units_for(baseline.seconds)
    deadline = perf_counter() + seconds
    while (perf_counter() < deadline or not run.untraced
           or (tracer is not None and not run.traced)):
        gc.collect()
        if tracer is not None and len(run.traced) < len(run.untraced):
            call, scale = calibration.timed(traced_call, units)
            run.traced.append(call)
        else:
            call, scale = calibration.timed(workload.call, units)
            run.untraced.append(call)
        call.scale = scale
        if corrupt is not None:
            corrupt(call)
        record(call)
    return run


def _timings(workload, calls: list[Call], audio_s: float, scaled: bool) -> dict:
    """RTF and per-hop service-time figures of the timed calls."""
    rtf = [c.seconds * (c.scale if scaled else 1.0) / audio_s for c in calls]
    if calls[0].hop_seconds is not None:
        hop_s = np.concatenate([c.hop_seconds * (c.scale if scaled else 1.0)
                                for c in calls])
    else:
        # Batch calls have no hops of their own: each hop is charged its
        # call's wall time divided by the call's hop count.
        hop_s = np.array(rtf) * audio_s / workload.hops
    rtf_tail, rtf_pct, rtf_n = tail(rtf)
    hop_tail, hop_pct, hop_n = tail(hop_s, cap=0.99)
    return {
        "rtf": statistics.median(rtf),
        "rtf_tail": rtf_tail,
        "hop_p50_us": 1e6 * float(np.median(hop_s)),
        "hop_p99_us": 1e6 * hop_tail,
        "rtf_tail_percentile": rtf_pct,
        "rtf_tail_samples": rtf_n,
        "hop_p99_percentile": hop_pct,
        "hop_samples": hop_n,
    }


def _over_budget(workload, calls: list[Call], hop_budget_s: float) -> float:
    """Share of hops over the hop budget in wall time, or raising."""
    if calls[0].hop_seconds is not None:
        over = np.concatenate([(c.hop_seconds > hop_budget_s) | c.hop_errors
                               for c in calls])
    else:
        over = np.array([c.error is not None or c.seconds / workload.hops > hop_budget_s
                         for c in calls])
    return float(np.mean(over))


def end_to_end(workload, run: Run, audio_s: float, setup: tuple[list, list],
               peak_mb: float, hop_budget_s: float) -> tuple[dict, dict]:
    """Declared end-to-end metrics, and the extra figures printed beside them."""
    scaled = _timings(workload, run.untraced, audio_s, scaled=True)
    wall = _timings(workload, run.untraced, audio_s, scaled=False)
    setup_wall, setup_scale = setup
    metrics = {
        "setup_s": statistics.median(w * k for w, k in zip(setup_wall, setup_scale)),
        **{name: scaled[name] for name in ("rtf", "rtf_tail", "hop_p50_us", "hop_p99_us")},
        "peak_mem_mb": peak_mb,
        "seg_snr_gain_db": statistics.median(q.seg_snr_gain_db for q in run.quality),
        "seg_na_db": statistics.median(q.seg_na_db for q in run.quality),
    }
    extra = {
        "fail_frac": run.failed / run.attempted,
        "hop_over_budget_frac": _over_budget(workload, run.untraced, hop_budget_s),
        "hop_budget_us": 1e6 * hop_budget_s,
        **{name: scaled[name] for name in ("rtf_tail_percentile", "rtf_tail_samples",
                                           "hop_p99_percentile", "hop_samples")},
        "speed_scale_median": statistics.median(c.scale for c in run.untraced),
        "probe_unit_us": 1e6 * calibration.REFERENCE_UNIT_S
        / statistics.median(c.scale for c in run.untraced),
        "setup_wall_s": statistics.median(setup_wall),
        **{f"{name}_wall": wall[name] for name in ("rtf", "rtf_tail", "hop_p50_us",
                                                  "hop_p99_us")},
    }
    return metrics, extra


def per_layer(tracer: Tracer, run: Run, audio_s: float) -> tuple[dict, dict]:
    """Self time per layer, in seconds per second of traced audio."""
    # Traced calls are numbered from 1 in the order they ran.
    own, inclusive, count = tracer.totals(
        {i: c.scale for i, c in enumerate(run.traced, start=1)})
    traced_audio_s = len(run.traced) * audio_s
    metrics = {name: own[span] / traced_audio_s for name, span in SELF_TIMES.items()}
    metrics.update({name: count[span] / traced_audio_s
                    for name, (span, _) in COUNTS.items()})
    metrics["equalizer.process_stream_s"] = (
        inclusive["equalizer.process_stream"] / traced_audio_s)
    traced_rtf = sum(c.seconds * c.scale for c in run.traced) / traced_audio_s
    metrics["trace.rtf"] = traced_rtf
    metrics["trace.unattributed_s"] = traced_rtf - sum(
        metrics[name] for name in SELF_TIMES)
    metrics["trace.overhead_frac"] = (
        statistics.median(c.seconds * c.scale for c in run.traced)
        / statistics.median(c.seconds * c.scale for c in run.untraced) - 1.0)
    extra = {
        "fail_frac": run.failed / run.attempted,
        "traced_calls": len(run.traced),
        "untraced_calls": len(run.untraced),
        "spans": len(tracer.spans),
    }
    return metrics, extra


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def machine_record(root: Path) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": _git_commit(root),
        "native_threads": {var: os.environ.get(var) for var in
                           ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                            "MKL_NUM_THREADS")},
    }


def parse_args(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py",
                                     description="fbeq performance benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv, root: Path) -> int:
    args = parse_args(argv)
    src = (root / "src").resolve()
    if not Path(fbeq.__file__).resolve().is_relative_to(src):
        print(f"perfbench: fbeq was imported from {fbeq.__file__}, not {src}",
              file=sys.stderr)
        return 2
    work_root = root / WORK_DIR
    work_root.mkdir(exist_ok=True)
    setup = ([], []) if args.trace else measure_setup(root)
    cfg = fbeq.build_config()
    spec = cfg.filterbank_spec()
    proto = fbeq.design_prototype(spec)
    hop_budget_s = spec.hop / spec.sample_rate_hz
    with tempfile.TemporaryDirectory(dir=work_root) as tmp:
        workdir = Path(tmp)
        inputs = make_inputs(args.seed, workdir, cfg)
        try:
            workload = build(args.workload, inputs, cfg, workdir, proto)
        except SetupError as exc:
            print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
            return 1
        if args.trace:
            tracer = Tracer()
            run = measure(workload, args.seconds, tracer)
            metrics, extra = per_layer(tracer, run, inputs.seconds)
            units = PER_LAYER
            tracer.write(work_root / f"spans-{args.workload}.csv")
        else:
            run = measure(workload, args.seconds)
            peak_mb = peak_memory_mb(workload)
            metrics, extra = end_to_end(workload, run, inputs.seconds, setup,
                                        peak_mb, hop_budget_s)
            units = END_TO_END
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} "
          f"clip_s={inputs.seconds:g}")
    print("machine " + json.dumps(machine_record(root), sort_keys=True))
    for name, value in metrics.items():
        print(f"  {name:28s} {value:.6g} {units[name]}")
    for name, value in extra.items():
        print(f"  {name:28s} {value}")
    for error in sorted(set(run.errors)):
        print(f"  error: {error}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0
