"""Golden output hashes: a fixed matrix of fbeq's outputs, checked or rewritten.

    python3 tools/golden.py            # compare with tests/golden_outputs.json
    python3 tools/golden.py --write    # rewrite it from this tree

Run it from anywhere inside a source checkout; it imports ``fbeq`` from
``src/``.  The inputs are perfbench's 1 s clips for seeds 41 and 43: its
synthetic speech mixed by ``mix_at_snr`` with seeded white noise at 0 dB,
each as is and with 100 ms of leading zeros, written as float32 WAV files
into a temporary directory and read back.  For each clip the matrix holds:

- ``fbeq enhance`` through ``fbeq.cli.main``, in process, with the built-in
  estimator, a type-A file of the estimator's gains for the clip and a
  type-B file of their 2P-point responses; ``ols`` and ``direct``; ``pcm16``
  and ``float32`` output (the type-B ``direct`` calls exit 3);
- ``process_stream``'s output for the estimator in both modes and for the
  two files in ``ols`` mode, and ``estimate_gains``' gains and the tracker's
  final state.

Each record holds the SHA-256 of its output (the WAV file's bytes, or an
array's dtype, shape and bytes), the exit code, and stdout and stderr with
the temporary directory written as ``$TMP``.  The file also records the
Python, numpy and scipy versions and the CPU model, since another build of
numpy or scipy, or another CPU, may round differently.  A tree that keeps
every output byte-identical matches the file without rewriting it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import fbeq  # noqa: E402
from fbeq.cli import main as fbeq_main  # noqa: E402
from fbeq.equalizer import ESTIMATOR_MMSE_LSA  # noqa: E402

_write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
try:  # the benchmark's tree is only read
    from perfbench.inputs import (NOISE_MARGIN_SECONDS, SAMPLE_RATE_HZ, SNR_DB,
                                  make_speech)
finally:
    sys.dont_write_bytecode = _write_bytecode

GOLDEN = ROOT / "tests" / "golden_outputs.json"
SEEDS = (41, 43)
CLIP_SECONDS = 1.0
LEADS_MS = (0, 100)
MODES = ("ols", "direct")
FORMATS = ("pcm16", "float32")


def versions() -> dict[str, str]:
    """The interpreter, numpy, scipy and CPU the hashes were computed on."""
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.partition(":")[2].strip()
                break
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "cpu_model": cpu}


def clip(seed: int, lead_ms: int) -> np.ndarray:
    """perfbench's mixture for ``seed``, 1 s long, after ``lead_ms`` of zeros."""
    clean = make_speech(CLIP_SECONDS)
    margin = int(NOISE_MARGIN_SECONDS * SAMPLE_RATE_HZ)
    noise = np.random.default_rng(seed).standard_normal(clean.size + margin)
    mixture = fbeq.mix_at_snr(clean, noise, SNR_DB, seed)[0]
    return np.concatenate([np.zeros(lead_ms * SAMPLE_RATE_HZ // 1000), mixture])


def array_hash(array: np.ndarray) -> str:
    array = np.ascontiguousarray(array)
    digest = hashlib.sha256(f"{array.dtype.str} {array.shape}".encode())
    digest.update(array.tobytes())
    return digest.hexdigest()


def _run(call, folder: Path) -> tuple[object, dict]:
    """``call()``'s result and a record of its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        result = call()
    code = result if isinstance(result, int) else 0
    return result, {"exit": code,
                    "stdout": out.getvalue().replace(str(folder), "$TMP"),
                    "stderr": err.getvalue().replace(str(folder), "$TMP")}


def matrix() -> dict[str, dict]:
    """Every record of the matrix, by name."""
    cfg = fbeq.Config()
    proto = fbeq.design_prototype(cfg)
    records = {}
    with tempfile.TemporaryDirectory() as name:
        for seed in SEEDS:
            for lead in LEADS_MS:
                records.update(clip_records(Path(name), seed, lead, cfg, proto))
    return records


def clip_records(folder: Path, seed: int, lead: int, cfg, proto) -> dict[str, dict]:
    """The records of one clip, whose files are written into ``folder``."""
    tag = f"seed{seed}/lead{lead}ms"
    wav = folder / f"{seed}-{lead}.wav"
    fbeq.write_wav(wav, fbeq.AudioBuffer(clip(seed, lead), SAMPLE_RATE_HZ),
                   fmt="float32")
    x = fbeq.read_wav(wav).samples
    frames = fbeq.analyze_polyphase(x, proto, cfg).frames
    tracker = fbeq.NoiseTrackerState.initial(cfg.num_bins, cfg)
    gains, record = _run(lambda: fbeq.estimate_gains(frames, cfg, tracker), folder)
    state = np.concatenate([tracker.noise_psd.ravel(), tracker.xi_prev.ravel(),
                            [tracker.frame_count]])
    records = {f"estimate_gains/{tag}/gains": {"sha256": array_hash(gains), **record},
               f"estimate_gains/{tag}/state": {"sha256": array_hash(state), **record}}
    sources = {"estimator": ESTIMATOR_MMSE_LSA,
               "type-A": folder / f"{seed}-{lead}-a.fbeg",
               "type-B": folder / f"{seed}-{lead}-b.fbeg"}
    fbeq.write_gain_stream(sources["type-A"], gains.astype(np.complex64),
                           fbeq.TYPE_SUBBAND_GAINS, cfg.frame_size, cfg.hop)
    responses = fbeq.filter_to_freq(fbeq.gains_to_taps(gains, proto, cfg.shorten_len))
    fbeq.write_gain_stream(sources["type-B"], responses.astype(np.complex64),
                           fbeq.TYPE_DFT_RESPONSES, cfg.frame_size, cfg.hop)
    out = folder / "out.wav"
    for source, gain_source in sources.items():
        for mode in MODES:
            if mode == "ols" or source == "estimator":
                mode_cfg = fbeq.Config(mode=mode)
                (y, _), record = _run(
                    lambda: fbeq.process_stream(x, str(gain_source), mode_cfg), folder)
                records[f"process_stream/{tag}/{source}/{mode}"] = {
                    "sha256": array_hash(y), **record}
            for fmt in FORMATS:
                argv = ["enhance", "--in", str(wav), "--out", str(out),
                        "--mode", mode, "--format", fmt]
                if source != "estimator":
                    argv += ["--gains", str(gain_source)]
                _, record = _run(lambda: fbeq_main(argv), folder)
                digest = (hashlib.sha256(out.read_bytes()).hexdigest()
                          if out.exists() else None)
                records[f"enhance/{tag}/{source}/{mode}/{fmt}"] = {
                    "sha256": digest, **record}
                out.unlink(missing_ok=True)
    return records


def compare(golden: dict, records: dict[str, dict]) -> list[str]:
    """Lines describing how ``records`` differ from ``golden``; none if equal.

    When a record moved, any version that differs from the recorded one is
    named first, since it can move a hash by itself.
    """
    lines = []
    expected = golden["records"]
    for name in sorted(expected.keys() | records.keys()):
        if name not in records:
            lines.append(f"{name}: missing from this tree's matrix")
        elif name not in expected:
            lines.append(f"{name}: not in the golden file")
        elif records[name] != expected[name]:
            moved = [key for key in expected[name]
                     if expected[name][key] != records[name].get(key)]
            lines.append(f"{name}: {', '.join(moved)} moved")
    now = versions()
    changed = [f"{key} {value} recorded, {now.get(key)} running"
               for key, value in golden["versions"].items() if now.get(key) != value]
    if lines and changed:
        lines.insert(0, f"versions differ ({'; '.join(changed)}): the hashes may "
                        "move for that reason alone")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true",
                        help=f"rewrite {GOLDEN.relative_to(ROOT)} from this tree")
    args = parser.parse_args(argv)
    records = matrix()
    if args.write:
        GOLDEN.write_text(json.dumps({"versions": versions(), "records": records},
                                     indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(records)} records to {GOLDEN}")
        return 0
    lines = compare(json.loads(GOLDEN.read_text()), records)
    print("\n".join(lines) or f"all {len(records)} records match")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
