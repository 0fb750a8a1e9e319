"""Traced peak memory of one ``fbeq enhance`` call, by clip length and format.

    python3 tools/cli_peak.py                    # 4 s and 60 s clips
    python3 tools/cli_peak.py --seconds 4 600

Run it from anywhere inside a source checkout; it imports ``fbeq`` from
``src/``.  Each clip is 0.1-amplitude white noise (seed 139) at 16 kHz,
written as a float32 WAV into a temporary directory that is removed at the
end.  ``fbeq.cli.main(["enhance", ...])`` runs with the built-in estimator
at the default geometry, in process, under ``tracemalloc``, once untraced
first so that imports and cached tables are not counted; the figure is the
peak of the traced call in MB (10^6 bytes), for PCM16 and for float32
output.  The last column is the peak's growth per added input sample
against the shortest clip.  Only the standard library and numpy are used
besides ``fbeq``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys
import tempfile
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import fbeq  # noqa: E402
from fbeq.cli import main as fbeq_main  # noqa: E402

RATE_HZ = 16000
FORMATS = ("pcm16", "float32")


def peak_bytes(wav: Path, out: Path, fmt: str) -> int:
    """Traced peak of one ``fbeq enhance`` call."""
    argv = ["enhance", "--in", str(wav), "--out", str(out), "--format", fmt]
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):  # the latency line
            code = fbeq_main(argv)
        if code != 0:
            raise SystemExit(f"fbeq enhance failed on {wav}")
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=int, nargs="+", default=[4, 60],
                        help="clip lengths in seconds (default: 4 60)")
    args = parser.parse_args(argv)
    rng = np.random.default_rng(139)
    seconds = sorted(set(args.seconds))
    with tempfile.TemporaryDirectory() as folder:
        folder = Path(folder)
        wavs = {}
        for length in seconds:
            wavs[length] = folder / f"{length}s.wav"
            samples = 0.1 * rng.standard_normal(length * RATE_HZ)
            fbeq.write_wav(wavs[length], fbeq.AudioBuffer(samples, RATE_HZ),
                           fmt="float32")
        out = folder / "out.wav"
        peak_bytes(wavs[seconds[0]], out, FORMATS[0])  # imports and cached tables
        print(f"{'seconds':>7} {'format':>8} {'peak_MB':>9} {'B/sample':>9}")
        for fmt in FORMATS:
            first = None
            for length in seconds:
                peak = peak_bytes(wavs[length], out, fmt)
                if first is None:
                    first, growth = (length, peak), "-"
                else:
                    added = (length - first[0]) * RATE_HZ
                    growth = f"{(peak - first[1]) / added:.3f}"
                print(f"{length:>7} {fmt:>8} {peak / 1e6:>9.3f} {growth:>9}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
