"""Seeded input generator.

The seed picks the white-noise realization and the ``mix_at_snr`` crop
offset; the speech is the fixed voiced/paused synthetic shape used by the
package's own enhancement gate.  Everything the program under test sees is
written to files: the 0 dB mixture, the clean reference, the scaled noise
(all float32 WAV) and a type-A FBEG file holding the estimator's gains for
that mixture as complex64.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

import fbeq

SAMPLE_RATE_HZ = 16000
CLIP_SECONDS = 4.0
SNR_DB = 0.0
# Extra noise beyond the clip so the seeded crop offset has room to move.
NOISE_MARGIN_SECONDS = 1.0


@dataclass(frozen=True)
class Inputs:
    """Paths of the generated files plus the signals as the program reads them."""

    mixture_path: Path
    clean_path: Path
    noise_path: Path
    gains_path: Path
    mixture: np.ndarray
    clean: np.ndarray
    noise: np.ndarray

    @property
    def seconds(self) -> float:
        return self.mixture.size / SAMPLE_RATE_HZ


def make_speech(duration_s: float = CLIP_SECONDS, rate: int = SAMPLE_RATE_HZ,
                amplitude: float = 0.25) -> np.ndarray:
    """Harmonic voiced segments separated by exact-zero pauses."""
    t = np.arange(int(duration_s * rate)) / rate
    x = np.zeros(t.size)
    ramp = int(0.02 * rate)
    for start_s, stop_s, f0 in ((0.00, 0.70, 120.0), (1.20, 2.00, 180.0),
                                (2.50, 3.30, 140.0)):
        a, b = int(start_s * rate), min(int(stop_s * rate), t.size)
        if b <= a:
            continue
        seg_t = t[a:b]
        tone = sum(np.sin(2.0 * np.pi * h * f0 * seg_t) / h for h in range(1, 11))
        env = np.ones(b - a)
        n = min(ramp, (b - a) // 2)
        if n:
            fade = 0.5 - 0.5 * np.cos(np.pi * np.arange(n) / n)
            env[:n] = fade
            env[-n:] = fade[::-1]
        x[a:b] = tone * env
    return amplitude * x / np.max(np.abs(x))


def _write_float(path: Path, samples: np.ndarray) -> np.ndarray:
    fbeq.write_wav(path, fbeq.AudioBuffer(samples, SAMPLE_RATE_HZ), fmt="float32")
    return fbeq.read_wav(path, expected_rate=SAMPLE_RATE_HZ).samples


def make_inputs(seed: int, workdir: Path, cfg) -> Inputs:
    """Write the seeded mixture, references and gain stream into ``workdir``."""
    clean = make_speech()
    margin = int(NOISE_MARGIN_SECONDS * SAMPLE_RATE_HZ)
    noise_src = np.random.default_rng(seed).standard_normal(clean.size + margin)
    mixture, scaled = fbeq.mix_at_snr(clean, noise_src, SNR_DB, seed)

    paths = {name: workdir / f"{name}.wav" for name in ("mixture", "clean", "noise")}
    mixture = _write_float(paths["mixture"], mixture)
    clean = _write_float(paths["clean"], clean)
    scaled = _write_float(paths["noise"], scaled)

    spec = cfg.filterbank_spec()
    frames = fbeq.analyze_polyphase(mixture, fbeq.design_prototype(spec), spec).frames
    gains = fbeq.estimate_gains(frames, cfg.estimator_params())
    gains_path = workdir / "gains.fbeg"
    fbeq.write_gain_stream(gains_path, gains.astype(np.complex64),
                           fbeq.TYPE_SUBBAND_GAINS, spec.frame_size, spec.hop)
    return Inputs(paths["mixture"], paths["clean"], paths["noise"], gains_path,
                  mixture, clean, scaled)
