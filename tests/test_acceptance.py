"""End-to-end acceptance gate.

Each test covers one release criterion and prints a single
``[criterion NN] name: PASS/FAIL`` line (visible with ``pytest -s`` or in
the captured-output section of a failure report) before asserting.
"""

import struct
import time

import numpy as np
import pytest
from scipy.integrate import quad

from fbeq import exp_integral_e1, fbeg
from fbeq.audio_io import AudioBuffer, mix_at_snr, write_wav
from fbeq.cli import main
from fbeq.config import Config
from fbeq.equalizer import gains_to_taps, process_stream, subband_to_time
from fbeq.errors import FormatError
from fbeq.filterbank import (
    analyze_polyphase,
    design_prototype,
    expand_hermitian,
)
from fbeq.gains import NoiseTrackerState, mmse_lsa_gain
from fbeq.metrics import ri_mag_loss, seg_na, seg_snr

from conftest import analyze_direct, make_speech


def _verdict(num: int, name: str, ok: bool) -> bool:
    print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}")
    return ok


def random_hermitian(rng, num_bins):
    """Half-spectrum gain row with real zero/Nyquist bins."""
    g = rng.standard_normal(num_bins) + 1j * rng.standard_normal(num_bins)
    g[0] = g[0].real
    g[-1] = g[-1].real
    return g


def sliding_history(x, taps_len, hop, num_frames):
    """windows[k, l] = x[(k+1)*hop - 1 - l], zero before the signal starts."""
    windows = np.zeros((num_frames, taps_len))
    for k in range(num_frames):
        for l in range(taps_len):
            n = (k + 1) * hop - 1 - l
            if 0 <= n < x.size:
                windows[k, l] = x[n]
    return windows


def write_unity_stream(path, num_frames, frame_size, hop):
    ones = np.ones((num_frames, frame_size // 2 + 1), dtype=np.complex64)
    fbeg.write_gain_stream(path, ones, fbeg.TYPE_SUBBAND_GAINS,
                           frame_size, hop)


class TestAcceptance:
    def test_criterion_01_unity_gain_identity(self, tmp_path):
        cfg = Config()
        rng = np.random.default_rng(0)
        x = 0.1 * rng.standard_normal(10 * 16000)
        stream = tmp_path / "unity.fbeg"
        write_unity_stream(stream, x.size // cfg.hop, cfg.frame_size, cfg.hop)
        started = time.perf_counter()
        y, report = process_stream(x, str(stream), cfg)
        elapsed = time.perf_counter() - started
        delay = cfg.shorten_len // 2
        warm = cfg.proto_len + 2 * cfg.shorten_len
        ref = x[warm - delay : y.size - delay]
        rel_rms = np.linalg.norm(y[warm:] - ref) / np.linalg.norm(ref)
        ok = (y.size == x.size and rel_rms <= 1e-9 and elapsed < 5.0
              and report.filter_group_delay_samples == 64)
        assert _verdict(1, "unity-gain identity", ok), (
            f"rel_rms={rel_rms:.3e} elapsed={elapsed:.2f}s"
        )

    def test_criterion_02_polyphase_direct_equivalence(
            self, default_spec, default_proto, small_spec, small_proto):
        worst = 0.0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            x = rng.standard_normal(16000)
            d = analyze_direct(x, default_proto, default_spec).frames
            p = analyze_polyphase(x, default_proto, default_spec).frames
            worst = max(worst, np.max(np.abs(p - d)) / np.max(np.abs(d)))

        rng = np.random.default_rng(1234)
        x = rng.standard_normal(400)
        spec, proto = small_spec, small_proto
        frames = analyze_polyphase(x, proto, spec).frames
        brute = np.zeros_like(frames)
        for k in range(frames.shape[0]):
            for i in range(frames.shape[1]):
                acc = 0.0 + 0.0j
                for l in range(proto.size):
                    n = (k + 1) * spec.hop - 1 - l
                    if 0 <= n < x.size:
                        acc += x[n] * proto[l] * np.exp(
                            -2j * np.pi * i * (l - spec.tau) / spec.frame_size
                        )
                brute[k, i] = acc
        brute_err = np.max(np.abs(frames - brute)) / np.max(np.abs(brute))
        ok = worst <= 1e-10 and brute_err <= 1e-10
        assert _verdict(2, "polyphase-direct analysis equivalence", ok), (
            f"default worst={worst:.3e} brute={brute_err:.3e}"
        )

    def test_criterion_03_ols_direct_equivalence(self, tmp_path):
        rng = np.random.default_rng(7)
        x = 0.3 * rng.standard_normal(16000)
        num_frames = x.size // 64
        fixed = random_hermitian(rng, 257)
        stream = tmp_path / "fixed.fbeg"
        fbeg.write_gain_stream(
            stream, np.tile(fixed, (num_frames, 1)).astype(np.complex64),
            fbeg.TYPE_SUBBAND_GAINS, 512, 64,
        )
        y_ols, _ = process_stream(x, str(stream), Config(mode="ols"))
        y_dir, _ = process_stream(x, str(stream), Config(mode="direct"))
        fixed_err = np.max(np.abs(y_ols - y_dir)) / np.max(np.abs(y_dir))

        noisy = 0.05 * rng.standard_normal(16000) + make_speech(1.0)
        e_ols, _ = process_stream(noisy, "mmse-lsa", Config(mode="ols"))
        e_dir, _ = process_stream(noisy, "mmse-lsa", Config(mode="direct"))
        est_err = np.max(np.abs(e_ols - e_dir)) / np.max(np.abs(e_dir))
        ok = fixed_err <= 1e-9 and est_err <= 1e-9
        assert _verdict(3, "overlap-save vs direct filtering", ok), (
            f"fixed={fixed_err:.3e} estimator={est_err:.3e}"
        )

    def test_criterion_04_summation_vs_time_filtering(
            self, default_spec, default_proto, small_spec, small_proto):
        ok = True
        detail = []
        for spec, proto in ((small_spec, small_proto),
                            (default_spec, default_proto)):
            rng = np.random.default_rng(spec.frame_size)
            x = rng.standard_normal(2 * proto.size + 40 * spec.hop)
            half = random_hermitian(rng, spec.frame_size // 2 + 1)
            full = expand_hermitian(half)
            hd = subband_to_time(full, proto)

            frames = analyze_polyphase(x, proto, spec).frames
            frames_full = np.concatenate(
                [frames, np.conj(frames[:, -2:0:-1])], axis=1
            )
            y_sum = frames_full @ full
            windows = sliding_history(x, proto.size, spec.hop,
                                      frames.shape[0])
            y_time = windows @ hd
            err = np.max(np.abs(y_sum - y_time)) / np.max(np.abs(y_time))
            detail.append(f"M={spec.frame_size}: {err:.3e}")
            ok = ok and err <= 1e-10
        assert _verdict(4, "per-frame summation vs time filtering", ok), (
            " ".join(detail)
        )

    def test_criterion_05_gain_synthesis_brute_force(self):
        ok = True
        detail = []
        for m, l_len in ((16, 16), (512, 512)):
            spec = Config(frame_size=m, proto_len=l_len, hop=m // 4,
                          sample_rate_hz=16000, shorten_len=m // 4)
            proto = design_prototype(spec)
            lags = np.arange(proto.size) - spec.tau
            phase = np.exp(-2j * np.pi * np.outer(lags, np.arange(m)) / m)
            rng = np.random.default_rng(m)
            # gains_to_taps keeps only the central P lags of the same sum.
            p = m // 4
            central = slice(spec.tau - p // 2, spec.tau + p // 2)
            worst = worst_short = 0.0
            for _ in range(50):
                half = random_hermitian(rng, m // 2 + 1)
                full = expand_hermitian(half)
                lib = subband_to_time(full, proto)
                brute = proto * (phase @ full).real
                worst = max(worst,
                            np.max(np.abs(lib - brute)) / np.max(np.abs(brute)))
                short = gains_to_taps(half, proto, p)
                worst_short = max(worst_short,
                                  np.max(np.abs(short - brute[central]))
                                  / np.max(np.abs(brute[central])))
            detail.append(f"M={m}: {worst:.3e}, central P={p}: {worst_short:.3e}")
            ok = ok and worst <= 1e-11 and worst_short <= 1e-11
        assert _verdict(5, "gain-to-filter synthesis brute force", ok), (
            " ".join(detail)
        )

    def test_criterion_06_white_noise_enhancement(self):
        clean = make_speech()
        noise_src = np.random.default_rng(1000).standard_normal(
            clean.size + 16000
        )
        mixture, scaled = mix_at_snr(clean, noise_src, 0.0, seed=0)
        enhanced, _ = process_stream(mixture, "mmse-lsa", Config())
        delay = 64
        attenuation = seg_na(clean, scaled, enhanced[delay:], 64)
        snr_in = seg_snr(clean, mixture, 64)
        snr_out = seg_snr(clean, enhanced[delay:], 64)
        improvement = snr_out - snr_in
        ok = attenuation >= 10.0 and improvement >= 2.0
        assert _verdict(6, "white-noise enhancement at 0 dB", ok), (
            f"seg_na={attenuation:.2f} dB, "
            f"seg_snr {snr_in:.2f} -> {snr_out:.2f} dB"
        )

    def test_criterion_07_metric_oracles(self, small_spec, small_proto):
        rng = np.random.default_rng(17)
        noise = rng.standard_normal(64 * 10)
        silent = np.zeros(640)

        exact = (
            seg_na(silent, noise, noise, 64) == 0.0
            and seg_na(silent, noise, noise / 2.0, 64)
            == pytest.approx(20.0 * np.log10(2.0), rel=1e-13)
        )
        a = analyze_polyphase(noise, small_proto, small_spec).frames
        exact = exact and ri_mag_loss(a, a) == 0.0

        worst = 0.0
        for _ in range(10):
            n = rng.standard_normal(640)
            p = 0.4 * rng.standard_normal(640)
            ratios = [np.sum(n[m * 64:(m + 1) * 64] ** 2)
                      / np.sum(p[m * 64:(m + 1) * 64] ** 2)
                      for m in range(10)]
            want_na = 10.0 * np.log10(np.mean(ratios))
            worst = max(worst, abs(seg_na(silent, n, p, 64) - want_na))

            c = rng.standard_normal(640)
            d = c + 0.2 * rng.standard_normal(640)
            terms = [10.0 * np.log10(np.sum(c[m * 64:(m + 1) * 64] ** 2)
                                     / np.sum((d - c)[m * 64:(m + 1) * 64] ** 2))
                     for m in range(10)]
            worst = max(worst, abs(seg_snr(c, d, 64) - np.mean(terms)))

            b = analyze_polyphase(d, small_proto, small_spec).frames
            ac = analyze_polyphase(c, small_proto, small_spec).frames
            want_loss = float(
                np.sum((ac.real - b.real) ** 2)
                + np.sum((ac.imag - b.imag) ** 2)
                + np.sum((np.abs(ac) - np.abs(b)) ** 2)
            )
            worst = max(worst,
                        abs(ri_mag_loss(ac, b) - want_loss) / want_loss)
        ok = exact and worst <= 1e-9
        assert _verdict(7, "metric oracles", ok), f"worst={worst:.3e}"

    def test_criterion_08_latency_report(self, tmp_path, capsys):
        cfg = Config()
        rng = np.random.default_rng(21)
        x = 0.1 * rng.standard_normal(16000)
        stream = tmp_path / "unity.fbeg"
        write_unity_stream(stream, x.size // cfg.hop, cfg.frame_size, cfg.hop)
        y, report = process_stream(x, str(stream), cfg)
        size = 2 * x.size
        spectrum = np.fft.rfft(y, size) * np.conj(np.fft.rfft(x, size))
        corr = np.fft.irfft(spectrum, size)
        lag = int(np.argmax(corr[:512]))

        wav = tmp_path / "in.wav"
        write_wav(wav, AudioBuffer(0.1 * rng.standard_normal(8000), 16000),
                  fmt="float32")
        code = main(["enhance", "--in", str(wav),
                     "--out", str(tmp_path / "out.wav")])
        printed = capsys.readouterr().out
        ok = (lag == 64 and report.group_delay_ms == 4.0 and code == 0
              and "group_delay_ms=4.000" in printed)
        assert _verdict(8, "latency report", ok), (
            f"lag={lag} printed={printed!r}"
        )

    def test_criterion_09_exponential_integral_accuracy(self):
        xs = np.logspace(np.log10(1e-3), np.log10(50.0), 1000)
        ours = exp_integral_e1(xs)
        worst = 0.0
        for x, got in zip(xs, ours):
            want, _ = quad(lambda t: np.exp(-t) / t, x, np.inf,
                           epsabs=0.0, epsrel=1e-12, limit=200)
            worst = max(worst, abs(got - want) / abs(want))

        params = Config()
        state = NoiseTrackerState(noise_psd=np.ones(4),
                                  xi_prev=np.ones(4), frame_count=10)
        frame = np.full(4, 1.0 + 1.0j)  # |x|^2 = 2, so nu = 1 exactly
        gain = mmse_lsa_gain(frame, state, params).values[0]
        ok = worst <= 1e-7 and abs(gain - 0.5580) <= 1e-3
        assert _verdict(9, "exponential-integral accuracy", ok), (
            f"worst={worst:.3e} gain={gain:.6f}"
        )

    def test_criterion_10_gain_stream_format(self, tmp_path):
        rng = np.random.default_rng(33)
        frames = (rng.standard_normal((7, 257))
                  + 1j * rng.standard_normal((7, 257))).astype(np.complex64)
        path = tmp_path / "round.fbeg"
        fbeg.write_gain_stream(path, frames, fbeg.TYPE_SUBBAND_GAINS, 512, 64)
        header, back = fbeg.load_gain_stream(path)
        round_trip = (
            np.array_equal(back, frames.astype(np.complex128))
            and header == fbeg.StreamHeader(fbeg.TYPE_SUBBAND_GAINS,
                                            512, 64, 257, 7)
        )

        base = path.read_bytes()
        target = tmp_path / "fuzzed.fbeg"
        survived = True
        for trial in range(200):
            corrupt = bytearray(base)
            pos = int(rng.integers(0, struct.calcsize("<4sHBBIIII")))
            corrupt[pos] = int(rng.integers(0, 256))
            target.write_bytes(bytes(corrupt))
            try:
                fbeg.load_gain_stream(target)
            except FormatError:
                pass
            except Exception:  # noqa: BLE001 - any other escape is a crash
                survived = False
                break
        for cut in (0, 3, 23, 24, len(base) - 1):
            target.write_bytes(base[:cut])
            try:
                fbeg.load_gain_stream(target)
                survived = False  # every truncation must be rejected
            except FormatError:
                pass
            except Exception:  # noqa: BLE001
                survived = False
        ok = round_trip and survived
        assert _verdict(10, "gain-stream format robustness", ok)
