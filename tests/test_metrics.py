import re

import numpy as np
import pytest

from fbeq import metrics
from fbeq.config import Config
from fbeq.errors import DataError
from fbeq.filterbank import analyze_polyphase
from fbeq.metrics import _noise_only, compute_report, ri_mag_loss, seg_na, seg_snr


def reference_seg_na(noise, processed, noise_only, r, delay=0):
    """Direct per-frame loop over the attenuation formula, over the frames
    the boolean mask ``noise_only`` marks."""
    shifted = processed[delay:]
    limit = min(len(noise_only), len(noise) // r, len(shifted) // r)
    ratios = []
    for m in range(limit):
        if not noise_only[m]:
            continue
        n = noise[m * r : (m + 1) * r]
        p = shifted[m * r : (m + 1) * r]
        den = np.sum(p**2)
        ratios.append(1e10 if den == 0 else np.sum(n**2) / den)
    return 10.0 * np.log10(np.mean(ratios)) if ratios else None


def reference_seg_snr(clean, processed, r, delay=0):
    shifted = processed[delay:]
    limit = min(len(clean), len(shifted)) // r
    terms = []
    for m in range(limit):
        s = clean[m * r : (m + 1) * r]
        e = shifted[m * r : (m + 1) * r] - s
        se = np.sum(s**2)
        if se == 0.0:
            continue
        ee = np.sum(e**2)
        if ee == 0.0:
            return None
        terms.append(10.0 * np.log10(se / ee))
    return float(np.mean(terms)) if terms else None


def silent_in(frames, num_frames, r=64):
    """A clean reference of ``num_frames`` frames that is silent exactly in
    ``frames``: those, and only those, are noise-only."""
    clean = np.ones(num_frames * r)
    for m in frames:
        clean[m * r : (m + 1) * r] = 0.0
    return clean


class TestLabelNoiseOnly:
    def test_pause_frames_are_labeled(self):
        clean = np.zeros(640)
        clean[0:256] = 1.0  # loud frames 0..3 at frame length 64
        mask = _noise_only(clean, 64)
        assert mask.dtype == bool
        assert mask.size == 10
        assert np.flatnonzero(mask).tolist() == list(range(4, 10))

    def test_threshold_is_relative_to_peak(self):
        clean = np.concatenate([np.full(64, 1.0), np.full(64, 0.011),
                                np.full(64, 0.009)])
        mask = _noise_only(clean, 64)  # -40 dB of peak: amplitude 0.01
        assert mask.tolist() == [False, False, True]

    def test_all_zero_signal_labels_everything(self):
        mask = _noise_only(np.zeros(320), 64)
        assert mask.tolist() == [True] * 5

    def test_custom_threshold(self, monkeypatch):
        """The threshold is the module constant, read at each call."""
        clean = np.concatenate([np.full(64, 1.0), np.full(64, 0.2)])
        monkeypatch.setattr(metrics, "NOISE_ONLY_THRESHOLD_DB", -10.0)
        assert _noise_only(clean, 64).tolist() == [False, True]
        monkeypatch.setattr(metrics, "NOISE_ONLY_THRESHOLD_DB", -20.0)
        assert _noise_only(clean, 64).tolist() == [False, False]

    def test_bad_frame_length(self):
        with pytest.raises(DataError, match="positive"):
            _noise_only(np.ones(100), 0)
        with pytest.raises(DataError, match="exceeds"):
            _noise_only(np.ones(100), 128)
        with pytest.raises(DataError, match="positive"):
            seg_na(np.ones(100), np.ones(100), np.ones(100), 0)
        with pytest.raises(DataError, match="exceeds"):
            seg_na(np.ones(100), np.ones(100), np.ones(100), 128)


class TestSegNa:
    def test_unprocessed_noise_gives_zero(self):
        rng = np.random.default_rng(3)
        noise = rng.standard_normal(640)
        clean = silent_in(range(10), 10)
        assert seg_na(clean, noise, noise, 64) == pytest.approx(0.0, abs=1e-12)

    def test_half_amplitude_gives_six_db(self):
        rng = np.random.default_rng(5)
        noise = rng.standard_normal(640)
        clean = silent_in(range(10), 10)
        value = seg_na(clean, noise, noise / 2.0, 64)
        assert value == pytest.approx(20.0 * np.log10(2.0), rel=1e-12)

    def test_matches_reference_on_random_data(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            noise = rng.standard_normal(64 * 12)
            processed = rng.standard_normal(64 * 12) * 0.3
            labeled = rng.choice(12, size=5, replace=False)
            mask = np.zeros(12, dtype=bool)
            mask[labeled] = True
            got = seg_na(silent_in(labeled, 12), noise, processed, 64)
            want = reference_seg_na(noise, processed, mask, 64)
            assert got == pytest.approx(want, rel=1e-12)

    def test_delay_compensation(self):
        rng = np.random.default_rng(9)
        noise = rng.standard_normal(640)
        processed = np.concatenate([np.zeros(64), noise / 2.0])
        clean = silent_in(range(10), 10)
        assert seg_na(clean, noise, processed[64:], 64) == pytest.approx(
            20.0 * np.log10(2.0), rel=1e-12
        )

    def test_zero_denominator_clamps(self):
        noise = np.ones(128)
        processed = np.zeros(128)
        clean = silent_in({0, 1}, 2)
        assert seg_na(clean, noise, processed, 64) == pytest.approx(100.0, abs=1e-9)

    def test_empty_label_set_not_applicable(self):
        clean = silent_in((), 4)
        assert seg_na(clean, np.ones(256), np.ones(256), 64) is None

    def test_silent_reference_noise_not_applicable(self):
        """No reference-noise energy in the noise-only frames: there is no
        attenuation to measure, whatever the processed signal holds."""
        clean = silent_in({0, 2}, 4)
        noise = np.zeros(256)
        noise[64:128] = 1.0  # only in a frame that is not noise-only
        assert seg_na(clean, noise, np.ones(256), 64) is None


class TestSegSnr:
    def test_matches_reference_on_random_data(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            clean = rng.standard_normal(64 * 9)
            processed = clean + 0.1 * rng.standard_normal(64 * 9)
            got = seg_snr(clean, processed, 64)
            want = reference_seg_snr(clean, processed, 64)
            assert got == pytest.approx(want, rel=1e-12)

    def test_known_ratio(self):
        clean = np.ones(128)
        processed = 1.1 * np.ones(128)  # error energy = 0.01 per sample
        value = seg_snr(clean, processed, 64)
        assert value == pytest.approx(10.0 * np.log10(1.0 / 0.01), rel=1e-12)

    def test_zero_clean_frames_excluded(self):
        rng = np.random.default_rng(13)
        clean = np.concatenate([np.zeros(64), rng.standard_normal(64)])
        processed = clean + 0.5 * rng.standard_normal(128)
        with_pause = seg_snr(clean, processed, 64)
        alone = seg_snr(clean[64:], processed[64:], 64)
        assert with_pause == pytest.approx(alone, rel=1e-12)

    def test_perfect_reconstruction_not_applicable(self):
        rng = np.random.default_rng(17)
        clean = rng.standard_normal(256)
        assert seg_snr(clean, clean.copy(), 64) is None

    def test_all_zero_clean_not_applicable(self):
        assert seg_snr(np.zeros(256), np.ones(256), 64) is None

    def test_delay_compensation(self):
        rng = np.random.default_rng(19)
        clean = rng.standard_normal(640)
        processed = np.concatenate([np.zeros(32), clean + 0.01])
        assert seg_snr(clean, processed[32:], 64) == pytest.approx(
            reference_seg_snr(clean, processed, 64, delay=32), rel=1e-12
        )

    def test_bad_frame_length(self):
        with pytest.raises(DataError, match="positive"):
            seg_snr(np.ones(100), np.ones(100), -1)
        with pytest.raises(DataError, match="no full frames"):
            seg_snr(np.ones(100), np.ones(100)[90:], 64)

    def test_short_signal_message_names_sizes_only(self):
        """``seg_snr`` compensates no delay, so its message blames none."""
        with pytest.raises(DataError, match=r"^no full frames \(clean 100, "
                                            r"processed 10, frame 64\)$"):
            seg_snr(np.ones(100), np.ones(10), 64)


class TestRiMagLoss:
    def test_identical_frames_zero_loss(self, small_spec, small_proto):
        rng = np.random.default_rng(23)
        x = rng.standard_normal(400)
        a = analyze_polyphase(x, small_proto, small_spec).frames
        b = analyze_polyphase(x.copy(), small_proto, small_spec).frames
        assert ri_mag_loss(a, b) == 0.0

    def test_matches_direct_formula(self, small_spec, small_proto):
        rng = np.random.default_rng(29)
        x = rng.standard_normal(400)
        y = rng.standard_normal(400)
        a = analyze_polyphase(x, small_proto, small_spec).frames
        b = analyze_polyphase(y, small_proto, small_spec).frames
        want = 0.0
        for k in range(a.shape[0]):
            for i in range(a.shape[1]):
                da = a[k, i]
                db = b[k, i]
                want += (da.real - db.real) ** 2 + (da.imag - db.imag) ** 2
                want += (abs(da) - abs(db)) ** 2
        assert ri_mag_loss(a, b) == pytest.approx(want, rel=1e-12)

    def test_loss_is_symmetric_and_positive(self, small_spec, small_proto):
        rng = np.random.default_rng(31)
        a = analyze_polyphase(rng.standard_normal(200), small_proto, small_spec).frames
        b = analyze_polyphase(rng.standard_normal(200), small_proto, small_spec).frames
        assert ri_mag_loss(a, b) == ri_mag_loss(b, a) > 0.0

    def test_shape_mismatch(self, small_spec, small_proto):
        a = analyze_polyphase(np.ones(200), small_proto, small_spec).frames
        b = analyze_polyphase(np.ones(160), small_proto, small_spec).frames
        with pytest.raises(DataError, match="shapes differ"):
            ri_mag_loss(a, b)

    def test_geometry_mismatch(self, small_spec, small_proto, default_spec,
                               default_proto):
        a = analyze_polyphase(np.ones(1024), small_proto, small_spec).frames
        b = analyze_polyphase(np.ones(1024), default_proto, default_spec).frames
        with pytest.raises(DataError, match="shapes differ"):
            ri_mag_loss(a, b)


class TestComputeReport:
    def test_aggregates_everything(self, small_spec, small_proto):
        rng = np.random.default_rng(37)
        clean = np.concatenate([np.sin(np.linspace(0, 40, 256)), np.zeros(256)])
        noise = 0.05 * rng.standard_normal(512)
        processed = clean + 0.5 * noise
        report = compute_report(clean, processed, small_spec, noise=noise, delay=0)
        mask = _noise_only(clean, small_spec.hop)
        assert report.frames_total == mask.size
        assert report.frames_noise_only == np.count_nonzero(mask)
        assert report.seg_na_db == pytest.approx(
            reference_seg_na(noise, processed, mask, small_spec.hop), rel=1e-12
        )
        assert report.seg_na_db == seg_na(clean, noise, processed, small_spec.hop)
        assert report.seg_snr_db == pytest.approx(
            reference_seg_snr(clean, processed, small_spec.hop), rel=1e-12
        )
        a = analyze_polyphase(clean, small_proto, small_spec).frames
        b = analyze_polyphase(processed, small_proto, small_spec).frames
        assert report.ri_mag_loss == pytest.approx(ri_mag_loss(a, b), rel=1e-12)

    def test_without_noise(self, default_spec):
        rng = np.random.default_rng(41)
        clean = rng.standard_normal(640)
        report = compute_report(clean, clean + 0.1, default_spec, delay=0)
        assert report.seg_na_db is None
        assert report.ri_mag_loss > 0.0
        assert report.seg_snr_db is not None
        assert report.frames_total == 10

    @pytest.mark.parametrize("delay", [4000, 3937, 10**6])
    def test_delay_past_the_last_frame_named(self, default_spec, delay):
        clean = np.sin(np.linspace(0, 300, 4000))
        message = (f"no full frames remain after delay compensation by {delay} "
                   "samples (processed 4000, frame 64)")
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            compute_report(clean, clean, default_spec, delay=delay)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["clean", "processed", "noise"])
    def test_non_finite_sample_named_in_its_own_array(self, default_spec, name, bad):
        """A NaN used to pass into the metrics unreported (as ``nan`` or
        ``None``); the index counts within the named array, not the
        delay-shifted one."""
        signals = {key: np.sin(np.linspace(0, 300 + i, 4000))
                   for i, key in enumerate(["clean", "processed", "noise"])}
        signals[name][3000] = bad
        message = f"{name} sample 3000 is non-finite ({bad})"
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            compute_report(signals["clean"], signals["processed"], default_spec,
                           noise=signals["noise"], delay=32)

    def test_clamped_frames_counted(self, default_spec):
        clean = np.concatenate([np.ones(64), np.zeros(64)])
        noise = np.ones(128)
        processed = np.concatenate([np.ones(64), np.zeros(64)])
        report = compute_report(clean, processed, default_spec, noise=noise)
        assert report.seg_na_clamped_frames == 1
        assert report.seg_na_db == pytest.approx(100.0, abs=1e-9)


# The entry points that take a delay: the metrics take aligned signals, so
# only compute_report compensates one (and ``fbeq evaluate --delay`` through it).
NEGATIVE_DELAY_CALLS = {
    "compute_report": lambda clean, noise, proc, d: compute_report(
        clean, proc, Config(), noise=noise, delay=d),
}


class TestNegativeDelay:
    """A negative delay would take the signal's tail; every entry point rejects it."""

    @pytest.mark.parametrize("name", NEGATIVE_DELAY_CALLS)
    @pytest.mark.parametrize("delay", [-1, -3200])
    def test_rejected(self, name, delay):
        rng = np.random.default_rng(43)
        clean = np.concatenate([np.sin(np.linspace(0, 400, 4800)), np.zeros(3200)])
        noise = 0.05 * rng.standard_normal(clean.size)
        with pytest.raises(DataError, match=rf"^delay must be >= 0, got {delay}$"):
            NEGATIVE_DELAY_CALLS[name](clean, noise, clean + noise, delay)

    def test_compute_report_equals_pre_advanced_signal(self, small_spec):
        rng = np.random.default_rng(47)
        clean = np.concatenate([np.sin(np.linspace(0, 40, 256)), np.zeros(256)])
        noise = 0.05 * rng.standard_normal(512)
        processed = np.concatenate([np.zeros(4), clean + 0.5 * noise])
        shifted = compute_report(clean, processed, small_spec, noise=noise, delay=4)
        direct = compute_report(clean, processed[4:], small_spec, noise=noise,
                                delay=0)
        assert shifted == direct
