import os
import tempfile

import numpy as np
import pytest
from hypothesis import strategies as st

from fbeq.errors import ConfigError
from fbeq.fbeg import TYPE_SUBBAND_GAINS, write_gain_stream
from fbeq.filterbank import (
    AnalysisFrameSeq,
    FilterbankSpec,
    PrototypeFilter,
    _analysis_segments,
    design_prototype,
)
from fbeq.gains import NoiseTrackerState, update_noise_psd


@pytest.fixture(scope="session")
def default_spec():
    return FilterbankSpec()


@pytest.fixture(scope="session")
def default_proto(default_spec):
    return design_prototype(default_spec)


@pytest.fixture(scope="session")
def small_spec():
    return FilterbankSpec(frame_size=16, proto_len=16, hop=4, sample_rate_hz=16000)


@pytest.fixture(scope="session")
def small_proto(small_spec):
    return design_prototype(small_spec)


@st.composite
def geometries(draw):
    """Valid geometries: M even, L even with L+1 >= M, hop | M, P even, hop <= P+1, P <= L."""
    m = 2 * draw(st.integers(1, 32))
    big_l = m + 2 * draw(st.integers(0, 32))
    hop = draw(st.sampled_from([r for r in range(1, m + 1) if m % r == 0]))
    p = 2 * draw(st.integers(max(1, hop // 2), big_l // 2))
    return dict(frame_size=m, proto_len=big_l, hop=hop, shorten_len=p)


def gain_file(directory, frames, frame_size, hop, record_type=TYPE_SUBBAND_GAINS):
    """Write ``frames`` to a new FBEG file in ``directory``; return its path.

    The file stores the frames as complex64, so code that must match
    ``process_stream`` bit for bit takes the rows ``load_gain_stream`` reads
    back, not ``frames``.
    """
    handle, path = tempfile.mkstemp(suffix=".fbeg", dir=directory)
    os.close(handle)
    write_gain_stream(path, frames, record_type, frame_size, hop)
    return path


def first_overflowing_frame(frames, params) -> int:
    """Index of the first frame whose a posteriori SNR ``|x|^2 / noise_psd``
    is not finite in some bin, from the noise tracker alone; -1 if none."""
    state = NoiseTrackerState.initial(frames.shape[1], params)
    with np.errstate(over="ignore", invalid="ignore"):
        for k, frame in enumerate(frames):
            update_noise_psd(state, frame, params)
            if not np.isfinite(np.abs(frame) ** 2 / state.noise_psd).all():
                return k
    return -1


def modulation(spec: FilterbankSpec, i: int, l: int) -> complex:
    """Complex modulation factor ``exp(-j*(2*pi/M)*i*(l - tau))`` for bin ``i``, lag ``l``."""
    if not 0 <= i < spec.frame_size:
        raise ConfigError(f"bin index {i} outside 0..{spec.frame_size - 1}")
    return complex(
        np.exp(-2j * np.pi * i * (l - spec.tau) / spec.frame_size)
    )


def analyze_direct(x, proto: PrototypeFilter, spec: FilterbankSpec) -> AnalysisFrameSeq:
    """Subband analysis as an explicit inner product per bin.

    The reference oracle that ``fbeq.filterbank.analyze_polyphase`` is
    checked against.  Computes
    ``x_i(k) = sum_l x[k*r - 1 - l] * taps[l] * modulation(i, l)``
    for ``k = 1..floor(T/r)`` and ``i = 0..M/2``, assuming zero signal
    before time zero.

    Parameters
    ----------
    x : array_like
        Real input signal.
    proto : PrototypeFilter
        Prototype from :func:`fbeq.filterbank.design_prototype`.
    spec : FilterbankSpec
        Matching geometry.

    Returns
    -------
    AnalysisFrameSeq
        ``floor(T/r)`` frames of ``M/2 + 1`` complex bins.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    bins = spec.num_bins
    if spec.num_frames(x.size) == 0:
        return AnalysisFrameSeq(np.zeros((0, bins), dtype=np.complex128), spec)
    segments = _analysis_segments(x, spec)
    # Segment column m holds lag l = L - m; fold taps and modulation together.
    lags = np.arange(spec.proto_len, -1, -1, dtype=np.float64)
    i = np.arange(bins, dtype=np.float64)[:, None]
    weights = proto.taps[::-1] * np.exp(
        -2j * np.pi * i * (lags[None, :] - spec.tau) / spec.frame_size
    )
    frames = segments @ weights.T
    return AnalysisFrameSeq(frames, spec)


def make_speech(duration_s: float = 4.0, rate: int = 16000,
                amplitude: float = 0.25) -> np.ndarray:
    """Synthetic harmonic "speech": voiced segments separated by exact-zero pauses.

    Each segment is a handful of harmonics with a short cosine onset/offset
    ramp; the pauses make noise-only frames for the attenuation metric.
    """
    t = np.arange(int(duration_s * rate)) / rate
    x = np.zeros(t.size)
    segments = [
        (0.00, 0.70, 120.0),
        (1.20, 2.00, 180.0),
        (2.50, 3.30, 140.0),
    ]
    ramp = int(0.02 * rate)
    for start_s, stop_s, f0 in segments:
        a = int(start_s * rate)
        b = min(int(stop_s * rate), t.size)
        if b <= a:
            continue
        seg_t = t[a:b]
        tone = np.zeros(b - a)
        for h in range(1, 11):
            tone += np.sin(2.0 * np.pi * h * f0 * seg_t) / h
        env = np.ones(b - a)
        n = min(ramp, (b - a) // 2)
        if n:
            fade = 0.5 - 0.5 * np.cos(np.pi * np.arange(n) / n)
            env[:n] = fade
            env[-n:] = fade[::-1]
        x[a:b] = tone * env
    peak = np.max(np.abs(x))
    return amplitude * x / peak


@pytest.fixture(scope="session")
def speech_signal():
    return make_speech()
