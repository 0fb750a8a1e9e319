"""Median cost of each public per-hop call of the benchmark's stream loop.

    python3 tools/hop_costs.py              # 20 rounds
    python3 tools/hop_costs.py --rounds 5

Run it from anywhere inside a source checkout; it imports ``fbeq`` from
``src/``.  The input is the ``stream`` workload's seed-41 clip (4 s, 16 kHz,
0 dB mixture of the benchmark's synthetic speech and white noise).  Each
hop runs the calls of ``perfbench``'s stream loop (``PolyphaseAnalyzer.push
→ update_noise_psd → mmse_lsa_gain → expand_hermitian → subband_to_time →
shorten_filter → filter_to_freq → ols_filter_frame``), then ``gains_to_taps``
on the same gains and a one-hop ``analyze_polyphase(…, state)`` on the same
block, each timed on its own with ``perf_counter``; two more rows time the
reference mapping chain and ``filter_to_freq(gains_to_taps(…))`` as one
call each.  A round is one pass over the clip, so every call is timed in
every hop and host drift reaches all rows alike.  The figure printed is the
median over all hops of all rounds, in µs of wall time per call, then the
ratio of the one-hop ``analyze_polyphase`` to ``push``.

Four rows time the estimator as ``fbeq enhance`` runs it: the clip's
analysis frames in blocks of ``BLOCK_FRAMES`` (64), each block through one
``update_noise_psd`` and one ``mmse_lsa_gain`` call, with each
``exp_integral_e1`` call inside the rule timed too (so the rule's row
carries that timer's cost).  The fourth row times a bare
``scipy.special.exp1`` call on each frame's same argument ``nu`` in bin
order, as the rule forms it, so it shows what ``exp_integral_e1``'s
evaluation in ascending order saves.  Their figures are µs per frame: the
median over all blocks of a block call's time over its frame count, and the
median E1 call, one per frame.

Four rows run the estimator over the clip's frames twice in one loop, each
frame through the one-frame calls and then, on a second tracker, as a
one-row block (``1 x bins``) through the block path of ``update_noise_psd``
and then of ``mmse_lsa_gain``.  Each path gives the tracker alone and the
tracker plus the rule, in µs per frame (the median over frames), so the
pairs show what the one-frame fork saves.  The stream loop's rows above
time the same one-frame calls between the other stages' calls.

Three more rows time whole ``process_stream`` calls over the clip, one per
gain source and round: the built-in estimator, a type-A file holding the
estimator's gains for the clip, and a type-B file holding their 2P-point
responses (both written to a temporary directory first).  Their figures are
µs per hop: the median over rounds of a call's time over its hop count.

To compare two trees, run this script from each, alternately.  Besides
``fbeq`` and the benchmark's input generator, only the standard library,
numpy and ``scipy.special`` are used.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402
from scipy.special import exp1  # noqa: E402

import fbeq  # noqa: E402
from fbeq.filterbank import BLOCK_FRAMES  # noqa: E402

_write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
try:  # the benchmark's tree is only read
    from perfbench.inputs import (NOISE_MARGIN_SECONDS, SAMPLE_RATE_HZ, SNR_DB,
                                  make_speech)
finally:
    sys.dont_write_bytecode = _write_bytecode

SEED = 41
CALLS = ("PolyphaseAnalyzer.push", "update_noise_psd", "mmse_lsa_gain",
         "expand_hermitian", "subband_to_time", "shorten_filter", "filter_to_freq",
         "ols_filter_frame", "gains_to_taps", "analyze_polyphase one hop",
         "reference mapping chain", "filter_to_freq(gains_to_taps)")
BLOCK_CALLS = tuple(f"{name} per frame, {BLOCK_FRAMES}-frame blocks"
                    for name in ("update_noise_psd", "mmse_lsa_gain",
                                 "exp_integral_e1",
                                 "scipy.special.exp1 in bin order"))
ROW_CALLS = tuple(f"{name} per frame, {path}"
                  for path in ("one-frame calls", "1-row blocks")
                  for name in ("update_noise_psd", "update_noise_psd + mmse_lsa_gain"))
STREAM_CALLS = tuple(f"process_stream per hop, {source}"
                     for source in ("mmse-lsa", "type-A file", "type-B file"))


def mixture(seed: int = SEED) -> np.ndarray:
    """The stream workload's input for ``seed``, as float32 like its WAV file."""
    clean = make_speech()
    margin = int(NOISE_MARGIN_SECONDS * SAMPLE_RATE_HZ)
    noise = np.random.default_rng(seed).standard_normal(clean.size + margin)
    return fbeq.mix_at_snr(clean, noise, SNR_DB, seed)[0].astype(np.float32)


def one_round(x: np.ndarray, cfg) -> dict[str, list[float]]:
    """Time every call once per hop over ``x``; seconds per call, by name."""
    p, hop = cfg.shorten_len, cfg.hop
    proto = fbeq.design_prototype(cfg)
    analyzer = fbeq.PolyphaseAnalyzer(proto, cfg)
    tracker = fbeq.NoiseTrackerState.initial(cfg.num_bins, cfg)
    engine = fbeq.EngineState.create(p, hop)
    analysis = fbeq.EngineState(np.zeros(cfg.proto_len + 1), hop)
    times = {name: [] for name in CALLS}

    def timed(name, call, *args):
        start = perf_counter()
        result = call(*args)
        times[name].append(perf_counter() - start)
        return result

    def chain(gains):
        full = fbeq.expand_hermitian(gains)
        return fbeq.filter_to_freq(fbeq.shorten_filter(
            fbeq.subband_to_time(full, proto), p))

    for k in range(x.size // hop):
        block = x[k * hop : (k + 1) * hop]
        frame = timed("PolyphaseAnalyzer.push", analyzer.push, block)
        tracker = timed("update_noise_psd", fbeq.update_noise_psd, tracker, frame,
                        cfg)
        gains = timed("mmse_lsa_gain", fbeq.mmse_lsa_gain, frame, tracker, cfg).values
        full = timed("expand_hermitian", fbeq.expand_hermitian, gains)
        taps = timed("subband_to_time", fbeq.subband_to_time, full, proto)
        short = timed("shorten_filter", fbeq.shorten_filter, taps, p)
        response = timed("filter_to_freq", fbeq.filter_to_freq, short)
        timed("ols_filter_frame", fbeq.ols_filter_frame, engine, response, block)
        timed("gains_to_taps", fbeq.gains_to_taps, gains, proto, p)
        timed("analyze_polyphase one hop", fbeq.analyze_polyphase, block, proto,
              cfg, analysis)
        timed("reference mapping chain", chain, gains)
        timed("filter_to_freq(gains_to_taps)",
              lambda g: fbeq.filter_to_freq(fbeq.gains_to_taps(g, proto, p)), gains)
    return times


def frame_arguments(frames: np.ndarray, cfg) -> list[np.ndarray]:
    """Each frame's ``nu``, as the rule passes it to ``exp_integral_e1`` over
    ``frames`` in ``BLOCK_FRAMES``-frame blocks: in bin order."""
    arguments, e1 = [], fbeq.gains.exp_integral_e1

    def recorded(x, **kwargs):
        arguments.append(x.copy())
        return e1(x, **kwargs)

    fbeq.gains.exp_integral_e1 = recorded
    try:
        tracker = fbeq.NoiseTrackerState.initial(cfg.num_bins, cfg)
        for first in range(0, len(frames), BLOCK_FRAMES):
            fbeq.estimate_gains(frames[first : first + BLOCK_FRAMES], cfg, tracker)
    finally:
        fbeq.gains.exp_integral_e1 = e1
    return arguments


def block_round(frames: np.ndarray, arguments: list[np.ndarray],
                cfg) -> dict[str, list[float]]:
    """Time the estimator over ``frames`` in ``BLOCK_FRAMES``-frame blocks,
    then ``exp1`` on each of :func:`frame_arguments`' ``arguments``; seconds
    per frame of each name in ``BLOCK_CALLS``."""
    tracker_row, rule_row, e1_row, bin_order_row = BLOCK_CALLS
    times = {name: [] for name in BLOCK_CALLS}
    tracker = fbeq.NoiseTrackerState.initial(cfg.num_bins, cfg)
    e1 = fbeq.gains.exp_integral_e1

    def timed_e1(x, **kwargs):
        start = perf_counter()
        result = e1(x, **kwargs)
        times[e1_row].append(perf_counter() - start)
        return result

    fbeq.gains.exp_integral_e1 = timed_e1  # the rule calls E1 through it
    try:
        for first in range(0, len(frames), BLOCK_FRAMES):
            block = frames[first : first + BLOCK_FRAMES]
            start = perf_counter()
            fbeq.update_noise_psd(tracker, block, cfg)
            middle = perf_counter()
            fbeq.mmse_lsa_gain(block, tracker, cfg)
            end = perf_counter()
            times[tracker_row].append((middle - start) / len(block))
            times[rule_row].append((end - middle) / len(block))
    finally:
        fbeq.gains.exp_integral_e1 = e1
    for nu in arguments:
        start = perf_counter()
        exp1(nu)
        times[bin_order_row].append(perf_counter() - start)
    return times


def row_round(frames: np.ndarray, cfg) -> dict[str, list[float]]:
    """Time the estimator over ``frames`` frame by frame, through the
    one-frame calls and as one-row blocks; seconds per frame of each name in
    ``ROW_CALLS``."""
    times = {name: [] for name in ROW_CALLS}
    trackers = [fbeq.NoiseTrackerState.initial(cfg.num_bins, cfg) for _ in range(2)]
    for k in range(len(frames)):
        # ROW_CALLS names the one-frame path's two rows, then the one-row block's.
        for path, frame in enumerate((frames[k], frames[k : k + 1])):
            tracker, (tracker_row, both_row) = trackers[path], ROW_CALLS[2 * path : 2 * path + 2]
            start = perf_counter()
            fbeq.update_noise_psd(tracker, frame, cfg)
            middle = perf_counter()
            fbeq.mmse_lsa_gain(frame, tracker, cfg)
            end = perf_counter()
            times[tracker_row].append(middle - start)
            times[both_row].append(end - start)
    return times


def gain_sources(frames: np.ndarray, cfg, directory) -> dict[str, str]:
    """The ``process_stream`` gain source of each name in ``STREAM_CALLS``:
    the estimator, and the estimator's gains for ``frames`` written to
    ``directory`` as a type-A file and, mapped to responses, a type-B file."""
    proto = fbeq.design_prototype(cfg)
    gains = fbeq.estimate_gains(frames, cfg)
    responses = fbeq.filter_to_freq(fbeq.gains_to_taps(gains, proto, cfg.shorten_len))
    sources = ["mmse-lsa"]
    for name, records, record_type in (("a", gains, fbeq.TYPE_SUBBAND_GAINS),
                                       ("b", responses, fbeq.TYPE_DFT_RESPONSES)):
        sources.append(str(Path(directory) / f"{name}.fbeg"))
        fbeq.write_gain_stream(sources[-1], records.astype(np.complex64), record_type,
                               cfg.frame_size, cfg.hop)
    return dict(zip(STREAM_CALLS, sources))


def stream_round(x: np.ndarray, sources: dict[str, str],
                 cfg) -> dict[str, list[float]]:
    """Time one ``process_stream`` call over ``x`` from each of ``sources``;
    seconds per hop, by name."""
    times = {}
    for name, source in sources.items():
        start = perf_counter()
        fbeq.process_stream(x, source, cfg)
        times[name] = [(perf_counter() - start) / cfg.num_frames(x.size)]
    return times


def measure(rounds: int, seed: int = SEED) -> dict[str, float]:
    """Median µs per call of each name in ``CALLS``, per frame of each in
    ``BLOCK_CALLS`` and ``ROW_CALLS`` and per hop of each in ``STREAM_CALLS``,
    over ``rounds`` rounds."""
    x, cfg = mixture(seed), fbeq.Config()
    frames = fbeq.analyze_polyphase(x, fbeq.design_prototype(cfg), cfg).frames
    arguments = frame_arguments(frames, cfg)
    names = CALLS + BLOCK_CALLS + ROW_CALLS + STREAM_CALLS
    times = {name: [] for name in names}
    with tempfile.TemporaryDirectory() as directory:
        sources = gain_sources(frames, cfg, directory)
        one_round(x[: 8 * cfg.hop], cfg)  # warm-up: imports and first-call set-up
        block_round(frames[:BLOCK_FRAMES], arguments[:BLOCK_FRAMES], cfg)
        row_round(frames[:8], cfg)
        stream_round(x[: 8 * cfg.hop], sources, cfg)
        for _ in range(rounds):
            for name, seconds in (one_round(x, cfg) | block_round(frames, arguments, cfg)
                                  | row_round(frames, cfg)
                                  | stream_round(x, sources, cfg)).items():
                times[name].extend(seconds)
    return {name: 1e6 * statistics.median(seconds) for name, seconds in times.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=20,
                        help="passes over the clip (default 20)")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    costs = measure(args.rounds)
    width = max(map(len, CALLS + BLOCK_CALLS + ROW_CALLS + STREAM_CALLS))
    print(f"{'call':<{width}}  median µs")
    for name in CALLS:
        print(f"{name:<{width}}  {costs[name]:9.2f}")
    ratio = costs["analyze_polyphase one hop"] / costs["PolyphaseAnalyzer.push"]
    print(f"{'analyze_polyphase one hop / push':<{width}}  {ratio:9.2f}")
    for name in BLOCK_CALLS + ROW_CALLS + STREAM_CALLS:
        print(f"{name:<{width}}  {costs[name]:9.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
