"""In-memory spans around the package's layer boundaries, and self times.

Wrappers are installed only for a traced call, on the module attributes the
package calls through, and removed after it; untraced calls run the
package's own functions.  A span records its name, start, end, the index of
the span that was open when it started (its parent), the id of the call it
belongs to, and an element count for the layers that have one.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import importlib
import os
from collections import defaultdict
from time import perf_counter

import numpy as np


def _frames_out(args, result) -> int:
    return int(result.frames.shape[0])


def _elements_in(args, result) -> int:
    return int(np.size(args[0]))


def count_one(args, result) -> int:
    return 1


def _file_bytes(args, result) -> int:
    source = args[0]
    return os.path.getsize(source) if isinstance(source, (str, os.PathLike)) else 0


# (module, attribute, span name, element count) for every attribute through
# which the package reaches the next layer.
PATCH_POINTS = (
    ("fbeq.equalizer", "design_prototype", "filterbank.design", None),
    ("fbeq.equalizer", "analyze_polyphase", "filterbank.analysis", _frames_out),
    ("fbeq.equalizer", "estimate_gains", "gains.estimate", None),
    ("fbeq.equalizer", "ols_filter_frame", "equalizer.ols", count_one),
    ("fbeq.gains", "update_noise_psd", "gains.tracker", None),
    ("fbeq.gains", "mmse_lsa_gain", "gains.rule", None),
    ("fbeq.gains", "exp_integral_e1", "special.e1", _elements_in),
    ("fbeq.fbeg", "load_gain_stream", "fbeg.load", _file_bytes),
    ("fbeq.cli", "read_wav", "audio_io.read", None),
    ("fbeq.cli", "write_wav", "audio_io.write", None),
    ("fbeq.cli", "process_stream", "equalizer.process_stream", None),
)


class Tracer:
    """Collects spans in memory; ``write`` dumps them when the run ends."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._open: list[int] = []
        self.call_id = 0

    def wrap(self, name: str, fn, count=None):
        spans, open_spans = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = open_spans[-1] if open_spans else -1
            spans.append(None)
            open_spans.append(index)
            elements = 0
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    elements = count(args, result)
                return result
            finally:
                end = perf_counter()
                open_spans.pop()
                spans[index] = (name, start, end, parent, self.call_id, elements)

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every ``PATCH_POINTS`` attribute for one call, then restore it."""
        self.call_id += 1
        saved = []
        try:
            for module_name, attr, name, count in PATCH_POINTS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, count))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def totals(self, scales: dict) -> tuple[dict, dict, dict]:
        """Per span name: self seconds, inclusive seconds, element count.

        A span's self time is its duration minus the durations of its direct
        children.  Times are multiplied by ``scales[call_id]``.
        """
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        own, inclusive, count = defaultdict(float), defaultdict(float), defaultdict(int)
        for i, (name, start, end, _, call, elements) in enumerate(self.spans):
            own[name] += (end - start - child_time[i]) * scales[call]
            inclusive[name] += (end - start) * scales[call]
            count[name] += elements
        return own, inclusive, count

    def write(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "name", "start_s", "end_s", "parent",
                             "call_id", "elements"])
            for i, (name, start, end, parent, call, elements) in enumerate(self.spans):
                writer.writerow([i, name, repr(start), repr(end), parent, call,
                                 elements])
