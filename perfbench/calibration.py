"""Machine-speed probe.

The benchmark shares its cores with other tenants, whose load slows every
instruction by up to 2x for seconds at a time.  That slowdown is not the
program's, so each timed call is bracketed by a fixed kernel of small-array
ufunc chains, short FFTs and one wide FFT -- the same kinds of work fbeq does
per frame and per clip -- and its wall time is scaled by
``REFERENCE_UNIT_S / (seconds per kernel unit around the call)``.  Scaled
times are wall times at the reference speed; the raw wall times are printed
beside them.  The kernel is frozen benchmark code and never calls fbeq, so a
change to the package cannot move the scale.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# One kernel unit's wall time inside a benchmark run during a quiet spell on
# the 2-vCPU Intel Xeon the benchmark was written on.  A fixed convention:
# scaled times are wall times at that speed.
REFERENCE_UNIT_S = 250e-6
# Probe time on each side of a call, as a share of the call's own time.
PROBE_SHARE = 0.25
MIN_UNITS = 200

_SMALL = np.linspace(0.01, 3.0, 257)
_BLOCK = np.linspace(-1.0, 1.0, 256)
_WIDE = np.linspace(-1.0, 1.0, 32 * 512).reshape(32, 512) + 0j


def _unit() -> float:
    x = _SMALL.copy()
    for _ in range(12):
        x = np.maximum(x * 0.98 + 0.02 * np.abs(x - 1.0), 0.03)
        x = np.exp(-0.5 * x) + np.log1p(x)
    spectrum = np.fft.rfft(_BLOCK * x[0])
    block = np.fft.irfft(spectrum * spectrum, n=256)
    wide = np.fft.fft(_WIDE * x[1], axis=1)
    return float(block[-1] + wide[0, 1].real)


def unit_seconds(units: int) -> float:
    """Wall seconds per kernel unit, over ``units`` back-to-back units."""
    start = perf_counter()
    for _ in range(units):
        _unit()
    return (perf_counter() - start) / units


def units_for(call_seconds: float) -> int:
    """Kernel units that take about ``PROBE_SHARE`` of a call's time."""
    return max(MIN_UNITS, round(PROBE_SHARE * call_seconds / REFERENCE_UNIT_S))


def timed(fn, units: int) -> tuple[object, float]:
    """Run ``fn`` between two probes; return its result and the speed scale."""
    before = unit_seconds(units)
    result = fn()
    after = unit_seconds(units)
    return result, 2.0 * REFERENCE_UNIT_S / (before + after)
