"""The package surface that the benchmark in ``perfbench/`` runs through.

Every benchmark workload goes through ``Config``, the CLI or the public
per-hop calls, and the tracer patches module attributes by name.  These
checks build each workload on one seeded input and run it untraced and
traced, so a change that would stop the benchmark fails here first.  They
only read ``perfbench/``: no bytecode is written there, and inputs go to a
test's temporary directory.
"""

import importlib
import sys
from pathlib import Path

import pytest

import fbeq

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))
_write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
try:
    from perfbench import workloads
    from perfbench.inputs import make_inputs
    from perfbench.tracing import PATCH_POINTS, Tracer
finally:
    sys.dont_write_bytecode = _write_bytecode


@pytest.mark.parametrize("module, attr", [point[:2] for point in PATCH_POINTS],
                         ids=lambda value: value)
def test_patch_point_resolves_to_a_callable(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_runs_untraced_and_traced(name, tmp_path):
    cfg = fbeq.build_config()
    proto = fbeq.design_prototype(cfg.filterbank_spec())
    workload = workloads.build(name, make_inputs(41, tmp_path, cfg), cfg, tmp_path,
                               proto)
    first = workload.call()
    tracer = Tracer()
    with tracer.installed():
        traced = workload.call(tracer)
    for call in (first, traced):
        failed, quality = workload.check(call, first.output)
        assert call.error is None
        assert failed == 0
        assert quality.ok, quality
    assert tracer.spans
    if name != "stream":  # a CLI call crosses each patched layer once
        names = [span[0] for span in tracer.spans]
        for layer in ("audio_io.read", "equalizer.process_stream", "audio_io.write"):
            assert names.count(layer) == 1, (layer, names)

