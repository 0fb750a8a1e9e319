"""Which statements of ``src/fbeq`` the tests run, and which only they run.

    python3 tools/trace_lines.py            # statements no test runs
    python3 tools/trace_lines.py --traffic  # also: statements only the tests reach

Run it from anywhere inside a source checkout; it imports ``fbeq`` from
``src/``.  The tier-1 suite runs in this process under ``sys.settrace``,
with line events kept only for files under ``src/fbeq``.  With
``--traffic``, the package is then imported afresh and what the benchmark
and the command line run is traced too: each ``perfbench`` workload once
untraced and once under its own tracer on seed 41, inputs and set-up
included, and each ``fbeq`` subcommand once on those inputs.  A statement
counts as run when a line event fires on one of its own lines (a compound
statement's header only); docstrings and ``global`` lines are not counted.
Child processes (the tests that start ``python -m fbeq``) are not traced.

Only the standard library is used.  Hypothesis runs without a deadline or
an example database, bytecode is not written, and every file the run makes
goes to one temporary directory, removed at the end.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import os
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fbeq"
SEED = 41


def statements(path: Path) -> dict[int, tuple[int, ...]]:
    """First line of each executable statement in ``path``, mapped to the
    lines whose events mean it ran."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, (ast.Global, ast.Nonlocal)):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            continue  # a docstring
        end = node.end_lineno
        bodies = [getattr(node, name, None)
                  for name in ("body", "handlers", "orelse", "finalbody", "cases")]
        firsts = [block[0].lineno for block in bodies if isinstance(block, list) and block]
        if firsts:  # a compound statement: its header only
            end = min(firsts) - 1
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                and node.decorator_list:
            first = node.decorator_list[0].lineno  # the def runs on this line
        else:
            first = node.lineno
        found[node.lineno] = tuple(range(first, max(end, node.lineno) + 1))
    return found


class LineTracer:
    """Records ``(file, line)`` events for code under ``PACKAGE``."""

    def __init__(self) -> None:
        self.hits: set[tuple[str, int]] = set()
        self._prefix = str(PACKAGE) + os.sep
        self._wanted: dict[object, bool] = {}

    def _local(self, frame, event, arg):
        if event == "line":
            self.hits.add((frame.f_code.co_filename, frame.f_lineno))
        return self._local

    def _global(self, frame, event, arg):
        code = frame.f_code
        wanted = self._wanted.get(code)
        if wanted is None:
            wanted = self._wanted[code] = code.co_filename.startswith(self._prefix)
        return self._local if wanted else None

    @contextlib.contextmanager
    def installed(self):
        sys.settrace(self._global)
        threading.settrace(self._global)
        try:
            yield self
        finally:
            sys.settrace(None)
            threading.settrace(None)


class _UntimedHypothesis:
    """pytest plugin: traced examples run slower, so drop the deadline; and
    keep no example database in the checkout."""

    @staticmethod
    def pytest_configure(config):
        import hypothesis

        hypothesis.settings.register_profile("trace", deadline=None, database=None)
        hypothesis.settings.load_profile("trace")


def run_tests(workdir: Path) -> set[tuple[str, int]]:
    import pytest

    tracer = LineTracer()
    with tracer.installed():
        code = pytest.main(["-q", "-p", "no:cacheprovider", "--basetemp",
                            str(workdir / "pytest"), str(ROOT / "tests")],
                           plugins=[_UntimedHypothesis()])
    print(f"tier-1 suite exit code {int(code)}", file=sys.stderr)
    return tracer.hits


def _fresh_import():
    """Drop ``fbeq`` and ``perfbench`` from the module cache, so import-time
    statements run again under the tracer."""
    for name in [n for n in sys.modules if n.split(".")[0] in ("fbeq", "perfbench")]:
        del sys.modules[name]


def run_traffic(workdir: Path) -> set[tuple[str, int]]:
    _fresh_import()
    tracer = LineTracer()
    with tracer.installed(), contextlib.redirect_stdout(io.StringIO()):
        import fbeq
        import fbeq.cli
        from perfbench import workloads
        from perfbench.inputs import make_inputs
        from perfbench.tracing import Tracer

        cfg = fbeq.build_config()
        proto = fbeq.design_prototype(cfg)
        inputs = make_inputs(SEED, workdir, cfg)
        for name in workloads.WORKLOADS:
            workload = workloads.build(name, inputs, cfg, workdir, proto)
            first = workload.call()
            bench_tracer = Tracer()
            with bench_tracer.installed():
                workload.call(bench_tracer)
            failed, _ = workload.check(first, first.output)
            if first.error is not None or failed:
                raise SystemExit(f"workload {name} failed: {first.error}")
        enhanced = workdir / "cli-enhanced.wav"
        for argv in (
            ["design", "--out", str(workdir / "design.csv")],
            ["analyze", "--in", str(inputs.mixture_path),
             "--out", str(workdir / "frames.fbeg")],
            ["enhance", "--in", str(inputs.mixture_path), "--out", str(enhanced)],
            ["mix", "--clean", str(inputs.clean_path), "--noise", str(inputs.noise_path),
             "--snr-db", "0", "--out-mix", str(workdir / "mix.wav"),
             "--out-noise", str(workdir / "mix-noise.wav")],
            ["evaluate", "--clean", str(inputs.clean_path), "--processed", str(enhanced),
             "--noise", str(inputs.noise_path), "--out", str(workdir / "metrics.csv")],
        ):
            if fbeq.cli.main(argv) != 0:
                raise SystemExit(f"fbeq {argv[0]} failed")
    return tracer.hits


def report(title: str, wanted) -> None:
    """Print each statement for which ``wanted(path, lines)`` holds."""
    print(f"# {title}")
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        for first, lines in sorted(statements(path).items()):
            if wanted(str(path), lines):
                print(f"{path.relative_to(ROOT)}:{first}: {source[first - 1].strip()}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--traffic", action="store_true",
                        help="also trace the benchmark workloads and the CLI")
    args = parser.parse_args(argv)
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    with tempfile.TemporaryDirectory(prefix="trace-lines-") as tmp:
        workdir = Path(tmp)
        tested = run_tests(workdir)
        traffic = run_traffic(workdir) if args.traffic else None

    def ran(hits, path, lines):
        return any((path, line) in hits for line in lines)

    report("statements no test runs",
           lambda path, lines: not ran(tested, path, lines))
    if traffic is not None:
        report("statements only the tests reach",
               lambda path, lines: ran(tested, path, lines)
               and not ran(traffic, path, lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
