import inspect
import os
import subprocess
import sys
from pathlib import Path

import fbeq

SRC_DIR = Path(fbeq.__file__).resolve().parent.parent


def _run(code: str) -> list[str]:
    """Run ``code`` in a fresh interpreter that imports this checkout's fbeq;
    return its printed words."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC_DIR)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=60,
                            check=True)
    return result.stdout.split()


def test_import_leaves_scipy_special_unloaded():
    """``import fbeq`` must not load scipy.special; the first E1 call does."""
    code = (
        "import sys, fbeq\n"
        "print('scipy.special' in sys.modules)\n"
        "fbeq.exp_integral_e1(1.0)\n"
        "print('scipy.special' in sys.modules)\n"
    )
    assert _run(code) == ["False", "True"]


def test_import_leaves_scipy_io_wavfile_unloaded(tmp_path):
    """``import fbeq``, a config and a prototype must not load
    scipy.io.wavfile; the first WAV write does."""
    code = (
        "import sys, fbeq\n"
        "cfg = fbeq.build_config()\n"
        "fbeq.design_prototype(cfg.filterbank_spec())\n"
        "print('scipy.io.wavfile' in sys.modules)\n"
        f"fbeq.write_wav({str(tmp_path / 'x.wav')!r}, fbeq.AudioBuffer([0.0], 16000))\n"
        "print('scipy.io.wavfile' in sys.modules)\n"
    )
    assert _run(code) == ["False", "True"]


def test_read_wav_leaves_scipy_io_unloaded(tmp_path):
    """``read_wav`` walks the RIFF chunks itself: reading a WAV file of either
    format must not load scipy.io, whose import pulls in scipy.sparse."""
    paths = [tmp_path / f"{fmt}.wav" for fmt in ("pcm16", "float32")]
    for path in paths:
        fbeq.write_wav(path, fbeq.AudioBuffer([0.0, 0.5], 16000), fmt=path.stem)
    code = (
        "import sys, fbeq\n"
        f"for path in {[str(p) for p in paths]!r}:\n"
        "    fbeq.read_wav(path, expected_rate=16000)\n"
        "print('scipy.io' in sys.modules)\n"
    )
    assert _run(code) == ["False"]


def test_every_exported_name_resolves():
    missing = [name for name in fbeq.__all__ if not hasattr(fbeq, name)]
    assert missing == []
    assert len(set(fbeq.__all__)) == len(fbeq.__all__)


def test_exports_are_sorted():
    assert fbeq.__all__ == sorted(fbeq.__all__)


def _written_docstring(obj) -> str:
    """``obj``'s own docstring; the ``Name(fields)`` text that dataclasses and
    named tuples get when they have none does not count."""
    doc = (obj.__doc__ or "").strip()
    return "" if doc.startswith(obj.__name__ + "(") else doc


def test_every_exported_function_and_class_has_a_docstring():
    objects = [getattr(fbeq, name) for name in fbeq.__all__]
    undocumented = [obj.__name__ for obj in objects
                    if (inspect.isfunction(obj) or inspect.isclass(obj))
                    and not _written_docstring(obj)]
    assert undocumented == []
