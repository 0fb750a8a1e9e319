import os
import subprocess
import sys
from pathlib import Path

import fbeq

SRC_DIR = Path(fbeq.__file__).resolve().parent.parent


def test_import_leaves_scipy_special_unloaded():
    """``import fbeq`` must not load scipy.special; the first E1 call does."""
    code = (
        "import sys, fbeq\n"
        "print('scipy.special' in sys.modules)\n"
        "fbeq.exp_integral_e1(1.0)\n"
        "print('scipy.special' in sys.modules)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC_DIR)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=60,
                            check=True)
    assert result.stdout.split() == ["False", "True"]


def test_every_exported_name_resolves():
    missing = [name for name in fbeq.__all__ if not hasattr(fbeq, name)]
    assert missing == []
    assert len(set(fbeq.__all__)) == len(fbeq.__all__)
