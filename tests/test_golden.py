"""Every output of ``tools/golden.py``'s matrix matches the committed hashes.

The file ``tests/golden_outputs.json`` is rewritten only by a change that
moves outputs on purpose (``python3 tools/golden.py --write``); a change
that keeps them byte-identical passes with the file as it is.
"""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("golden", ROOT / "tools" / "golden.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


def test_outputs_match_golden_hashes():
    expected = json.loads(golden.GOLDEN.read_text())
    differences = golden.compare(expected, golden.matrix())
    assert not differences, "\n".join(differences)
