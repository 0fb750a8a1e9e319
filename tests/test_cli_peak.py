"""``tools/cli_peak.py`` reports a peak for every clip length and format.

Only the layout and the signs of the figures are checked, never a bound.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_two_short_clips_in_both_formats():
    result = subprocess.run(
        [sys.executable, "-B", str(ROOT / "tools" / "cli_peak.py"), "--seconds", "2", "1"],
        capture_output=True, text=True, check=True, timeout=300)
    header, *rows = result.stdout.splitlines()
    assert header.split() == ["seconds", "format", "peak_MB", "B/sample"]
    cells = [row.split() for row in rows]
    assert [row[:2] for row in cells] == [["1", "pcm16"], ["2", "pcm16"],
                                          ["1", "float32"], ["2", "float32"]]
    assert all(float(row[2]) > 0 for row in cells)
    assert [row[3] for row in cells[::2]] == ["-", "-"]
