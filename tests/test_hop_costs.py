"""``tools/hop_costs.py`` runs and reports every call it names.

Only the names and the signs of the figures are checked, never a timing.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CALLS = ["PolyphaseAnalyzer.push", "update_noise_psd", "mmse_lsa_gain",
         "expand_hermitian", "subband_to_time", "shorten_filter", "filter_to_freq",
         "ols_filter_frame", "gains_to_taps", "analyze_polyphase one hop",
         "reference mapping chain", "filter_to_freq(gains_to_taps)",
         "analyze_polyphase one hop / push",
         "update_noise_psd per frame, 64-frame blocks",
         "mmse_lsa_gain per frame, 64-frame blocks",
         "exp_integral_e1 per frame, 64-frame blocks",
         "scipy.special.exp1 in bin order per frame, 64-frame blocks",
         "update_noise_psd per frame, one-frame calls",
         "update_noise_psd + mmse_lsa_gain per frame, one-frame calls",
         "update_noise_psd per frame, 1-row blocks",
         "update_noise_psd + mmse_lsa_gain per frame, 1-row blocks",
         "process_stream per hop, mmse-lsa",
         "process_stream per hop, type-A file",
         "process_stream per hop, type-B file"]


def test_one_round_reports_every_call():
    result = subprocess.run(
        [sys.executable, "-B", str(ROOT / "tools" / "hop_costs.py"), "--rounds", "1"],
        capture_output=True, text=True, check=True, timeout=300)
    header, *rows = result.stdout.splitlines()
    assert header.split() == ["call", "median", "µs"]
    names = [row.rsplit(None, 1)[0] for row in rows]
    values = [float(row.rsplit(None, 1)[1]) for row in rows]
    assert names == CALLS
    assert all(value > 0 for value in values)
