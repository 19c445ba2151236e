"""tools/duel.py runs a checkout against itself without a failed op."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_a_checkout_duels_itself_on_one_audit_rational_pass():
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "duel.py"), str(ROOT), str(ROOT),
                           "--workload", "audit-rational", "--passes", "1"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout)
    assert result["failed_ops_parent"] == result["failed_ops_change"] == 0
    assert result["passes"] == 1 and result["ops_per_pass"] == 100
    assert result["pass_ratios"] and result["total_ratio"] > 0
    # the passes the change won, out of the one pass; a tie counts for neither side
    assert result["change_wins"] in (0, 1)
    assert result["change_wins"] == 0 or result["pass_ratios"][0] <= 1
