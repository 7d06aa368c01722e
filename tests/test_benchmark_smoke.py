"""The benchmark's own smoke test, run against the current source tree.

perfbench/ traces qni_lab's functions by name and checks the files each
command writes, so a rename or an output change in src/ can break it
without breaking any other test.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_smoke_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/smoke.py"], cwd=ROOT, capture_output=True, text=True,
        timeout=600, check=False,
    )
    failed = [ln for ln in proc.stdout.splitlines() if ln.startswith("FAIL")]
    assert proc.returncode == 0, "\n".join(failed) or proc.stderr[-2000:]
