"""The benchmark's own test: every workload at tiny size, in both modes."""

import subprocess
import sys
from pathlib import Path


def test_benchmark_selfcheck():
    run = Path(__file__).with_name("run.py")
    proc = subprocess.run(
        [sys.executable, str(run), "--selfcheck"],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    assert proc.stdout.strip().splitlines()[-1] == "selfcheck ok"
