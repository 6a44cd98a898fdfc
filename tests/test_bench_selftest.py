import subprocess
import sys
from pathlib import Path


def test_bench_selftest_passes():
    # the benchmark reads QuadResult, SimplexResult and the LP diagnostics;
    # its self-test runs tiny variants of every workload against them
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "bench/selftest.py"],
        cwd=root, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
