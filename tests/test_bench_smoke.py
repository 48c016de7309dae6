"""The benchmark's smoke test must keep passing: it wraps the functions
named in bench/tracer.py and checks every answer against the recorded
digests, so a renamed layer or a changed answer fails it."""

import pathlib
import subprocess
import sys

BENCH_RUN = pathlib.Path(__file__).resolve().parents[1] / "bench" / "run.py"


def test_bench_quick_passes():
    proc = subprocess.run(
        [sys.executable, str(BENCH_RUN), "--quick"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
