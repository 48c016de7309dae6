"""tools/probes.py must keep running: its quick subset gives the recorded
answers, and a probe that alexlab stops or that passes the cap is reported
as such, one JSON line each."""

import json
import os
import pathlib
import subprocess
import sys

PROBES = pathlib.Path(__file__).resolve().parents[1] / "tools" / "probes.py"

# sha256 of each quick probe's answer (see tools/probes.py).
QUICK_ANSWERS = {
    "delta_render_300": "sha256:6626689a76866c85",
    "mul_bivar_30": "sha256:b89794ae056038a8",
    "mul_bivar_200": "sha256:f2b481cfd0d89560",
    "cyclo_free_400": "sha256:fb4a25a5d9a7e542",
    "cv_dense4_m600": "sha256:4e07408562bedb8b",
    "ball_disk_10": "sha256:d2ed664527535a06",
}


def _probes(*args, env=None):
    proc = subprocess.run(
        [sys.executable, str(PROBES), *args], capture_output=True, text=True, timeout=120, env=env
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return [json.loads(line) for line in proc.stdout.splitlines()]


def test_probes_quick_gives_the_recorded_answers():
    lines = _probes("--quick")
    assert [line["id"] for line in lines] == list(QUICK_ANSWERS)
    assert {line["id"]: line["outcome"] for line in lines} == QUICK_ANSWERS
    for line in lines:
        assert 0 < line["seconds"] < 30 and line["peak_mb"] > 0, line


def test_probes_report_limit_error_and_timeout():
    env = dict(os.environ, ALEXLAB_MAX_LETTERS="10")
    (line,) = _probes("--only", "delta_render_300", env=env)
    assert line["outcome"] == "LimitError"
    (line,) = _probes("--only", "mul_bivar_800", "--cap", "0.3")
    assert line["outcome"] == "timeout" and line["seconds"] >= 0.3
