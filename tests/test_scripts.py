"""Smoke runs of the study scripts in ``scripts/``, each in a subprocess with
tiny arguments."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import weakgiant

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
SRC = Path(weakgiant.__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script, args",
    [
        ("er_threshold_scan.py", ["--vertices", "2000", "--lambdas", "0.3", "0.7", "3"]),
        ("kmc_vs_theory.py", ["--vertices", "2000", "--conversions", "0.1", "0.4", "2"]),
        ("evolution_snapshots.py", ["--points", "3"]),
    ],
)
def test_script_runs(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    rows = [line for line in proc.stdout.splitlines() if not line.startswith("#")]
    assert rows
