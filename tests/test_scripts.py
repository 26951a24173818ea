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
    proc = _run(script, args)
    assert proc.returncode == 0, proc.stderr
    rows = [line for line in proc.stdout.splitlines() if not line.startswith("#")]
    assert rows


@pytest.mark.parametrize("script", ["er_threshold_scan.py", "kmc_vs_theory.py"])
def test_script_negative_seed_exits_3(script):
    proc = _run(script, ["--vertices", "200", "--seed", "-1"])
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("weakgiant: invalid input: ")
    assert len(proc.stderr.splitlines()) == 1


@pytest.mark.parametrize(
    "script, args",
    [
        ("er_threshold_scan.py", ["--lambdas", "0.3", "0.7", "1"]),
        ("kmc_vs_theory.py", ["--conversions", "0.1", "0.3", "1"]),
        ("evolution_snapshots.py", ["--points", "0"]),
    ],
)
def test_script_rejects_a_grid_of_one_point(script, args):
    proc = _run(script, args)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    # argparse prints its usage lines, then the one error line
    lines = proc.stderr.splitlines()
    assert [line for line in lines if "error:" in line] == lines[-1:]
    assert lines[-1].startswith(f"{script}: error: ")


@pytest.mark.parametrize("script", ["kmc_vs_theory.py", "evolution_snapshots.py"])
def test_script_malformed_bounds_exits_2(script, tmp_path):
    bounds = tmp_path / "bounds.txt"
    bounds.write_text("1 1\n")
    proc = _run(script, [str(bounds)])
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("weakgiant: parse error: ")
    assert len(proc.stderr.splitlines()) == 1


def _run(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
