"""Smoke runs of the study scripts in ``scripts/``, each in a subprocess with
tiny arguments, and a run of the README's library quickstart."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import weakgiant

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"
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


@pytest.mark.parametrize("script", ["kmc_vs_theory.py", "evolution_snapshots.py"])
def test_script_missing_bounds_exits_2(script, tmp_path):
    proc = _run(script, [str(tmp_path / "missing.txt")])
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("weakgiant: i/o error: ")
    assert len(proc.stderr.splitlines()) == 1


@pytest.mark.parametrize(
    "script, args",
    [
        ("er_threshold_scan.py", ["--vertices", "200", "--lambdas", "0.3", "0.7", "2"]),
        ("kmc_vs_theory.py", ["--vertices", "200", "--conversions", "0.1", "0.4", "2"]),
    ],
)
def test_script_closed_stdout_exits_2(script, args):
    # a reader that has gone before the first row, as under `| head -0`
    read, write = os.pipe()
    os.close(read)
    with os.fdopen(write, "w") as stdout:
        proc = _run(script, args, stdout=stdout)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines()[0] == "weakgiant: i/o error: [Errno 32] Broken pipe"


def test_readme_quickstart_states_its_values():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library quickstart", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace, values = {}, []
    # run the block statement by statement, keeping each expression's value
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            values.append(eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace))
        else:
            exec(compile(ast.Module([node], type_ignores=[]), "README.md", "exec"), namespace)
    giant, mean, sizes, c_star, t_crit, instant, _marginal = values
    assert (giant, mean, sizes, c_star) == (False, 3.0, [0, 0, 1, 0, 0], (1 / 3, 1 / 3))
    assert t_crit == pytest.approx(0.25, abs=1e-15)
    assert instant == (1 / 6, 0.5, 0.25)


def _run(script, args, stdout=subprocess.PIPE):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        stdout=stdout, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
    )
