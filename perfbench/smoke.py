#!/usr/bin/env python3
"""Quick self-check of the benchmark at tiny sizes (about 20 s).

    python3 perfbench/smoke.py

Runs every workload with ``--tiny`` untraced and traced, and asserts that
the last line names every metric of BENCHMARK.json with its unit, that
``attempted`` and ``failed`` are whole numbers, and that every job's output
check ran.  At tiny sizes the sampling checks fail from sampling noise, so
``failed`` is not asserted.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in spec[key]}
        for workload in (w["name"] for w in spec["workloads"]):
            argv = spec["command"] + ["--workload", workload, "--seed", "7", "--seconds", "1",
                                      "--trace", str(trace), "--tiny"]
            proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170)
            assert proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}"
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert isinstance(result["attempted"], int) and result["attempted"] >= 1
            assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == expected, f"{workload} trace={trace}: metrics {got} != {expected}"
            assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
            n = result["attempted"]
            assert any(f"checked {n} of {n} jobs" in line for line in lines), "output checks did not run"
            print(f"ok {workload} trace={trace}: {n} jobs, {result['failed']} failed checks")
    return 0


if __name__ == "__main__":
    sys.exit(main())
