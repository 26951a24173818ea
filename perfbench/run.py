#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the weakgiant CLI.

    python3 perfbench/run.py --workload gf_sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 1 --seconds 20          # every workload

Each workload is a closed loop with one client: jobs are in-process
``weakgiant.cli.main`` requests, each started when the previous one ends.
Jobs come in rounds, a fixed list that visits every band of the workload
once; the number of rounds follows from ``--seconds``.  Every job's output is
checked against a reference after the timed loop.

With ``--trace 0`` the run reports end-to-end metrics and installs no
wrappers.  With ``--trace 1`` even rounds run with spans around the
library's public functions (see ``tracing.py``) and odd rounds without, and
the run reports per-layer metrics and the tracing overhead.  The last line
of stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  A job counts as failed when a request exits non-zero or its
output check fails; ``correct`` is false when a check could not be
evaluated or a repeated request gave different output.

The run reads and writes only inside the checkout: sources from ``src``,
scratch tables and span files under ``.perfbench_out``.
"""

import os

# One BLAS/OpenMP thread: the host has two cores and jobs are single-process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"

WORKLOAD_NAMES = ("gf_sweep", "kmc_growth", "config_components")
#: Time of one round on a 2-core x86-64 VM (Python 3.11, numpy 2.4,
#: host.calib_s about 2.4 ms); rounds per run = seconds / this, so the job
#: list is fixed per --seconds.
ROUND_SECONDS = {"gf_sweep": 4.0, "kmc_growth": 2.8, "config_components": 1.0}
#: Set-ups timed per run, each in a fresh process; setup_s is their median.
SETUP_REPEATS = 3
#: No round starts after this many seconds, so a run ends well within 180 s.
DEADLINE_S = 100.0
#: job_tail_s is the latency with this many slower jobs.
TAIL_BEYOND = 10


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="two rounds of tiny jobs (smoke check)")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def child_argv(args, workload, *extra):
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    return argv + (["--tiny"] if args.tiny else []) + list(extra)


def timed_setup(args) -> float:
    """Seconds from spawning a fresh process to its first timed job."""
    start = time.perf_counter()
    with subprocess.Popen(child_argv(args, args.workload, "--setup-only"),
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up process exited {proc.returncode}")
    return elapsed


def setup(args, workdir: Path):
    """Imports, inputs from the seed, and one untimed warm-up of each kind."""
    import numpy as np

    import workloads

    build, warmups = workloads.WORKLOADS[args.workload]
    rounds = 2 if args.tiny else max(2, round(args.seconds / ROUND_SECONDS[args.workload]))
    plan = build(np.random.default_rng(args.seed), rounds, workdir, args.tiny)
    for job in warmups(workdir):
        job.run()
    return plan


def calibrate(a) -> float:
    """Time of a fixed pure-Python plus np.convolve kernel (host speed probe)."""
    import numpy as np

    start = time.perf_counter()
    s = 0
    for i in range(20_000):
        s += i * i % 7
    for _ in range(20):
        np.convolve(a, a)
    return time.perf_counter() - start


def run_plan(plan, tracer, start):
    """Closed loop over the rounds; returns per-job records and round walls."""
    import numpy as np

    from workloads import JobError

    a = np.arange(256, dtype=float)
    records, walls, calib, job_round = [], [], [], {}
    for r, jobs in enumerate(plan):
        if time.perf_counter() - start > DEADLINE_S:
            print(f"deadline: stopped after {r} of {len(plan)} rounds", file=sys.stderr)
            break
        traced = tracer is not None and r % 2 == 0
        if traced:
            tracer.install()
        wall = 0.0
        for job in jobs:
            jid = len(records)
            job_round[jid] = r
            if tracer is not None:
                tracer.job = jid
            error = outputs = None
            t = time.perf_counter()
            try:
                outputs = job.run()
            except JobError as exc:
                error = str(exc)
            except Exception as exc:  # a crash inside a request fails the job, not the run
                error = f"{type(exc).__name__}: {exc}"
            latency = time.perf_counter() - t
            wall += latency
            records.append((job, outputs, error, latency, traced))
            calib.append(calibrate(a))
        if traced:
            tracer.uninstall()
        walls.append((wall, traced))
    return records, walls, calib, job_round


def check_records(records):
    """Apply every job's check; returns (failures, jobs checked, correct)."""
    failures, checked, correct, seen = [], 0, True, set()
    for job, outputs, error, _latency, _traced in records:
        if error is None:
            try:
                problems = job.check(outputs)
                checked += 1
            except Exception as exc:
                problems = [f"check raised {type(exc).__name__}: {exc}"]
                correct = False
            error = "; ".join(problems) or None
        if error is not None:
            failures.append(f"{job.kind} {job.label}: {error}")
        if outputs is not None and job.kind not in seen:
            seen.add(job.kind)
            if job.run() != outputs:
                failures.append(f"{job.kind} {job.label}: repeated request gave different output")
                correct = False
    return failures, checked, correct


def tail(latencies):
    """Latency with TAIL_BEYOND slower jobs, and its percentile."""
    ordered = sorted(latencies)
    rank = max(1, len(ordered) - TAIL_BEYOND)
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def run_workload(args) -> int:
    start = time.perf_counter()
    repeats = 1 if args.tiny else SETUP_REPEATS
    setup_times = [timed_setup(args) for _ in range(repeats)]

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        plan = setup(args, workdir)
        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
        records, walls, calib, job_round = run_plan(plan, tracer, start)
        failures, checked, correct = check_records(records)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    latencies = [rec[3] for rec in records]
    attempted, failed = len(records), len(failures)
    tail_s, tail_pct = tail(latencies)
    jobs_per_round = len(plan[0])
    lines = [
        f"workload {args.workload}, seed {args.seed}: {attempted} jobs in {len(walls)} rounds of "
        f"{jobs_per_round}, closed loop, 1 client",
        f"  checked {checked} of {attempted} jobs",
        f"  fail_frac {failed / attempted:.6f} failed/attempted ({failed} of {attempted} jobs)",
        f"  job_tail_s is p{tail_pct:.1f}: {TAIL_BEYOND} of {attempted} jobs are slower",
        f"  host.calib_s {statistics.median(calib):.6f} s (median of {len(calib)}, diagnostic only)",
    ]
    lines += [f"  FAILED {msg}" for msg in failures[:20]]
    if args.trace:
        from tracing import layer_metrics

        traced_rounds = sorted({job_round[i] for i, rec in enumerate(records) if rec[4]})
        traced_jobs = sum(1 for rec in records if rec[4])
        metrics = layer_metrics(tracer.spans, job_round, traced_rounds, traced_jobs)
        # Traced and untraced rounds hold different (equally costly) points,
        # so this difference carries their cost noise as well.
        overhead = (statistics.median(w for w, t in walls if t)
                    - statistics.median(w for w, t in walls if not t))
        metrics["trace.overhead_s"] = (overhead, "s")
        metrics["host.calib_s"] = (statistics.median(calib), "s")
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.dump(spans_path)
        lines.append(f"  {len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
    else:
        metrics = {
            "wall_s": (statistics.median(w for w, _t in walls), "s"),
            "job_p50_s": (statistics.median(latencies), "s"),
            "job_tail_s": (tail_s, "s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    lines += [f"  {name:<42} {value:>16.6f} {unit}" for name, (value, unit) in metrics.items()]
    print("\n".join(lines))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    results, status = {}, 0
    for workload in WORKLOAD_NAMES:
        proc = subprocess.run(child_argv(args, workload), stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"workload {workload} exited {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        results[workload] = json.loads(lines[-1])
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "weakgiant" / "__init__.py").is_file():
        print(f"perfbench: weakgiant sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        OUT.mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(prefix="setup-", dir=OUT))
        try:
            setup(args, workdir)
            print("ready", flush=True)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
