"""The benchmark's three workloads: inputs drawn from the seed, the jobs that
run them through ``weakgiant.cli.main``, and the reference check of each job.

Every job is one user-level request (or a short pipeline of requests) on a
table file.  A round is a fixed list of jobs that visits every band of its
workload once; the run repeats rounds with fresh points.  Points inside a
band are stratified (one per equal slice, at an offset drawn from the seed),
so each seed yields a different but equally costly set of jobs.

References are independent of the library where theory gives a closed form:
the Erdos-Renyi giant fraction and Borel law for double-Poisson tables, and
a Lagrange-inversion size law for the (2, 2) growth atom.  Mixed growth
tables have no closed form; their size law comes from ``gfsolver`` on the
analytic marginal, as acceptance gate 7 does.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from weakgiant import cli, evolution, gfsolver
from weakgiant.evolution import BoundDist

#: Bound tables used by the growth points (capacity classes and weights).
ATOM22 = [(2, 2, 1.0)]
GATE6 = [(10, 10, 1 / 3), (5, 10, 1 / 3), (10, 4, 1 / 3)]
BROAD = [(1, 1, 0.4), (2, 2, 0.3), (4, 1, 0.1), (1, 4, 0.1), (8, 8, 0.1)]
CAP70 = [(70, 70, 1.0)]  # marginal has 71 * 71 = 5041 entries

#: Vertex count of every Monte Carlo request (acceptance gate 7 uses 1e5).
MC_VERTICES = 100_000
#: The gate-6 table makes ~3.7 events per vertex by t = 0.1, so fewer vertices
#: keep its jobs in the same cost band as the (2, 2) jobs.
GATE6_VERTICES = 20_000
#: Size-law checks lump all sizes above this into one tail bucket.  Near the
#: critical point the vertex-weighted tail is heavy and sizes up to 30 (gate
#: 7's order) carry sampling noise of the same size as the bound at 1e5
#: vertices; below 10 the noise is a third of it.
SIZE_LAW_ORDER = 10
#: Total-variation bound of acceptance gate 7.
SIZE_LAW_TV = 0.02
#: Size-3 mass bound of acceptance gate 1 (fork configuration graphs).
FORK_MASS3 = 0.999
#: Sampling checks accept a deviation of this many standard deviations.
SIGMAS = 5.0


class JobError(Exception):
    """A request exited non-zero."""


@dataclass
class Job:
    """One closed-loop request: ``run`` returns the outputs, ``check`` maps
    them to a list of failed-check messages (empty when correct)."""

    kind: str
    label: str
    run: Callable[[], tuple]
    check: Callable[[tuple], list]


def call(argv: list[str]) -> str:
    """Run one CLI request in-process and return its stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise JobError(f"weakgiant {argv[0]} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


# ---------------------------------------------------------------------------
# inputs


def stratified(rng, lo: float, hi: float, count: int) -> list[float]:
    """One point in each of ``count`` equal slices of [lo, hi], all at one
    offset drawn from ``rng``."""
    u = rng.random()
    return [lo + (i + u) * (hi - lo) / count for i in range(count)]


def per_round(rng, lo: float, hi: float, rounds: int, per: int, shift: int) -> list[list[float]]:
    """Stratified points for ``rounds`` rounds of ``per`` points each; every
    round gets one point from each of ``per`` equal sub-bands.

    Round r takes slice (r + shift) mod rounds of each sub-band.  Giving each
    band of a workload its own shift spreads cheap and costly slices over
    all rounds, so rounds cost about the same.
    """
    pts = stratified(rng, lo, hi, rounds * per)
    return [[pts[j * rounds + (r + shift) % rounds] for j in range(per)] for r in range(rounds)]


def banded(rng, bands, rounds: int, per: int = 1) -> list[list[list[float]]]:
    """``per_round`` points for each (lo, hi) band, with staggered shifts."""
    return [
        per_round(rng, lo, hi, rounds, per, i * rounds // len(bands))
        for i, (lo, hi) in enumerate(bands)
    ]


def double_poisson(lam: float, cutoff: int = 30) -> list[tuple[int, int, float]]:
    """Product of two Poisson(lam) laws truncated at ``cutoff``: 961 entries."""
    row = [math.exp(-lam)]
    for i in range(1, cutoff + 1):
        row.append(row[-1] * lam / i)
    return [(n, k, row[n] * row[k]) for n in range(cutoff + 1) for k in range(cutoff + 1)]


def table_text(records) -> str:
    return "# n k prob\n" + "".join(f"{n} {k} {p:.17g}\n" for n, k, p in records)


def request_seed(rng) -> int:
    """Per-request --seed for a Monte Carlo job."""
    return int(rng.integers(1, 2**31))


def write(path: Path, text: str) -> str:
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# references


def er_giant(c: float) -> float:
    """Root in (0, 1] of g = 1 - exp(-c g); 0 when c <= 1."""
    if c <= 1.0:
        return 0.0
    lo, hi = 1e-12, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if 1.0 - math.exp(-c * mid) - mid > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def er_giant_sigma(c: float, g: float, n: int) -> float:
    """Standard deviation of the giant fraction of an ER graph on n vertices."""
    return math.sqrt(g * (1.0 - g) / n) / (1.0 - c * (1.0 - g))


def borel(c: float, order: int) -> list[float]:
    """Vertex-weighted finite-component size law of ER with mean degree c."""
    return [
        math.exp(-c * s + (s - 1) * math.log(c * s) - math.lgamma(s + 1))
        for s in range(1, order + 1)
    ]


def atom22_law(c: float, order: int) -> list[float]:
    """Size law of the (2, 2) growth atom at conversion c.

    In- and out-degree are independent Binomial(2, c), so weak components
    are those of an undirected configuration model with Binomial(4, c)
    degrees; Lagrange inversion of W(z) = z G0(H), H = z G1(H) gives
    w(s) = 4c/(s-1) C(3s, s-2) c^(s-2) (1-c)^(2s+2).
    """
    law = [(1.0 - c) ** 4]
    for s in range(2, order + 1):
        law.append(4 * c / (s - 1) * math.comb(3 * s, s - 2) * c ** (s - 2) * (1.0 - c) ** (2 * s + 2))
    return law


def library_law(bounds, c_n=None, t=None, order: int = SIZE_LAW_ORDER) -> list[float]:
    """Analytic size law of a growth marginal from ``gfsolver`` (gate 7)."""
    P = BoundDist.from_entries(bounds)
    state = (
        evolution.degree_state_at_conversion(P, c_n)
        if t is None
        else evolution.degree_state_at(P, t)
    )
    return gfsolver.weak_size_distribution(evolution.marginal_degree_dist(state), order)


def nu10(bounds) -> float:
    return math.fsum(n * p for n, _k, p in bounds)


def mu_closed_form(bounds, t: float) -> float:
    """Edge density of the growth process at time t (independent closed form)."""
    a = math.fsum(k * p for _n, k, p in bounds)
    b = nu10(bounds)
    if abs(a - b) <= 1e-12 * max(a, b):
        return a * a * t / (1.0 + a * t)
    e = math.exp((b - a) * t)
    return a * b * (e - 1.0) / (b * e - a)


def lumped_tv(law: list[float], hist: dict, order: int = SIZE_LAW_ORDER) -> float:
    """TV between a size law and a histogram, sizes above ``order`` lumped."""
    body = math.fsum(abs(law[s - 1] - hist.get(s, 0.0)) for s in range(1, order + 1))
    tail_law = max(0.0, 1.0 - math.fsum(law[:order]))
    tail_hist = math.fsum(p for s, p in hist.items() if s > order)
    return 0.5 * (body + abs(tail_law - tail_hist))


def gf_residuals(records, s_out: float, s_in: float) -> tuple[float, float, float]:
    """Residuals of both fixed-point equations and U(s_out, s_in), evaluated
    term by term from the table."""
    mu = math.fsum(n * p for n, _k, p in records)
    u_in = math.fsum(n * p * s_out ** (n - 1) * s_in**k for n, k, p in records if n) / mu
    u_out = math.fsum(k * p * s_out**n * s_in ** (k - 1) for n, k, p in records if k) / mu
    u = math.fsum(p * s_out**n * s_in**k for n, k, p in records)
    return abs(u_in - s_in), abs(u_out - s_out), u


def close(name: str, got, want, tol: float, errors: list) -> None:
    if got is None or want is None or not abs(got - want) <= tol:
        errors.append(f"{name} = {got!r}, reference {want!r} (tolerance {tol:.3g})")


def require(name: str, ok: bool, detail: str, errors: list) -> None:
    if not ok:
        errors.append(f"{name}: {detail}")


# ---------------------------------------------------------------------------
# gf_sweep


def check_fixed_point(gf: dict, records, errors: list) -> None:
    r_in, r_out, u = gf_residuals(records, gf["s_out"], gf["s_in"])
    require("fixed-point residual", max(r_in, r_out) <= 1e-9, f"{r_in:.3g}, {r_out:.3g}", errors)
    close("giant_fraction vs 1 - U(s)", gf["giant_fraction"], max(0.0, 1.0 - u), 1e-9, errors)
    sizes = gf["size_distribution"]
    require("size law", min(sizes) >= 0.0 and math.fsum(sizes) + gf["giant_fraction"] <= 1.0 + 1e-9,
            "negative or over-full", errors)


def degree_point(workdir: Path, lam: float, order: int) -> Job:
    records = double_poisson(lam)
    path = write(workdir / f"dp_{lam:.9f}.txt", table_text(records))

    def run():
        return call(["analyze", path]), call(["gf", path, "--order", str(order)])

    def check(outputs):
        report, gf = (json.loads(o) for o in outputs)
        c = 2.0 * lam
        g = er_giant(c)
        errors: list = []
        require("giant_weak", report["giant_weak"] == (c > 1.0), f"{report['giant_weak']} at lambda={lam}", errors)
        if c < 1.0:
            close("mean_weak_size", report["mean_weak_size"], 1.0 / (1.0 - c), 1e-9 / (1.0 - c), errors)
        else:
            close("report giant fraction", report["giant_weak_fraction"], g, 1e-6, errors)
        close("gf giant_fraction vs ER", gf["giant_fraction"], g, 1e-6, errors)
        close("s_in vs ER", gf["s_in"], 1.0 - g, 1e-6, errors)
        check_fixed_point(gf, records, errors)
        gap = max(abs(a - b) for a, b in zip(gf["size_distribution"], borel(c, order)))
        require("size law vs Borel", gap <= 1e-9, f"max gap {gap:.3g}", errors)
        return errors

    return Job("degree", f"lambda={lam:.6f} order={order}", run, check)


def bound_point(workdir: Path, name: str, bounds, c_n: float, order: int) -> Job:
    path = write(workdir / f"{name}_bounds.txt", table_text(bounds))
    marginal_path = workdir / f"{name}_{c_n:.9f}_marginal.txt"

    def run():
        evolved = call(["evolve", path, "--at-conversion", repr(c_n)])
        marginal = json.loads(evolved)["marginal"]
        marginal_path.write_text(table_text(marginal))
        return evolved, call(["gf", str(marginal_path), "--order", str(order)])

    def check(outputs):
        evolved, gf = (json.loads(o) for o in outputs)
        records = [tuple(r) for r in evolved["marginal"]]
        errors: list = []
        close("mu", evolved["mu"], c_n * nu10(bounds), 1e-12 * max(1.0, evolved["mu"]), errors)
        close("marginal mass", math.fsum(p for _n, _k, p in records), 1.0, 1e-9, errors)
        close("marginal mean", math.fsum(n * p for n, _k, p in records), evolved["mu"], 1e-9 * evolved["mu"], errors)
        check_fixed_point(gf, records, errors)
        if name == "atom22":
            require("giant_weak", evolved["report"]["giant_weak"] == (c_n > 1 / 3), f"at c={c_n}", errors)
            gap = max(abs(a - b) for a, b in zip(gf["size_distribution"], atom22_law(c_n, order)))
            require("size law vs Lagrange", gap <= 1e-9, f"max gap {gap:.3g}", errors)
        return errors

    return Job("bound", f"{name} c={c_n:.6f} order={order}", run, check)


def gf_sweep(rng, rounds: int, workdir: Path, tiny: bool) -> list[list[Job]]:
    """Phase-diagram points, far from and near the critical point.

    Near-critical degree tables stay at least 3e-3 from lambda = 1/2, where
    Picard iteration needs thousands of steps per solve; they form the tail.
    """
    o_far, o_near, o_bound, o_cap = (12, 10, 10, 4) if tiny else (100, 60, 60, 6)
    # Picard iterations grow like 1 / |lambda - 1/2|, so near-critical points
    # are stratified in that quantity: then equal slices cost alike.
    degree = [
        (0.30, 0.46, o_far, lambda x: x),
        (1 / 0.015, 1 / 0.003, o_near, lambda x: 0.5 - 1 / x),
        (1 / 0.015, 1 / 0.003, o_near, lambda x: 0.5 + 1 / x),
        (0.55, 0.80, o_far, lambda x: x),
    ]
    growth = [
        ("atom22", ATOM22, 0.15, 0.30, o_bound),
        ("atom22", ATOM22, 0.37, 0.50, o_bound),
        ("gate6", GATE6, 0.10, 0.50, o_bound),
        ("cap70", CAP70, 0.01, 0.02, o_cap),
    ]
    plan = [[] for _ in range(rounds)]
    for (_lo, _hi, order, lam), points in zip(degree, banded(rng, [b[:2] for b in degree], rounds, per=2)):
        for r, xs in enumerate(points):
            plan[r].extend(degree_point(workdir, lam(x), order) for x in xs)
    for (name, bounds, _lo, _hi, order), points in zip(growth, banded(rng, [g[2:4] for g in growth], rounds)):
        for r, (c_n,) in enumerate(points):
            plan[r].append(bound_point(workdir, name, bounds, c_n, order))
    return plan


def gf_sweep_warmups(workdir: Path) -> list[Job]:
    return [degree_point(workdir, 0.6, 5), bound_point(workdir, "warm", ATOM22, 0.2, 5)]


# ---------------------------------------------------------------------------
# kmc_growth and config_components


def simulation(argv: list[str]) -> Callable[[], tuple]:
    return lambda: (call(argv),)


def histogram(out: dict) -> dict:
    return {int(s): p for s, p in out["size_histogram"]}


def check_mu(out: dict, bounds, t: float, errors: list) -> None:
    n = out["vertices"]
    mu = mu_closed_form(bounds, t)
    close("mu_hat vs closed form", out["mu_hat"], mu, SIGMAS * math.sqrt(mu / n), errors)


def check_size_law(out: dict, law: list[float], errors: list) -> None:
    tv = lumped_tv(law, histogram(out))
    require("size law TV", tv <= SIZE_LAW_TV, f"{tv:.5f} > {SIZE_LAW_TV}", errors)


def kmc_atom22(path: str, c_n: float, n: int, seed: int) -> Job:
    argv = ["simulate", path, "--mode", "kmc", "--vertices", str(n),
            "--target-conversion", repr(c_n), "--seed", str(seed)]

    def check(outputs):
        out = json.loads(outputs[0])
        errors: list = []
        check_mu(out, ATOM22, out["t_final"], errors)
        check_size_law(out, atom22_law(c_n, SIZE_LAW_ORDER), errors)
        return errors

    return Job("kmc_atom22", f"c={c_n:.6f} seed={seed}", simulation(argv), check)


def kmc_gate6(path: str, t_end: float, n: int, seed: int) -> Job:
    argv = ["simulate", path, "--mode", "kmc", "--vertices", str(n),
            "--t-end", repr(t_end), "--seed", str(seed)]

    def check(outputs):
        out = json.loads(outputs[0])
        errors: list = []
        close("t_final", out["t_final"], t_end, 0.0, errors)
        check_mu(out, GATE6, t_end, errors)
        check_size_law(out, library_law(GATE6, t=t_end), errors)
        return errors

    return Job("kmc_gate6", f"t_end={t_end:.6f} seed={seed}", simulation(argv), check)


def kmc_growth(rng, rounds: int, workdir: Path, tiny: bool) -> list[list[Job]]:
    """The (2, 2) atom below, near and above its critical conversion 1/3,
    and the gate-6 three-class table at a drawn end time."""
    n22, n6 = (2_000, 1_000) if tiny else (MC_VERTICES, GATE6_VERTICES)
    atom = write(workdir / "atom22.txt", table_text(ATOM22))
    gate6 = write(workdir / "gate6.txt", table_text(GATE6))
    plan = [[] for _ in range(rounds)]
    atom_c = [(0.15, 0.25), (0.29, 0.32), (0.35, 0.38), (0.40, 0.48)]
    *atom_bands, gate6_band = banded(rng, atom_c + [(0.04, 0.08)], rounds)
    for points in atom_bands:
        for r, (c_n,) in enumerate(points):
            plan[r].append(kmc_atom22(atom, c_n, n22, request_seed(rng)))
    for r, (t_end,) in enumerate(gate6_band):
        plan[r].append(kmc_gate6(gate6, t_end, n6, request_seed(rng)))
    return plan


def kmc_growth_warmups(workdir: Path) -> list[Job]:
    return [kmc_atom22(write(workdir / "warm22.txt", table_text(ATOM22)), 0.2, 1_000, 1)]


def config(path: str, n: int, seed: int) -> Callable[[], tuple]:
    return simulation(["simulate", path, "--mode", "config", "--vertices", str(n), "--seed", str(seed)])


def config_dp(path: str, lam: float, n: int, seed: int) -> Job:

    def check(outputs):
        out = json.loads(outputs[0])
        c = 2.0 * lam
        errors: list = []
        check_size_law(out, borel(c, SIZE_LAW_ORDER), errors)
        if c > 1.0:
            g = er_giant(c)
            close("largest_weak_fraction vs ER giant", out["largest_weak_fraction"], g,
                  SIGMAS * er_giant_sigma(c, g, n), errors)
        return errors

    return Job("config_dp", f"lambda={lam:.6f} seed={seed}", config(path, n, seed), check)


def config_growth(path: str, c_n: float, n: int, seed: int) -> Job:

    def check(outputs):
        errors: list = []
        check_size_law(json.loads(outputs[0]), library_law(BROAD, c_n=c_n), errors)
        return errors

    return Job("config_growth", f"c={c_n:.6f} seed={seed}", config(path, n, seed), check)


def config_fork(path: str, n: int, seed: int) -> Job:

    def check(outputs):
        mass3 = histogram(json.loads(outputs[0])).get(3, 0.0)
        errors: list = []
        require("fork size-3 mass (gate 1)", mass3 >= FORK_MASS3, f"{mass3:.5f} < {FORK_MASS3}", errors)
        return errors

    return Job("config_fork", f"seed={seed}", config(path, n, seed), check)


def config_components(rng, rounds: int, workdir: Path, tiny: bool) -> list[list[Job]]:
    """Configuration graphs of double-Poisson tables sub-, near- and
    supercritical, a broad growth marginal, and the fork of gate 1."""
    n = 2_000 if tiny else MC_VERTICES
    fork = write(workdir / "fork.txt", table_text([(1, 0, 2 / 3), (0, 2, 1 / 3)]))
    P = BoundDist.from_entries(BROAD)
    plan = [[] for _ in range(rounds)]
    lams = [(0.30, 0.42), (0.45, 0.48), (0.52, 0.55), (0.60, 0.75)]
    *dp_bands, broad_band = banded(rng, lams + [(0.08, 0.30)], rounds)
    for points in dp_bands:
        for r, (lam,) in enumerate(points):
            path = write(workdir / f"dp_{lam:.9f}.txt", table_text(double_poisson(lam)))
            plan[r].append(config_dp(path, lam, n, request_seed(rng)))
    for r, (c_n,) in enumerate(broad_band):
        marginal = evolution.marginal_degree_dist(evolution.degree_state_at_conversion(P, c_n))
        path = write(workdir / f"broad_{c_n:.9f}.txt", marginal.to_text())
        plan[r].append(config_growth(path, c_n, n, request_seed(rng)))
    for r in range(rounds):
        plan[r].append(config_fork(fork, n, request_seed(rng)))
    return plan


def config_components_warmups(workdir: Path) -> list[Job]:
    return [config_dp(write(workdir / "warm_dp.txt", table_text(double_poisson(0.6))), 0.6, 1_000, 1)]


WORKLOADS = {
    "gf_sweep": (gf_sweep, gf_sweep_warmups),
    "kmc_growth": (kmc_growth, kmc_growth_warmups),
    "config_components": (config_components, config_components_warmups),
}
