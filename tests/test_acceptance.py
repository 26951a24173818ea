"""End-to-end release gates.

Each test checks one numbered release gate at a fixed tolerance and
runtime budget, and records exactly one line

    [acceptance] criterion N: PASS|FAIL - <measured values>

The conftest terminal-summary hook replays every recorded line after the
run, so the full scorecard is visible regardless of capture settings.  The
Monte Carlo gates all use the fixed default seed; no seed hunting.
"""

import math
import time

import numpy as np

from helpers import (
    brute_moment,
    random_bound_dist,
    realized_degree_law,
    rk4_mu,
    truncated_double_poisson,
    tv_distance,
    tv_size_law,
)
from weakgiant import (
    BivariateDegreeDist,
    criteria,
    evolution,
    flory,
    gfsolver,
    mcgraph,
)
from weakgiant.evolution import BoundDist
from weakgiant.flory import FloryMixture

SEED = 12345

#: One line per criterion, replayed by the conftest terminal-summary hook.
REPORT_LINES: list[str] = []


def _report(num: int, ok: bool, detail: str) -> str:
    line = f"[acceptance] criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    REPORT_LINES.append(line)
    print(line)
    return line


def test_criterion_1_fork_exactness():
    budget = 10.0
    start = time.perf_counter()
    fork = BivariateDegreeDist.from_entries([(1, 0, 2 / 3), (0, 2, 1 / 3)])

    report = criteria.criteria_report(fork)
    D = report.determinant_D
    d_ok = abs(D - 4 / 9) <= 1e-9
    giant_ok = report.giant_weak is False
    mean = criteria.mean_weak_component_size(fork)
    mean_ok = abs(mean - 3.0) <= 1e-9
    w = gfsolver.weak_size_distribution(fork, 5)
    w3_ok = abs(w[2] - 1.0) <= 1e-9

    graph = mcgraph.sample_configuration(fork, 300_000, SEED)
    sizes = mcgraph.weak_component_sizes(graph)
    hist = mcgraph.size_histogram(sizes.tolist(), vertex_weighted=True)
    mass3 = hist.entries.get(3, 0.0)
    mc_ok = mass3 >= 0.999

    elapsed = time.perf_counter() - start
    ok = d_ok and giant_ok and mean_ok and w3_ok and mc_ok and elapsed < budget
    line = _report(
        1,
        ok,
        f"D={D:.12f}, mean={mean:.12f}, w(3)={w[2]:.12f}, "
        f"MC size-3 mass={mass3:.5f} (need >= 0.999), {elapsed:.1f}s/{budget:.0f}s",
    )
    assert ok, line


def test_criterion_2_directed_er_threshold():
    budget = 30.0
    start = time.perf_counter()

    def D_of(lam: float) -> float:
        return truncated_double_poisson(lam).moments().determinant

    lo, hi = 0.4, 0.6
    assert D_of(lo) > 0.0 > D_of(hi)
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if D_of(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    root_ok = abs(root - 0.5) <= 1e-3

    g_sub = mcgraph.sample_configuration(truncated_double_poisson(0.45), 100_000, SEED)
    f_sub = mcgraph.largest_weak_fraction(g_sub)
    g_sup = mcgraph.sample_configuration(truncated_double_poisson(0.6), 100_000, SEED)
    f_sup = mcgraph.largest_weak_fraction(g_sup)
    mc_ok = f_sub < 0.02 and f_sup > 0.05

    elapsed = time.perf_counter() - start
    ok = root_ok and mc_ok and elapsed < budget
    line = _report(
        2,
        ok,
        f"D-root at lambda={root:.6f} (target 0.5 +/- 1e-3), "
        f"largest fraction {f_sub:.5f} at 0.45 (< 0.02), {f_sup:.5f} at 0.6 (> 0.05), "
        f"{elapsed:.1f}s/{budget:.0f}s",
    )
    assert ok, line


def test_criterion_3_bethe_gel_point():
    budget = 60.0
    start = time.perf_counter()
    p22 = BoundDist.from_entries([(2, 2, 1.0)])

    crit = evolution.critical_conversion(p22)
    crit_ok = crit is not None and abs(crit[0] - 1 / 3) <= 1e-12

    res_sub = mcgraph.kmc_simulate(p22, 100_000, SEED, c_n_target=0.25, record_trajectory=False)
    f_sub = mcgraph.largest_weak_fraction(res_sub.graph)
    res_sup = mcgraph.kmc_simulate(p22, 100_000, SEED, c_n_target=0.45, record_trajectory=False)
    f_sup = mcgraph.largest_weak_fraction(res_sup.graph)
    mc_ok = f_sub < 0.01 and f_sup > 0.05

    elapsed = time.perf_counter() - start
    ok = crit_ok and mc_ok and elapsed < budget
    line = _report(
        3,
        ok,
        f"c_n_crit={crit[0]:.15f} (target 1/3 +/- 1e-12), "
        f"KMC largest fraction {f_sub:.5f} at c=0.25 (< 0.01), {f_sup:.5f} at c=0.45 (> 0.05), "
        f"{elapsed:.1f}s/{budget:.0f}s",
    )
    assert ok, line


def test_criterion_4_flory_stockmayer():
    budget = 5.0
    start = time.perf_counter()

    mix = FloryMixture(0.0, 0.6, 0.4, 3)
    params = flory.flory_parameters(mix)
    alpha_ok = params.alpha_c == 0.5
    p_a, _p_b = flory.gel_point_pa(params)
    pa_ok = abs(p_a - 1 / math.sqrt(2)) <= 1e-12

    # Identity check: on gelling mixtures the two thresholds must agree to
    # 1e-12; on non-gelling ones the growth-process critical conversion must
    # sit at or past its reachable supremum.
    rng = np.random.default_rng(SEED)
    checked = 0
    numeric = 0
    worst = 0.0
    identity_ok = True
    for i in range(200):
        f1, f2, _f3 = rng.dirichlet((1.0, 1.0, 1.0))
        m = FloryMixture(f1, f2, 1.0 - f1 - f2, 2 + i % 5)
        gel = flory.gel_conversion(m)
        bd = flory.to_bound_dist(m)
        crit = evolution.critical_conversion(bd)
        sup_cn, _ = evolution.conversion_sup(bd)
        if gel is None:
            identity_ok &= crit is None or crit[0] >= sup_cn - 1e-12
        else:
            identity_ok &= crit is not None and abs(gel - crit[0]) <= 1e-12
            if crit is not None:
                worst = max(worst, abs(gel - crit[0]))
                numeric += 1
        checked += 1

    elapsed = time.perf_counter() - start
    ok = alpha_ok and pa_ok and identity_ok and checked >= 100 and elapsed < budget
    line = _report(
        4,
        ok,
        f"alpha_c={params.alpha_c}, p_A_crit={p_a:.15f} (target 2^-0.5 +/- 1e-12), "
        f"gel/critical-conversion identity across {checked} random mixtures "
        f"({numeric} gelling, worst gap {worst:.2e}, need <= 1e-12), "
        f"{elapsed:.1f}s/{budget:.0f}s",
    )
    assert ok, line


def test_criterion_5_mu_closed_form_vs_ode():
    budget = 5.0
    start = time.perf_counter()

    rng = np.random.default_rng(SEED)
    pairs = [tuple(rng.uniform(0.2, 9.0, size=2)) for _ in range(18)]
    pairs.append((2.0, 2.0 + 1e-6))  # near-symmetric rates
    pairs.append((3.0, 3.0))

    def bounds_with_means(nu10: float, nu01: float) -> BoundDist:
        p, q = nu10 / 10.0, nu01 / 10.0
        return BoundDist.from_entries(
            [
                (10, 10, p * q),
                (10, 0, p * (1.0 - q)),
                (0, 10, (1.0 - p) * q),
                (0, 0, (1.0 - p) * (1.0 - q)),
            ]
        )

    dists = [bounds_with_means(a, b) for a, b in pairs]
    nus = [evolution.nu_moments(P) for P in dists]
    steps = 4000
    grid = rk4_mu([n.nu10 for n in nus], [n.nu01 for n in nus], 5.0, steps)

    worst = 0.0
    for step in range(100, steps + 1, 100):
        t = 5.0 * step / steps
        for j, P in enumerate(dists):
            closed = evolution.mu_of_t(P, t)
            ode = grid[step, j]
            worst = max(worst, abs(closed - ode) / max(ode, closed))

    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < budget
    line = _report(
        5,
        ok,
        f"{len(pairs)} rate pairs incl. delta-nu=1e-6, t in [0,5], "
        f"worst relative error vs RK4 {worst:.2e} (need <= 1e-8), {elapsed:.1f}s/{budget:.0f}s",
    )
    assert ok, line


def test_criterion_6_degree_law_vs_kmc():
    budget = 60.0
    start = time.perf_counter()
    bounds = BoundDist.from_entries([(10, 10, 1 / 3), (5, 10, 1 / 3), (10, 4, 1 / 3)])

    res = mcgraph.kmc_simulate(bounds, 200_000, SEED, t_end=0.1, record_trajectory=False)
    state = evolution.degree_state_at(bounds, 0.1)
    marginal = evolution.marginal_degree_dist(state)
    tv = tv_distance(marginal.entries, realized_degree_law(res.graph))
    tv_ok = tv <= 0.02

    nu = evolution.nu_moments(bounds)
    c_n = evolution.mu_of_t(bounds, 0.1) / nu.nu10
    mu20, mu02, mu11 = evolution.mu_moments_at(bounds, c_n)
    moment_gap = max(
        abs(mu20 - brute_moment(marginal.entries, 2, 0)),
        abs(mu02 - brute_moment(marginal.entries, 0, 2)),
        abs(mu11 - brute_moment(marginal.entries, 1, 1)),
    )
    moment_ok = moment_gap <= 1e-10

    elapsed = time.perf_counter() - start
    ok = tv_ok and moment_ok and elapsed < budget
    line = _report(
        6,
        ok,
        f"TV(analytic, empirical)={tv:.5f} at t=0.1, N=2e5 (need <= 0.02); "
        f"closed-form vs brute-force moments gap {moment_gap:.2e} (need <= 1e-10), "
        f"{elapsed:.1f}s/{budget:.0f}s",
    )
    assert ok, line


def test_criterion_7_size_law_vs_mc():
    budget = 60.0
    start = time.perf_counter()
    p22 = BoundDist.from_entries([(2, 2, 1.0)])

    marginal = evolution.marginal_degree_dist(
        evolution.degree_state_at_conversion(p22, 0.2)
    )
    w = gfsolver.weak_size_distribution(marginal, 30)
    res = mcgraph.kmc_simulate(p22, 100_000, SEED, c_n_target=0.2, record_trajectory=False)
    sizes = mcgraph.weak_component_sizes(res.graph)
    hist = mcgraph.size_histogram(sizes.tolist(), vertex_weighted=True)
    tv = tv_size_law(w, hist.entries, 30)

    elapsed = time.perf_counter() - start
    ok = tv <= 0.02 and elapsed < budget
    line = _report(
        7,
        ok,
        f"TV(size law w(1..30), vertex-weighted MC histogram)={tv:.5f} "
        f"(need <= 0.02), {elapsed:.1f}s/{budget:.0f}s",
    )
    assert ok, line


def test_criterion_8_classifier_threshold_coherence():
    budget = 10.0
    start = time.perf_counter()

    rng = np.random.default_rng(SEED)
    checked = 0
    coherent = True
    for _ in range(250):
        P = random_bound_dist(rng)
        tc = evolution.transition_class(P)
        crit = evolution.critical_conversion(P)
        sup_cn, _ = evolution.conversion_sup(P)
        if crit is not None and abs(crit[0] - sup_cn) <= 1e-10:
            continue  # boundary case, either class is defensible
        finite_expected = crit is not None and crit[0] < sup_cn
        coherent &= (tc.kind == "finite") == finite_expected
        checked += 1

    grid = evolution.barycentric_grid([(1, 0), (0, 1), (3, 0)], 6)
    vertex_kinds = [
        pt.transition.kind
        for pt in grid
        if 1.0 in (pt.f1, pt.f2, pt.f3)
    ]
    vertices_ok = len(vertex_kinds) == 3 and set(vertex_kinds) == {"never"}

    elapsed = time.perf_counter() - start
    ok = coherent and checked >= 200 and vertices_ok and elapsed < budget
    line = _report(
        8,
        ok,
        f"finite-class <-> threshold-below-sup agreement on {checked} random bound "
        f"tables (need >= 200); simplex vertices classed {sorted(set(vertex_kinds))} "
        f"(need all 'never'), {elapsed:.1f}s/{budget:.0f}s",
    )
    assert ok, line
