import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from helpers import (
    atom22_fixed_point,
    atom22_size_law,
    balanced_dists,
    bivariate_dists,
    borel_law,
    er_giant_fraction,
    exact_picard_size_law,
    picard_fixed_point,
    run_cli,
    symmetrized_dists,
    truncated_double_poisson,
)
from weakgiant import (
    BivariateDegreeDist,
    BoundDist,
    NoConvergence,
    ValidationError,
    giant_weak_fraction,
    interior_fixed_point,
    largest_weak_fraction,
    mean_weak_component_size,
    replica_rng,
    sample_configuration,
    weak_size_distribution,
)
from weakgiant import evolution, gfsolver


def test_fixed_point_fork(fork_dist):
    sol = interior_fixed_point(fork_dist)
    assert sol.s_out == 1.0 and sol.s_in == 1.0
    assert sol.residual <= 1e-12


def test_fixed_point_atom22(atom22):
    sol = interior_fixed_point(atom22)
    # s = s^3 type system; iteration from (0,0) stays at the stable zero root
    assert sol.s_out == 0.0 and sol.s_in == 0.0


def test_fixed_point_origin_short_circuits(origin_atom):
    sol = interior_fixed_point(origin_atom)
    assert (sol.s_out, sol.s_in, sol.iterations) == (1.0, 1.0, 0)


def test_subcritical_fixed_point_is_exact():
    sol = interior_fixed_point(truncated_double_poisson(0.499))
    assert (sol.s_out, sol.s_in, sol.iterations, sol.residual) == (1.0, 1.0, 0, 0.0)
    assert sol.giant_fraction == 0.0 and sol.error_bound == 0.0


def test_fraction_fork(fork_dist):
    assert giant_weak_fraction(fork_dist) == 0.0


def test_fraction_atom22(atom22):
    assert giant_weak_fraction(atom22) == pytest.approx(1.0, abs=1e-12)


def test_fraction_matches_er_root():
    # product-Poisson reduces to undirected ER with mean degree 2*lam;
    # the survival equation is s = exp(2*lam*(s-1))
    lam = 0.75
    d = truncated_double_poisson(lam)
    s = 0.0
    for _ in range(10**4):
        s = math.exp(2 * lam * (s - 1.0))
    assert giant_weak_fraction(d) == pytest.approx(1.0 - s, abs=1e-9)


def test_fraction_matches_simulation():
    d = truncated_double_poisson(0.75)
    frac = giant_weak_fraction(d)
    g = sample_configuration(d, 10**5, replica_rng(903, 0))
    assert largest_weak_fraction(g) == pytest.approx(frac, abs=0.01)


def test_size_distribution_fork(fork_dist):
    w = weak_size_distribution(fork_dist, 5)
    assert w[2] == pytest.approx(1.0, abs=1e-9)
    assert sum(w) == pytest.approx(1.0, abs=1e-9)
    assert w[0] == w[1] == w[3] == w[4] == 0.0


def test_size_distribution_origin(origin_atom):
    assert weak_size_distribution(origin_atom, 3) == [1.0, 0.0, 0.0]


def test_size_distribution_mean_consistency_fork(fork_dist):
    w = weak_size_distribution(fork_dist, 200)
    mean = sum((s + 1) * p for s, p in enumerate(w))
    assert mean == pytest.approx(mean_weak_component_size(fork_dist), abs=1e-9)


def test_size_distribution_mean_consistency_poisson():
    d = truncated_double_poisson(0.25)
    w = weak_size_distribution(d, 200)
    mean = sum((s + 1) * p for s, p in enumerate(w))
    assert mean == pytest.approx(mean_weak_component_size(d), abs=1e-6)


def test_size_distribution_deficit_is_giant_fraction():
    d = truncated_double_poisson(0.75)
    w = weak_size_distribution(d, 400)
    assert 1.0 - sum(w) == pytest.approx(giant_weak_fraction(d), abs=1e-6)


def test_no_convergence_near_critical():
    d = truncated_double_poisson(0.500001)
    with pytest.raises(NoConvergence) as info:
        interior_fixed_point(d, max_iter=2)
    assert info.value.iterations == 2
    assert info.value.residual > 1e-12


@pytest.mark.parametrize("k", [3, 4, 5, 6, 7])
def test_near_critical_matches_er_root(k):
    # double Poisson(lam) is undirected ER with mean degree c = 2 lam, where
    # s_in = s_out = 1 - g; g ~ 4e-k here
    lam = 0.5 + 10.0**-k
    sol = interior_fixed_point(truncated_double_poisson(lam))
    g = er_giant_fraction(2 * lam)
    assert sol.error_bound <= 1e-12
    assert abs(sol.giant_fraction - g) <= sol.error_bound
    assert max(abs(sol.s_in - (1.0 - g)), abs(sol.s_out - (1.0 - g))) <= sol.error_bound


@pytest.mark.parametrize("k", [9, 13])
def test_at_criticality_bound_holds_or_no_convergence(k):
    lam = 0.5 + 10.0**-k
    try:
        sol = interior_fixed_point(truncated_double_poisson(lam))
    except NoConvergence:
        return
    g = er_giant_fraction(2 * lam)
    assert abs(sol.giant_fraction - g) <= sol.error_bound
    assert max(abs(sol.s_in - (1.0 - g)), abs(sol.s_out - (1.0 - g))) <= sol.error_bound


@pytest.mark.parametrize("c", [1 / 3 + 1e-3, 1 / 3 + 1e-6, 0.4, 0.6, 0.9])
def test_atom22_marginal_matches_closed_form(c):
    # binomial degrees put most weight on linear terms near the threshold
    P = BoundDist.from_entries([(2, 2, 1.0)])
    d = evolution.marginal_degree_dist(evolution.degree_state_at_conversion(P, c))
    sol = interior_fixed_point(d)
    v, giant = atom22_fixed_point(c)
    assert sol.error_bound <= 1e-12
    assert max(abs(sol.s_in - (1.0 - v)), abs(sol.s_out - (1.0 - v))) <= sol.error_bound
    # |d(1 - U)/ds| <= mu_10 + mu_01 = 4c
    assert abs(sol.giant_fraction - giant) <= 4 * c * sol.error_bound


@given(balanced_dists())
@example(
    # Picard's ratio of its first two steps, 1.7e-6, is a fifth of the next
    # one; an error estimate from it alone stopped 1.0e-12 short
    BivariateDegreeDist.from_entries(
        [(n, k, w / 2**22) for n, k, w in [(0, 0, 4), (0, 1, 708870), (0, 2, 2), (1, 0, 708870),
                                           (1, 6, 1388278), (2, 0, 2), (6, 1, 1388278)]]
    )
)
def test_newton_matches_picard(d):
    m = d.moments()
    if abs(m.determinant) <= 0.05 * m.mu * m.mu:
        return  # near-critical band excluded, where Picard takes ~1/|D| steps
    picard_tol = 1e-12
    sol = interior_fixed_point(d)
    s_out, s_in = picard_fixed_point(d, tol=picard_tol)
    assert abs(sol.s_out - s_out) <= sol.error_bound + picard_tol
    assert abs(sol.s_in - s_in) <= sol.error_bound + picard_tol


@given(bivariate_dists())
def test_edge_following_terms_are_size_biased(d):
    # Following an edge forward consumes one in-degree: the term of (n, k)
    # has weight n u(n, k) and exponents (n - 1, k), for n >= 1 only; the
    # weights sum to mu_10.  Likewise backward with k, summing to mu_01.
    _u, along_in, along_out = gfsolver._terms(d)
    for (w, a, b), side, mean in ((along_in, 0, d.moment(1, 0)), (along_out, 1, d.moment(0, 1))):
        assert math.fsum(w.tolist()) == mean
        keys = [(x + (side == 0), y + (side == 1)) for x, y in zip(a.tolist(), b.tolist())]
        expected = {key: key[side] * p for key, p in d.entries.items() if key[side] >= 1}
        assert len(keys) == len(expected)
        assert dict(zip(keys, w.tolist())) == expected


@pytest.mark.parametrize("max_iter", [2.5, 3.0])
def test_iteration_budget_must_be_an_integer(max_iter):
    with pytest.raises(ValidationError, match=f"budget {max_iter} is not an integer"):
        interior_fixed_point(truncated_double_poisson(0.6), max_iter=max_iter)


@pytest.mark.parametrize("order", [2.5, math.nan])
def test_order_must_be_an_integer(fork_dist, order):
    with pytest.raises(ValidationError, match=f"order {order} is not an integer"):
        weak_size_distribution(fork_dist, order)


def test_order_must_be_positive(fork_dist):
    with pytest.raises(ValueError):
        weak_size_distribution(fork_dist, 0)


@given(balanced_dists())
@example(
    # every non-isolated vertex is in the giant: fraction 2**-20
    BivariateDegreeDist.from_entries(
        [(0, 0, 1.0 - 2.0**-20), (0, 3, 2.0**-21), (3, 0, 2.0**-21)]
    )
)
def test_fraction_sign_agrees_with_criterion(d):
    m = d.moments()
    if abs(m.determinant) <= 0.05 * m.mu * m.mu:
        return  # near-critical band excluded, slow and noisy
    frac = giant_weak_fraction(d)
    if m.giant_weak:
        assert frac > 0.0
    else:
        assert frac == 0.0


@given(balanced_dists())
def test_size_coefficients_are_a_subprobability(d):
    m = d.moments()
    if abs(m.determinant) <= 0.05 * m.mu * m.mu:
        return
    w = weak_size_distribution(d, 20)
    assert all(c >= 0.0 for c in w)
    assert sum(w) <= 1.0 + 1e-9


@pytest.mark.parametrize("lam", [0.3, 0.45, 0.6, 0.8])
def test_size_distribution_matches_borel(lam):
    # product-Poisson is undirected ER with mean degree 2*lam, whose finite
    # component size law is Borel in every phase
    w = weak_size_distribution(truncated_double_poisson(lam), 100)
    assert max(abs(a - b) for a, b in zip(w, borel_law(2 * lam, 100))) <= 1e-14


@pytest.mark.parametrize("c", [0.2, 0.3, 0.45])
def test_size_distribution_matches_atom22_lagrange(c):
    P = BoundDist.from_entries([(2, 2, 1.0)])
    d = evolution.marginal_degree_dist(evolution.degree_state_at_conversion(P, c))
    w = weak_size_distribution(d, 60)
    assert max(abs(a - b) for a, b in zip(w, atom22_size_law(c, 60))) <= 1e-14


@given(balanced_dists())
def test_size_distribution_matches_exact_picard(d):
    w = weak_size_distribution(d, 8)
    exact = exact_picard_size_law(d, 8)
    assert max(abs(a - float(b)) for a, b in zip(w, exact)) <= 1e-12


@given(st.integers(1, 8).flatmap(lambda order: st.tuples(st.just(order), symmetrized_dists(3 * order))))
@example(
    # the (24, 24) terms lie outside the box cut at the order
    (8, BivariateDegreeDist.from_entries([(0, 0, 0.5), (1, 2, 0.125), (2, 1, 0.125), (24, 24, 0.25)]))
)
def test_size_distribution_cut_at_the_order_matches_exact_picard(case):
    order, d = case
    w = weak_size_distribution(d, order)
    exact = exact_picard_size_law(d, order)
    assert max(abs(a - float(b)) for a, b in zip(w, exact)) <= 1e-12


def test_gf_solves_the_fixed_point_once(tmp_path, monkeypatch):
    calls = []
    solve = gfsolver.interior_fixed_point

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(gfsolver, "interior_fixed_point", counted)
    path = tmp_path / "d.txt"
    path.write_text(truncated_double_poisson(0.6).to_text())
    code, _, _ = run_cli(["gf", str(path), "--order", "5"])
    assert code == 0 and len(calls) == 1
