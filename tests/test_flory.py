import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from helpers import DYADIC_SCALE
from weakgiant import (
    DegenerateMixture,
    FloryMixture,
    FloryParameters,
    NoReactivePair,
    ValidationError,
    alpha_of,
    conversion_sup,
    critical_conversion,
    flory_parameters,
    gel_conversion,
    gel_point_pa,
    is_gelled,
    kmc_simulate,
    largest_weak_fraction,
    nu_moments,
    to_bound_dist,
    transition_class,
)


def test_mixture_validation():
    with pytest.raises(ValidationError):
        FloryMixture(0.5, 0.6, -0.1, 3)
    with pytest.raises(ValidationError):
        FloryMixture(0.5, 0.3, 0.1, 3)  # sums to 0.9
    with pytest.raises(ValidationError):
        FloryMixture(0.0, 0.6, 0.4, 1)
    with pytest.raises(ValidationError):
        FloryMixture(math.nan, 0.5, 0.5, 3)
    for n in (2.5, math.nan):
        with pytest.raises(ValidationError, match="is not an integer"):
            FloryMixture(0.5, 0.3, 0.2, n)


def test_to_bound_dist(flory_063):
    P = to_bound_dist(flory_063)
    assert P.entries == {(0, 2): 0.6, (3, 0): 0.4}


def test_to_bound_dist_linear_only():
    P = to_bound_dist(FloryMixture(0.5, 0.5, 0.0, 3))
    assert P.entries == {(2, 0): 0.5, (0, 2): 0.5}


def test_to_bound_dist_merges_n2_branch_into_linear_atom():
    P = to_bound_dist(FloryMixture(0.3, 0.5, 0.2, 2))
    assert P.entries == {(2, 0): 0.5, (0, 2): 0.5}


def test_to_bound_dist_rejects_single_species():
    with pytest.raises(NoReactivePair):
        to_bound_dist(FloryMixture(1.0, 0.0, 0.0, 3))
    with pytest.raises(NoReactivePair):
        to_bound_dist(FloryMixture(0.0, 1.0, 0.0, 3))


def test_capacity_moments_of_mapped_mixture(flory_063):
    nu = nu_moments(to_bound_dist(flory_063))
    assert nu.nu10 == pytest.approx(1.2, abs=1e-12)
    assert nu.nu01 == pytest.approx(1.2, abs=1e-12)
    assert nu.nu20 == pytest.approx(3.6, abs=1e-12)
    assert nu.nu02 == pytest.approx(2.4, abs=1e-12)
    assert nu.nu11 == 0.0


def test_parameters_stoichiometric(flory_063):
    params = flory_parameters(flory_063)
    assert params.alpha_c == 0.5
    assert params.rho == pytest.approx(1.0, abs=1e-12)
    assert params.r == pytest.approx(1.0, abs=1e-12)


def test_parameters_general_mixture():
    params = flory_parameters(FloryMixture(0.4, 0.5, 0.1, 3))
    assert params.alpha_c == 0.5
    assert params.rho == pytest.approx(0.3 / 1.1, rel=1e-12)
    assert params.r == pytest.approx(1.1, rel=1e-12)


def test_parameters_linear_functionality():
    assert flory_parameters(FloryMixture(0.5, 0.5, 0.0, 2)).alpha_c == 1.0


def test_parameters_degenerate():
    with pytest.raises(DegenerateMixture):
        flory_parameters(FloryMixture(0.0, 1.0, 0.0, 3))  # no A-groups
    with pytest.raises(DegenerateMixture):
        flory_parameters(FloryMixture(0.6, 0.0, 0.4, 3))  # no B-groups


@pytest.mark.parametrize(
    "mix, missing",
    [(FloryMixture(0.0, 1.0, 0.0, 3), "A-groups"), (FloryMixture(0.6, 0.0, 0.4, 3), "B-groups")],
)
def test_gel_conversion_degenerate(mix, missing):
    with pytest.raises(DegenerateMixture, match=f"no {missing}"):
        gel_conversion(mix)


def test_gel_conversion_stoichiometric(flory_063):
    assert gel_conversion(flory_063) == pytest.approx(1 / math.sqrt(2), abs=1e-12)


def test_gel_conversion_linear_chains_never_gel():
    assert gel_conversion(FloryMixture(0.5, 0.5, 0.0, 3)) is None
    assert gel_conversion(FloryMixture(0.0, 0.5, 0.5, 2)) is None


def test_gel_point_pa(flory_063):
    p_a, p_b = gel_point_pa(flory_parameters(flory_063))
    assert p_a == pytest.approx(1 / math.sqrt(2), abs=1e-12)
    assert p_b == pytest.approx(1 / math.sqrt(2), abs=1e-12)


def test_gel_point_pa_collapses_when_all_branches():
    # rho = 1, r = 1: threshold reduces to sqrt(alpha_c)
    params = FloryParameters(alpha_c=0.3, rho=1.0, r=1.0)
    p_a, p_b = gel_point_pa(params)
    assert p_a == pytest.approx(math.sqrt(0.3), abs=1e-15)
    assert p_b == p_a


@given(
    st.floats(0.05, 1.0),
    st.floats(0.0, 1.0),
    st.floats(0.2, 5.0),
)
def test_pb_over_pa_is_r(alpha_c, rho, r):
    p_a, p_b = gel_point_pa(FloryParameters(alpha_c, rho, r))
    assert p_b == r * p_a


def test_alpha_of_examples(flory_063):
    params = flory_parameters(flory_063)
    assert alpha_of(0.0, params) == 0.0
    assert alpha_of(0.8, params) == pytest.approx(0.64, rel=1e-12)
    assert is_gelled(0.8, params)
    assert not is_gelled(0.0, params)


def test_gel_boundary_is_strict(flory_063):
    params = flory_parameters(flory_063)
    p_crit, _ = gel_point_pa(params)
    assert alpha_of(p_crit, params) == pytest.approx(params.alpha_c, abs=1e-12)
    assert not is_gelled(p_crit * (1 - 1e-9), params)
    assert is_gelled(p_crit * (1 + 1e-9), params)


@given(st.floats(0.0, 1.0))
def test_alpha_via_pa_and_pb_agree(p_a):
    params = flory_parameters(FloryMixture(0.4, 0.5, 0.1, 3))
    p_b = params.r * p_a
    via_b = p_b * p_b * (params.alpha_c + params.rho - params.alpha_c * params.rho) / params.r
    assert alpha_of(p_a, params) == pytest.approx(via_b, rel=1e-12, abs=1e-15)


# --- reduction to the growth-process threshold -------------------------------


@st.composite
def simplex_mixtures(draw):
    a = draw(st.integers(0, DYADIC_SCALE))
    b = draw(st.integers(0, DYADIC_SCALE - a))
    f1 = a / DYADIC_SCALE
    f2 = b / DYADIC_SCALE
    f3 = 1.0 - f1 - f2
    n = draw(st.integers(2, 6))
    return FloryMixture(f1, f2, f3, n)


@given(simplex_mixtures())
@example(FloryMixture(0.30000000000000293, 0.599999999999996, 0.10000000000000099, 3))  # gel point in the band below 1
def test_gel_conversion_equals_process_threshold(mix):
    try:
        P = to_bound_dist(mix)
        c_gel = gel_conversion(mix)
    except (NoReactivePair, DegenerateMixture):
        return
    crit = critical_conversion(P)
    sup_cn, _ = conversion_sup(P)
    if c_gel is None:
        # unreachable gel point: the process threshold sits at or past sup
        assert crit is None or crit[0] >= sup_cn - 1e-12
    else:
        assert crit is not None
        assert abs(c_gel - crit[0]) <= 1e-12
        assert transition_class(P).kind == "finite"


def test_reduction_identity_on_random_simplex_points():
    rng = np.random.default_rng(77)
    checked = 0
    while checked < 120:
        f = rng.dirichlet([1.0, 1.0, 1.0])
        mix = FloryMixture(float(f[0]), float(f[1]), float(f[2]), int(rng.integers(2, 7)))
        try:
            P = to_bound_dist(mix)
            c_gel = gel_conversion(mix)
        except (NoReactivePair, DegenerateMixture):
            continue
        crit = critical_conversion(P)
        sup_cn, _ = conversion_sup(P)
        if c_gel is None:
            assert crit is None or crit[0] >= sup_cn - 1e-12
        else:
            assert abs(c_gel - crit[0]) <= 1e-12
        checked += 1


def test_gel_point_agrees_with_simulation(flory_063):
    P = to_bound_dist(flory_063)
    n = 10**5
    below = kmc_simulate(P, n, 4001, c_n_target=0.6)
    assert largest_weak_fraction(below.graph) < 0.01
    above = kmc_simulate(P, n, 4002, c_n_target=0.8)
    assert largest_weak_fraction(above.graph) > 0.05
