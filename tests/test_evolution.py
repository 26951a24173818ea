import functools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from helpers import (
    bound_dists,
    brute_moment,
    random_bound_dist,
    reference_marginal,
    reference_state_entries,
    rk4_mu,
)
from weakgiant import (
    BoundDist,
    ConversionOutOfRange,
    NegativeIndex,
    NegativeTime,
    NoReactivePair,
    ValidationError,
    barycentric_grid,
    conversion_sup,
    critical_conversion,
    degree_state_at,
    degree_state_at_conversion,
    marginal_degree_dist,
    mu_moments_at,
    mu_of_t,
    nu_moments,
    require_edge_balanced,
    time_of_conversion,
    transition_class,
)
from weakgiant.evolution import _FLOAT_COMB_MAX_M, _at_time, _is_symmetric

asym_pair = BoundDist.from_entries([(2, 1, 1.0)])  # nu10=2, nu01=1
dimers = BoundDist.from_entries([(1, 0, 0.5), (0, 1, 0.5)])


# --- bound tables -----------------------------------------------------------


def test_bound_dist_rejects_edgeless_tables():
    with pytest.raises(NoReactivePair):
        BoundDist.from_entries([(0, 3, 1.0)])  # out-capacity only
    with pytest.raises(NoReactivePair):
        BoundDist.from_entries([(3, 0, 1.0)])  # in-capacity only


def test_bound_dist_round_trip(three_class_bounds):
    text = "\n".join(f"{n} {k} {p}" for n, k, p in three_class_bounds.records())
    assert BoundDist.from_text(text).entries == three_class_bounds.entries


def test_nu_moments_three_class(three_class_bounds):
    nu = nu_moments(three_class_bounds)
    assert nu.nu10 == pytest.approx(25 / 3, abs=1e-12)
    assert nu.nu01 == pytest.approx(8.0, abs=1e-12)
    assert nu.nu20 == pytest.approx(75.0, abs=1e-12)
    assert nu.nu02 == pytest.approx(72.0, abs=1e-12)
    assert nu.nu11 == pytest.approx(190 / 3, abs=1e-12)


def test_nu_moments_atom(p22_bounds):
    nu = nu_moments(p22_bounds)
    assert (nu.nu10, nu.nu01, nu.nu20, nu.nu02, nu.nu11) == (2, 2, 4, 4, 4)


# --- mu(t) ------------------------------------------------------------------


def test_mu_starts_at_zero(p22_bounds, three_class_bounds):
    assert mu_of_t(p22_bounds, 0.0) == 0.0
    assert mu_of_t(three_class_bounds, 0.0) == 0.0


def test_mu_asymmetric_closed_form():
    assert mu_of_t(asym_pair, math.log(2)) == pytest.approx(2 / 3, abs=1e-14)


def test_mu_symmetric_closed_form(p22_bounds):
    # nu = 2: mu(1) = nu^2 t/(1 + nu t) = 4/3
    assert mu_of_t(p22_bounds, 1.0) == pytest.approx(4 / 3, abs=1e-14)


def test_mu_at_huge_finite_time_is_its_supremum(p22_bounds):
    # nu^2 t overflows, where the symmetric form would read inf / inf
    assert mu_of_t(p22_bounds, 1e308) == 2.0
    assert mu_of_t(asym_pair, 1e308) == min(nu_moments(asym_pair).nu01, nu_moments(asym_pair).nu10)


def test_mu_rejects_negative_time(p22_bounds):
    with pytest.raises(NegativeTime):
        mu_of_t(p22_bounds, -0.1)


def test_mu_rejects_infinite_time(p22_bounds):
    with pytest.raises(ValidationError):
        mu_of_t(p22_bounds, math.inf)


def test_mu_monotone_and_bounded(three_class_bounds):
    nu = nu_moments(three_class_bounds)
    values = [mu_of_t(three_class_bounds, t) for t in np.linspace(0.0, 50.0, 400)]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert values[-1] <= min(nu.nu01, nu.nu10)


def test_mu_matches_rk4_over_grid():
    rng = np.random.default_rng(7)
    nu10 = np.concatenate([rng.uniform(0.2, 9.0, 18), [2.0, 3.0]])
    nu01 = np.concatenate([rng.uniform(0.2, 9.0, 18), [2.0 + 1e-6, 3.0]])
    steps = 4000
    oracle = rk4_mu(nu10, nu01, 5.0, steps)
    ts = np.linspace(0.0, 5.0, steps + 1)
    for col, (b, a) in enumerate(zip(nu10, nu01)):
        P = _bounds_with_means(b, a)
        for row in range(0, steps + 1, 400):
            t = float(ts[row])
            closed = mu_of_t(P, t)
            ref = float(oracle[row, col])
            assert abs(closed - ref) <= 1e-8 * max(1.0, abs(ref))


def _bounds_with_means(nu10: float, nu01: float) -> BoundDist:
    """Two-atom table hitting arbitrary positive capacity means."""
    n_cap, k_cap = 10, 10
    assert 0 < nu10 < n_cap and 0 < nu01 < k_cap
    p = nu10 / n_cap
    q = nu01 / k_cap
    # independent mixture: (n_cap, k_cap) wp pq, (n_cap, 0) wp p(1-q), ...
    entries = [
        (n_cap, k_cap, p * q),
        (n_cap, 0, p * (1 - q)),
        (0, k_cap, (1 - p) * q),
        (0, 0, (1 - p) * (1 - q)),
    ]
    return BoundDist.from_entries([(n, k, w) for n, k, w in entries if w > 0])


def test_symmetric_branch_is_continuous():
    # closed forms on either side of the switch agree where they meet
    base = _bounds_with_means(3.0, 3.0)
    near = _bounds_with_means(3.0, 3.0 + 1e-9)
    for t in (0.1, 1.0, 4.0):
        assert mu_of_t(base, t) == pytest.approx(mu_of_t(near, t), rel=1e-7)


# --- conversions ------------------------------------------------------------


def test_conversions_at_zero(three_class_bounds):
    assert _at_time(three_class_bounds, 0.0)[1:] == (0.0, 0.0)


def test_conversions_asymmetric():
    c_n, c_k = _at_time(asym_pair, math.log(2))[1:]
    assert c_n == pytest.approx(1 / 3, abs=1e-14)
    assert c_k == pytest.approx(2 / 3, abs=1e-14)


def test_conversions_symmetric_are_equal(p22_bounds):
    for t in (0.3, 1.0, 2.5):
        c_n, c_k = _at_time(p22_bounds, t)[1:]
        assert c_n == c_k


def test_conversion_sup_examples(three_class_bounds, p22_bounds):
    sup_n, sup_k = conversion_sup(three_class_bounds)
    assert sup_n == pytest.approx(0.96, abs=1e-12)
    assert sup_k == 1.0
    assert conversion_sup(p22_bounds) == (1.0, 1.0)
    assert conversion_sup(asym_pair) == (0.5, 1.0)


# --- degree state -----------------------------------------------------------


def test_state_at_time_zero_is_origin_atom(three_class_bounds):
    state = degree_state_at(three_class_bounds, 0.0)
    want = reference_marginal(reference_state_entries(three_class_bounds, 0.0, 0.0))
    assert want.entries == {(0, 0): 1.0}
    assert state.entries == want.entries
    assert marginal_degree_dist(state).entries == want.entries


def test_state_half_converted_unit_atom():
    P = BoundDist.from_entries([(1, 1, 1.0)])
    state = degree_state_at_conversion(P, 0.5)
    marg = marginal_degree_dist(state)
    for key in [(0, 0), (1, 0), (0, 1), (1, 1)]:
        assert marg.entries[key] == pytest.approx(0.25, abs=1e-15)


def test_state_probability_is_conserved(three_class_bounds):
    capacities = [(nm, km) for nm, km, _p in three_class_bounds.records()]
    for t in (0.01, 0.1, 1.0, 10.0):
        state = degree_state_at(three_class_bounds, t)
        assert math.fsum(state.entries.values()) == pytest.approx(1.0, abs=1e-9)
        for (n, k), p in state.entries.items():
            assert any(0 <= n <= nm and 0 <= k <= km for nm, km in capacities) and p > 0
        want = reference_marginal(reference_state_entries(three_class_bounds, state.c_n, state.c_k))
        assert state.entries == want.entries


def test_marginal_is_edge_balanced(three_class_bounds):
    for t in (0.05, 0.5, 2.0):
        marg = marginal_degree_dist(degree_state_at(three_class_bounds, t))
        mu = mu_of_t(three_class_bounds, t)
        assert marg.moment(1, 0) == pytest.approx(mu, abs=1e-10)
        assert marg.moment(0, 1) == pytest.approx(mu, abs=1e-10)


def test_state_carries_its_instant(three_class_bounds):
    P = three_class_bounds
    state = degree_state_at(P, 0.1)
    assert (state.t, state.mu) == (0.1, mu_of_t(P, 0.1))
    assert (state.c_n, state.c_k) == _at_time(P, 0.1)[1:]
    state = degree_state_at_conversion(P, 0.2)
    assert state.t == time_of_conversion(P, 0.2)
    assert (state.mu, state.c_n) == (0.2 * nu_moments(P).nu10, 0.2)
    assert state.c_k == 0.2 * nu_moments(P).nu10 / nu_moments(P).nu01


def test_state_at_conversion_rejects_unreachable(three_class_bounds):
    with pytest.raises(ConversionOutOfRange):
        degree_state_at_conversion(three_class_bounds, 0.97)


def test_state_at_supremum_has_infinite_time(p22_bounds):
    state = degree_state_at_conversion(p22_bounds, 1.0)
    assert state.t == math.inf
    assert marginal_degree_dist(state).entries == {(2, 2): 1.0}


@given(bound_dists())
@example(BoundDist.from_entries([(1, 1, 0.083), (3, 0, 0.173), (3, 2, 0.716), (5, 6, 0.028)]))
@example(BoundDist.from_entries([(5, 0, 0.1), (5, 4, 0.9)]))
@example(BoundDist.from_entries([(1, 4, 0.3), (5, 1, 0.7)]))
@example(BoundDist.from_entries([(1, 1, 0.03), (0, 0, 0.97)]))
def test_state_at_the_supremum_is_exact(P):
    # at the conversion supremum, and at a time where mu(t) has saturated,
    # the state is the supremum itself: recomputing c_k from c_n, or the
    # closed forms' ab / max(a, b), can land an ulp off, and c_k just
    # below 1 keeps cells down to 1e-99.  Near-symmetric unequal rates
    # read mu at their mean, by design.
    nu = nu_moments(P)
    assume(nu.nu01 == nu.nu10 or not _is_symmetric(nu.nu01, nu.nu10))
    sup = conversion_sup(P)
    for state in (degree_state_at_conversion(P, sup[0]), degree_state_at(P, 1e308)):
        assert (state.c_n, state.c_k) == sup
        assert state.mu == min(nu.nu01, nu.nu10)


@given(bound_dists(), st.integers(0, 2**20))
def test_mu_moments_closed_forms(P, numer):
    sup_cn, _ = conversion_sup(P)
    c_n = (numer / 2**20) * sup_cn
    mu20, mu02, mu11 = mu_moments_at(P, c_n)
    marg = marginal_degree_dist(degree_state_at_conversion(P, c_n))
    assert mu20 == pytest.approx(brute_moment(marg.entries, 2, 0), abs=1e-10)
    assert mu02 == pytest.approx(brute_moment(marg.entries, 0, 2), abs=1e-10)
    assert mu11 == pytest.approx(brute_moment(marg.entries, 1, 1), abs=1e-10)


def test_mu_moments_endpoints(p22_bounds, three_class_bounds):
    assert mu_moments_at(three_class_bounds, 0.0) == (0.0, 0.0, 0.0)
    assert mu_moments_at(p22_bounds, 1.0) == pytest.approx((4.0, 4.0, 4.0), abs=1e-12)
    with pytest.raises(ConversionOutOfRange):
        mu_moments_at(p22_bounds, 1.5)


# --- critical conversion and time -------------------------------------------


def test_critical_conversion_atom22(p22_bounds):
    c_n, c_k = critical_conversion(p22_bounds)
    assert abs(c_n - 1 / 3) <= 1e-12
    assert abs(c_k - 1 / 3) <= 1e-12


def test_critical_conversion_three_class(three_class_bounds):
    c_n, c_k = critical_conversion(three_class_bounds)
    expected = 8.0 / (190 / 3 + math.sqrt(64 * 200 / 3))
    assert c_n == pytest.approx(expected, rel=1e-12)
    assert c_n == pytest.approx(0.0622, abs=5e-5)


def test_critical_conversion_flory_stoichiometric():
    P = BoundDist.from_entries([(0, 2, 0.6), (3, 0, 0.4)])
    c_n, _ = critical_conversion(P)
    assert c_n == pytest.approx(1 / math.sqrt(2), abs=1e-12)


def test_critical_conversion_none_for_dimers():
    assert critical_conversion(dimers) is None


@st.composite
def huge_capacity_bounds(draw):
    """One to four classes with capacities up to 2^40, some from 2^31.5 up,
    where ``_Table.moment`` sums Python ints, and weights that round."""
    capacity = st.one_of(st.integers(0, 8), st.integers(0, 2**40), st.integers(3037000500, 2**40))
    keys = draw(
        st.lists(st.tuples(capacity, capacity), min_size=1, max_size=4, unique=True).filter(
            lambda ks: any(nm > 0 for nm, _ in ks) and any(km > 0 for _, km in ks)
        )
    )
    weights = draw(st.lists(st.integers(1, 2**10), min_size=len(keys), max_size=len(keys)))
    probs = [w / sum(weights) for w in weights]
    probs[-1] = 1.0 - math.fsum(probs[:-1])
    return BoundDist.from_entries([(nm, km, p) for (nm, km), p in zip(keys, probs)], tol=1e-12)


@given(huge_capacity_bounds())
@example(BoundDist.from_entries([(2**40, 3037000500, 0.3), (3, 0, 0.7)]))
def test_capacity_second_moments_never_fall_below_first(P):
    # so the radicand of critical_conversion is never negative
    nu = nu_moments(P)
    assert nu.nu20 >= nu.nu10 and nu.nu02 >= nu.nu01
    crit = critical_conversion(P)
    assert crit is None or all(0.0 < c < math.inf for c in crit)


def test_determinant_vanishes_at_critical_conversion(three_class_bounds):
    # bisect the sign change of D along the conversion path
    c_star, _ = critical_conversion(three_class_bounds)

    def D(c):
        marg = marginal_degree_dist(degree_state_at_conversion(three_class_bounds, c))
        require_edge_balanced(marg, 1e-8)
        return marg.moments().determinant

    lo, hi = 1e-6, 0.5
    assert D(lo) > 0 > D(hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if D(mid) > 0:
            lo = mid
        else:
            hi = mid
    assert abs(0.5 * (lo + hi) - c_star) <= 1e-8


def test_time_of_conversion_examples(p22_bounds):
    assert time_of_conversion(p22_bounds, 0.0) == 0.0
    assert time_of_conversion(asym_pair, 1 / 3) == pytest.approx(math.log(2), abs=1e-12)
    assert time_of_conversion(p22_bounds, 1 / 3) == pytest.approx(0.25, abs=1e-12)


def test_time_of_conversion_just_below_supremum():
    # c_n * nu10 rounds to nu01 here, one ulp below the supremum nu01 / nu10
    P = BoundDist.from_entries([(0, 0, 0.14285714285714285), (8, 5, 0.8571428571428572)])
    sup_cn, _ = conversion_sup(P)
    c_n = 0.9999999999999998 * sup_cn
    t = time_of_conversion(P, c_n)
    assert math.isfinite(t) and t > time_of_conversion(P, 0.999 * sup_cn)
    assert degree_state_at_conversion(P, c_n).c_n == c_n


def test_time_of_conversion_rejects_supremum(p22_bounds, three_class_bounds):
    with pytest.raises(ConversionOutOfRange):
        time_of_conversion(p22_bounds, 1.0)
    sup_cn, _ = conversion_sup(three_class_bounds)
    with pytest.raises(ConversionOutOfRange):
        time_of_conversion(three_class_bounds, sup_cn)
    with pytest.raises(ConversionOutOfRange):
        time_of_conversion(three_class_bounds, 0.97)
    with pytest.raises(ConversionOutOfRange):
        time_of_conversion(p22_bounds, -0.1)


@pytest.mark.parametrize("path", [degree_state_at_conversion, mu_moments_at, time_of_conversion])
def test_nan_conversion_is_invalid_input(p22_bounds, path):
    with pytest.raises(ValidationError, match="c_n = nan is not a number"):
        path(p22_bounds, math.nan)


@given(bound_dists(), st.integers(0, 2**20 - 1))
def test_conversion_time_round_trip(P, numer):
    sup_cn, _ = conversion_sup(P)
    c_n = (numer / 2**20) * sup_cn * 0.999  # stay clear of the supremum
    t = time_of_conversion(P, c_n)
    back, _ = _at_time(P, t)[1:]
    assert back == pytest.approx(c_n, abs=1e-10)


@given(bound_dists())
def test_conversions_nondecreasing_in_time(P):
    ts = [0.0, 0.1, 0.5, 1.0, 3.0, 10.0]
    values = [_at_time(P, t)[1:] for t in ts]
    for (a_n, a_k), (b_n, b_k) in zip(values, values[1:]):
        assert b_n >= a_n - 1e-15 and b_k >= a_k - 1e-15


# --- transition classification ----------------------------------------------


def test_transition_class_atom22(p22_bounds):
    tc = transition_class(p22_bounds)
    assert tc.kind == "finite"
    assert abs(tc.c_n_crit - 1 / 3) <= 1e-12
    assert abs(tc.c_k_crit - 1 / 3) <= 1e-12
    assert abs(tc.t_crit - 0.25) <= 1e-12


def test_transition_class_three_class(three_class_bounds):
    tc = transition_class(three_class_bounds)
    assert tc.kind == "finite"
    assert tc.c_n_crit == pytest.approx(0.0622, abs=5e-5)
    assert tc.t_crit == pytest.approx(
        time_of_conversion(three_class_bounds, tc.c_n_crit), abs=1e-15
    )


def test_transition_class_dimers_never():
    assert transition_class(dimers).kind == "never"


def test_transition_class_asymptotic_boundary():
    # all-Bernoulli capacities with full pairing: c_crit = sup exactly
    P = BoundDist.from_entries([(1, 1, 1.0)])
    tc = transition_class(P)
    assert tc.kind == "asymptotic"


def test_classifier_consistency_random_tables():
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(250):
        P = random_bound_dist(rng)
        tc = transition_class(P)
        crit = critical_conversion(P)
        sup_cn, _ = conversion_sup(P)
        if crit is not None and abs(crit[0] - sup_cn) <= 1e-9:
            continue  # boundary band, classified separately
        finite_expected = crit is not None and crit[0] < sup_cn - 1e-10
        assert (tc.kind == "finite") == finite_expected
        if tc.kind == "finite":
            assert 0 < tc.c_n_crit < sup_cn
            assert tc.t_crit == time_of_conversion(P, tc.c_n_crit)
        checked += 1
    assert checked >= 200


# --- barycentric grids ------------------------------------------------------


def test_barycentric_identical_atoms_all_finite():
    points = barycentric_grid([(2, 2), (2, 2), (2, 2)], 10)
    assert len(points) == 66
    for pt in points:
        assert pt.transition.kind == "finite"
        assert abs(pt.transition.c_n_crit - 1 / 3) <= 1e-12


def test_barycentric_vertices_of_single_species_system():
    points = barycentric_grid([(1, 0), (0, 1), (3, 0)], 50)
    assert len(points) == 52 * 51 // 2
    by_weights = {(pt.f1, pt.f2, pt.f3): pt for pt in points}
    for vertex in [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]:
        assert by_weights[vertex].transition.kind == "never"
    # single-group B units terminate every chain: no interior point can gel
    centroid = min(
        points, key=lambda pt: (pt.f1 - 1 / 3) ** 2 + (pt.f2 - 1 / 3) ** 2
    )
    assert centroid.transition.kind == "never"


def test_barycentric_matches_pointwise_classifier():
    atoms = [(2, 2), (1, 0), (0, 1)]
    for pt in barycentric_grid(atoms, 8):
        mix: dict[tuple[int, int], float] = {}
        for atom, w in zip(atoms, (pt.f1, pt.f2, pt.f3)):
            if w > 0:
                mix[atom] = mix.get(atom, 0.0) + w
        nu10 = sum(nm * p for (nm, _km), p in mix.items())
        nu01 = sum(km * p for (_nm, km), p in mix.items())
        if nu10 == 0 or nu01 == 0:
            assert pt.transition.kind == "never"
        else:
            expected = transition_class(BoundDist.from_entries([(n, k, p) for (n, k), p in mix.items()]))
            assert pt.transition.kind == expected.kind


def test_barycentric_grid_order_is_row_major():
    points = barycentric_grid([(2, 2), (1, 0), (0, 1)], 2)
    weights = [(pt.f1, pt.f2, pt.f3) for pt in points]
    assert weights == [
        (0.0, 0.0, 1.0),
        (0.0, 0.5, 0.5),
        (0.0, 1.0, 0.0),
        (0.5, 0.0, 0.5),
        (0.5, 0.5, 0.0),
        (1.0, 0.0, 0.0),
    ]


@pytest.mark.parametrize("resolution", [2.5, math.nan])
def test_barycentric_resolution_must_be_an_integer(resolution):
    with pytest.raises(ValidationError, match=f"resolution {resolution} is not an integer"):
        barycentric_grid([(1, 0), (0, 1), (2, 2)], resolution)


def test_barycentric_rejects_bad_input():
    with pytest.raises(ValidationError):
        barycentric_grid([(2, 2), (2, 2), (2, 2)], 1)
    with pytest.raises(ValidationError):
        barycentric_grid([(2, 2), (2, 2)], 10)
    with pytest.raises(NegativeIndex):
        barycentric_grid([(2, -2), (2, 2), (2, 2)], 10)


# --- growth state against the per-cell reference ------------------------------


@st.composite
def shared_cell_bounds(draw):
    """Two to four capacity classes, all sharing the low (n, k) cells; some
    tables add a class of capacity 60-80, whose pmf underflows to 0 at small
    conversions."""
    keys = draw(
        st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), min_size=2, max_size=4, unique=True).filter(
            lambda ks: any(nm > 0 for nm, _ in ks) and any(km > 0 for _, km in ks)
        )
    )
    if draw(st.booleans()):
        keys.append((draw(st.integers(60, 80)), draw(st.integers(60, 80))))
    weights = draw(st.lists(st.integers(1, 2**10), min_size=len(keys), max_size=len(keys)))
    probs = [w / sum(weights) for w in weights]
    probs[-1] = 1.0 - math.fsum(probs[:-1])
    return BoundDist.from_entries([(nm, km, p) for (nm, km), p in zip(keys, probs)], tol=1e-12)


@given(shared_cell_bounds(), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
def test_state_and_marginal_match_cell_reference(P, u):
    sup_cn, _ = conversion_sup(P)
    for c_n in (0.0, 1e-9, u * sup_cn, sup_cn):
        state = degree_state_at_conversion(P, c_n)
        want = reference_marginal(reference_state_entries(P, state.c_n, state.c_k))
        assert list(state.entries.items()) == list(want.entries.items())
        assert len(state.support) == 3
        assert all(g.tobytes() == w.tobytes() for g, w in zip(state.support, want.support))
        marginal = marginal_degree_dist(state)
        assert list(marginal.entries.items()) == list(want.entries.items())
        assert all(g.tobytes() == w.tobytes() for g, w in zip(marginal.support, want.support))


def test_state_at_time_matches_cell_reference(three_class_bounds):
    state = degree_state_at(three_class_bounds, 0.1)
    want = reference_marginal(reference_state_entries(three_class_bounds, state.c_n, state.c_k))
    assert state.entries == want.entries


@functools.cache
def _exact_half_pmf(m: int) -> np.ndarray:
    """``float(Fraction(comb(m, j), 2**m))`` for j = 0..m; int / int rounds
    correctly too."""
    pmf, comb, den = [], 1, 1 << m
    for j in range(m + 1):
        pmf.append(comb / den)
        comb = comb * (m - j) // (j + 1)
    return np.array(pmf)


def test_float_comb_bound_is_the_last_capacity_whose_binomials_convert():
    float(math.comb(_FLOAT_COMB_MAX_M, _FLOAT_COMB_MAX_M // 2))
    with pytest.raises(OverflowError):
        float(math.comb(_FLOAT_COMB_MAX_M + 1, (_FLOAT_COMB_MAX_M + 1) // 2))


@pytest.mark.parametrize(
    "rows", [[(1030, 1030, 1.0)], [(100000, 0, 0.5), (0, 100000, 0.5)]], ids=["1030", "lopsided"]
)
def test_state_beyond_float_binomials_matches_exact(rows):
    P = BoundDist.from_entries(rows)
    state = degree_state_at_conversion(P, 0.5)
    assert (state.c_n, state.c_k) == (0.5, 0.5)
    n, k, probs = marginal_degree_dist(state).support
    classes = P.records()
    for nm, km, p in classes:
        inside = (n <= nm) & (k <= km)
        got = np.zeros((nm + 1, km + 1))
        got[n[inside], k[inside]] = probs[inside]
        want = p * np.multiply.outer(_exact_half_pmf(nm), _exact_half_pmf(km))
        # only the cells that no other class reaches hold this class alone
        i, j = np.indices(want.shape)
        alone = np.ones(want.shape, dtype=bool)
        for other_nm, other_km, _p in classes:
            if (other_nm, other_km) != (nm, km):
                alone &= (i > other_nm) | (j > other_km)
        big = alone & (want > 1e-300)
        assert big.any()
        assert np.all(np.abs(got[big] - want[big]) <= 1e-10 * want[big])
    for c_n, cell in ((0.0, lambda nm, km: (0, 0)), (1.0, lambda nm, km: (nm, km))):
        want = reference_marginal({(*cell(nm, km), nm, km): p for nm, km, p in classes})
        assert degree_state_at_conversion(P, c_n).entries == want.entries
