import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import balanced_dists, run_cli, total_degree_law, truncated_double_poisson
from weakgiant import (
    BivariateDegreeDist,
    EdgeImbalance,
    Supercritical,
    criteria_report,
    giant_weak_fraction,
    interior_fixed_point,
    largest_weak_fraction,
    mean_weak_component_size,
    replica_rng,
    sample_configuration,
    weak_component_sizes,
    weak_size_distribution,
)


def test_determinant_fork(fork_dist):
    assert fork_dist.moments().determinant == pytest.approx(4 / 9, abs=1e-15)


def test_determinant_atom22(atom22):
    # (2-4)^2 - (4-2)(4-2) = 0, exactly
    assert atom22.moments().determinant == 0.0


def test_determinant_double_poisson():
    lam = 0.25
    d = truncated_double_poisson(lam)
    assert d.moments().determinant == pytest.approx(lam * lam * (1 - 2 * lam), abs=1e-12)


@given(st.floats(1e-9, 0.5, exclude_max=True))
def test_exactly_critical_law_has_no_giant(b):
    # D = (2b)^2 - (2b)^2 = 0 in exact arithmetic on any float entries, while
    # its float reads either sign; D within its rounding bound counts as 0
    d = BivariateDegreeDist.from_entries([(1, 1, 1 - 2 * b), (2, 0, b), (0, 2, b)])
    report = criteria_report(d)
    assert report.determinant_D == d.moments().determinant
    assert not report.giant_weak
    assert report.mean_weak_size is None and report.giant_weak_fraction is None
    assert interior_fixed_point(d).giant_fraction == 0.0


def test_determinant_just_off_criticality_keeps_its_sign():
    # |D| = 5e-14 against a rounding bound of 7.6e-15
    below, above = (truncated_double_poisson(0.5 + s * 1e-13) for s in (-1, 1))
    assert below.moments().resolved_determinant > 0 and not criteria_report(below).giant_weak
    assert above.moments().resolved_determinant < 0 and criteria_report(above).giant_weak
    assert criteria_report(below).mean_weak_size > 1e12
    assert criteria_report(above).giant_weak_fraction > 0


SOURCES = "1 0 1.0\n"  # mean in-degree 1, mean out-degree 0
IMBALANCE = "mean in-degree 1.0 != mean out-degree 0.0 beyond tolerance 1e-09"

# A degree table is checked for balance when it is read, so each library
# entry point is refused there, before it runs, with the text the CLI prints.
IMBALANCE_CASES = {
    "criteria_report": criteria_report,
    "mean_weak_component_size": mean_weak_component_size,
    "interior_fixed_point": interior_fixed_point,
    "giant_weak_fraction": giant_weak_fraction,
    "weak_size_distribution": lambda d: weak_size_distribution(d, 5),
    "cli analyze": ["analyze"],
    "cli gf": ["gf"],
    "cli simulate config": ["simulate", "--mode", "config", "--vertices", "100"],
}


@pytest.mark.parametrize("case", IMBALANCE_CASES.values(), ids=IMBALANCE_CASES)
def test_edge_imbalance_is_refused(case, tmp_path):
    if callable(case):
        with pytest.raises(EdgeImbalance) as info:
            case(BivariateDegreeDist.from_text(SOURCES))
        assert str(info.value) == IMBALANCE
        return
    path = tmp_path / "d.txt"
    path.write_text(SOURCES)
    code, out, err = run_cli([case[0], str(path), *case[1:]])
    assert (code, out, err) == (3, "", f"weakgiant: invalid input: {IMBALANCE}\n")


def test_has_giant_weak(fork_dist, atom22, atom11):
    assert not fork_dist.moments().giant_weak
    # D = 0 boundary, but mu11 - mu = 2 > 0 forces the giant component
    assert atom22.moments().giant_weak
    # D = 0 and mu11 - mu = 0: union of cycles, no giant by the criterion
    assert not atom11.moments().giant_weak


def test_has_giant_in_out(fork_dist, atom22, atom11):
    assert atom22.moments().giant_in_out
    assert not fork_dist.moments().giant_in_out
    assert not atom11.moments().giant_in_out


def test_has_giant_undirected_projection(fork_dist, atom22, origin_atom):
    assert not fork_dist.moments().giant_undirected_projection
    assert atom22.moments().giant_undirected_projection
    assert not origin_atom.moments().giant_undirected_projection


def test_mean_weak_size_fork(fork_dist):
    assert mean_weak_component_size(fork_dist) == pytest.approx(3.0, abs=1e-9)


def test_mean_weak_size_double_poisson():
    # classical subcritical mean 1 + 2*lam/(1 - 2*lam) = 2 at lam = 1/4
    d = truncated_double_poisson(0.25)
    assert mean_weak_component_size(d) == pytest.approx(2.0, abs=1e-9)


def test_mean_weak_size_origin(origin_atom):
    assert mean_weak_component_size(origin_atom) == 1.0


def test_mean_weak_size_supercritical(atom22):
    with pytest.raises(Supercritical):
        mean_weak_component_size(atom22)


def test_report_fork(fork_dist):
    r = criteria_report(fork_dist)
    assert r.determinant_D == pytest.approx(4 / 9, abs=1e-15)
    assert r.paper_A == -r.determinant_D
    assert not r.giant_weak and not r.giant_in_out
    assert r.mean_weak_size == pytest.approx(3.0, abs=1e-9)
    assert r.giant_weak_fraction is None


def test_report_atom22(atom22):
    r = criteria_report(atom22)
    assert r.determinant_D == 0.0
    assert r.giant_weak and r.giant_in_out
    assert r.mean_weak_size is None
    assert r.giant_weak_fraction == pytest.approx(1.0, abs=1e-9)


def test_report_origin(origin_atom):
    r = criteria_report(origin_atom)
    assert not r.giant_weak and not r.giant_in_out and not r.giant_undirected_projection
    assert r.mean_weak_size == 1.0
    assert r.giant_weak_fraction is None


def test_report_json_shape(fork_dist):
    d = criteria_report(fork_dist).to_json_dict()
    assert set(d) == {
        "moments",
        "determinant_D",
        "paper_A",
        "giant_weak",
        "giant_in_out",
        "giant_undirected_projection",
        "mean_weak_size",
        "giant_weak_fraction",
    }
    assert set(d["moments"]) == {"mu00", "mu10", "mu01", "mu20", "mu02", "mu11"}


# --- algebraic properties --------------------------------------------------


@given(balanced_dists())
def test_paper_A_is_exact_negation(d):
    r = criteria_report(d)
    assert r.paper_A + r.determinant_D == 0.0


@given(balanced_dists())
def test_in_out_implies_weak(d):
    if d.moments().giant_in_out:
        assert d.moments().giant_weak


@given(balanced_dists())
def test_molloy_reed_agreement(d):
    # both sides evaluate the same dyadic rational, so the booleans must
    # agree exactly, not just within tolerance
    law = total_degree_law(d)
    mu1, mu2 = (math.fsum(l**i * p for l, p in law.items()) for i in (1, 2))
    assert d.moments().giant_undirected_projection == (mu2 - 2 * mu1 > 0.0)


@given(balanced_dists())
def test_mean_is_at_least_one_when_defined(d):
    D = d.moments().determinant
    if D > 0:
        assert mean_weak_component_size(d) >= 1.0 - 1e-12


# --- Monte Carlo cross-checks ----------------------------------------------


def test_sign_of_D_predicts_simulation():
    n = 10**5
    sub = truncated_double_poisson(0.25)
    assert sub.moments().determinant > 0.05 * sub.moments().mu ** 2
    g = sample_configuration(sub, n, replica_rng(901, 0))
    assert largest_weak_fraction(g) < 0.02

    sup = truncated_double_poisson(0.75)
    assert sup.moments().determinant < -0.05 * sup.moments().mu ** 2
    g = sample_configuration(sup, n, replica_rng(901, 1))
    assert largest_weak_fraction(g) > 0.05


def test_mean_size_matches_simulation_histogram():
    d = truncated_double_poisson(0.25)
    predicted = mean_weak_component_size(d)
    n = 5 * 10**4
    means = []
    for rep in range(4):
        sizes = weak_component_sizes(sample_configuration(d, n, replica_rng(902, rep)))
        # mean component size of the component containing a random vertex
        means.append(float((sizes.astype(float) ** 2).sum()) / n)
    avg = sum(means) / len(means)
    spread = (sum((m - avg) ** 2 for m in means) / (len(means) - 1)) ** 0.5
    se = spread / len(means) ** 0.5
    assert abs(avg - predicted) <= 3 * se + 0.02
