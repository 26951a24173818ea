import functools
import itertools
import math
import tracemalloc
from collections import Counter

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from helpers import (
    balanced_dists,
    chi2_goodness_of_fit,
    chi2_two_sample,
    choice_slots,
    exact_balanced_law,
    imbalance_law,
    ks_critical,
    ks_two_sample,
    least_imbalance,
    realized_degree_law,
    reference_prefix_end,
    sequential_kmc,
    truncated_double_poisson,
    tv_distance,
    unchecked_degree_table,
)
from weakgiant import (
    BivariateDegreeDist,
    BoundDist,
    DirectedMultigraph,
    Exhausted,
    ValidationError,
    kmc_simulate,
    largest_weak_fraction,
    mu_of_t,
    replica_rng,
    sample_configuration,
    size_histogram,
    weak_component_sizes,
)
from weakgiant import mcgraph

dimers = BoundDist.from_entries([(1, 0, 0.5), (0, 1, 0.5)])
# the gate-1 fork: n - k in {1, -2}, so the imbalance moves in steps of 3
FORK = BivariateDegreeDist.from_entries([(1, 0, 2 / 3), (0, 2, 1 / 3)])


# --- component extraction ----------------------------------------------------


def test_weak_components_tiny_graph():
    g = DirectedMultigraph(3, np.array([[0, 1], [2, 1]], dtype=np.int64))
    assert weak_component_sizes(g).tolist() == [3]


def test_weak_components_isolated_vertices():
    g = DirectedMultigraph(5, np.empty((0, 2), dtype=np.int64))
    assert weak_component_sizes(g).tolist() == [1] * 5
    assert largest_weak_fraction(g) == 0.2


def test_weak_components_ignore_direction():
    # a directed path and its reversal are one weak component either way
    fwd = DirectedMultigraph(4, np.array([[0, 1], [1, 2], [2, 3]], dtype=np.int64))
    rev = DirectedMultigraph(4, np.array([[1, 0], [2, 1], [3, 2]], dtype=np.int64))
    assert weak_component_sizes(fwd).tolist() == weak_component_sizes(rev).tolist() == [4]


def test_weak_components_match_networkx(fork_dist):
    g = sample_configuration(fork_dist, 2000, replica_rng(11, 0))
    ours = sorted(weak_component_sizes(g).tolist())
    h = nx.MultiDiGraph()
    h.add_nodes_from(range(g.vertex_count))
    h.add_edges_from(g.edges.tolist())
    theirs = sorted(len(c) for c in nx.weakly_connected_components(h))
    assert ours == theirs


def networkx_weak_sizes(g: DirectedMultigraph) -> list[int]:
    h = nx.MultiDiGraph()
    h.add_nodes_from(range(g.vertex_count))
    h.add_edges_from(g.edges.tolist())
    return sorted(len(c) for c in nx.weakly_connected_components(h))


@st.composite
def small_multigraphs(draw):
    # self-loops, parallel edges and isolated vertices all occur
    n = draw(st.integers(1, 200))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=300))
    return DirectedMultigraph(n, np.array(edges, dtype=np.int64).reshape(-1, 2))


@given(small_multigraphs())
def test_weak_components_match_networkx_on_small_multigraphs(g):
    sizes = weak_component_sizes(g)
    assert sizes.dtype == np.int64
    assert sizes.tolist() == networkx_weak_sizes(g)


def _path_labels(order: str, n: int) -> np.ndarray:
    if order == "ascending":
        return np.arange(n)
    if order == "descending":
        return np.arange(n)[::-1]
    if order == "zigzag":
        return np.concatenate([np.arange(0, n, 2), np.arange(1, n, 2)[::-1]])
    return np.random.default_rng(5).permutation(n)


@pytest.mark.parametrize("order", ["ascending", "descending", "zigzag", "random"])
def test_weak_components_long_path_is_one_component(order):
    # long paths need the most hooking rounds and the longest pointer chains
    n = 10_000
    labels = _path_labels(order, n)
    edges = np.column_stack([labels[:-1], labels[1:]]).astype(np.int64)
    assert weak_component_sizes(DirectedMultigraph(n, edges)).tolist() == [n]


def test_weak_components_empty_graph_and_single_vertex():
    empty = weak_component_sizes(DirectedMultigraph(0, np.empty((0, 2), dtype=np.int64)))
    assert empty.tolist() == [] and empty.dtype == np.int64
    single = DirectedMultigraph(1, np.empty((0, 2), dtype=np.int64))
    assert weak_component_sizes(single).tolist() == [1]
    loop = DirectedMultigraph(1, np.array([[0, 0], [0, 0]], dtype=np.int64))
    assert weak_component_sizes(loop).tolist() == [1]


def test_weak_components_of_kmc_graph_match_networkx(p22_bounds):
    # past the (2,2) atom's critical conversion 1/3: a giant plus small trees
    g = kmc_simulate(p22_bounds, 3000, replica_rng(11, 2), c_n_target=0.45).graph
    assert weak_component_sizes(g).tolist() == networkx_weak_sizes(g)


@pytest.mark.parametrize("kind", ["config_dp0.7", "kmc_gate6"])
def test_weak_components_of_large_graphs_match_networkx(kind, three_class_bounds):
    # a supercritical double Poisson graph (five hooking rounds) and a dense
    # gate-6 growth graph at t = 0.06 (three rounds, 2.7 edges per vertex):
    # hooked roots chain within a round, and vertices hooked in earlier
    # rounds are left behind them until the final pointer jumping
    n = 20_000
    if kind == "config_dp0.7":
        g = sample_configuration(truncated_double_poisson(0.7), n, replica_rng(11, 4))
    else:
        g = kmc_simulate(three_class_bounds, n, replica_rng(11, 5), t_end=0.06).graph
    assert weak_component_sizes(g).tolist() == networkx_weak_sizes(g)


def _count_full_passes(monkeypatch) -> list:
    calls = []
    jumped = mcgraph._pointer_jumped

    def counted(parent):
        calls.append(parent.size)
        return jumped(parent)

    monkeypatch.setattr(mcgraph, "_pointer_jumped", counted)
    return calls


@pytest.mark.parametrize("hub", ["first", "last"])
def test_weak_components_of_stars_match_networkx(monkeypatch, hub):
    # hub 0 hooks every leaf in round 1; hub n - 1 is hooked alone in round
    # 1 and its leaves in round 2.  Either way only the final pass is full
    n = 501
    center = 0 if hub == "first" else n - 1
    leaves = np.setdiff1d(np.arange(n), [center])
    flip = np.random.default_rng(3).random(leaves.size) < 0.5
    edges = np.column_stack([np.full(leaves.size, center), leaves])
    edges[flip] = edges[flip, ::-1]
    calls = _count_full_passes(monkeypatch)
    g = DirectedMultigraph(n, edges)
    assert weak_component_sizes(g).tolist() == networkx_weak_sizes(g) == [n]
    assert calls == [n]


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_weak_components_on_both_sides_of_the_half_share(monkeypatch, seed, extra):
    # round 1 hooks exactly n / 2 + extra vertices; below, at and above half
    # only the hooked roots are jumped, and only the final pass is full
    n = 2000
    rng = np.random.default_rng(seed)
    hooked = rng.choice(np.arange(1, n), n // 2 + extra, replace=False)
    his = np.repeat(hooked, rng.integers(1, 4, hooked.size))
    los = (rng.random(his.size) * his).astype(np.int64)
    edges = np.column_stack([los, his])
    flip = rng.random(his.size) < 0.5
    edges[flip] = edges[flip, ::-1]
    calls = _count_full_passes(monkeypatch)
    g = DirectedMultigraph(n, edges)
    assert weak_component_sizes(g).tolist() == networkx_weak_sizes(g)
    assert calls == [n]


def test_weak_components_of_a_long_ascending_path(monkeypatch):
    # round 1 hooks every vertex but 0 into one chain of depth n - 1
    n = 100_000
    edges = np.column_stack([np.arange(n - 1), np.arange(1, n)])
    calls = _count_full_passes(monkeypatch)
    assert weak_component_sizes(DirectedMultigraph(n, edges)).tolist() == [n]
    assert calls == [n]


@pytest.mark.parametrize(
    "edges, message",
    [
        ([[0, 1], [0, -1]], r"edge 1 \(0, -1\) has an endpoint outside \[0, 3\)"),
        ([[0, 5], [1, 2]], r"edge 0 \(0, 5\) has an endpoint outside \[0, 3\)"),
        ([[0.0, 1.0]], r"edges must be an integer array of shape \(E, 2\), got float64"),
        ([0, 1, 2], r"edges must be an integer array of shape \(E, 2\), got int64 \(3,\)"),
        # whole graphs, whose vertex count is bad
        (DirectedMultigraph(2.5, np.array([[0, 1]])), r"vertex count 2.5 is not an integer"),
        (DirectedMultigraph(3.0, np.array([[0, 1]])), r"vertex count 3.0 is not an integer"),
        (DirectedMultigraph(-1, np.empty((0, 2), dtype=np.int64)), r"vertex count -1 is negative"),
    ],
)
def test_weak_components_reject_bad_edges(edges, message):
    g = edges if isinstance(edges, DirectedMultigraph) else DirectedMultigraph(3, np.array(edges))
    with pytest.raises(ValidationError, match=message):
        weak_component_sizes(g)


def test_sizes_sum_to_vertex_count(atom22):
    g = sample_configuration(atom22, 5000, replica_rng(11, 1))
    assert int(weak_component_sizes(g).sum()) == 5000


def test_single_vertex_fraction():
    g = DirectedMultigraph(1, np.empty((0, 2), dtype=np.int64))
    assert largest_weak_fraction(g) == 1.0


def test_largest_fraction_rejects_empty_graph():
    with pytest.raises(ValidationError, match="no vertices"):
        largest_weak_fraction(DirectedMultigraph(0, np.empty((0, 2), dtype=np.int64)))


def test_size_histogram_vertex_weighted():
    assert size_histogram([3, 3]) == {3: 1.0}
    assert size_histogram([1, 3]) == {1: 0.25, 3: 0.75}


def test_size_histogram_same_for_list_and_array(atom22):
    sizes = weak_component_sizes(sample_configuration(atom22, 3000, replica_rng(11, 3)))
    from_array = size_histogram(sizes)
    from_list = size_histogram(sizes.tolist())
    assert list(from_array.items()) == list(from_list.items())
    total = int(sizes.sum())
    exact = {s: s * c / total for s, c in Counter(sizes.tolist()).items()}
    assert from_array == exact


def test_size_histogram_rejects_empty():
    with pytest.raises(ValidationError):
        size_histogram([])


@pytest.mark.parametrize("sizes, size", [([0], 0), ([0, 3], 0), ([-1, 2], -1)])
def test_size_histogram_rejects_sizes_below_1(sizes, size):
    with pytest.raises(ValidationError, match=f"component size {size} is below 1"):
        size_histogram(sizes)


@pytest.mark.parametrize("sizes, value", [([2.5, 1], "2.5"), ([1, 3, math.nan], "nan"), ([math.inf], "inf")])
def test_size_histogram_rejects_non_integral_sizes(sizes, value):
    with pytest.raises(ValidationError, match=f"component size {value} is not an integer"):
        size_histogram(sizes)
    assert size_histogram([2.0, 1.0]) == size_histogram([2, 1])


# --- slot draws ----------------------------------------------------------------

# (table, slots per sample): two slots, the gate-6 three-class table and the
# 961-entry double Poisson.  Seed and level were fixed before the first run.
SLOT_TABLES = {
    "two": (np.array([0.3, 0.7]), 20_000),
    "gate6": (np.full(3, 1 / 3), 40_000),
    "dp0.6": (truncated_double_poisson(0.6).support[2], 400_000),
}
SLOT_SEED = 20261019
SLOT_ALPHA = 1e-4


def _slot_pairs(draw, probs, n, rng):
    """Counts of the non-overlapping pairs (slot 2i, slot 2i + 1)."""
    slots = draw(probs, n, rng)
    return Counter(zip(slots[0::2].tolist(), slots[1::2].tolist()))


@pytest.mark.parametrize("table", list(SLOT_TABLES))
def test_draw_slots_matches_choice(table):
    # consecutive pairs test the marginal and the independence of the order
    probs, n = SLOT_TABLES[table]
    probs = probs / probs.sum()
    case = list(SLOT_TABLES).index(table)
    oracle = _slot_pairs(choice_slots, probs, n, replica_rng(SLOT_SEED, 2 * case))
    ours = _slot_pairs(lambda *a: mcgraph._draw_slots(*a)[0], probs, n, replica_rng(SLOT_SEED, 2 * case + 1))
    assert chi2_two_sample(oracle, ours) > SLOT_ALPHA


def test_draw_slots_of_one_slot():
    slots, counts = mcgraph._draw_slots(np.array([1.0]), 5, replica_rng(SLOT_SEED, 9))
    assert slots.tolist() == [0] * 5 and slots.dtype == np.int64
    assert counts.tolist() == [5]


def test_sample_keys_of_one_class_draws_nothing():
    # kept apart from _draw_slots, which gives the same values and stream at
    # twice the time; most growth-process runs draw a single class
    rng = replica_rng(SLOT_SEED, 11)
    state = rng.bit_generator.state
    n_max, k_max = mcgraph._sample_keys(BoundDist.from_entries([(3, 5, 1.0)]), 7, rng)
    assert n_max.dtype == k_max.dtype == np.int64
    assert (n_max.tolist(), k_max.tolist()) == ([3] * 7, [5] * 7)
    assert rng.bit_generator.state == state


def test_draw_slots_counts_its_slots():
    slots, counts = mcgraph._draw_slots(np.array([0.5, 0.0, 0.25, 0.25]), 1000, replica_rng(SLOT_SEED, 10))
    assert np.bincount(slots, minlength=4).tolist() == counts.tolist()


# --- configuration model -----------------------------------------------------


def test_config_no_edges_for_origin_atom(origin_atom):
    g = sample_configuration(origin_atom, 57, replica_rng(12, 0))
    assert g.edges.shape == (0, 2)
    assert weak_component_sizes(g).tolist() == [1] * 57


def test_config_rejects_empty_graph(fork_dist):
    with pytest.raises(ValidationError):
        sample_configuration(fork_dist, 0, replica_rng(12, 1))


def test_config_is_deterministic(fork_dist):
    a = sample_configuration(fork_dist, 1000, 777)
    b = sample_configuration(fork_dist, 1000, 777)
    assert np.array_equal(a.edges, b.edges)
    c = sample_configuration(fork_dist, 1000, 778)
    assert not np.array_equal(a.edges, c.edges)


def test_config_fork_components_are_mostly_size_three(fork_dist):
    n = 30000
    g = sample_configuration(fork_dist, n, replica_rng(13, 0))
    hist = size_histogram(weak_component_sizes(g).tolist())
    # the conditioned draw keeps every degree pair in the support, so every
    # component is a source plus two sinks of size exactly 3
    assert hist.get(3, 0.0) >= 0.95


def _stubs_short_of_support(g, d):
    """Stubs the vertices lack, each against the nearest support pair of d
    that its realized pair fits under."""
    return sum(
        round(share * g.vertex_count) * min(n - a + k - b for n, k in d.entries if n >= a and k >= b)
        for (a, b), share in realized_degree_law(g).items()
    )


def test_config_fork_pairs_stay_in_support(fork_dist):
    n = 30000  # divisible by 3, so the stubs balance exactly
    g = sample_configuration(fork_dist, n, replica_rng(13, 4))
    assert set(realized_degree_law(g)) <= set(fork_dist.entries)
    assert weak_component_sizes(g).tolist() == [3] * (n // 3)


@pytest.mark.parametrize("n", [30001, 30002])
def test_config_fork_deletes_one_stub_off_the_lattice(fork_dist, n):
    # sum(n) - sum(k) = -2n mod 3, and the draw is conditioned on its least
    # value 1 or -1, so one surplus stub is left and deleted
    g = sample_configuration(fork_dist, n, replica_rng(13, 5))
    assert _stubs_short_of_support(g, fork_dist) == 1
    sizes = weak_component_sizes(g)
    assert int(sizes[sizes != 3].sum()) <= 2


def test_config_stops_when_no_redraw_shrinks_imbalance():
    # n - k in {5, -7}: the imbalance moves in steps of 12, and 17 vertices
    # put it at 1 mod 12, so it is 1 and one in-stub is deleted
    gaps = unchecked_degree_table([(5, 0, 0.5), (0, 7, 0.5)])
    for rep in range(5):
        g = sample_configuration(gaps, 17, replica_rng(13, 6 + rep))
        assert _stubs_short_of_support(g, gaps) == 1
    # n - k in {0, 5, -7}: no two values are 1 apart, yet at 200 vertices
    # an imbalance of 0 is reachable, and the draw is conditioned on it
    gaps0 = unchecked_degree_table([(0, 0, 1 / 3), (5, 0, 1 / 3), (0, 7, 1 / 3)])
    for rep in range(5):
        g = sample_configuration(gaps0, 200, replica_rng(13, 11 + rep))
        assert _stubs_short_of_support(g, gaps0) == 0


@pytest.mark.parametrize("pair", [(2, 1), (1, 2)], ids=["in surplus", "out surplus"])
def test_config_surplus_deletion_and_matching_are_uniform(pair):
    # one support pair, so one n - k value and no conditioning: of the six stubs
    # of the surplus side a uniform three are kept and matched uniformly to
    # the other side's three, 20 x 6 equally likely outcomes
    n = 3
    surplus = [v for v in range(n) for _ in range(max(pair))]
    law = Counter()
    for kept in itertools.combinations(range(2 * n), n):
        for order in itertools.permutations(range(n)):
            ends = [(surplus[kept[i]], order[i]) for i in range(n)]
            law[tuple(sorted(e if pair[0] < pair[1] else e[::-1] for e in ends))] += 1 / 120
    d = unchecked_degree_table([(*pair, 1.0)])
    runs = 3000
    seen = Counter(
        tuple(sorted(map(tuple, sample_configuration(d, n, replica_rng(27, rep)).edges.tolist())))
        for rep in range(runs)
    )
    assert set(seen) <= set(law)
    for graph, p in law.items():
        assert abs(seen[graph] / runs - p) <= 5 * math.sqrt(p * (1 - p) / runs), graph


def test_config_redraw_budget_bounds_rare_shrinking_moves():
    # n - k in {1, -1} and 100 vertices: the only balanced draw has 50
    # vertices of each pair, however rare (0, 1) is, and 50 edges
    rare = unchecked_degree_table([(1, 0, 1 - 1e-12), (0, 1, 1e-12)])
    g = sample_configuration(rare, 100, replica_rng(13, 16))
    assert realized_degree_law(g) == {(1, 0): 0.5, (0, 1): 0.5}
    assert g.edges.shape == (50, 2)


# n and k each uniform on 0..100: 201 values of n - k, the heaviest two of
# mass about 0.0099 against a variance of 1,700, so about one proposal in
# 4,500 is kept
WIDE = unchecked_degree_table([(i, j, 1 / 101**2) for i in range(101) for j in range(101)])


@given(
    st.one_of(balanced_dists(), st.just(FORK)),
    st.integers(1, 64),
    st.integers(0, 2**32 - 1),
)
@example(WIDE, 64, 0)
def test_stub_balance_matches_its_per_candidate_loop(d, n, seed):
    # the contract of the stub balance: n class counts whose imbalance is
    # the least one of its lattice, or a refusal where no draw reaches it
    n_of, k_of, probs = d.support
    probs, diff = probs / probs.sum(), n_of - k_of
    target = least_imbalance(diff.tolist(), n)
    try:
        counts = mcgraph._balanced_counts(probs, diff, n, np.random.default_rng(seed))
    except ValidationError:
        assert target not in imbalance_law(probs.tolist(), diff.tolist(), n)
        return
    assert counts.dtype == np.int64 and counts.min() >= 0
    assert int(counts.sum()) == n
    assert int(counts @ diff) == target


@pytest.mark.parametrize("seed", range(4))
def test_stub_balance_draws_a_wide_table(seed):
    # the proposals' cap follows the keep rate of the table: a fixed cap of
    # 10,000 refused about one seed in eleven here
    n_of, k_of, probs = WIDE.support
    counts = mcgraph._balanced_counts(probs / probs.sum(), n_of - k_of, 2000, replica_rng(29, seed))
    assert int(counts.sum()) == 2000
    assert int(counts @ (n_of - k_of)) == 0


# (probs, n - k per class, N), each small enough to enumerate: a two-valued
# table at a tie (g = 2, N odd, so the imbalance is +1), the fork at N not
# divisible by 3, {0, 5, -7}, no two of whose values are g = 1 apart, four
# values, and a tie among four values.  Groups of two classes test the split.
BALANCE_TABLES = {
    "two-valued": ([0.3, 0.2, 0.5], [1, 1, -1], 5),
    "fork": ([2 / 3, 1 / 3], [1, -2], 7),
    "0 5 -7": ([0.2, 0.2, 0.35, 0.25], [0, 0, 5, -7], 24),
    "four-valued": ([0.3, 0.3, 0.3, 0.1], [2, -1, 0, -3], 6),
    "four-valued tie": ([0.3, 0.3, 0.2, 0.2], [1, -1, 3, -3], 5),
}
BALANCE_SEED = 20261020
BALANCE_DRAWS = 10_000


@pytest.mark.parametrize("table", list(BALANCE_TABLES))
def test_balanced_counts_follow_the_conditioned_law(table):
    probs, diff, n = BALANCE_TABLES[table]
    law = exact_balanced_law(probs, diff, n)
    rng = replica_rng(BALANCE_SEED, list(BALANCE_TABLES).index(table))
    probs, diff = np.array(probs), np.array(diff)
    seen = Counter(
        tuple(mcgraph._balanced_counts(probs, diff, n, rng).tolist()) for _ in range(BALANCE_DRAWS)
    )
    assert set(seen) <= set(law)
    assert chi2_goodness_of_fit(seen, law)[2] > SLOT_ALPHA


@pytest.mark.parametrize("table", ["0 5 -7", "four-valued", "four-valued tie"])
def test_exact_group_counts_follow_the_conditioned_law(table):
    # the route the stub balance takes once its proposals run out, which
    # draws the counts of the groups of equal n - k, about 1 ms a draw here;
    # a table of two n - k values keeps its first proposal or has no draw
    probs, diff, n = BALANCE_TABLES[table]
    values = sorted(set(diff))
    law = Counter()
    for counts, p in exact_balanced_law(probs, diff, n).items():
        law[tuple(sum(c for c, d in zip(counts, diff) if d == v) for v in values)] += p
    lattice = math.gcd(*(v - values[0] for v in values[1:]))
    mass = np.array([math.fsum(p for p, d in zip(probs, diff) if d == v) for v in values])
    steps = np.array([(v - values[0]) // lattice for v in values])
    total = (least_imbalance(diff, n) - n * values[0]) // lattice
    rng = replica_rng(BALANCE_SEED + 1, list(BALANCE_TABLES).index(table))
    seen = Counter(
        tuple(mcgraph._exact_group_counts(mass, steps, total, n, rng).tolist()) for _ in range(3000)
    )
    assert set(seen) <= set(law)
    assert chi2_goodness_of_fit(seen, law)[2] > SLOT_ALPHA


def test_config_degree_fidelity(fork_dist):
    n = 10**5
    g = sample_configuration(fork_dist, n, replica_rng(13, 1))
    assert tv_distance(realized_degree_law(g), fork_dist.entries) <= 0.02


def test_config_supercritical_atom(atom22):
    g = sample_configuration(atom22, 30000, replica_rng(13, 2))
    assert largest_weak_fraction(g) > 0.9


def test_config_permutation_digraph_is_union_of_cycles(atom11):
    n = 10**5
    g = sample_configuration(atom11, n, replica_rng(13, 3))
    in_deg = np.bincount(g.edges[:, 1], minlength=n)
    out_deg = np.bincount(g.edges[:, 0], minlength=n)
    assert in_deg.min() == in_deg.max() == 1
    assert out_deg.min() == out_deg.max() == 1
    sizes = weak_component_sizes(g)
    assert int(sizes.sum()) == n
    # a uniform permutation keeps its longest cycle near 0.62 N, so this
    # determinant-boundary law shows no vanishing largest fraction even
    # though the moment criterion reports no giant component
    assert largest_weak_fraction(g) > 0.3


# --- kinetic growth process --------------------------------------------------


def test_kmc_is_deterministic(p22_bounds):
    a = kmc_simulate(p22_bounds, 3000, 99, c_n_target=0.3)
    b = kmc_simulate(p22_bounds, 3000, 99, c_n_target=0.3)
    assert np.array_equal(a.graph.edges, b.graph.edges)
    assert np.array_equal(a.times, b.times)
    c = kmc_simulate(p22_bounds, 3000, 100, c_n_target=0.3)
    assert not np.array_equal(a.graph.edges, c.graph.edges)


@pytest.mark.parametrize("sampler", ["config", "kmc"])
def test_samplers_reject_non_integer_vertex_count(sampler, fork_dist, p22_bounds):
    # checked before any draw: a multinomial draw would truncate 2.5 silently
    run, table = (sample_configuration, fork_dist) if sampler == "config" else (kmc_simulate, p22_bounds)
    for n in (2.5, 10.0):
        with pytest.raises(ValidationError, match=f"vertex count {n} is not an integer"):
            run(table, n, 1)


def test_kmc_validates_arguments(p22_bounds):
    with pytest.raises(ValidationError):
        kmc_simulate(p22_bounds, 1, 0)
    with pytest.raises(ValidationError):
        kmc_simulate(p22_bounds, 100, 0, t_end=0.1, c_n_target=0.1)
    with pytest.raises(ValidationError):
        kmc_simulate(p22_bounds, 100, 0, t_end=-1.0)
    with pytest.raises(ValidationError):
        kmc_simulate(p22_bounds, 100, 0, t_end=math.nan)
    with pytest.raises(ValidationError):
        kmc_simulate(p22_bounds, 100, 0, c_n_target=1.5)


def test_kmc_bookkeeping_invariants(p22_bounds):
    res = kmc_simulate(p22_bounds, 5000, replica_rng(14, 0), c_n_target=0.4)
    st = res.state
    assert st.events == res.graph.edges.shape[0]
    # no vertex takes more edges than its capacities allow
    n = res.graph.vertex_count
    in_deg = np.bincount(res.graph.edges[:, 1], minlength=n)
    out_deg = np.bincount(res.graph.edges[:, 0], minlength=n)
    assert (in_deg <= st.n_max).all() and (out_deg <= st.k_max).all()


def test_kmc_never_pairs_a_vertex_with_itself(p22_bounds):
    res = kmc_simulate(p22_bounds, 300, replica_rng(14, 1))  # run to exhaustion
    assert (res.graph.edges[:, 0] != res.graph.edges[:, 1]).all()


def test_negative_seed_is_a_validation_error(fork_dist, p22_bounds):
    with pytest.raises(ValidationError, match="seed"):
        sample_configuration(fork_dist, 100, -1)
    with pytest.raises(ValidationError, match="seed"):
        kmc_simulate(p22_bounds, 100, -1)
    for seed in (-1, np.int64(-1)):
        with pytest.raises(ValidationError, match="seed -1 is negative"):
            replica_rng(seed, 3)
        with pytest.raises(ValidationError, match="seed -1 is negative"):
            replica_rng(3, seed)


def test_kmc_times_increase(p22_bounds):
    res = kmc_simulate(p22_bounds, 2000, replica_rng(14, 3), c_n_target=0.5)
    assert (np.diff(res.times) > 0).all()
    assert len(res.times) == res.state.events


def test_kmc_trajectory_matches_closed_form(p22_bounds):
    n = 20000
    res = kmc_simulate(p22_bounds, n, replica_rng(14, 4), c_n_target=0.25)
    # in-conversion target 0.25 on nu10 = 2 forces mu = 0.5 exactly
    final_mu = res.state.events / n
    assert final_mu == pytest.approx(0.5, abs=1e-3)
    predicted = mu_of_t(p22_bounds, res.state.t)
    assert abs(predicted - final_mu) <= 4 * math.sqrt(final_mu / n)
    # spot checks along the trajectory
    for frac in (0.25, 0.5, 0.75):
        idx = int(frac * res.state.events)
        predicted = mu_of_t(p22_bounds, float(res.times[idx]))
        observed = (idx + 1) / n  # edge density after event idx
        assert abs(predicted - observed) <= 5 * math.sqrt(max(observed, 1e-6) / n)


def test_kmc_t_end_mode(p22_bounds):
    res = kmc_simulate(p22_bounds, 10000, replica_rng(14, 5), t_end=0.25)
    assert res.state.t == 0.25
    assert (res.times <= 0.25).all()
    predicted = mu_of_t(p22_bounds, 0.25)
    observed = res.state.events / 10000
    assert abs(predicted - observed) <= 4 * math.sqrt(predicted / 10000)


@pytest.mark.parametrize("v_in, v_out", [(50_000, 50_000), (80_000, 50_000), (50_000, 80_000)])
def test_kmc_prefix_mean_solves_the_proposal_clock(v_in, v_out):
    # the closed-form mean event count by t_end against Euler steps of
    # de/dt = (v_in - e)(v_out - e)/N; slack is 6 sqrt(mean) + 1 on top
    n, t_end, steps = 20_000, 0.05, 200_000
    e = 0.0
    for _ in range(steps):
        e += (v_in - e) * (v_out - e) / n * (t_end / steps)
    last = min(v_in, v_out)
    size = mcgraph._prefix_end(0, 0.0, t_end, v_in, v_out, n, last)
    assert size - 1 - 6 * math.sqrt(e) == pytest.approx(e, rel=1e-3)
    assert mcgraph._prefix_end(0, 0.0, math.inf, v_in, v_out, n, last) == last


@given(
    st.integers(2, 10**7),
    st.integers(0, 10**8),
    st.integers(0, 10**8),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1e3),
    st.one_of(st.floats(0.0, 1e300), st.just(math.inf)),
)
def test_kmc_prefix_end_matches_its_vacant_spot_form(n, v_in, v_out, f_last, f_events, t, wait):
    # the growth law's closed form in units of N against the same clock
    # solved in vacant-spot counts; they round apart by at most one spot,
    # where the vacant-spot form cancels a tiny mean to 0
    last = int(f_last * min(v_in, v_out))
    events = int(f_events * last)
    args = (events, t, t + wait, v_in, v_out, n, last)
    ours, ref = mcgraph._prefix_end(*args), reference_prefix_end(*args)
    if wait == math.inf:
        assert ours == ref == last
    assert abs(ours - ref) <= 1
    assert events <= ours <= last


def test_kmc_t_end_prefix_is_rarely_extended(three_class_bounds, monkeypatch):
    # a t_end run draws each side's spot order once, a few standard
    # deviations past its own event count
    sizes, draws = [], []
    prefix_end, drawn_on = mcgraph._prefix_end, mcgraph._drawn_on
    monkeypatch.setattr(mcgraph, "_prefix_end", lambda *a: sizes.append(prefix_end(*a)) or sizes[-1])
    monkeypatch.setattr(mcgraph, "_drawn_on", lambda *a: draws.append(a[0].size) or drawn_on(*a))
    for seed, t_end in enumerate([0.04, 0.06, 0.08] * 3):
        sizes.clear()
        draws.clear()
        res = kmc_simulate(three_class_bounds, 20_000, replica_rng(14, 20 + seed), t_end=t_end)
        assert len(sizes) == 1 and draws == [0, 0]
        slack = sizes[0] - res.state.events
        assert 0 < slack <= 10 * math.sqrt(res.state.events)


def test_repair_lists_undrawn_spots_by_vertex():
    # positions u in [L, v) past a prefix of L spots name the undrawn
    # spots, so vertex x takes caps[x] - count(x in prefix) of them
    caps = np.array([3, 0, 3, 1, 2, 1])
    prefix = np.array([2, 0, 4, 2, 5], dtype=np.int32)
    landed = Counter()
    for u in range(prefix.size, int(caps.sum())):
        repaired = prefix.copy()
        mcgraph._repair(repaired, caps, 1, u)
        assert np.array_equal(np.delete(repaired, 1), np.delete(prefix, 1))
        landed[int(repaired[1])] += 1
    assert landed == {0: 2, 2: 1, 3: 1, 4: 1}


def test_kmc_skips_times_when_not_recording(p22_bounds):
    # capacity of a t_end run: min(total in-spots, total out-spots) = 2 N
    n = 100_000
    capacity = 2 * n

    def peak(record):
        tracemalloc.start()
        try:
            mcgraph.kmc_simulate(p22_bounds, n, 7, t_end=0.1, record_trajectory=record)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(True)  # warm-up: first-call allocations would inflate one side
    # 4 KiB covers the few hundred bytes by which small-object allocations
    # move a peak from run to run
    assert peak(True) - peak(False) >= 8 * capacity - 4096


def test_kmc_dimers_run_to_exhaustion():
    res = kmc_simulate(dimers, 4000, replica_rng(14, 6))
    sizes = weak_component_sizes(res.graph)
    assert sizes.max() <= 2
    # every edge joins a single-in vertex to a single-out vertex
    assert res.state.events > 0
    counts = Counter(sizes.tolist())
    assert counts[2] == res.state.events


def test_kmc_exhausted_only_when_target_unreachable():
    # two in-spots per out-spot: c_n can never pass 1/2
    lopsided = BoundDist.from_entries([(2, 1, 1.0)])
    with pytest.raises(Exhausted):
        kmc_simulate(lopsided, 4000, replica_rng(14, 7), c_n_target=0.9)


def test_kmc_exhaustion_before_t_end_reports_last_event_time():
    # dimers exhaust after min(#(1, 0), #(0, 1)) events whatever the draws,
    # and both samplers draw the bound keys first from the same stream
    ends = []
    for sampler in (kmc_simulate, sequential_kmc):
        capped = sampler(dimers, 2000, replica_rng(14, 11), t_end=1e6)
        free = sampler(dimers, 2000, replica_rng(14, 11))
        assert 0 < capped.state.t == capped.times[-1] < 1e6
        assert capped.state.t == free.state.t
        assert np.array_equal(capped.graph.edges, free.graph.edges)
        assert np.array_equal(capped.times, free.times)
        ends.append(capped.state.events)
    n_max, k_max = capped.state.n_max, capped.state.k_max
    assert ends[0] == ends[1] == min(int(n_max.sum()), int(k_max.sum()))


def test_kmc_exhaustion_on_one_vertex():
    # on three (1, 1) vertices a run ends with a 3-cycle, or after a 2-cycle
    # with one vertex whose only spots face each other; that dead end is
    # found at a rejected same-vertex pair
    ones = BoundDist.from_entries([(1, 1, 1.0)])
    rng = replica_rng(14, 12)
    ends = Counter()
    for _ in range(30):
        res = kmc_simulate(ones, 3, rng, t_end=1e6)
        assert res.state.t == res.times[-1] < 1e6
        ends[res.state.events] += 1
        try:
            full = kmc_simulate(ones, 3, rng, c_n_target=1.0)
        except Exhausted:
            ends["exhausted"] += 1
        else:
            assert full.state.events == 3
    assert set(ends) == {2, 3, "exhausted"}


def test_kmc_t_end_run_without_out_spots_is_empty():
    # on 10 vertices no (0, 1) class is drawn: no out-spot, so no proposal
    # and no event; the run ends at time 0 as a dead end does
    in_only = BoundDist.from_entries([(1, 0, 1 - 1e-12), (0, 1, 1e-12)])
    for sampler in (kmc_simulate, sequential_kmc):
        res = sampler(in_only, 10, replica_rng(14, 13), t_end=0.5)
        assert int(res.state.k_max.sum()) == 0
        assert res.state.events == 0 and res.graph.edges.shape == (0, 2)
        assert res.state.t == 0.0 and res.state.restarts == 0


def test_kmc_target_zero_is_empty_run(p22_bounds):
    res = kmc_simulate(p22_bounds, 100, replica_rng(14, 8), c_n_target=0.0)
    assert res.state.events == 0
    assert res.graph.edges.shape == (0, 2)
    assert res.state.t == 0.0


def test_kmc_counts_restarts(p22_bounds):
    # no dimer vertex has both an in- and an out-spot: no pair is rejected
    assert kmc_simulate(dimers, 4000, replica_rng(14, 9)).state.restarts == 0
    # a third of the first pairs on three (2, 2) vertices are same-vertex
    rng = replica_rng(14, 10)
    assert sum(kmc_simulate(p22_bounds, 3, rng).state.restarts for _ in range(20)) > 0


# --- kinetic sampler against the per-event oracle ----------------------------

TINY_BOUNDS = {
    "mixed": BoundDist.from_entries([(2, 1, 0.5), (1, 2, 0.5)]),
    "atom22": BoundDist.from_entries([(2, 2, 1.0)]),
    "three": BoundDist.from_entries([(3, 1, 0.3), (1, 3, 0.3), (2, 2, 0.4)]),
}
# (bounds, vertices, t_end): same-vertex pairs are frequent, and t_end = 3
# cuts about 70% of the (2, 2)-atom runs on four vertices.  With t_end = 50
# nearly every run exhausts first: on three vertices about 4% of the mixed
# runs and 35% of the (2, 2)-atom runs end at a vertex whose own spots are
# all that is left.  Runs, seed and level were fixed before the first run.
TINY_CASES = [
    ("mixed", 3, None),
    ("mixed", 4, None),
    ("atom22", 3, None),
    ("atom22", 4, None),
    ("atom22", 4, 3.0),
    ("mixed", 3, 50.0),
    ("atom22", 3, 50.0),
]
# (bounds, vertices, c_n_target): runs restart one to two times each, and
# about 5% of the three-class runs raise Exhausted, which counts as one
# outcome.  Seed and level were fixed before the first run.
TARGET_CASES = [
    ("atom22", 4, 0.75),
    ("atom22", 5, 0.6),
    ("atom22", 6, 0.5),
    ("mixed", 4, 0.5),
    ("three", 4, 0.6),
]
TINY_RUNS = 3000
TINY_SEED = 20261018
TARGET_SEED = 20261019
TINY_ALPHA = 1e-4
# block2 draws every run's spot order two spots at a time, so that prefix
# extensions, repairs at rejections and the t_end cut meet in the same runs
BLOCKS = pytest.mark.parametrize("block", [None, 2], ids=["real_block", "block2"])


def _tiny_sample(sampler, bounds, n, stop, rng):
    """Final edge multisets (counted) and final times of TINY_RUNS runs; a
    run that raises Exhausted counts as one outcome, at time infinity."""
    edges, times = Counter(), []
    for _ in range(TINY_RUNS):
        try:
            res = sampler(TINY_BOUNDS[bounds], n, rng, **stop)
        except Exhausted:
            edges["exhausted"] += 1
            times.append(math.inf)
            continue
        edges[tuple(sorted(map(tuple, res.graph.edges.tolist())))] += 1
        times.append(res.state.t)
    return edges, np.array(times)


@functools.cache
def _tiny_oracle(bounds, n, stop_name, stop, seed, replica):
    return _tiny_sample(sequential_kmc, bounds, n, {stop_name: stop}, replica_rng(seed, replica))


def _check_law(monkeypatch, block, bounds, n, stop_name, stop, seed, replica):
    if block is not None:
        prefix_end = mcgraph._prefix_end
        monkeypatch.setattr(
            mcgraph, "_prefix_end", lambda events, *args: min(events + block, prefix_end(events, *args))
        )
    oracle_edges, oracle_t = _tiny_oracle(bounds, n, stop_name, stop, seed, replica)
    rng = replica_rng(seed, replica + (1 if block is None else 2))
    edges, t = _tiny_sample(kmc_simulate, bounds, n, {stop_name: stop}, rng)
    assert chi2_two_sample(oracle_edges, edges) > TINY_ALPHA
    assert ks_two_sample(oracle_t, t) < ks_critical(TINY_ALPHA, TINY_RUNS, TINY_RUNS)


@BLOCKS
@pytest.mark.parametrize("case", range(len(TINY_CASES)), ids=lambda c: "-".join(map(str, TINY_CASES[c])))
def test_kmc_law_matches_sequential_oracle(case, block, monkeypatch):
    bounds, n, t_end = TINY_CASES[case]
    _check_law(monkeypatch, block, bounds, n, "t_end", t_end, TINY_SEED, 3 * case)


@BLOCKS
@pytest.mark.parametrize("case", range(len(TARGET_CASES)), ids=lambda c: "-".join(map(str, TARGET_CASES[c])))
def test_kmc_target_law_matches_sequential_oracle(case, block, monkeypatch):
    bounds, n, c_n = TARGET_CASES[case]
    _check_law(monkeypatch, block, bounds, n, "c_n_target", c_n, TARGET_SEED, 3 * case)


def test_replica_streams_are_independent():
    a = replica_rng(5150, 0).random(8)
    b = replica_rng(5150, 1).random(8)
    again = replica_rng(5150, 0).random(8)
    assert np.array_equal(a, again)
    assert not np.array_equal(a, b)
