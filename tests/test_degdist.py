import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from helpers import (
    balanced_dists,
    bivariate_dists,
    brute_moment,
    outcome,
    parsed_records,
    reference_pair_table,
    reference_parse_records,
    reference_univariate_table,
)
from weakgiant import (
    BivariateDegreeDist,
    BoundDist,
    DuplicateKey,
    NegativeIndex,
    NegativeProbability,
    NotNormalized,
    ParseError,
    UnivariateDegreeDist,
    ValidationError,
    nu_moments,
    require_edge_balanced,
    truncated_double_poisson,
)
from weakgiant import evolution, mcgraph, tableio
from weakgiant.degdist import NORM_TOL
from weakgiant.errors import EdgeImbalance


# --- construction ---------------------------------------------------------


def test_from_entries_accepts_fork(fork_dist):
    assert fork_dist.entries == {(1, 0): 2 / 3, (0, 2): 1 / 3}


def test_from_entries_accepts_origin_atom(origin_atom):
    assert origin_atom.entries == {(0, 0): 1.0}


def test_from_entries_rejects_unnormalized():
    with pytest.raises(NotNormalized):
        BivariateDegreeDist.from_entries([(1, 0, 0.5), (0, 1, 0.6)])


def test_from_entries_rejects_negative_index():
    with pytest.raises(NegativeIndex):
        BivariateDegreeDist.from_entries([(-1, 0, 1.0)])


def test_from_entries_rejects_negative_probability():
    with pytest.raises(NegativeProbability):
        BivariateDegreeDist.from_entries([(0, 0, 1.5), (1, 1, -0.5)])


def test_from_entries_rejects_nan_probability():
    with pytest.raises(ValidationError, match="not a number"):
        BivariateDegreeDist.from_entries([(0, 0, 1.0), (1, 1, math.nan)])


def test_from_entries_rejects_duplicate_key():
    with pytest.raises(DuplicateKey):
        BivariateDegreeDist.from_entries([(1, 1, 0.5), (1, 1, 0.5)])


def test_from_entries_rejects_non_integer_index():
    with pytest.raises(TypeError):
        BivariateDegreeDist.from_entries([(1.5, 0, 1.0)])


def test_zero_probability_entries_are_dropped(fork_dist):
    d = BivariateDegreeDist.from_entries([(1, 0, 2 / 3), (0, 2, 1 / 3), (5, 5, 0.0)])
    assert d.entries == fork_dist.entries


def test_normalization_tolerance_is_overridable():
    triples = [(0, 0, 0.9995)]
    with pytest.raises(NotNormalized):
        BivariateDegreeDist.from_entries(triples)
    BivariateDegreeDist.from_entries(triples, tol=1e-3)


# --- moments ---------------------------------------------------------------


def test_moment_examples(fork_dist):
    assert fork_dist.moment(1, 0) == pytest.approx(2 / 3, abs=1e-15)
    assert fork_dist.moment(0, 2) == pytest.approx(4 / 3, abs=1e-15)
    assert fork_dist.moment(0, 0) == 1.0


def test_moment_zero_power_convention(origin_atom):
    # 0**0 counts as 1 so mu00 is the total mass
    assert origin_atom.moment(0, 0) == 1.0
    assert origin_atom.moment(1, 1) == 0.0


def test_moments_bundle(fork_dist):
    m = fork_dist.moments()
    assert (m.mu00, m.mu10, m.mu01) == (1.0, 2 / 3, 2 / 3)
    assert (m.mu20, m.mu02, m.mu11) == (2 / 3, 4 / 3, 0.0)


@given(bivariate_dists())
def test_mu00_is_one(d):
    assert abs(d.moment(0, 0) - 1.0) <= 1e-9


@given(bivariate_dists())
def test_moments_match_brute_force(d):
    for i, j in [(1, 0), (0, 1), (2, 0), (0, 2), (1, 1)]:
        assert d.moment(i, j) == pytest.approx(brute_moment(d.entries, i, j), abs=1e-12)


# --- edge balance ----------------------------------------------------------


def test_edge_balance_examples(fork_dist, origin_atom):
    assert fork_dist.is_edge_balanced()
    assert origin_atom.is_edge_balanced()
    sources_only = BivariateDegreeDist.from_entries([(1, 0, 1.0)])
    assert not sources_only.is_edge_balanced()
    with pytest.raises(EdgeImbalance):
        require_edge_balanced(sources_only)


def test_edge_balance_tolerance_is_relative():
    # imbalance of 5e-9 on means of order 1 passes the 1e-8 gate, fails 1e-10
    d = BivariateDegreeDist.from_entries([(1, 0, 0.5 + 2.5e-9), (0, 1, 0.5 - 2.5e-9)])
    assert d.is_edge_balanced(1e-8)
    assert not d.is_edge_balanced(1e-10)


@pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf])
def test_tolerances_must_be_finite_and_nonnegative(fork_dist, tol):
    # a NaN compares false both ways, which used to pass any table
    with pytest.raises(ValidationError, match="tolerance"):
        fork_dist.is_edge_balanced(tol)
    with pytest.raises(ValidationError, match="tolerance"):
        BivariateDegreeDist.from_entries([(1, 0, 0.25), (0, 1, 0.25)], tol=tol)


@given(balanced_dists())
def test_balanced_strategies_are_exactly_balanced(d):
    assert d.moment(1, 0) == d.moment(0, 1)


# --- support and moments shared with bound tables --------------------------


def generator_moment(entries: dict, i: int, j: int) -> float:
    """Oracle: the scalar sum the shared array moment replaced."""
    return math.fsum(n**i * k**j * p for (n, k), p in entries.items())


@st.composite
def rough_tables(draw):
    """Tables with non-dyadic probabilities, so that the terms round."""
    keys = draw(
        st.lists(st.tuples(st.integers(0, 60), st.integers(0, 60)), min_size=1, max_size=30, unique=True)
    )
    weights = draw(st.lists(st.floats(0.01, 1.0), min_size=len(keys), max_size=len(keys)))
    total = math.fsum(weights)
    return BivariateDegreeDist.from_entries([(n, k, w / total) for (n, k), w in zip(keys, weights)])


@given(rough_tables())
def test_shared_moment_matches_generator_sum_bit_for_bit(d):
    pairs = [(1, 0), (0, 1), (2, 0), (0, 2), (1, 1)]
    oracle = [generator_moment(d.entries, i, j) for i, j in pairs]
    nu = nu_moments(BoundDist(d.support))  # the same arrays; some draws admit no edge
    assert [nu.nu10, nu.nu01, nu.nu20, nu.nu02, nu.nu11] == oracle
    assert [d.moment(i, j) for i, j in pairs] == oracle
    assert d.moment(0, 0) == generator_moment(d.entries, 0, 0)


def test_high_moment_does_not_wrap():
    # 1000**7 exceeds the int64 range; Python integers do not wrap
    d = BivariateDegreeDist.from_entries([(1000, 3, 0.3), (2, 1000, 0.7)])
    for i, j in [(7, 0), (0, 7), (4, 4)]:
        assert d.moment(i, j) == generator_moment(d.entries, i, j)


@given(rough_tables())
def test_support_is_sorted_and_built_once(d):
    assert d.support is d.support
    first, second, probs = d.support
    keys = list(zip(first.tolist(), second.tolist()))
    assert keys == sorted(keys)
    assert d.records() == [(n, k, p) for (n, k), p in sorted(d.entries.items())]
    assert not probs.flags.writeable


CAP70 = BoundDist.from_entries([(70, 70, 1.0)])
ASYMMETRIC = BoundDist.from_entries([(3, 1, 0.5), (0, 2, 0.5)])

BUILT_TABLES = {
    "from_text": lambda: BivariateDegreeDist.from_text("1 0 0.5\n0 1 0.5\n"),
    "bivariate from_entries": lambda: BivariateDegreeDist.from_entries([(1, 0, 0.5), (0, 1, 0.5)]),
    "bound from_entries": lambda: BoundDist.from_entries([(2, 1, 0.5), (0, 3, 0.5)]),
    "degree_state_at": lambda: evolution.degree_state_at(ASYMMETRIC, 0.3),
    "degree_state_at_conversion": lambda: evolution.degree_state_at_conversion(CAP70, 0.015),
    "marginal_degree_dist": lambda: evolution.marginal_degree_dist(
        evolution.degree_state_at_conversion(ASYMMETRIC, 0.2)
    ),
    "asymptotic_dist symmetric": lambda: evolution.asymptotic_dist(CAP70),
    "asymptotic_dist asymmetric": lambda: evolution.asymptotic_dist(ASYMMETRIC),
    "size_histogram": lambda: mcgraph.size_histogram([3, 1, 1, 2]),
}


@pytest.mark.parametrize("build", BUILT_TABLES.values(), ids=BUILT_TABLES)
def test_every_built_table_is_read_only(build):
    support = build().support
    assert support and all(isinstance(a, np.ndarray) and not a.flags.writeable for a in support)
    with pytest.raises(ValueError, match="read-only"):
        support[-1][0] = 0.5


def test_mean_degree(fork_dist):
    assert fork_dist.moments().mu == pytest.approx(2 / 3, abs=1e-15)


# --- univariate ------------------------------------------------------------


def test_univariate_moments():
    d = UnivariateDegreeDist._validated([1, 3], [0.5, 0.5])
    assert d.moment(0) == 1.0
    assert d.moment(1) == 2.0
    assert d.moment(2) == 5.0


def test_univariate_rejects_negative_degree():
    with pytest.raises(NegativeIndex):
        UnivariateDegreeDist._validated([-2], [1.0])


# --- text round-trips ------------------------------------------------------


def test_parse_records_skips_blanks_and_comments():
    text = "# header\n\n1 0 0.5\n  # indented comment\n0 1 0.5\n"
    assert parsed_records(tableio.parse_records(text)) == [(1, 0, 0.5), (0, 1, 0.5)]


def test_parse_records_cites_line_number_for_field_count():
    with pytest.raises(ParseError, match="line 2"):
        tableio.parse_records("1 0 0.5\n0 1\n")


def test_parse_records_cites_line_number_for_bad_int():
    with pytest.raises(ParseError, match="line 1"):
        tableio.parse_records("1 x 0.5\n")


def test_parse_records_cites_line_number_for_bad_float():
    with pytest.raises(ParseError, match="line 3"):
        tableio.parse_records("# c\n1 0 0.5\n0 1 zebra\n")


def test_text_round_trip_is_exact(fork_dist):
    again = BivariateDegreeDist.from_text(fork_dist.to_text())
    assert again.entries == fork_dist.entries


@given(bivariate_dists())
def test_format_parse_round_trip(d):
    text = tableio.format_records(d.records())
    assert parsed_records(tableio.parse_records(text)) == d.records()


@pytest.mark.parametrize(
    "table",
    [
        truncated_double_poisson(0.6),
        evolution.marginal_degree_dist(evolution.degree_state_at_conversion(CAP70, 0.015)),
        BoundDist.from_entries([(10, 10, 1 / 3), (5, 10, 1 / 3), (10, 4, 1 / 3)]),
    ],
    ids=["double Poisson", "cap70 marginal", "bounds"],
)
def test_written_tables_are_read_by_numpy(table, monkeypatch):
    def declined(lines):
        raise AssertionError("numpy's reader declined a written table")

    monkeypatch.setattr(tableio, "_read_lines", declined)
    again = type(table).from_text(table.to_text())
    assert again.records() == table.records()


def test_from_text_propagates_validation():
    with pytest.raises(NegativeProbability):
        BivariateDegreeDist.from_text("0 0 1.5\n1 1 -0.5\n")


# --- one validator against the per-entry reference ---------------------------


@st.composite
def faulty_tables(draw, width=2):
    """Rows ``(*key, prob)`` of a normalized table with unique keys, then a
    few faults: NaN, negative and zero probabilities (numpy scalars too),
    negative, float or text key components, components beyond int64,
    inserted zero rows and repeated keys, some of them zero repeats."""
    size = draw(st.integers(0, 6))
    keys = draw(st.lists(st.tuples(*[st.integers(0, 4)] * width), min_size=size, max_size=size, unique=True))
    weights = draw(st.lists(st.integers(1, 64), min_size=size, max_size=size))
    total = sum(weights)
    rows = [[*key, w / total] for key, w in zip(keys, weights)]
    faults = ["nan", "negative", "zero", "zero row", "repeat", "negative key", "float key", "text key", "huge key",
              "numpy"]
    for fault in draw(st.lists(st.sampled_from(faults), max_size=4)):
        if not rows:
            break
        i = draw(st.integers(0, len(rows) - 1))
        if fault == "nan":
            rows[i][-1] = math.nan
        elif fault == "negative":
            rows[i][-1] = -rows[i][-1]
        elif fault == "zero":
            rows[i][-1] = draw(st.sampled_from([0.0, -0.0, 0]))
        elif fault == "zero row":
            rows.insert(draw(st.integers(0, len(rows))), [*rows[i][:-1], 0.0])
        elif fault == "repeat":
            rows.insert(draw(st.integers(0, len(rows))), [*rows[i][:-1], draw(st.sampled_from([0.25, 0.0]))])
        elif fault == "negative key":
            rows[i][draw(st.integers(0, width - 1))] = -draw(st.integers(1, 3))
        elif fault == "huge key":
            rows[i][draw(st.integers(0, width - 1))] = draw(st.sampled_from([2**63, 10**20, -(2**63) - 1]))
        elif fault in ("float key", "text key"):
            j = draw(st.integers(0, width - 1))
            rows[i][j] = (float if fault == "float key" else str)(rows[i][j])
        else:
            rows[i][-1] = np.float64(rows[i][-1])
    tol = draw(st.sampled_from([NORM_TOL] * 6 + [math.nan, -1.0]))
    return [tuple(r) for r in rows], tol


def _assert_same_table(table, reference, pair):
    got, want = outcome(table), outcome(reference)
    assert got[1] == want[1]
    if want[1] is None:
        table, entries = got[0], want[0]
        assert list(table.entries.items()) == sorted(entries.items())
        if pair:
            keys = sorted(entries)
            want_support = (
                np.array([a for a, _b in keys], dtype=np.int64),
                np.array([b for _a, b in keys], dtype=np.int64),
                np.array([entries[key] for key in keys], dtype=float),
            )
            assert all(g.dtype == w.dtype and g.tobytes() == w.tobytes() for g, w in zip(table.support, want_support))


@given(faulty_tables())
def test_degree_table_validation_matches_reference(case):
    rows, tol = case
    _assert_same_table(
        lambda: BivariateDegreeDist.from_entries(rows, tol=tol),
        lambda: reference_pair_table(rows, "u", "degree pair", tol),
        True,
    )


@given(faulty_tables())
def test_bound_table_validation_matches_reference(case):
    rows, tol = case
    _assert_same_table(
        lambda: BoundDist.from_entries(rows, tol=tol),
        lambda: reference_pair_table(rows, "P", "bound pair", tol),
        True,
    )


@given(faulty_tables(width=1))
def test_univariate_table_validation_matches_reference(case):
    rows, tol = case
    _assert_same_table(
        lambda: UnivariateDegreeDist._validated([l for l, _p in rows], [p for _l, p in rows], tol=tol),
        lambda: reference_univariate_table(rows, tol),
        False,
    )


def test_validation_names_first_bad_entry_in_input_order():
    # every key is checked before any probability, in input order, and the
    # first component of a key before the second
    with pytest.raises(NegativeIndex, match=r"\(0, -1\)"):
        BivariateDegreeDist.from_entries([(0, 0, math.nan), (0, -1, 1.0)])
    with pytest.raises(TypeError, match="float"):
        BivariateDegreeDist.from_entries([(0, 0, math.nan), (0, 1.0, 1.0), (-1, 0, 1.0)])
    with pytest.raises(TypeError, match="str"):
        BivariateDegreeDist.from_entries([(0, 0, 1.0), ("1", 1.0, 1.0)])
    with pytest.raises(NegativeIndex):
        BivariateDegreeDist.from_entries([(-1, 0, 1.0), (0, 1.0, 1.0)])
    # then the entries in order, whatever their fault
    with pytest.raises(DuplicateKey, match=r"\(1, 1\)"):
        BivariateDegreeDist.from_entries([(1, 1, 0.5), (1, 1, 0.5), (0, 0, math.nan)])
    with pytest.raises(ValidationError, match=r"u\(0, 0\) = nan is not a number"):
        BivariateDegreeDist.from_entries([(0, 0, math.nan), (1, 1, -0.5)])
    with pytest.raises(NegativeProbability, match=r"u\(1, 1\) = -0.5 is negative"):
        BivariateDegreeDist.from_entries([(1, 1, -0.5), (0, 0, math.nan)])
    # a key beyond int64 raises ValidationError, unless a bad key comes first
    with pytest.raises(NegativeIndex):
        BivariateDegreeDist.from_entries([(0, -1, 1.0), (2**64, 0, 1.0)])
    with pytest.raises(ValidationError, match=r"degree pair \(0, 99999999999999999999\) has a component above"):
        BivariateDegreeDist.from_entries([(0, 99999999999999999999, 1.0), (0, -1, 1.0)])
    with pytest.raises(ValidationError, match=r"bound pair \(99999999999999999999, 0\) has a component above"):
        BoundDist.from_text("1 1 0.5\n99999999999999999999 0 0.5\n")
    # a zero repeat is dropped, not a duplicate
    d = BivariateDegreeDist.from_entries([(1, 1, 0.0), (1, 1, 1.0), (1, 1, 0.0)])
    assert d.entries == {(1, 1): 1.0}


# --- block parser against the line-by-line reference --------------------------

GOOD_LINES = ["1 0 0.5", "+3 2 0.25", "1_000 7 1e-300", "0 0 inf", "4\t5\t0.125", " 2 2 -0.0 ",
              "3\xa02\xa00.5", "-1 0 0.5", "-3 +4 -2.5E-3", "1 1 -Infinity", "2 0 nan", "2 1 NaN",
              "0 3 1_0.5", "\u0661\u0662 3 0.5", "3 \u0663 \u0660.\u0665", "5\u30006\x1f0.5",
              "9223372036854775807 0 1", "9223372036854775808 0 1", "-99999999999999999999 1 0.5"]
SKIPPED_LINES = ["", "   ", "# comment", "   # indented comment", "\t#tab comment", "#1 2 0.5"]
BAD_LINES = ["0 1", "1 0 0.5 9", "1.5 0 0.5", "x 0 0.5", "1 0 zebra", "1 0 1e", "0x10 1 0.5",
             "1 0 0.5 # inline comment", "1 0 #0.5", "1e3 0 0.5", "1 0 0x1p3", "1 0 nan(1)", "1 0 0.5\x00"]
LINE_ENDS = ["\n", "\r\n", "\r", "\f", "\v", "\x1c", "\x85", "\u2028", " ", "\t"]


@st.composite
def table_texts(draw):
    lines = draw(st.lists(st.sampled_from(GOOD_LINES + SKIPPED_LINES), max_size=40))
    if draw(st.booleans()):
        # past the first block, so the malformed line sits in a later one
        lines = lines + [GOOD_LINES[0]] * draw(st.integers(1000, 1100)) + lines
    if draw(st.booleans()):
        # comment lines only at the top, as in the tables the library writes
        lines.sort(key=lambda line: "#" not in line)
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(BAD_LINES)))
    ends = draw(st.lists(st.sampled_from(LINE_ENDS), min_size=len(lines), max_size=len(lines)))
    return "".join(line + end for line, end in zip(lines, ends))


@given(table_texts())
@example("")
@example("# n k prob\n  # only comments\n\n")
@example("# n k prob\n1 0 0.5\n# comment below the first record\n0 1 0.5\n")
def test_parse_records_matches_line_reference(text):
    got = outcome(lambda: parsed_records(tableio.parse_records(text)))
    want = outcome(lambda: reference_parse_records(text))
    assert repr(got) == repr(want)


@given(table_texts())
def test_from_text_matches_reference(text):
    _assert_same_table(
        lambda: BivariateDegreeDist.from_text(text),
        lambda: reference_pair_table(reference_parse_records(text), "u", "degree pair", NORM_TOL),
        True,
    )


def test_parse_records_reads_plain_tables_into_arrays():
    text = truncated_double_poisson(0.6).to_text().replace("\n", "\r\n")
    columns = tableio.parse_records("  # indented comment\n\n" + text)
    assert [c.dtype for c in columns] == [np.int64, np.int64, np.float64]
    assert parsed_records(columns) == truncated_double_poisson(0.6).records()


def test_parse_error_in_a_later_block_cites_its_line():
    text = "# n k prob\n" + "0 0 1.0\n" * 1500 + "0 1\n"
    with pytest.raises(ParseError, match="line 1502"):
        tableio.parse_records(text)
