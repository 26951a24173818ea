import gc
import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import weakref
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import weakgiant
from helpers import outcome, reference_json17, run_cli, truncated_double_poisson, validate_schema
from weakgiant import NORM_TOL, BivariateDegreeDist, cli, evolution, gfsolver, interior_fixed_point, mcgraph, tableio

FORK = "# n k prob\n1 0 0.66666666666666663\n0 2 0.33333333333333331\n"
ATOM22 = "2 2 1.0\n"
ORIGIN = "0 0 1.0\n"
THREE_CLASS = "10 10 0.33333333333333331\n5 10 0.33333333333333331\n10 4 0.33333333333333337\n"
SRC = Path(weakgiant.__file__).resolve().parent.parent


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# --- analyze -----------------------------------------------------------------


def test_analyze_fork(tmp_path):
    code, out, err = run_cli(["analyze", write(tmp_path, "d.txt", FORK)])
    assert code == 0 and err == ""
    report = json.loads(out)
    validate_schema("analyze", report)
    assert report["giant_weak"] is False
    assert report["determinant_D"] == pytest.approx(4 / 9, abs=1e-12)
    assert report["mean_weak_size"] == pytest.approx(3.0, abs=1e-9)
    assert report["giant_weak_fraction"] is None


def test_analyze_atom22(tmp_path):
    code, out, _ = run_cli(["analyze", write(tmp_path, "d.txt", ATOM22)])
    assert code == 0
    report = json.loads(out)
    validate_schema("analyze", report)
    assert report["giant_weak"] is True
    assert report["mean_weak_size"] is None
    assert report["giant_weak_fraction"] == pytest.approx(1.0, abs=1e-9)


def test_analyze_reads_stdin():
    code, out, _ = run_cli(["analyze", "-"], stdin_text=FORK)
    assert code == 0
    assert json.loads(out)["giant_weak"] is False


def test_analyze_parse_error_cites_line(tmp_path):
    code, out, err = run_cli(["analyze", write(tmp_path, "d.txt", "1 x 0.5\n")])
    assert code == 2
    assert "line 1" in err


def test_analyze_missing_file_is_io_error(tmp_path):
    code, _, err = run_cli(["analyze", str(tmp_path / "nope.txt")])
    assert code == 2
    assert "i/o error" in err


def test_analyze_validation_error(tmp_path):
    code, _, err = run_cli(["analyze", write(tmp_path, "d.txt", "1 0 0.5\n0 1 0.6\n")])
    assert code == 3


def test_analyze_unbalanced_input(tmp_path):
    code, _, err = run_cli(["analyze", write(tmp_path, "d.txt", "1 0 1.0\n")])
    assert code == 3
    assert "out-degree" in err


def test_analyze_floats_round_trip(tmp_path):
    _, out, _ = run_cli(["analyze", write(tmp_path, "d.txt", FORK)])
    report = json.loads(out)
    # 17 significant digits reproduce the binary64 values bit for bit
    assert report["determinant_D"] == (2 / 3 - 0.0) ** 2 - (2 / 3 - 2 / 3) * (4 / 3 - 2 / 3)
    assert report["moments"]["mu02"] == 4 / 3


def test_analyze_writes_output_file(tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(
        ["analyze", write(tmp_path, "d.txt", FORK), "--out", str(out_path)]
    )
    assert code == 0 and out == ""
    assert json.loads(out_path.read_text())["giant_weak"] is False


def test_analyze_output_to_missing_directory_is_io_error(tmp_path):
    out_path = tmp_path / "no" / "such" / "report.json"
    code, out, err = run_cli(["analyze", write(tmp_path, "d.txt", FORK), "--out", str(out_path)])
    assert (code, out) == (2, "")
    assert err.startswith("weakgiant: i/o error: ") and err.count("\n") == 1
    assert not out_path.parent.exists()


def test_runs_are_byte_identical(tmp_path):
    args = ["analyze", write(tmp_path, "d.txt", FORK)]
    _, first, _ = run_cli(args)
    _, second, _ = run_cli(args)
    assert first == second


PINNED_TABLES = {
    "dp0.45": truncated_double_poisson(0.45).to_text(),
    "dp0.6": truncated_double_poisson(0.6).to_text(),
    "gate6": THREE_CLASS,
    "cap70": "70 70 1\n",
    # CRLF line ends, and an indented comment below the first record
    "dp0.6 crlf": "\r\n".join(
        (lines := truncated_double_poisson(0.6).to_text().splitlines())[:100] + ["   # indented comment"] + lines[100:]
    ) + "\r\n",
}
# sha256 of stdout.  A change that moves analytic digits on purpose updates
# these and says so in CHANGES.md.
PINNED_STDOUT = [
    ("dp0.45", ["analyze"],
     "fa58d62bf001e7d8c35ce45d65f2e4cb91301a75aec7435dc3af41149fb13bef"),
    ("dp0.45", ["gf", "--order", "60"],
     "2ae9f38e7ce80c5d122c03e03d551fc842cf243ae6fd22d569d32347d525993e"),
    ("dp0.6", ["analyze"],
     "a264613e69db4baec5b9ab809851c759aeafa37bcc3a80b22c4b2c56939e79a6"),
    ("dp0.6", ["gf", "--order", "60"],
     "63920b77678e887b33cf57e3806c4fafcd3483c883cfd38b5c500788e2c1105f"),
    ("gate6", ["evolve", "--at-conversion", "0.2"],
     "5ccef8eab93712ab550486a6913952da7ae659318c42e6852a833f25d971b800"),
    ("gate6", ["evolve", "--at-conversion", "0.6"],
     "cb4854d2ecb68d64ccbd1f77bfd938e95c0d8ac413303bd288c5bece872aff63"),
    ("gate6", ["evolve", "--critical"],
     "56422d4863d01bc0132b80d31bcb66f145ec48d97e9a5012cf3d0f898b320d2b"),
    ("gate6", ["evolve", "--at-time", "0.1"],
     "24c45972537c9c71777a39bc60d6a3f8377e061544f10554e04647229e60b4e0"),
    # classes never, asymptotic and finite; no input table
    (None, ["barycentric", "--atoms", "2,2", "3,1", "1,0", "--resolution", "5"],
     "c9481835fa39ea1f5846b2f6e45b4cc6575a3c562e5803dd0338e365e35fb547"),
    # a point with no capacity at all, points with no out-capacity, finite points
    (None, ["barycentric", "--atoms", "0,0", "2,2", "1,0", "--resolution", "4"],
     "cce0f46631f02ae1b5d03d6efef8c9711fce0370436ba185830282c44396ee92"),
    # null, true, and floats that print as integers ("rho": 1); no input table
    (None, ["flory", "--f1", "0", "--f2", "0.6", "--f3", "0.4", "--n", "3"],
     "d59520738496f1e22b13f72f205bb0f702940cefe5efd1fc6672a2acbd93e610"),
    (None, ["flory", "--f1", "0", "--f2", "0.6", "--f3", "0.4", "--n", "3", "--pa", "0.8"],
     "a9cd1606261960340caa96947ba98c343770fd701dd8b775e1e646fc48a654ce"),
    # 5,041 marginal rows
    ("cap70", ["evolve", "--at-conversion", "0.015"],
     "15485b5f2b23a1b20a2b9e9229611e3167c1c12cb46e39fd213f96ed7a9fbf78"),
    ("dp0.6 crlf", ["gf", "--order", "40"],
     "20c98bd6aaa9e49d12a0d01f3b6900a1c892ec6a1f5945691c95634052a4580b"),
]


@pytest.mark.parametrize("table, argv, digest", PINNED_STDOUT)
def test_analytic_stdout_is_pinned(tmp_path, table, argv, digest):
    if table is not None:
        argv = [argv[0], write(tmp_path, "t.txt", PINNED_TABLES[table]), *argv[1:]]
    code, out, _ = run_cli(argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest



@st.composite
def json_payloads(draw, depth=2):
    """A payload of the shapes the CLI writes, for ``cli._json17``, and the
    same payload for the reference, whose rows are lists of lists.  Floats
    include infinities and NaN."""
    new, ref = {}, {}
    for key in draw(st.lists(st.text(max_size=4), max_size=5, unique=True)):
        shape = draw(st.sampled_from(["scalar", "floats", "rows", "dict"][: 4 if depth else 3]))
        if shape == "scalar":
            new[key] = ref[key] = draw(st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text()))
        elif shape == "floats":
            new[key] = ref[key] = draw(st.lists(st.floats(), max_size=6))
        elif shape == "rows":
            size = draw(st.integers(0, 6))
            column = st.lists(st.integers(0, 2**63 - 1), min_size=size, max_size=size)
            columns = [draw(column) for _ in range(draw(st.sampled_from([1, 2])))]
            columns.append(draw(st.lists(st.floats(), min_size=size, max_size=size)))
            new[key] = cli._Rows(columns)
            ref[key] = [list(row) for row in zip(*columns)]
        else:
            new[key], ref[key] = draw(json_payloads(depth - 1))
    return new, ref


@given(json_payloads())
def test_writer_matches_recursive_reference(payload):
    new, ref = payload
    assert outcome(lambda: cli._json17(new)) == outcome(lambda: reference_json17(ref))


@pytest.mark.parametrize("text", ["", "# n k prob\n  # indented comment\n\n"])
def test_table_without_records_exits_3(tmp_path, text):
    code, out, err = run_cli(["analyze", write(tmp_path, "d.txt", text)])
    assert (code, out) == (3, "")
    assert err == "weakgiant: invalid input: probabilities sum to 0.0, not 1 within 1e-09\n"


def test_key_beyond_int64_exits_3(tmp_path):
    code, out, err = run_cli(["analyze", write(tmp_path, "d.txt", "0 0 0.5\n99999999999999999999 0 0.5\n")])
    assert (code, out) == (3, "")
    assert err == (
        "weakgiant: invalid input: degree pair (99999999999999999999, 0) has a component above "
        "9223372036854775807\n"
    )


def test_no_request_builds_entries(tmp_path, monkeypatch):
    def unread(self):
        raise AssertionError(f"{type(self).__name__}.entries read")

    for cls in (BivariateDegreeDist, evolution.BoundDist, evolution.DegreeState):
        monkeypatch.setattr(cls, "entries", property(unread))
    for table, argv, digest in PINNED_STDOUT:
        if table is not None:
            argv = [argv[0], write(tmp_path, "t.txt", PINNED_TABLES[table]), *argv[1:]]
        code, out, _ = run_cli(argv)
        assert code == 0
        assert _sha256(out) == digest
    dist = write(tmp_path, "d.txt", PINNED_TABLES["dp0.6"])
    code, out, _ = run_cli(["simulate", dist, "--mode", "config", "--vertices", "2000"])
    assert code == 0
    assert _sha256(out) == PINNED_CONFIG_STDOUT
    code, out, _ = run_cli(
        ["simulate", write(tmp_path, "p.txt", ATOM22), "--mode", "kmc", "--vertices", "2000",
         "--target-conversion", "0.3", "--dump-graph", str(tmp_path / "g.txt"),
         "--dump-trajectory", str(tmp_path / "traj.tsv")]
    )
    assert code == 0
    assert _sha256(out) == PINNED_KMC["stdout"]


@pytest.mark.parametrize("command", ["analyze", "gf"])
def test_request_sums_each_moment_once(tmp_path, monkeypatch, command):
    calls = []
    moment = BivariateDegreeDist.moment

    def spy(self, i, j):
        calls.append((i, j))
        return moment(self, i, j)

    monkeypatch.setattr(BivariateDegreeDist, "moment", spy)
    code, _, _ = run_cli([command, write(tmp_path, "d.txt", PINNED_TABLES["dp0.6"])])
    assert code == 0
    assert sorted(calls) == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]


@pytest.mark.parametrize(
    "mode", [["--critical"], ["--at-time", "0.1"], ["--at-conversion", "0.2"]]
)
def test_evolve_reads_capacity_moments_once(tmp_path, monkeypatch, mode):
    built = []
    nu_moments = evolution.NuMoments

    def spy(*args, **kwargs):
        built.append(1)
        return nu_moments(*args, **kwargs)

    monkeypatch.setattr(evolution, "NuMoments", spy)
    code, _, _ = run_cli(["evolve", write(tmp_path, "p.txt", THREE_CLASS), *mode])
    assert code == 0
    assert len(built) == 1


# --- gf ------------------------------------------------------------------------


@pytest.mark.parametrize("order", ["0", "-3"])
def test_gf_rejects_nonpositive_order(tmp_path, order):
    code, out, err = run_cli(["gf", write(tmp_path, "d.txt", FORK), "--order", order])
    assert code == 3
    assert out == ""
    assert "invalid input" in err and "order" in err


def test_gf_fork(tmp_path):
    code, out, _ = run_cli(["gf", write(tmp_path, "d.txt", FORK), "--order", "10"])
    assert code == 0
    result = json.loads(out)
    validate_schema("gf", result)
    assert result["s_in"] == 1.0 and result["s_out"] == 1.0
    assert result["giant_fraction"] == 0.0
    assert result["size_distribution"][2] == pytest.approx(1.0, abs=1e-9)
    assert len(result["size_distribution"]) == 10


def test_gf_origin(tmp_path):
    code, out, _ = run_cli(["gf", write(tmp_path, "d.txt", ORIGIN), "--order", "3"])
    assert code == 0
    result = json.loads(out)
    assert result["size_distribution"] == [1.0, 0.0, 0.0]
    assert result["giant_fraction"] == 0.0


def test_gf_non_convergence_exits_4(tmp_path, monkeypatch):
    near_critical = truncated_double_poisson(0.500001)
    text = "\n".join(f"{n} {k} {p!r}" for n, k, p in near_critical.records())
    monkeypatch.setattr(gfsolver, "MAX_ITER", 2)
    code, _, err = run_cli(["gf", write(tmp_path, "d.txt", text), "--order", "5"])
    assert code == 4
    assert "residual" in err


def test_gf_stalled_iteration_exits_4(tmp_path, monkeypatch):
    # a bound below the roundoff floor: Newton stops moving first
    table = write(tmp_path, "d.txt", PINNED_TABLES["dp0.6"])
    monkeypatch.setattr(gfsolver, "FP_TOL", 1e-30)
    code, out, err = run_cli(["gf", table, "--order", "5"])
    assert (code, out) == (4, "")
    assert "stopped moving" in err


def huge_degree_table(K):
    return f"0 0 0.4\n1 0 0.25\n0 1 0.25\n{K} {K} 0.1\n"


@pytest.mark.parametrize("K", [2**31 - 1, 2**31 + 1, 3037000500])
def test_huge_degrees_solve_cleanly(tmp_path, K):
    # exponents beyond int32, and pairs whose product leaves int64
    table = write(tmp_path, "d.txt", huge_degree_table(K))
    code, out, err = run_cli(["analyze", table])
    assert (code, err) == (0, "")
    validate_schema("analyze", json.loads(out))
    code, out, err = run_cli(["gf", table, "--order", "3"])
    assert (code, err) == (0, "")
    result = json.loads(out)
    # w(2): a (1, 0) vertex on the edge of a (0, 1) vertex, or the reverse;
    # no table term has a + b = 2, so w(3) = 0.
    mu = Fraction(0.25) + K * Fraction(0.1)
    w1, w2, w3 = result["size_distribution"]
    assert (w1, w3) == (0.4, 0.0)
    assert abs(w2 - float(Fraction(0.125) / mu)) <= 1e-15 * w2
    # s^K underflows, so the least fixed point is s_in = 0.25 / mu
    bound = interior_fixed_point(BivariateDegreeDist.from_text(huge_degree_table(K))).error_bound
    assert abs(result["s_in"] - float(Fraction(0.25) / mu)) <= bound


@pytest.mark.parametrize("command", [["analyze"], ["gf", "--order", "3"]])
def test_int64_max_degree_fails_with_one_line(tmp_path, command):
    # s* is about 2.7e-19: Newton's first step does not move t = 1, and the
    # stalled iterate is returned once s* <= tol/2 is verified
    table = write(tmp_path, "d.txt", huge_degree_table(2**63 - 1))
    code, out, err = run_cli([command[0], table, *command[1:]])
    assert (code, err) == (0, "")
    result = json.loads(out)
    if command[0] == "gf":
        assert 0.0 <= result["s_in"] <= 1e-12 and 0.0 <= result["s_out"] <= 1e-12
        assert result["giant_fraction"] == 0.6
    else:
        assert result["giant_weak_fraction"] == 0.6
    solution = interior_fixed_point(BivariateDegreeDist.from_text(huge_degree_table(2**63 - 1)))
    assert solution.s_in <= 1e-12 and solution.error_bound <= 1e-12


@pytest.mark.parametrize("flag, value", [("--fp-tol", "nan"), ("--max-iter", "0")])
def test_gf_rejects_bad_solver_limits(tmp_path, flag, value):
    # the solver's bound and budget are fixed: gf takes neither flag, at
    # any value
    table = write(tmp_path, "d.txt", PINNED_TABLES["dp0.6"])
    code, out, err = run_cli(["gf", table, "--order", "5", flag, value])
    assert (code, out) == (2, "")
    assert err.splitlines()[0].startswith("usage: weakgiant gf")


# --- evolve --------------------------------------------------------------------


def test_evolve_critical_atom22(tmp_path):
    code, out, _ = run_cli(["evolve", write(tmp_path, "p.txt", ATOM22), "--critical"])
    assert code == 0
    result = json.loads(out)
    validate_schema("evolve", result)
    assert result["class"] == "finite"
    assert result["c_n_crit"] == pytest.approx(1 / 3, abs=1e-12)
    assert result["c_k_crit"] == pytest.approx(1 / 3, abs=1e-12)
    assert result["t_crit"] == pytest.approx(0.25, abs=1e-12)


def test_evolve_critical_never(tmp_path):
    bounds = write(tmp_path, "p.txt", "1 0 0.5\n0 1 0.5\n")
    code, out, _ = run_cli(["evolve", bounds, "--critical"])
    assert code == 0
    result = json.loads(out)
    validate_schema("evolve", result)
    assert result["class"] == "never"
    assert result["c_n_crit"] is None and result["t_crit"] is None


def test_evolve_at_time(tmp_path):
    code, out, _ = run_cli(
        ["evolve", write(tmp_path, "p.txt", THREE_CLASS), "--at-time", "0.1"]
    )
    assert code == 0
    result = json.loads(out)
    validate_schema("evolve", result)
    assert result["t"] == 0.1
    assert result["c_n"] == pytest.approx(result["mu"] / (25 / 3), rel=1e-12)
    total = math.fsum(p for _n, _k, p in result["marginal"])
    assert total == pytest.approx(1.0, abs=1e-9)
    # t = 0.1 is well past this table's transition time
    assert result["report"]["giant_weak"] is True
    assert result["report"]["mean_weak_size"] is None


def test_evolve_at_conversion_round_trips_time(tmp_path):
    bounds = write(tmp_path, "p.txt", ATOM22)
    code, out, _ = run_cli(["evolve", bounds, "--at-conversion", "0.25"])
    assert code == 0
    result = json.loads(out)
    validate_schema("evolve", result)
    assert result["c_n"] == 0.25
    assert result["mu"] == 0.5
    assert result["t"] == pytest.approx(0.25 / (2 * 0.75), rel=1e-12)


def test_evolve_unreachable_conversion_exits_5(tmp_path):
    code, _, err = run_cli(
        ["evolve", write(tmp_path, "p.txt", ATOM22), "--at-conversion", "1.5"]
    )
    assert code == 5
    assert "unreachable" in err
    # the supremum itself has no finite time
    code, _, err = run_cli(
        ["evolve", write(tmp_path, "p.txt", ATOM22), "--at-conversion", "1"]
    )
    assert code == 5
    assert "c_n = 1.0 outside [0, 1.0)" in err
    code, _, _ = run_cli(
        ["evolve", write(tmp_path, "p.txt", THREE_CLASS), "--at-conversion", "0.97"]
    )
    assert code == 5


def test_evolve_nan_conversion_exits_3(tmp_path):
    code, out, err = run_cli(
        ["evolve", write(tmp_path, "p.txt", ATOM22), "--at-conversion", "nan"]
    )
    assert code == 3
    assert out == ""
    assert "invalid input: c_n = nan is not a number" in err


def test_evolve_rejects_nan_probability(tmp_path):
    code, out, err = run_cli(
        ["evolve", write(tmp_path, "p.txt", "2 2 1.0\n3 3 nan\n"), "--critical"]
    )
    assert code == 3
    assert out == ""
    assert "not a number" in err


@pytest.mark.parametrize("command, mode", [("evolve", ["--critical"]), ("analyze", [])])
def test_nan_tolerance_exits_3(tmp_path, command, mode):
    # the table sums to 0.5; a NaN tolerance used to let it through
    table = write(tmp_path, "half.txt", "1 0 0.25\n0 1 0.25\n")
    code, out, err = run_cli([command, table, *mode, "--tol", "nan"])
    assert code == 3
    assert out == ""
    assert "tolerance nan" in err and "mean" not in err


LOPSIDED = "100000 0 0.5\n0 100000 0.5\n"


@pytest.mark.parametrize(
    "table, mode",
    [
        ("1030 1030 1\n", ["--at-conversion", "0.001"]),
        ("1030 1030 1\n", ["--at-time", "1e-6"]),
        (LOPSIDED, ["--at-conversion", "0.5"]),
        (LOPSIDED, ["--at-time", "0.001"]),
    ],
    ids=["1030-conversion", "1030-time", "lopsided-conversion", "lopsided-time"],
)
def test_evolve_capacities_beyond_float_binomials(tmp_path, table, mode):
    # comb(m, j) leaves the float range from m = 1030
    code, out, err = run_cli(["evolve", write(tmp_path, "p.txt", table), *mode])
    assert (code, err) == (0, "")
    validate_schema("evolve", json.loads(out))


def test_evolve_rejects_edgeless_bounds(tmp_path):
    code, _, err = run_cli(
        ["evolve", write(tmp_path, "p.txt", "3 0 1.0\n"), "--critical"]
    )
    assert code == 3


# --- flory ---------------------------------------------------------------------


def test_flory_stoichiometric():
    code, out, _ = run_cli(
        ["flory", "--f1", "0", "--f2", "0.6", "--f3", "0.4", "--n", "3"]
    )
    assert code == 0
    result = json.loads(out)
    validate_schema("flory", result)
    assert result["alpha_c"] == 0.5
    assert result["p_A_crit"] == pytest.approx(1 / math.sqrt(2), abs=1e-12)
    assert result["c_n_crit"] == pytest.approx(1 / math.sqrt(2), abs=1e-12)
    assert result["gelled"] is None


def test_flory_linear_mixture_has_null_threshold():
    code, out, _ = run_cli(
        ["flory", "--f1", "0.5", "--f2", "0.5", "--f3", "0", "--n", "2"]
    )
    assert code == 0
    result = json.loads(out)
    validate_schema("flory", result)
    assert result["c_n_crit"] is None


def test_flory_gel_flag():
    code, out, _ = run_cli(
        ["flory", "--f1", "0", "--f2", "0.6", "--f3", "0.4", "--n", "3", "--pa", "0.8"]
    )
    assert code == 0
    assert json.loads(out)["gelled"] is True


def test_flory_nan_fraction_exit_3():
    code, out, err = run_cli(
        ["flory", "--f1", "nan", "--f2", "0.5", "--f3", "0.5", "--n", "3"]
    )
    assert code == 3
    assert out == ""
    assert "f1" in err


def test_flory_nan_conversion_exit_3():
    code, out, err = run_cli(
        ["flory", "--f1", "0.5", "--f2", "0.3", "--f3", "0.2", "--n", "3", "--pa", "nan"]
    )
    assert code == 3
    assert out == ""
    assert "conversion nan" in err


def test_flory_bad_fractions_exit_3():
    code, _, err = run_cli(
        ["flory", "--f1", "0.5", "--f2", "0.3", "--f3", "0.1", "--n", "3"]
    )
    assert code == 3


@pytest.mark.parametrize(
    "mix",
    [
        (0.30000000000000293, 0.599999999999996, 0.10000000000000099, 3),  # gel point in the band below 1
        (0.0, 0.6, 0.4, 3),
        (0.5, 0.5, 0.0, 2),
    ],
    ids=["band", "stoichiometric", "linear"],
)
def test_flory_threshold_is_null_exactly_when_process_is_not_finite(tmp_path, mix):
    f1, f2, f3, n = mix
    code, out, _ = run_cli(["flory", "--f1", repr(f1), "--f2", repr(f2), "--f3", repr(f3), "--n", str(n)])
    assert code == 0
    bounds = write(tmp_path, "p.txt", weakgiant.to_bound_dist(weakgiant.FloryMixture(*mix)).to_text())
    code, crit, _ = run_cli(["evolve", bounds, "--critical"])
    assert code == 0
    assert (json.loads(out)["c_n_crit"] is None) == (json.loads(crit)["class"] != "finite")


# --- simulate --------------------------------------------------------------------


def test_simulate_config(tmp_path):
    dist = write(tmp_path, "d.txt", FORK)
    code, out, _ = run_cli(
        ["simulate", dist, "--mode", "config", "--vertices", "3000"]
    )
    assert code == 0
    result = json.loads(out)
    validate_schema("simulate", result)
    assert result["mode"] == "config"
    assert result["vertices"] == 3000
    assert result["t_final"] is None
    hist = dict((s, p) for s, p in result["size_histogram"])
    assert hist[3] > 0.9


def test_simulate_kmc_with_dumps(tmp_path):
    bounds = write(tmp_path, "p.txt", ATOM22)
    graph_path = tmp_path / "g.txt"
    traj_path = tmp_path / "traj.tsv"
    code, out, _ = run_cli(
        [
            "simulate",
            bounds,
            "--mode",
            "kmc",
            "--vertices",
            "2000",
            "--target-conversion",
            "0.25",
            "--dump-graph",
            str(graph_path),
            "--dump-trajectory",
            str(traj_path),
        ]
    )
    assert code == 0
    result = json.loads(out)
    validate_schema("simulate", result)
    assert result["mode"] == "kmc"
    assert result["edges"] == result["vertices"] // 2  # c=0.25 of 2N in-spots
    assert result["t_final"] > 0

    graph_lines = graph_path.read_text().splitlines()
    assert graph_lines[0] == "2000"
    assert len(graph_lines) == 1 + result["edges"]
    src, dst = graph_lines[1].split()
    assert 0 <= int(src) < 2000 and 0 <= int(dst) < 2000

    traj_lines = traj_path.read_text().splitlines()
    assert traj_lines[0] == "# t mu_hat"
    assert len(traj_lines) == 1 + result["edges"]
    t0, mu0 = traj_lines[1].split("\t")
    assert float(t0) > 0 and float(mu0) == 1 / 2000


def test_simulate_same_seed_is_byte_identical(tmp_path):
    bounds = write(tmp_path, "p.txt", ATOM22)
    args = [
        "simulate", bounds, "--mode", "kmc", "--vertices", "1000",
        "--target-conversion", "0.3", "--seed", "42",
    ]
    _, first, _ = run_cli(args)
    _, second, _ = run_cli(args)
    assert first == second
    _, third, _ = run_cli(args[:-1] + ["43"])
    assert first != third


# sha256 of the Monte Carlo outputs at the default seed.  They move only
# with the RNG stream or the output format; a change that moves them on
# purpose updates them and says so in CHANGES.md.
PINNED_CONFIG_STDOUT = "dab08ad93e9c9e8648100715842f2fd3e677feb12fd7af8c020eb24856e9ad52"
PINNED_KMC = {
    "stdout": "14599c9e6b0653cbbece96d93653b098f109096197dc968784ade115198f7127",
    "trajectory": "4609594e3b2995f9e75f56c7be101808c2fdddebb400e1430578e270e0b26c9b",
    "graph": "c6196bf92df72428dbb8e21300de0b804e5594132e1d911e7d5cb908845c7feb",
}


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_simulate_config_stdout_is_pinned(tmp_path):
    dist = write(tmp_path, "d.txt", PINNED_TABLES["dp0.6"])
    code, out, _ = run_cli(["simulate", dist, "--mode", "config", "--vertices", "2000"])
    assert code == 0
    assert _sha256(out) == PINNED_CONFIG_STDOUT


def test_simulate_kmc_outputs_are_pinned(tmp_path):
    graph_path, traj_path = tmp_path / "g.txt", tmp_path / "traj.tsv"
    code, out, _ = run_cli(
        ["simulate", write(tmp_path, "p.txt", ATOM22), "--mode", "kmc", "--vertices", "2000",
         "--target-conversion", "0.3", "--dump-graph", str(graph_path),
         "--dump-trajectory", str(traj_path)]
    )
    assert code == 0
    digests = {
        "stdout": _sha256(out),
        "trajectory": _sha256(traj_path.read_text()),
        "graph": _sha256(graph_path.read_text()),
    }
    assert digests == PINNED_KMC


@pytest.mark.parametrize("mode", ["config", "kmc"])
def test_simulate_negative_seed_exits_3(tmp_path, mode):
    table = write(tmp_path, "t.txt", FORK if mode == "config" else ATOM22)
    code, out, err = run_cli(
        ["simulate", table, "--mode", mode, "--vertices", "100", "--seed", "-1"]
    )
    assert code == 3
    assert out == ""
    assert "invalid input" in err and "Traceback" not in err


def test_simulate_zero_vertices_exit_3(tmp_path):
    dist = write(tmp_path, "d.txt", FORK)
    code, _, _ = run_cli(["simulate", dist, "--mode", "config", "--vertices", "0"])
    assert code == 3


def test_simulate_config_rejects_unbalanced_law(tmp_path):
    # mean in-degree 1.0, mean out-degree 0.5: not edge-balanced
    dist = write(tmp_path, "d.txt", "2 0 0.5\n0 1 0.5\n")
    code, out, err = run_cli(["simulate", dist, "--mode", "config", "--vertices", "1000"])
    assert code == 3
    assert out == ""
    assert "out-degree" in err


def test_simulate_config_draws_an_off_balance_table_at_loose_tol(tmp_path):
    # mean n - k of 0.75 against a target imbalance of 0: the proposals are
    # tilted toward 0, and 1e5 vertices draw
    dist = write(tmp_path, "d.txt", "2 0 0.5\n0 1 0.25\n0 0 0.25\n")
    code, out, err = run_cli(["simulate", dist, "--mode", "config", "--vertices", "100000", "--tol", "1"])
    assert (code, err) == (0, "")
    assert json.loads(out)["mode"] == "config"


# Off by 5e-4 in normalization; the degree table also in balance (mean
# in-degree 0.5005, mean out-degree 0.5).
LOOSE_BOUNDS = "2 2 0.5005\n1 1 0.5\n"
LOOSE_DEGREES = "1 0 0.5005\n0 1 0.5\n"


@pytest.mark.parametrize(
    "table, argv",
    [
        (LOOSE_BOUNDS, ["evolve", "--at-time", "0.1"]),
        (LOOSE_BOUNDS, ["evolve", "--at-conversion", "0.2"]),
        (LOOSE_DEGREES, ["analyze"]),
        (LOOSE_DEGREES, ["gf", "--order", "5"]),
        (LOOSE_DEGREES, ["simulate", "--mode", "config", "--vertices", "100"]),
    ],
    ids=["evolve-time", "evolve-conversion", "analyze", "gf", "simulate-config"],
)
def test_tol_bounds_every_check_of_a_table(tmp_path, table, argv):
    command, *flags = argv
    path = write(tmp_path, "t.txt", table)
    code, out, err = run_cli([command, path, *flags, "--tol", "1e-3"])
    assert (code, err) == (0, "") and out
    code, out, err = run_cli([command, path, *flags])
    assert (code, out) == (3, "")
    assert "not 1 within 1e-09" in err


def test_imbalance_is_reported_before_bad_solver_limits(tmp_path):
    # the table is checked when it is read, before the size law reads its order
    path = write(tmp_path, "d.txt", "2 0 0.5\n0 1 0.5\n")
    code, out, err = run_cli(["gf", path, "--order", "0"])
    assert (code, out) == (3, "")
    assert "out-degree" in err and "order" not in err


def test_simulate_rejects_stop_flags_in_config_mode(tmp_path):
    dist = write(tmp_path, "d.txt", FORK)
    code, _, err = run_cli(
        ["simulate", dist, "--mode", "config", "--vertices", "100", "--t-end", "1.0"]
    )
    assert code == 3
    assert "kmc" in err


def test_simulate_rejects_trajectory_dump_in_config_mode(tmp_path):
    dist = write(tmp_path, "d.txt", FORK)
    code, out, err = run_cli(
        ["simulate", dist, "--mode", "config", "--vertices", "100",
         "--dump-trajectory", str(tmp_path / "traj.tsv")]
    )
    assert (code, out) == (3, "")
    assert "kmc" in err
    assert not (tmp_path / "traj.tsv").exists()


def test_simulate_rejects_empty_trajectory_path_in_config_mode(tmp_path):
    dist = write(tmp_path, "d.txt", FORK)
    code, out, err = run_cli(
        ["simulate", dist, "--mode", "config", "--vertices", "100", "--dump-trajectory="]
    )
    assert (code, out) == (3, "")
    assert "kmc" in err


@pytest.mark.parametrize("flag", ["--dump-trajectory=", "--dump-graph="])
def test_simulate_kmc_empty_dump_path_is_io_error(tmp_path, flag):
    # an empty path names no file: writing to it fails, it is not ignored
    bounds = write(tmp_path, "p.txt", ATOM22)
    code, out, err = run_cli(
        ["simulate", bounds, "--mode", "kmc", "--vertices", "100", "--target-conversion", "0.3", flag]
    )
    assert (code, out) == (2, "")
    assert err.startswith("weakgiant: i/o error: ")


@pytest.mark.parametrize("bad", ["out", "dump"])
def test_simulate_failed_write_leaves_no_files(tmp_path, bad):
    # a request that exits non-zero leaves neither its result nor its dumps
    paths = {name: tmp_path / name for name in ("out.json", "g.txt", "traj.tsv")}
    missing = tmp_path / "no" / "such" / "file"
    argv = ["simulate", write(tmp_path, "p.txt", ATOM22), "--mode", "kmc", "--vertices", "100",
            "--target-conversion", "0.3",
            "--out", str(missing if bad == "out" else paths["out.json"]),
            "--dump-graph", str(paths["g.txt"]),
            "--dump-trajectory", str(missing if bad == "dump" else paths["traj.tsv"])]
    code, out, err = run_cli(argv)
    assert (code, out) == (2, "")
    assert err.startswith("weakgiant: i/o error: ")
    assert not any(path.exists() for path in paths.values())
    assert not missing.parent.exists()


@pytest.mark.parametrize("bad", ["out", "dump"])
def test_simulate_failed_write_keeps_existing_files(tmp_path, bad):
    # a failed request removes only the files it created: the result and
    # dump files that were there before keep their contents
    paths = {name: tmp_path / name for name in ("out.json", "g.txt", "traj.tsv")}
    for path in paths.values():
        path.write_text("before\n")
    missing = tmp_path / "no" / "such" / "file"
    argv = ["simulate", write(tmp_path, "p.txt", ATOM22), "--mode", "kmc", "--vertices", "100",
            "--target-conversion", "0.3",
            "--out", str(missing if bad == "out" else paths["out.json"]),
            "--dump-graph", str(paths["g.txt"]),
            "--dump-trajectory", str(missing if bad == "dump" else paths["traj.tsv"])]
    code, out, err = run_cli(argv)
    assert (code, out) == (2, "")
    assert err.startswith("weakgiant: i/o error: ")
    assert [path.read_text() for path in paths.values()] == ["before\n"] * 3


def test_simulate_kmc_rejects_nan_t_end(tmp_path):
    bounds = write(tmp_path, "p.txt", ATOM22)
    code, out, err = run_cli(
        ["simulate", bounds, "--mode", "kmc", "--vertices", "100", "--t-end", "nan"]
    )
    assert code == 3
    assert out == ""
    assert "t_end" in err


def test_simulate_kmc_t_end_without_out_spots_makes_no_event(tmp_path):
    # on 10 vertices no (0, 1) class is drawn, so no edge can form
    bounds = write(tmp_path, "p.txt", "1 0 0.999999999999\n0 1 1e-12\n")
    code, out, _ = run_cli(["simulate", bounds, "--mode", "kmc", "--vertices", "10", "--t-end", "0.5"])
    assert code == 0
    result = json.loads(out)
    validate_schema("simulate", result)
    assert result["edges"] == 0 and result["t_final"] == 0
    assert result["size_histogram"] == [[1, 1]]


@pytest.mark.parametrize("dump", [False, True])
def test_simulate_kmc_records_trajectory_only_for_dump(tmp_path, monkeypatch, dump):
    record = []
    kmc_simulate = mcgraph.kmc_simulate

    def spy(*args, **kwargs):
        record.append(kwargs.get("record_trajectory", True))
        return kmc_simulate(*args, **kwargs)

    monkeypatch.setattr(mcgraph, "kmc_simulate", spy)
    argv = ["simulate", write(tmp_path, "p.txt", ATOM22), "--mode", "kmc",
            "--vertices", "500", "--target-conversion", "0.3"]
    if dump:
        argv += ["--dump-trajectory", str(tmp_path / "traj.tsv")]
    code, _, _ = run_cli(argv)
    assert code == 0
    assert record == [dump]


def test_simulate_kmc_unreachable_target_exit_5(tmp_path):
    bounds = write(tmp_path, "p.txt", "2 1 1.0\n")
    code, _, _ = run_cli(
        ["simulate", bounds, "--mode", "kmc", "--vertices", "500",
         "--target-conversion", "0.9"]
    )
    assert code == 5


# --- barycentric ------------------------------------------------------------------


def test_barycentric_grid_output():
    code, out, _ = run_cli(
        ["barycentric", "--atoms", "1,0", "0,1", "3,0", "--resolution", "4"]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# f1 f2 f3 class c_n_crit t_crit"
    assert len(lines) == 1 + 15
    rows = [line.split("\t") for line in lines[1:]]
    classes = {row[3] for row in rows}
    assert classes == {"never"}
    # sentinel fields stay empty, never fake numbers
    assert all(row[4] == "" and row[5] == "" for row in rows)


def test_barycentric_identical_atoms():
    code, out, _ = run_cli(
        ["barycentric", "--atoms", "2,2", "2,2", "2,2", "--resolution", "3"]
    )
    assert code == 0
    rows = [line.split("\t") for line in out.splitlines()[1:]]
    assert len(rows) == 10
    for row in rows:
        assert row[3] == "finite"
        assert float(row[4]) == pytest.approx(1 / 3, abs=1e-12)
        assert float(row[5]) == pytest.approx(0.25, abs=1e-12)


def test_barycentric_coarse_resolution_exit_3():
    code, _, _ = run_cli(
        ["barycentric", "--atoms", "1,0", "0,1", "3,0", "--resolution", "1"]
    )
    assert code == 3


def test_barycentric_malformed_atom_exit_2():
    code, _, err = run_cli(
        ["barycentric", "--atoms", "1;0", "0,1", "3,0", "--resolution", "4"]
    )
    assert code == 2
    code, _, err = run_cli(
        ["barycentric", "--atoms", "1,x", "2,2", "1,0", "--resolution", "3"]
    )
    assert code == 2
    assert "must hold two integers" in err


# --- parser behavior ----------------------------------------------------------------


def test_unknown_subcommand_exits_2():
    code, _, _ = run_cli(["frobnicate"])
    assert code == 2


FLORY = ["flory", "--f1", "0", "--f2", "0.6", "--f3", "0.4", "--n", "3"]
BARYCENTRIC = ["barycentric", "--atoms", "2,2", "1,0", "0,1", "--resolution", "4"]


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "-", "--seed", "1"],
        ["gf", "-", "--seed", "1"],
        ["evolve", "-", "--critical", "--seed", "1"],
        [*FLORY, "--seed", "1"],
        [*BARYCENTRIC, "--seed", "1"],
        [*FLORY, "--tol", "1e-3"],
        [*BARYCENTRIC, "--tol", "1e-3"],
    ],
    ids=["analyze-seed", "gf-seed", "evolve-seed", "flory-seed", "barycentric-seed", "flory-tol", "barycentric-tol"],
)
def test_flag_a_subcommand_does_not_read_exits_2(argv):
    # only simulate draws random numbers; flory and barycentric read no table
    code, out, err = run_cli(argv, stdin_text=FORK)
    assert (code, out) == (2, "")
    assert err.startswith(f"usage: weakgiant {argv[0]} ")
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in err


def test_evolve_requires_exactly_one_mode(tmp_path):
    bounds = write(tmp_path, "p.txt", ATOM22)
    code, _, _ = run_cli(["evolve", bounds])
    assert code == 2
    code, _, _ = run_cli(["evolve", bounds, "--critical", "--at-time", "1.0"])
    assert code == 2


def test_shared_parser_leaks_no_state_between_requests(tmp_path):
    """One process, one parser: each request prints what a fresh process
    prints for it."""
    from weakgiant import cli

    bounds = write(tmp_path, "p.txt", THREE_CLASS)
    dist = write(tmp_path, "d.txt", PINNED_TABLES["dp0.45"])
    requests = [
        ["evolve", bounds, "--critical"],
        ["evolve", bounds, "--at-time", "0.1"],
        ["gf", dist, "--order", "7"],
        ["gf", dist],
        ["gf", dist, "--order", "seven"],
        ["analyze", dist, "--tol", "1e-6"],
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    codes = []
    for argv in requests:
        code, out, err = run_cli(argv)
        fresh = subprocess.run(
            [sys.executable, "-m", "weakgiant.cli", *argv], capture_output=True, text=True, env=env, timeout=60
        )
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)
        codes.append(code)
    assert codes == [0, 0, 0, 0, 2, 0]
    assert cli.build_parser() is cli.build_parser()


# --- heap policy ------------------------------------------------------------------

# Six requests in one process; each prints its exit code and minor page faults.
HEAP_PROBE = """
import contextlib, io, resource, sys
from weakgiant import cli
for _ in range(6):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(sys.argv[1:])
    print(code, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap thresholds are glibc's")
def test_repeated_requests_reuse_mapped_heap_pages(tmp_path):
    # with glibc's dynamic thresholds each request at N = 1e5 maps and zeroes
    # its 0.5-2 MB arrays afresh, some 800 faults; the first two requests
    # grow the heap
    dist = write(tmp_path, "d.txt", PINNED_TABLES["dp0.6"])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    probe = subprocess.run(
        [sys.executable, "-c", HEAP_PROBE, "simulate", dist, "--mode", "config", "--vertices", "100000"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert probe.returncode == 0, probe.stderr
    rows = [tuple(map(int, line.split())) for line in probe.stdout.splitlines()]
    assert [code for code, _ in rows] == [0] * 6
    assert all(faults < 100 for _, faults in rows[2:]), rows


def _libc_without_mallopt(name):
    return object()  # as on macOS


def _no_libc_handle(name):
    raise OSError("no C library to open")


@pytest.mark.parametrize("libc", [_libc_without_mallopt, _no_libc_handle], ids=["no-mallopt", "no-handle"])
def test_requests_run_where_libc_has_no_mallopt(tmp_path, monkeypatch, libc):
    argv = ["simulate", write(tmp_path, "d.txt", PINNED_TABLES["dp0.6"]), "--mode", "config", "--vertices", "2000"]
    expected = run_cli(argv)
    assert expected[0] == 0
    lookups = []
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: lookups.append(name) or libc(name))
    cli._fix_heap_thresholds.cache_clear()
    try:
        assert run_cli(argv) == run_cli(argv) == expected
    finally:
        cli._fix_heap_thresholds.cache_clear()
    assert lookups == [None]  # once per process


# --- in-process reuse -------------------------------------------------------------


def _pinned_digest(table, argv):
    return next(digest for t, a, digest in PINNED_STDOUT if (t, a) == (table, argv))


def test_pipeline_on_one_table_reads_and_solves_once(tmp_path, monkeypatch):
    sums, builds = [], []
    moment, edge_rows = BivariateDegreeDist.moment, gfsolver._edge_rows
    monkeypatch.setattr(BivariateDegreeDist, "moment", lambda self, i, j: sums.append((i, j)) or moment(self, i, j))
    monkeypatch.setattr(gfsolver, "_edge_rows", lambda *args: builds.append(1) or edge_rows(*args))
    dist = write(tmp_path, "d.txt", PINNED_TABLES["dp0.6"])
    for argv in (["analyze"], ["gf", "--order", "60"]):
        code, out, _ = run_cli([argv[0], dist, *argv[1:]])
        assert code == 0
        assert _sha256(out) == _pinned_digest("dp0.6", argv)
    assert sorted(sums) == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]
    assert len(builds) == 1


def test_file_rewritten_between_requests_is_read_again(tmp_path):
    dist = write(tmp_path, "d.txt", PINNED_TABLES["dp0.45"])
    assert _sha256(run_cli(["analyze", dist])[1]) == _pinned_digest("dp0.45", ["analyze"])
    write(tmp_path, "d.txt", PINNED_TABLES["dp0.6"])
    assert _sha256(run_cli(["analyze", dist])[1]) == _pinned_digest("dp0.6", ["analyze"])


def test_refused_table_is_refused_on_every_read(tmp_path):
    # edge balanced, but its probabilities sum to 0.99
    dist = write(tmp_path, "d.txt", "1 1 0.5\n0 0 0.49\n")
    first = run_cli(["analyze", dist, "--tol", "1e-9"])
    assert first[0] == 3 and "sum to" in first[2]
    assert run_cli(["analyze", dist, "--tol", "1e-9"]) == first
    assert run_cli(["analyze", dist, "--tol", "0.1"])[0] == 0
    assert run_cli(["analyze", dist, "--tol", "1e-9"]) == first


def test_requests_keep_no_more_than_the_last_table(tmp_path):
    code, out, _ = run_cli(["evolve", write(tmp_path, "p.txt", PINNED_TABLES["cap70"]), "--at-conversion", "0.015"])
    assert code == 0
    marginal = tableio.format_records(json.loads(out)["marginal"])
    assert run_cli(["gf", write(tmp_path, "m.txt", marginal), "--order", "6"])[0] == 0
    kept = cli._read_table(BivariateDegreeDist, marginal, NORM_TOL)
    assert "_fixed_point" in vars(kept)
    cap70 = weakref.ref(kept)
    del kept
    assert run_cli(["analyze", write(tmp_path, "fork.txt", FORK)])[0] == 0
    gc.collect()
    assert cap70() is None
