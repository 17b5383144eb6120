import json
import math
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from flipspectra import bounds, census, cli, spectra
from flipspectra.cli import build_parser, main
from flipspectra.flipgraph import Graph
from flipspectra.spectra import lambda_2
from flipspectra.triangulations import enumerate_triangulations
from oracles import ear_count, enumerate_objects


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strict_json(text: str):
    """json.loads, but NaN and Infinity, which strict parsers refuse, raise ValueError."""

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


def test_enumerate(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--n", "5")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 5
    assert lines[0] == "1-3,1-4"
    assert lines == sorted(lines)


@pytest.mark.parametrize("n", range(3, 13))
def test_enumerate_matches_triangulation_codes(capsys, n):
    code, out, _ = run_cli(capsys, "enumerate", "--n", str(n))
    assert code == 0
    assert out == "".join(t.code() + "\n" for t in enumerate_objects(n))


def test_enumerate_does_not_build_the_flip_graph(capsys, monkeypatch):
    monkeypatch.setattr(cli, "build_associahedron", lambda *a: pytest.fail("built the graph"))
    code, out, _ = run_cli(capsys, "enumerate", "--n", "9")
    assert code == 0
    assert out == "".join(t + "\n" for t in enumerate_triangulations(9))


def test_enumerate_above_size_cap_is_input_error(capsys):
    code, out, err = run_cli(capsys, "enumerate", "--n", "15")
    assert code == 2
    assert out == "" and "input error" in err


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_graph_export(capsys):
    code, out, _ = run_cli(capsys, "graph", "--n", "4")
    assert code == 0
    assert out == "# vertices=2 degree=1\n0 1\n"


def test_graph_slice_export(capsys):
    code, out, _ = run_cli(capsys, "graph", "--n", "6", "--slice", "1-3")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "# vertices=5 degree=2"
    assert len(lines) == 6  # header + 5 cycle edges
    code, _, err = run_cli(capsys, "graph", "--n", "6", "--slice", "bogus")
    assert code == 2


def test_spectrum_min_json(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--n", "6", "--which", "min")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["lambda_min"] - (-2.414214)) < 1e-5
    assert payload["lambda_2"] is None
    assert payload["method"] == "dense"
    assert payload["seconds"] is None
    assert payload["residuals"]["lambda_min"] <= 1e-9


def test_spectrum_full_json(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--n", "6", "--which", "full")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["eigenvalues"]) == 14
    assert abs(payload["lambda_2"] - 2.0) < 1e-9
    # the full decomposition checks no residual, so it claims no tolerance
    assert payload["method"] == "dense" and payload["tolerance"] is None
    assert payload["residuals"] == {}


def test_spectrum_full_refuses_the_iterative_solver(capsys):
    code, out, err = run_cli(
        capsys, "spectrum", "--n", "6", "--which", "full", "--solver", "iterative"
    )
    assert code == 2
    assert out == "" and "input error: --which full" in err


def test_spectrum_iterative(capsys):
    code, out, _ = run_cli(
        capsys, "spectrum", "--n", "7", "--which", "second", "--solver", "iterative"
    )
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["lambda_2"] - 3.231959) < 1e-5
    assert payload["method"] == "iterative"
    assert payload["iterations"] > 0


def test_census_vertex_csv(capsys):
    code, out, _ = run_cli(capsys, "census", "--n", "6", "--oracle")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "vertex_index,t1,pentagon_formula,pentagon_oracle,hexagon_total,hexagon_oracle"
    assert len(lines) == 15
    for line in lines[1:]:
        _, t1, pf, po, hx, ho = line.split(",")
        assert pf == po and hx == ho
        assert int(pf) == 6 - 6 + int(t1)


def test_census_edge_csv(capsys):
    code, out, _ = run_cli(capsys, "census", "--n", "6", "--edges")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "u,v,pentagon_count,hexagon_count"
    assert len(lines) == 22  # 21 edges + header


@pytest.mark.parametrize("n", range(6, 9))
def test_census_oracle_columns_agree(capsys, n):
    code, out, _ = run_cli(capsys, "census", "--n", str(n), "--oracle")
    assert code == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    ts = enumerate_objects(n)
    assert [int(row[0]) for row in rows] == list(range(len(ts)))
    for (_, t1, pf, po, hx, ho), t in zip(rows, ts):
        assert pf == po and hx == ho
        assert int(t1) == ear_count(t)
    code, out, _ = run_cli(capsys, "census", "--n", str(n), "--oracle", "--edges")
    assert code == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    assert len(rows) == len(ts) * (n - 3) // 2
    for _, _, pc, po, hc, ho in rows:
        assert pc == po and hc == ho


@pytest.mark.parametrize("edges", [[], ["--edges"]], ids=["vertices", "edges"])
def test_census_oracle_refuses_a_host_over_the_cap_first(capsys, monkeypatch, edges):
    work = []
    monkeypatch.setattr(bounds, "COLLECTION_HOST_LIMIT", 41)  # A7 has 42 vertices
    monkeypatch.setattr(census, "_flips", lambda n: work.append(("flip pass", n)))
    monkeypatch.setattr(census, "build_associahedron", lambda n, *a: work.append(("build", n)))
    code, out, err = run_cli(capsys, "census", "--n", "7", "--oracle", *edges)
    assert (code, out, err) == (3, "", "resource error: census oracle limited to 41 vertices\n")
    assert work == []


@pytest.mark.parametrize(
    "argv, code, err",
    [
        (["--n", "15"], 2, "input error: n=15 outside the supported range 3..14\n"),
        (["FLIPSPECTRA_MAX_N=12", "--n", "13"], 2,
         "input error: n=13 outside the supported range 3..12\n"),
        (["--n", "13"], 3, "resource error: census oracle limited to 20000 vertices\n"),
        (["--n", "4"], 2, "input error: pentagon census needs n >= 5\n"),
    ],
)
def test_census_oracle_errors_come_in_order(capsys, monkeypatch, argv, code, err):
    # the range first, then the oracles' host cap, then the pentagon census's n >= 5;
    # a leading NAME=VALUE sets the environment, as on a shell line
    for name, _, value in (arg.partition("=") for arg in argv if "=" in arg):
        monkeypatch.setenv(name, value)
    flags = [arg for arg in argv if "=" not in arg]
    assert run_cli(capsys, "census", *flags, "--oracle") == (code, "", err)


def test_census_honours_max_n(capsys, monkeypatch):
    monkeypatch.setenv("FLIPSPECTRA_MAX_N", "5")
    code, out, err = run_cli(capsys, "census", "--n", "6", "--oracle")
    assert (code, out, err) == (2, "", "input error: n=6 outside the supported range 3..5\n")
    monkeypatch.setenv("FLIPSPECTRA_MAX_N", "6")
    code, out, _ = run_cli(capsys, "census", "--n", "6", "--oracle")
    assert code == 0
    assert len(out.strip().split("\n")) == 15


@pytest.mark.parametrize("value", ["abc", "12.0"])
@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--n", "5"],
        ["graph", "--n", "5"],
        ["spectrum", "--n", "5"],
        ["census", "--n", "5"],
        ["walk", "--n", "6"],
        ["table", "--kind", "lambda_min", "--n-max", "5"],
        ["bounds", "--n", "8", "--certify"],
    ],
)
def test_malformed_cap_is_input_error(capsys, monkeypatch, argv, value):
    monkeypatch.setenv("FLIPSPECTRA_MAX_N", value)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"input error: FLIPSPECTRA_MAX_N must be an integer, got {value!r}\n"


@pytest.mark.parametrize(
    "argv",
    [
        *([command, "--n", "6", "--max-n", "14"]
          for command in ("enumerate", "graph", "spectrum", "census", "walk")),
        ["graph", "--n", "6", "--export", "edges"],
    ],
)
def test_removed_options_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[3:])}" in capsys.readouterr().err


def test_bounds_runs_at_an_n_past_the_stack_depth(capsys):
    # the slice upper bound fills its table bottom-up, with no recursion per n
    code, out, err = run_cli(capsys, "bounds", "--n", "2000")
    assert (code, err) == (0, "")
    upper = [r for r in strict_json(out) if r["bound_name"] == "slice-upper"]
    assert len(upper) == 1 and math.isfinite(upper[0]["bound_value"])


def test_bounds_reports(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--n", "8")
    assert code == 0
    reports = json.loads(out)
    names = {r["bound_name"] for r in reports}
    assert "pentagon-collection-lower" in names
    assert "slice-upper" in names


def test_bounds_certified(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--n", "6", "--certify")
    assert code == 0
    reports = json.loads(out)
    certified = [r for r in reports if r["satisfied"] is not None]
    assert certified and all(r["satisfied"] for r in certified)


def test_certify_suite(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--certify", "--n-max", "6")
    assert code == 0
    claims = json.loads(out)
    assert all(c["passed"] for c in claims)
    assert {c["claim"] for c in claims} >= {
        "flip-graph-structure",
        "pentagon-census",
        "hexagon-census",
        "eigenvalue-tables",
        "slice-subadditivity",
    }


def test_certify_suite_vacuous_at_n4(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--certify", "--n-max", "4")
    assert code == 0
    claims = {c["claim"]: c for c in json.loads(out)}
    assert claims["pentagon-census"]["passed"]
    assert "vacuous" in claims["pentagon-census"]["detail"]


def test_bounds_user_collection(tmp_path, capsys):
    # feed the flip graph of the pentagon its own 5-cycle as a one-copy collection
    from flipspectra.flipgraph import build_associahedron

    g = build_associahedron(5)
    adj = g.adjacency_sets()
    cyc = [0, min(adj[0])]
    while len(cyc) < 5:
        cyc.append(next(v for v in sorted(adj[cyc[-1]]) if v != cyc[-2]))
    copies = tmp_path / "copies.txt"
    copies.write_text(",".join(map(str, cyc)) + "\n")
    code, out, _ = run_cli(
        capsys, "bounds", "--n", "5", "--copies", str(copies),
        "--pattern", "cycle:5", "--certify",
    )
    assert code == 0
    (report,) = json.loads(out)
    assert report["parameters"]["m"] == 1 and report["parameters"]["t"] == 1
    assert report["satisfied"]
    assert abs(report["bound_value"] - report["exact_value"]) < 1e-9


def test_walk_summary_csv(capsys):
    code, out, _ = run_cli(capsys, "walk", "--n", "6", "--steps", "100", "--seed", "3")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("# n=6 steps=100 seed=3")
    assert lines[1] == "vertex,visits"
    assert len(lines) == 16
    assert sum(int(line.split(",")[1]) for line in lines[2:]) == 101


def test_walk_test_function_json(capsys):
    code, out, _ = run_cli(capsys, "walk", "--n", "6", "--test-fn", "eigen")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["gap_upper"] - (1 - 2.0 / 3.0)) < 1e-8


def test_walk_file_function(tmp_path, capsys):
    fn = tmp_path / "f.txt"
    fn.write_text("\n".join(str(float(i % 3)) for i in range(14)) + "\n")
    code, out, _ = run_cli(capsys, "walk", "--n", "6", "--test-fn", "file", "--fn-file", str(fn))
    assert code == 0
    payload = json.loads(out)
    assert payload["quotient"] > 0


def test_table_self_check(capsys):
    code, out, _ = run_cli(capsys, "table", "--kind", "lambda_min", "--n-max", "8")
    assert code == 0
    assert "MISMATCH" not in out
    code, out, _ = run_cli(capsys, "table", "--kind", "lambda_2", "--n-max", "8")
    assert code == 0
    rows = [line for line in out.strip().split("\n") if not line.startswith("#")]
    assert rows[1].startswith("2\t0.618")


def test_exit_code_input_error(capsys):
    code, _, err = run_cli(capsys, "enumerate", "--n", "2")
    assert code == 2
    assert "input error" in err


def test_certify_suite_below_n4_is_input_error(capsys):
    code, out, err = run_cli(capsys, "bounds", "--certify", "--n-max", "3")
    assert code == 2
    assert out == "" and "input error" in err


@pytest.mark.parametrize("kind", ["lambda_min", "lambda_2"])
def test_table_below_n5_is_input_error(capsys, tmp_path, kind):
    code, out, err = run_cli(capsys, "table", "--kind", kind, "--n-max", "4")
    assert code == 2
    assert out == "" and err == "input error: table needs --n-max >= 5\n"
    target = tmp_path / "table.txt"
    code, out, err = run_cli(capsys, "table", "--kind", kind, "--n-max", "4", "--out", str(target))
    assert code == 2
    assert out == "" and "input error" in err
    assert not target.exists()


@pytest.mark.parametrize("n_max, first", [("11", 11), ("15", 11)])
def test_table_refuses_an_n_over_the_cap_before_any_solve(capsys, monkeypatch, n_max, first):
    solved = []
    monkeypatch.setenv("FLIPSPECTRA_MAX_N", "10")
    monkeypatch.setattr(spectra, "lambda_min", lambda g, **kwargs: solved.append(g.polygon))
    code, out, err = run_cli(capsys, "table", "--kind", "lambda_min", "--n-max", n_max)
    assert code == 2 and out == ""
    assert err == f"input error: n={first} outside the supported range 3..10\n"
    assert solved == []


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
def test_spectrum_rejects_nonpositive_tol(capsys, tol):
    code, out, err = run_cli(capsys, "spectrum", "--n", "6", "--tol", tol)
    assert code == 2
    assert out == "" and "input error" in err


def test_dense_residual_above_tol_is_resource_error(capsys):
    code, out, err = run_cli(
        capsys, "spectrum", "--n", "6", "--solver", "dense", "--tol", "1e-30"
    )
    assert code == 3
    assert out == "" and "resource error: dense solve left residual" in err


def test_arpack_out_of_iterations_is_the_one_residual_error(capsys):
    code, out, err = run_cli(
        capsys, "spectrum", "--n", "11", "--solver", "iterative", "--max-iterations", "20"
    )
    assert code == 3 and out == ""
    assert re.fullmatch(r"resource error: iterative solve left residual \S+ above 1e-09\n", err)


@pytest.mark.parametrize("eps", ["2", "0", "nan"])
@pytest.mark.parametrize("certify", [[], ["--certify"]], ids=["plain", "certify"])
def test_bounds_rejects_eps_outside_unit_interval(capsys, eps, certify):
    code, out, err = run_cli(capsys, "bounds", "--n", "5", "--eps", eps, *certify)
    assert code == 2
    assert out == "" and "input error: eps must lie in (0, 1)" in err


def test_exit_code_convergence_error(capsys):
    code, _, err = run_cli(
        capsys, "spectrum", "--n", "8", "--solver", "iterative", "--max-iterations", "2"
    )
    assert code == 3
    assert "resource error" in err


def test_graph_past_uint8_diagonal_ids_is_resource_error(capsys, monkeypatch):
    monkeypatch.setenv("FLIPSPECTRA_MAX_N", "25")
    code, out, err = run_cli(capsys, "graph", "--n", "25")
    assert code == 3
    assert out == "" and "resource error" in err


def test_missing_copies_file_is_input_error(tmp_path, capsys):
    missing = tmp_path / "1,2,x"
    code, out, err = run_cli(capsys, "bounds", "--n", "6", "--copies", str(missing))
    assert code == 2
    assert out == "" and "input error" in err


def test_copy_on_a_non_edge_is_input_error_without_adjacency_sets(tmp_path, capsys, monkeypatch):
    from flipspectra.flipgraph import Graph

    def spy(self):
        raise AssertionError("adjacency_sets called")

    monkeypatch.setattr(Graph, "adjacency_sets", spy)
    copies = tmp_path / "copies.txt"
    copies.write_text("0,1,2,3,4\n")
    code, out, err = run_cli(
        capsys, "bounds", "--n", "12", "--copies", str(copies), "--pattern", "cycle:5"
    )
    assert code == 2 and out == ""
    assert "input error" in err
    assert "copy [0, 1, 2, 3, 4] maps pattern edge (0,4) to the non-edge (0,4)" in err


@pytest.mark.parametrize("certify", [[], ["--certify"]])
def test_edgeless_pattern_is_input_error(tmp_path, capsys, certify):
    empty = tmp_path / "copies.txt"
    empty.write_text("")
    code, out, err = run_cli(
        capsys, "bounds", "--n", "5", "--copies", str(empty), "--pattern", "complete:1", *certify
    )
    assert code == 2
    assert out == "" and "input error" in err


def test_malformed_fn_file_is_input_error(tmp_path, capsys):
    fn = tmp_path / "f.txt"
    fn.write_text("abc\n")
    code, out, err = run_cli(capsys, "walk", "--n", "6", "--test-fn", "file", "--fn-file", str(fn))
    assert code == 2
    assert out == "" and "input error" in err


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_non_finite_fn_file_is_input_error(tmp_path, capsys, bad):
    fn = tmp_path / "f.txt"
    argv = ["walk", "--n", "6", "--test-fn", "file", "--fn-file", str(fn)]
    values = [str(float(i % 3)) for i in range(14)]
    fn.write_text("\n".join(values) + "\n")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and strict_json(out)["quotient"] > 0
    # with one bad value there is no report: nothing that only a lax parser reads
    fn.write_text("\n".join([bad, *values[1:]]) + "\n")
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == "" and "input error" in err


def test_unwritable_out_is_input_error(tmp_path, capsys):
    target = tmp_path / "missing-dir" / "x.txt"
    code, out, err = run_cli(capsys, "graph", "--n", "5", "--out", str(target))
    assert code == 2
    assert out == "" and "input error" in err


def test_output_file(tmp_path, capsys):
    out_file = tmp_path / "edges.txt"
    code, _, _ = run_cli(capsys, "graph", "--n", "5", "--out", str(out_file))
    assert code == 0
    assert out_file.read_text().startswith("# vertices=5 degree=2\n")


def test_repeated_runs_are_identical(capsys):
    first = run_cli(capsys, "spectrum", "--n", "7", "--which", "min", "--seed", "5",
                    "--solver", "iterative")
    second = run_cli(capsys, "spectrum", "--n", "7", "--which", "min", "--seed", "5",
                     "--solver", "iterative")
    assert first == second


@pytest.mark.parametrize("value", ["0", "-1"])
def test_spectrum_rejects_max_iterations_below_one(capsys, value):
    code, out, err = run_cli(
        capsys, "spectrum", "--n", "9", "--solver", "iterative", "--max-iterations", value
    )
    assert code == 2
    assert out == "" and "input error" in err


def test_walk_eigen_on_single_vertex_is_input_error(capsys):
    code, out, err = run_cli(capsys, "walk", "--n", "3", "--test-fn", "eigen")
    assert code == 2
    assert out == "" and "second eigenvalue undefined on fewer than 2 vertices" in err


def test_walk_eigen_at_n11_takes_lambda_2s_vector(capsys, monkeypatch, assoc):
    def no_dense(self):
        raise AssertionError("dense adjacency built")

    monkeypatch.setattr(Graph, "dense_adjacency", no_dense)
    code, out, _ = run_cli(capsys, "walk", "--n", "11", "--test-fn", "eigen")
    assert code == 0
    g = assoc(11)
    d, lam2 = g.degree, lambda_2(g).value
    # a unit vector orthogonal to the constants has variance 1/N and
    # directed-edge sum 2 (d - lambda_2)
    assert abs(json.loads(out)["quotient"] - 2 * (d - lam2) / d) <= 1e-9


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "--n", "6", "--copies", "MISSING"],
        ["census", "--n", "4"],
        ["walk", "--n", "6", "--test-fn", "file", "--fn-file", "MISSING"],
    ],
)
def test_failed_command_creates_no_out_file(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv, "--out", "x.txt")
    assert code == 2
    assert out == "" and "input error" in err
    assert not (tmp_path / "x.txt").exists()


@pytest.fixture(scope="module")
def user_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("argv")
    (root / "copies.txt").write_text("0,1,4,3,2\n")
    (root / "fn.txt").write_text("".join(f"{v}\n" for v in range(5)))
    return root


def _argv(draw, root):
    """One command line: every command, with good and bad values alike."""

    def flag(name):
        return [name] if draw(st.booleans()) else []

    def path(name):
        return str(root / draw(st.sampled_from([name, "missing.txt"])))

    n = ["--n", str(draw(st.integers(-1, 7)))]
    n_max = ["--n-max", str(draw(st.integers(-1, 6)))]
    seed = ["--seed", str(draw(st.integers(0, 3)))]
    command = draw(st.sampled_from(
        ["enumerate", "graph", "spectrum", "census", "bounds", "walk", "table"]
    ))
    if command == "enumerate":
        return [command, *n]
    if command == "graph":
        text = draw(st.one_of(
            st.sampled_from(["1-3", "2-5", "1-2", "0-3", "3-1", "1-9", "1-", "x"]),
            st.text(max_size=5),
        ))
        return [command, *n, *([f"--slice={text}"] if draw(st.booleans()) else [])]
    if command == "spectrum":
        return [
            command, *n, *seed,
            "--which", draw(st.sampled_from(["min", "second", "full"])),
            "--solver", draw(st.sampled_from(["auto", "dense", "iterative"])),
            "--tol", draw(st.sampled_from(["1e-9", "1e-6", "0", "-1", "nan"])),
            "--max-iterations", str(draw(st.integers(-3, 50))),
        ]
    if command == "census":
        return [command, *n, *flag("--oracle"), *flag("--edges")]
    if command == "bounds":
        shape = draw(st.sampled_from(["suite", "n", "copies"]))
        if shape == "suite":
            return [command, "--certify", *n_max, *seed]
        argv = [command, *n, *flag("--certify"), *seed]
        if shape == "copies":
            pattern = draw(st.one_of(
                st.sampled_from(["cycle:5", "cycle:2", "complete:0", "petersen", "cycle:x", "tree:3"]),
                st.text(max_size=5),
            ))
            argv += ["--copies", path("copies.txt"), f"--pattern={pattern}"]
        return argv
    if command == "walk":
        test_fn = draw(st.sampled_from([None, "aldous", "eigen", "file"]))
        if test_fn is None:
            start = draw(st.one_of(st.none(), st.integers(-3, 20)))
            return [
                command, *n, *seed, "--steps", str(draw(st.integers(-3, 50))),
                *([] if start is None else ["--start", str(start)]),
            ]
        return [command, *n, "--test-fn", test_fn, "--fn-file", path("fn.txt")]
    return [command, "--kind", draw(st.sampled_from(["lambda_min", "lambda_2"])), *n_max, *seed]


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_argv_ends_in_an_exit_code(user_files, capsys, monkeypatch, data):
    argv = _argv(data.draw, user_files)
    cap = data.draw(st.one_of(
        st.none(), st.integers(-1, 8).map(str), st.sampled_from(["", "abc", "12.0"])
    ))
    if cap is None:
        monkeypatch.delenv("FLIPSPECTRA_MAX_N", raising=False)
    else:
        monkeypatch.setenv("FLIPSPECTRA_MAX_N", cap)
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's own usage error
        assert exc.code == 2, argv
    else:
        assert code in (0, 1, 2, 3), argv
    capsys.readouterr()
