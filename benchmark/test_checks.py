"""Each benchmark check passes on the program's real output and fails on a corrupted copy.

    PYTHONPATH=src python3 -m pytest -q benchmark/test_checks.py
"""

from __future__ import annotations

import contextlib
import io
import json
import math

import checks
from flipspectra import cli
from flipspectra.flipgraph import build_associahedron


def run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def test_verifier_accepts_flip_graphs():
    for n in range(4, 10):
        g = build_associahedron(n)
        assert checks.verify_flip_graph(n, g.labels, g.offsets, g.neighbors) == []


def test_verifier_rejects_an_edge_rewired_to_a_non_flip():
    n = 8
    g = build_associahedron(n)
    nbrs = g.neighbors.copy()

    def row(v):
        return slice(g.offsets[v], g.offsets[v + 1])

    def diags(v):
        return set(g.labels[v].split(","))

    # swap the edges u-v and x-y for u-y and x-v: degrees and symmetry stay
    u, x = 0, g.vertex_count - 1
    v, y = int(nbrs[row(u)][0]), int(nbrs[row(x)][0])
    assert len(diags(u) ^ diags(y)) > 2 and y not in nbrs[row(u)] and v not in nbrs[row(x)]
    for a, old, new in ((u, v, y), (v, u, x), (x, y, v), (y, x, u)):
        r = nbrs[row(a)]
        r[r == old] = new
    errors = checks.verify_flip_graph(n, g.labels, g.offsets, nbrs)
    assert any("not one flip apart" in e for e in errors), errors


def test_verifier_rejects_bad_labels():
    g = build_associahedron(7)
    labels = list(g.labels)
    labels[3] = labels[4]
    assert checks.verify_flip_graph(7, labels, g.offsets, g.neighbors)
    labels = list(g.labels)
    labels[0] = "1-3,1-4,2-5,1-6"  # 1-4 and 2-5 cross
    assert checks.verify_flip_graph(7, labels, g.offsets, g.neighbors)
    assert checks.verify_flip_graph(7, g.labels[:-1], g.offsets, g.neighbors)


def test_enumerate_check_rejects_a_missing_line():
    g = build_associahedron(7)
    code, out = run_cli(["enumerate", "--n", "7"])
    assert code == 0 and checks.check_enumerate(7, out, g.labels) == []
    dropped = "".join(out.splitlines(keepends=True)[1:])
    assert checks.check_enumerate(7, dropped, g.labels)


def test_spectrum_check_rejects_an_eigenvalue_moved_by_1e_6():
    # 1,430 vertices: the reference takes the eigsh path, the program its Lanczos
    n = 10
    g = build_associahedron(n)
    for which, key in (("min", "lambda_min"), ("second", "lambda_2")):
        code, out = run_cli(["spectrum", "--n", str(n), "--which", which, "--solver", "iterative", "--seed", "3"])
        assert code == 0
        errors, value = checks.check_spectrum(n, which, 3, out, g.offsets, g.neighbors)
        assert errors == [] and value is not None
        moved = json.loads(out)
        moved[key] += 1e-6
        errors, _ = checks.check_spectrum(n, which, 3, json.dumps(moved), g.offsets, g.neighbors)
        assert any(key in e and "gap" in e for e in errors), errors


def test_spectrum_check_reports_a_missing_key_instead_of_raising():
    n = 7
    g = build_associahedron(n)
    code, out = run_cli(["spectrum", "--n", str(n), "--which", "min", "--seed", "0"])
    assert code == 0 and checks.check_spectrum(n, "min", 0, out, g.offsets, g.neighbors)[0] == []
    for key in ("seed", "residuals", "lambda_min"):
        broken = json.loads(out)
        del broken[key]
        errors, value = checks.check_spectrum(n, "min", 0, json.dumps(broken), g.offsets, g.neighbors)
        assert value is None and any("unreadable" in e and key in e for e in errors), errors


def test_method_check_rejects_the_other_solver_path():
    code, out = run_cli(["spectrum", "--n", "7", "--which", "min", "--solver", "iterative", "--seed", "0"])
    assert code == 0 and checks.check_method(out, "iterative") == []
    assert checks.check_method(out, "dense")
    broken = json.loads(out)
    del broken["method"]
    assert any("unreadable" in e for e in checks.check_method(json.dumps(broken), "iterative"))


def test_lower_bound_is_the_odd_cycle_specialisation():
    for n in range(5, 20):
        # d = n-3, pentagons (r = 2) cover each vertex n-4 times, each edge at most 4 times
        odd_cycle = -(n - 3) + 4 * math.sin(math.pi / 10) ** 2 * (n - 4) / 4
        assert math.isclose(checks.paper_lower_bound(n), odd_cycle, rel_tol=1e-14)
    bound = checks.paper_lower_bound(13)
    assert checks.check_lower_bound(13, bound) == []
    assert checks.check_lower_bound(13, bound - 1e-9)


def test_table_check_rejects_a_wrong_value_and_status():
    n_max = 8
    code, out = run_cli(["table", "--kind", "lambda_min", "--n-max", str(n_max)])
    ref = {}
    for n in range(5, n_max + 1):
        g = build_associahedron(n)
        ref[n] = checks.reference_eigenvalue(g.offsets, g.neighbors, "min")[0]
    assert code == 0 and checks.check_table("lambda_min", n_max, out, ref) == []
    lines = out.splitlines(keepends=True)
    cols = lines[-1].split("\t")
    cols[1] = format(float(cols[1]) - 0.001, ".3f")
    assert checks.check_table("lambda_min", n_max, "".join(lines[:-1] + ["\t".join(cols)]), ref)
    mismatch = out.replace("\tok\n", "\tMISMATCH\n", 1)
    assert checks.check_table("lambda_min", n_max, mismatch, ref)


def test_certify_check_rejects_a_failed_claim_and_a_narrowed_scope():
    n_max = 6
    code, out = run_cli(["bounds", "--certify", "--n-max", str(n_max)])
    assert checks.check_certify(n_max, code, out) == []
    claims = json.loads(out)

    failed = json.loads(out)
    failed[5]["passed"] = False
    errors = checks.check_certify(n_max, code, json.dumps(failed))
    assert any(claims[5]["claim"] in e for e in errors), errors

    narrowed = json.loads(out)
    assert narrowed[1]["detail"] == "exact for n=5..6"
    narrowed[1]["detail"] = "exact for n=5..5"
    errors = checks.check_certify(n_max, code, json.dumps(narrowed))
    assert any("pentagon-census" in e for e in errors), errors

    assert checks.check_certify(n_max, 1, out)
    assert checks.check_certify(n_max, code, json.dumps(claims[:-1]))

    for key in ("passed", "detail"):
        broken = json.loads(out)
        del broken[0][key]
        errors = checks.check_certify(n_max, code, json.dumps(broken))
        assert any("unreadable" in e and key in e for e in errors), errors
