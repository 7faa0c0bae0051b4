import dataclasses
import json
from fractions import Fraction

import pytest

from qgr.cli import run
from qgr.hyper import build_Y_closed
from qgr.series import QSeries


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_series_dot_closed_q0(capsys):
    code, doc = run_json(capsys, ["series", "--kind", "dot-closed", "--n", "4", "--a", "2", "--qdeg", "2"])
    assert code == 0
    q0 = next(e for e in doc["payload"] if e["q"] == [0])
    assert q0["coeff"] == "1"


def test_series_i_normalization(capsys):
    code, doc = run_json(capsys, ["series", "--kind", "i-normalization", "--n", "3", "--a", "1,1,1", "--qdeg", "2"])
    assert code == 0
    q0 = next(e for e in doc["payload"] if e["q"] == [0])
    assert q0["coeff"] == "1"


def test_series_y_gamma_q0_payload(capsys):
    code, doc = run_json(
        capsys, ["series", "--kind", "y-gamma", "--n", "3", "--a", "", "--k", "1", "--j", "0", "--qdeg", "2"]
    )
    assert code == 0
    q0 = next(e for e in doc["payload"] if e["q"] == [0])
    assert q0["coeff"] == "x2+x1"


def test_series_dual_equal_flag(capsys):
    code, doc = run_json(capsys, ["series", "--kind", "dot-dual", "--n", "3", "--a", "3", "--qdeg", "2"])
    assert code == 0 and doc["equal"] is True


def test_series_dual_unequal_is_a_failure(capsys, monkeypatch):
    # a closed form with one sign-flipped numerator no longer matches the
    # bar route: the document says so and the exit code is 1
    import qgr.cli

    def flipped(*args):
        Y = build_Y_closed(*args)
        nums = dict(Y.num_parts)
        nums[(1,)] = -nums[(1,)]
        return dataclasses.replace(Y, num_parts=nums)

    monkeypatch.setattr(qgr.cli, "build_Y_closed", flipped)
    code, doc = run_json(capsys, ["series", "--kind", "dot-dual", "--n", "3", "--a", "3", "--qdeg", "2"])
    assert code == 1 and doc["equal"] is False


def test_verify_exit_codes(capsys):
    code, doc = run_json(capsys, ["verify", "--suite", "recursivity", "--n", "3", "--a", "", "--qdeg", "2"])
    assert code == 0 and doc["pass"] is True
    code2, doc2 = run_json(capsys, ["verify", "--suite", "orthogonality", "--n", "3", "--a", "1", "--qdeg", "2"])
    assert code2 == 0 and doc2["pass"] is True


def test_fano_vanishing_names_failing_term(capsys, monkeypatch):
    # c x1 h^N over a q^1 denominator of h-degree N and top h-coefficient 1
    # adds c to the x1 h^0 term, which the suite must report
    import qgr.cli
    from qgr.rings import SparsePoly

    assemble = qgr.cli.bar_assemble

    def perturbed(K):
        Y = assemble(K)
        N = Y.dens[(1,)].degree_in("h")
        Y.num_parts[(1,)] = Y.num_parts[(1,)] + SparsePoly(("x1", "x2", "h"), {(1, 0, N): 3})
        return Y

    argv = ["verify", "--suite", "fano-vanishing", "--n", "4", "--a", "", "--qdeg", "2"]
    code, doc = run_json(capsys, argv)
    assert code == 0 and doc["pass"] is True
    monkeypatch.setattr(qgr.cli, "bar_assemble", perturbed)
    code, doc = run_json(capsys, argv)
    [rec] = doc["payload"]
    assert code == 1 and doc["pass"] is False and rec["pass"] is False
    assert {"q": 1, "x": [1, 0], "h_exp": 0, "coeff": "3"} in rec["failures"]
    assert all(f["q"] == 1 for f in rec["failures"])


def test_verify_mutation_detected(capsys):
    code, doc = run_json(
        capsys,
        ["verify", "--suite", "recursivity", "--n", "3", "--a", "", "--qdeg", "2", "--mutate", "1:1"],
    )
    assert code == 1 and doc["pass"] is False


def test_usage_errors_exit_2(capsys):
    assert run(["series", "--kind", "bogus", "--n", "3"]) == 2
    assert run(["series", "--kind", "dot-closed", "--n", "2"]) == 2
    assert run(["series", "--kind", "dot-closed", "--n", "3", "--a", "9"]) == 2
    # inputs that would otherwise check nothing and report a pass
    assert run(["verify", "--suite", "mpc", "--n", "3", "--a", "1", "--qdeg", "1", "--zdeg", "-1"]) == 2
    assert run(["verify", "--suite", "recursivity", "--n", "3", "--a", "", "--qdeg", "2", "--mutate", "5:9"]) == 2
    assert run(["verify", "--suite", "operator-norms", "--n", "3", "--a", "", "--qdeg", "1", "--mutate", "1:1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("error: ") == 6
    for argv in (["not-a-command"], ["y-gamma", "--n", "3", "--k", "1", "--j", "0"]):
        with pytest.raises(SystemExit) as e:
            run(argv)
        assert e.value.code == 2


def test_cohomology_payload(capsys):
    code, doc = run_json(capsys, ["cohomology", "--n", "3"])
    assert code == 0
    assert len(doc["payload"]["basis"]) == 3
    pm = doc["payload"]["pairing_matrix"]
    assert pm == [["0", "0", "1"], ["0", "1", "0"], ["1", "0", "0"]]
    code4, doc4 = run_json(capsys, ["cohomology", "--n", "4"])
    assert len(doc4["payload"]["basis"]) == 6


def test_cohomology_equivariant(capsys):
    code, doc = run_json(capsys, ["cohomology", "--n", "3", "--equivariant", "--alpha", "7,49,343"])
    assert code == 0
    table = doc["payload"]["fixed_points"]
    entry = next(t for t in table if t["i"] == 1 and t["j"] == 2)
    assert entry["det_euler"] == "56"  # 7 + 49
    assert entry["euler_tangent"] == str((7 - 343) * (49 - 343))


def test_determinism(capsys):
    args = ["series", "--kind", "dot-bar", "--n", "3", "--a", "1", "--qdeg", "2"]
    run(args)
    out1 = capsys.readouterr().out
    run(args)
    out2 = capsys.readouterr().out
    assert out1 == out2


def test_output_file_and_config(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("n=3\na=1\nqdeg=2\n")
    outfile = tmp_path / "out.json"
    code = run(["series", "--kind", "dot-closed", "--config", str(cfgfile), "--output", str(outfile)])
    assert code == 0
    doc = json.loads(outfile.read_text())
    assert doc["meta"]["n"] == 3 and doc["meta"]["a"] == [1]
    # flags override the file
    code2 = run(["series", "--kind", "dot-closed", "--config", str(cfgfile), "--n", "4", "--output", str(outfile)])
    assert code2 == 0
    doc2 = json.loads(outfile.read_text())
    assert doc2["meta"]["n"] == 4


def test_depth_env_override(capsys, monkeypatch):
    monkeypatch.setenv("QGR_DEPTH", "9")
    code, doc = run_json(capsys, ["verify", "--suite", "residue-internal", "--n", "3", "--a", "", "--qdeg", "1", "--zdeg", "1"])
    assert code == 0
    assert doc["meta"]["depth"] == 9


def test_double_j(capsys):
    code, doc = run_json(capsys, ["double-j", "--n", "3", "--a", "", "--qdeg", "1"])
    assert code == 0 and doc["orthogonality"] is True
    q0 = next(e for e in doc["payload"] if e["q"] == 0)
    keys = {(tuple(t["left"]), tuple(t["right"])) for t in q0["tensor"]}
    assert ((0, 0), (1, 1)) in keys and ((1, 0), (1, 0)) in keys


def _write_cfg(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


def test_config_reads_every_flag(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "kind=ddot-closed\nn=3\na=1\nqdeg=1\n")
    code, doc = run_json(capsys, ["series", "--config", cfg])
    assert code == 0 and doc["meta"]["kind"] == "ddot-closed"
    _, direct = run_json(capsys, ["series", "--kind", "ddot-closed", "--n", "3", "--a", "1", "--qdeg", "1"])
    assert doc["payload"] == direct["payload"]
    # explicit flags win over the file
    _, over = run_json(capsys, ["series", "--config", cfg, "--kind", "dot-closed"])
    assert over["meta"]["kind"] == "dot-closed"

    cfg = _write_cfg(tmp_path, "kind=y-gamma\nk=1\nj=0\nn=3\nqdeg=1\n")
    code, doc = run_json(capsys, ["series", "--config", cfg])
    assert code == 0 and (doc["meta"]["k"], doc["meta"]["j"]) == (1, 0)

    cfg = _write_cfg(tmp_path, "suite=recursivity\nn=3\nqdeg=1\nmutate=1:1\n")
    code, doc = run_json(capsys, ["verify", "--config", cfg])
    assert code == 1 and doc["meta"]["suite"] == "recursivity"
    assert {r["check"].split("-")[0] for r in doc["payload"]} == {"recursivity"}

    cfg = _write_cfg(tmp_path, "n=3\nequivariant=true\n")
    code, doc = run_json(capsys, ["cohomology", "--config", cfg])
    assert code == 0 and doc["meta"]["equivariant"] is True and "fixed_points" in doc["payload"]


def test_config_keys_must_be_flags_of_the_subcommand(tmp_path, capsys):
    for command, text in (
        ("verify", "kind=dot-closed\n"),  # a flag of another subcommand
        ("series", "suite=all\n"),
        ("double-j", "equivariant=true\n"),
        ("series", "config=other.cfg\n"),
        ("series", "foo=1\n"),
        ("series", "n=three\n"),  # not an integer
        ("cohomology", "equivariant=yes\n"),
        ("series", "n=3\nno equals sign\n"),
    ):
        assert run([command, "--config", _write_cfg(tmp_path, text)]) == 2, text
    assert run(["series", "--config", str(tmp_path / "missing.cfg")]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("error: ") == 9


def test_bad_inputs_are_usage_errors(tmp_path, capsys, monkeypatch):
    assert run(["series", "--kind", "dot-closed", "--n", "3", "--a", "0"]) == 2
    assert run(["cohomology", "--n", "3", "--output", str(tmp_path / "no-dir" / "out.json")]) == 2
    assert run(["series", "--kind", "dot-bar", "--n", "3", "--a", "1", "--alpha", "x,y,z"]) == 2
    assert run(["series", "--kind", "dot-bar", "--n", "3", "--a", "1", "--alpha", "1/0,2,3"]) == 2
    # weights or a basis class that no part of the run reads
    for argv in (
        ["double-j", "--n", "3", "--a", "", "--qdeg", "1", "--alpha", "7,49,343"],
        ["verify", "--suite", "orthogonality", "--n", "3", "--qdeg", "1", "--alpha", "generic"],
        ["verify", "--suite", "operator-norms", "--n", "3", "--qdeg", "1", "--alpha", "7,49,343"],
        ["series", "--kind", "dot-closed", "--n", "3", "--qdeg", "1", "--alpha", "generic"],
        ["series", "--n", "3", "--qdeg", "1", "--alpha", "7,49,343"],
        ["cohomology", "--n", "3", "--alpha", "7,49,343"],
        ["series", "--kind", "dot-bar", "--n", "3", "--qdeg", "1", "--k", "1", "--j", "0"],
        ["series", "--kind", "dot-closed", "--n", "3", "--qdeg", "1", "--j", "0"],
        # a z-degree that only the mpc, residue-internal and all suites read
        ["double-j", "--n", "3", "--a", "", "--qdeg", "1", "--zdeg", "5"],
        ["verify", "--suite", "recursivity", "--n", "3", "--qdeg", "1", "--zdeg", "7"],
        ["series", "--n", "3", "--qdeg", "1", "--config", _write_cfg(tmp_path, "zdeg=2\n")],
    ):
        assert run(argv) == 2, argv
    for depth in ("deep", "0", "-2"):
        monkeypatch.setenv("QGR_DEPTH", depth)
        assert run(["verify", "--suite", "residue-internal", "--n", "3", "--qdeg", "1", "--zdeg", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("error: ") == 18 and "internal error" not in captured.err


def test_structure_residual_names_failing_entry(capsys, monkeypatch):
    import qgr.operators

    def residual_fails_at_2_0(pipe, k, iidx):
        return (k, iidx) != (2, 0)

    monkeypatch.setattr(qgr.operators, "_eqtic_residual_is_zero", residual_fails_at_2_0)
    code, doc = run_json(capsys, ["verify", "--suite", "operator-norms", "--n", "3", "--a", "1", "--qdeg", "2"])
    assert code == 1
    by_check = {r["check"]: r for r in doc["payload"]}
    for kind in ("dot", "ddot"):
        rec = by_check[f"structure-residual-{kind}"]
        assert rec["pass"] is False and rec["failures"] == [{"k": 2, "i": 0}]


def test_structure_t0_delta_names_failing_entry(capsys, monkeypatch):
    import qgr.operators

    solve = qgr.operators._solve_structure

    def t0_entry_zero_at_2_0(pipe, k, iidx):
        table = solve(pipe, k, iidx)
        if (k, iidx) == (2, 0):
            table[(0, (2, 0))] = QSeries(1, pipe.D)
        return table

    monkeypatch.setattr(qgr.operators, "_solve_structure", t0_entry_zero_at_2_0)
    code, doc = run_json(capsys, ["verify", "--suite", "operator-norms", "--n", "3", "--a", "1", "--qdeg", "2"])
    assert code == 1
    by_check = {r["check"]: r for r in doc["payload"]}
    for kind in ("dot", "ddot"):
        rec = by_check[f"structure-t0-delta-{kind}"]
        assert rec["pass"] is False and rec["failures"] == [{"k": 2, "i": 0, "s": 2, "j": 0}]


def test_structure_residual_catches_perturbed_solution(capsys, monkeypatch):
    import qgr.operators

    solve = qgr.operators._solve_structure

    def q1_added_at_2_0(pipe, k, iidx):
        table = solve(pipe, k, iidx)
        if (k, iidx) == (2, 0):
            table[(1, (1, 0))] = table[(1, (1, 0))] + QSeries(1, pipe.D, {(1,): Fraction(1)})
        return table

    monkeypatch.setattr(qgr.operators, "_solve_structure", q1_added_at_2_0)
    code, doc = run_json(capsys, ["verify", "--suite", "operator-norms", "--n", "3", "--a", "1", "--qdeg", "2"])
    assert code == 1
    by_check = {r["check"]: r for r in doc["payload"]}
    for kind in ("dot", "ddot"):
        rec = by_check[f"structure-residual-{kind}"]
        assert rec["pass"] is False and rec["failures"] == [{"k": 2, "i": 0}]
    # the t = 0 rows are untouched, so only the two residuals fail
    assert {c for c, r in by_check.items() if not r["pass"]} == {"structure-residual-dot", "structure-residual-ddot"}


def test_internal_fault_exit_3(capsys, monkeypatch):
    import qgr.cli

    def fault(*args, **kwargs):
        raise ArithmeticError("injected fault")

    monkeypatch.setattr(qgr.cli, "build_Y_closed", fault)
    assert run(["series", "--kind", "dot-closed", "--n", "3", "--qdeg", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: ArithmeticError: injected fault\n"

    def value_fault(*args, **kwargs):
        raise ValueError("injected value fault")

    monkeypatch.setattr(qgr.cli, "check_recursive", value_fault)
    assert run(["verify", "--suite", "recursivity", "--n", "3", "--qdeg", "1"]) == 3
    assert capsys.readouterr().err.startswith("internal error: ValueError: ")
