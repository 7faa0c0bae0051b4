import contextlib
import io
import json
from fractions import Fraction

import pytest

from qgr.cli import _KIND_ROWS, _SUITE_ROWS, RunConfig, _coeff_str, _suite_orthogonality, run
from qgr.hyper import CISpec, HyperSeries, build_Y_closed
from qgr.operators import build_pipeline
from qgr.series import LaurentExpansion, QSeries


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
        return HyperSeries(Y.n, Y.D, Y.den_chains, nums, Y.xtrunc)

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


def test_fano_vanishing_needs_a_positive_qdeg(capsys):
    # the suite checks q^1 .. q^qdeg: at qdeg 0 it would check nothing, so
    # naming it is a usage error and `all` leaves it out
    assert run(["verify", "--suite", "fano-vanishing", "--n", "4", "--a", "", "--qdeg", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "fano-vanishing needs |a| <= n - 2 and qdeg >= 1" in captured.err
    argv = ["verify", "--suite", "all", "--n", "4", "--a", "", "--qdeg", "{}", "--zdeg", "0"]
    code, doc = run_json(capsys, [v.format(0) for v in argv])
    assert code == 0 and "fano-vanishing" not in [r["check"] for r in doc["payload"]]
    code, doc = run_json(capsys, [v.format(1) for v in argv])
    assert code == 0 and "fano-vanishing" in [r["check"] for r in doc["payload"]]


def test_unknown_suite_or_kind_is_named(capsys):
    # the name is checked before the rules on which flags a run reads
    for argv, name in ((["verify", "--suite", "foo", "--zdeg", "2"], "unknown suite 'foo'"),
                       (["series", "--kind", "foo", "--alpha", "generic"], "unknown series kind 'foo'")):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {name}\n", argv


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

    residuals = qgr.operators._eqtic_residuals

    def residual_fails_at_2_0(pipe, k, system):
        return [ok and (k, iidx) != (2, 0) for iidx, ok in enumerate(residuals(pipe, k, system))]

    monkeypatch.setattr(qgr.operators, "_eqtic_residuals", residual_fails_at_2_0)
    code, doc = run_json(capsys, ["verify", "--suite", "operator-norms", "--n", "3", "--a", "1", "--qdeg", "2"])
    assert code == 1
    by_check = {r["check"]: r for r in doc["payload"]}
    for kind in ("dot", "ddot"):
        rec = by_check[f"structure-residual-{kind}"]
        assert rec["pass"] is False and rec["failures"] == [{"k": 2, "i": 0}]


def test_structure_t0_delta_names_failing_entry(capsys, monkeypatch):
    import qgr.operators

    solve = qgr.operators._solve_structure

    def t0_entry_zero_at_2_0(pipe, k, system):
        tables = solve(pipe, k, system)
        if k == 2:
            tables[0][(0, (2, 0))] = QSeries(1, pipe.D)
        return tables

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

    def q1_added_at_2_0(pipe, k, system):
        tables = solve(pipe, k, system)
        if k == 2:
            tables[0][(1, (1, 0))] = tables[0][(1, (1, 0))] + QSeries(1, pipe.D, {(1,): Fraction(1)})
        return tables

    monkeypatch.setattr(qgr.operators, "_solve_structure", q1_added_at_2_0)
    code, doc = run_json(capsys, ["verify", "--suite", "operator-norms", "--n", "3", "--a", "1", "--qdeg", "2"])
    assert code == 1
    by_check = {r["check"]: r for r in doc["payload"]}
    for kind in ("dot", "ddot"):
        rec = by_check[f"structure-residual-{kind}"]
        assert rec["pass"] is False and rec["failures"] == [{"k": 2, "i": 0}]
    # the t = 0 rows are untouched, so only the two residuals fail
    assert {c for c, r in by_check.items() if not r["pass"]} == {"structure-residual-dot", "structure-residual-ddot"}


def test_inverse_certificate_can_fail(capsys, monkeypatch):
    import qgr.operators

    inverse = qgr.operators.neumann_inverse

    def q_added_at_0_0(M, D, arity=1):
        inv = inverse(M, D, arity)
        inv[0][0] = inv[0][0] + QSeries(arity, D, {(1,): Fraction(1)})
        return inv

    monkeypatch.setattr(qgr.operators, "neumann_inverse", q_added_at_0_0)
    code, doc = run_json(capsys, ["verify", "--suite", "operator-norms", "--n", "3", "--a", "1", "--qdeg", "2"])
    assert code == 1
    by_check = {r["check"]: r for r in doc["payload"]}
    for kind in ("dot", "ddot"):
        assert by_check[f"inverse-certificates-{kind}"]["pass"] is False


def test_orthogonality_suite_names_failing_entries():
    # a perturbed class of the dot pipeline fails the suite at the entries
    # the library check names (see test_orthogonality_names_failing_entries)
    pd = build_pipeline("dot", 3, CISpec((1,)), None, 2)
    pdd = build_pipeline("ddot", 3, CISpec((1,)), None, 2)
    cls = pd.classes[(1, 0)][1]
    cls[(0, 0)] = LaurentExpansion({-1: cls[(0, 0)].coeffs[-1] + 1}, None)
    [rec] = _suite_orthogonality(None, None, (pd, pdd))
    assert rec["check"] == "diagonal-orthogonality" and rec["pass"] is False
    assert rec["failures"] == [
        {"q": 1, "entry": [[0, 0], [1, 0]]},
        {"q": 2, "entry": [[0, 0], [1, 0]]},
        {"q": 2, "entry": [[0, 0], [1, 1]]},
    ]


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "all", "--n", "3", "--a", "1", "--qdeg", "1", "--zdeg", "1"],
    ["verify", "--suite", "operator-norms", "--n", "3", "--a", "1", "--qdeg", "1"],
    ["verify", "--suite", "orthogonality", "--n", "3", "--a", "1", "--qdeg", "1"],
    ["double-j", "--n", "3", "--a", "1", "--qdeg", "1"],
])
def test_one_pipeline_pair_per_command(capsys, monkeypatch, argv):
    import qgr.cli

    kinds = []
    build = qgr.cli.build_pipeline

    def counted(kind, *args):
        kinds.append(kind)
        return build(kind, *args)

    monkeypatch.setattr(qgr.cli, "build_pipeline", counted)
    assert run(argv) == 0
    capsys.readouterr()
    assert sorted(kinds) == ["ddot", "dot"], argv


def test_double_j_builds_its_table_once(capsys, monkeypatch):
    # the orthogonality verdict of double-j reads the table of the payload;
    # the check is counted wherever it looks the assembly up
    import qgr.cli
    import qgr.operators

    calls = []
    assemble = qgr.operators.assemble_double_J

    def counted(*args):
        calls.append(args)
        return assemble(*args)

    monkeypatch.setattr(qgr.cli, "assemble_double_J", counted)
    monkeypatch.setattr(qgr.operators, "assemble_double_J", counted)
    assert run(["double-j", "--n", "3", "--a", "1", "--qdeg", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["orthogonality"] is True
    assert len(calls) == 1


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


def test_int_coefficients_print_as_the_equal_fraction():
    assert _coeff_str(3) == _coeff_str(Fraction(3)) == "3"
    assert _coeff_str(-7) == _coeff_str(Fraction(-7)) == "-7"
    assert _coeff_str(Fraction(1, 3)) == "1/3"
    with pytest.raises(TypeError):
        _coeff_str(0.5)


def test_weight_at_the_held_point_is_a_genericity_error(capsys):
    # residue-internal holds one x-variable at 1/3, so that weight would zero a denominator
    argv = ["verify", "--suite", "residue-internal", "--n", "3", "--a", "1", "--qdeg", "2", "--alpha", "1/3,5,7"]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: weight 1/3 ")


def test_general_type_inputs_are_refused(capsys):
    assert run(["verify", "--suite", "recursivity", "--n", "3", "--a", "2,2", "--alpha", "generic"]) == 2
    assert run(["double-j", "--n", "3", "--a", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: |a| must not exceed n\n" * 2
    with pytest.raises(ValueError):
        CISpec((2, 2)).validate(3)


def test_residue_internal_calls_each_residue_function_once_per_integrand(capsys, monkeypatch):
    # patched wherever a qgr module holds the function, as the traced benchmark does
    import sys

    import qgr.cli
    import qgr.residues

    counts = {}
    for name in ("residue_at", "pole_order_at", "residue_sum_check"):
        orig = getattr(qgr.residues, name)

        def counted(*args, _orig=orig, _name=name, **kwargs):
            counts[_name] = counts.get(_name, 0) + 1
            return _orig(*args, **kwargs)

        for key, module in list(sys.modules.items()):
            if key == "qgr" or key.startswith("qgr."):
                for attr, val in list(vars(module).items()):
                    if val is orig:
                        monkeypatch.setattr(module, attr, counted)
    reports = []
    check = qgr.cli.residue_internal_check

    def recorded(*args):
        reports.append(check(*args))
        return reports[-1]

    monkeypatch.setattr(qgr.cli, "residue_internal_check", recorded)
    assert run(["verify", "--suite", "residue-internal", "--n", "3", "--a", "1", "--qdeg", "2"]) == 0
    capsys.readouterr()
    integrands = len(reports[0]["checks"])
    assert integrands > 0
    assert counts == {"residue_at": integrands, "pole_order_at": integrands, "residue_sum_check": integrands}


def test_y_gamma_indices_are_checked_before_any_computation(capsys, monkeypatch):
    # --k and --j are checked with the other flags, before the pipeline is built
    import qgr.cli

    calls = []
    monkeypatch.setattr(qgr.cli, "build_pipeline", lambda *args: calls.append(args))
    for argv, message in (
        (["y-gamma", "--n", "8", "--a", "8", "--k", "99", "--j", "0", "--qdeg", "2"],
         "--k must be in 0..12 for n = 8, got 99"),
        (["ydd-gamma", "--n", "3", "--k", "-1", "--j", "0", "--qdeg", "1"], "--k must be in 0..2 for n = 3, got -1"),
        (["y-gamma", "--n", "3", "--k", "1", "--j", "1", "--qdeg", "1"], "--j out of range for degree 1"),
        (["ydd-gamma", "--n", "3", "--k", "2", "--qdeg", "1"], "ydd-gamma needs --k and --j"),
    ):
        assert run(["series", "--kind"] + argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n", argv
    assert calls == []


# Each flag rule of the kind and suite tables: the flag as a run gives it,
# and the message when the run does not read it.
_FLAG_RULES = {
    "reads_alpha": (["--alpha", "generic"], "alpha is read only by the dot-bar and ddot-bar kinds, the recursivity, "
                    "mpc, fano-vanishing, residue-internal and all suites, and cohomology --equivariant"),
    "reads_zdeg": (["--zdeg", "1"], "zdeg is read only by the mpc, residue-internal and all suites"),
    "reads_mutate": (["--mutate", "1:1"], "mutate is read only by the recursivity, mpc and all suites"),
    "reads_kj": (["--k", "1", "--j", "0"], "k and j are read only by the y-gamma and ydd-gamma kinds"),
}
_COMMAND_RULES = {"series": ("reads_alpha", "reads_zdeg", "reads_kj"),
                  "verify": ("reads_alpha", "reads_zdeg", "reads_mutate")}
_TABLE = [("series", row) for row in _KIND_ROWS] + [("verify", row) for row in _SUITE_ROWS]


def _row_argv(command, row, a=""):
    """A cheap run of one row (None: the `all` suite), with the --k/--j or --zdeg it reads."""
    name = "all" if row is None else row.name
    argv = [command, "--kind" if command == "series" else "--suite", name, "--n", "3", "--a", a, "--qdeg", "1"]
    if getattr(row, "reads_kj", False):
        argv += _FLAG_RULES["reads_kj"][0]
    if command == "verify" and (row is None or row.reads_zdeg):
        argv += _FLAG_RULES["reads_zdeg"][0]
    return argv


@pytest.fixture(scope="module")
def table_run():
    """run() on an argv, once per argv in this module: (exit code, stdout, stderr)."""
    seen = {}

    def go(argv):
        if tuple(argv) not in seen:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                seen[tuple(argv)] = (run(argv), out.getvalue(), err.getvalue())
        return seen[tuple(argv)]

    return go


@pytest.mark.parametrize("command,row", _TABLE, ids=[row.name for _, row in _TABLE])
def test_table_row_runs_and_its_flag_rules_hold(table_run, command, row):
    def payload(argv):
        code, out, err = table_run(argv)
        assert code == 0 and err == "", argv
        return json.loads(out)["payload"]

    argv = _row_argv(command, row)
    payload(argv)
    for field in _COMMAND_RULES[command]:
        flag, message = _FLAG_RULES[field]
        code, out, err = table_run(argv + flag)
        if getattr(row, field, False):
            assert code in (0, 1) and err == "", (argv, flag)
        else:
            assert (code, out, err) == (2, "", f"error: {message}\n"), (argv, flag)
    if command == "series":
        return
    # `all` runs the rows in table order, each as it runs alone, and skips
    # fano-vanishing exactly when it does not apply: at |a| = 2 > n - 2
    for a in ("1", "2"):
        cfg = RunConfig("verify", n=3, a=(int(a),), qdeg=1)
        assert row.applies(cfg) is not (row.name == "fano-vanishing" and a == "2")
        whole = payload(_row_argv("verify", None, a))
        at = _SUITE_ROWS.index(row)
        earlier = sum((payload(_row_argv("verify", r, a)) for r in _SUITE_ROWS[:at] if r.applies(cfg)), [])
        assert whole[:len(earlier)] == earlier
        if row.applies(cfg):
            mine = payload(_row_argv("verify", row, a))
            assert mine and whole[len(earlier):len(earlier) + len(mine)] == mine
        else:
            later = sum((payload(_row_argv("verify", r, a)) for r in _SUITE_ROWS[at + 1:] if r.applies(cfg)), [])
            assert whole[len(earlier):] == later
            expected = (2, "", f"error: {row.name} needs |a| <= n - 2 and qdeg >= 1\n")
            assert table_run(_row_argv("verify", row, a)) == expected


def test_run_reaches_the_traced_functions_through_module_globals(capsys, monkeypatch):
    # patched as the traced benchmark wraps them: every qgr module global
    # that is the original.  A table or dict that held one of these
    # function objects would call the original, and its count stays 0.
    import sys

    import qgr.cli
    import qgr.operators
    import qgr.series
    import qgr.verifier

    homes = {
        qgr.cli: ("cmd_series", "cmd_verify", "cmd_double_j"),
        qgr.verifier: ("check_recursive", "build_phi", "residue_internal_check"),
        qgr.operators: ("audit_frakD_normalizations", "orthogonality_check"),
        qgr.series: ("laurent_expand_hbar",),
    }
    modules = [m for key, m in sys.modules.items() if key == "qgr" or key.startswith("qgr.")]
    counts = {}
    for home, names in homes.items():
        for name in names:
            orig = getattr(home, name)
            counts[name] = 0

            def counted(*args, _orig=orig, _name=name, **kwargs):
                counts[_name] += 1
                return _orig(*args, **kwargs)

            for module in modules:
                for attr, val in list(vars(module).items()):
                    if val is orig:
                        monkeypatch.setattr(module, attr, counted)
    for argv in (
        ["series", "--kind", "dot-closed", "--n", "3", "--qdeg", "1"],
        ["verify", "--suite", "all", "--n", "3", "--a", "", "--qdeg", "1", "--zdeg", "1"],
        ["double-j", "--n", "3", "--a", "", "--qdeg", "1"],
    ):
        assert run(argv) == 0, argv
    capsys.readouterr()
    assert all(counts.values()), counts
