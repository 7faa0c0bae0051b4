import json

import pytest

from qgr.cli import run


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


def test_verify_exit_codes(capsys):
    code, doc = run_json(capsys, ["verify", "--suite", "recursivity", "--n", "3", "--a", "", "--qdeg", "2"])
    assert code == 0 and doc["pass"] is True
    code2, doc2 = run_json(capsys, ["verify", "--suite", "orthogonality", "--n", "3", "--a", "1", "--qdeg", "2"])
    assert code2 == 0 and doc2["pass"] is True


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
