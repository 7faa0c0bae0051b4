"""The traced benchmark run wraps qgr functions by name; a renamed or
deleted target makes ``Tracer.install`` raise.  This catches that here."""

import importlib
import importlib.util
import inspect
import json
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _load(name):
    """Load perfbench/<name>.py as a module, leaving sys.path as it was."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    saved = list(sys.path)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module


def _load_tracer():
    return _load("tracer")


def test_trace_targets_resolve():
    tracer = _load_tracer()
    targets = [t for names in tracer.TARGETS.values() for t in names]
    assert targets
    for target in targets:
        modname, qual = target.split(":")
        obj = importlib.import_module(f"qgr.{modname}")
        for attr in qual.split("."):
            assert hasattr(obj, attr), target
            obj = getattr(obj, attr)
        assert callable(obj), target


def test_x_coefficients_order_parameter_name():
    # the tracer's x_coefficients probe reads the order by this name
    from qgr.series import x_coefficients

    assert list(inspect.signature(x_coefficients).parameters)[1] == "max_x_degree"


def test_tracer_sizes_evaluated_values():
    # the probes read .num / .den of fixed-point values as polynomials in h
    from qgr.cohomology import default_generic_alpha
    from qgr.hyper import CISpec, y_series_evaluated

    tracer = _load_tracer()
    Y = y_series_evaluated("dot", 3, CISpec((1,)), default_generic_alpha(3), 1, 2, 2)
    assert tracer._den_h_degree(Y) > 0
    assert tracer._coeff_bits(Y) > 0


def test_tracer_sizes_phi_payload():
    # the build_phi and check_mpc probes read .payload.coeffs as a dict of
    # HRat values, one per nonzero (q, z) entry
    from fractions import Fraction

    from qgr.cohomology import default_generic_alpha
    from qgr.hyper import CISpec, y_series_evaluated
    from qgr.verifier import build_phi

    tracer = _load_tracer()
    n, a, al, D, Nz = 3, CISpec((1,)), default_generic_alpha(3), 2, 2
    pairs = [(1, 2), (1, 3), (2, 3)]
    Fd = {p: y_series_evaluated("dot", n, a, al, *p, D) for p in pairs}
    Fdd = {p: y_series_evaluated("ddot", n, a, al, *p, D) for p in pairs}
    payload = build_phi(Fd, Fdd, lambda i, j: Fraction(i + 2 * j), al, n, Nz, D).payload
    assert tracer._den_h_degree(payload) > 0
    assert tracer._coeff_bits(payload) > 0
    box = [payload.get((d, p)) for d in range(D + 1) for p in range(Nz + 1)]
    assert len(payload.coeffs) == sum(1 for v in box if v != 0)


# Installs the tracer, runs every golden CLI case through qgr.cli.run with
# stdout discarded, and prints the targets that were never called.
_CALL_EVERY_TARGET = textwrap.dedent("""
    import contextlib, importlib.util, io, json, sys
    root = sys.argv[1]
    sys.path[:0] = [root + "/src", root + "/perfbench"]
    import qgr.cli
    from tracer import Tracer

    spec = importlib.util.spec_from_file_location("golden", root + "/tests/test_cli_golden.py")
    golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(golden)
    tracer = Tracer()
    tracer.install()
    for argv, _, _ in golden.GOLDEN:
        with contextlib.redirect_stdout(io.StringIO()):
            qgr.cli.run(argv)
    print(json.dumps([n for n, c in zip(tracer.names, tracer.calls) if not c]))
""")


def test_golden_cases_call_every_trace_target():
    # A target that no workload calls makes the traced benchmark run fail;
    # the golden cases cover every command, so each target must show up
    # there.  A subprocess keeps the wrapped functions out of other tests.
    proc = subprocess.run([sys.executable, "-c", _CALL_EVERY_TARGET, str(ROOT)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


# The symbolic benchmark jobs that draw no input, and the drawn y-gamma
# and ydd-gamma jobs at every class they draw from: the golden digests stop
# at n = 3, so these are the tier-1 view of the n = 4 operator pipeline.
_SYMBOLIC_N4 = (
    ["double-j", "--n", "4", "--a", "2", "--qdeg", "3"],
    ["double-j", "--n", "4", "--a", "4", "--qdeg", "2"],
    ["verify", "--suite", "operator-norms", "--n", "4", "--a", "2", "--qdeg", "2"],
    ["series", "--kind", "y-gamma", "--n", "4", "--a", "4", "--qdeg", "2", "--k", "2", "--j", "1"],
    ["series", "--kind", "ydd-gamma", "--n", "4", "--a", "4", "--qdeg", "2", "--k", "3", "--j", "0"],
    ["series", "--kind", "y-gamma", "--n", "4", "--a", "4", "--qdeg", "2", "--k", "0", "--j", "0"],
    ["series", "--kind", "y-gamma", "--n", "4", "--a", "4", "--qdeg", "2", "--k", "1", "--j", "0"],
    ["series", "--kind", "y-gamma", "--n", "4", "--a", "4", "--qdeg", "2", "--k", "2", "--j", "0"],
    ["series", "--kind", "y-gamma", "--n", "4", "--a", "4", "--qdeg", "2", "--k", "3", "--j", "0"],
    ["series", "--kind", "y-gamma", "--n", "4", "--a", "4", "--qdeg", "2", "--k", "4", "--j", "0"],
    ["series", "--kind", "ydd-gamma", "--n", "4", "--a", "4", "--qdeg", "2", "--k", "0", "--j", "0"],
    ["series", "--kind", "ydd-gamma", "--n", "4", "--a", "4", "--qdeg", "2", "--k", "1", "--j", "0"],
    ["series", "--kind", "ydd-gamma", "--n", "4", "--a", "4", "--qdeg", "2", "--k", "2", "--j", "0"],
    ["series", "--kind", "ydd-gamma", "--n", "4", "--a", "4", "--qdeg", "2", "--k", "2", "--j", "1"],
    ["series", "--kind", "ydd-gamma", "--n", "4", "--a", "4", "--qdeg", "2", "--k", "4", "--j", "0"],
)

# closedform benchmark jobs at one drawn input each: they divide in
# bar_assemble at generic alpha, in build_Y_closed and in the x-adic
# inverse, all at n >= 4.
_CLOSEDFORM = (
    ["series", "--kind", "z-normalized", "--n", "4", "--a", "4", "--qdeg", "4"],
    ["series", "--kind", "dot-bar", "--n", "5", "--a", "1,2", "--qdeg", "3", "--alpha", "1,2,12,21,28"],
    ["verify", "--suite", "fano-vanishing", "--n", "4", "--a", "", "--qdeg", "3", "--alpha", "10,11,15,28"],
)


def test_symbolic_and_closedform_documents_match_reference():
    import qgr.cli

    worker = _load("worker")
    with open(PERFBENCH / "reference.json") as f:
        reference = json.load(f)["jobs"]
    for argv in _SYMBOLIC_N4 + _CLOSEDFORM:
        code, text, error = worker.run_job(qgr, argv)
        assert worker.grade(reference, argv, code, text, error) == "", argv


# fixedpoint benchmark jobs, each template at one weight drawn from its
# pool, the two fault-injected ones (reference verdict fail) included
_FIXEDPOINT = (
    ["verify", "--suite", "recursivity", "--n", "3", "--a", "1,1,1", "--qdeg", "3", "--alpha", "13,20,23"],
    ["verify", "--suite", "mpc", "--n", "3", "--a", "1,1,1", "--qdeg", "3", "--zdeg", "3", "--alpha", "4,6,32"],
    ["verify", "--suite", "recursivity", "--n", "4", "--a", "2", "--qdeg", "3", "--alpha", "4,10,17,33"],
    ["verify", "--suite", "mpc", "--n", "4", "--a", "2", "--qdeg", "2", "--zdeg", "2", "--alpha", "4,10,17,33"],
    ["verify", "--suite", "residue-internal", "--n", "3", "--a", "1", "--qdeg", "3", "--alpha", "7,19,30"],
    ["verify", "--suite", "recursivity", "--n", "3", "--a", "", "--qdeg", "3", "--mutate", "1:1", "--alpha", "13,20,23"],
    ["verify", "--suite", "mpc", "--n", "3", "--a", "", "--qdeg", "3", "--mutate", "1:1", "--alpha", "14,31,35"],
)


def test_fixedpoint_documents_match_reference():
    import qgr.cli

    worker = _load("worker")
    with open(PERFBENCH / "reference.json") as f:
        reference = json.load(f)["jobs"]
    for argv in _FIXEDPOINT:
        code, text, error = worker.run_job(qgr, argv)
        assert worker.grade(reference, argv, code, text, error) == "", argv
