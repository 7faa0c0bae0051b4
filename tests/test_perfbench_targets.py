"""The traced benchmark run wraps qgr functions by name; a renamed or
deleted target makes ``Tracer.install`` raise.  This catches that here."""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
