"""Per-layer tracing from outside the program.

Every named function is wrapped where it is looked up: module globals in
every ``qgr`` module that holds the same function object (``from .series
import x_coefficients`` copies the binding into ``operators`` and
``cli``), and every class attribute that is the same method (so
``__radd__ = __add__`` aliases are covered).  Each call becomes a span
(name, start, end, parent span, job id) kept in compact arrays and
written out once, at the end of the pass.  Self time is a span's duration
minus the time its child spans cover; the time the tracer spends
measuring result sizes is counted as covered, so it lands in no layer.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from fractions import Fraction

# metric name prefix -> the attributes it wraps, as "module:qualname"
TARGETS = {
    "rings.SparsePoly.mul": ("rings:SparsePoly.__mul__", "rings:SparsePoly.mul_trunc"),
    "rings.SparsePoly.add": ("rings:SparsePoly.__add__",),
    "rings.SparsePoly.divide_exact": ("rings:SparsePoly.divide_exact",),
    "rings.RatFunc.init": ("rings:RatFunc.__init__",),
    "rings.RatFunc.add": ("rings:RatFunc.__add__",),
    "rings.RatFunc.mul": ("rings:RatFunc.__mul__",),
    "rings.RatFunc.eq": ("rings:RatFunc.__eq__",),
    "rings.RatFunc.reduced": ("rings:RatFunc.reduced",),
    "rings.to_string": ("rings:SparsePoly.to_string",),
    "series.x_coefficients": ("series:x_coefficients",),
    "series.laurent_expand_hbar": ("series:laurent_expand_hbar",),
    "series.QSeries.mul": ("series:QSeries.__mul__",),
    "series.QSeries.add": ("series:QSeries.__add__",),
    "series.QSeries.inverse_unit": ("series:QSeries.inverse_unit",),
    "series.QSeries.substitute_q_neg": ("series:QSeries.substitute_q_neg",),
    "residues.residue_at": ("residues:residue_at",),
    "residues.pole_order_at": ("residues:pole_order_at",),
    "residues.residue_sum_check": ("residues:residue_sum_check",),
    "cohomology.genericity_check": ("cohomology:genericity_check",),
    "cohomology.partitions_of_degree": ("cohomology:partitions_of_degree",),
    "cohomology.box_partitions": ("cohomology:box_partitions",),
    "cohomology.diagonal": ("cohomology:diagonal",),
    "hyper.build_A": ("hyper:build_A",),
    "hyper.build_K": ("hyper:build_K",),
    "hyper.bar_assemble": ("hyper:bar_assemble",),
    "hyper.build_Y_closed": ("hyper:build_Y_closed",),
    "hyper.normalization_I": ("hyper:normalization_I",),
    "hyper.a_series_evaluated": ("hyper:a_series_evaluated",),
    "hyper.k_series_evaluated": ("hyper:k_series_evaluated",),
    "hyper.bar_evaluated": ("hyper:bar_evaluated",),
    "hyper.y_series_evaluated": ("hyper:y_series_evaluated",),
    "hyper.c_coeff": ("hyper:c_coeff",),
    "hyper.scr_coeff": ("hyper:scr_coeff",),
    "verifier.check_recursive": ("verifier:check_recursive",),
    "verifier.check_recursive_2q": ("verifier:check_recursive_2q",),
    "verifier.build_phi": ("verifier:build_phi",),
    "verifier.check_mpc": ("verifier:check_mpc",),
    "verifier.residue_internal_check": ("verifier:residue_internal_check",),
    "operators.build_pipeline": ("operators:build_pipeline",),
    "operators.frakD_family_normalized": ("operators:frakD_family_normalized",),
    "operators.build_barD_normalized": ("operators:build_barD_normalized",),
    "operators.class_extract": ("operators:class_extract",),
    "operators.neumann_inverse": ("operators:neumann_inverse",),
    "operators.audit_frakD_normalizations": ("operators:audit_frakD_normalizations",),
    "operators.assemble_Y_gamma": ("operators:assemble_Y_gamma",),
    "operators.orthogonality_check": ("operators:orthogonality_check",),
    "operators.assemble_double_J": ("operators:assemble_double_J",),
    "cli.run": ("cli:run",),
    "cli.cmd_series": ("cli:cmd_series",),
    "cli.cmd_verify": ("cli:cmd_verify",),
    "cli.cmd_double_j": ("cli:cmd_double_j",),
}

# size and waste counters measured on results, beside calls and self time
EXTRA_METRICS = (
    ("rings.SparsePoly.divide_exact.hit_ratio", "ratio"),
    ("series.x_coefficients.distinct_ratio", "ratio"),
    ("series.x_coefficients.max_coeff_bits", "bits"),
    ("hyper.y_series_evaluated.max_den_h_degree", "count"),
    ("hyper.y_series_evaluated.max_coeff_bits", "bits"),
    ("verifier.entries_checked", "count"),
    ("verifier.build_phi.max_den_h_degree", "count"),
    ("verifier.build_phi.max_coeff_bits", "bits"),
    ("operators.class_extract.max_coeff_bits", "bits"),
    ("trace.overhead_ratio", "ratio"),
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    out = {}
    for name in TARGETS:
        out[f"{name}.calls"] = "count"
        out[f"{name}.self_s"] = "s"
    out.update(EXTRA_METRICS)
    return out


def _coeff_bits(v) -> int:
    """Largest numerator/denominator bit length among the rational
    coefficients inside a value (Fraction, polynomial, rational function,
    Laurent expansion, series, or a dict of those)."""
    if isinstance(v, Fraction):
        return max(v.numerator.bit_length(), v.denominator.bit_length())
    if isinstance(v, int):
        return v.bit_length()
    if isinstance(v, dict):
        return max(map(_coeff_bits, v.values()), default=0)
    if hasattr(v, "num") and hasattr(v, "den"):  # RatFunc
        return max(_coeff_bits(v.num), _coeff_bits(v.den))
    if hasattr(v, "terms") and isinstance(v.terms, dict):  # SparsePoly
        return max(map(_coeff_bits, v.terms.values()), default=0)
    if hasattr(v, "coeffs"):  # LaurentExpansion, QSeries
        return _coeff_bits(v.coeffs)
    return 0


def _den_h_degree(series) -> int:
    best = 0
    for v in series.coeffs.values():
        den = getattr(v, "den", None)
        if den is not None and "h" in den.vars:
            best = max(best, den.degree_in("h"))
    return best


class Tracer:
    """Wraps the named qgr functions and records one span per call."""

    def __init__(self):
        self.names = list(TARGETS)
        n = len(self.names)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.inclusive_s = [0.0] * n  # outermost calls only
        self._active = [0] * n
        self.sp_name = array("H")
        self.sp_start = array("d")
        self.sp_end = array("d")
        self.sp_parent = array("i")
        self.sp_job = array("H")
        self._stack: list[list] = []
        self.job = [0]
        self.counters = {
            "divide_hits": 0,
            "xcoeff_keys": set(),
            "xcoeff_bits": 0,
            "y_h_degree": 0,
            "y_bits": 0,
            "entries_checked": 0,
            "phi_h_degree": 0,
            "phi_bits": 0,
            "class_bits": 0,
        }

    # -- probes: run after a call returns, outside every layer's self time

    def _probe_divide(self, args, kwargs, result):
        if result is not None:
            self.counters["divide_hits"] += 1

    def _probe_xcoeff(self, args, kwargs, result):
        c = self.counters
        order = args[1] if len(args) > 1 else kwargs["max_x_degree"]
        c["xcoeff_keys"].add((args[0].den, order))
        c["xcoeff_bits"] = max(c["xcoeff_bits"], _coeff_bits(result))

    def _probe_y(self, args, kwargs, result):
        c = self.counters
        c["y_h_degree"] = max(c["y_h_degree"], _den_h_degree(result))
        c["y_bits"] = max(c["y_bits"], _coeff_bits(result))

    def _probe_phi(self, args, kwargs, result):
        c = self.counters
        c["phi_h_degree"] = max(c["phi_h_degree"], _den_h_degree(result.payload))
        c["phi_bits"] = max(c["phi_bits"], _coeff_bits(result.payload))

    def _probe_entries(self, args, kwargs, result):
        self.counters["entries_checked"] += len(result.entries)

    def _probe_mpc(self, args, kwargs, result):
        self.counters["entries_checked"] += len(args[0].payload.coeffs)

    def _probe_class(self, args, kwargs, result):
        c = self.counters
        c["class_bits"] = max(c["class_bits"], _coeff_bits(result))

    def _probes(self):
        return {
            "rings.SparsePoly.divide_exact": self._probe_divide,
            "series.x_coefficients": self._probe_xcoeff,
            "hyper.y_series_evaluated": self._probe_y,
            "verifier.build_phi": self._probe_phi,
            "verifier.check_recursive": self._probe_entries,
            "verifier.check_recursive_2q": self._probe_entries,
            "verifier.check_mpc": self._probe_mpc,
            "operators.class_extract": self._probe_class,
        }

    # -- wrapping

    def _wrap(self, nid: int, fn, probe):
        clock = time.perf_counter
        stack = self._stack
        calls, self_s, inclusive, active = self.calls, self.self_s, self.inclusive_s, self._active
        sp_name, sp_start, sp_end = self.sp_name, self.sp_start, self.sp_end
        sp_parent, sp_job, job = self.sp_parent, self.sp_job, self.job

        def traced(*args, **kwargs):
            idx = len(sp_start)
            sp_name.append(nid)
            sp_parent.append(stack[-1][0] if stack else -1)
            sp_job.append(job[0])
            sp_end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            active[nid] += 1
            done = False
            t0 = clock()
            sp_start.append(t0)
            try:
                result = fn(*args, **kwargs)
                done = True
            finally:
                t1 = clock()
                sp_end[idx] = t1
                stack.pop()
                active[nid] -= 1
                calls[nid] += 1
                self_s[nid] += (t1 - t0) - frame[1]
                if not active[nid]:
                    inclusive[nid] += t1 - t0
                if done and probe is not None:
                    probe(args, kwargs, result)
                if stack:
                    stack[-1][1] += clock() - t0
            return result

        return traced

    def install(self) -> None:
        """Wrap every target; raises if a named function no longer exists."""
        qgr_modules = [m for k, m in sorted(sys.modules.items()) if k == "qgr" or k.startswith("qgr.")]
        probes = self._probes()
        for nid, name in enumerate(self.names):
            for target in TARGETS[name]:
                modname, qual = target.split(":")
                module = sys.modules[f"qgr.{modname}"]
                if "." in qual:
                    clsname, attr = qual.split(".")
                    owner = getattr(module, clsname)
                    orig = owner.__dict__[attr]
                    holders = [owner]
                else:
                    orig = getattr(module, qual)
                    holders = qgr_modules
                wrapped = self._wrap(nid, orig, probes.get(name))
                hits = 0
                for holder in holders:
                    for key, val in list(vars(holder).items()):
                        if val is orig:
                            setattr(holder, key, wrapped)
                            hits += 1
                if not hits:
                    raise RuntimeError(f"trace target {target} not found")

    # -- results

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything traced so far (no overhead ratio)."""
        out = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[nid]
            out[f"{name}.self_s"] = self.self_s[nid]
        c = self.counters
        ncall = dict(zip(self.names, self.calls))
        div = ncall["rings.SparsePoly.divide_exact"]
        xc = ncall["series.x_coefficients"]
        out["rings.SparsePoly.divide_exact.hit_ratio"] = c["divide_hits"] / div if div else 0.0
        out["series.x_coefficients.distinct_ratio"] = len(c["xcoeff_keys"]) / xc if xc else 0.0
        out["series.x_coefficients.max_coeff_bits"] = c["xcoeff_bits"]
        out["hyper.y_series_evaluated.max_den_h_degree"] = c["y_h_degree"]
        out["hyper.y_series_evaluated.max_coeff_bits"] = c["y_bits"]
        out["verifier.entries_checked"] = c["entries_checked"]
        out["verifier.build_phi.max_den_h_degree"] = c["phi_h_degree"]
        out["verifier.build_phi.max_coeff_bits"] = c["phi_bits"]
        out["operators.class_extract.max_coeff_bits"] = c["class_bits"]
        return out

    def inclusive(self) -> dict[str, float]:
        return dict(zip(self.names, self.inclusive_s))

    def ancestors(self, name: str) -> set[str]:
        """Names seen on the call stack above any call of `name`."""
        nid = self.names.index(name)
        seen = set()
        parent = self.sp_parent
        for idx, sid in enumerate(self.sp_name):
            if sid != nid:
                continue
            p = parent[idx]
            while p >= 0:
                seen.add(self.names[self.sp_name[p]])
                p = parent[p]
        return seen

    def write_spans(self, path: str, jobs: list) -> None:
        """Spans as one JSON document of parallel columns (times in seconds
        from the first span; parent -1 for a root span)."""
        base = self.sp_start[0] if self.sp_start else 0.0
        doc = {
            "names": self.names,
            "jobs": jobs,
            "columns": ["name", "start_s", "end_s", "parent", "job"],
            "name": self.sp_name.tolist(),
            "start_s": [round(t - base, 7) for t in self.sp_start],
            "end_s": [round(t - base, 7) for t in self.sp_end],
            "parent": self.sp_parent.tolist(),
            "job": self.sp_job.tolist(),
        }
        with open(path, "w") as f:
            json.dump(doc, f, separators=(",", ":"))
