"""Command-line front end: compute series tables, run verification
suites, and emit machine-readable results.

Every number in the JSON output is exact (canonical strings for
polynomials and rational functions, p/q strings for rationals, never
floats).  Identical configuration yields byte-identical output.  Exit
codes: 0 success, 1 verification/cross-check failure, 2 usage errors,
3 internal faults (an arithmetic or value error inside the computation).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Callable
from fractions import Fraction

from .cohomology import (
    GenericityError,
    box_partitions,
    schur_poly,
    default_generic_alpha,
    diagonal,
    equivariant_diagonal,
    fixed_points,
    genericity_check,
    localization_data,
    pairing,
    partitions_of_degree,
)
from .hyper import (
    AMatrixSpec,
    CISpec,
    a_series_evaluated,
    bar_assemble,
    build_A,
    build_K,
    build_Y_closed,
    c_coeff,
    normalization_I,
    scr_coeff,
    y_series_evaluated,
)
from .operators import (
    assemble_double_J,
    audit_frakD_normalizations,
    build_pipeline,
    orthogonality_check,
)
from .rings import RatFunc, SparsePoly, _Record
from .series import QSeries, laurent_expand_hbar
from .verifier import build_phi, check_mpc, check_recursive, check_recursive_2q, residue_internal_check


class UsageError(ValueError):
    pass


class RunConfig:
    def __init__(self, command: str, n: int = 3, a: tuple[int, ...] = (), qdeg: int = 3, zdeg: int = 3,
                 depth: int | None = None, alpha_mode: str = "zero", alpha: tuple | None = None,
                 k: int | None = None, j: int | None = None, kind: str | None = None, suite: str | None = None,
                 mutate: tuple[int, int] | None = None, equivariant: bool = False, output: str | None = None):
        """Every argument is an attribute of the same name; alpha_mode is zero, generic or explicit."""
        self.command, self.n, self.a, self.qdeg, self.zdeg, self.depth = command, n, a, qdeg, zdeg, depth
        self.alpha_mode, self.alpha, self.k, self.j, self.kind = alpha_mode, alpha, k, j, kind
        self.suite, self.mutate, self.equivariant, self.output = suite, mutate, equivariant, output

    def ci(self) -> CISpec:
        return CISpec(self.a)

    def fixed_point_alpha(self) -> tuple:
        """Concrete weights for a fixed-point computation: the explicit
        list, else the generic default; both pass the genericity check."""
        if self.alpha_mode == "explicit":
            al = self.alpha
            if al is None or len(al) != self.n:
                raise UsageError("explicit alpha must list n values")
        else:
            al = default_generic_alpha(self.n)
        genericity_check(al, self.qdeg)
        return tuple(al)


def _parse_a(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError as e:
        raise UsageError(f"bad -a list {text!r}") from e


def _parse_alpha(text: str):
    try:
        return tuple(Fraction(t) for t in text.split(","))
    except (ValueError, ZeroDivisionError) as e:
        raise UsageError(f"bad --alpha {text!r}: zero, generic or a comma list of rationals") from e


def _coeff_str(v) -> str:
    if isinstance(v, (int, Fraction)):
        return str(Fraction(v))
    if isinstance(v, (RatFunc, SparsePoly)):
        return v.to_string()
    raise TypeError(f"unserializable value {type(v)}")


def _laurent_table(le) -> dict:
    return {str(e): _coeff_str(v) for e, v in sorted(le.coeffs.items(), reverse=True)}


def _series_entries(qs: QSeries) -> list:
    return [{"q": list(key), "coeff": _coeff_str(v)} for key, v in qs.terms()]


def _emit(cfg: RunConfig, payload, extra=None) -> dict:
    """The document: the configuration as given, the payload, and any extra fields."""
    meta = dict(vars(cfg))
    meta["a"] = list(cfg.a)
    if cfg.alpha is not None:
        meta["alpha"] = [str(x) for x in cfg.alpha]
    return {"meta": meta, "payload": payload, **(extra or {})}


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------


# Each series kind and verify suite is one row of _KIND_ROWS or _SUITE_ROWS
# plus a runner; _make_config reads every flag rule and message from the
# rows.  Rows hold only this module's runners, which reach the library by
# global lookup, so a wrapper or patch on a module global sees every call.


class _Kind(_Record):
    """A series kind: its ladder (dot or ddot), the flags it reads, and its
    runner (cfg, base) -> (payload, extra document fields or None)."""
    _fields = ("name", "base", "run", "reads_alpha", "reads_kj")

    def __init__(self, name: str, base: str, run: Callable, reads_alpha: bool = False, reads_kj: bool = False):
        self.name, self.base, self.run, self.reads_alpha, self.reads_kj = name, base, run, reads_alpha, reads_kj


def _series_closed(cfg: RunConfig, base: str):
    return _series_entries(build_Y_closed(base, cfg.n, cfg.ci(), cfg.qdeg).series()), None


def _series_bar(cfg: RunConfig, base: str):
    al = None if cfg.alpha_mode == "zero" else cfg.fixed_point_alpha()
    Y = bar_assemble(build_K(base, cfg.n, cfg.ci(), al, cfg.qdeg))
    return _series_entries(Y.series()), None


def _series_dual(cfg: RunConfig, base: str):
    n, a, D = cfg.n, cfg.ci(), cfg.qdeg
    Ybar = bar_assemble(build_K(base, n, a, None, D)).series()
    Yclosed = build_Y_closed(base, n, a, D).series()
    equal = all(Ybar.get((d,)) == Yclosed.get((d,)) for d in range(D + 1))
    return {"closed": _series_entries(Yclosed), "bar": _series_entries(Ybar)}, {"equal": equal}


def _series_normalization(cfg: RunConfig, base: str):
    return _series_entries(normalization_I(base, cfg.n, cfg.ci(), cfg.qdeg)), None


def _series_normalized(cfg: RunConfig, base: str):
    n, a, D = cfg.n, cfg.ci(), cfg.qdeg
    Y = build_Y_closed(base, n, a, D)
    I = normalization_I(base, n, a, D)
    Z = Y.series() * I.inverse_unit().map_values(lambda v: RatFunc.from_scalar(v, ("x1", "x2", "h")))
    return _series_entries(Z), None


def _series_ygamma(cfg: RunConfig, base: str):
    """The basis-weighted series of class j of degree k, each term with its
    class; _make_config has checked k and j."""
    pipe = build_pipeline(base, cfg.n, cfg.ci(), None, cfg.qdeg)
    lam = partitions_of_degree(cfg.n, cfg.k)[cfg.j]
    payload = []
    for key, v in pipe.ygamma[lam].terms():
        cls = pipe.classes[lam][key[0]]
        payload.append({
            "q": list(key),
            "coeff": _coeff_str(v),
            "class": {f"{r},{jj}": _laurent_table(le) for (r, jj), le in sorted(cls.items())},
        })
    return payload, None


_KIND_ROWS = (
    _Kind("dot-closed", "dot", _series_closed),
    _Kind("ddot-closed", "ddot", _series_closed),
    _Kind("dot-bar", "dot", _series_bar, reads_alpha=True),
    _Kind("ddot-bar", "ddot", _series_bar, reads_alpha=True),
    _Kind("dot-dual", "dot", _series_dual),
    _Kind("ddot-dual", "ddot", _series_dual),
    _Kind("i-normalization", "dot", _series_normalization),
    _Kind("z-normalized", "dot", _series_normalized),
    _Kind("zdd-normalized", "ddot", _series_normalized),
    _Kind("y-gamma", "dot", _series_ygamma, reads_kj=True),
    _Kind("ydd-gamma", "ddot", _series_ygamma, reads_kj=True),
)


def cmd_series(cfg: RunConfig) -> tuple[dict, int]:
    [row] = _rows(cfg)
    payload, extra = row.run(cfg, row.base)
    return _emit(cfg, payload, extra), (0 if extra is None or extra["equal"] else 1)


def _record(check: str, failures: list, ok: bool | None = None) -> dict:
    """One verify result; unless `ok` is given, it passes when nothing failed."""
    return {"check": check, "pass": not failures if ok is None else ok, "failures": failures}


def _y_evals(kind, n, a, al, D, pairs, mutate=None):
    """Fixed-point evaluations at `pairs`; `mutate` is injected at (1, 2) only.
    build_phi reads only the pairs i < j, each standing for both orderings,
    so in the mpc suite a fault at (1, 2) acts on (2, 1) as well."""
    return {
        (i, j): y_series_evaluated(kind, n, a, al, i, j, D, mutate if (i, j) == (1, 2) else None)
        for (i, j) in pairs
    }


def _suite_recursivity(cfg: RunConfig, al, pipes) -> list[dict]:
    n, a, D = cfg.n, cfg.ci(), cfg.qdeg
    results = []
    espec = AMatrixSpec(n=n, rows=a.rows, alpha1=al, alpha2=al)
    for kind in ("dot", "ddot"):
        evals = _y_evals(kind, n, a, al, D, fixed_points(n), mutate=cfg.mutate if kind == "dot" else None)
        rep = check_recursive(
            evals, lambda s, i, j, k, d, _k=kind: c_coeff(_k, s, i, j, k, d, espec), al, D, n
        )
        results.append(_record(f"recursivity-{kind}", [
            {"pair": list(e.pair), "q": list(e.degree), "note": e.note,
             "remainder": e.remainder.to_string() if e.remainder is not None else ""}
            for e in rep.failures()
        ], rep.all_pass))
    # two-variable mode on the ladder series with independent weight families
    spec = AMatrixSpec(n=n, rows=a.rows, alpha1=al, alpha2=tuple(Fraction(11**m) for m in range(1, n + 1)))
    D2 = min(D, 2)
    for kind in ("dot", "ddot"):
        evals2 = {
            (i1, i2): a_series_evaluated(kind, spec, i1, i2, D2)
            for i1 in range(1, n + 1)
            for i2 in range(1, n + 1)
        }
        rep2 = check_recursive_2q(
            evals2,
            lambda s, i1, i2, k, d, _k=kind: scr_coeff(_k, s, i1, i2, k, d, spec),
            spec.alpha1, spec.alpha2, D2, n,
        )
        failures = [{"pair": list(e.pair), "q": list(e.degree), "note": e.note} for e in rep2.failures()]
        results.append(_record(f"recursivity-2q-{kind}", failures, rep2.all_pass))
    return results


def _suite_mpc(cfg: RunConfig, al, pipes) -> list[dict]:
    n, a, D, Nz = cfg.n, cfg.ci(), cfg.qdeg, cfg.zdeg
    pairs = [(i, j) for i, j in fixed_points(n) if i < j]  # the pairs build_phi reads
    Fd = _y_evals("dot", n, a, al, D, pairs, mutate=cfg.mutate)
    Fdd = _y_evals("ddot", n, a, al, D, pairs)
    eta = lambda i, j: a.product * (al[i - 1] + al[j - 1]) ** a.ell
    results = []
    for check, right, pair_eta in (("spc-dot", Fd, eta), ("mpc-dot-ddot", Fdd, lambda i, j: Fraction(1))):
        ok, off = check_mpc(build_phi(Fd, right, pair_eta, al, n, Nz, D))
        results.append(_record(check, [{"zq": list(k), "coeff": v.to_string()} for k, v in off], ok))
    return results


def _suite_operator_norms(cfg: RunConfig, al, pipes: tuple) -> list[dict]:
    n, D = cfg.n, cfg.qdeg
    results = []
    rows = (((1, 1),) if n == 3 else ((2, 1),))
    for akind in ("dot", "ddot"):
        A = build_A(akind, AMatrixSpec(n=n, rows=rows), min(D, 2))
        for p in ((1, 0), (0, 1), (1, 1), (2, 0)):
            rep = audit_frakD_normalizations(A, p)
            failures = [
                {"q": list(o["q"]), "r": list(o["r"]), "s": o["s"], "got": _coeff_str(o["got"])}
                for o in rep["offenders"][:5]
            ]
            results.append(_record(f"shift-operator-tables-{akind}-p{p}", failures, rep["ok"]))
    for kind, pipe in zip(("dot", "ddot"), pipes):
        results.append(_record(f"inverse-certificates-{kind}", [], all(pipe.J_certified.values())))
        residual_failures = [{"k": k, "i": i} for (k, i), ok in pipe.eqtic_residual_zero.items() if not ok]
        results.append(_record(f"structure-residual-{kind}", residual_failures))
        t0_failures = [
            {"k": k, "i": i, "s": s, "j": j}
            for (k, i), table in pipe.structC.items()
            for (t, (s, j)), ser in table.items()
            if t == 0 and not ser == (QSeries.one(1, D) if (s, j) == (k, i) else QSeries(1, D))
        ]
        results.append(_record(f"structure-t0-delta-{kind}", t0_failures))
    return results


def _suite_fano(cfg: RunConfig, al, pipes) -> list[dict]:
    """The h^0 and h^-1 terms of the bar series at q^1 .. q^qdeg, which
    must vanish for |a| <= n - 2.  This is the degree count of ROADMAP H4:
    the q^d coefficient is homogeneous of degree (|a| - n) d <= -2d in
    (x, h, alpha), so the check can fail only on a series of wrong degree."""
    n, a, D = cfg.n, cfg.ci(), cfg.qdeg
    Y = bar_assemble(build_K("dot", n, a, al, D, xtrunc=2 * (n - 2) + 1))
    mx = 2 * (n - 2)
    failures = []
    for d in range(1, D + 1):
        le = laurent_expand_hbar(Y.num_parts[(d,)], Y.dens[(d,)], 2, mx)
        parts = {ex: le.coeffs[ex].decompose_x() if ex in le.coeffs else {} for ex in (0, -1)}
        for e in ((e1, k - e1) for k in range(mx + 1) for e1 in range(k + 1)):
            for ex in (0, -1):
                got = parts[ex].get(e)
                if got is not None:
                    failures.append({"q": d, "x": list(e), "h_exp": ex, "coeff": _coeff_str(got.const_value())})
    return [_record("fano-vanishing", failures)]


def _suite_orthogonality(cfg: RunConfig, al, pipes: tuple) -> list[dict]:
    rep = orthogonality_check(*pipes)
    failures = [{"q": f["q"], "entry": [list(f["entry"][0]), list(f["entry"][1])]} for f in rep["failures"]]
    return [_record("diagonal-orthogonality", failures, rep["ok"])]


def _suite_residue_internal(cfg: RunConfig, al, pipes) -> list[dict]:
    n, a = cfg.n, cfg.ci()
    D = min(cfg.qdeg, 2)
    Nz = min(cfg.zdeg, 2)
    Y1 = bar_assemble(build_K("dot", n, a, al, D))
    Y2 = bar_assemble(build_K("ddot", n, a, al, D))
    eta_poly = SparsePoly.const(("x1", "x2"), 1)
    depth = cfg.n * cfg.qdeg + 2 if cfg.depth is None else cfg.depth
    rep = residue_internal_check(Y1, Y2, eta_poly, al, n, D, Nz, depth)
    bad = [c for c in rep["checks"] if not (c["sum_zero"] and c["regular_at_0"] and c["residue_at_0"] == 0)]
    failures = [{"var": c["var"], "z": c["z"], "q": c["q"], "h_exp": c["h_exp"]} for c in bad]
    return [_record("residue-internal", failures, rep["ok"])]


def _pipeline_pair(cfg: RunConfig) -> tuple:
    """The zero-weight dot and ddot pipelines of the configuration."""
    return tuple(build_pipeline(kind, cfg.n, cfg.ci(), None, cfg.qdeg) for kind in ("dot", "ddot"))


class _Suite(_Record):
    """A verify suite: the flags it reads, whether it needs the zero-weight
    pipeline pair, when it runs (`applies`, stated by `needs`), and its
    runner (cfg, al, pipes) -> result records."""
    _fields = ("name", "run", "reads_alpha", "reads_zdeg", "reads_mutate", "needs_pipes", "applies", "needs")

    def __init__(self, name: str, run: Callable, reads_alpha: bool = False, reads_zdeg: bool = False,
                 reads_mutate: bool = False, needs_pipes: bool = False, applies: Callable = lambda cfg: True,
                 needs: str = ""):
        self.name, self.run, self.reads_alpha, self.reads_zdeg = name, run, reads_alpha, reads_zdeg
        self.reads_mutate, self.needs_pipes, self.applies, self.needs = reads_mutate, needs_pipes, applies, needs


# in the order in which `all` runs them
_SUITE_ROWS = (
    _Suite("recursivity", _suite_recursivity, reads_alpha=True, reads_mutate=True),
    _Suite("mpc", _suite_mpc, reads_alpha=True, reads_zdeg=True, reads_mutate=True),
    _Suite("operator-norms", _suite_operator_norms, needs_pipes=True),
    # the suite checks q^1 .. q^qdeg, so at qdeg 0 it would check nothing
    _Suite("fano-vanishing", _suite_fano, reads_alpha=True,
           applies=lambda cfg: cfg.ci().total <= cfg.n - 2 and cfg.qdeg >= 1, needs="|a| <= n - 2 and qdeg >= 1"),
    _Suite("orthogonality", _suite_orthogonality, needs_pipes=True),
    _Suite("residue-internal", _suite_residue_internal, reads_alpha=True, reads_zdeg=True),
)


def _rows(cfg: RunConfig) -> list:
    """The table rows a run reads: its series kind, or its suites (every row for `all`)."""
    if cfg.command == "series":
        return [r for r in _KIND_ROWS if r.name == (cfg.kind or "dot-closed")]
    if cfg.command == "verify":
        return [r for r in _SUITE_ROWS if (cfg.suite or "all") in (r.name, "all")]
    return []


def cmd_verify(cfg: RunConfig) -> tuple[dict, int]:
    """`all` runs every row that applies; a suite named alone must apply."""
    rows = _rows(cfg)
    al = cfg.fixed_point_alpha() if any(r.reads_alpha for r in rows) else None
    pipes = _pipeline_pair(cfg) if any(r.needs_pipes for r in rows) else None
    results = []
    for row in rows:
        if row.applies(cfg):
            results.extend(row.run(cfg, al, pipes))
        elif cfg.suite == row.name:
            raise UsageError(f"{row.name} needs {row.needs}")
    ok = all(r["pass"] for r in results)
    return _emit(cfg, results, {"pass": ok}), (0 if ok else 1)


def cmd_cohomology(cfg: RunConfig) -> tuple[dict, int]:
    n = cfg.n
    parts = box_partitions(n)
    basis = [{"degree": sum(lam), "partition": list(lam), "poly": schur_poly(lam).to_string()} for lam in parts]
    pmat = [
        [_coeff_str(pairing({lam: 1}, {mu: 1}, n)) for mu in parts]
        for lam in parts
    ]
    diag = [
        {"left": list(lam), "right": list(mu), "coeff": _coeff_str(c)}
        for (lam, mu), c in sorted(diagonal(n).items())
    ]
    payload = {"basis": basis, "pairing_matrix": pmat, "diagonal": diag}
    if cfg.equivariant:
        al = cfg.fixed_point_alpha()
        payload["fixed_points"] = [
            {"i": f.i, "j": f.j, "phi": f.phi.to_string(),
             "euler_tangent": _coeff_str(f.euler_normal), "det_euler": _coeff_str(f.det_euler)}
            for f in localization_data(al)
        ]
        payload["equivariant_diagonal"] = [
            {"left": list(lam), "right": list(mu), "coeff": _coeff_str(g)}
            for (lam, mu), g in sorted(equivariant_diagonal(al).items())
        ]
    return _emit(cfg, payload), 0


def cmd_double_j(cfg: RunConfig) -> tuple[dict, int]:
    pd, pdd = _pipeline_pair(cfg)
    table = assemble_double_J(pd, pdd)
    rep = orthogonality_check(pd, pdd, table)
    payload = [
        {"q": d, "tensor": [
            {"left": list(lam), "right": list(mu),
             "coeffs": {f"{e1},{e2}": _coeff_str(v) for (e1, e2), v in sorted(ent.items())}}
            for (lam, mu), ent in sorted(table[d].items())
        ]}
        for d in sorted(table)
    ]
    return _emit(cfg, payload, {"orthogonality": rep["ok"]}), (0 if rep["ok"] else 1)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


# Every flag a subcommand reads, with its argparse settings.  The parser
# and the --config file reader both go through this table, so a file key
# is exactly a flag name of the subcommand.
_COMMON_FLAGS = {
    "n": {"type": int},
    "a": {"type": str},
    "qdeg": {"type": int},
    "zdeg": {"type": int},
    "alpha": {"type": str, "help": "zero | generic | comma list"},
    "output": {"type": str},
}
_COMMANDS = {
    "series": ("emit a series table", {
        "kind": {"type": str},
        "k": {"type": int},
        "j": {"type": int},
    }),
    "verify": ("run a verification suite", {
        "suite": {"type": str},
        "mutate": {"type": str, "help": "d:d1 sign flip fault injection"},
    }),
    "cohomology": ("emit basis, pairing, diagonals", {
        "equivariant": {"action": "store_true", "default": None},
    }),
    "double-j": ("double-series tensor table", {}),
}


def _flags(command: str) -> dict:
    return {**_COMMON_FLAGS, **_COMMANDS[command][1]}


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="qgr", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    for command, (help_text, own) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for name, spec in _COMMON_FLAGS.items():
            p.add_argument(f"--{name}", **spec)
        p.add_argument("--config", type=str)
        for name, spec in own.items():
            p.add_argument(f"--{name}", **spec)
    return ap


def _file_value(name: str, spec: dict, text: str):
    """A config-file value converted as the flag `name` would convert it."""
    if spec.get("action") == "store_true":
        if text.lower() not in ("true", "false"):
            raise UsageError(f"config key {name} takes true or false, got {text!r}")
        return text.lower() == "true"
    try:
        return spec["type"](text)
    except ValueError as e:
        raise UsageError(f"bad config value {name}={text!r}") from e


def _read_config_file(path: str, command: str) -> dict:
    flags = _flags(command)
    out = {}
    try:
        with open(path) as f:
            lines = f.read().splitlines()
    except OSError as e:
        raise UsageError(f"cannot read config file: {e}") from e
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"bad config line: {line!r}")
        key, val = (t.strip() for t in line.split("=", 1))
        if key not in flags:
            raise UsageError(f"config key {key!r} is not a flag of {command}")
        out[key] = _file_value(key, flags[key], val)
    return out


def _refuse_unread(rows, field: str, flag: str, tail: str = "") -> None:
    """A usage error unless one of the run's rows reads the flag; the
    message names, in table order, the kinds and suites that do."""
    if any(getattr(r, field, False) for r in rows):
        return
    readers = []
    for table, what, extra in ((_KIND_ROWS, "kinds", []), (_SUITE_ROWS, "suites", ["all"])):
        names = [r.name for r in table if getattr(r, field, False)]
        if names:
            names += extra
            readers.append(f"the {', '.join(names[:-1])} and {names[-1]} {what}")
    raise UsageError(f"{flag} read only by {', '.join(readers)}{tail}")


def _make_config(ns: argparse.Namespace) -> RunConfig:
    vals = _read_config_file(ns.config, ns.command) if ns.config else {}
    for name in _flags(ns.command):
        if getattr(ns, name) is not None:  # explicit flags win
            vals[name] = getattr(ns, name)
    alpha_raw = vals.get("alpha", "zero")
    if alpha_raw in ("zero", "generic"):
        alpha_mode, alpha = alpha_raw, None
    else:
        alpha_mode, alpha = "explicit", _parse_alpha(alpha_raw)
    mutate = None
    mraw = vals.get("mutate")
    if mraw:
        try:
            d, d1 = mraw.split(":")
            mutate = (int(d), int(d1))
        except ValueError as e:
            raise UsageError("mutate spec must be 'd:d1'") from e
    depth = None
    env_depth = os.environ.get("QGR_DEPTH")
    if env_depth:
        try:
            depth = int(env_depth)
        except ValueError as e:
            raise UsageError(f"QGR_DEPTH must be an integer, got {env_depth!r}") from e
        if depth < 1:
            raise UsageError(f"QGR_DEPTH must be at least 1, got {depth}")
    # every other flag is a RunConfig field of the same name and default
    plain = {name: v for name, v in vals.items() if name not in ("a", "alpha", "mutate")}
    cfg = RunConfig(ns.command, a=_parse_a(vals.get("a", "")), depth=depth,
                    alpha_mode=alpha_mode, alpha=alpha, mutate=mutate, **plain)
    rows = _rows(cfg)
    if cfg.command in ("series", "verify") and not rows:
        what, name = ("series kind", cfg.kind) if cfg.command == "series" else ("suite", cfg.suite)
        raise UsageError(f"unknown {what} {name!r}")
    if cfg.n < 3:
        raise UsageError("need n >= 3")
    if cfg.qdeg < 0:
        raise UsageError("qdeg must be nonnegative")
    if cfg.zdeg < 0:
        raise UsageError("zdeg must be nonnegative")
    if cfg.mutate is not None:
        _refuse_unread(rows, "reads_mutate", "mutate is")
        d, d1 = cfg.mutate
        if not 0 <= d1 <= d <= cfg.qdeg:
            raise UsageError(f"mutate {d}:{d1} must satisfy 0 <= d1 <= d <= qdeg = {cfg.qdeg}")
    if "zdeg" in vals:
        _refuse_unread(rows, "reads_zdeg", "zdeg is")
    if cfg.alpha_mode != "zero" and not cfg.equivariant:
        _refuse_unread(rows, "reads_alpha", "alpha is", ", and cohomology --equivariant")
    if cfg.k is not None or cfg.j is not None:
        _refuse_unread(rows, "reads_kj", "k and j are")
    try:
        cfg.ci()
    except ValueError as e:
        raise UsageError(str(e)) from e
    if sum(cfg.a) > cfg.n:
        raise UsageError("|a| must not exceed n")
    if any(getattr(r, "reads_kj", False) for r in rows):
        if cfg.k is None or cfg.j is None:
            raise UsageError(f"{cfg.kind} needs --k and --j")
        if not 0 <= cfg.k <= 2 * (cfg.n - 2):
            raise UsageError(f"--k must be in 0..{2 * (cfg.n - 2)} for n = {cfg.n}, got {cfg.k}")
        if not 0 <= cfg.j < len(partitions_of_degree(cfg.n, cfg.k)):
            raise UsageError(f"--j out of range for degree {cfg.k}")
    return cfg


def run(argv=None) -> int:
    ap = _build_parser()
    ns = ap.parse_args(argv)
    try:
        cfg = _make_config(ns)
        if ns.command == "series":
            doc, code = cmd_series(cfg)
        elif ns.command == "verify":
            doc, code = cmd_verify(cfg)
        elif ns.command == "cohomology":
            doc, code = cmd_cohomology(cfg)
        else:  # double-j; argparse enforces the choices
            doc, code = cmd_double_j(cfg)
    except (UsageError, GenericityError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as e:
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3
    text = json.dumps(doc, indent=2, sort_keys=True)
    if cfg.output:
        try:
            with open(cfg.output, "w") as f:
                f.write(text + "\n")
        except OSError as e:
            print(f"error: cannot write output: {e}", file=sys.stderr)
            return 2
    else:
        print(text)
    return code


def main() -> None:
    sys.exit(run())
