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
from dataclasses import asdict, dataclass
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
from .rings import RatFunc, SparsePoly
from .series import QSeries, laurent_expand_hbar
from .verifier import build_phi, check_mpc, check_recursive, check_recursive_2q, residue_internal_check



class UsageError(ValueError):
    pass


# The series kinds and verify suites, and those that read the torus weights.
_KINDS = ("dot-closed", "ddot-closed", "dot-bar", "ddot-bar", "dot-dual", "ddot-dual", "i-normalization",
          "z-normalized", "zdd-normalized", "y-gamma", "ydd-gamma")
_SUITES = ("recursivity", "mpc", "operator-norms", "fano-vanishing", "orthogonality", "residue-internal", "all")
_ALPHA_KINDS = ("dot-bar", "ddot-bar")
_ALPHA_SUITES = ("recursivity", "mpc", "fano-vanishing", "residue-internal", "all")


@dataclass
class RunConfig:
    command: str
    n: int = 3
    a: tuple[int, ...] = ()
    qdeg: int = 3
    zdeg: int = 3
    depth: int | None = None
    alpha_mode: str = "zero"  # zero | generic | explicit
    alpha: tuple | None = None
    k: int | None = None
    j: int | None = None
    kind: str | None = None
    suite: str | None = None
    mutate: tuple[int, int] | None = None
    equivariant: bool = False
    output: str | None = None

    def ci(self) -> CISpec:
        return CISpec(self.a)

    def resolve_alpha(self):
        """The weights as given: None at zero weights."""
        return None if self.alpha_mode == "zero" else self.fixed_point_alpha()

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

    def laurent_depth(self) -> int:
        if self.depth is not None:
            return self.depth
        return self.n * self.qdeg + 2


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


def _frac_str(v) -> str:
    v = Fraction(v)
    return str(v)


def _coeff_str(v) -> str:
    if isinstance(v, (int, Fraction)):
        return _frac_str(v)
    if isinstance(v, (RatFunc, SparsePoly)):
        return v.to_string()
    raise TypeError(f"unserializable value {type(v)}")


def _laurent_table(le) -> dict:
    return {str(e): _coeff_str(v) for e, v in sorted(le.coeffs.items(), reverse=True)}


def _series_entries(qs: QSeries) -> list:
    out = []
    for key, v in qs.terms():
        out.append({"q": list(key), "coeff": _coeff_str(v)})
    return out


def _meta(cfg: RunConfig) -> dict:
    d = asdict(cfg)
    d["a"] = list(cfg.a)
    if cfg.alpha is not None:
        d["alpha"] = [str(x) for x in cfg.alpha]
    return d


def _emit(cfg: RunConfig, payload, extra=None) -> dict:
    doc = {"meta": _meta(cfg), "payload": payload}
    if extra:
        doc.update(extra)
    return doc


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------


def cmd_series(cfg: RunConfig) -> tuple[dict, int]:
    n, a, D = cfg.n, cfg.ci(), cfg.qdeg
    kind = cfg.kind or "dot-closed"
    code = 0
    if kind in ("dot-closed", "ddot-closed"):
        Y = build_Y_closed(kind.split("-")[0], n, a, D)
        payload = _series_entries(Y.series())
    elif kind in _ALPHA_KINDS:
        al = cfg.resolve_alpha()
        Y = bar_assemble(build_K(kind.split("-")[0], n, a, al, D))
        payload = _series_entries(Y.series())
    elif kind in ("dot-dual", "ddot-dual"):
        base = kind.split("-")[0]
        Ybar = bar_assemble(build_K(base, n, a, None, D)).series()
        Yclosed = build_Y_closed(base, n, a, D).series()
        equal = all(Ybar.get((d,)) == Yclosed.get((d,)) for d in range(D + 1))
        payload = {
            "closed": _series_entries(Yclosed),
            "bar": _series_entries(Ybar),
        }
        if not equal:
            code = 1
        return _emit(cfg, payload, {"equal": equal}), code
    elif kind == "i-normalization":
        I = normalization_I("dot", n, a, D)
        payload = _series_entries(I)
    elif kind in ("z-normalized", "zdd-normalized"):
        base = "dot" if kind.startswith("z-") else "ddot"
        Y = build_Y_closed(base, n, a, D)
        I = normalization_I(base, n, a, D)
        Z = Y.series() * I.inverse_unit().map_values(lambda v: RatFunc.from_scalar(v, ("x1", "x2", "h")))
        payload = _series_entries(Z)
    else:  # y-gamma, ydd-gamma
        if cfg.k is None or cfg.j is None:
            raise UsageError("y-gamma needs --k and --j")
        base = "dot" if kind == "y-gamma" else "ddot"
        pipe = build_pipeline(base, n, a, None, D)
        basis = partitions_of_degree(n, cfg.k)
        if not 0 <= cfg.j < len(basis):
            raise UsageError(f"--j out of range for degree {cfg.k}")
        lam = basis[cfg.j]
        ser = pipe.ygamma[lam]
        payload = []
        for key, v in ser.terms():
            entry = {"q": list(key), "coeff": _coeff_str(v)}
            cls = pipe.classes[lam][key[0]]
            entry["class"] = {
                f"{r},{jj}": _laurent_table(le) for (r, jj), le in sorted(cls.items())
            }
            payload.append(entry)
    return _emit(cfg, payload), code


def _y_evals(kind, n, a, al, D, pairs, mutate=None):
    """Fixed-point evaluations at `pairs`; `mutate` is injected at (1, 2) only.
    build_phi reads only the pairs i < j, each standing for both orderings,
    so in the mpc suite a fault at (1, 2) acts on (2, 1) as well."""
    return {
        (i, j): y_series_evaluated(kind, n, a, al, i, j, D, mutate if (i, j) == (1, 2) else None)
        for (i, j) in pairs
    }


def _suite_recursivity(cfg: RunConfig, al) -> list[dict]:
    n, a, D = cfg.n, cfg.ci(), cfg.qdeg
    results = []
    espec = AMatrixSpec(n=n, rows=a.rows, alpha1=al, alpha2=al)
    for kind in ("dot", "ddot"):
        evals = _y_evals(kind, n, a, al, D, fixed_points(n), mutate=cfg.mutate if kind == "dot" else None)
        rep = check_recursive(
            evals, lambda s, i, j, k, d, _k=kind: c_coeff(_k, s, i, j, k, d, espec), al, D, n
        )
        results.append({
            "check": f"recursivity-{kind}",
            "pass": rep.all_pass,
            "failures": [
                {"pair": list(e.pair), "q": list(e.degree), "note": e.note,
                 "remainder": e.remainder.to_string() if e.remainder is not None else ""}
                for e in rep.failures()
            ],
        })
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
        results.append({
            "check": f"recursivity-2q-{kind}",
            "pass": rep2.all_pass,
            "failures": [
                {"pair": list(e.pair), "q": list(e.degree), "note": e.note}
                for e in rep2.failures()
            ],
        })
    return results


def _suite_mpc(cfg: RunConfig, al) -> list[dict]:
    n, a, D, Nz = cfg.n, cfg.ci(), cfg.qdeg, cfg.zdeg
    pairs = [(i, j) for i, j in fixed_points(n) if i < j]  # the pairs build_phi reads
    Fd = _y_evals("dot", n, a, al, D, pairs, mutate=cfg.mutate)
    Fdd = _y_evals("ddot", n, a, al, D, pairs)
    eta = lambda i, j: a.product * (al[i - 1] + al[j - 1]) ** a.ell
    results = []
    ok, off = check_mpc(build_phi(Fd, Fd, eta, al, n, Nz, D))
    results.append({
        "check": "spc-dot", "pass": ok,
        "failures": [{"zq": list(k), "coeff": v.to_string()} for k, v in off],
    })
    ok2, off2 = check_mpc(build_phi(Fd, Fdd, lambda i, j: Fraction(1), al, n, Nz, D))
    results.append({
        "check": "mpc-dot-ddot", "pass": ok2,
        "failures": [{"zq": list(k), "coeff": v.to_string()} for k, v in off2],
    })
    return results


def _suite_operator_norms(cfg: RunConfig, pipes: tuple) -> list[dict]:
    n, D = cfg.n, cfg.qdeg
    results = []
    rows = (((1, 1),) if n == 3 else ((2, 1),))
    for akind in ("dot", "ddot"):
        A = build_A(akind, AMatrixSpec(n=n, rows=rows), min(D, 2))
        for p in ((1, 0), (0, 1), (1, 1), (2, 0)):
            rep = audit_frakD_normalizations(A, p)
            results.append({
                "check": f"shift-operator-tables-{akind}-p{p}",
                "pass": rep["ok"],
                "failures": [
                    {"q": list(o["q"]), "r": list(o["r"]), "s": o["s"], "got": _frac_str(o["got"])}
                    for o in rep["offenders"][:5]
                ],
            })
    for kind, pipe in zip(("dot", "ddot"), pipes):
        # build_pipeline raises on a failed certificate, so this one can only pass
        results.append({"check": f"inverse-certificates-{kind}", "pass": all(pipe.J_certified.values()), "failures": []})
        residual_failures = [{"k": k, "i": i} for (k, i), ok in pipe.eqtic_residual_zero.items() if not ok]
        results.append({
            "check": f"structure-residual-{kind}",
            "pass": not residual_failures,
            "failures": residual_failures,
        })
        t0_failures = [
            {"k": k, "i": i, "s": s, "j": j}
            for (k, i), table in pipe.structC.items()
            for (t, (s, j)), ser in table.items()
            if t == 0 and not ser == (QSeries.one(1, D) if (s, j) == (k, i) else QSeries(1, D))
        ]
        results.append({
            "check": f"structure-t0-delta-{kind}",
            "pass": not t0_failures,
            "failures": t0_failures,
        })
    return results


def _suite_fano(cfg: RunConfig, al) -> list[dict]:
    n, a, D = cfg.n, cfg.ci(), cfg.qdeg
    if a.total > n - 2 or D < 1:  # the suite checks q^1 .. q^qdeg
        raise UsageError("fano-vanishing needs |a| <= n - 2 and qdeg >= 1")
    K = build_K("dot", n, a, al, D, xtrunc=2 * (n - 2) + 1)
    Y = bar_assemble(K)
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
    return [{"check": "fano-vanishing", "pass": not failures, "failures": failures}]


def _suite_orthogonality(pd, pdd) -> list[dict]:
    rep = orthogonality_check(pd, pdd)
    return [{
        "check": "diagonal-orthogonality",
        "pass": rep["ok"],
        "failures": [{"q": f["q"], "entry": [list(f["entry"][0]), list(f["entry"][1])]} for f in rep["failures"]],
    }]


def _suite_residue_internal(cfg: RunConfig, al) -> list[dict]:
    n, a = cfg.n, cfg.ci()
    D = min(cfg.qdeg, 2)
    Nz = min(cfg.zdeg, 2)
    Y1 = bar_assemble(build_K("dot", n, a, al, D))
    Y2 = bar_assemble(build_K("ddot", n, a, al, D))
    eta_poly = SparsePoly.const(("x1", "x2"), 1)
    rep = residue_internal_check(Y1, Y2, eta_poly, al, n, D, Nz, cfg.laurent_depth())
    bad = [c for c in rep["checks"] if not (c["sum_zero"] and c["regular_at_0"] and c["residue_at_0"] == 0)]
    return [{
        "check": "residue-internal",
        "pass": rep["ok"],
        "failures": [{"var": c["var"], "z": c["z"], "q": c["q"], "h_exp": c["h_exp"]} for c in bad],
    }]


def _pipeline_pair(cfg: RunConfig) -> tuple:
    """The zero-weight dot and ddot pipelines of the configuration."""
    return tuple(build_pipeline(kind, cfg.n, cfg.ci(), None, cfg.qdeg) for kind in ("dot", "ddot"))


def cmd_verify(cfg: RunConfig) -> tuple[dict, int]:
    suite = cfg.suite or "all"
    al = cfg.fixed_point_alpha() if suite in _ALPHA_SUITES else None
    pipes = _pipeline_pair(cfg) if suite in ("operator-norms", "orthogonality", "all") else None
    results = []
    if suite in ("recursivity", "all"):
        results.extend(_suite_recursivity(cfg, al))
    if suite in ("mpc", "all"):
        results.extend(_suite_mpc(cfg, al))
    if suite in ("operator-norms", "all"):
        results.extend(_suite_operator_norms(cfg, pipes))
    if suite == "fano-vanishing" or (suite == "all" and cfg.ci().total <= cfg.n - 2 and cfg.qdeg >= 1):
        results.extend(_suite_fano(cfg, al))
    if suite in ("orthogonality", "all"):
        results.extend(_suite_orthogonality(*pipes))
    if suite in ("residue-internal", "all"):
        results.extend(_suite_residue_internal(cfg, al))
    ok = all(r["pass"] for r in results)
    return _emit(cfg, results, {"pass": ok}), (0 if ok else 1)


def cmd_cohomology(cfg: RunConfig) -> tuple[dict, int]:
    n = cfg.n
    parts = box_partitions(n)
    basis = [{"degree": sum(lam), "partition": list(lam), "poly": schur_poly(lam).to_string()} for lam in parts]
    pmat = [
        [_frac_str(pairing({lam: 1}, {mu: 1}, n)) for mu in parts]
        for lam in parts
    ]
    diag = [
        {"left": list(lam), "right": list(mu), "coeff": _frac_str(c)}
        for (lam, mu), c in sorted(diagonal(n).items())
    ]
    payload = {"basis": basis, "pairing_matrix": pmat, "diagonal": diag}
    if cfg.equivariant:
        al = cfg.fixed_point_alpha()
        table = []
        for f in localization_data(al):
            table.append({
                "i": f.i, "j": f.j,
                "phi": f.phi.to_string(),
                "euler_tangent": _frac_str(f.euler_normal),
                "det_euler": _frac_str(f.det_euler),
            })
        payload["fixed_points"] = table
        payload["equivariant_diagonal"] = [
            {"left": list(lam), "right": list(mu), "coeff": _frac_str(g)}
            for (lam, mu), g in sorted(equivariant_diagonal(al).items())
        ]
    return _emit(cfg, payload), 0


def cmd_double_j(cfg: RunConfig) -> tuple[dict, int]:
    pd, pdd = _pipeline_pair(cfg)
    table = assemble_double_J(pd, pdd)
    rep = orthogonality_check(pd, pdd, table)
    payload = []
    for d in sorted(table):
        entries = []
        for (lam, mu), ent in sorted(table[d].items()):
            entries.append({
                "left": list(lam), "right": list(mu),
                "coeffs": {f"{e1},{e2}": _frac_str(v) for (e1, e2), v in sorted(ent.items())},
            })
        payload.append({"q": d, "tensor": entries})
    code = 0 if rep["ok"] else 1
    return _emit(cfg, payload, {"orthogonality": rep["ok"]}), code


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
    cfg = RunConfig(
        command=ns.command,
        n=vals.get("n", 3),
        a=_parse_a(vals.get("a", "")),
        qdeg=vals.get("qdeg", 3),
        zdeg=vals.get("zdeg", 3),
        depth=depth,
        alpha_mode=alpha_mode,
        alpha=alpha,
        k=vals.get("k"),
        j=vals.get("j"),
        kind=vals.get("kind"),
        suite=vals.get("suite"),
        mutate=mutate,
        equivariant=vals.get("equivariant", False),
        output=vals.get("output"),
    )
    for what, name, known in (("series kind", cfg.kind, _KINDS), ("suite", cfg.suite, _SUITES)):
        if name is not None and name not in known:
            raise UsageError(f"unknown {what} {name!r}")
    if cfg.n < 3:
        raise UsageError("need n >= 3")
    if cfg.qdeg < 0:
        raise UsageError("qdeg must be nonnegative")
    if cfg.zdeg < 0:
        raise UsageError("zdeg must be nonnegative")
    if cfg.mutate is not None:
        if cfg.command != "verify" or (cfg.suite or "all") not in ("recursivity", "mpc", "all"):
            raise UsageError("mutate is read only by the recursivity, mpc and all suites")
        d, d1 = cfg.mutate
        if not 0 <= d1 <= d <= cfg.qdeg:
            raise UsageError(f"mutate {d}:{d1} must satisfy 0 <= d1 <= d <= qdeg = {cfg.qdeg}")
    if "zdeg" in vals and (cfg.command != "verify" or (cfg.suite or "all") not in ("mpc", "residue-internal", "all")):
        raise UsageError("zdeg is read only by the mpc, residue-internal and all suites")
    reads_alpha = {
        "series": (cfg.kind or "dot-closed") in _ALPHA_KINDS,
        "verify": (cfg.suite or "all") in _ALPHA_SUITES,
        "cohomology": cfg.equivariant,
    }.get(cfg.command, False)
    if cfg.alpha_mode != "zero" and not reads_alpha:
        raise UsageError("alpha is read only by the dot-bar and ddot-bar kinds, the recursivity, mpc, "
                         "fano-vanishing, residue-internal and all suites, and cohomology --equivariant")
    if (cfg.k is not None or cfg.j is not None) and cfg.kind not in ("y-gamma", "ydd-gamma"):
        raise UsageError("k and j are read only by the y-gamma and ydd-gamma kinds")
    try:
        cfg.ci()
    except ValueError as e:
        raise UsageError(str(e)) from e
    if sum(cfg.a) > cfg.n:
        raise UsageError("|a| must not exceed n")
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
        elif ns.command == "double-j":
            doc, code = cmd_double_j(cfg)
        else:  # pragma: no cover - argparse enforces the choices
            raise UsageError(f"unknown command {ns.command}")
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
