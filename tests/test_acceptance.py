"""Acceptance suite: one test per criterion, each printing a pass/fail
line (run with `pytest -s tests/test_acceptance.py` to see them).  All
comparisons are exact; the stated runtime bounds are asserted.
"""

import random
import time
from fractions import Fraction


from qgr.cli import run as cli_run
from qgr.cohomology import (
    GenericityError,
    ab_integrate,
    box_partitions,
    complement,
    default_generic_alpha,
    genericity_check,
    pairing,
    schur_poly,
    schur_reduce,
)
from qgr.hyper import (
    AMatrixSpec,
    CISpec,
    a_series_evaluated,
    bar_assemble,
    build_A,
    build_K,
    build_Y_closed,
    c_coeff,
    scr_coeff,
    y_series_evaluated,
)
from qgr.operators import (
    audit_frakD_normalizations,
    build_pipeline,
    orthogonality_check,
    y_gamma_evaluated,
)
from qgr.rings import RatFunc, SparsePoly
from qgr.series import QSeries, laurent_expand_hbar
from qgr.verifier import build_phi, check_mpc, check_recursive, check_recursive_2q

XV = ("x1", "x2")
V3 = ("x1", "x2", "h")

# the dual-path test set fixed by the acceptance criteria
CRIT2_SET = [(3, ()), (3, (1, 1, 1)), (4, (2,)), (4, (4,)), (5, (2, 3))]


def _report(num: int, ok: bool, detail: str, t0: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"CRITERION {num}: {status} - {detail} ({time.time() - t0:.1f}s)")


def small_generic_alpha(n: int, max_degree: int) -> tuple[Fraction, ...]:
    """Compact generic weights (coefficient growth matters for speed);
    falls back to the geometric default when the pre-flight check fails."""
    base = (1, 3, 8, 21, 55, 144, 377, 987)
    if n <= len(base):
        cand = tuple(Fraction(v) for v in base[:n])
        try:
            genericity_check(cand, max_degree)
            return cand
        except GenericityError:
            pass
    return default_generic_alpha(n)


def _pairs(n):
    return [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]


def _y_evals(kind, n, a, al, D):
    return {p: y_series_evaluated(kind, n, a, al, *p, D) for p in _pairs(n)}


def test_criterion_1_ring_pairing():
    t0 = time.time()
    ok = True
    rng = random.Random(20260809)
    for n in range(3, 7):
        parts = box_partitions(n)
        for lam in parts:
            for mu in parts:
                want = Fraction(1) if mu == complement(lam, n) else Fraction(0)
                got = pairing({lam: Fraction(1)}, {mu: Fraction(1)}, n)
                ok = ok and got == want
        al = default_generic_alpha(n)
        deg = 2 * (n - 2)
        for _ in range(10):
            eta = SparsePoly.zero(XV)
            for a_ in range(deg + 1):
                b_ = deg - a_
                if a_ < b_:
                    continue
                c = Fraction(rng.randint(-9, 9))
                terms = {(a_, b_): c, (b_, a_): c} if a_ != b_ else {(a_, a_): c}
                eta = eta + SparsePoly(XV, terms)
            via_ab = ab_integrate(eta, al)
            via_pairing = schur_reduce(eta, n).get((n - 2, n - 2), 0)
            ok = ok and via_ab == via_pairing
    elapsed = time.time() - t0
    _report(1, ok, "pairing anti-diagonal n=3..6 and localization vs pairing route", t0)
    assert ok
    assert elapsed < 10


def test_criterion_2_dual_path():
    t0 = time.time()
    ok = True
    for (n, a) in CRIT2_SET:
        ci = CISpec(tuple(a))
        for kind in ("dot", "ddot"):
            Ybar = bar_assemble(build_K(kind, n, ci, None, 3))
            Yclosed = build_Y_closed(kind, n, ci, 3)
            for d in range(4):
                if not Ybar.coeff((d,)) == Yclosed.coeff((d,)):
                    ok = False
    elapsed = time.time() - t0
    _report(2, ok, "bar transform at alpha=0 equals the closed forms through q^3", t0)
    assert ok
    assert elapsed < 120


def test_criterion_3_recursivity():
    t0 = time.time()
    ok = True
    for (n, a) in [(3, ()), (3, (1, 1, 1)), (4, (2,)), (4, (4,))]:
        al = default_generic_alpha(n)
        genericity_check(al, 3)
        ci = CISpec(tuple(a))
        espec = AMatrixSpec(n=n, rows=ci.rows, alpha1=al, alpha2=al)
        for kind in ("dot", "ddot"):
            evals = _y_evals(kind, n, ci, al, 3)
            rep = check_recursive(
                evals,
                lambda s, i, j, k, d, _k=kind: c_coeff(_k, s, i, j, k, d, espec),
                al, 3, n,
            )
            ok = ok and rep.all_pass
    # two-variable mode on the ladder series, total degree 2
    for n, rows in [(3, ((1, 1),)), (4, ((2, 1),))]:
        spec = AMatrixSpec(
            n=n, rows=rows,
            alpha1=default_generic_alpha(n),
            alpha2=tuple(Fraction(11**m) for m in range(1, n + 1)),
        )
        for kind in ("dot", "ddot"):
            evals2 = {
                (i1, i2): a_series_evaluated(kind, spec, i1, i2, 2)
                for i1 in range(1, n + 1) for i2 in range(1, n + 1)
            }
            rep2 = check_recursive_2q(
                evals2,
                lambda s, i1, i2, k, d, _k=kind: scr_coeff(_k, s, i1, i2, k, d, spec),
                spec.alpha1, spec.alpha2, 2, n,
            )
            ok = ok and rep2.all_pass
    elapsed = time.time() - t0
    _report(3, ok, "pole recursivity, single-q through q^3 and two-variable through degree 2", t0)
    assert ok
    assert elapsed < 120


def test_criterion_4_polynomiality():
    t0 = time.time()
    ok = True
    for (n, a) in CRIT2_SET:
        ci = CISpec(tuple(a))
        al = default_generic_alpha(n) if n <= 4 else small_generic_alpha(n, 3)
        genericity_check(al, 3)
        Fd = _y_evals("dot", n, ci, al, 3)
        Fdd = _y_evals("ddot", n, ci, al, 3)
        eta = lambda i, j: ci.product * (al[i - 1] + al[j - 1]) ** ci.ell
        spc_ok, _ = check_mpc(build_phi(Fd, Fd, eta, al, n, 3, 3))
        mpc_ok, _ = check_mpc(build_phi(Fd, Fdd, lambda i, j: Fraction(1), al, n, 3, 3))
        ok = ok and spc_ok and mpc_ok
    _report(4, ok, "no negative h powers in the fixed-point pairings through (z^3, q^3)", t0)
    assert ok


def test_criterion_5_operator_calculus():
    t0 = time.time()
    ok = True
    # shift-operator table laws on the two-variable ladder series
    for n, rows in [(3, ((1, 1),)), (4, ((2, 1),))]:
        for kind in ("dot", "ddot"):
            A = build_A(kind, AMatrixSpec(n=n, rows=rows), 3)
            for p in ((1, 0), (0, 1), (1, 1), (2, 0), (0, 2)):
                rep = audit_frakD_normalizations(A, p)
                ok = ok and rep["ok"]
    # inverse certificates, q^0 deltas, structure solve and its residual
    for (n, a) in [(3, ()), (3, (1, 1, 1)), (4, (2,)), (4, (4,))]:
        ci = CISpec(tuple(a))
        for kind in ("dot", "ddot"):
            pipe = build_pipeline(kind, n, ci, None, 3)
            ok = ok and all(pipe.J_certified.values())
            ok = ok and all(pipe.eqtic_residual_zero.values())
            for (k, i), table in pipe.structC.items():
                for (tt, (s, j)), ser in table.items():
                    if tt == 0:
                        want = QSeries.one(1, 3) if (s, j) == (k, i) else QSeries(1, 3)
                        ok = ok and ser == want
            for (k, i), table in pipe.opexp.items():
                for (s, (r, j)), ser in table.items():
                    want = Fraction(1) if (j == i and r == k and s == r) else Fraction(0)
                    ok = ok and ser.get((0,)) == want
    _report(5, ok, "operator table deltas, inverse certificates, structure solve residual", t0)
    assert ok


def test_criterion_6_theorem2_structure():
    t0 = time.time()
    ok = True
    # one Calabi-Yau and one Fano configuration, all basis classes
    for (n, a) in [(3, (1, 1, 1)), (4, (2,))]:
        ci = CISpec(tuple(a))
        al = default_generic_alpha(n)
        genericity_check(al, 2)
        espec = AMatrixSpec(n=n, rows=ci.rows, alpha1=al, alpha2=al)
        pipes = {kind: build_pipeline(kind, n, ci, al, 2) for kind in ("dot", "ddot")}
        zero = {kind: build_pipeline(kind, n, ci, None, 2) for kind in ("dot", "ddot")}
        Yd = _y_evals("dot", n, ci, al, 2)
        eta = lambda i, j: ci.product * (al[i - 1] + al[j - 1]) ** ci.ell
        ygam = {kind: {p: y_gamma_evaluated(pipes[kind], *p) for p in _pairs(n)} for kind in pipes}
        for lam in box_partitions(n):
            for kind in ("dot", "ddot"):
                # q^0 coefficient is exactly the basis class: at zero weights
                # as a trivariate series, at weights restricted to every point
                ok = ok and zero[kind].ygamma[lam].get((0,)) == RatFunc(schur_poly(lam).embed(V3))
                for i, j in _pairs(n):
                    at = {"x1": al[i - 1], "x2": al[j - 1]}
                    ok = ok and ygam[kind][(i, j)][lam].get((0,)) == schur_poly(lam).eval_all(at)
                # recursivity with the unchanged coefficient tables
                evals = {p: ygam[kind][p][lam] for p in _pairs(n)}
                rep = check_recursive(
                    evals,
                    lambda s, i, j, kk, d, _k=kind: c_coeff(_k, s, i, j, kk, d, espec),
                    al, 2, n,
                )
                ok = ok and rep.all_pass
                # mutual polynomiality against the plain dot series
                eta_fn = eta if kind == "dot" else (lambda i, j: Fraction(1))
                mpc_ok, _ = check_mpc(build_phi(Yd, evals, eta_fn, al, n, 2, 2))
                ok = ok and mpc_ok
    elapsed = time.time() - t0
    _report(6, ok, "basis-weighted series: q^0 classes, recursivity, mutual polynomiality", t0)
    assert ok
    assert elapsed < 300


def test_criterion_7_diagonal_orthogonality():
    t0 = time.time()
    ok = True
    for a in ((), (1,)):
        pd = build_pipeline("dot", 3, CISpec(a), None, 3)
        pdd = build_pipeline("ddot", 3, CISpec(a), None, 3)
        rep = orthogonality_check(pd, pdd)
        ok = ok and rep["ok"]
    _report(7, ok, "complementary bilinear sum reduces to the diagonal class through q^3", t0)
    assert ok


def test_criterion_8_fano_vanishing():
    t0 = time.time()
    ok = True
    for (n, a) in [(4, ()), (5, (2,))]:
        ci = CISpec(tuple(a))
        al = default_generic_alpha(n)
        Y = bar_assemble(build_K("dot", n, ci, al, 3, xtrunc=2 * (n - 2) + 1))
        for d in range(1, 4):
            le = laurent_expand_hbar(Y.num_parts[(d,)], Y.dens[(d,)], 3, 2 * (n - 2))
            ok = ok and 0 not in le.coeffs and -1 not in le.coeffs
    _report(8, ok, "series is 1 mod h^-2 for |a| <= n-2 through q^3", t0)
    assert ok


def test_criterion_9_mutation_sensitivity(capsys):
    t0 = time.time()
    code_rec = cli_run(["verify", "--suite", "recursivity", "--n", "3", "--a", "", "--qdeg", "2", "--mutate", "1:1"])
    code_mpc = cli_run(["verify", "--suite", "mpc", "--n", "3", "--a", "", "--qdeg", "2", "--zdeg", "2", "--mutate", "1:1"])
    capsys.readouterr()
    ok = code_rec != 0 or code_mpc != 0
    detected = []
    if code_rec != 0:
        detected.append("recursivity")
    if code_mpc != 0:
        detected.append("polynomiality")
    _report(9, ok, f"injected sign flip detected by: {', '.join(detected) or 'nothing'}", t0)
    assert ok
