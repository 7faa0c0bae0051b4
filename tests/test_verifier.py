import functools
import random
from fractions import Fraction
from math import factorial

import pytest

from qgr import verifier
from qgr.cohomology import default_generic_alpha, euler_tangent
from qgr.hrat import HRat
from qgr.hyper import (
    AMatrixSpec,
    CISpec,
    a_series_evaluated,
    bar_assemble,
    build_K,
    c_coeff,
    scr_coeff,
    y_series_evaluated,
)
from qgr.rings import RatFunc, SparsePoly
from qgr.series import QSeries
from qgr.verifier import (
    PhiSeries,
    RecursivityEntry,
    RecursivityReport,
    _check_entry,
    build_phi,
    check_mpc,
    check_recursive,
    check_recursive_2q,
    residue_internal_check,
)

one = HRat.poly((1,))


def all_pairs(n):
    return [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]


def equal_rows_spec(al, a):
    """The spec c_coeff reads: equal rows and one weight family."""
    return AMatrixSpec(n=len(al), rows=a.rows, alpha1=tuple(al), alpha2=tuple(al))


def y_evals(kind, n, a, al, D):
    return {(i, j): y_series_evaluated(kind, n, a, al, i, j, D) for (i, j) in all_pairs(n)}


def test_recursive_ydot_n3():
    n, a = 3, CISpec(())
    al = default_generic_alpha(n)
    evals = y_evals("dot", n, a, al, 2)
    spec = equal_rows_spec(al, a)
    rep = check_recursive(evals, lambda s, i, j, k, d: c_coeff("dot", s, i, j, k, d, spec), al, 2, n)
    assert rep.all_pass


def test_recursive_counterexample():
    # F = 1 + q/(h - (a3 - a2)) with C = 0 fails at degree 1 for the pair (1,2)
    n = 3
    al = default_generic_alpha(n)
    w = al[2] - al[1]
    bad = HRat.pole(w)
    evals = {}
    for (i, j) in all_pairs(n):
        evals[(i, j)] = QSeries(1, 1, {(0,): one, (1,): bad})
    rep = check_recursive(evals, lambda *args: Fraction(0), al, 1, n)
    assert not rep.all_pass
    fails = rep.failures()
    assert any(e.degree == (1,) for e in fails)
    # the offending remainder carries the pole
    e = next(e for e in fails if e.pair == (1, 2))
    assert "non-monomial" in e.note


def test_recursive_diverging_lower_evaluation():
    # a lower-degree evaluation with a pole exactly at a recursion point
    # cannot supply its pole term: both checkers report the divergence
    n = 3
    al = default_generic_alpha(n)
    w = al[2] - al[1]  # slot-2 point of pair (1, 2) moving 2 -> 3 at d = 1
    evals = {p: QSeries(1, 1, {(0,): one}) for p in all_pairs(n)}
    evals[(1, 3)] = QSeries(1, 1, {(0,): HRat.pole(w)})
    rep = check_recursive(evals, lambda *args: Fraction(0), al, 1, n)
    e = next(e for e in rep.entries if (e.pair, e.degree) == ((1, 2), (1,)))
    assert not e.ok
    assert e.note == f"evaluation of F(1, 3) at h={w} diverges (recursivity violated below degree 1)"

    a2 = tuple(Fraction(11**m) for m in range(1, n + 1))
    w2 = a2[0] - a2[1]  # slot-2 point of (1, 2) moving 2 -> 1 at d = 1
    evals2 = {(i1, i2): QSeries(2, 1, {(0, 0): one})
              for i1 in range(1, n + 1) for i2 in range(1, n + 1)}
    evals2[(1, 1)] = QSeries(2, 1, {(0, 0): HRat.pole(w2)})
    rep2 = check_recursive_2q(evals2, lambda *args: Fraction(0), al, a2, 1, n)
    e2 = next(e for e in rep2.entries if (e.pair, e.degree) == ((1, 2), (0, 1)))
    assert not e2.ok
    assert e2.note == f"evaluation of F(1, 1) at h={w2} diverges"


def test_recursive_2q_ladder_series():
    n = 3
    spec = AMatrixSpec(
        n=n,
        rows=((1, 1),),
        alpha1=default_generic_alpha(n),
        alpha2=tuple(Fraction(11**m) for m in range(1, n + 1)),
    )
    for kind in ("dot", "ddot"):
        evals = {
            (i1, i2): a_series_evaluated(kind, spec, i1, i2, 2)
            for i1 in range(1, n + 1)
            for i2 in range(1, n + 1)
        }
        rep = check_recursive_2q(
            evals,
            lambda s, i1, i2, k, d: scr_coeff(kind, s, i1, i2, k, d, spec),
            spec.alpha1,
            spec.alpha2,
            2,
            n,
        )
        assert rep.all_pass, kind


def test_phi_trivial_has_no_hbar():
    n = 3
    al = default_generic_alpha(n)
    ones = {
        (i, j): QSeries(1, 1, {(0,): one}) for (i, j) in all_pairs(n)
    }
    phi = build_phi(ones, ones, lambda i, j: Fraction(1), al, n, 2, 1)
    for key, v in phi.payload.terms():
        vv = v if isinstance(v, Fraction) else v.to_ratfunc()
        if isinstance(vv, RatFunc):
            assert vv.used_vars() == ()  # no h anywhere


def test_exp_substitution_shape():
    # q^d -> q^d sum_p (d h z)^p / p!, read through build_phi at n = 2 with
    # a_1 + a_2 = 0, so that e^{(a_1+a_2) z} = 1 and the pairing weight is 1
    al = (Fraction(1), Fraction(-1))
    F = {(1, 2): QSeries(1, 2, {(1,): one, (2,): one})}
    Fp = {(1, 2): QSeries.one(1, 2)}
    out = build_phi(F, Fp, lambda i, j: Fraction(1), al, 2, 2, 2).payload
    assert out.get((1, 0)) == one
    assert out.get((1, 1)) == HRat.poly((0, 1))
    assert out.get((1, 2)) == HRat.poly((0, 0, 1)) * Fraction(1, 2)
    assert out.get((2, 1)) == HRat.poly((0, 2))
    assert out.get((2, 2)) == HRat.poly((0, 0, 2))
    assert len(out.coeffs) == 6


def test_mpc_pairs():
    n, a = 3, CISpec((1,))
    al = default_generic_alpha(n)
    Fd = y_evals("dot", n, a, al, 2)
    Fdd = y_evals("ddot", n, a, al, 2)
    eta = lambda i, j: a.product * (al[i - 1] + al[j - 1]) ** a.ell
    ok, _ = check_mpc(build_phi(Fd, Fd, eta, al, n, 2, 2))
    assert ok
    ok2, _ = check_mpc(build_phi(Fd, Fdd, lambda i, j: Fraction(1), al, n, 2, 2))
    assert ok2


def test_mpc_detects_perturbation():
    # F' perturbed by +q * h^{-1} at a single fixed point
    n, a = 3, CISpec((1,))
    al = default_generic_alpha(n)
    Fd = y_evals("dot", n, a, al, 2)
    Fp = y_evals("dot", n, a, al, 2)
    pert = dict(Fp[(1, 2)].coeffs)
    pert[(1,)] = pert[(1,)] + HRat.pole(0)
    Fp[(1, 2)] = QSeries(1, 2, pert)
    eta = lambda i, j: a.product * (al[i - 1] + al[j - 1]) ** a.ell
    ok, offenders = check_mpc(build_phi(Fd, Fp, eta, al, n, 2, 2))
    assert not ok and offenders


def test_eta_vanishing_rejected():
    n = 3
    al = (Fraction(1), Fraction(2), Fraction(-1))
    ones = {(i, j): QSeries(1, 0, {(0,): one}) for (i, j) in all_pairs(n)}
    with pytest.raises(ValueError):
        build_phi(ones, ones, lambda i, j: al[i - 1] + al[j - 1], al, n, 1, 0)


def test_uniqueness_hypotheses():
    # the three hypotheses of the uniqueness lemma: both series recursive
    # (a nonzero q^0 term included) and their pairing polynomial
    n, a = 3, CISpec(())
    al = default_generic_alpha(n)
    Fd = y_evals("dot", n, a, al, 2)
    Fdd = y_evals("ddot", n, a, al, 2)
    spec = equal_rows_spec(al, a)
    for kind, F in (("dot", Fd), ("ddot", Fdd)):
        coeff = lambda s, i, j, k, d, _k=kind: c_coeff(_k, s, i, j, k, d, spec)
        assert check_recursive(F, coeff, al, 2, n).all_pass, kind
    assert check_mpc(build_phi(Fd, Fdd, lambda i, j: Fraction(1), al, n, 2, 2))[0]

    # constructed q0 failure: the q^0 entry of (1, 2) alone fails, and says why
    broken = dict(Fd)
    broken[(1, 2)] = QSeries(1, 2, {(1,): one})
    coeff = lambda s, i, j, k, d: c_coeff("dot", s, i, j, k, d, spec)
    fails = check_recursive(broken, coeff, al, 1, n).failures()
    assert [(e.pair, e.degree, e.note) for e in fails if e.degree == (0,)] == [
        ((1, 2), (0,), "q^0 coefficient vanishes")
    ]


def test_mutation_detected():
    # single sign flip in one summand is caught by recursivity or MPC
    n, a = 3, CISpec(())
    al = default_generic_alpha(n)
    evals = y_evals("dot", n, a, al, 2)
    bad = dict(evals)
    bad[(1, 2)] = y_series_evaluated("dot", n, a, al, 1, 2, 2, mutate=(1, 1))
    spec = equal_rows_spec(al, a)
    coeff = lambda s, i, j, k, d: c_coeff("dot", s, i, j, k, d, spec)
    rep = check_recursive(bad, coeff, al, 2, n)
    eta = lambda i, j: Fraction(1)
    mpc_ok, _ = check_mpc(build_phi(bad, bad, eta, al, n, 2, 2))
    assert (not rep.all_pass) or (not mpc_ok)


def test_residue_internal():
    n, a = 3, CISpec(())
    al = default_generic_alpha(n)
    K1 = build_K("dot", n, a, al, 1)
    Y1 = bar_assemble(K1)
    K2 = build_K("ddot", n, a, al, 1)
    Y2 = bar_assemble(K2)
    XV = ("x1", "x2")
    eta_poly = SparsePoly.const(XV, 1)
    rep = residue_internal_check(Y1, Y2, eta_poly, al, n, D=1, Nz=1, depth=6)
    assert rep["ok"], [c for c in rep["checks"] if not (c["sum_zero"] and c["regular_at_0"])][:3]


def _residue_internal_by_sums(Y1, Y2, eta_poly, alphas, n, D, Nz, depth):
    """The previous route of residue_internal_check: each (z, q)-coefficient
    summed as one RatFunc integrand and expanded at h = infinity with the
    previous general kernel, which takes any denominator (the integrand's
    top h-coefficient depends on x); the differential oracle for the
    per-coefficient expansion."""
    from test_series import _ratfunc_laurent_expand_hbar as laurent_expand_hbar

    from qgr.residues import pole_order_at, residue_at, residue_sum_check
    from qgr.verifier import _XI

    h = SparsePoly.variable(("h",), "h")
    checks = []
    for var_kept, var_fixed in (("x2", "x1"), ("x1", "x2")):
        xk = SparsePoly.variable((var_kept,), var_kept)
        denom_poly = SparsePoly.const((var_kept,), 1)
        fixed_weight = Fraction(1)
        for ak in alphas:
            denom_poly = denom_poly * (xk - SparsePoly.const((var_kept,), ak))
            fixed_weight *= _XI - ak
        c1s = [Y1.coeff((d,)).substitute({var_fixed: _XI}) for d in range(D + 1)]
        c2s = [Y2.coeff((d,)).substitute({var_fixed: _XI, "h": -h}) for d in range(D + 1)]
        lin = xk + SparsePoly.const((var_kept,), _XI)
        sqpoly = (SparsePoly.const((var_kept,), _XI) - xk) * (xk - SparsePoly.const((var_kept,), _XI))
        for (dz, qd) in [(p, d) for d in range(D + 1) for p in range(Nz + 1)]:
            total = None
            for d1 in range(qd + 1):
                for p1 in range(dz + 1):
                    p2 = dz - p1
                    term = (c1s[d1] * (RatFunc((h * d1) ** p2) * Fraction(1, factorial(p2)))
                            * c2s[qd - d1] * (RatFunc(lin**p1) * Fraction(1, factorial(p1))))
                    total = term if total is None else total + term
            integrand = total * RatFunc(eta_poly.substitute({var_fixed: _XI})) * RatFunc(sqpoly) / (
                RatFunc(denom_poly) * fixed_weight)
            le = laurent_expand_hbar(integrand, depth)
            for hexp, coeff in sorted(le.coeffs.items(), reverse=True):
                if isinstance(coeff, Fraction):
                    continue
                f = coeff if isinstance(coeff, RatFunc) else RatFunc(coeff)
                ok_sum, _ = residue_sum_check(f, list(alphas) + [Fraction(0)], var_kept)
                checks.append({
                    "var": var_kept, "z": dz, "q": qd, "h_exp": hexp,
                    "regular_at_0": pole_order_at(f, Fraction(0), var_kept) == 0,
                    "residue_at_0": residue_at(f, Fraction(0), var_kept),
                    "sum_zero": ok_sum,
                })
    ok = all(c["regular_at_0"] and c["residue_at_0"] == 0 and c["sum_zero"] for c in checks)
    return {"ok": ok, "checks": checks}


class _MutatedQ1:
    """A one-q ladder series whose q^1 coefficient is changed by `fn`."""

    def __init__(self, Y, fn):
        self.Y, self.fn = Y, fn

    def coeff(self, key):
        c = self.Y.coeff(key)
        return self.fn(c) if tuple(key) == (1,) else c


def _residue_inputs(n, a, D):
    al = default_generic_alpha(n)
    Y1 = bar_assemble(build_K("dot", n, CISpec(a), al, D))
    Y2 = bar_assemble(build_K("ddot", n, CISpec(a), al, D))
    return Y1, Y2, SparsePoly.const(("x1", "x2"), 1), al


@pytest.mark.parametrize("depth", [4, 7, 11])
@pytest.mark.parametrize("n, a, D, Nz", [
    (3, (1,), 2, 2), (3, (), 1, 1), (3, (2,), 1, 1), (4, (2,), 1, 1), (3, (1, 1, 1), 1, 1),
])
def test_residue_internal_matches_summed_integrand_route(n, a, D, Nz, depth):
    Y1, Y2, eta, al = _residue_inputs(n, a, D)
    new = residue_internal_check(Y1, Y2, eta, al, n, D, Nz, depth)
    assert new["checks"] and new["ok"]
    assert new == _residue_internal_by_sums(Y1, Y2, eta, al, n, D, Nz, depth)


@pytest.mark.parametrize("n, a, D, Nz, depth", [(3, (1,), 2, 2, 7), (3, (2,), 1, 1, 4)])
def test_residue_internal_matches_summed_integrand_route_off_the_integers(n, a, D, Nz, depth):
    # non-integral weights and a non-constant eta with Fraction coefficients:
    # every scalar that the int route folds into the denominator is not 1
    al = (Fraction(1, 2), Fraction(5, 3), Fraction(7))
    Y1 = bar_assemble(build_K("dot", n, CISpec(a), al, D))
    Y2 = bar_assemble(build_K("ddot", n, CISpec(a), al, D))
    XV = ("x1", "x2")
    x1, x2 = SparsePoly.variable(XV, "x1"), SparsePoly.variable(XV, "x2")
    eta = x1 * Fraction(2, 5) + x2 * x2 * Fraction(3, 7) + SparsePoly.const(XV, Fraction(1, 2))
    new = residue_internal_check(Y1, Y2, eta, al, n, D, Nz, depth)
    assert new["checks"] and new["ok"]
    assert new == _residue_internal_by_sums(Y1, Y2, eta, al, n, D, Nz, depth)
    # a pole at the kept variable's origin gives nonzero residues, which a
    # scalar folded into the numerator but not the denominator would change
    pole = _MutatedQ1(Y1, lambda c: RatFunc(c.num, c.den * SparsePoly.variable(("x1", "x2", "h"), "x1")))
    new = residue_internal_check(pole, Y2, eta, al, n, D, Nz, depth)
    assert any(c["residue_at_0"] != 0 for c in new["checks"])
    assert new == _residue_internal_by_sums(pole, Y2, eta, al, n, D, Nz, depth)


def test_residue_internal_mutants_match_summed_integrand_route():
    n, D, Nz, depth = 3, 2, 2, 7
    Y1, Y2, eta, al = _residue_inputs(n, (1,), D)
    x1 = SparsePoly.variable(("x1", "x2", "h"), "x1")
    # a pole at the kept variable's origin: failure records, not an exception
    pole = _MutatedQ1(Y1, lambda c: RatFunc(c.num, c.den * x1))
    new = residue_internal_check(pole, Y2, eta, al, n, D, Nz, depth)
    assert not new["ok"]
    assert any(c["var"] == "x1" and not c["regular_at_0"] for c in new["checks"])
    assert new == _residue_internal_by_sums(pole, Y2, eta, al, n, D, Nz, depth)
    scaled = _MutatedQ1(Y1, lambda c: c * 2)
    new = residue_internal_check(scaled, Y2, eta, al, n, D, Nz, depth)
    assert new == _residue_internal_by_sums(scaled, Y2, eta, al, n, D, Nz, depth)


def test_residue_internal_expands_each_coefficient_not_the_integrand(monkeypatch):
    from qgr import series, verifier

    D = 2
    Y1, Y2, eta, al = _residue_inputs(3, (1,), D)
    calls = []
    add = RatFunc.__add__
    expand = series.laurent_expand_hbar

    def counting_add(a, b):
        calls.append("add")
        return add(a, b)

    def counting_expand(*args, **kw):
        calls.append("expand")
        return expand(*args, **kw)

    monkeypatch.setattr(RatFunc, "__add__", counting_add)
    monkeypatch.setattr(series, "laurent_expand_hbar", counting_expand)
    monkeypatch.setattr(verifier, "laurent_expand_hbar", counting_expand)
    assert residue_internal_check(Y1, Y2, eta, al, 3, D, 2, 7)["ok"]
    # no integrand sums; one expansion per substituted coefficient:
    # 2 kept variables x 2 series x (D + 1) q-degrees
    assert calls == ["expand"] * (2 * 2 * (D + 1))


def _zmul(A, B, Dq, Nz):
    """Product of two tables over (q-degree, z-degree), truncated at d <= Dq, p <= Nz."""
    out = {}
    for (d1, p1), a in A.items():
        for (d2, p2), b in B.items():
            if d1 + d2 <= Dq and p1 + p2 <= Nz:
                k = (d1 + d2, p1 + p2)
                out[k] = out[k] + a * b if k in out else a * b
    return out


def _phi_z_tracked(F_evals, Fp_evals, eta_fn, al, Nz, D, pairs):
    """The sum over `pairs` of the pairing terms, formed as the z-tracked
    product F(h, q e^{hz}) * F'(-h, q) * e^{(a_i+a_j) z} of three tables
    over (d, p) and added into the total term by term."""
    Dq = min([D] + [E[ij].trunc_q for ij in pairs for E in (F_evals, Fp_evals)])
    total = {}
    for i, j in pairs:
        pref = Fraction(eta_fn(i, j)) / euler_tangent(al, i, j)
        T1 = {(d, p): HRat.convert(v) * HRat.poly((0,) * p + (Fraction(d**p, factorial(p)),))
              for (d,), v in F_evals[(i, j)].coeffs.items() for p in range(Nz + 1) if d or not p}
        T2 = {(d, 0): HRat.convert(v).flip_h() for (d,), v in Fp_evals[(i, j)].coeffs.items()}
        c = al[i - 1] + al[j - 1]
        ez = {(0, p): HRat.poly((c**p / factorial(p),)) for p in range(Nz + 1)}
        for k, v in _zmul(_zmul(T1, T2, Dq, Nz), ez, Dq, Nz).items():
            total[k] = total[k] + v * pref if k in total else v * pref
    return {k: v for k, v in total.items() if not v.is_zero()}


def _assert_same_table(phi, want):
    assert set(phi.coeffs) == set(want)
    for k, v in want.items():
        assert phi.coeffs[k] == v, k


def _upper_pairs(n):
    return [(i, j) for (i, j) in all_pairs(n) if i < j]


def test_phi_fold_matches_literal_half_sum():
    n, a = 3, CISpec((1,))
    al = default_generic_alpha(n)
    Fd = y_evals("dot", n, a, al, 2)
    Fdd = y_evals("ddot", n, a, al, 2)
    eta = lambda i, j: Fraction(1)
    literal = _phi_z_tracked(Fd, Fdd, eta, al, 2, 2, all_pairs(n))
    assert literal
    half = {k: v * Fraction(1, 2) for k, v in literal.items()}
    _assert_same_table(build_phi(Fd, Fdd, eta, al, n, 2, 2).payload, half)


@pytest.mark.parametrize("n,ci", [(3, (1,)), (3, (1, 1, 1)), (4, (2,))])
def test_build_phi_matches_z_tracked_products(n, ci):
    a = CISpec(ci)
    al = default_generic_alpha(n)
    pairs = _upper_pairs(n)
    Fd = {p: y_series_evaluated("dot", n, a, al, *p, 3) for p in pairs}
    Fdd = {p: y_series_evaluated("ddot", n, a, al, *p, 3) for p in pairs}
    eta = lambda i, j: Fraction(i + 2 * j)  # asymmetric, so the table is not all polynomial
    for D in range(4):
        for Nz in range(4):
            want = _phi_z_tracked(Fd, Fdd, eta, al, Nz, D, pairs)
            assert want
            _assert_same_table(build_phi(Fd, Fdd, eta, al, n, Nz, D).payload, want)


def test_build_phi_matches_z_tracked_products_mutated_and_short():
    n, a = 3, CISpec(())
    al = default_generic_alpha(n)
    pairs = _upper_pairs(n)
    eta = lambda i, j: Fraction(1)
    bad = {p: y_series_evaluated("dot", n, a, al, *p, 3, (1, 1) if p == (1, 2) else None) for p in pairs}
    want = _phi_z_tracked(bad, bad, eta, al, 3, 3, pairs)
    assert not check_mpc(build_phi(bad, bad, eta, al, n, 3, 3))[0]
    _assert_same_table(build_phi(bad, bad, eta, al, n, 3, 3).payload, want)
    # F truncated below D: the table stops at F's truncation
    short = {p: y_series_evaluated("dot", n, a, al, *p, 1) for p in pairs}
    Fdd = {p: y_series_evaluated("ddot", n, a, al, *p, 3) for p in pairs}
    odd = lambda i, j: Fraction(i + 2 * j)
    want = _phi_z_tracked(short, Fdd, odd, al, 2, 3, pairs)
    assert max(d for d, _ in want) == 1
    _assert_same_table(build_phi(short, Fdd, odd, al, n, 2, 3).payload, want)


def test_phi_payload_stays_in_box():
    # QSeries bounds the total q-degree only, so build_phi alone keeps z <= Nz
    n, a = 3, CISpec((1,))
    al = default_generic_alpha(n)
    pairs = _upper_pairs(n)
    eta = lambda i, j: Fraction(i + 2 * j)
    Fd = {p: y_series_evaluated("dot", n, a, al, *p, 2) for p in pairs}
    Fdd = {p: y_series_evaluated("ddot", n, a, al, *p, 3) for p in pairs}
    for D, Nz in ((3, 1), (1, 3), (2, 2)):
        keys = set(build_phi(Fd, Fdd, eta, al, n, Nz, D).payload.coeffs)
        Dq = min(D, 2)
        assert keys <= {(d, p) for d in range(Dq + 1) for p in range(Nz + 1)}
        assert (Dq, Nz) in keys  # the far corner of the box is filled


def test_uniqueness_hypotheses_with_operator_weighted_series():
    # the pair (plain series, basis-weighted series) satisfies all three
    # hypotheses of the uniqueness lemma
    from qgr.hyper import c_coeff
    from qgr.operators import build_pipeline, y_gamma_evaluated

    n, a = 3, CISpec((1,))
    al = default_generic_alpha(n)
    pipe = build_pipeline("dot", n, a, al, 2)
    Fd = y_evals("dot", n, a, al, 2)
    Dg = {p: y_gamma_evaluated(pipe, *p)[(1, 0)] for p in all_pairs(n)}
    eta = lambda i, j: a.product * (al[i - 1] + al[j - 1]) ** a.ell
    spec = equal_rows_spec(al, a)
    coeff = lambda s, i, j, k, d: c_coeff("dot", s, i, j, k, d, spec)
    for F in (Fd, Dg):
        rep = check_recursive(F, coeff, al, 2, n)
        assert rep.all_pass, [(e.pair, e.degree, e.note) for e in rep.failures()]
    ok, offenders = check_mpc(build_phi(Fd, Dg, eta, al, n, 2, 2))
    assert ok, offenders


def test_checks_that_checked_nothing_fail():
    # no suite may pass vacuously: no recursivity entry, no fixed point in
    # the pairing
    al = default_generic_alpha(3)
    assert not check_recursive({}, lambda *args: Fraction(0), al, 2, 3).all_pass
    assert not check_recursive_2q({}, lambda *args: Fraction(0), al, al, 2, 3).all_pass
    assert check_mpc(PhiSeries(QSeries(2, 2, {}), 0)) == (False, [])
    assert check_mpc(build_phi({}, {}, lambda i, j: 1, al[:1], 1, 2, 2)) == (False, [])


def test_zero_pairing_passes():
    # on (4, (2,)) the pairing vanishes through q^2 z^2: every coefficient
    # is the zero polynomial, which is a pass, not an empty check
    n, a, D, Nz = 4, CISpec((2,)), 2, 2
    al = tuple(map(Fraction, (4, 10, 17, 33)))
    Fd = {p: y_series_evaluated("dot", n, a, al, *p, D) for p in all_pairs(n)}
    eta = lambda i, j: a.product * (al[i - 1] + al[j - 1]) ** a.ell
    phi = build_phi(Fd, Fd, eta, al, n, Nz, D)
    assert not phi.payload.coeffs and phi.n_pairs == 6
    assert check_mpc(phi) == (True, [])


# -- the residue-by-residue recursivity check against the summed-pole one --


def _summed_pole_check_entry(evals, pair, key, terms, diverge_note: str = "") -> RecursivityEntry:
    """Subtract the pole terms c * F_lower(w) / (h - w), listed as
    (c, lower pair, lower q-key, w), from the `key` coefficient of
    evals[pair], summed per w into one subtraction, and test that after
    cancellation every remaining root of the denominator is 0."""
    residues: dict = {}
    for c, lower_pair, lower_key, w in terms:
        lower = evals.get(lower_pair)
        if lower is None:
            raise KeyError(f"missing evaluation at {lower_pair}")
        try:
            val = HRat.convert(lower.get(lower_key)).at(w)
        except ZeroDivisionError:
            note = f"evaluation of F{lower_pair} at h={w} diverges{diverge_note}"
            return RecursivityEntry(pair, key, None, False, note)
        residues[w] = residues.get(w, 0) + c * val
    poles = HRat.poly(())
    for w, s in residues.items():
        poles = poles + HRat.pole(w, s)
    R = (HRat.convert(evals[pair].get(key)) - poles).cancel()
    ok = set(R.roots) <= {(0, 1)}
    note = "" if ok else f"remainder has non-monomial denominator {R.to_ratfunc().den.to_string()}"
    return RecursivityEntry(pair, key, R, ok, note)


def _same_as_summed_poles(evals, pair, key, terms, diverge_note: str = "") -> RecursivityEntry:
    """_check_entry, asserted to give the summed-pole oracle's verdict, note
    and, on a failing entry, printed remainder."""
    got = _check_entry(evals, pair, key, terms, diverge_note)
    want = _summed_pole_check_entry(evals, pair, key, terms, diverge_note)
    assert (got.ok, got.note) == (want.ok, want.note), (pair, key)
    if want.ok or want.remainder is None:
        assert got.remainder is None, (pair, key)
    else:
        assert got.remainder.to_string() == want.remainder.to_string(), (pair, key)
    return got


@pytest.fixture
def against_summed_poles(monkeypatch):
    """Route every _check_entry call of the checkers through the oracle
    comparison; the list collects the entries compared."""
    seen = []

    def both(*args):
        seen.append(_same_as_summed_poles(*args))
        return seen[-1]

    monkeypatch.setattr(verifier, "_check_entry", both)
    return seen


@pytest.mark.parametrize("n, a", [(3, ()), (3, (1, 1, 1)), (4, (2,))])
def test_residue_check_matches_summed_poles_on_evaluations(against_summed_poles, n, a):
    a, D = CISpec(a), 3
    al = default_generic_alpha(n)
    spec = equal_rows_spec(al, a)
    for kind in ("dot", "ddot"):
        coeff = lambda s, i, j, k, d, _k=kind: c_coeff(_k, s, i, j, k, d, spec)
        assert check_recursive(y_evals(kind, n, a, al, D), coeff, al, D, n).all_pass, kind
        # a sign flip at (1, 2) fails there, and the notes and remainders agree
        bad = y_evals(kind, n, a, al, D)
        bad[(1, 2)] = y_series_evaluated(kind, n, a, al, 1, 2, D, (2, 1))
        assert not check_recursive(bad, coeff, al, D, n).all_pass, kind
    assert not all(e.ok for e in against_summed_poles)
    assert len(against_summed_poles) == 4 * len(all_pairs(n)) * (D + 1)


def test_residue_check_matches_summed_poles_on_the_ladder(against_summed_poles):
    n, a = 4, CISpec((2,))
    spec = AMatrixSpec(n=n, rows=a.rows, alpha1=default_generic_alpha(n),
                       alpha2=tuple(Fraction(11**m) for m in range(1, n + 1)))
    for kind in ("dot", "ddot"):
        evals = {(i1, i2): a_series_evaluated(kind, spec, i1, i2, 2)
                 for i1 in range(1, n + 1) for i2 in range(1, n + 1)}
        coeff = lambda s, i1, i2, k, d, _k=kind: scr_coeff(_k, s, i1, i2, k, d, spec)
        assert check_recursive_2q(evals, coeff, spec.alpha1, spec.alpha2, 2, n).all_pass, kind
        # the recursion of the other kind fails somewhere
        other = "ddot" if kind == "dot" else "dot"
        wrong = lambda s, i1, i2, k, d: scr_coeff(other, s, i1, i2, k, d, spec)
        assert not check_recursive_2q(evals, wrong, spec.alpha1, spec.alpha2, 2, n).all_pass, kind
    assert any(not e.ok and e.note for e in against_summed_poles)


def _entry(F, terms, lowers=None, note=""):
    """The two checks of the coefficient F of pair (1, 2) at q^1 against
    `terms`, given as (c, w, lower value); each lower value is the q^0
    coefficient of its own pair (2, k)."""
    lowers = lowers or {}
    evals = {(1, 2): QSeries(1, 1, {(1,): F})}
    rows = []
    for k, (c, w, v) in enumerate(terms, start=3):
        evals[(2, k)] = QSeries(1, 1, {(0,): v})
        rows.append((Fraction(c), (2, k), (0,), Fraction(w)))
    return _same_as_summed_poles(evals, (1, 2), (1,), rows, note)


W, W2 = Fraction(7, 2), Fraction(-5, 3)


def test_residue_check_matches_summed_poles_on_built_values():
    pole, h = HRat.pole, HRat.poly((0, 1))
    # a double pole at a recursion point, with the matching simple term
    assert not _entry(pole(W) * pole(W), [(1, W, one)]).ok
    assert not _entry(pole(W) * pole(W) + pole(W), [(1, W, one)]).ok
    # residues summed per point: 3 = 1 + 2, but one term short fails
    F = pole(W, 3) + pole(W2, Fraction(1, 2))
    assert _entry(F, [(1, W, one), (2, W, one), (1, W2, Fraction(1, 2))]).ok
    assert not _entry(F, [(1, W, one), (1, W2, Fraction(1, 2))]).ok
    assert not _entry(F, [(1, W, one), (2, W, one)]).ok
    # a lower value that is itself a rational function, with a negative
    # value at w: 1/(h - 5) at 7/2 is -2/3
    assert _entry(pole(W, Fraction(-4, 3)), [(2, W, pole(Fraction(5)))]).ok
    assert not _entry(pole(W, Fraction(4, 3)), [(2, W, pole(Fraction(5)))]).ok
    # a pole term where F has none
    assert not _entry(pole(W), [(1, W, one), (1, W2, one)]).ok
    assert not _entry(one, [(1, W2, h + 1)]).ok
    # terms that cancel at a point ask for no pole there
    assert _entry(pole(W), [(1, W, one), (1, W2, one), (-1, W2, one)]).ok
    # F stored with an uncancelled factor (h - r)/(h - r): no pole at r
    lin = HRat.poly((-W2, 1))
    F = lin * pole(W2) * pole(W)
    assert F.roots == {W2.as_integer_ratio(): 1, W.as_integer_ratio(): 1}
    assert _entry(F, [(1, W, one)]).ok
    assert not _entry(F, [(1, W, one), (1, W2, one)]).ok
    # ... and (h - r)/(h - r)^2, a simple pole stored as a double one
    F = lin * pole(W2) * pole(W2)
    assert F.roots == {W2.as_integer_ratio(): 2}
    assert _entry(F, [(1, W2, one)]).ok
    assert not _entry(F, [(2, W2, one)]).ok
    # a pole at h = 0 is allowed, of any order, and so is a term there
    assert _entry(pole(Fraction(0)) ** 2 + pole(W), [(1, W, one)]).ok
    assert _entry(pole(Fraction(0)) + pole(W), [(1, W, one), (5, 0, one)]).ok
    # F = 0
    zero = HRat.poly(())
    assert _entry(zero, []).ok
    assert _entry(zero, [(0, W, one)]).ok
    assert not _entry(zero, [(1, W, one)]).ok
    # a lower evaluation that diverges at its point keeps its note
    e = _entry(pole(W), [(1, W, one), (1, W2, pole(W2))], note=" (below)")
    assert not e.ok and e.remainder is None
    assert e.note == f"evaluation of F(2, 4) at h={W2} diverges (below)"


def test_residue_check_matches_summed_poles_on_random_values():
    # sums of simple and double poles at a few points, against terms that
    # match them, miss one, or add one
    rng = random.Random(29)
    points = [W, W2, Fraction(2), Fraction(-1, 4), Fraction(0)]
    verdicts = set()
    for _ in range(300):
        F, terms = HRat.poly([rng.randint(-3, 3) for _ in range(rng.randint(0, 3))]), []
        for w in rng.sample(points, rng.randint(0, 4)):
            res = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            F = F + HRat.pole(w, res)
            if rng.random() < 0.2:
                F = F + HRat.pole(w) * HRat.pole(w)
            c = Fraction(rng.randint(1, 3))
            lower = HRat.pole(Fraction(11)) * (res / c * (w - 11))
            if rng.random() < 0.9:
                terms.append((c, w, lower))
        if rng.random() < 0.2:
            terms.append((1, rng.choice(points), one))
        verdicts.add(_entry(F, terms).ok)
    assert verdicts == {True, False}


# ---------------------------------------------------------------------------
# the shared entry walk against the two loops it replaced
# ---------------------------------------------------------------------------


def _oracle_check_recursive(evals, coeff_fn, alphas, D: int, n: int) -> RecursivityReport:
    """The previous check_recursive, verbatim: no q^0 test."""
    al = [Fraction(v) for v in alphas]
    coeff = functools.cache(coeff_fn)  # each (slot, i, j, k, d) once per check
    report = RecursivityReport()
    for (i, j) in sorted(evals):
        for dstar in range(D + 1):
            terms = []
            for d in range(1, dstar + 1):
                for k in range(1, n + 1):
                    if k not in (i, j):
                        terms.append((coeff(2, i, j, k, d), (i, k), (dstar - d,),
                                      Fraction(al[k - 1] - al[j - 1], d)))
                        terms.append((coeff(1, i, j, k, d), (k, j), (dstar - d,),
                                      Fraction(al[k - 1] - al[i - 1], d)))
            report.entries.append(_check_entry(
                evals, (i, j), (dstar,), terms, f" (recursivity violated below degree {dstar})",
            ))
    return report


def _oracle_check_recursive_2q(evals, coeff_fn, alpha1, alpha2, D: int, n: int) -> RecursivityReport:
    """The previous check_recursive_2q, verbatim: no q^0 test."""
    a1 = [Fraction(v) for v in alpha1]
    a2 = [Fraction(v) for v in alpha2]
    coeff = functools.cache(coeff_fn)  # each (slot, i1, i2, k, d) once per check
    report = RecursivityReport()
    for (i1, i2) in sorted(evals):
        if i1 == i2:
            continue  # equal-index evaluations only feed the pole terms
        for D1 in range(D + 1):
            for D2 in range(D + 1 - D1):
                terms = []
                for d in range(1, D2 + 1):
                    for k in range(1, n + 1):
                        if k != i2:
                            terms.append((coeff(2, i1, i2, k, d), (i1, k), (D1, D2 - d),
                                          Fraction(a2[k - 1] - a2[i2 - 1], d)))
                for d in range(1, D1 + 1):
                    for k in range(1, n + 1):
                        if k != i1:
                            terms.append((coeff(1, i1, i2, k, d), (k, i2), (D1 - d, D2),
                                          Fraction(a1[k - 1] - a1[i1 - 1], d)))
                report.entries.append(_check_entry(evals, (i1, i2), (D1, D2), terms))
    return report


def _rows(report):
    return [(e.pair, e.degree, e.ok, e.note, e.remainder.to_string() if e.remainder is not None else "")
            for e in report.entries]


def _walk_matches_oracle(check, oracle, evals, *args):
    """The new and the previous report of `evals` are equal entry by
    entry; the q^0 entries of series without a q^0 term are left out of the
    comparison and returned, with the failures the oracle also gives."""
    got, want = _rows(check(evals, *args)), _rows(oracle(evals, *args))
    assert len(got) == len(want)
    q0 = [g for g, w in zip(got, want) if g != w]
    assert all(not any(g[1]) and evals[g[0]].get(g[1]) == 0 for g in q0), q0
    return q0, sum(not w[2] for w in want)


@pytest.mark.parametrize("n, a", [(3, ()), (3, (1, 1, 1)), (4, (2,))])
def test_walk_matches_previous_loops(n, a):
    a, D = CISpec(a), 3
    al = default_generic_alpha(n)
    spec = equal_rows_spec(al, a)
    failed = 0
    for kind in ("dot", "ddot"):
        coeff = lambda s, i, j, k, d, _k=kind: c_coeff(_k, s, i, j, k, d, spec)
        evals = y_evals(kind, n, a, al, D)
        for mutate in [None] + [(d, d1) for d in range(3) for d1 in range(d + 1)]:
            bad = dict(evals)
            bad[(1, 2)] = y_series_evaluated(kind, n, a, al, 1, 2, D, mutate)
            q0, fails = _walk_matches_oracle(check_recursive, _oracle_check_recursive, bad, coeff, al, D, n)
            assert not q0 and (mutate is None) == (fails == 0), (kind, mutate)
            failed += fails
        # no q^0 term at (1, 2): only that entry differs
        bad = dict(evals)
        bad[(1, 2)] = QSeries(1, D, {k: v for k, v in evals[(1, 2)].coeffs.items() if k != (0,)})
        q0, _ = _walk_matches_oracle(check_recursive, _oracle_check_recursive, bad, coeff, al, D, n)
        assert q0 == [((1, 2), (0,), False, "q^0 coefficient vanishes", "")], kind
    assert failed

    # the two-q ladder evaluations of the recursivity suite, under their own
    # recursion and the other kind's
    spec2 = AMatrixSpec(n=n, rows=a.rows, alpha1=al, alpha2=tuple(Fraction(11**m) for m in range(1, n + 1)))
    failed = 0
    for kind in ("dot", "ddot"):
        evals = {(i1, i2): a_series_evaluated(kind, spec2, i1, i2, 2)
                 for i1 in range(1, n + 1) for i2 in range(1, n + 1)}
        for rec in ("dot", "ddot"):
            coeff = lambda s, i1, i2, k, d, _r=rec: scr_coeff(_r, s, i1, i2, k, d, spec2)
            args = (coeff, spec2.alpha1, spec2.alpha2, 2, n)
            q0, fails = _walk_matches_oracle(check_recursive_2q, _oracle_check_recursive_2q, evals, *args)
            assert not q0
            failed += fails
            bad = dict(evals)
            bad[(1, 2)] = QSeries(2, 2, {k: v for k, v in evals[(1, 2)].coeffs.items() if k != (0, 0)})
            q0, _ = _walk_matches_oracle(check_recursive_2q, _oracle_check_recursive_2q, bad, *args)
            assert q0 == [((1, 2), (0, 0), False, "q^0 coefficient vanishes", "")], (kind, rec)
    assert failed or not a.rows
