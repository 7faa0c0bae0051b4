"""Machine checks of the two characterizing properties: pole recursivity
(one- and two-variable q) and polynomiality of the weighted fixed-point
pairing, plus the uniqueness-hypothesis audit and the internal residue
mechanics behind the polynomiality argument.

All checks run at concrete generic torus weights, on series supplied as
fixed-point evaluations (maps (i, j) -> truncated q-series whose values
are rational functions in h).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial

from .residues import pole_order_at, residue_at, residue_sum_check
from .rings import RatFunc, SparsePoly
from .series import QSeries, laurent_expand_hbar

HV = ("h",)


def _h() -> SparsePoly:
    return SparsePoly.variable(HV, "h")


def _is_h_monomial(p: SparsePoly) -> bool:
    if p.is_zero():
        return False
    if len(p.terms) != 1:
        return False
    used = p.used_vars()
    return used == () or used == ("h",)


@dataclass
class RecursivityEntry:
    pair: tuple
    degree: tuple
    remainder: RatFunc | None
    ok: bool
    note: str = ""


@dataclass
class RecursivityReport:
    entries: list[RecursivityEntry] = field(default_factory=list)

    @property
    def all_pass(self) -> bool:
        return all(e.ok for e in self.entries)

    def failures(self):
        return [e for e in self.entries if not e.ok]


def _as_h(v) -> RatFunc:
    return RatFunc.from_scalar(v, HV) if isinstance(v, Fraction) else v


def _check_entry(evals, pair, key, terms, coeff_fn, diverge_note: str = "") -> RecursivityEntry:
    """Subtract the pole terms (slot, lower pair, lower q-key, w, k, d) from
    the `key` coefficient of evals[pair] and test that the remainder's
    denominator is a power of h."""
    R = _as_h(evals[pair].get(key))
    h = _h()
    for slot, lower_pair, lower_key, w, k, d in terms:
        c = coeff_fn(slot, *pair, k, d)
        lower = evals.get(lower_pair)
        if lower is None:
            raise KeyError(f"missing evaluation at {lower_pair}")
        try:
            val = _as_h(lower.get(lower_key)).eval_all({"h": w})
        except ZeroDivisionError:
            note = f"evaluation of F{lower_pair} at h={w} diverges{diverge_note}"
            return RecursivityEntry(pair, key, R, False, note)
        R = R - RatFunc(SparsePoly.const(HV, c), h - SparsePoly.const(HV, w)) * val
    R = R.reduced()
    ok = R.is_zero() or _is_h_monomial(R.den)
    note = "" if ok else f"remainder has non-monomial denominator {R.den.to_string()}"
    return RecursivityEntry(pair, key, R, ok, note)


def check_recursive(evals, coeff_fn, alphas, D: int, n: int) -> RecursivityReport:
    """Single-q recursivity: for each ordered pair and degree, subtract the
    prescribed pole terms and test that the remainder's denominator is a
    power of h.

    evals: (i, j) -> QSeries in one q with RatFunc-in-h values.
    coeff_fn(slot, i, j, k, d) -> Fraction; slot 2 moves j -> k, slot 1
    moves i -> k.
    """
    al = [Fraction(v) for v in alphas]
    report = RecursivityReport()
    for (i, j) in sorted(evals):
        for dstar in range(D + 1):
            terms = []
            for d in range(1, dstar + 1):
                for k in range(1, n + 1):
                    if k not in (i, j):
                        terms.append((2, (i, k), (dstar - d,), Fraction(al[k - 1] - al[j - 1], d), k, d))
                        terms.append((1, (k, j), (dstar - d,), Fraction(al[k - 1] - al[i - 1], d), k, d))
            report.entries.append(_check_entry(
                evals, (i, j), (dstar,), terms, coeff_fn,
                f" (recursivity violated below degree {dstar})",
            ))
    return report


def check_recursive_2q(evals, coeff_fn, alpha1, alpha2, D: int, n: int) -> RecursivityReport:
    """Two-variable recursivity: slot 2 poles pair with q2 powers, slot 1
    with q1 powers; the moving index may hit the anchored one.

    evals: (i1, i2) -> QSeries in (q1, q2); defined for i1 != i2.
    coeff_fn(slot, i1, i2, k, d) -> Fraction with slot in {1, 2}.
    """
    a1 = [Fraction(v) for v in alpha1]
    a2 = [Fraction(v) for v in alpha2]
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
                            terms.append((2, (i1, k), (D1, D2 - d), Fraction(a2[k - 1] - a2[i2 - 1], d), k, d))
                for d in range(1, D1 + 1):
                    for k in range(1, n + 1):
                        if k != i1:
                            terms.append((1, (k, i2), (D1 - d, D2), Fraction(a1[k - 1] - a1[i1 - 1], d), k, d))
                report.entries.append(_check_entry(evals, (i1, i2), (D1, D2), terms, coeff_fn))
    return report


# ---------------------------------------------------------------------------
# the weighted fixed-point pairing and its polynomiality
# ---------------------------------------------------------------------------


@dataclass
class PhiSeries:
    payload: QSeries  # one q variable, z tracked; values RatFunc in h


def _flip_h(v: RatFunc) -> RatFunc:
    """h -> -h, done by sign-flipping odd-degree terms."""

    def flip(p: SparsePoly) -> SparsePoly:
        if "h" not in p.vars:
            return p
        i = p.vars.index("h")
        return SparsePoly(
            p.vars,
            {e: (-c if e[i] % 2 else c) for e, c in p.terms.items()},
            _clean=True,
        )

    return RatFunc(flip(v.num), flip(v.den))


def _exp_qhz(F: QSeries, Nz: int) -> QSeries:
    """q^d -> q^d * sum_p (d h z)^p / p!, tracked to z-order Nz."""
    out = {}
    h = _h()
    for (d,), v in F.coeffs.items():
        for p in range(Nz + 1):
            if p > 0 and d == 0:
                break
            w = v * RatFunc((h * d) ** p) * Fraction(1, factorial(p))
            out[(d, p)] = w
    return QSeries(1, F.trunc_q, out, z_tracked=True, trunc_z=Nz)


def _embed_z(F: QSeries, Nz: int) -> QSeries:
    return QSeries(1, F.trunc_q, {(d, 0): v for (d,), v in F.coeffs.items()},
                   z_tracked=True, trunc_z=Nz)


def _exp_cz(c: Fraction, D: int, Nz: int) -> QSeries:
    return QSeries(1, D, {(0, p): Fraction(c) ** p / factorial(p) for p in range(Nz + 1)},
                   z_tracked=True, trunc_z=Nz)


def pair_weight(alphas, i: int, j: int) -> Fraction:
    """prod_{k not in {i,j}} (alpha_i - alpha_k)(alpha_j - alpha_k)."""
    out = Fraction(1)
    for k in range(1, len(alphas) + 1):
        if k in (i, j):
            continue
        out *= (alphas[i - 1] - alphas[k - 1]) * (alphas[j - 1] - alphas[k - 1])
    return out


def build_phi(F_evals, Fp_evals, eta_fn, alphas, n: int, Nz: int, D: int,
              fold_symmetric: bool = True) -> PhiSeries:
    """The half-sum over ordered fixed-point pairs of
    eta e^{(a_i+a_j) z} / (pairing weight) * F(a_i, a_j, h, q e^{hz}) F'(a_i, a_j, -h, q).

    With `fold_symmetric` the (i, j) and (j, i) terms — equal for the
    x-symmetric series in scope — are merged, cancelling the half.
    """
    total = QSeries(1, D, {}, z_tracked=True, trunc_z=Nz)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j or (fold_symmetric and i > j):
                continue
            ev = eta_fn(i, j)
            if ev == 0:
                raise ValueError(f"eta vanishes at the fixed point ({i},{j})")
            pref = Fraction(ev) / pair_weight(alphas, i, j)
            T1 = _exp_qhz(F_evals[(i, j)], Nz)
            T2 = _embed_z(Fp_evals[(i, j)].map_values(
                lambda v: _flip_h(v) if isinstance(v, RatFunc) else Fraction(v)), Nz)
            ez = _exp_cz(alphas[i - 1] + alphas[j - 1], D, Nz)
            term = T1 * T2 * ez
            total = total + term.scale(pref)
    if fold_symmetric:
        return PhiSeries(total)
    return PhiSeries(total.scale(Fraction(1, 2)))


def check_mpc(phi: PhiSeries):
    """True iff every (z, q)-coefficient is a polynomial in h."""
    offenders = []
    for key, v in phi.payload.terms():
        if isinstance(v, Fraction):
            continue
        if v.num.divide_exact(v.den) is None:
            offenders.append((key, v.reduced()))
    return (not offenders), offenders


def audit_uniqueness_hypotheses(F_evals, Fp_evals, coeff_fn, eta_fn, alphas,
                                n: int, D: int, Nz: int = 2) -> dict:
    """The three hypothesis groups of the uniqueness principle:
    both series recursive, the pair eta-MPC, and the q^0 coefficient of the
    first series nonvanishing at every fixed point."""
    rep_F = check_recursive(F_evals, coeff_fn, alphas, D, n)
    rep_Fp = check_recursive(Fp_evals, coeff_fn, alphas, D, n)
    phi = build_phi(F_evals, Fp_evals, eta_fn, alphas, n, Nz, D)
    mpc_ok, offenders = check_mpc(phi)
    q0_ok = True
    q0_detail = []
    for (i, j), F in sorted(F_evals.items()):
        v = F.get((0,) * F.q_arity)
        vanish = v == 0 if isinstance(v, Fraction) else v.is_zero()
        if vanish:
            q0_ok = False
            q0_detail.append((i, j))
    return {
        "recursive_F": rep_F.all_pass,
        "recursive_Fp": rep_Fp.all_pass,
        "mpc": mpc_ok,
        "q0_nonzero": q0_ok,
        "all": rep_F.all_pass and rep_Fp.all_pass and mpc_ok and q0_ok,
        "detail": {
            "F_failures": rep_F.failures(),
            "Fp_failures": rep_Fp.failures(),
            "mpc_offenders": offenders,
            "q0_vanishing_pairs": q0_detail,
        },
    }


# ---------------------------------------------------------------------------
# internal residue mechanics of the polynomiality argument
# ---------------------------------------------------------------------------


def residue_internal_check(Y1: "object", Y2: "object", eta_poly: SparsePoly,
                           alphas, n: int, D: int, Nz: int, depth: int,
                           xi=Fraction(1, 3)) -> dict:
    """Residue checks for the integrand
    eta(x) e^{(x1+x2)z} (x1-x2)(x2-x1) / (prod_k (x1-a_k) prod_k (x2-a_k))
      * Y1(x, h, q e^{hz}) * Y2(x, -h, q)
    with one x-variable held at a generic rational point: each h-Laurent
    coefficient of each (z, q)-coefficient is regular at the evaluated
    variable's origin and its residues over {alpha points, 0, infinity}
    sum to zero.

    Y1, Y2: HyperSeries in one q with trivariate RatFunc coefficients.
    Returns a report dict; "ok" is the conjunction of all checks.
    """
    checks = []
    for var_kept, var_fixed in (("x2", "x1"), ("x1", "x2")):
        denom_poly = SparsePoly.const((var_kept,), 1)
        xk = SparsePoly.variable((var_kept,), var_kept)
        for ak in alphas:
            denom_poly = denom_poly * (xk - SparsePoly.const((var_kept,), ak))
        fixed_weight = Fraction(1)
        for ak in alphas:
            fixed_weight *= xi - ak
        for (dz, qd) in [(p, d) for d in range(D + 1) for p in range(Nz + 1)]:
            total = None
            for d1 in range(qd + 1):
                d2 = qd - d1
                c1 = Y1.coeff((d1,)).substitute({var_fixed: xi})
                c2 = Y2.coeff((d2,)).substitute({var_fixed: xi, "h": -_h()})
                # z-contributions: e^{(x1+x2)z} and the q -> q e^{hz} shift in Y1
                for p1 in range(dz + 1):
                    p2 = dz - p1
                    zshift = RatFunc((_h() * d1) ** p2) * Fraction(1, factorial(p2))
                    lin = SparsePoly.variable((var_kept,), var_kept) + SparsePoly.const(
                        (var_kept,), xi
                    )
                    epart = RatFunc(lin**p1) * Fraction(1, factorial(p1))
                    term = c1 * zshift * c2 * epart
                    total = term if total is None else total + term
            if total is None:
                continue
            x_kept = SparsePoly.variable((var_kept,), var_kept)
            sqpoly = (SparsePoly.const((var_kept,), xi) - x_kept) * (
                x_kept - SparsePoly.const((var_kept,), xi)
            )
            integrand = total * RatFunc(eta_poly.substitute({var_fixed: xi})) * RatFunc(
                sqpoly
            ) / (RatFunc(denom_poly) * fixed_weight)
            le = laurent_expand_hbar(integrand, depth)
            for hexp, coeff in sorted(le.coeffs.items(), reverse=True):
                if isinstance(coeff, Fraction):
                    continue
                f = coeff if isinstance(coeff, RatFunc) else RatFunc(coeff)
                reg0 = pole_order_at(f, Fraction(0), var_kept) == 0
                res0 = residue_at(f, Fraction(0), var_kept)
                ok_sum, _ = residue_sum_check(f, list(alphas) + [Fraction(0)], var_kept)
                checks.append({
                    "var": var_kept, "z": dz, "q": qd, "h_exp": hexp,
                    "regular_at_0": reg0, "residue_at_0": res0,
                    "sum_zero": ok_sum,
                })
    ok = all(c["regular_at_0"] and c["residue_at_0"] == 0 and c["sum_zero"] for c in checks)
    return {"ok": ok, "checks": checks}
