"""Machine checks of the three hypotheses of the uniqueness lemma: pole
recursivity (one- and two-variable q) with a nonzero q^0 term, and
polynomiality of the weighted fixed-point pairing, plus the internal
residue mechanics behind the polynomiality argument.

All checks run at concrete generic torus weights, on series supplied as
fixed-point evaluations (maps (i, j) -> truncated q-series whose values
are rational functions in h, as HRat).  The localization weight e(T)|_p
of each fixed point comes from cohomology.euler_tangent.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import factorial, lcm, prod

from .cohomology import GenericityError, euler_tangent, fixed_points
from .hrat import HRat
from .residues import pole_order_at, residue_at, residue_sum_check
from .rings import RatFunc, SparsePoly
from .series import QSeries, _vzero, laurent_expand_hbar

_XI = Fraction(1, 3)  # the generic point at which residue_internal_check holds one x-variable


class RecursivityEntry:
    def __init__(self, pair: tuple, degree: tuple, remainder: HRat | None, ok: bool, note: str = ""):
        # remainder: cancelled, of a failing entry; None if it passed, a lower evaluation diverged or q^0 vanished
        self.pair, self.degree, self.remainder, self.ok, self.note = pair, degree, remainder, ok, note


class RecursivityReport:
    def __init__(self):
        self.entries: list[RecursivityEntry] = []

    @property
    def all_pass(self) -> bool:
        """Every entry passed, and there is at least one."""
        return bool(self.entries) and all(e.ok for e in self.entries)

    def failures(self):
        return [e for e in self.entries if not e.ok]


def _residues_match(F: HRat, sums: dict) -> bool:
    """Every nonzero root r of F is simple with residue sums[r] (0 where r
    has no sum), and every nonzero point with a nonzero sum is a root of F.
    sums maps (p, q) to an unreduced int pair; residues are compared by
    cross-multiplying."""
    for r, m in F.roots.items():
        if r[0]:  # the pole at h = 0 is allowed
            if m > 1:
                return False
            a, b = F.residue(*r)
            sn, sd = sums.get(r, (0, 1))
            if a * sd != sn * b:
                return False
    return all(r in F.roots for r, (sn, _) in sums.items() if sn and r[0])


def _check_entry(evals, pair, key, terms, diverge_note: str = "") -> RecursivityEntry:
    """Test the `key` coefficient F of evals[pair] against the pole terms
    c * F_lower(w) / (h - w), listed as (c, lower pair, lower q-key, w),
    summed per w: F minus their sum must cancel to a value whose
    denominator is a power of h.  That holds exactly when every nonzero
    pole of F is simple with residue the summed coefficient at it, and
    every nonzero w with a nonzero summed coefficient is a pole of F, so
    the residues are compared one pole at a time, in ints, and the summed
    pole terms are never formed.  A simple root of the stored F needs no
    cancelling (where its numerator vanishes the residue is 0), so F is
    cancelled only when a nonzero root is multiple.  The remainder is
    formed for a failing entry only, for its note."""
    sums: dict = {}  # (p, q) of w -> the summed coefficient c * F_lower(w), an unreduced int pair
    for c, lower_pair, lower_key, w in terms:
        lower = evals.get(lower_pair)
        if lower is None:
            raise KeyError(f"missing evaluation at {lower_pair}")
        r = (w.numerator, w.denominator)
        try:
            vn, vd = HRat.convert(lower.get(lower_key)).value_at(*r)
        except ZeroDivisionError:
            note = f"evaluation of F{lower_pair} at h={w} diverges{diverge_note}"
            return RecursivityEntry(pair, key, None, False, note)
        vn, vd = c.numerator * vn, c.denominator * vd
        s = sums.get(r)
        sums[r] = (vn, vd) if s is None else (s[0] * vd + vn * s[1], s[1] * vd)
    F = HRat.convert(evals[pair].get(key))
    if any(m > 1 for r, m in F.roots.items() if r[0]):
        F = F.cancel()
    if _residues_match(F, sums):
        return RecursivityEntry(pair, key, None, True)
    poles = HRat.poly(())
    for (p, q), (sn, sd) in sums.items():
        poles = poles + HRat.pole(Fraction(p, q), Fraction(sn, sd))
    R = (F - poles).cancel()
    note = f"remainder has non-monomial denominator {R.to_ratfunc().den.to_string()}"
    return RecursivityEntry(pair, key, R, False, note)


def _walk(evals, entries) -> RecursivityReport:
    """The report of the recursivity entries (pair, q-key, pole terms,
    divergence note), in their order: each is tested by `_check_entry`,
    except that a pair's q^0 entry fails when that coefficient vanishes,
    the third hypothesis of the uniqueness lemma."""
    report = RecursivityReport()
    for pair, key, terms, diverge_note in entries:
        if not any(key) and _vzero(evals[pair].get(key)):
            report.entries.append(RecursivityEntry(pair, key, None, False, "q^0 coefficient vanishes"))
        else:
            report.entries.append(_check_entry(evals, pair, key, terms, diverge_note))
    return report


def check_recursive(evals, coeff_fn, alphas, D: int, n: int) -> RecursivityReport:
    """Single-q recursivity: for each ordered pair (i, j) and degree d*,
    every nonzero pole of the q^d* coefficient is simple and sits at a
    recursion point w = (alpha_k - alpha_j)/d or (alpha_k - alpha_i)/d,
    with residue the prescribed sum of c * (lower evaluation at w), and
    every such sum that is nonzero has its pole (`_check_entry`); the q^0
    coefficient is nonzero (`_walk`).

    evals: (i, j) -> QSeries in one q with HRat values.
    coeff_fn(slot, i, j, k, d) -> Fraction; slot 2 moves j -> k, slot 1
    moves i -> k.
    """
    al = [Fraction(v) for v in alphas]
    coeff = functools.cache(coeff_fn)  # each (slot, i, j, k, d) once per check
    return _walk(evals, (
        ((i, j), (dstar,), [
            term
            for d in range(1, dstar + 1) for k in range(1, n + 1) if k not in (i, j)
            for term in ((coeff(2, i, j, k, d), (i, k), (dstar - d,), Fraction(al[k - 1] - al[j - 1], d)),
                         (coeff(1, i, j, k, d), (k, j), (dstar - d,), Fraction(al[k - 1] - al[i - 1], d)))
        ], f" (recursivity violated below degree {dstar})")
        for (i, j) in sorted(evals) for dstar in range(D + 1)
    ))


def check_recursive_2q(evals, coeff_fn, alpha1, alpha2, D: int, n: int) -> RecursivityReport:
    """Two-variable recursivity, the same entry walk (`_walk`): slot 2
    poles, at (alpha2_k - alpha2_i2)/d, pair with q2 powers, slot 1 poles,
    at (alpha1_k - alpha1_i1)/d, with q1 powers; the moving index may hit
    the anchored one.

    evals: (i1, i2) -> QSeries in (q1, q2); defined for i1 != i2, where
    equal-index evaluations only feed the pole terms.
    coeff_fn(slot, i1, i2, k, d) -> Fraction with slot in {1, 2}.
    """
    a1 = [Fraction(v) for v in alpha1]
    a2 = [Fraction(v) for v in alpha2]
    coeff = functools.cache(coeff_fn)  # each (slot, i1, i2, k, d) once per check
    return _walk(evals, (
        ((i1, i2), (D1, D2), [
            (coeff(2, i1, i2, k, d), (i1, k), (D1, D2 - d), Fraction(a2[k - 1] - a2[i2 - 1], d))
            for d in range(1, D2 + 1) for k in range(1, n + 1) if k != i2
        ] + [
            (coeff(1, i1, i2, k, d), (k, i2), (D1 - d, D2), Fraction(a1[k - 1] - a1[i1 - 1], d))
            for d in range(1, D1 + 1) for k in range(1, n + 1) if k != i1
        ], "")
        for (i1, i2) in sorted(evals) if i1 != i2 for D1 in range(D + 1) for D2 in range(D + 1 - D1)
    ))


# ---------------------------------------------------------------------------
# the weighted fixed-point pairing and its polynomiality
# ---------------------------------------------------------------------------


class PhiSeries:
    def __init__(self, payload: QSeries, n_pairs: int):
        self.payload = payload  # keys (q-degree, z-degree); HRat values
        self.n_pairs = n_pairs  # the fixed-point pairs summed; a zero pairing still counts


def build_phi(F_evals, Fp_evals, eta_fn, alphas, n: int, Nz: int, D: int) -> PhiSeries:
    """The half-sum over ordered fixed-point pairs of
    eta e^{(a_i+a_j) z} / e(T)|_{p_ij} * F(a_i, a_j, h, q e^{hz}) F'(a_i, a_j, -h, q):
    its q^d z^p coefficients for d <= min(D, F.trunc_q, F'.trunc_q), p <= Nz.

    The (i, j) and (j, i) terms are equal for the x-symmetric series in
    scope, so only the pairs i < j are read and the half cancels; a fault
    injected at (1, 2) therefore acts on both orderings.

    With c = a_i + a_j, the product of the q^{d1} coefficient of F and the
    q^{d2} coefficient of F'(-h) enters q^{d1+d2} z^p with the weight
    sum_{p1 <= p} (d1 h)^{p1} / p1! * c^{p-p1} / (p-p1)!.  Terms are summed
    per pair, on that pair's roots; each pair's sums are then scaled by
    eta / e(T)|_{p_ij} and added into the total once per key, where
    adding every term into the total would merge the root sets of
    different pairs at every step.
    """
    pairs = [(i, j) for i, j in fixed_points(n) if i < j]
    Dq = min([D] + [E[ij].trunc_q for ij in pairs for E in (F_evals, Fp_evals)])
    total: dict[tuple[int, int], HRat] = {}
    for i, j in pairs:
        ev = eta_fn(i, j)
        if ev == 0:
            raise ValueError(f"eta vanishes at the fixed point ({i},{j})")
        pref = Fraction(ev) / euler_tangent(alphas, i, j)
        cz = [Fraction(alphas[i - 1] + alphas[j - 1]) ** m / factorial(m) for m in range(Nz + 1)]
        Fp = [(d2, HRat.convert(v).flip_h()) for (d2,), v in Fp_evals[(i, j)].coeffs.items()]
        acc: dict[tuple[int, int], HRat] = {}
        for (d1,), v1 in F_evals[(i, j)].coeffs.items():
            weights = [HRat.poly([Fraction(d1**p1, factorial(p1)) * cz[p - p1] for p1 in range(p + 1)])
                       for p in range(Nz + 1)]
            v1 = HRat.convert(v1)
            for d2, v2 in Fp:
                if d1 + d2 > Dq:
                    continue
                f = v1 * v2
                for p, w in enumerate(weights):
                    key = (d1 + d2, p)
                    t = f * w
                    acc[key] = t if key not in acc else acc[key] + t
        for key, s in acc.items():
            s = s * pref
            total[key] = s if key not in total else total[key] + s
    return PhiSeries(QSeries(2, D + Nz, total), len(pairs))


def check_mpc(phi: PhiSeries):
    """True iff the pairing summed at least one fixed point and every
    (q, z)-coefficient is a polynomial in h: no root of its denominator is
    left after cancellation.  Offenders are reported as gcd-reduced RatFunc
    values."""
    offenders = []
    for key, v in phi.payload.terms():
        v = v.cancel()
        if v.roots:
            offenders.append((key, v.to_ratfunc()))
    return phi.n_pairs > 0 and not offenders, offenders


# ---------------------------------------------------------------------------
# internal residue mechanics of the polynomiality argument
# ---------------------------------------------------------------------------


def _expand_at_infinity(coeffs: list[RatFunc], depth: int) -> tuple[list[dict], SparsePoly]:
    """Expand each coeffs[d] = num/den at h = infinity over one common
    x-denominator L: returns ([h-exponent -> x-polynomial P], L) with
    coeffs[d] = sum_e P_e h^e / L, exact for e >= 1 - depth.

    laurent_expand_hbar needs a constant top h-coefficient.  A top
    coefficient L_d that depends on x (a pole at the kept variable's
    origin, say) is split off as den = L_d * den' (ValueError if L_d does
    not divide den) and moves into L = prod_d L_d, where the residue checks
    see it; a constant one (L_d = 1) stays in den, so that an int top
    coefficient keeps the expansion in int arithmetic until its one final
    division."""
    one = SparsePoly.const(coeffs[0].den.vars, 1)
    leads = []
    for c in coeffs:
        parts = c.den.decompose_by("h")
        lead = parts[max(parts)]
        leads.append(one if lead.is_const() else lead)
    L = prod(leads, start=one)
    out = []
    for c, lead in zip(coeffs, leads):
        den = c.den.divide_exact(lead)
        if den is None:
            raise ValueError("denominator is not its top h-coefficient times a polynomial")
        out.append(laurent_expand_hbar(c.num * L.divide_exact(lead), den, depth).coeffs)
    return out, L


def residue_internal_check(Y1: "object", Y2: "object", eta_poly: SparsePoly,
                           alphas, n: int, D: int, Nz: int, depth: int) -> dict:
    """Residue checks for the integrand
    eta(x) e^{(x1+x2)z} (x1-x2)(x2-x1) / (prod_k (x1-a_k) prod_k (x2-a_k))
      * Y1(x, h, q e^{hz}) * Y2(x, -h, q)
    with one x-variable held at a generic rational point: each h-Laurent
    coefficient, down to h^(1-depth), of each (z, q)-coefficient is
    regular at the evaluated variable's origin and its residues over
    {alpha points, 0, infinity} sum to zero.

    Y1, Y2: one-q HyperSeries; eta_poly: a polynomial in x1, x2.

    Each coefficient Y.coeff((d,)), with the fixed variable set to xi, is
    expanded once at h = infinity as sum_e P_e(x) h^e / L(x)
    (_expand_at_infinity); Y2's terms take the sign (-1)^e of h -> -h.
    Depth: with t the largest deg_h num - deg_h den among the partner
    series' coefficients, a factor known down to h^(1-depth-Nz-t) makes
    every product term down to h^(1-depth-Nz) exact, and the z-shift
    (d1 h)^p2 with p2 <= Nz lifts those into the checked range
    h^(>= 1-depth).  A (z, q)-coefficient is the sum over d1 and
    p1 + p2 = z of the product of the q^d1 and q^(q-d1) expansions times
    lin^p1/p1! (d1 h)^p2/p2!, lin = x + xi; each of its h-coefficients P_e
    gives the checked function
    P_e eta (x-xi)(xi-x) / (prod_k (x-a_k)(xi-a_k) * L1 L2).
    Constant functions are not checked.  In int arithmetic: each side's
    expansions are held times one int (the lcm of their content
    denominators), lin^p/p! and d1^p2/p2! times (Nz!)^2 xi_den^Nz, and
    these scalars are folded into the denominator; the front factor and the
    denominator are then cleared of denominators by one more int.  So each
    checked function is the same rational function, of int polynomials.
    Returns a report dict; "ok" is the conjunction of all checks, those
    with x2 kept first, then those with x1 kept.
    A weight equal to xi raises GenericityError: the held variable's
    factor (xi - a_k) would vanish.

    Mirroring: the factors other than eta, Y1 and Y2 are symmetric in
    x1, x2.  When eta and every Y1, Y2 coefficient equal their x1 <-> x2
    swaps (exact polynomial and RatFunc equality), the x1-kept functions
    are the x2-kept ones with x2 renamed x1, so their pole orders,
    residues and sums are the same numbers: only the x2-kept pass runs,
    and its records are repeated with "var" set to "x1".  Any asymmetric
    input, a fault say, runs both passes.
    """
    if _XI in alphas:
        raise GenericityError(f"weight {_XI} is the point at which residue-internal holds one x-variable")
    lo = 1 - depth - Nz  # the lowest product exponent that any check reads
    coeffs = [[Y.coeff((d,)) for d in range(D + 1)] for Y in (Y1, Y2)]
    mirror = eta_poly.is_symmetric_x() and all(c == c.swap_x() for cs in coeffs for c in cs)
    checks = []
    for var_kept, var_fixed in (("x2", "x1"),) if mirror else (("x2", "x1"), ("x1", "x2")):
        subs = [[c.substitute({var_fixed: _XI}) for c in cs] for cs in coeffs]
        tops = [max((c.num.degree_in("h") - c.den.degree_in("h") for c in cs if not c.is_zero()), default=0)
                for cs in subs]
        (e1, L1), (e2, L2) = (
            _expand_at_infinity(cs, depth + Nz + tops[1 - s]) for s, cs in enumerate(subs)
        )
        # each side over one int: its h-coefficients times the lcm c of their content denominators
        c1, c2 = (lcm(*(P.content_denominator() for ex in es for P in ex.values())) for es in (e1, e2))
        e1 = [{e: P * c1 for e, P in ex.items()} for ex in e1]
        e2 = [{e: P * (-c2 if e % 2 else c2) for e, P in ex.items()} for ex in e2]  # h -> -h
        V = L1.vars
        conv = {}
        for d1 in range(D + 1):
            for d2 in range(D + 1 - d1):
                acc: dict[int, SparsePoly] = {}
                for a, P1 in e1[d1].items():
                    for b, P2 in e2[d2].items():
                        if a + b >= lo:
                            t = P1 * P2
                            acc[a + b] = t if a + b not in acc else acc[a + b] + t
                conv[(d1, d2)] = acc
        x = SparsePoly.variable(V, var_kept)
        xi = SparsePoly.const(V, _XI)
        # int polynomials: lin_pows[p] = xi_den^Nz Nz! lin^p/p!, lin = x + xi; below, w scales it by Nz! d1^p2/p2!
        lin = x * _XI.denominator + SparsePoly.const(V, _XI.numerator)
        lin_pows = [lin**p * (factorial(Nz) * _XI.denominator ** (Nz - p) // factorial(p)) for p in range(Nz + 1)]
        front = eta_poly.substitute({var_fixed: _XI}) * (xi - x) * (x - xi)
        pole_den = L1 * L2 * (c1 * c2 * factorial(Nz) ** 2 * _XI.denominator**Nz)
        for ak in alphas:
            pole_den = pole_den * (x - SparsePoly.const(V, ak)) * (_XI - ak)
        # one int clears both of denominators
        k = lcm(front.content_denominator(), pole_den.content_denominator())
        front, pole_den = front * k, pole_den * k
        for (dz, qd) in [(p, d) for d in range(D + 1) for p in range(Nz + 1)]:
            # z-contributions: e^{(x1+x2)z} and the q -> q e^{hz} shift in Y1
            total: dict[int, SparsePoly] = {}
            for d1 in range(qd + 1):
                for p2 in range(dz + 1 if d1 else 1):
                    w = lin_pows[dz - p2] * (d1**p2 * factorial(Nz) // factorial(p2))
                    for e, P in conv[(d1, qd - d1)].items():
                        if e + p2 >= 1 - depth:
                            t = P * w
                            total[e + p2] = t if e + p2 not in total else total[e + p2] + t
            for hexp in sorted(total, reverse=True):
                f = RatFunc(total[hexp] * front, pole_den)
                if f.is_const():
                    continue
                reg0 = pole_order_at(f, Fraction(0), var_kept) == 0
                res0 = residue_at(f, Fraction(0), var_kept)
                ok_sum, _ = residue_sum_check(f, list(alphas) + [Fraction(0)], var_kept)
                checks.append({
                    "var": var_kept, "z": dz, "q": qd, "h_exp": hexp,
                    "regular_at_0": reg0, "residue_at_0": res0,
                    "sum_zero": ok_sum,
                })
    if mirror:
        checks += [dict(c, var="x1") for c in checks]
    ok = all(c["regular_at_0"] and c["residue_at_0"] == 0 and c["sum_zero"] for c in checks)
    return {"ok": ok, "checks": checks}
