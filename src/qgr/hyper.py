"""Generating-function builders: the two-variable ladder series over
P^(n-1) x P^(n-1) data, their specialization to a single weight family,
the bar transform to one q variable, the closed-form series of the
introduction, the scalar normalization series, and the recursion
coefficient tables.

A ladder series keeps one numerator per q-key over the product of its two
ladder denominator chains; the RatFunc coefficient is formed when it is
read.  Pairs of summands are combined before any division by (x1 - x2),
so coefficients are genuine rational functions regular on x1 = x2.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import prod

from .hrat import HRat
from .rings import RatFunc, SparsePoly
from .series import QSeries

V3 = ("x1", "x2", "h")


@dataclass(frozen=True)
class CISpec:
    """Complete-intersection multidegree (a_1, ..., a_ell)."""

    a: tuple[int, ...]

    def __post_init__(self):
        if any(ak < 1 for ak in self.a):
            raise ValueError("all a_k must be positive")

    @property
    def ell(self) -> int:
        return len(self.a)

    @property
    def total(self) -> int:
        return sum(self.a)

    @property
    def product(self) -> int:
        return prod(self.a) if self.a else 1

    @property
    def rows(self) -> tuple[tuple[int, int], ...]:
        """The equal two-slot weight rows (a_k, a_k)."""
        return tuple((ak, ak) for ak in self.a)

    def validate(self, n: int) -> None:
        if self.total > n:
            raise ValueError(f"|a| = {self.total} exceeds n = {n}")


@dataclass(frozen=True)
class AMatrixSpec:
    """Two-slot data: rows (a_{r;1}, a_{r;2}) and one weight family per slot."""

    n: int
    rows: tuple[tuple[int, int], ...] = ()
    alpha1: tuple[Fraction, ...] | None = None  # None = all zero
    alpha2: tuple[Fraction, ...] | None = None

    def alpha(self, slot: int) -> tuple[Fraction, ...]:
        al = self.alpha1 if slot == 1 else self.alpha2
        return al if al is not None else (Fraction(0),) * self.n


def _xvar(name: str) -> SparsePoly:
    return SparsePoly.variable(V3, name)


def _c3(v) -> SparsePoly:
    return SparsePoly.const(V3, v)


@dataclass
class DenChain:
    """Ladder denominator products for one slot: B[d] = prod_{l<=d} factor_l."""

    xname: str
    factors: list[SparsePoly]
    products: list[SparsePoly]
    xtrunc: int | None = None

    @classmethod
    def build(cls, n: int, alphas, xname: str, D: int, xtrunc: int | None = None) -> "DenChain":
        factors = [den_factor(n, alphas, l, xname, xtrunc) for l in range(1, D + 1)]
        products = [_c3(1)]
        for f in factors:
            products.append(products[-1].mul_trunc(f, xtrunc))
        return cls(xname, factors, products, xtrunc)

    def cofactor(self, d_from: int, d_to: int) -> SparsePoly:
        out = _c3(1)
        for l in range(d_from + 1, d_to + 1):
            out = out.mul_trunc(self.factors[l - 1], self.xtrunc)
        return out


def den_factor(n: int, alphas, l: int, xname: str, xtrunc: int | None = None) -> SparsePoly:
    """prod_j (x - alpha_j + l h) - prod_j (x - alpha_j); (x+lh)^n - x^n at alpha=0."""
    x = _xvar(xname)
    h = _xvar("h")
    p1 = _c3(1)
    p2 = _c3(1)
    for j in range(n):
        aj = Fraction(0) if alphas is None else Fraction(alphas[j])
        p1 = p1.mul_trunc(x - _c3(aj) + h * l, xtrunc)
        p2 = p2.mul_trunc(x - _c3(aj), xtrunc)
    return p1 - p2


def _num_l_range(kind: str, m: int) -> range:
    if kind == "dot":
        return range(1, m + 1)
    if kind == "ddot":
        return range(0, m)
    raise ValueError(f"kind must be 'dot' or 'ddot', got {kind!r}")


def amatrix_numerator(kind: str, rows, d1: int, d2: int, xtrunc: int | None = None) -> SparsePoly:
    """prod_r prod_l (a_{r;1} x1 + a_{r;2} x2 + l h) with the kind's l-range."""
    out = _c3(1)
    h = _xvar("h")
    for (a1, a2) in rows:
        m = a1 * d1 + a2 * d2
        base = _xvar("x1") * a1 + _xvar("x2") * a2
        for l in _num_l_range(kind, m):
            out = out.mul_trunc(base + h * l, xtrunc)
    return out


@dataclass
class HyperSeries:
    """A ladder series in one or two q variables: q-key -> numerator over
    the ladder products of its denominator chains.  A one-q key (d,) sits
    over B[d] of both chains, a two-q key (d1, d2) over B[d1] B[d2]."""

    n: int
    D: int
    den_chains: tuple[DenChain, DenChain]
    num_parts: dict
    xtrunc: int | None = None

    @property
    def q_arity(self) -> int:
        return len(next(iter(self.num_parts)))

    @functools.cached_property
    def dens(self) -> dict:
        """q-key -> its denominator, formed once per series at the chains'
        x-truncation (a bar transform keeps one order less than that)."""
        c1, c2 = self.den_chains
        return {
            key: c1.products[key[0]].mul_trunc(c2.products[key[-1]], c1.xtrunc)
            for key in self.num_parts
        }

    def coeff(self, key) -> RatFunc:
        key = tuple(key)
        return RatFunc(self.num_parts[key], self.dens[key])

    def series(self) -> QSeries:
        """The coefficients as a QSeries of RatFunc, zero numerators dropped."""
        dens = self.dens
        return QSeries(self.q_arity, self.D, {
            key: RatFunc(num, dens[key]) for key, num in self.num_parts.items() if not num.is_zero()
        })


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def build_A(kind: str, spec: AMatrixSpec, D: int, xtrunc: int | None = None) -> HyperSeries:
    """The two-variable ladder series: the coefficient of q1^d1 q2^d2 is
    the weight-row numerator product over the slot-wise ladder denominators."""
    c1 = DenChain.build(spec.n, spec.alpha1, "x1", D, xtrunc)
    c2 = DenChain.build(spec.n, spec.alpha2, "x2", D, xtrunc)
    nums = {
        (d1, d - d1): amatrix_numerator(kind, spec.rows, d1, d - d1, xtrunc)
        for d in range(D + 1) for d1 in range(d + 1)
    }
    return HyperSeries(n=spec.n, D=D, den_chains=(c1, c2), num_parts=nums, xtrunc=xtrunc)


def build_K(kind: str, n: int, a: CISpec, alphas, D: int, xtrunc: int | None = None) -> HyperSeries:
    """Specialized series: equal row weights and one common weight family."""
    a.validate(n)
    spec = AMatrixSpec(
        n=n,
        rows=a.rows,
        alpha1=tuple(alphas) if alphas is not None else None,
        alpha2=tuple(alphas) if alphas is not None else None,
    )
    return build_A(kind, spec, D, xtrunc)


def bar_assemble(F: HyperSeries) -> HyperSeries:
    """q1 = q2 = -q substitution plus the antisymmetrized derivative term.

    The summed derivative numerator must be exactly divisible by
    (x1 - x2); failure signals an asymmetric input.
    """
    if F.q_arity != 2:
        raise ValueError("bar transform needs a two-variable series")
    D = F.D
    x1mx2 = _xvar("x1") - _xvar("x2")
    h = _xvar("h")
    c1, c2 = F.den_chains
    nums = {}
    for d in range(D + 1):
        N0 = SparsePoly.zero(V3)
        N1 = SparsePoly.zero(V3)
        for d1 in range(d + 1):
            d2 = d - d1
            num = F.num_parts.get((d1, d2))
            if num is None:
                continue
            cof = c1.cofactor(d1, d).mul_trunc(c2.cofactor(d2, d), F.xtrunc)
            t = num.mul_trunc(cof, F.xtrunc)
            N0 = N0 + t
            if d1 != d2:
                N1 = N1 + t * (d1 - d2)
        if N1.is_zero():
            Q = SparsePoly.zero(V3)
        else:
            Q = N1.divide_exact(x1mx2)
            if Q is None:
                raise ValueError("derivative numerator not divisible by x1 - x2 (asymmetric input)")
        sign = -1 if d % 2 else 1
        nums[(d,)] = (N0 + h.mul_trunc(Q, F.xtrunc)) * sign
    # dividing by x1 - x2 costs one order of x-precision
    return HyperSeries(
        n=F.n, D=D, den_chains=F.den_chains, num_parts=nums,
        xtrunc=None if F.xtrunc is None else F.xtrunc - 1,
    )


def build_Y_closed(kind: str, n: int, a: CISpec, D: int, xtrunc: int | None = None) -> HyperSeries:
    """The closed-form series of the introduction (weights all zero).

    Summand pairs (d1,d2), (d2,d1) are symmetrized before dividing by
    (x1 - x2), so every coefficient is regular on x1 = x2.
    """
    a.validate(n)
    chain1 = DenChain.build(n, None, "x1", D, xtrunc)
    chain2 = DenChain.build(n, None, "x2", D, xtrunc)
    x1mx2 = _xvar("x1") - _xvar("x2")
    h = _xvar("h")
    nums = {}
    for d in range(D + 1):
        A_d = amatrix_numerator(kind, a.rows, d, 0, xtrunc)
        total = SparsePoly.zero(V3)
        for d1 in range(d, (d - 1) // 2, -1):
            d2 = d - d1
            cof12 = chain1.cofactor(d1, d).mul_trunc(chain2.cofactor(d2, d), xtrunc)
            if d1 == d2:
                total = total + cof12
                continue
            cof21 = chain1.cofactor(d2, d).mul_trunc(chain2.cofactor(d1, d), xtrunc)
            pair = (x1mx2 + h * (d1 - d2)).mul_trunc(cof12, xtrunc)
            pair = pair + (x1mx2 + h * (d2 - d1)).mul_trunc(cof21, xtrunc)
            q = pair.divide_exact(x1mx2)
            if q is None:  # pragma: no cover - pair sums are antisymmetric
                raise ArithmeticError("paired summand not divisible by x1 - x2")
            total = total + q
        sign = -1 if d % 2 else 1
        nums[(d,)] = A_d.mul_trunc(total, xtrunc) * sign
    return HyperSeries(n=n, D=D, den_chains=(chain1, chain2), num_parts=nums, xtrunc=xtrunc)


def normalization_I(kind: str, n: int, a: CISpec, D: int) -> QSeries:
    """The scalar normalization series: 1 unless (dot, |a| = n), in which
    case it is the closed-form series at x = (0,0), h = 1 (the constant
    term of the x-expansion; the x1 - x2 pole cancels pairwise)."""
    a.validate(n)
    if kind == "ddot" or a.total < n:
        return QSeries.one(1, D)
    Y = build_Y_closed("dot", n, a, D, xtrunc=2)
    coeffs = {}
    point = {"x1": Fraction(0), "x2": Fraction(0), "h": Fraction(1)}
    for d in range(D + 1):
        coeffs[(d,)] = Y.coeff((d,)).eval_all(point)
    return QSeries(1, D, coeffs)


# ---------------------------------------------------------------------------
# fixed-point evaluations (the cheap route used by all the verifier checks)
# ---------------------------------------------------------------------------


def _inverse_ladder(alphas, i: int, D: int) -> list[HRat]:
    """1 / (ladder product B[d]) at x = alpha_i for d <= D: there the
    factor l is l^n prod_j (h - (alpha_j - alpha_i)/l), the j = i root
    being 0."""
    out = [HRat.poly((1,))]
    for l in range(1, D + 1):
        prev = out[-1]
        roots = dict(prev.roots)
        for aj in alphas:
            r = Fraction(aj - alphas[i - 1], l)
            roots[r] = roots.get(r, 0) + 1
        out.append(HRat([prev.coeffs[0] / l ** len(alphas)], roots))
    return out


def a_series_evaluated(kind: str, spec: AMatrixSpec, i1: int, i2: int, D: int,
                       mutate: tuple[int, int] | None = None) -> QSeries:
    """The two-variable series evaluated at (x1, x2) = (alpha_{1;i1}, alpha_{2;i2}).

    Values are HRat (rational in h).  `mutate=(d, d1)` flips the sign of
    the single (d1, d-d1) summand (fault injection for the detection suites).
    """
    x1v, x2v = spec.alpha(1)[i1 - 1], spec.alpha(2)[i2 - 1]
    inv1 = _inverse_ladder(spec.alpha(1), i1, D)
    inv2 = _inverse_ladder(spec.alpha(2), i2, D)
    coeffs = {}
    for d in range(D + 1):
        for d1 in range(d + 1):
            d2 = d - d1
            num = HRat.poly((-1 if mutate == (d, d1) else 1,))
            for (a1, a2) in spec.rows:
                c = a1 * x1v + a2 * x2v
                for l in _num_l_range(kind, a1 * d1 + a2 * d2):
                    num = num * HRat.poly((c, l))
            coeffs[(d1, d2)] = num * inv1[d1] * inv2[d2]
    return QSeries(2, D, coeffs)


def k_series_evaluated(kind: str, n: int, a: CISpec, alphas, i: int, j: int, D: int,
                       mutate: tuple[int, int] | None = None) -> QSeries:
    spec = AMatrixSpec(n=n, rows=a.rows, alpha1=tuple(alphas), alpha2=tuple(alphas))
    return a_series_evaluated(kind, spec, i, j, D, mutate)


def bar_evaluated(K2q: QSeries, diff: Fraction) -> QSeries:
    """Bar transform of an evaluated two-variable series; diff = x1 - x2 there."""
    inv = Fraction(1) / Fraction(diff)
    return K2q.substitute_q_neg(weight=lambda d: HRat.poly((1, (d[0] - d[1]) * inv)))


def y_series_evaluated(kind: str, n: int, a: CISpec, alphas, i: int, j: int, D: int,
                       mutate: tuple[int, int] | None = None) -> QSeries:
    """The bar-transformed series evaluated at the fixed point (i, j)."""
    K = k_series_evaluated(kind, n, a, alphas, i, j, D, mutate)
    return bar_evaluated(K, alphas[i - 1] - alphas[j - 1])


# ---------------------------------------------------------------------------
# recursion-coefficient tables
# ---------------------------------------------------------------------------


def scr_coeff(kind: str, slot: int, i1: int, i2: int, k: int, d: int, spec: AMatrixSpec) -> Fraction:
    """Two-variable ladder recursion coefficient for the given slot."""
    a1 = spec.alpha(1)
    a2 = spec.alpha(2)
    al_s = a1 if slot == 1 else a2
    i_s = i1 if slot == 1 else i2
    if k == i_s:
        raise ValueError("k must differ from the moving index")
    step_base = al_s[k - 1] - al_s[i_s - 1]
    num = Fraction(1)
    for r, (ar1, ar2) in enumerate(spec.rows):
        ars = (ar1, ar2)[slot - 1]
        base = ar1 * a1[i1 - 1] + ar2 * a2[i2 - 1]
        for l in _num_l_range(kind, ars * d):
            num *= base + Fraction(l, d) * step_base
    den = Fraction(d)
    for l in range(1, d + 1):
        for m in range(1, spec.n + 1):
            if (l, m) == (d, k):
                continue
            den *= al_s[i_s - 1] - al_s[m - 1] + Fraction(l, d) * step_base
    if den == 0:
        raise ZeroDivisionError("recursion-coefficient denominator vanishes (non-generic alpha)")
    return num / den


def c_coeff(kind: str, slot: int, i: int, j: int, k: int, d: int, alphas, a: CISpec) -> Fraction:
    """Single-q recursion coefficients of the bar-transformed series.

    slot 2: the pole family moving j -> k; slot 1: moving i -> k.  The
    ladder coefficient is `scr_coeff` with equal rows and one weight family.
    """
    al = tuple(Fraction(v) for v in alphas)
    spec = AMatrixSpec(n=len(al), rows=a.rows, alpha1=al, alpha2=al)
    if slot == 2:
        factor = (al[i - 1] - al[k - 1]) / (al[i - 1] - al[j - 1])
    else:
        factor = (al[k - 1] - al[j - 1]) / (al[i - 1] - al[j - 1])
    return Fraction(-1) ** d * factor * scr_coeff(kind, slot, i, j, k, d, spec)
