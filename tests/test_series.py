import functools
import operator
import random
from fractions import Fraction
from types import MappingProxyType
from typing import Callable, Mapping

import pytest

from qgr.rings import RatFunc, SparsePoly
from qgr.series import (
    LaurentExpansion,
    QSeries,
    _expand_parts,
    _graded_keys,
    _quotient,
    _vzero,
    _x_inverse,
    laurent_expand_hbar,
    x_coefficients,
)

V = ("x1", "x2", "h")
x1 = SparsePoly.variable(V, "x1")
x2 = SparsePoly.variable(V, "x2")
h = SparsePoly.variable(V, "h")
one = SparsePoly.const(V, 1)


def test_laurent_geometric():
    f = RatFunc(h, h - one)
    le = laurent_expand_hbar(f.num, f.den, 3)
    assert le.coeff(0) == 1 and le.coeff(-1) == 1 and le.coeff(-2) == 1
    assert le.top() == 0


def test_laurent_long_division_step():
    f = RatFunc(h * h, h - one)
    le = laurent_expand_hbar(f.num, f.den, 2)
    assert le.coeff(1) == 1 and le.coeff(0) == 1 and le.coeff(-1) == 1


def test_laurent_shifted_pole():
    # (a_i - a_k)/(h - (a_k - a_j)/d): geometric-series oracle at concrete values
    aik, w = Fraction(-294), Fraction(294, 2)  # a_i - a_k and (a_k - a_j)/d
    hv = ("h",)
    hh = SparsePoly.variable(hv, "h")
    f = RatFunc(SparsePoly.const(hv, aik), hh - SparsePoly.const(hv, w))
    le = laurent_expand_hbar(f.num, f.den, 3)
    assert le.coeff(-1) == aik
    assert le.coeff(-2) == aik * w
    assert le.top() == -1


def test_laurent_exact_monomial_denominator():
    f = RatFunc(h * h + one, h * h * h)
    le = laurent_expand_hbar(f.num, f.den, 99)
    assert le.depth is None
    assert le.coeff(-1) == 1 and le.coeff(-3) == 1


def test_laurent_multiplicativity():
    rng = random.Random(7)
    hv = ("h",)
    hh = SparsePoly.variable(hv, "h")

    def rand_ratfunc():
        num = SparsePoly(hv, {(i,): Fraction(rng.randint(-3, 3)) for i in range(3)})
        den = hh - SparsePoly.const(hv, rng.choice([1, 2, -1]))
        if num.is_zero():
            num = SparsePoly.const(hv, 1)
        return RatFunc(num, den)

    for _ in range(50):
        f, g = rand_ratfunc(), rand_ratfunc()
        fg = f * g
        lf = laurent_expand_hbar(f.num, f.den, 6)
        lg = laurent_expand_hbar(g.num, g.den, 6)
        lfg = laurent_expand_hbar(fg.num, fg.den, 6)
        assert lfg.eq_mod_common_depth(lf * lg)


def test_expand_x_geometric():
    f = RatFunc(one, (x1 + h) ** 2 - x1 * x1)
    xc = x_coefficients(f, 2)
    assert xc[(0, 0)] == RatFunc(one, h * h)
    assert xc[(1, 0)] == RatFunc(-2 * one, h * h * h)
    assert xc[(2, 0)] == RatFunc(4 * one, h**4)
    le = {e: laurent_expand_hbar(c.num, c.den, 5) for e, c in xc.items()}
    assert le[(0, 0)].coeff(-2) == 1
    assert le[(1, 0)].coeff(-3) == -2


def test_expand_x_identity():
    f = RatFunc(one)
    xc = x_coefficients(f, 3)
    assert list(xc) == [(0, 0)] and xc[(0, 0)] == 1


def test_expand_x_invalid_point():
    f = RatFunc(one, x1 * h)
    # the inverse is memoized, but a failure is not: a repeat raises again
    for _ in range(2):
        with pytest.raises(ValueError):
            x_coefficients(f, 1)


def _naive_x_expansion(f: RatFunc, max_x):
    """Independent oracle: numerator times naively inverted denominator series."""
    num_parts = f.num.decompose_x()
    den_parts = f.den.decompose_x()
    g0 = den_parts[(0, 0)]
    rest = {e: p for e, p in den_parts.items() if e != (0, 0)}
    # 1/den = (1/g0) * sum_m (-rest/g0)^m, truncated at x-degree max_x
    g0r = RatFunc(g0)
    inv = {(0, 0): RatFunc(one) / g0r}
    power = {(0, 0): RatFunc(one)}  # (-rest/g0)^m accumulated
    for _ in range(max_x):
        nxt = {}
        for e1, v1 in power.items():
            for e2, p2 in rest.items():
                e = (e1[0] + e2[0], e1[1] + e2[1])
                if e[0] + e[1] > max_x:
                    continue
                term = v1 * RatFunc(p2) * (-1) / g0r
                nxt[e] = nxt.get(e, RatFunc.from_scalar(0, V)) + term
        power = nxt
        for e, v in power.items():
            inv[e] = inv.get(e, RatFunc.from_scalar(0, V)) + v / g0r
    out = {}
    for en, pn in num_parts.items():
        for ei, vi in inv.items():
            e = (en[0] + ei[0], en[1] + ei[1])
            if e[0] + e[1] > max_x:
                continue
            out[e] = out.get(e, RatFunc.from_scalar(0, V)) + RatFunc(pn) * vi
    return {e: v for e, v in out.items() if not v.is_zero()}


def test_expand_x_against_naive_oracle():
    rng = random.Random(3)
    for _ in range(12):
        num = SparsePoly(
            V,
            {
                (rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 1)): Fraction(
                    rng.randint(-3, 3)
                )
                for _ in range(3)
            },
        )
        den = (x1 + h) * (x2 + h) + SparsePoly.const(V, rng.randint(1, 3)) * h * h
        if num.is_zero():
            num = one
        f = RatFunc(num, den)
        mine = x_coefficients(f, 3)
        oracle = _naive_x_expansion(f, 3)
        keys = set(mine) | set(oracle)
        for e in keys:
            a = mine.get(e, RatFunc.from_scalar(0, V))
            b = oracle.get(e, RatFunc.from_scalar(0, V))
            assert a == b, f"x^{e}: {a} != {b}"


def test_shared_x_inverse_against_naive_oracle():
    # Denominators repeat and interleave, so the memoized inverse is read
    # both fresh and from the cache; -3 * base[1] differs from base[1] only
    # by a constant factor.  base[2] is a series in x1*x2 alone, so many
    # entries of one / base[2] are zero.
    rng = random.Random(29)
    base = [
        (x1 + h) * (x2 + h) + 2 * h * h,
        (x1 + 2 * h) ** 2 - x1 * x1 + x2 * h,
        h - one + x1 * x2,
    ]
    # The last has no x-parts at all: den(x=0) = 2h^2 + 3 is the whole
    # denominator, so every entry of the inverse beyond x^0 is zero.
    dens = [base[0], base[1], base[0], base[2], -3 * base[1], base[2], base[0], base[1], 2 * h * h + 3 * one]
    zero = RatFunc.from_scalar(0, V)
    _x_inverse.cache_clear()
    for i, den in enumerate(dens):
        if i == 3:
            num = one
        else:
            num = SparsePoly(V, {
                (rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 1)): Fraction(rng.randint(-3, 3))
                for _ in range(3)
            })
        f = RatFunc(num, den)
        oracle = _naive_x_expansion(f, 3)
        for M in range(4):
            N, g = _x_inverse(f.den, M)
            Np, gp = _previous_x_inverse(f.den, M)
            assert g == gp and dict(zip(_graded_keys(2, M), N)) == dict(Np), (i, M)
            xc = x_coefficients(f, M)
            for e1 in range(M + 1):
                for e2 in range(M + 1 - e1):
                    assert xc.get((e1, e2), zero) == oracle.get((e1, e2), zero), (i, M, (e1, e2))
    info = _x_inverse.cache_info()
    assert info.hits > 0 and info.misses > 0


def test_expand_x_reconstruction_remainder():
    # subtracting the degree-M truncation leaves valuation > M, for 50
    # random small rational functions
    rng = random.Random(17)
    M = 2
    for _ in range(50):
        num = SparsePoly(
            V,
            {
                (rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2)): Fraction(
                    rng.randint(-4, 4)
                )
                for _ in range(3)
            },
        )
        if num.is_zero():
            num = one
        den = (x1 + h) * (x2 + h) + SparsePoly.const(V, rng.randint(1, 4)) * h * h
        f = RatFunc(num, den)
        xc = x_coefficients(f, M)
        recon = RatFunc.from_scalar(0, V)
        for (e1, e2), c in xc.items():
            recon = recon + RatFunc(x1**e1 * x2**e2) * c
        rem = f - recon
        low = x_coefficients(rem, M)
        assert all(v.is_zero() for v in low.values())


def test_expand_x_on_degree_one_ladder_coefficient():
    # the q^1 closed-form coefficient, expanded two ways
    from qgr.hyper import CISpec, build_Y_closed

    Y = build_Y_closed("dot", 3, CISpec(()), 1)
    f = Y.coeff((1,))
    mine = x_coefficients(f, 2)
    oracle = _naive_x_expansion(f, 2)
    for e in set(mine) | set(oracle):
        a = mine.get(e, RatFunc.from_scalar(0, V))
        b = oracle.get(e, RatFunc.from_scalar(0, V))
        assert a == b, e


_ZERO, _ONE = Fraction(0), Fraction(1)


def _ratfunc_laurent_expand_hbar(f: RatFunc, depth: int, var: str = "h") -> LaurentExpansion:
    """The previous general kernel, verbatim: the recurrence on RatFunc
    values, for any denominator.  Oracle for the differential tests."""
    if f.is_zero():
        return LaurentExpansion.zero(None)
    num_parts = f.num.decompose_by(var) if var in f.num.vars else {0: f.num}
    den_parts = f.den.decompose_by(var) if var in f.den.vars else {0: f.den}
    M = max(num_parts)
    N = max(den_parts)
    lead = den_parts[N]

    def out_val(v):
        return v.const_value() if isinstance(v, RatFunc) and v.is_const() else v

    if len(den_parts) == 1:
        coeffs = {
            k - N: out_val(RatFunc(p, lead)) for k, p in num_parts.items()
        }
        return LaurentExpansion(coeffs, None)
    # the recurrence runs in the values of u and b: Fractions when f is a
    # function of `var` alone
    u = {j: out_val(RatFunc(den_parts[N - j], lead)) for j in range(1, N + 1) if N - j in den_parts}
    b = {j: out_val(RatFunc(num_parts[M - j], lead)) for j in range(0, M + 1) if M - j in num_parts}
    jmax = M - N + depth - 1
    if jmax < 0:
        return LaurentExpansion.zero(depth)
    v: list = [_ONE]
    for j in range(1, jmax + 1):
        v.append(-sum((ut * v[j - t] for t, ut in u.items() if t <= j), _ZERO))
    coeffs: dict[int, object] = {}
    for j in range(0, jmax + 1):
        s = sum((bs * v[j - sdeg] for sdeg, bs in b.items() if sdeg <= j), _ZERO)
        if not _vzero(s):
            coeffs[M - N - j] = out_val(s)
    return LaurentExpansion(coeffs, depth)


def _polynomial_laurent_expand_hbar_x(
    num: SparsePoly, den: SparsePoly, max_x_degree: int, depth: int
) -> dict[int, SparsePoly]:
    """The previous x-truncated kernel, verbatim: h-exponent -> x-polynomial.
    Oracle for the differential tests."""
    if num.is_zero():
        return {}
    num_parts = num.decompose_by("h") if "h" in num.vars else {0: num}
    den_parts = den.decompose_by("h") if "h" in den.vars else {0: den}
    M, N = max(num_parts), max(den_parts, default=0)
    lead = den_parts.get(N)
    if lead is None or lead.is_zero() or not lead.is_const():
        raise ValueError("top h-coefficient of the denominator is not a nonzero constant")
    inv = 1 / lead.const_value()
    u = {t: den_parts[N - t] * inv for t in range(1, N + 1) if N - t in den_parts}
    w = [SparsePoly.const(den.vars, inv)]
    out: dict[int, SparsePoly] = {}
    for j in range(M - N + depth):
        if j:
            s = SparsePoly.zero(den.vars)
            for t, ut in u.items():
                if t <= j:
                    s = s + ut.mul_trunc(w[j - t], max_x_degree)
            w.append(-s)
        c = SparsePoly.zero(num.vars)
        for k in range(max(0, j - M), j + 1):
            if M - (j - k) in num_parts:
                c = c + num_parts[M - (j - k)].mul_trunc(w[k], max_x_degree)
        if not c.is_zero():
            out[M - N - j] = c
    return out


def test_expansion_matches_ratfunc_kernel_on_functions_of_h():
    # random num/den in h alone, a third of them with an h-monomial
    # denominator (exact expansions), depths on both sides of deg num - deg den;
    # both the polynomial route and the Fraction route of operators._h_expand
    from qgr.operators import _h_expand

    rng = random.Random(41)
    hv = ("h",)

    def rand_poly(deg):
        return SparsePoly(hv, {(i,): Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for i in range(deg + 1)})

    exact = 0
    for trial in range(300):
        N = rng.randint(0, 3)
        den = SparsePoly(hv, {(N,): Fraction(rng.choice([1, -2, 3]), rng.randint(1, 3))})
        if trial % 3 and N:
            den = den + rand_poly(N - 1)
        num = rand_poly(rng.randint(0, 4))
        depth = rng.randint(1, 6)
        mine = laurent_expand_hbar(num, den, depth)
        want = _ratfunc_laurent_expand_hbar(RatFunc(num, den), depth)
        assert mine.depth == want.depth, (num, den, depth)
        assert {e: v.const_value() for e, v in mine.coeffs.items()} == want.coeffs, (num, den, depth)
        fr = _h_expand(RatFunc(num, den), depth)
        assert fr.depth == want.depth and fr.coeffs == want.coeffs, (num, den, depth)
        assert all(type(v) is Fraction for v in fr.coeffs.values())
        exact += mine.depth is None and not num.is_zero()
    assert 50 < exact < 300


def _hbar_x_table(expansion):
    """h-exponent -> x-exponent -> Fraction, read off an expansion with
    x-polynomial values."""
    return {
        ex: {e: c.const_value() for e, c in p.decompose_x().items()}
        for ex, p in expansion.coeffs.items()
    }


def _oracle_hbar_x(num, den, max_x, depth):
    """The route the x-truncated expansion replaces: x-adic coefficients
    first, each then expanded at h = infinity.  Exponents below the cut
    are dropped (at alpha = 0 the h-expansions are exact)."""
    out = {}
    for e, v in x_coefficients(RatFunc(num, den), max_x).items():
        for ex, c in laurent_expand_hbar(v.num, v.den, depth).coeffs.items():
            if ex >= 1 - depth:
                out.setdefault(ex, {})[e] = c.const_value()
    return out


@pytest.mark.parametrize("n, a, alpha, D", [
    (4, (), "generic", 3),
    (4, (), (2, 19, 29, 31), 2),
    (4, (), (12, 19, 31, 34), 2),
    (5, (2,), "generic", 2),
    (5, (2,), (12, 15, 17, 25, 34), 1),
    (5, (2,), (4, 5, 17, 27, 28), 1),
    (3, (2,), "generic", 2),
    (4, (4,), "generic", 2),
    (4, (), None, 2),
    (3, (2,), None, 2),
])
def test_hbar_x_expansion_matches_x_first_route(n, a, alpha, D):
    from qgr.cohomology import default_generic_alpha
    from qgr.hyper import CISpec, bar_assemble, build_K

    al = default_generic_alpha(n) if alpha == "generic" else alpha
    if al is not None:
        al = tuple(Fraction(w) for w in al)
    mx, depth = 2 * (n - 2), 3
    Y = bar_assemble(build_K("dot", n, CISpec(a), al, D, xtrunc=mx + 1))
    low = False
    for d in range(1, D + 1):
        num, den = Y.num_parts[(d,)], Y.dens[(d,)]
        mine = _hbar_x_table(laurent_expand_hbar(num, den, depth, mx))
        assert mine == _oracle_hbar_x(num, den, mx, depth), d
        low = low or bool(mine.get(0) or mine.get(-1))
        # term for term, depth marker included, the previous x-truncated kernel
        for cut in (1, depth, 6):
            got = laurent_expand_hbar(num, den, cut, mx)
            assert got.depth == cut, (d, cut)
            assert got.coeffs == _polynomial_laurent_expand_hbar_x(num, den, mx, cut), (d, cut)
    # |a| <= n - 2 is Fano: the h^0 and h^-1 terms vanish; otherwise they do not
    assert low == (sum(a) > n - 2)


def test_hbar_x_expansion_edge_cases():
    # 1/(h + x1) = h^-1 - x1 h^-2 + x1^2 h^-3 - ..., cut at x-degree 1
    got = laurent_expand_hbar(one, h + x1, 4, 1)
    assert got.coeffs == {-1: one, -2: -x1} and got.depth == 4
    # an h-monomial denominator: every term, exact, whatever the depth,
    # and the x-degree cut still applies
    got = laurent_expand_hbar(h**3 + x1 + 3 * one + x2**2, 2 * h * h, 1, 1)
    assert got.depth is None
    assert got.coeffs == {1: one * Fraction(1, 2), -2: (x1 + 3 * one) * Fraction(1, 2)}
    # a zero numerator is the exact zero
    for den in ((x1 + h) * (x2 + h), 2 * h * h):
        got = laurent_expand_hbar(SparsePoly.zero(V), den, 3)
        assert got == LaurentExpansion.zero(None) and got.depth is None
    # the top h-coefficient must be a nonzero constant
    for den in (x1 * h + one, SparsePoly.zero(V), SparsePoly.zero(("x1",)), x1 + one):
        with pytest.raises(ValueError):
            laurent_expand_hbar(one, den, 3)


def test_qseries_basic():
    s = QSeries(1, 3, {(0,): Fraction(1), (1,): Fraction(2)})
    t = s * s
    assert t.get((2,)) == 4 and t.get((1,)) == 4 and t.get((0,)) == 1
    assert t.get((3,)) == 0
    inv = s.inverse_unit()
    assert (s * inv).get((0,)) == 1
    assert (s * inv).get((1,)) == 0 and (s * inv).get((2,)) == 0


def test_qseries_inverse_with_values():
    s = QSeries(1, 4, {(0,): Fraction(1), (1,): Fraction(3), (2,): Fraction(-2)})
    inv = s.inverse_unit()
    prod = s * inv
    for d in range(5):
        assert prod.get((d,)) == (1 if d == 0 else 0)
    # non-unit rational constant terms in one and two q variables, against
    # the previous recursion: values, Fraction type and key order
    for s in (
        s,
        QSeries(1, 4, {(0,): Fraction(3, 2), (1,): Fraction(-1, 3), (3,): Fraction(5)}),
        QSeries(2, 3, {(0, 0): Fraction(-2), (1, 0): Fraction(1, 2), (0, 1): Fraction(3), (1, 1): Fraction(-7, 5)}),
        QSeries(2, 2, {(0, 0): Fraction(4), (0, 2): Fraction(1)}),
    ):
        inv, want = s.inverse_unit(), _previous_inverse_unit(s)
        assert list(inv.coeffs.items()) == list(want.coeffs.items())
        assert all(type(v) is Fraction for v in inv.coeffs.values())
        assert (inv.q_arity, inv.trunc_q) == (s.q_arity, s.trunc_q)
        assert s * inv == QSeries.one(s.q_arity, s.trunc_q)
    with pytest.raises(ZeroDivisionError):
        QSeries(2, 2, {(1, 0): Fraction(1)}).inverse_unit()


def test_substitute_q_neg():
    s = QSeries(2, 2, {(0, 0): Fraction(1), (1, 0): Fraction(1), (0, 1): Fraction(1), (1, 1): Fraction(5)})
    t = s.substitute_q_neg()
    assert t.get((0,)) == 1
    assert t.get((1,)) == -2
    assert t.get((2,)) == 5
    w = s.substitute_q_neg(weight=lambda d: Fraction(d[0] - d[1]))
    # (1,0) and (0,1) weights cancel; (1,1) weight is zero
    assert w.get((1,)) == 0
    assert w.get((2,)) == 0



def test_int_values_are_exact_ring_values():
    # plain ints are exact ring values: they build series, and a sum that
    # cancels to the int 0 drops its term
    ser = QSeries(1, 2, {(0,): 1, (1,): 0, (2,): -3})
    assert ser.coeffs == {(0,): 1, (2,): -3}
    assert ser == QSeries(1, 2, {(0,): Fraction(1), (2,): Fraction(-3)})
    assert (ser + QSeries(1, 2, {(2,): 3})).coeffs == {(0,): 1}
    le = LaurentExpansion({0: 1, -1: 2}, None) + LaurentExpansion({0: -1}, None)
    assert le.coeffs == {-1: 2}
    assert LaurentExpansion({0: 1, 1: 0}, 3) == LaurentExpansion.scalar(1, 3)


# ---------------------------------------------------------------------------
# The three inverse-series recurrences that `series._Triangle.inverse`
# replaced, verbatim: the expansion at h = infinity over part maps with a
# product hook, the x-adic inverse, and the graded q-series inverse.
# Oracles for the differential tests.
# ---------------------------------------------------------------------------


def _previous_expand_parts(num: Mapping[int, object], den: Mapping[int, object], depth: int,
                           mul: Callable = operator.mul, one=_ONE) -> LaurentExpansion:
    """num/den at h = infinity, for part maps {h-exponent: nonzero value}
    over any integer exponents: the one inverse-series recurrence of this
    package.

    The top part c of den must be a Fraction; `one` is the unit of the
    value ring and `mul` its product.  Then 1/den = h^(-N) sum_j w_j h^(-j)
    with w_0 = 1/c and w_j = -sum_t (den_{N-t}/c) w_{j-t}.  If den has one
    part every term is returned and the result is exact (depth None), as
    it is for num = {}; otherwise the terms down to h^(1-depth) are.  With
    parts {-i: a_i}, the expansion at h = 1/t = infinity is the power
    series of a(t)/b(t) at t = 0.
    """
    if not num:
        return LaurentExpansion.zero(None)
    M, N = max(num), max(den)
    inv = 1 / den[N]
    w = [one * inv]
    if len(den) == 1:
        return LaurentExpansion({k - N: mul(v, w[0]) for k, v in num.items()}, None)
    zero = one * 0
    u = [(N - k, v * inv) for k, v in den.items() if k != N]
    b = [(M - k, v) for k, v in num.items()]
    out = {}
    for j in range(M - N + depth):
        if j:
            w.append(-sum((mul(ut, w[j - t]) for t, ut in u if t <= j), zero))
        out[M - N - j] = sum((mul(bs, w[j - s]) for s, bs in b if s <= j), zero)
    return LaurentExpansion(out, depth)


@functools.lru_cache(maxsize=256)
def _previous_x_inverse(den: SparsePoly, M: int) -> tuple[Mapping[tuple[int, int], SparsePoly], SparsePoly]:
    """Truncated x-adic inverse of den, cleared of denominators.

    Returns (N, g0^(M+1)) with g0 = den(x=0) and, for every x-monomial of
    total degree <= M in graded order, N[e] = (coefficient of x^e in
    1/den) * g0^(M+1), a polynomial.  The symbolic pipeline expands many
    numerators over few ladder denominators, so the table is computed once
    per (den, M) and shared; it is read-only.
    """
    den_parts = den.decompose_x()
    zero = (0, 0)
    g0 = den_parts.get(zero)
    if g0 is None or g0.is_zero():
        raise ValueError("denominator vanishes at x=0; expansion point invalid")
    N: dict[tuple[int, int], SparsePoly] = {zero: g0**M}
    for d in range(1, M + 1):
        for e in [(e1, d - e1) for e1 in range(d + 1)]:
            s = None
            for ep, dp in den_parts.items():
                if ep == zero or ep[0] > e[0] or ep[1] > e[1]:
                    continue
                term = dp * N[(e[0] - ep[0], e[1] - ep[1])]
                s = term if s is None else s + term
            if s is None:
                N[e] = SparsePoly.zero(g0.vars)
                continue
            q = (-s).divide_exact(g0)
            if q is None:  # pragma: no cover - recurrence guarantees divisibility
                raise ArithmeticError("inverse-series recurrence failed to divide")
            N[e] = q
    return MappingProxyType(N), g0 ** (M + 1)


def _previous_inverse_unit(self) -> "QSeries":
    """Inverse of a series whose constant term is invertible."""
    key0 = (0,) * self.q_arity
    c0 = self.coeffs.get(key0)
    if c0 is None:
        raise ZeroDivisionError("series has no constant term")
    inv0 = Fraction(1) / c0 if isinstance(c0, Fraction) else RatFunc.from_scalar(1) / c0
    # graded recursion: c0 * inv[k] = delta_{k,0} - sum_{0 < k' <= k} c[k'] inv[k-k']
    inv = {key0: inv0}
    for k in _graded_keys(self.q_arity, self.trunc_q)[1:]:
        s = None
        for kp, cp in self.coeffs.items():
            if kp == key0 or any(a > b for a, b in zip(kp, k)):
                continue
            rest = tuple(b - a for a, b in zip(kp, k))
            if rest not in inv:
                continue
            term = cp * inv[rest]
            s = term if s is None else s + term
        if s is None:
            continue
        inv[k] = -(inv0 * s)
    return self._like(inv)


def test_expand_parts_matches_previous_kernel():
    # Fraction part maps over negative and positive exponents; a quarter
    # have a one-part (exact) denominator, and the depths reach both sides
    # of M - N + depth = 0, where nothing is left above the cut
    rng = random.Random(53)

    def parts(k):
        return {e: Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 4)) for e in rng.sample(range(-3, 4), k)}

    seen = set()
    for trial in range(400):
        num, den = parts(rng.randint(0, 3)), parts(1 if trial % 4 == 0 else rng.randint(1, 4))
        depth = rng.randint(1, 6)
        got, want = _expand_parts(num, den, depth), _previous_expand_parts(num, den, depth)
        assert got.depth == want.depth and got.coeffs == want.coeffs, (num, den, depth)
        assert all(type(v) is Fraction for v in got.coeffs.values())
        if num:
            M, N = max(num), max(den)
            seen.add("exact" if len(den) == 1 else "empty" if M - N + depth <= 0 else "series")
            seen.update(["negative"] if min(num) < 0 and min(den) < 0 else [])
    assert seen == {"exact", "empty", "series", "negative"}


def test_hbar_x_expansion_matches_previous_kernel():
    # x-polynomial parts: the previous kernel cut every product at total
    # x-degree `cut`; the kernel now cuts its outputs
    rng = random.Random(61)

    def rand_poly(hdeg):
        return SparsePoly(V, {(rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, hdeg)): Fraction(rng.randint(-3, 3))
                              for _ in range(4)})

    for trial in range(80):
        N = rng.randint(0, 3)
        den = SparsePoly(V, {(0, 0, N): Fraction(rng.choice([1, -2, 3]), rng.randint(1, 3))})
        if trial % 4 and N:
            den = den + rand_poly(N - 1)
        num, cut, depth = rand_poly(3), rng.choice([None, 0, 1, 2, 3]), rng.randint(1, 5)
        den_parts = den.decompose_by("h")
        den_parts[N] = den_parts[N].const_value()
        want = _previous_expand_parts(num.decompose_by("h"), den_parts, depth,
                                    lambda a, b: a.mul_trunc(b, cut), SparsePoly.const(V, 1))
        got = laurent_expand_hbar(num, den, depth, cut)
        assert got.depth == want.depth and got.coeffs == want.coeffs, (num, den, depth, cut)


def test_inverse_quotient_is_exact_or_raises():
    # a polynomial constant term divides exactly or not at all; a rational
    # one gives an int where the quotient is integral
    assert _quotient(h * h + h, h) == h + one
    with pytest.raises(ArithmeticError):
        _quotient(h + one, h)
    assert type(_quotient(6, 3)) is int and _quotient(6, 3) == 2
    assert _quotient(Fraction(1, 2), 3) == Fraction(1, 6)
    # a polynomial over a rational: its coefficients, ints where integral
    q = _quotient(h * 6 + one * 3, 3)
    assert q == h * 2 + one and all(type(c) is int for c in q.terms.values())
    assert _quotient(h, Fraction(2, 3)) == h * Fraction(3, 2)
    # zero polynomials are skipped like the int 0
    assert not SparsePoly.zero(V) and x1 and not x1 - x1
