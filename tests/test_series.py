import random
from fractions import Fraction

import pytest

from qgr.rings import RatFunc, SparsePoly
from qgr.series import (
    QSeries,
    _x_inverse,
    laurent_expand_hbar,
    laurent_expand_hbar_x,
    x_coefficients,
)

V = ("x1", "x2", "h")
x1 = SparsePoly.variable(V, "x1")
x2 = SparsePoly.variable(V, "x2")
h = SparsePoly.variable(V, "h")
one = SparsePoly.const(V, 1)


def test_laurent_geometric():
    f = RatFunc(h, h - one)
    le = laurent_expand_hbar(f, 3)
    assert le.coeff(0) == 1 and le.coeff(-1) == 1 and le.coeff(-2) == 1
    assert le.top() == 0


def test_laurent_long_division_step():
    f = RatFunc(h * h, h - one)
    le = laurent_expand_hbar(f, 2)
    assert le.coeff(1) == 1 and le.coeff(0) == 1 and le.coeff(-1) == 1


def test_laurent_shifted_pole():
    # (a_i - a_k)/(h - (a_k - a_j)/d): geometric-series oracle at concrete values
    aik, w = Fraction(-294), Fraction(294, 2)  # a_i - a_k and (a_k - a_j)/d
    hv = ("h",)
    hh = SparsePoly.variable(hv, "h")
    f = RatFunc(SparsePoly.const(hv, aik), hh - SparsePoly.const(hv, w))
    le = laurent_expand_hbar(f, 3)
    assert le.coeff(-1) == aik
    assert le.coeff(-2) == aik * w
    assert le.top() == -1


def test_laurent_exact_monomial_denominator():
    f = RatFunc(h * h + one, h * h * h)
    le = laurent_expand_hbar(f, 99)
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
        lf = laurent_expand_hbar(f, 6)
        lg = laurent_expand_hbar(g, 6)
        lfg = laurent_expand_hbar(f * g, 6)
        assert lfg.eq_mod_common_depth(lf * lg)


def test_expand_x_geometric():
    f = RatFunc(one, (x1 + h) ** 2 - x1 * x1)
    xc = x_coefficients(f, 2)
    assert xc[(0, 0)] == RatFunc(one, h * h)
    assert xc[(1, 0)] == RatFunc(-2 * one, h * h * h)
    assert xc[(2, 0)] == RatFunc(4 * one, h**4)
    le = {e: laurent_expand_hbar(c, 5) for e, c in xc.items()}
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
    dens = [base[0], base[1], base[0], base[2], -3 * base[1], base[2], base[0], base[1]]
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


def _hbar_x_table(expansion):
    """h-exponent -> x-exponent -> Fraction, read off laurent_expand_hbar_x."""
    return {
        ex: {e: c.const_value() for e, c in p.decompose_x().items()}
        for ex, p in expansion.items()
    }


def _oracle_hbar_x(num, den, max_x, depth):
    """The route laurent_expand_hbar_x replaces: x-adic coefficients first,
    each then expanded at h = infinity.  Exponents below the cut are
    dropped (at alpha = 0 the h-expansions are exact)."""
    out = {}
    for e, v in x_coefficients(RatFunc(num, den), max_x).items():
        for ex, c in laurent_expand_hbar(v, depth).coeffs.items():
            if ex >= 1 - depth:
                out.setdefault(ex, {})[e] = c
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
        mine = _hbar_x_table(laurent_expand_hbar_x(num, den, mx, depth))
        assert mine == _oracle_hbar_x(num, den, mx, depth), d
        low = low or bool(mine.get(0) or mine.get(-1))
    # |a| <= n - 2 is Fano: the h^0 and h^-1 terms vanish; otherwise they do not
    assert low == (sum(a) > n - 2)


def test_hbar_x_expansion_edge_cases():
    assert laurent_expand_hbar_x(SparsePoly.zero(V), (x1 + h) * (x2 + h), 2, 3) == {}
    with pytest.raises(ValueError):
        laurent_expand_hbar_x(one, x1 * h + one, 2, 3)
    with pytest.raises(ValueError):
        laurent_expand_hbar_x(one, SparsePoly.zero(V), 2, 3)
    # 1/(h + x1) = h^-1 - x1 h^-2 + x1^2 h^-3 - ..., cut at x-degree 1
    got = laurent_expand_hbar_x(one, h + x1, 1, 4)
    assert got == {-1: one, -2: -x1}


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

