import random
from fractions import Fraction

import pytest

from qgr.residues import (
    INFINITY,
    NonSplitDenominatorError,
    _at_infinity,
    _coeff_lists,
    pole_order_at,
    residue_at,
    residue_sum_check,
)
from qgr.rings import RatFunc, SparsePoly, univariate_coeffs

Z = ("z",)
z = SparsePoly.variable(Z, "z")
one = SparsePoly.const(Z, 1)


def test_simple_poles():
    f = RatFunc(one, z * (z - one))
    assert residue_at(f, 1) == 1
    assert residue_at(f, 0) == -1
    assert residue_at(f, 5) == 0


def test_simple_pole_evaluation_rule():
    # 1/(z - w) * g(z) with g regular at w has residue g(w)
    w = Fraction(42)
    g = RatFunc(z * z + one)
    f = RatFunc(one, z - SparsePoly.const(Z, w)) * g
    assert residue_at(f, w) == w * w + 1


def test_double_pole():
    # 1/z^2: residue 0 at 0
    f = RatFunc(one, z * z)
    assert residue_at(f, 0) == 0
    ok, reports = residue_sum_check(f, [0])
    assert ok
    # (z+1)/z^2 has residue 1 at 0
    f2 = RatFunc(z + one, z * z)
    assert residue_at(f2, 0) == 1


def test_residue_at_infinity():
    at_infinity = lambda f: _at_infinity(*_coeff_lists(f, "z"))
    assert at_infinity(RatFunc(one, z)) == -1
    assert at_infinity(RatFunc(z)) == 0
    assert at_infinity(RatFunc(one, z * (z - one))) == 0


def test_sum_check_reports():
    f = RatFunc(one, z * (z - one))
    ok, reports = residue_sum_check(f, [0, 1])
    assert ok
    got = {r.pole_location: r.residue for r in reports}
    assert got[Fraction(0)] == -1 and got[Fraction(1)] == 1 and got[INFINITY] == 0


def test_sum_check_rejects_unsplit():
    f = RatFunc(one, z * z + one)
    with pytest.raises(NonSplitDenominatorError):
        residue_sum_check(f, [0])


def test_alternative_simple_pole_formula():
    # residue at simple pole z0 equals num(z0)/den'(z0)
    rng = random.Random(11)
    for _ in range(30):
        poles = rng.sample(range(-8, 9), 3)
        den = one
        for p in poles:
            den = den * (z - SparsePoly.const(Z, p))
        num = SparsePoly(Z, {(i,): Fraction(rng.randint(-5, 5)) for i in range(3)})
        if num.is_zero():
            num = one
        f = RatFunc(num, den)
        for p in poles:
            others = Fraction(1)
            for q in poles:
                if q != p:
                    others *= Fraction(p - q)
            expect = num.eval_all({"z": p}) / others
            assert residue_at(f, p) == expect


def test_random_prescribed_poles_sum_to_zero():
    rng = random.Random(5)
    for _ in range(100):
        k = rng.randint(1, 4)
        locs = rng.sample(range(-10, 11), k)
        mults = [rng.randint(1, 2) for _ in range(k)]
        den = one
        for p, m in zip(locs, mults):
            den = den * (z - SparsePoly.const(Z, p)) ** m
        num = SparsePoly(
            Z, {(i,): Fraction(rng.randint(-6, 6)) for i in range(sum(mults) + 1)}
        )
        if num.is_zero():
            num = one
        f = RatFunc(num, den)
        ok, _ = residue_sum_check(f, locs)
        assert ok


# -- linear-cost local expansions against the previous Taylor-shift route --


def _shift_oracle(coeffs, z0):
    """Ascending coefficients of p(z + z0), via Horner: the previous
    full Taylor shift behind residue_at and pole_order_at."""
    out = []
    for c in reversed(coeffs):
        new = [Fraction(0)] * (len(out) + 1)
        for i, v in enumerate(out):
            new[i] += v * z0
            new[i + 1] += v
        new[0] += c
        out = new
    return out if out else [Fraction(0)]


def _residue_oracle(num, den, z0):
    nsh, dsh = _shift_oracle(num, z0), _shift_oracle(den, z0)
    m = next(i for i, c in enumerate(dsh) if c != 0)
    if m == 0:
        return Fraction(0)
    u = dsh[m:]
    inv = [1 / u[0]]
    for k in range(1, m):
        inv.append(-sum(u[t] * inv[k - t] for t in range(1, min(k, len(u) - 1) + 1)) / u[0])
    return sum(nsh[i] * inv[m - 1 - i] for i in range(min(m, len(nsh))))


def _pole_order_oracle(num, den, z0):
    nsh, dsh = _shift_oracle(num, z0), _shift_oracle(den, z0)
    m = next(i for i, c in enumerate(dsh) if c != 0)
    k = next((i for i, c in enumerate(nsh) if c != 0), None)
    return 0 if k is None else max(m - k, 0)


def _residue_at_infinity_oracle(num, den):
    """The residue at infinity as first computed, verbatim on coefficient lists:
    -Res_{w=0} w^-2 f(1/w) through a reversal and its own series inverse."""
    if not num or all(c == 0 for c in num):
        return Fraction(0)
    dn, dd = len(num) - 1, len(den) - 1
    s = dd - dn - 2
    if s >= 0:
        return Fraction(0)
    revn = num[::-1]
    revd = den[::-1]
    order = -1 - s
    dinv = [Fraction(1) / revd[0]]
    for k in range(1, order + 1):
        acc = Fraction(0)
        for t in range(1, k + 1):
            if t < len(revd):
                acc += revd[t] * dinv[k - t]
        dinv.append(-acc / revd[0])
    coeff = Fraction(0)
    for i in range(order + 1):
        if i < len(revn):
            coeff += revn[i] * dinv[order - i]
    return -coeff


def _rooted(rng, roots, unsplit):
    """A random constant times prod (z - r)^mult over `roots`, times
    z^2 + c (no rational root) when `unsplit`."""
    p = SparsePoly.const(Z, Fraction(rng.choice([1, -2, 3]), rng.choice([1, 5])))
    for r, mult in roots:
        p = p * (z - SparsePoly.const(Z, r)) ** mult
    if unsplit:
        p = p * (z * z + SparsePoly.const(Z, rng.randint(1, 4)))
    return p


def test_local_expansions_match_taylor_shift_route():
    rng = random.Random(14)
    points = [Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 3), Fraction(7, 2)]
    cases = at_inf = 0
    for _ in range(400):
        den_roots = [(r, rng.randint(1, 3)) for r in rng.sample(points, rng.randint(1, 3))]
        unsplit = rng.random() < 0.5
        den = _rooted(rng, den_roots, unsplit)
        kind = rng.randrange(3)
        if kind == 0:  # a zero numerator
            num = SparsePoly.zero(Z)
        elif kind == 1:  # numerator roots that cancel some of the poles
            num = _rooted(rng, [(r, rng.randint(0, m + 1)) for r, m in den_roots], rng.random() < 0.5)
        else:
            num = SparsePoly(Z, {(i,): Fraction(rng.randint(-4, 4)) for i in range(rng.randint(1, 6))})
        f = RatFunc(num, den)
        nc, dc = univariate_coeffs(f.num, "z"), univariate_coeffs(f.den, "z")
        assert _at_infinity(nc, dc) == _residue_at_infinity_oracle(nc, dc)
        # a numerator of degree >= deg den - 1 (polynomial part, nonzero residue at infinity)
        g = f * RatFunc(z ** rng.randint(0, 4))
        gn, gd = univariate_coeffs(g.num, "z"), univariate_coeffs(g.den, "z")
        assert _at_infinity(gn, gd) == _residue_at_infinity_oracle(gn, gd)
        at_inf += _residue_at_infinity_oracle(gn, gd) != 0
        for z0 in points + [Fraction(5)]:  # 5 is never a root
            assert residue_at(f, z0) == _residue_oracle(nc, dc, z0)
            assert pole_order_at(f, z0) == _pole_order_oracle(nc, dc, z0)
            cases += 1
        if unsplit:
            continue
        ok, reports = residue_sum_check(f, points)
        assert ok and all(r.residue == _residue_oracle(nc, dc, r.pole_location)
                          and r.order == _pole_order_oracle(nc, dc, r.pole_location)
                          for r in reports if r.pole_location != INFINITY)
    assert cases == 2400 and at_inf > 100
