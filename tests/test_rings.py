import bisect
import heapq
import itertools
import math
import operator
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from qgr import rings
from qgr.rings import RatFunc, SparsePoly, _descending, _unify, monomial_key, order_vars

V = ("x1", "x2", "h")


def P(**monos):
    """Tiny builder: P(x1=1, x2=-1) = x1 - x2, P(c=3) = 3."""
    terms = {}
    for name, c in monos.items():
        if name == "c":
            terms[(0, 0, 0)] = Fraction(c)
        else:
            e = [0, 0, 0]
            e[V.index(name)] = 1
            terms[tuple(e)] = Fraction(c)
    return SparsePoly(V, terms)


x1 = SparsePoly.variable(V, "x1")
x2 = SparsePoly.variable(V, "x2")
h = SparsePoly.variable(V, "h")
one = SparsePoly.const(V, 1)


def test_variable_order():
    assert order_vars(["h", "a2", "x2", "a1", "x1", "z", "w"]) == (
        "x1", "x2", "h", "z", "a1", "a2", "w",
    )


def test_eq_by_cross_multiplication():
    f = RatFunc(x1 * x1 - x2 * x2, x1 - x2)
    assert (f == RatFunc(x1 + x2)) is True


def test_eq_compares_numerators_over_equal_denominators(monkeypatch):
    products = []
    mul = SparsePoly.__mul__

    def counting_mul(a, b):
        products.append((a, b))
        return mul(a, b)

    f = RatFunc(x1 + h, x2 - h)
    same_den = [RatFunc(x1 - h, x2 - h), RatFunc((x1 + h) * 3, (x2 - h) * 3)]
    # normalization makes proportional denominators of equal values
    # identical, so these differ in value and cross-multiplication decides
    proportional = RatFunc(x1 + h, (x2 - h) * 2)
    # a representative that keeps the common factor x1
    unreduced = RatFunc((x1 + h) * x1, (x2 - h) * x1)
    monkeypatch.setattr(SparsePoly, "__mul__", counting_mul)
    assert [f == g for g in same_den] == [False, True]
    assert products == []
    assert proportional.den != f.den and (f == proportional) is False
    assert len(products) == 2
    assert unreduced.den != f.den and (f == unreduced) is True
    assert len(products) == 4


def test_add_example():
    f = RatFunc(one, h - one)
    g = RatFunc(one, h + one)
    s = f + g
    assert s == RatFunc(2 * h, h * h - one)


def test_div_identity():
    f = RatFunc(x1 - x2) / RatFunc(x1 - x2)
    assert f == 1


def test_div_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        RatFunc(x1) / RatFunc.from_scalar(0, V)


def test_normalization_invariants():
    f = RatFunc(x1 * Fraction(2, 3), (x2 - x1) * Fraction(4, 3))
    # den leading coefficient positive, integer coefficients, joint content 1
    assert f.den.leading()[1] > 0
    coeffs = list(f.num.terms.values()) + list(f.den.terms.values())
    assert all(c.denominator == 1 for c in coeffs)
    assert math.gcd(*(abs(c.numerator) for c in coeffs)) == 1
    assert f == RatFunc(-x1, 2 * (x1 - x2))


def test_divide_exact():
    p = (x1 + x2) * (x1 - x2)
    assert p.divide_exact(x1 - x2) == x1 + x2
    assert p.divide_exact(x1 + h) is None
    assert (x1 * x2).divide_exact(x1) == x2


def test_canonical_string():
    p = (x1 + x2) ** 2
    assert p.to_string() == "x2^2+2*x1*x2+x1^2"
    assert (x1 - 2 * h).to_string() == "-2*h+x1"
    assert SparsePoly.zero(V).to_string() == "0"
    assert RatFunc(x1 + x2).to_string() == "x2+x1"
    # den-leading-positive rule flips the pair when needed
    assert RatFunc(one, x1 - x2).to_string() == "(-1)/(x2-x1)"
    assert RatFunc(one, x2 - x1).to_string() == "(1)/(x2-x1)"


def test_substitute_and_eval():
    p = (x1 + 2 * x2) * h
    assert p.eval_all({"x1": 1, "x2": 2, "h": 3}) == 15
    q = p.substitute({"x1": x2})
    assert q == 3 * x2 * h
    f = RatFunc(x1, x1 - x2)
    assert f.substitute({"x1": Fraction(2), "x2": Fraction(1)}) == 2


def test_swap_and_symmetry():
    p = x1 * x1 * x2 + x1 * x2 * x2
    assert p.is_symmetric_x()
    assert not (x1 * x1 * x2).is_symmetric_x()


def _truncate_x(p, max_xdeg):
    """The terms of `p` of total degree at most `max_xdeg` in x1, x2."""
    xidx = [i for i, v in enumerate(p.vars) if v in ("x1", "x2")]
    return SparsePoly(p.vars, {e: c for e, c in p.terms.items() if sum(e[i] for i in xidx) <= max_xdeg})


def test_mul_trunc():
    p = (x1 + x2 + h) ** 3
    # None keeps every term: the plain product
    for max_xdeg, want in ((1, _truncate_x(p, 1)), (None, p)):
        got = (x1 + x2 + h).mul_trunc((x1 + x2 + h) ** 2, max_xdeg)
        assert got == want, max_xdeg


def test_pow():
    assert (x1 + one) ** 0 == one
    assert (x1 + one) ** 3 == x1**3 + 3 * x1**2 + 3 * x1 + 1


def _ratfuncs():
    polys = st.builds(
        lambda cs: SparsePoly(
            V,
            {
                (e1, e2, e3): Fraction(c)
                for (e1, e2, e3, c) in cs
            },
        ),
        st.lists(
            st.tuples(
                st.integers(0, 2), st.integers(0, 2), st.integers(0, 2),
                st.integers(-4, 4),
            ),
            min_size=0,
            max_size=4,
        ),
    )
    nonzero = polys.filter(lambda p: not p.is_zero())
    return st.builds(RatFunc, polys, nonzero)


@settings(max_examples=60, deadline=None)
@given(_ratfuncs(), _ratfuncs(), _ratfuncs())
def test_ring_axioms(f, g, k):
    assert (f + g) + k == f + (g + k)
    assert (f * g) * k == f * (g * k)
    assert f * (g + k) == f * g + f * k
    assert f + g == g + f
    assert f * g == g * f


@settings(max_examples=40, deadline=None)
@given(_ratfuncs())
def test_reduced_preserves_value(f):
    # specialize to a univariate-in-h function, then gcd-reduce
    try:
        g = f.substitute({"x1": Fraction(0), "x2": Fraction(0)})
    except ZeroDivisionError:
        return
    assert g.reduced() == g


# -- exact division against the previous loop ---------------------------


def _divide_by_scan(a, d):
    """The previous exact-division loop over Q, which found each leading
    term of the remainder with a linear max scan; the differential oracle
    for the heap-ordered SparsePoly.divide_exact."""
    vs = order_vars(set(a.vars) | set(d.vars))
    a, d = a.embed(vs), d.embed(vs)
    dl_e, dl_c = d.leading()
    rem = dict(a.terms)
    quot = {}
    while rem:
        e = max(rem, key=monomial_key)
        qe = tuple(ei - di for ei, di in zip(e, dl_e))
        if any(q < 0 for q in qe):
            return None
        qc = Fraction(rem[e]) / dl_c
        quot[qe] = quot.get(qe, Fraction(0)) + qc
        for de, dc in d.terms.items():
            ke = tuple(q + di for q, di in zip(qe, de))
            v = rem.get(ke, Fraction(0)) - qc * dc
            if v:
                rem[ke] = v
            else:
                rem.pop(ke, None)
    return SparsePoly(vs, quot)


def _same_division(a, d, got):
    want = _divide_by_scan(a, d)
    return got is None and want is None or (
        got is not None and want is not None and got.vars == want.vars and got.terms == want.terms
    )


_small_rationals = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
_polys = st.builds(
    lambda cs: SparsePoly(V, {e: c for e, c in cs}),
    st.lists(
        st.tuples(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)), _small_rationals),
        max_size=6,
    ),
)
_divisors = _polys.filter(lambda p: not p.is_zero())


@settings(max_examples=200, deadline=None)
@given(_polys, _divisors)
def test_divide_exact_recovers_exact_multiples(p, d):
    assert (p * d).divide_exact(d) == p


@settings(max_examples=100, deadline=None)
@given(_polys, _divisors, _polys)
def test_divide_exact_matches_scan_on_perturbed_multiples(p, d, r):
    a = p * d + r
    assert _same_division(a, d, a.divide_exact(d))


@settings(max_examples=100, deadline=None)
@given(_polys, _divisors)
def test_divide_exact_matches_scan_on_random_pairs(a, d):
    assert _same_division(a, d, a.divide_exact(d))


def test_divide_exact_matches_scan_on_pipeline_inputs(monkeypatch, capsys):
    from qgr import cli, series
    from qgr.cohomology import default_generic_alpha
    from qgr.hyper import CISpec, HyperSeries, bar_assemble, build_K, build_Y_closed

    calls = []
    divide = SparsePoly.divide_exact

    def recording(a, d):
        q = divide(a, d)
        calls.append((a, d, q))
        return q

    monkeypatch.setattr(SparsePoly, "divide_exact", recording)
    series._x_inverse.cache_clear()
    K = build_K("dot", 4, CISpec((2,)), default_generic_alpha(4), 2)
    bar_assemble(K)
    # a fault-injected summand: its derivative numerators do not divide
    nums = dict(K.num_parts)
    nums[(2, 0)] = -nums[(2, 0)]
    with pytest.raises(ValueError, match="asymmetric"):
        bar_assemble(HyperSeries(K.n, K.D, K.den_chains, nums, K.xtrunc))
    build_Y_closed("ddot", 4, CISpec((1,)), 2)
    cli.run(["verify", "--suite", "residue-internal", "--n", "3", "--a", "1", "--qdeg", "1", "--zdeg", "1"])
    cli.run(["series", "--kind", "y-gamma", "--n", "3", "--a", "1", "--qdeg", "1", "--k", "1", "--j", "0"])
    capsys.readouterr()
    assert any(q is None for _, _, q in calls) and any(q is not None for _, _, q in calls)
    for a, d, q in calls:
        assert _same_division(a, d, q), (a, d)


# -- packed product kernel against the previous tuple kernel ------------


def _mul_by_tuples(vars, ta, tb, max_xdeg, xidx):
    """The previous product kernel, which built one exponent tuple per
    term pair; the differential oracle for the packed rings._mul_terms."""
    if not ta or not tb:
        return SparsePoly.zero(vars)
    if len(ta) > len(tb):
        ta, tb = tb, ta
    int_mode = all(c.denominator == 1 for c in ta.values()) and all(
        c.denominator == 1 for c in tb.values()
    )
    out = {}
    if int_mode:
        ia = [(e, c.numerator) for e, c in ta.items()]
        ib = [(e, c.numerator) for e, c in tb.items()]
    else:
        ia = list(ta.items())
        ib = list(tb.items())
    for ea, ca in ia:
        for eb, cb in ib:
            e = tuple(p + q for p, q in zip(ea, eb))
            if max_xdeg is not None and sum(e[i] for i in xidx) > max_xdeg:
                continue
            out[e] = out.get(e, 0) + ca * cb
    clean = {e: Fraction(v) if int_mode else v for e, v in out.items() if v}
    return SparsePoly(vars, clean, _clean=True)


def _tuple_product(a, b, max_xdeg=None):
    vs = order_vars(set(a.vars) | set(b.vars))
    xidx = tuple(i for i, v in enumerate(vs) if v in ("x1", "x2"))
    return _mul_by_tuples(vs, a.embed(vs).terms, b.embed(vs).terms, max_xdeg, xidx)


def _same_product(got, want):
    return got.vars == want.vars and got.terms == want.terms


_NAMES = ("x1", "x2", "h", "z", "a1", "a2", "a10", "t")
_coeffs = st.one_of(st.integers(-6, 6).map(Fraction), _small_rationals)


@st.composite
def _spaced_polys(draw):
    vs = order_vars(draw(st.lists(st.sampled_from(_NAMES), unique=True, max_size=6)))
    exps = st.tuples(*(st.integers(0, 4) for _ in vs))
    return SparsePoly(vs, draw(st.dictionaries(exps, _coeffs, max_size=8)))


@settings(max_examples=300, deadline=None)
@given(_spaced_polys(), _spaced_polys())
def test_mul_matches_tuple_kernel(a, b):
    assert _same_product(a * b, _tuple_product(a, b))
    for max_xdeg in (None, 0, 1, 2, 3, 4):
        assert _same_product(a.mul_trunc(b, max_xdeg), _tuple_product(a, b, max_xdeg)), max_xdeg


def _record_big_int_route(monkeypatch):
    """Wrap rings._mul_homogeneous; the returned list holds each of its results
    (None where it declined and the term-pair loop ran)."""
    results = []
    route = rings._mul_homogeneous

    def recording(*args):
        results.append(route(*args))
        return results[-1]

    monkeypatch.setattr(rings, "_mul_homogeneous", recording)
    return results


def test_mul_matches_tuple_kernel_on_pipeline_inputs(monkeypatch, capsys):
    from qgr import cli, series
    from qgr.cohomology import default_generic_alpha
    from qgr.hyper import CISpec, bar_assemble, build_K, build_Y_closed

    calls = []
    kernel = rings._mul_terms

    def recording(vars, ta, tb, max_xdeg, xidx):
        got = kernel(vars, ta, tb, max_xdeg, xidx)
        calls.append((vars, ta, tb, max_xdeg, xidx, got))
        return got

    monkeypatch.setattr(rings, "_mul_terms", recording)
    big_int = _record_big_int_route(monkeypatch)
    series._x_inverse.cache_clear()
    bar_assemble(build_K("dot", 4, CISpec((2,)), default_generic_alpha(4), 2))
    build_Y_closed("ddot", 4, CISpec((1,)), 2)
    build_Y_closed("dot", 5, CISpec((2, 3)), 4)
    cli.run(["verify", "--suite", "fano-vanishing", "--n", "3", "--a", "1", "--qdeg", "2"])
    capsys.readouterr()
    assert any(m is None for *_, m, _, _ in calls) and any(m is not None for *_, m, _, _ in calls)
    assert max(len(ta) * len(tb) for _, ta, tb, *_ in calls) > 500
    assert any(r is not None for r in big_int) and None in big_int
    for vars, ta, tb, max_xdeg, xidx, got in calls:
        assert _same_product(got, _mul_by_tuples(vars, ta, tb, max_xdeg, xidx)), (vars, max_xdeg)


_scaled_coeffs = st.builds(
    lambda sign, base, k: sign * (base + k),
    st.sampled_from((1, -1)), st.sampled_from((0, 2**64, 2**200)), st.integers(1, 9),
)


@st.composite
def _homogeneous_terms(draw, vs, used, deg, cap=None):
    """Int terms over `vs` of degree `deg` in the variables `used` (positions),
    with the exponent of vs[0] at most `cap`: every such monomial but at most
    three, each coefficient small, beyond 2**64 or beyond 2**200."""
    monos = [
        e for e in itertools.product(*(range(deg + 1) if i in used else (0,) for i in range(len(vs))))
        if sum(e) == deg and (cap is None or e[0] <= cap)
    ]
    dropped = draw(st.sets(st.sampled_from(monos), max_size=3))
    return {e: draw(_scaled_coeffs) for e in monos if e not in dropped}


@st.composite
def _homogeneous_pairs(draw):
    """Two homogeneous int operands whose product takes the big-int route:
    three variables at degrees 8..10 and 6..8; two variables at degrees 20..25;
    or three variables where vs[0] is used by the first operand alone (to
    degree 1), and the second has degree 16..20 in the other two."""
    mode = draw(st.sampled_from(("dense", "two", "one-sided")))
    nvars = 2 if mode == "two" else 3
    vs = order_vars(draw(st.lists(st.sampled_from(_NAMES), unique=True, min_size=nvars, max_size=nvars)))
    every = range(nvars)

    def terms(used, lo, hi, cap=None):
        return draw(_homogeneous_terms(vs, used, draw(st.integers(lo, hi)), cap))

    if mode == "dense":
        return vs, terms(every, 8, 10), terms(every, 6, 8)
    if mode == "two":
        return vs, terms(every, 20, 25), terms(every, 20, 25)
    return vs, terms(every, 16, 20, cap=1), terms((1, 2), 16, 20)


def test_big_int_route_matches_tuple_kernel(monkeypatch):
    """Homogeneous int products above the size threshold go through one big-int
    multiplication and agree with the tuple kernel; truncated, Fraction and
    non-homogeneous products of the same operands run the term-pair loop."""
    big_int = _record_big_int_route(monkeypatch)
    seen = {"cancelled": 0, "wide": 0, "negative": 0}

    @settings(max_examples=120, deadline=None)
    @given(_homogeneous_pairs())
    # (sum of x1^i x2^(20-i)) times its alternating form: every coefficient of
    # odd degree in x1 cancels
    @example((("x1", "x2"), {(i, 20 - i): 1 for i in range(21)}, {(i, 20 - i): (-1) ** i for i in range(21)}))
    def check(pair):
        vs, ta, tb = pair
        del big_int[:]
        got = rings._mul_terms(vs, ta, tb, None, ())
        assert len(big_int) == 1 and big_int[0] is got
        assert _same_product(got, _mul_by_tuples(vs, ta, tb, None, ()))
        xidx = tuple(i for i, v in enumerate(vs) if v in ("x1", "x2"))
        assert _same_product(rings._mul_terms(vs, ta, tb, 3, xidx), _mul_by_tuples(vs, ta, tb, 3, xidx))
        assert len(big_int) == 1
        e = next(iter(ta))
        for other in ({**ta, e: Fraction(1, 2)}, {**ta, (e[0] + 1,) + e[1:]: 1}):
            assert _same_product(rings._mul_terms(vs, other, tb, None, ()), _mul_by_tuples(vs, other, tb, None, ()))
            assert big_int[-1] is None
        sums = {tuple(map(operator.add, ea, eb)) for ea in ta for eb in tb}
        seen["cancelled"] += len(got.terms) < len(sums)
        seen["wide"] += max(map(abs, got.terms.values())) > 2**400
        seen["negative"] += min(got.terms.values()) < 0

    check()
    assert all(seen.values()), seen


def test_mul_large_exponents_stay_exact():
    big = SparsePoly.variable(V, "x1") ** 300 * SparsePoly.variable(V, "x1") ** 500
    assert big.terms == {(800, 0, 0): 1}
    big = (x1**300 + h) * (x1**500 + x2)
    assert big.terms == {(800, 0, 0): 1, (300, 1, 0): 1, (500, 0, 1): 1, (0, 1, 1): 1}
    a = SparsePoly(V, {(10**6, 0, 1): Fraction(1), (0, 1, 0): Fraction(2)})
    b = SparsePoly(V, {(1, 0, 0): Fraction(3), (0, 0, 2): Fraction(-1, 2)})
    assert _same_product(a * b, _tuple_product(a, b))
    assert (a * b).terms == {
        (10**6 + 1, 0, 1): 3, (10**6, 0, 3): Fraction(-1, 2), (1, 1, 0): 6, (0, 1, 2): -1,
    }
    assert _same_product(a.mul_trunc(b, 2), _tuple_product(a, b, 2))
    assert a.mul_trunc(b, 2).terms == {(1, 1, 0): 6, (0, 1, 2): -1}


def test_mul_rejects_negative_exponent():
    bad = SparsePoly(V, {(0, -1, 0): Fraction(1)})
    with pytest.raises(ValueError, match="negative exponent"):
        bad * (x1 + h)
    with pytest.raises(ValueError, match="negative exponent"):
        (x1 + h).mul_trunc(bad, 2)
    with pytest.raises(ValueError, match="negative exponent"):
        (bad + h) * (x1 + h)
    with pytest.raises(ValueError, match="negative exponent"):
        (x1 + h) * (bad + h + x2)


def test_mul_in_empty_variable_space():
    p = SparsePoly((), {(): 3}) * SparsePoly((), {(): 5})
    assert p.vars == () and p.terms == {(): 15}
    assert SparsePoly((), {(): 3}).mul_trunc(SparsePoly((), {(): 5}), 0).terms == {(): 15}


# -- int-while-integral coefficients --------------------------------------


def _stored_exactly(p):
    """Every coefficient an int, or a Fraction that is not integral."""
    return all(type(c) is int or (type(c) is Fraction and c.denominator != 1) for c in p.terms.values())


def _int_pair(f):
    return all(type(c) is int for p in (f.num, f.den) for c in p.terms.values())


_scalars = st.one_of(st.integers(-4, 4), _small_rationals, st.integers(-3, 3).map(lambda k: Fraction(2 * k, 2)))


@settings(max_examples=200, deadline=None)
@given(_polys, _polys, _divisors, _scalars)
@example(SparsePoly.const(V, 1), SparsePoly.const(V, 0), x1 * x1 * h * h - x1 * h * h * Fraction(1, 2), 0)
def test_coefficients_are_int_while_integral(a, b, d, s):
    half = Fraction(1, 2)
    # d has x1-degree at most 3, so one of four points keeps it nonzero after x1 is set.
    x1_at = next(c for c in (half, Fraction(1, 3), Fraction(2, 3), 2) if not d.substitute({"x1": c}).is_zero())
    quotients = [(a * d).divide_exact(d), (a * d + b).divide_exact(d), (2 * a + b).divide_exact(d * half)]
    polys = [
        a, b, a + b, a - b, -a, a + s, a - s, s - a, a * s, s * a, a * b, (a * half) * (b * 2),
        a.mul_trunc(b, 2), a.mul_trunc(b, None), a**2, SparsePoly.const(V, s),
        a.substitute({"x1": s, "h": b}), a.substitute({"x2": half}), a.substitute({"h": d * half}),
        a.embed(("x1", "x2", "h", "z")), a.swap_x(),
    ] + [q for q in quotients if q is not None]
    for p in polys:
        assert _stored_exactly(p), p.terms
    f, g = RatFunc(a, d), RatFunc(b * half + 1, d * s if s else d)
    fracs = [f, g, -f, f + g, f - g, f * g, f * s, f / RatFunc(d), f**2, RatFunc.from_scalar(s, V),
             f.substitute({"x1": x1_at}), f.swap_x(), RatFunc(a * half, d * Fraction(2, 3))]
    if not a.is_zero():
        fracs += [g / f, f**-1]
    for r in fracs:
        assert _int_pair(r), r


def test_mixed_products_and_quotients_store_integral_values_as_ints():
    a = x1 * Fraction(1, 2) + x2
    b = 2 * x1 + h
    p = a * b
    assert p.terms == {(2, 0, 0): 1, (1, 0, 1): Fraction(1, 2), (1, 1, 0): 2, (0, 1, 1): 1}
    assert _stored_exactly(p) and _stored_exactly(a.mul_trunc(b, 2))
    assert _stored_exactly((x1 * Fraction(1, 3)) * 3)
    q = (6 * x1 + 2 * h).divide_exact(SparsePoly.const(V, 2))
    assert q.terms == {(1, 0, 0): 3, (0, 0, 1): 1} and _stored_exactly(q)
    q = (3 * x1 + 2 * h).divide_exact(SparsePoly.const(V, 2))
    assert q.terms == {(1, 0, 0): Fraction(3, 2), (0, 0, 1): 1} and _stored_exactly(q)
    assert type(SparsePoly.const(V, Fraction(4, 2)).terms[(0, 0, 0)]) is int
    # the constant value stays a Fraction: 1 / it is exact
    assert type(SparsePoly.const(V, 3).const_value()) is Fraction
    assert type(RatFunc.from_scalar(3, V).const_value()) is Fraction


# -- the Fraction-coefficient kernels, verbatim: differential oracles for the
# int-while-integral _mul_terms, divide_exact and _normalize_pair ----------


def _mul_terms_fraction(vars, ta, tb, max_xdeg, xidx):
    if not ta or not tb:
        return SparsePoly.zero(vars)
    if len(ta) > len(tb):
        ta, tb = tb, ta
    cols_a, cols_b = list(zip(*ta)), list(zip(*tb))
    if min(map(min, cols_a + cols_b), default=0) < 0:
        raise ValueError("negative exponent in a polynomial product")
    if len(ta) == 1:
        [(ea, ca)] = ta.items()
        out = {}
        for eb, cb in tb.items():
            e = tuple(map(operator.add, ea, eb))
            if max_xdeg is None or sum([e[i] for i in xidx]) <= max_xdeg:
                out[e] = ca * cb
        return SparsePoly(vars, out, _clean=True)
    top = max(map(operator.add, map(max, cols_a), map(max, cols_b)), default=0)
    width = top.bit_length() + 1
    shifts = range(0, width * len(vars), width)
    int_mode = all(c.denominator == 1 for c in ta.values()) and all(
        c.denominator == 1 for c in tb.values()
    )

    def packed(items):
        return [(sum(map(operator.lshift, e, shifts)), c.numerator if int_mode else c) for e, c in items]

    def xdeg(e):
        return sum([e[i] for i in xidx])

    ia = packed(ta.items())
    if max_xdeg is None:
        ib = packed(tb.items())
        rows = ((ka, ca, ib) for ka, ca in ia)
    else:
        sb = sorted(tb.items(), key=lambda t: xdeg(t[0]))
        degs = [xdeg(e) for e, _ in sb]
        ib = packed(sb)
        rows = ((ka, ca, ib[: bisect.bisect_right(degs, max_xdeg - xdeg(e))]) for e, (ka, ca) in zip(ta, ia))
    out = {}
    get = out.get
    for ka, ca, row in rows:
        for kb, cb in row:
            k = ka + kb
            out[k] = get(k, 0) + ca * cb
    mask = (1 << width) - 1
    clean = {
        tuple([k >> s & mask for s in shifts]): Fraction(v) if int_mode else v for k, v in out.items() if v
    }
    return SparsePoly(vars, clean, _clean=True)


def _divide_exact_fraction(self, divisor):
    a, d = _unify(self, divisor)
    if d.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    dl_e, dl_c = d.leading()
    dterms = [(e, c) for e, c in d.terms.items() if e != dl_e]
    rem = dict(a.terms)
    heap = [_descending(e) for e in rem]
    heapq.heapify(heap)
    quot: dict[tuple[int, ...], Fraction] = {}
    while heap:
        e = heapq.heappop(heap)[-1]
        c = rem.pop(e)
        if not c:
            continue
        qe = tuple(ei - di for ei, di in zip(e, dl_e))
        if any(q < 0 for q in qe):
            return None
        qc = c / dl_c
        quot[qe] = qc
        for de, dc in dterms:
            ke = tuple(q + di for q, di in zip(qe, de))
            v = rem.get(ke)
            if v is None:
                heapq.heappush(heap, _descending(ke))
                v = Fraction(0)
            rem[ke] = v - qc * dc
    return SparsePoly(a.vars, quot, _clean=True)


def _normalize_pair_fraction(num, den):
    dn = math.lcm(num.content_denominator(), den.content_denominator())
    if dn != 1:
        num = num * Fraction(dn)
        den = den * Fraction(dn)
    g = math.gcd(num.integer_content(), den.integer_content())
    if g > 1:
        inv = Fraction(1, g)
        num = num * inv
        den = den * inv
    if den.leading()[1] < 0:
        num = -num
        den = -den
    return num, den


def _fraction_terms(terms):
    """The same terms in the Fraction-coefficient representation."""
    return {e: Fraction(c) for e, c in terms.items()}


def _as_fraction_poly(p):
    return SparsePoly(p.vars, _fraction_terms(p.terms), _clean=True)


def _same_values(got, want):
    return (got is None) == (want is None) and (got is None or _same_product(got, want))


def _check_against_fraction_kernels(mul_calls, div_calls, norm_calls):
    for vars, ta, tb, max_xdeg, xidx, got in mul_calls:
        want = _mul_terms_fraction(vars, _fraction_terms(ta), _fraction_terms(tb), max_xdeg, xidx)
        assert _same_product(got, want) and _stored_exactly(got), (vars, ta, tb, max_xdeg)
    for a, d, got in div_calls:
        want = _divide_exact_fraction(_as_fraction_poly(a), _as_fraction_poly(d))
        assert _same_values(got, want) and (got is None or _stored_exactly(got)), (a, d)
    for num, den, got in norm_calls:
        want = _normalize_pair_fraction(_as_fraction_poly(num), _as_fraction_poly(den))
        assert all(map(_same_product, got, want)), (num, den)


@settings(max_examples=200, deadline=None)
@given(_spaced_polys(), _spaced_polys(), st.sampled_from([None, 0, 1, 2, 4]))
def test_int_kernels_match_fraction_kernels(a, b, max_xdeg):
    vs = order_vars(set(a.vars) | set(b.vars))
    a, b = a.embed(vs), b.embed(vs)
    xidx = tuple(i for i, v in enumerate(vs) if v in ("x1", "x2"))
    mul_calls = [(vs, a.terms, b.terms, max_xdeg, xidx, a.mul_trunc(b, max_xdeg))]
    div_calls = [(p, d, p.divide_exact(d)) for p, d in ((a * b, b), (a * b + a, b), (a, b), (b, a)) if d]
    norm_calls = [(p, d, rings._normalize_pair(p, d)) for p, d in ((a, b), (a * Fraction(-2, 3), b * 3)) if d]
    _check_against_fraction_kernels(mul_calls, div_calls, norm_calls)


def test_int_kernels_match_fraction_kernels_on_pipeline_inputs(monkeypatch, capsys):
    from qgr import cli, series
    from qgr.cohomology import default_generic_alpha
    from qgr.hyper import CISpec, bar_assemble, build_K

    mul_calls, div_calls, norm_calls = [], [], []
    kernel, divide, normalize = rings._mul_terms, SparsePoly.divide_exact, rings._normalize_pair

    def recording_mul(*args):
        got = kernel(*args)
        mul_calls.append((*args, got))
        return got

    def recording_divide(a, d):
        got = divide(a, d)
        div_calls.append((a, d, got))
        return got

    def recording_normalize(num, den):
        got = normalize(num, den)
        norm_calls.append((num, den, got))
        return got

    monkeypatch.setattr(rings, "_mul_terms", recording_mul)
    monkeypatch.setattr(SparsePoly, "divide_exact", recording_divide)
    monkeypatch.setattr(rings, "_normalize_pair", recording_normalize)
    series._x_inverse.cache_clear()
    bar_assemble(build_K("dot", 4, CISpec((2,)), default_generic_alpha(4), 2))
    cli.run(["series", "--kind", "dot-dual", "--n", "4", "--a", "2", "--qdeg", "2"])
    cli.run(["verify", "--suite", "residue-internal", "--n", "3", "--a", "1", "--qdeg", "1", "--zdeg", "1"])
    cli.run(["series", "--kind", "y-gamma", "--n", "3", "--a", "1", "--qdeg", "1", "--k", "1", "--j", "0"])
    capsys.readouterr()

    def has_fraction(*terms):
        return any(type(c) is Fraction for t in terms for c in t.values())

    # the recorded inputs hold integral and non-integral coefficients
    assert any(has_fraction(ta, tb) for _, ta, tb, *_ in mul_calls)
    assert any(not has_fraction(ta, tb) for _, ta, tb, *_ in mul_calls)
    assert any(has_fraction(n.terms, d.terms) for n, d, _ in norm_calls)
    assert div_calls and any(q is not None for *_, q in div_calls)
    _check_against_fraction_kernels(mul_calls, div_calls, norm_calls)


# -- int pseudo-remainder and gcd against the previous Fraction Euclid ----


def _ref_uni_mod(a, b):
    """The previous `rings._uni_mod`, verbatim."""
    a = rings._trim(list(a))
    db, lb = len(b) - 1, b[-1]
    while len(a) - 1 >= db:
        q = a[-1] / lb
        shift = len(a) - 1 - db
        for i, bc in enumerate(b):
            a[shift + i] -= q * bc
        a.pop()
        rings._trim(a)
    return a


def _ref_univariate_gcd(a, b):
    """The previous `rings.univariate_gcd`, verbatim: monic, over Fraction."""
    a = rings._trim([Fraction(c) for c in a])
    b = rings._trim([Fraction(c) for c in b])
    while b:
        a, b = b, _ref_uni_mod(a, b)
    if not a:
        return []
    lead = a[-1]
    return [c / lead for c in a]


def _list_mul(a, b):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


_int_lists = st.lists(st.integers(-30, 30), max_size=6)


def _check_int_remainder_and_gcd(a, b):
    b = rings._trim(list(b))
    if b:
        r, k = rings._pseudo_rem(a, b)
        assert all(type(c) is int for c in r)
        assert not r or r[-1] and len(r) < len(b)
        # lead(b)^k a and r leave the same remainder over Q
        scaled = [Fraction(b[-1] ** k * c) for c in a]
        assert _ref_uni_mod(scaled, [Fraction(c) for c in b]) == rings._trim([Fraction(c) for c in r])
    g = rings.univariate_gcd(a, b)
    assert all(type(c) is int for c in g)
    assert not g or g[-1] > 0
    want = _ref_univariate_gcd(a, b)
    assert [Fraction(c, g[-1]) for c in g] == want if g else want == []


def test_pseudo_remainder_and_gcd_stay_int_on_the_float_case():
    # 2z^3 + z + 1 and 3z^2 + 1: the previous `_uni_mod` gave
    # [1, 0.33333333333333337] on these int lists
    a, b = [1, 1, 0, 2], [1, 0, 3]
    assert rings._pseudo_rem(a, b) == ([3, 1], 1)
    assert rings.univariate_gcd(a, b) == [1]
    _check_int_remainder_and_gcd(a, b)
    _check_int_remainder_and_gcd(_list_mul(a, [-2, 3]), _list_mul(b, [-2, 3]))


@settings(max_examples=300, deadline=None)
@given(_int_lists, _int_lists, _int_lists)
def test_pseudo_remainder_and_gcd_are_int_and_match_fraction_euclid(f, g, c):
    # c is a common factor, so that the gcd is often nontrivial
    _check_int_remainder_and_gcd(f, g)
    _check_int_remainder_and_gcd(_list_mul(f, c), _list_mul(g, c))
