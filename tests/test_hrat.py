"""The factored-denominator type of the fixed-point route, and a
differential test of that route against the trivariate RatFunc pipeline
it replaced."""

import random
from fractions import Fraction
from math import factorial

import pytest

from qgr.cohomology import euler_tangent
from qgr.hrat import HRat
from qgr.hyper import (
    AMatrixSpec,
    CISpec,
    HyperSeries,
    a_series_evaluated,
    bar_assemble,
    build_A,
    build_K,
    y_series_evaluated,
)
from qgr.rings import RatFunc, SparsePoly
from qgr.verifier import build_phi

HV = ("h",)
h = SparsePoly.variable(HV, "h")


def _c(v) -> SparsePoly:
    return SparsePoly.const(HV, v)


def _random_pair(rng):
    """The same random value as an HRat and as a RatFunc."""
    coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(rng.randint(1, 4))]
    roots = {Fraction(rng.choice((0, 1, -2, 3)), rng.choice((1, 2))): rng.randint(1, 2)
             for _ in range(rng.randint(0, 3))}
    num = SparsePoly.zero(HV)
    for i, c in enumerate(coeffs):
        num = num + _c(c) * h**i
    den = _c(1)
    for r, m in roots.items():
        den = den * (h - _c(r)) ** m
    return HRat.poly(coeffs) * HRat([Fraction(1)], roots), RatFunc(num, den)


def test_arithmetic_matches_ratfunc():
    rng = random.Random(7)
    for _ in range(60):
        a, ra = _random_pair(rng)
        b, rb = _random_pair(rng)
        assert a + b == ra + rb
        assert a - b == ra - rb
        assert a * b == ra * rb
        assert a * Fraction(-2, 3) == ra * Fraction(-2, 3)
        assert a.flip_h() == ra.substitute({"h": -h})
        assert a.cancel() == ra
        assert a.to_ratfunc().to_string() == ra.reduced().to_string()


def test_cancel_and_evaluate_at_a_root():
    # (h - 1)^2 h / ((h - 1)^3 h) = 1/(h - 1): the root 0 goes, 1 stays once
    v = HRat.poly((0, 1)) * HRat.poly((-1, 1)) ** 2 * HRat([Fraction(1)], {Fraction(1): 3, Fraction(0): 1})
    assert v.cancel().roots == {Fraction(1): 1}
    assert v.at(Fraction(0)) == -1
    assert v.at(Fraction(3)) == Fraction(1, 2)
    with pytest.raises(ZeroDivisionError):
        v.at(Fraction(1))


def test_sum_that_cancels_to_a_polynomial():
    # 1/(h-1) - 1/(h+1) - 2/((h-1)(h+1)) = 0 and h/(h-1) - 1/(h-1) = 1
    a = HRat.pole(1) - HRat.pole(-1) - HRat([Fraction(2)], {Fraction(1): 1, Fraction(-1): 1})
    assert a.is_zero() and a.roots == {}
    b = (HRat.poly((0, 1)) * HRat.pole(1) - HRat.pole(1)).cancel()
    assert b.roots == {} and b == 1


def test_views_for_the_tracer():
    v = HRat.poly((3, 0, 2)) * HRat([Fraction(1)], {Fraction(0): 2, Fraction(1, 2): 1})
    assert v.num.vars == ("h",) and v.den.vars == ("h",)
    assert v.num == 2 * h * h + _c(3)
    assert v.den == h * h * (h - _c(Fraction(1, 2)))


# ---------------------------------------------------------------------------
# differential test against the trivariate route
# ---------------------------------------------------------------------------

# torus weights from the benchmark's weight pool
POOL = {3: tuple(map(Fraction, (13, 20, 23))), 4: tuple(map(Fraction, (4, 10, 17, 33)))}
D = 3


def _mutated(F: HyperSeries, d1: int, d2: int) -> HyperSeries:
    """F with the sign of its (d1, d2) summand flipped, as `mutate` does."""
    nums = dict(F.num_parts)
    nums[(d1, d2)] = -nums[(d1, d2)]
    return HyperSeries(F.n, F.D, F.den_chains, nums, F.xtrunc)


@pytest.mark.parametrize("n, a, mutate", [(3, (1, 1, 1), None), (4, (2,), None), (3, (), (1, 1))])
def test_evaluated_route_matches_trivariate(n, a, mutate):
    al = POOL[n]
    rows = tuple((ak, ak) for ak in a)
    specs = [
        AMatrixSpec(n=n, rows=rows, alpha1=al, alpha2=al),
        AMatrixSpec(n=n, rows=rows, alpha1=al, alpha2=tuple(Fraction(11**m) for m in range(1, n + 1))),
    ]
    for kind in ("dot", "ddot"):
        for spec in specs:
            A = build_A(kind, spec, D)
            if mutate is not None:
                A = _mutated(A, mutate[1], mutate[0] - mutate[1])
            for i1 in range(1, n + 1):
                for i2 in range(1, n + 1):
                    pt = {"x1": spec.alpha(1)[i1 - 1], "x2": spec.alpha(2)[i2 - 1]}
                    ev = a_series_evaluated(kind, spec, i1, i2, D, mutate)
                    for key in A.num_parts:
                        assert ev.get(key) == A.coeff(key).substitute(pt), (kind, i1, i2, key)
        K = build_K(kind, n, CISpec(a), al, D)
        Y = bar_assemble(K)
        if mutate is not None:
            K = _mutated(K, mutate[1], mutate[0] - mutate[1])
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == j:
                    continue
                pt = {"x1": al[i - 1], "x2": al[j - 1]}
                ev = y_series_evaluated(kind, n, CISpec(a), al, i, j, D, mutate)
                for d in range(D + 1):
                    if mutate is None:
                        want = Y.coeff((d,)).substitute(pt)
                    else:
                        # a mutated series is asymmetric, so bar_assemble refuses
                        # it; apply the bar transform at the point instead
                        want = sum((RatFunc(_c(1) + h * Fraction(2 * d1 - d, al[i - 1] - al[j - 1]))
                                    * K.coeff((d1, d - d1)).substitute(pt) * (-1) ** d
                                    for d1 in range(d + 1)), RatFunc(_c(0)))
                    assert ev.get((d,)) == want, (kind, i, j, d)



@pytest.mark.parametrize("kind", ["dot", "ddot"])
@pytest.mark.parametrize("d, d1", [(2, 2), (3, 1), (1, 1)])
def test_bar_assemble_refuses_mutated_series(kind, d, d1):
    # at d >= 2 the other keys of the degree still share one numerator; at
    # d = 1 both keys are groups of one
    K = build_K(kind, 3, CISpec((1,)), POOL[3], D)
    with pytest.raises(ValueError, match="asymmetric"):
        bar_assemble(_mutated(K, d1, d - d1))


def _phi_half_sum(F, Fp, eta, al, n, Nz, Dq):
    """The literal half-sum of build_phi over ordered pairs, in RatFunc."""
    total = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            pref = Fraction(eta(i, j)) / euler_tangent(al, i, j) / 2
            c = al[i - 1] + al[j - 1]
            for d1 in range(Dq + 1):
                for d2 in range(Dq + 1 - d1):
                    f = F[(i, j)][d1] * Fp[(i, j)][d2].substitute({"h": -h})
                    for p in range(Nz + 1):
                        for p1 in range(p + 1):
                            w = RatFunc((h * d1) ** p1) * (pref * c ** (p - p1)
                                                           / factorial(p1) / factorial(p - p1))
                            key = (d1 + d2, p)
                            total[key] = total[key] + f * w if key in total else f * w
    return total


def test_build_phi_matches_ratfunc_half_sum():
    n, a, Dq, Nz = 3, CISpec((1,)), 2, 2
    al = POOL[3]
    eta = lambda i, j: a.product * (al[i - 1] + al[j - 1]) ** a.ell
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    series = {}
    for kind in ("dot", "ddot"):
        Y = bar_assemble(build_K(kind, n, a, al, Dq))
        series[kind] = (
            {p: y_series_evaluated(kind, n, a, al, *p, Dq) for p in pairs},
            {(i, j): [Y.coeff((d,)).substitute({"x1": al[i - 1], "x2": al[j - 1]}) for d in range(Dq + 1)]
             for (i, j) in pairs},
        )
    for k1, k2 in (("dot", "dot"), ("dot", "ddot")):
        phi = build_phi(series[k1][0], series[k2][0], eta, al, n, Nz, Dq).payload
        want = _phi_half_sum(series[k1][1], series[k2][1], eta, al, n, Nz, Dq)
        assert want
        for key in set(phi.coeffs) | set(want):
            assert phi.get(key) == want.get(key, 0), (k1, k2, key)
