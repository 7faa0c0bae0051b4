"""The factored-denominator type of the fixed-point route, and a
differential test of that route against the trivariate RatFunc pipeline
it replaced."""

import math
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
    v = HRat.poly(coeffs)
    for r, m in roots.items():
        v = v * HRat.pole(r) ** m
    return v, RatFunc(num, den)


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
    v = HRat.poly((0, 1)) * HRat.poly((-1, 1)) ** 2 * HRat.pole(1) ** 3 * HRat.pole(0)
    assert v.cancel().roots == {(1, 1): 1}
    assert v.at(Fraction(0)) == -1
    assert v.at(Fraction(3)) == Fraction(1, 2)
    with pytest.raises(ZeroDivisionError):
        v.at(Fraction(1))


def test_residue_at_a_simple_root():
    # (h + 2) / ((h - 1/2) (h + 1/3)^2 h): the residue at 1/2 is
    # (5/2) / ((5/6)^2 (1/2)) = 36/5, with the value at 3 as an int pair too
    v = HRat.poly((2, 1)) * HRat.pole(Fraction(1, 2)) * HRat.pole(Fraction(-1, 3)) ** 2 * HRat.pole(0)
    num, den = v.residue(1, 2)
    assert Fraction(num, den) == Fraction(36, 5)
    num, den = v.value_at(3, 1)
    assert Fraction(num, den) == v.at(Fraction(3)) == Fraction(5, (Fraction(5, 2) * Fraction(10, 3) ** 2 * 3))
    # (2h - 1) / ((h - 1/2) (h - 5)) = 2/(h - 5), stored uncancelled: the
    # root 1/2 is no pole, residue 0
    w = HRat.poly((-1, 2)) * HRat.pole(Fraction(1, 2)) * HRat.pole(5)
    assert w.residue(1, 2)[0] == 0 and Fraction(*w.residue(5, 1)) == 2


def test_sum_that_cancels_to_a_polynomial():
    # 1/(h-1) - 1/(h+1) - 2/((h-1)(h+1)) = 0 and h/(h-1) - 1/(h-1) = 1
    a = HRat.pole(1) - HRat.pole(-1) - HRat.pole(1, 2) * HRat.pole(-1)
    assert a.is_zero() and a.roots == {}
    b = (HRat.poly((0, 1)) * HRat.pole(1) - HRat.pole(1)).cancel()
    assert b.roots == {} and b == 1


def test_views_for_the_tracer():
    v = HRat.poly((3, 0, 2)) * HRat.pole(0) ** 2 * HRat.pole(Fraction(1, 2))
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


@pytest.mark.parametrize("n,a", [(3, (1,)), (4, (2,))])
def test_cancelled_fixed_point_values_are_gcd_reduced(n, a):
    # after cancel() the numerator and denominator share no factor, so
    # RatFunc.reduced() leaves every printed fixed-point value as it is
    from qgr.cohomology import default_generic_alpha, fixed_points
    from qgr.rings import univariate_coeffs, univariate_gcd

    al, seen = default_generic_alpha(n), 0
    for kind in ("dot", "ddot"):
        for i, j in fixed_points(n):
            for v in y_series_evaluated(kind, n, CISpec(a), al, i, j, 2).coeffs.values():
                c = HRat.convert(v).cancel()
                f = RatFunc(c.num, c.den)
                g = univariate_gcd(univariate_coeffs(f.num, "h"), univariate_coeffs(f.den, "h"))
                assert len(g) == 1, (kind, i, j, c)
                assert f.reduced() is f
                seen += not f.den.is_const()
    assert seen


# ---------------------------------------------------------------------------
# differential test against the Fraction-list representation it replaced
# ---------------------------------------------------------------------------

# The previous HRat, kept verbatim apart from its name, with the rings
# helper that only it used: one reduced Fraction per numerator coefficient
# and {Fraction root: multiplicity}.

from qgr.rings import _divmod_linear, _trim, poly_from_coeffs  # noqa: E402


def _deflate_once(a: list[Fraction], z0: Fraction):
    """Synthetic division of ascending-coeff a by (z - z0); None unless exact."""
    if len(a) < 2:
        return None
    q, r = _divmod_linear(a, z0)
    return q if r == 0 else None


_ZERO = Fraction(0)


def _ints(c: list, roots=()) -> tuple[list, int]:
    """Integer coefficients and their common denominator for
    c(h) * prod (h - r)^m over the (r, m) pairs; h - p/q = (q h - p)/q."""
    den = math.lcm(*(x.denominator for x in c))
    ints = [x.numerator * (den // x.denominator) for x in c]
    for r, m in roots:
        p, q = r.numerator, r.denominator
        for _ in range(m):
            out = [-p * ints[0]]
            out.extend(q * ints[i - 1] - p * ints[i] for i in range(1, len(ints)))
            out.append(q * ints[-1])
            ints = out
        den *= q**m
    return ints, den


def _fractions(ints: list, den: int) -> list:
    return _trim([Fraction(x, den) for x in ints])


def _conv(a: list, b: list) -> list:
    """Product of two nonzero coefficient lists."""
    (ia, da), (ib, db) = _ints(a), _ints(b)
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(ia):
        if x:
            for j, y in enumerate(ib):
                out[i + j] += x * y
    return _fractions(out, da * db)


class FractionHRat:
    """num(h) / prod_r (h - r)^m over Q; see the module docstring.

    `coeffs` is the ascending coefficient list of num with no trailing
    zero (empty for the zero value, which has no roots); `roots` maps each
    denominator root to its multiplicity.
    """

    __slots__ = ("coeffs", "roots")

    def __init__(self, coeffs: list, roots: dict):
        self.coeffs = coeffs
        self.roots = roots if coeffs else {}

    # -- constructors -------------------------------------------------

    @classmethod
    def poly(cls, coeffs) -> "FractionHRat":
        """The polynomial with these ascending coefficients."""
        return cls(_trim([Fraction(c) for c in coeffs]), {})

    @classmethod
    def pole(cls, r, c=1) -> "FractionHRat":
        """c / (h - r)."""
        return cls(_trim([Fraction(c)]), {Fraction(r): 1})

    @classmethod
    def convert(cls, v) -> "FractionHRat":
        """An FractionHRat as itself, a Fraction or int as a constant FractionHRat."""
        if isinstance(v, FractionHRat):
            return v
        return cls.poly((v,))

    # -- views (read-only SparsePoly over ("h",), as stored) ----------

    @property
    def num(self) -> SparsePoly:
        return poly_from_coeffs(self.coeffs, "h")

    @property
    def den(self) -> SparsePoly:
        return poly_from_coeffs(_fractions(*_ints([Fraction(1)], self.roots.items())), "h")

    # -- queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        if isinstance(other, (RatFunc, SparsePoly)):
            return RatFunc(self.num, self.den) == other
        if not isinstance(other, (FractionHRat, int, Fraction)):
            return NotImplemented
        return (self - other).is_zero()

    __hash__ = None

    # -- arithmetic ---------------------------------------------------

    def __neg__(self) -> "FractionHRat":
        return FractionHRat([-c for c in self.coeffs], self.roots)

    def __add__(self, other) -> "FractionHRat":
        if isinstance(other, (int, Fraction)):
            other = FractionHRat.poly((other,))
        elif not isinstance(other, FractionHRat):
            return NotImplemented
        if not other.coeffs:
            return self
        if not self.coeffs:
            return other
        ra, rb = self.roots, other.roots
        roots, extra_a, extra_b = ra, [], []
        if ra != rb:
            roots = dict(ra)
            for r, m in rb.items():
                ma = ra.get(r, 0)
                if m > ma:
                    extra_a.append((r, m - ma))
                    roots[r] = m
                elif ma > m:
                    extra_b.append((r, ma - m))
            extra_b.extend((r, m) for r, m in ra.items() if r not in rb)
        (ia, da), (ib, db) = _ints(self.coeffs, extra_a), _ints(other.coeffs, extra_b)
        den = math.lcm(da, db)
        sa, sb = den // da, den // db
        if len(ia) < len(ib):
            ia, ib, sa, sb = ib, ia, sb, sa
        out = [x * sa for x in ia]
        for i, y in enumerate(ib):
            out[i] += y * sb
        return FractionHRat(_fractions(out, den), roots)

    __radd__ = __add__

    def __sub__(self, other) -> "FractionHRat":
        return self + (-other)

    def __rsub__(self, other) -> "FractionHRat":
        return (-self) + other

    def __mul__(self, other) -> "FractionHRat":
        if isinstance(other, (int, Fraction)):
            if not other:
                return FractionHRat([], {})
            return FractionHRat([c * other for c in self.coeffs], self.roots)
        if not isinstance(other, FractionHRat):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return FractionHRat([], {})
        roots = dict(self.roots)
        for r, m in other.roots.items():
            roots[r] = roots.get(r, 0) + m
        return FractionHRat(_conv(self.coeffs, other.coeffs), roots)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "FractionHRat":
        out = FractionHRat.poly((1,))
        for _ in range(k):
            out = out * self
        return out

    def flip_h(self) -> "FractionHRat":
        """h -> -h: negate the roots; (-h - r)^m contributes (-1)^m."""
        sign = -1 if sum(self.roots.values()) % 2 else 1
        c = [v * (-sign if i % 2 else sign) for i, v in enumerate(self.coeffs)]
        return FractionHRat(c, {-r: m for r, m in self.roots.items()})

    # -- cancellation, evaluation, printing ---------------------------

    def cancel(self) -> "FractionHRat":
        """Divide out every factor (h - r) shared by num and the denominator."""
        c = self.coeffs
        roots = {}
        for r, m in self.roots.items():
            k = 0
            while k < m:
                q = _deflate_once(c, r)
                if q is None:
                    break
                c, k = q, k + 1
            if k < m:
                roots[r] = m - k
        return FractionHRat(c, roots)

    def at(self, w) -> Fraction:
        """The value at h = w; ZeroDivisionError if w is a pole."""
        v = self.cancel() if w in self.roots else self
        if w in v.roots:
            raise ZeroDivisionError(f"pole at h={w}")
        num = _ZERO
        for c in reversed(v.coeffs):
            num = num * w + c
        den = Fraction(1)
        for r, m in v.roots.items():
            den *= (w - r) ** m
        return num / den

    def to_ratfunc(self) -> RatFunc:
        """The cancelled value as a gcd-reduced RatFunc: the printed form."""
        v = self.cancel()
        return RatFunc(v.num, v.den).reduced()

    def to_string(self) -> str:
        return self.to_ratfunc().to_string()

    def __repr__(self):
        return f"FractionHRat({self.to_string()})"


# roots p/q with q in {1, 2, 3}, of both signs, and 0
ROOTS = tuple(Fraction(p, q) for q in (1, 2, 3) for p in range(-4, 5))


def _random_both(rng):
    """The same random value as an HRat and as a FractionHRat.  Its
    numerator carries some of its own denominator roots, so cancel has
    work to do, and some of the others' roots."""
    roots = {}
    for _ in range(rng.randint(0, 3)):
        r = rng.choice(ROOTS)
        roots[r] = roots.get(r, 0) + rng.randint(1, 2)
    coeffs = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(rng.randint(1, 3))]
    for r in rng.sample(sorted(roots) + list(ROOTS[:3]), rng.randint(0, 2)):
        coeffs = [(coeffs[i - 1] if i else 0) - r * (coeffs[i] if i < len(coeffs) else 0)
                  for i in range(len(coeffs) + 1)]
    new, old = HRat.poly(coeffs), FractionHRat.poly(coeffs)
    for r, m in roots.items():
        new = new * HRat.pole(r) ** m
    old = old * FractionHRat([Fraction(1)], {r: m for r, m in roots.items()})
    return new, old


def _same(new, old):
    """Equal as stored: the same numerator over the same monic denominator."""
    return new.num == old.num and new.den == old.den


def _at(v, w):
    try:
        return v.at(w)
    except ZeroDivisionError:
        return "pole"


def test_matches_fraction_representation():
    rng = random.Random(23)
    cancelled = surviving = 0
    for _ in range(300):
        a, oa = _random_both(rng)
        b, ob = _random_both(rng)
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        assert _same(a + b, oa + ob)
        assert _same(a - b, oa - ob)
        assert _same(a * b, oa * ob)
        assert _same(a * c, oa * c) and _same(c * a, c * oa)
        assert _same(a.flip_h(), oa.flip_h())
        assert _same(a.cancel(), oa.cancel())
        assert a.to_string() == oa.to_string()
        for w in list(oa.roots) + [rng.choice(ROOTS), Fraction(rng.randint(-9, 9), rng.randint(1, 5))]:
            got = _at(a, w)
            assert got == _at(oa, w), w
            if w in oa.roots:
                if got == "pole":
                    surviving += 1
                else:
                    cancelled += 1
    # both kinds of root were tried
    assert cancelled > 20 and surviving > 20
