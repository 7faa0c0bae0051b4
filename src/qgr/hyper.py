"""Generating-function builders: the two-variable ladder series over
P^(n-1) x P^(n-1) data, their specialization to a single weight family,
the bar transform to one q variable, the closed-form series of the
introduction, the scalar normalization series, and the recursion
coefficient tables.

A ladder series keeps one numerator per q-key over the product of its two
ladder denominator chains; the RatFunc coefficient is formed when it is
read.  Its building blocks are shared per process by every series that
needs them: each row product prod_l (a1 x1 + a2 x2 + l h), one linear
factor more than the one before it, each chain, and a chain's cofactors,
each one factor more than the last.  They are pure functions of ints,
tuples and None in bounded caches with no setting, and their values are
immutable, so sharing changes no result.  A two-variable series lets
every key with one tuple of row degrees share one numerator, and the bar
transform multiplies each shared numerator once per degree.  Summands are
combined before any division by (x1 - x2), so coefficients are genuine
rational functions regular on x1 = x2.

A zero-weight ladder series can also be held on the flat lists of
`series._Triangle` as a `LadderImage`, its h = 1 image.  The operator
pipeline runs on that form at zero weights; at other weights it reads
the same image's family and evaluates the series at the fixed points.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import comb, lcm, prod

from .hrat import HRat
from .rings import RatFunc, SparsePoly, _Record
from .series import QSeries, _graded_keys, _Triangle, _triangle

V3 = ("x1", "x2", "h")


class CISpec(_Record):
    """Complete-intersection multidegree (a_1, ..., a_ell)."""

    _fields = ("a",)

    def __init__(self, a: tuple[int, ...]):
        if any(ak < 1 for ak in a):
            raise ValueError("all a_k must be positive")
        self.a = a

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


class AMatrixSpec(_Record):
    """Two-slot data: rows (a_{r;1}, a_{r;2}) and one weight family per slot."""

    _fields = ("n", "rows", "alpha1", "alpha2")

    def __init__(self, n: int, rows: tuple[tuple[int, int], ...] = (),
                 alpha1: tuple[Fraction, ...] | None = None, alpha2: tuple[Fraction, ...] | None = None):
        self.n, self.rows = n, rows
        self.alpha1, self.alpha2 = alpha1, alpha2  # None = all zero

    def alpha(self, slot: int) -> tuple[Fraction, ...]:
        al = self.alpha1 if slot == 1 else self.alpha2
        return al if al is not None else (Fraction(0),) * self.n

    @functools.cached_property
    def int_alphas(self) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
        """(L, L alpha1, L alpha2), L the least common denominator of the weights."""
        a1, a2 = self.alpha(1), self.alpha(2)
        L = lcm(*(Fraction(v).denominator for v in a1 + a2))
        return L, tuple(int(v * L) for v in a1), tuple(int(v * L) for v in a2)


def _xvar(name: str) -> SparsePoly:
    return SparsePoly.variable(V3, name)


def _c3(v) -> SparsePoly:
    return SparsePoly.const(V3, v)


class DenChain(_Record):
    """Ladder denominator products for one slot: B[d] = prod_{l<=d} factor_l.
    `build` is cached, so chains are shared and hold tuples."""

    _fields = ("xname", "factors", "products", "xtrunc")

    def __init__(self, xname: str, factors: tuple[SparsePoly, ...], products: tuple[SparsePoly, ...],
                 xtrunc: int | None = None):
        self.xname, self.factors, self.products, self.xtrunc = xname, factors, products, xtrunc

    @classmethod
    @functools.lru_cache(maxsize=32)
    def build(cls, n: int, alphas, xname: str, D: int, xtrunc: int | None = None) -> "DenChain":
        factors = tuple(den_factor(n, alphas, l, xname, xtrunc) for l in range(1, D + 1))
        products = [_c3(1)]
        for f in factors:
            products.append(products[-1].mul_trunc(f, xtrunc))
        return cls(xname, factors, tuple(products), xtrunc)

    @functools.cached_property
    def _cofactors(self) -> dict:
        """(a, b) -> prod_{a < l <= b} factor_l, formed as factor_(a+1) times (a+1, b)."""
        out = {}
        for b, p in enumerate(self.products):
            out[(b, b)], out[(0, b)] = self.products[0], p
            for a in range(b - 1, 0, -1):
                out[(a, b)] = self.factors[a].mul_trunc(out[(a + 1, b)], self.xtrunc)
        return out

    def cofactor(self, d_from: int, d_to: int) -> SparsePoly:
        return self._cofactors[(d_from, d_to)]


def den_factor(n: int, alphas, l: int, xname: str, xtrunc: int | None = None) -> SparsePoly:
    """prod_j (x - alpha_j + l h) - prod_j (x - alpha_j); (x+lh)^n - x^n at alpha=0."""
    x, h = _xvar(xname), _xvar("h")
    p1 = p2 = _c3(1)
    for aj in alphas or (0,) * n:
        p1 = p1.mul_trunc(x - _c3(aj) + h * l, xtrunc)
        p2 = p2.mul_trunc(x - _c3(aj), xtrunc)
    return p1 - p2


def _num_l_range(kind: str, m: int) -> range:
    if kind == "dot":
        return range(1, m + 1)
    if kind == "ddot":
        return range(0, m)
    raise ValueError(f"kind must be 'dot' or 'ddot', got {kind!r}")


@functools.lru_cache(maxsize=256)
def _row_product(kind: str, a1: int, a2: int, m: int, xtrunc: int | None) -> SparsePoly:
    """prod_l (a1 x1 + a2 x2 + l h), l over the kind's range for m: the
    product for m - 1 times one more linear factor."""
    ls = _num_l_range(kind, m)
    if not ls:
        return _c3(1)
    f = _xvar("x1") * a1 + _xvar("x2") * a2 + _xvar("h") * ls[-1]
    return _row_product(kind, a1, a2, m - 1, xtrunc).mul_trunc(f, xtrunc)


def amatrix_numerator(kind: str, rows, d1: int, d2: int, xtrunc: int | None = None) -> SparsePoly:
    """prod_r prod_l (a_{r;1} x1 + a_{r;2} x2 + l h) with the kind's l-range;
    row products are read in ascending order, so a miss recurses once."""
    out = _c3(1)
    for (a1, a2) in rows:
        ascending = [_row_product(kind, a1, a2, m, xtrunc) for m in range(a1 * d1 + a2 * d2 + 1)]
        out = out.mul_trunc(ascending[-1], xtrunc)
    return out


class HyperSeries(_Record):
    """A ladder series in one or two q variables: q-key -> numerator over
    the ladder products of its denominator chains.  A one-q key (d,) sits
    over B[d] of both chains, a two-q key (d1, d2) over B[d1] B[d2]."""

    _fields = ("n", "D", "den_chains", "num_parts", "xtrunc")

    def __init__(self, n: int, D: int, den_chains: tuple[DenChain, DenChain], num_parts: dict,
                 xtrunc: int | None = None):
        self.n, self.D, self.den_chains, self.num_parts, self.xtrunc = n, D, den_chains, num_parts, xtrunc

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
    # the numerator depends on the key only through its row degrees, so
    # keys with equal row degrees share one numerator object
    by_degrees: dict = {}
    nums = {}
    for d in range(D + 1):
        for d1 in range(d + 1):
            m = tuple(a1 * d1 + a2 * (d - d1) for a1, a2 in spec.rows)
            if m not in by_degrees:
                by_degrees[m] = amatrix_numerator(kind, spec.rows, d1, d - d1, xtrunc)
            nums[(d1, d - d1)] = by_degrees[m]
    return HyperSeries(n=spec.n, D=D, den_chains=(c1, c2), num_parts=nums, xtrunc=xtrunc)


def build_K(kind: str, n: int, a: CISpec, alphas, D: int, xtrunc: int | None = None) -> HyperSeries:
    """Specialized series: equal row weights and one common weight family."""
    a.validate(n)
    al = None if alphas is None else tuple(alphas)
    return build_A(kind, AMatrixSpec(n=n, rows=a.rows, alpha1=al, alpha2=al), D, xtrunc)


def bar_assemble(F: HyperSeries) -> HyperSeries:
    """q1 = q2 = -q substitution plus the antisymmetrized derivative term.

    Within degree d the keys are grouped by numerator object (build_A
    shares one per row-degree tuple, so with equal rows a degree is one
    group).  A group sums S0 = sum C and S1 = sum (d1 - d2) C over its
    keys, C = cof1(d1 -> d) cof2(d2 -> d); when S1 divides by (x1 - x2),
    as it does for mirrored chains, the group contributes
    num * (S0 + h S1/(x1 - x2)) with one product per degree, and otherwise
    num * S0 and num * S1 join the sums.  The summed derivative numerator
    must be exactly divisible by (x1 - x2); failure signals an asymmetric
    input.
    """
    if F.q_arity != 2:
        raise ValueError("bar transform needs a two-variable series")
    D = F.D
    xt = F.xtrunc
    x1mx2 = _xvar("x1") - _xvar("x2")
    h = _xvar("h")
    c1, c2 = F.den_chains
    nums = {}
    for d in range(D + 1):
        groups: dict = {}  # id(numerator) -> (numerator, [d1, ...])
        for d1 in range(d + 1):
            num = F.num_parts.get((d1, d - d1))
            if num is not None:
                groups.setdefault(id(num), (num, []))[1].append(d1)
        N0 = SparsePoly.zero(V3)
        N1 = SparsePoly.zero(V3)
        Q = SparsePoly.zero(V3)
        for num, d1s in groups.values():
            S0 = SparsePoly.zero(V3)
            S1 = SparsePoly.zero(V3)
            for d1 in d1s:
                C = c1.cofactor(d1, d).mul_trunc(c2.cofactor(d - d1, d), xt)
                S0 = S0 + C
                S1 = S1 + C * (2 * d1 - d)
            Q1 = S1.divide_exact(x1mx2)
            if Q1 is None:  # not antisymmetric alone: the summed remainder decides
                N0 = N0 + num.mul_trunc(S0, xt)
                N1 = N1 + num.mul_trunc(S1, xt)
            elif xt is None:
                N0 = N0 + num * (S0 + h * Q1)
            else:
                # the quotient keeps one x-order less, as the summed one does
                N0 = N0 + num.mul_trunc(S0, xt)
                Q = Q + num.mul_trunc(Q1, xt - 1)
        if not N1.is_zero():
            Q1 = N1.divide_exact(x1mx2)
            if Q1 is None:
                raise ValueError("derivative numerator not divisible by x1 - x2 (asymmetric input)")
            Q = Q + Q1
        sign = -1 if d % 2 else 1
        nums[(d,)] = (N0 + h.mul_trunc(Q, xt)) * sign
    # dividing by x1 - x2 costs one order of x-precision
    return HyperSeries(
        n=F.n, D=D, den_chains=F.den_chains, num_parts=nums,
        xtrunc=None if xt is None else xt - 1,
    )


# ---------------------------------------------------------------------------
# zero-weight ladder series over the x-triangle
#
# A ladder polynomial is a flat list over the x-triangle
# `_triangle(2, xtrunc)`, so products run on `_Triangle.mul_into`.  At
# zero weights every ladder numerator and factor is homogeneous in
# (x1, x2, h), and so is every product, operator weight and bar term made
# from them: the h = 1 value at x^e restores the term x^e h^(deg - |e|)
# once the degree is kept, so the list holds ints while values are integral.
# ---------------------------------------------------------------------------


class _Image(_Record):
    """vals[i]: the h = 1 value of the coefficient of x^keys[i] over an
    x-triangle, of the homogeneous degree `deg`."""

    _fields = ("deg", "vals")

    def __init__(self, deg: int, vals: list):
        self.deg, self.vals = deg, vals


def _linear(tri: _Triangle, c0: int, c1: int, c2: int) -> _Image:
    """c0 h + c1 x1 + c2 x2."""
    vals = [0] * tri.size
    vals[0], vals[tri.index[(1, 0)]], vals[tri.index[(0, 1)]] = c0, c1, c2
    return _Image(1, vals)


def _times(tri: _Triangle, p: _Image, f: _Image) -> _Image:
    return _Image(p.deg + f.deg, tri.mul(p.vals, f.vals))


def _div_x1_minus_x2(vals: list, D: int) -> list:
    """P / (x1 - x2) for P on the x-triangle of total degree <= D, one
    order less: in degree k, with p_i the coefficient of x1^i x2^(k-i)
    (slot k(k+1)/2 + i in graded order), the quotient's coefficients are
    q_i = q_(i-1) - p_i, and the division is exact when q_(k-1) = p_k."""
    out = [0] * len(vals)
    exact = not vals[0]
    for k in range(1, D + 1):
        base, q = k * (k + 1) // 2, 0
        for i in range(k):
            q -= vals[base + i]
            out[base - k + i] = q
        exact = exact and q == vals[base + k]
    if not exact:
        raise ValueError("derivative numerator not divisible by x1 - x2 (asymmetric input)")
    return out


class LadderImage(_Record):
    """The h = 1 image of a zero-weight ladder series over the x-triangle
    `tri`, laid out as a HyperSeries: q-key -> numerator image over the
    ladder products of the chains (a one-q key (d,) over B[d] of both, a
    two-q key (d1, d2) over B[d1] B[d2]), x-truncated at `xtrunc`.  The
    series of one ladder share its tables: the cofactors (slot, d, m) ->
    prod_{d < l <= m} factor_l of the slot, the two-q numerators lifted
    over B[m] B[m], (e, m) -> num_e cof(0, e1, m) cof(1, e2, m), and the
    x-adic inverses of the denominators, filled in when first read (a
    cache, so not a field)."""

    _fields = ("n", "D", "tri", "xtrunc", "num_parts", "cofactors", "lifted")

    def __init__(self, n: int, D: int, tri: _Triangle, xtrunc: int, num_parts: dict, cofactors: dict,
                 lifted: dict, inverses: dict | None = None):
        self.n, self.D, self.tri, self.xtrunc = n, D, tri, xtrunc
        self.num_parts, self.cofactors, self.lifted = num_parts, cofactors, lifted
        self.inverses = {} if inverses is None else inverses

    @classmethod
    def ladder(cls, kind: str, n: int, a: CISpec, D: int, xtrunc: int) -> "LadderImage":
        """The image of build_K(kind, n, a, None, D, xtrunc): the factor l
        of a slot is (x + l h)^n - x^n, and every key of degree d shares the
        numerator prod_k prod_l (a_k x1 + a_k x2 + l h), l over the kind's
        range for a_k d."""
        a.validate(n)
        tri = _triangle(2, xtrunc)
        one = _Image(0, tri.one())
        cof = {}
        for slot in (0, 1):
            factors = [_Image(n, [0] * tri.size) for _ in range(D + 1)]
            for l in range(1, D + 1):
                for k in range(min(n - 1, xtrunc) + 1):
                    factors[l].vals[tri.index[(k, 0) if slot == 0 else (0, k)]] = comb(n, k) * l ** (n - k)
            for d in range(D + 1):
                cof[(slot, d, d)] = one
                for m in range(d + 1, D + 1):
                    cof[(slot, d, m)] = _times(tri, cof[(slot, d, m - 1)], factors[m])
        by_degree = [one]
        for d in range(1, D + 1):
            num = one
            for ak in a.a:
                for l in _num_l_range(kind, ak * d):
                    num = _times(tri, num, _linear(tri, l, ak, ak))
            by_degree.append(num)
        nums = {key: by_degree[sum(key)] for key in _graded_keys(2, D)}
        lifted = {(e, m): _times(tri, _times(tri, num, cof[(0, e[0], m)]), cof[(1, e[1], m)])
                  for e, num in nums.items() for m in range(sum(e), D + 1)}
        return cls(n, D, tri, xtrunc, nums, cof, lifted)

    def bar(self, weights: dict, level: int) -> "LadderImage":
        """The bar transform of the two-q series sum_(e, d) num_e w_(e,d)
        q^d over B[d1] B[d2], with the weights of degree `level` summed
        per source e and bar degree m = |d|: weights[(e, m)] =
        (sum w, sum (d1 - d2) w).  The transform lifts each term to
        B[m] B[m] by cof1(d1 -> m) cof2(d2 -> m), which makes it
        lifted[(e, m)] w, so the q^m numerator is
        (-1)^m (N0 + h N1 / (x1 - x2)) with Ni = sum_e lifted[(e, m)] Wi,
        every term of one structural degree.  The quotient keeps one
        x-order less, as in bar_assemble."""
        tri = self.tri
        nums = {}
        for m in range(self.D + 1):
            N0, N1, degs = [0] * tri.size, [0] * tri.size, set()
            for (e, me), (W0, W1) in weights.items():
                if me == m:
                    lifted = self.lifted[(e, m)]
                    degs.add(lifted.deg + level)
                    tri.mul_into(N0, W0, lifted.vals)
                    tri.mul_into(N1, W1, lifted.vals)
            if len(degs) > 1:
                raise ArithmeticError(f"bar terms of q^{m} differ in degree: {sorted(degs)}")
            Q = _div_x1_minus_x2(N1, tri.D)
            sign = -1 if m % 2 else 1
            nums[(m,)] = _Image(degs.pop() if degs else 0, [sign * (u + v) for u, v in zip(N0, Q)])
        return LadderImage(self.n, self.D, tri, self.xtrunc - 1, nums, self.cofactors, self.lifted, self.inverses)

    def degree(self, key) -> int:
        """The structural degree of the coefficient at `key`: numerator
        degree less denominator degree, read without expanding."""
        return self.num_parts[key].deg - self.cofactors[(0, 0, key[0])].deg - self.cofactors[(1, 0, key[-1])].deg

    def x_expansion(self, key, order: int) -> tuple[int, list, int]:
        """(deg, X, g): the h = 1 value of the coefficient at `key` is X / g
        to total x-degree `order`, X over the slots of `_triangle(2, order)`;
        x^e comes with h^(deg - |e|), deg the structural degree."""
        b1, b2 = self.cofactors[(0, 0, key[0])], self.cofactors[(1, 0, key[-1])]
        tk = _triangle(2, order)
        at = (key[0], key[-1], order)
        if at not in self.inverses:
            self.inverses[at] = tk.inverse(self.tri.mul(b1.vals, b2.vals)[:tk.size])
        N, g = self.inverses[at]
        return self.degree(key), tk.mul(self.num_parts[key].vals[:tk.size], N), g

    def restore(self, den_chains) -> HyperSeries:
        """The HyperSeries this is the image of, over its trivariate chains:
        the entry v at x^e restores the term v x^e h^(deg - |e|)."""
        return HyperSeries(n=self.n, D=self.D, den_chains=den_chains, xtrunc=self.xtrunc, num_parts={
            key: SparsePoly(V3, {(e1, e2, num.deg - e1 - e2): v for (e1, e2), v in zip(self.tri.keys, num.vals)})
            for key, num in self.num_parts.items()})


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


@functools.lru_cache(maxsize=64)
def _inverse_ladder(alphas: tuple, i: int, D: int) -> tuple[HRat, ...]:
    """1 / (ladder product B[d]) at x = alpha_i for d <= D: there the
    factor l is l^n prod_j (h - (alpha_j - alpha_i)/l), the j = i root
    being 0.  HRat values are immutable, so one tuple serves every call."""
    out, roots, g = [HRat.poly((1,))], {}, 1
    for l in range(1, D + 1):
        roots = dict(roots)
        for aj in alphas:
            r = Fraction(aj - alphas[i - 1], l).as_integer_ratio()
            roots[r] = roots.get(r, 0) + 1
        g *= l ** len(alphas)
        out.append(HRat([1], g, roots))
    return tuple(out)


def a_series_evaluated(kind: str, spec: AMatrixSpec, i1: int, i2: int, D: int,
                       mutate: tuple[int, int] | None = None) -> QSeries:
    """The two-variable series evaluated at (x1, x2) = (alpha_{1;i1}, alpha_{2;i2}).

    Values are HRat (rational in h).  As in build_A, the keys with one
    tuple of row degrees share one numerator product.  `mutate=(d, d1)`
    flips the sign of the single (d1, d-d1) summand (fault injection for
    the detection suites).
    """
    x1v, x2v = spec.alpha(1)[i1 - 1], spec.alpha(2)[i2 - 1]
    inv1 = _inverse_ladder(spec.alpha(1), i1, D)
    inv2 = _inverse_ladder(spec.alpha(2), i2, D)
    nums, coeffs = {}, {}
    for d1, d2 in _graded_keys(2, D):
        m = tuple(a1 * d1 + a2 * d2 for a1, a2 in spec.rows)
        if m not in nums:
            num = HRat.poly((1,))
            for (a1, a2), mr in zip(spec.rows, m):
                for l in _num_l_range(kind, mr):
                    num = num * HRat.poly((a1 * x1v + a2 * x2v, l))
            nums[m] = num
        num = -nums[m] if mutate == (d1 + d2, d1) else nums[m]
        coeffs[(d1, d2)] = num * inv1[d1] * inv2[d2]
    return QSeries(2, D, coeffs)


def k_series_evaluated(kind: str, n: int, a: CISpec, alphas, i: int, j: int, D: int,
                       mutate: tuple[int, int] | None = None) -> QSeries:
    al = tuple(alphas)
    return a_series_evaluated(kind, AMatrixSpec(n=len(al), rows=a.rows, alpha1=al, alpha2=al), i, j, D, mutate)


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


def _scr_ints(kind: str, slot: int, i1: int, i2: int, k: int, d: int, spec: AMatrixSpec) -> tuple[int, int]:
    """scr_coeff as an int pair: on the int weights of `spec.int_alphas`
    every factor is an int over d L, so the products run on ints."""
    L, a1, a2 = spec.int_alphas
    al_s, i_s = (a1, i1) if slot == 1 else (a2, i2)
    if k == i_s:
        raise ValueError("k must differ from the moving index")
    step = al_s[k - 1] - al_s[i_s - 1]
    num = 1
    for row in spec.rows:
        base = d * (row[0] * a1[i1 - 1] + row[1] * a2[i2 - 1])
        for l in _num_l_range(kind, row[slot - 1] * d):
            num *= base + l * step
    den = d
    for l in range(1, d + 1):
        for m in range(1, spec.n + 1):
            if (l, m) != (d, k):
                den *= d * (al_s[i_s - 1] - al_s[m - 1]) + l * step
    if den == 0:
        raise ZeroDivisionError("recursion-coefficient denominator vanishes (non-generic alpha)")
    # d n - 1 denominator factors against d sum_r a_(r;slot) numerator factors
    e = d * (spec.n - sum(row[slot - 1] for row in spec.rows)) - 1
    return num * (d * L) ** max(e, 0), den * (d * L) ** max(-e, 0)


def scr_coeff(kind: str, slot: int, i1: int, i2: int, k: int, d: int, spec: AMatrixSpec) -> Fraction:
    """Two-variable ladder recursion coefficient for the given slot."""
    return Fraction(*_scr_ints(kind, slot, i1, i2, k, d, spec))


def c_coeff(kind: str, slot: int, i: int, j: int, k: int, d: int, spec: AMatrixSpec) -> Fraction:
    """Single-q recursion coefficients of the bar-transformed series, for
    `spec` with equal rows and one weight family.  slot 2: the pole family
    moving j -> k; slot 1: moving i -> k.  The ladder coefficient is
    `scr_coeff`, kept in ints up to one Fraction."""
    al = spec.int_alphas[1]
    factor = al[i - 1] - al[k - 1] if slot == 2 else al[k - 1] - al[j - 1]
    num, den = _scr_ints(kind, slot, i, j, k, d, spec)
    return Fraction((-1) ** d * factor * num, (al[i - 1] - al[j - 1]) * den)
