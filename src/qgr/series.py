"""Truncated series: Laurent expansions in h^-1, truncated power series in
one or two q variables, x-adic expansion of rational functions around
x = 0, and flat-list arithmetic for truncated series (`_Triangle`).

A Laurent expansion stores finitely many positive powers of h and
negative powers down to h^(-depth+1); ``depth=None`` marks an exact
(untruncated) Laurent polynomial.  Series coefficients are duck-typed:
Fraction, SparsePoly, RatFunc and HRat all work.

Every truncated expansion runs one inverse-series recurrence,
`_Triangle.inverse`, with `_Triangle.mul` as its product: in 1/h at
h = infinity (`_expand_parts`, for `laurent_expand_hbar`, the residues
and `operators._h_expand`), in x at x = 0 (`x_coefficients`,
`hyper.LadderImage.x_expansion`) and in q (`QSeries.inverse_unit`).
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Mapping
from fractions import Fraction

from .rings import RatFunc, SparsePoly, _exact

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _vzero(v) -> bool:
    if isinstance(v, (int, Fraction)):
        return v == 0
    return v.is_zero()


class LaurentExpansion:
    """Laurent series in h^-1 with finite principal part, truncated below."""

    __slots__ = ("coeffs", "depth")

    def __init__(self, coeffs: Mapping[int, object], depth: int | None):
        if depth is None:
            self.coeffs = {e: v for e, v in coeffs.items() if not _vzero(v)}
        else:
            self.coeffs = {
                e: v for e, v in coeffs.items() if e >= -depth + 1 and not _vzero(v)
            }
        self.depth = depth

    @classmethod
    def zero(cls, depth: int | None = None) -> "LaurentExpansion":
        return cls({}, depth)

    @classmethod
    def scalar(cls, c, depth: int | None = None) -> "LaurentExpansion":
        return cls({0: Fraction(c)}, depth)

    def top(self) -> int | None:
        return max(self.coeffs) if self.coeffs else None

    def coeff(self, e: int):
        if self.depth is not None and e < -self.depth + 1:
            raise ValueError(f"exponent {e} below truncation depth {self.depth}")
        return self.coeffs.get(e, _ZERO)

    def is_zero(self) -> bool:
        return not self.coeffs

    def _join_depth(self, other: "LaurentExpansion") -> int | None:
        if self.depth is None:
            return other.depth
        if other.depth is None:
            return self.depth
        return min(self.depth, other.depth)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentExpansion.scalar(other)
        out = dict(self.coeffs)
        for e, v in other.coeffs.items():
            w = out.get(e, _ZERO) + v
            if _vzero(w):
                out.pop(e, None)
            else:
                out[e] = w
        return LaurentExpansion(out, self._join_depth(other))

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, SparsePoly, RatFunc)):
            return LaurentExpansion(
                {e: v * other for e, v in self.coeffs.items()}, self.depth
            )
        # error term of one factor meets the top of the other
        depth = None
        for a, b in ((self, other), (other, self)):
            if a.depth is not None:
                if b.is_zero() and b.depth is None:
                    continue
                t = b.top()
                d = a.depth - t if t is not None else a.depth
                depth = d if depth is None else min(depth, d)
        out: dict[int, object] = {}
        for e1, v1 in self.coeffs.items():
            for e2, v2 in other.coeffs.items():
                e = e1 + e2
                if depth is not None and e < -depth + 1:
                    continue
                w = out.get(e)
                out[e] = v1 * v2 if w is None else w + v1 * v2
        return LaurentExpansion(out, depth)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "LaurentExpansion":
        out = LaurentExpansion.scalar(1)
        for _ in range(k):
            out = out * self
        return out

    def eq_mod_common_depth(self, other: "LaurentExpansion") -> bool:
        d = self._join_depth(other)
        lo = -d + 1 if d is not None else None
        keys = set(self.coeffs) | set(other.coeffs)
        for e in keys:
            if lo is not None and e < lo:
                continue
            if not _vzero(self.coeffs.get(e, _ZERO) - other.coeffs.get(e, _ZERO)):
                return False
        return True

    def __eq__(self, other):
        if not isinstance(other, LaurentExpansion):
            return NotImplemented
        return self.depth == other.depth and self.eq_mod_common_depth(other)

    def __repr__(self):
        items = ", ".join(f"h^{e}: {v!r}" for e, v in sorted(self.coeffs.items(), reverse=True))
        return f"LaurentExpansion({{{items}}}, depth={self.depth})"


def _expand_parts(num: Mapping[int, object], den: Mapping[int, object], depth: int) -> LaurentExpansion:
    """num/den at h = infinity, for part maps {h-exponent: nonzero value}
    over any integer exponents, the top part c of den an int or a Fraction.

    With M, N the top exponents and s = 1/h, num/den = h^(M-N) b(s)/u(s)
    for b_j = num_(M-j) and u_t = den_(N-t), so u_0 = c, and the terms
    down to h^(1-depth) are b/u to order D = M - N + depth - 1, on
    `_triangle(1, D)`.  Its inverse of u is W / c^(D+1), with W integral
    when u is, so b W is divided by c^(D+1) once, at the end.  If den has
    one part every term is returned and the result is exact (depth None),
    as it is for num = {}.  With parts {-i: a_i}, the expansion at
    h = 1/t = infinity is the power series of a(t)/b(t) at t = 0.
    """
    if not num:
        return LaurentExpansion.zero(None)
    M, N = max(num), max(den)
    if len(den) == 1:
        inv = _ONE / den[N]
        return LaurentExpansion({k - N: v * inv for k, v in num.items()}, None)
    D = M - N + depth - 1
    if D < 0:
        return LaurentExpansion.zero(depth)
    tri = _triangle(1, D)
    b, u = [0] * tri.size, [0] * tri.size
    for parts, top, out in ((num, M, b), (den, N, u)):
        for k, v in parts.items():
            if top - k <= D:
                out[top - k] = v
    w, g = tri.inverse(u)
    inv = _ONE / g
    return LaurentExpansion({M - N - j: v * inv for j, v in enumerate(tri.mul(b, w))}, depth)


def laurent_expand_hbar(
    num: SparsePoly, den: SparsePoly, depth: int, max_x_degree: int | None = None
) -> LaurentExpansion:
    """Expand num/den at h = infinity with polynomial coefficients.

    The top h-coefficient of den must be a nonzero constant (true of
    every ladder product and of every x-adic coefficient of one), or
    ValueError is raised.  The h-parts expand by `_expand_parts`, and
    each term is then cut at total x-degree max_x_degree (None: not
    cut); the cut commutes with the products, whose x-degrees add.  If
    den is c h^N every term is returned and the result is exact (depth
    None); otherwise the terms down to h^(1-depth) are.  Coefficients are
    polynomials in the remaining variables.
    """
    den_parts = den.decompose_by("h") if "h" in den.vars else {0: den}
    N = max(den_parts, default=0)
    lead = den_parts.get(N)
    if lead is None or lead.is_zero() or not lead.is_const():
        raise ValueError("top h-coefficient of the denominator is not a nonzero constant")
    if num.is_zero():
        return LaurentExpansion.zero(None)
    den_parts[N] = _exact(lead.const_value())
    out = _expand_parts(num.decompose_by("h") if "h" in num.vars else {0: num}, den_parts, depth)
    if max_x_degree is None:
        return out
    one = SparsePoly.const(den.vars, 1)
    return LaurentExpansion({e: v.mul_trunc(one, max_x_degree) for e, v in out.coeffs.items()}, out.depth)


# ---------------------------------------------------------------------------
# x-adic expansion around x = 0
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=256)
def _x_inverse(den: SparsePoly, M: int) -> tuple[tuple, SparsePoly]:
    """Truncated x-adic inverse of den, cleared of denominators: (N, g)
    from `_triangle(2, M).inverse` on the x-parts of den, g = den(x=0)^(M+1).
    Its one user is the normalization audit of `verify --suite
    operator-norms`, which expands many numerators over few ladder
    denominators; so the inverse is computed once per (den, M) and shared,
    and it is read-only.  On a 2-CPU x86-64 host (Python 3.11),
    `operator-norms --n 4 --a 2 --qdeg 2` takes 40-43 ms with the cache
    and 45-49 ms without it (medians of 12 alternating in-process runs)."""
    parts = den.decompose_x()
    if (0, 0) not in parts:
        raise ValueError("denominator vanishes at x=0; expansion point invalid")
    tri = _triangle(2, M)
    N, g = tri.inverse([parts.get(key, 0) for key in tri.keys])
    return tuple(N), g


def x_coefficients(f: RatFunc, max_x_degree: int) -> dict[tuple[int, int], RatFunc]:
    """Coefficients of all x-monomials of total degree <= max_x_degree.

    Requires den(x=0) != 0 as a polynomial in the remaining variables.
    Values are RatFunc over the remaining variables with denominator a
    power of den(x=0): the x-parts of the numerator times `_x_inverse`.
    """
    tri = _triangle(2, max_x_degree)
    N, g = _x_inverse(f.den, max_x_degree)
    parts = f.num.decompose_x()
    X = tri.mul([parts.get(key, 0) for key in tri.keys], N)
    return {key: RatFunc(v, g) for key, v in zip(tri.keys, X) if v}


# ---------------------------------------------------------------------------
# truncated power series in q
# ---------------------------------------------------------------------------


class QSeries:
    """Power series in one or two q variables, truncated in total q-degree.

    Keys are tuples of q-exponents.  Values may be any exact ring element
    supporting + and *.
    """

    __slots__ = ("q_arity", "trunc_q", "coeffs")

    def __init__(self, q_arity: int, trunc_q: int, coeffs: Mapping[tuple, object] | None = None):
        self.q_arity = q_arity
        self.trunc_q = trunc_q
        self.coeffs = {}
        if coeffs:
            for k, v in coeffs.items():
                if sum(k) <= trunc_q and not _vzero(v):
                    self.coeffs[k] = v

    @classmethod
    def one(cls, q_arity: int, trunc_q: int):
        return cls(q_arity, trunc_q, {(0,) * q_arity: _ONE})

    def get(self, key, default=_ZERO):
        return self.coeffs.get(tuple(key), default)

    def terms(self):
        return sorted(self.coeffs.items(), key=lambda t: (sum(t[0]), t[0]))

    def map_values(self, fn: Callable) -> "QSeries":
        return self._like({k: fn(v) for k, v in self.coeffs.items()})

    def _like(self, coeffs, trunc_q=None) -> "QSeries":
        return QSeries(self.q_arity, self.trunc_q if trunc_q is None else trunc_q, coeffs)

    def __neg__(self):
        return self._like({k: -v for k, v in self.coeffs.items()})

    def _check_compat(self, other: "QSeries"):
        if self.q_arity != other.q_arity:
            raise ValueError("incompatible series shapes")

    def __add__(self, other: "QSeries") -> "QSeries":
        self._check_compat(other)
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            w = out.get(k)
            nv = v if w is None else w + v
            if _vzero(nv):
                out.pop(k, None)
            else:
                out[k] = nv
        return self._like(out, trunc_q=min(self.trunc_q, other.trunc_q))

    def scale(self, c) -> "QSeries":
        return self._like({k: v * c for k, v in self.coeffs.items()})

    def __mul__(self, other):
        if not isinstance(other, QSeries):
            return self.scale(other)
        self._check_compat(other)
        tq = min(self.trunc_q, other.trunc_q)
        out: dict[tuple, object] = {}
        for k1, v1 in self.coeffs.items():
            q1 = sum(k1)
            for k2, v2 in other.coeffs.items():
                if q1 + sum(k2) > tq:
                    continue
                k = tuple(a + b for a, b in zip(k1, k2))
                w = out.get(k)
                p = v1 * v2
                out[k] = p if w is None else w + p
        return self._like(out, trunc_q=tq)

    __rmul__ = scale

    def inverse_unit(self) -> "QSeries":
        """Inverse of a series of rationals whose constant term is nonzero."""
        tri = _triangle(self.q_arity, self.trunc_q)
        N, g = tri.inverse(tri.from_series(self))
        return tri.series([Fraction(v, g) for v in N])

    def substitute_q_neg(self, weight: Callable[[tuple], object] | None = None) -> "QSeries":
        """Collapse (q1, q2) -> (-q, -q), optionally weighting each (d1, d2) term.

        Realizes the q_i = q * e^{i pi} substitution with the exact sign -1.
        """
        if self.q_arity != 2:
            raise ValueError("substitute_q_neg needs a two-variable series")
        out: dict[tuple, object] = {}
        for (d1, d2), v in self.coeffs.items():
            w = v if weight is None else v * weight((d1, d2))
            if _vzero(w):
                continue
            if (d1 + d2) % 2:
                w = w * -1
            prev = out.get((d1 + d2,))
            out[(d1 + d2,)] = w if prev is None else prev + w
        return QSeries(1, self.trunc_q, out)

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        if self.q_arity != other.q_arity:
            return False
        keys = set(self.coeffs) | set(other.coeffs)
        for k in keys:
            a = self.coeffs.get(k)
            b = other.coeffs.get(k)
            if a is None:
                a = _ZERO
            if b is None:
                b = _ZERO
            diff = a - b
            if not _vzero(diff):
                return False
        return True

    def __repr__(self):
        return f"QSeries(arity={self.q_arity}, trunc={self.trunc_q}, nterms={len(self.coeffs)})"


def _graded_keys(arity: int, trunc_q: int):
    if arity == 1:
        return [(d,) for d in range(trunc_q + 1)]
    if arity == 2:
        return [(d1, d - d1) for d in range(trunc_q + 1) for d1 in range(d + 1)]
    raise ValueError("q arity must be 1 or 2")


# ---------------------------------------------------------------------------
# series as flat lists
#
# A series in one or two variables truncated at total degree D is a list
# over its graded triangle of exponents.  A rational value enters as an int
# when it is integral and stays a Fraction otherwise (`rings._exact`, the
# rule SparsePoly coefficients follow too); Python's numeric tower
# keeps mixed arithmetic exact, so generic weights take the same code as
# zero weights.  Values may also be polynomials (SparsePoly), whose zero is
# skipped like the int 0.
# ---------------------------------------------------------------------------


def _quotient(a, c):
    """a / c in the recurrence: exact division by a polynomial c (else
    ArithmeticError); by a rational c, a polynomial a with its coefficients
    ints where integral, or a rational, an int when integral."""
    if isinstance(c, SparsePoly):
        q = a.divide_exact(c)
        if q is None:
            raise ArithmeticError("inverse-series recurrence failed to divide")
        return q
    if isinstance(a, SparsePoly):
        return a * Fraction(1, c)
    return _exact(Fraction(a, c))


class _Triangle:
    """List arithmetic for series in `arity` variables truncated at total
    degree D: slot i holds the coefficient of the monomial with exponents
    keys[i].  `inverse` is the package's one inverse-series recurrence
    and `mul` its product."""

    def __init__(self, arity: int, D: int):
        self.arity, self.D = arity, D
        self.keys = _graded_keys(arity, D)
        self.index = {key: i for i, key in enumerate(self.keys)}
        self.size = len(self.keys)
        # pairs[i]: (j, k) for every slot j with keys[i] + keys[j] = keys[k]
        self.pairs = [
            [(j, self.index[tuple(a + b for a, b in zip(ki, kj))])
             for j, kj in enumerate(self.keys) if sum(ki) + sum(kj) <= D]
            for ki in self.keys
        ]

    def one(self) -> list:
        return [1] + [0] * (self.size - 1)

    def mul(self, x: list, y: list) -> list:
        acc = [0] * self.size
        self.mul_into(acc, x, y)
        return acc

    def inverse(self, x: list) -> tuple[list, object]:
        """(N, g) with N / g the inverse of the series x, whose constant
        term c is nonzero, and g = c^(D+1): the coefficient at slot k has
        denominator dividing c^(deg k + 1), so N is integral (polynomial)
        when x is.  One recurrence, c N[k] = -sum_{i != 0} x[i] N[k - i],
        with no division when c = 1 (see `_quotient` otherwise)."""
        c = x[0]
        if not c:
            raise ZeroDivisionError("series has no constant term")
        unit = c == 1
        N, acc = [0] * self.size, [0] * self.size
        N[0] = c**self.D
        for k, pairs in enumerate(self.pairs):
            if acc[k]:
                N[k] = -acc[k] if unit else _quotient(-acc[k], c)
            if v := N[k]:
                for i, m in pairs:
                    if i and x[i]:
                        acc[m] += x[i] * v
        return N, c ** (self.D + 1)

    def identity(self, size: int) -> list:
        return [[self.one() if i == j else [0] * self.size for j in range(size)] for i in range(size)]

    def mul_into(self, acc: list, x: list, y: list) -> None:
        """acc += x y, in place."""
        for xi, pairs in zip(x, self.pairs):
            if xi:
                for j, k in pairs:
                    yj = y[j]
                    if yj:
                        acc[k] += xi * yj

    def mat_mul(self, A, B, C=None) -> list:
        """A B (+ C) for matrices of series lists; zero entries of A are
        skipped."""
        rows = [[(l, a) for l, a in enumerate(row) if any(a)] for row in A]
        out = []
        for i, row in enumerate(rows):
            out.append([])
            for j in range(len(B[0])):
                acc = list(C[i][j]) if C is not None else [0] * self.size
                for l, a in row:
                    self.mul_into(acc, a, B[l][j])
                out[i].append(acc)
        return out

    def from_series(self, ser: QSeries) -> list:
        return [_exact(ser.coeffs[key]) if key in ser.coeffs else 0 for key in self.keys]

    def series(self, x: list) -> QSeries:
        return QSeries(self.arity, self.D, {key: Fraction(v) for key, v in zip(self.keys, x) if v})


@functools.cache
def _triangle(arity: int, D: int) -> _Triangle:
    return _Triangle(arity, D)
