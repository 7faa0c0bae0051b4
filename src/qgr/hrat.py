"""Rational functions of h alone with a factored denominator: the values
of every series evaluated at a torus fixed point.

A value is num(h) / prod_r (h - r)^m, stored as the dense ascending
Fraction coefficients of num and the monic denominator as a
{root: multiplicity} map.  At a fixed point every denominator splits over
0 and the recursion points (alpha_k - alpha_j)/d, so a sum goes through
the lcm of the two root multisets and a product merges them, with no
polynomial gcd.  Common factors are cancelled lazily, by synthetic
division at the stored roots, only where a value is tested, evaluated at
one of its roots, or printed.

Values are immutable after construction.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .rings import RatFunc, SparsePoly, _deflate_once, _trim, poly_from_coeffs

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


class HRat:
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
    def poly(cls, coeffs) -> "HRat":
        """The polynomial with these ascending coefficients."""
        return cls(_trim([Fraction(c) for c in coeffs]), {})

    @classmethod
    def pole(cls, r, c=1) -> "HRat":
        """c / (h - r)."""
        return cls(_trim([Fraction(c)]), {Fraction(r): 1})

    @classmethod
    def convert(cls, v) -> "HRat":
        """An HRat as itself, a Fraction or int as a constant HRat."""
        if isinstance(v, HRat):
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
        if not isinstance(other, (HRat, int, Fraction)):
            return NotImplemented
        return (self - other).is_zero()

    __hash__ = None

    # -- arithmetic ---------------------------------------------------

    def __neg__(self) -> "HRat":
        return HRat([-c for c in self.coeffs], self.roots)

    def __add__(self, other) -> "HRat":
        if isinstance(other, (int, Fraction)):
            other = HRat.poly((other,))
        elif not isinstance(other, HRat):
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
        return HRat(_fractions(out, den), roots)

    __radd__ = __add__

    def __sub__(self, other) -> "HRat":
        return self + (-other)

    def __rsub__(self, other) -> "HRat":
        return (-self) + other

    def __mul__(self, other) -> "HRat":
        if isinstance(other, (int, Fraction)):
            if not other:
                return HRat([], {})
            return HRat([c * other for c in self.coeffs], self.roots)
        if not isinstance(other, HRat):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return HRat([], {})
        roots = dict(self.roots)
        for r, m in other.roots.items():
            roots[r] = roots.get(r, 0) + m
        return HRat(_conv(self.coeffs, other.coeffs), roots)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "HRat":
        out = HRat.poly((1,))
        for _ in range(k):
            out = out * self
        return out

    def flip_h(self) -> "HRat":
        """h -> -h: negate the roots; (-h - r)^m contributes (-1)^m."""
        sign = -1 if sum(self.roots.values()) % 2 else 1
        c = [v * (-sign if i % 2 else sign) for i, v in enumerate(self.coeffs)]
        return HRat(c, {-r: m for r, m in self.roots.items()})

    # -- cancellation, evaluation, printing ---------------------------

    def cancel(self) -> "HRat":
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
        return HRat(c, roots)

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
        return f"HRat({self.to_string()})"
