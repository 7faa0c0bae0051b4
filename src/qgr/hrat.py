"""Rational functions of h alone with a factored denominator: the values
of every series evaluated at a torus fixed point.

A value is N(h) / (g prod_r (h - r)^m): the dense ascending int
coefficients of N, one int g > 0 with gcd(g, N) = 1, and the roots
r = p/q of the monic denominator as reduced int pairs (p, q), q > 0,
mapped to their multiplicities.  At a fixed point every denominator
splits over 0 and the recursion points (alpha_k - alpha_j)/d, so a sum
goes through the lcm of the two root multisets and a product merges them,
with no polynomial gcd.  Lifting by a root multiplies N by q h - p and g
by q, so all arithmetic runs on ints; a Fraction is built only where a
value leaves the type.  Common factors are cancelled lazily, by exact
integer deflation at the stored roots, only where a value is tested,
evaluated at one of its roots, or printed.

Values are immutable after construction.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .rings import RatFunc, SparsePoly, poly_from_coeffs


def _lift(c: list, g: int, roots) -> tuple[list, int]:
    """c/g times prod (h - p/q)^m over the ((p, q), m) pairs, as
    (c prod (q h - p)^m, g prod q^m)."""
    for (p, q), m in roots:
        for _ in range(m):
            c = [-p * c[0], *[q * x - p * y for x, y in zip(c, c[1:])], q * c[-1]]
        g *= q**m
    return c, g


def _reduced(c: list, g: int, roots: dict) -> "HRat":
    """c/g over `roots`, c a fresh list, with its trailing zeros and common factor removed."""
    while c and not c[-1]:
        c.pop()
    if not c:
        return HRat([], 1, {})
    k = math.gcd(g, *c)
    if k > 1:
        c, g = [x // k for x in c], g // k
    return HRat(c, g, roots)


def _value(c: list, g: int, roots, pw: int, qw: int) -> tuple[int, int]:
    """c / (g prod (h - p/q)^m) over the ((p, q), m) pairs at h = pw/qw,
    qw > 0, as an unreduced int pair (num, den), den != 0.  A root at
    pw/qw itself is left out of the product: then this is the value there
    of (h - pw/qw)^m times the function."""
    # Horner leaves top = N(w) qw^deg and qk = qw^(deg + 1); w - p/q = (pw q - p qw) / (qw q)
    top, qk = 0, 1
    for x in reversed(c):
        top, qk = top * pw + x * qk, qk * qw
    bot = g * qk
    for (p, q), m in roots:
        if d := pw * q - p * qw:
            top *= (qw * q) ** m
            bot *= d**m
    return top * qw, bot


def _deflate(c: list, p: int, q: int):
    """c / (q h - p), or None unless exact: by Gauss's lemma the quotient by
    a factor is integral, so a nonzero remainder at any step means none."""
    if len(c) < 2:
        return None
    out, r = [0] * (len(c) - 1), c[-1]
    for i in range(len(c) - 2, -1, -1):
        out[i], rem = divmod(r, q)
        if rem:
            return None
        r = c[i] + p * out[i]
    return None if r else out


class HRat:
    """N(h) / (g prod (h - p/q)^m) over Q, as in the module docstring:
    `coeffs` holds N with no trailing zero (empty for zero, which has g = 1
    and no roots), `denom` holds g, and `roots` maps each (p, q) to m."""

    __slots__ = ("coeffs", "denom", "roots")

    def __init__(self, coeffs: list, denom: int, roots: dict):
        self.coeffs, self.denom = coeffs, denom
        self.roots = roots if coeffs else {}

    # -- constructors -------------------------------------------------

    @classmethod
    def poly(cls, coeffs) -> "HRat":
        """The polynomial with these ascending int or Fraction coefficients."""
        g = math.lcm(*(c.denominator for c in coeffs))
        return _reduced([c.numerator * (g // c.denominator) for c in coeffs], g, {})

    @classmethod
    def pole(cls, r, c=1) -> "HRat":
        """c / (h - r)."""
        v = cls.poly((c,))
        return cls(v.coeffs, v.denom, {r.as_integer_ratio(): 1})

    @classmethod
    def convert(cls, v) -> "HRat":
        """An HRat as itself, a Fraction or int as a constant HRat."""
        return v if isinstance(v, HRat) else cls.poly((v,))

    # -- views: N/g and the monic denominator as SparsePoly over ("h",) --

    @property
    def num(self) -> SparsePoly:
        return poly_from_coeffs([Fraction(x, self.denom) for x in self.coeffs], "h")

    @property
    def den(self) -> SparsePoly:
        c, g = _lift([1], 1, self.roots.items())
        return poly_from_coeffs([Fraction(x, g) for x in c], "h")

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
        return HRat([-x for x in self.coeffs], self.denom, self.roots)

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
        (ia, ga), (ib, gb), roots = (self.coeffs, self.denom), (other.coeffs, other.denom), ra
        if ra != rb:
            roots, extra_a, extra_b = dict(ra), [], []
            for r, m in rb.items():
                ma = ra.get(r, 0)
                if m > ma:
                    extra_a.append((r, m - ma))
                    roots[r] = m
                elif ma > m:
                    extra_b.append((r, ma - m))
            extra_b.extend((r, m) for r, m in ra.items() if r not in rb)
            (ia, ga), (ib, gb) = _lift(ia, ga, extra_a), _lift(ib, gb, extra_b)
        g = math.lcm(ga, gb)
        sa, sb = g // ga, g // gb
        if len(ia) < len(ib):
            ia, ib, sa, sb = ib, ia, sb, sa
        out = [x * sa for x in ia]
        for i, y in enumerate(ib):
            out[i] += y * sb
        return _reduced(out, g, roots)

    __radd__ = __add__

    def __sub__(self, other) -> "HRat":
        return self + (-other)

    def __rsub__(self, other) -> "HRat":
        return (-self) + other

    def __mul__(self, other) -> "HRat":
        if isinstance(other, (int, Fraction)):
            return _reduced([x * other.numerator for x in self.coeffs], self.denom * other.denominator, self.roots)
        if not isinstance(other, HRat):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return HRat([], 1, {})
        roots = dict(self.roots)
        for r, m in other.roots.items():
            roots[r] = roots.get(r, 0) + m
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return _reduced(out, self.denom * other.denom, roots)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "HRat":
        out = HRat.poly((1,))
        for _ in range(k):
            out = out * self
        return out

    def flip_h(self) -> "HRat":
        """h -> -h: negate the roots; (-h - r)^m contributes (-1)^m."""
        sign = -1 if sum(self.roots.values()) % 2 else 1
        c = [x * (-sign if i % 2 else sign) for i, x in enumerate(self.coeffs)]
        return HRat(c, self.denom, {(-p, q): m for (p, q), m in self.roots.items()})

    # -- cancellation, evaluation, printing ---------------------------

    def cancel(self) -> "HRat":
        """Divide out every factor (h - p/q) shared by N and the
        denominator: N = (q h - p) Q makes N / (h - p/q) = q Q."""
        c, s, roots = self.coeffs, 1, {}
        for (p, q), m in self.roots.items():
            k = 0
            while k < m and (quot := _deflate(c, p, q)) is not None:
                c, s, k = quot, s * q, k + 1
            if k < m:
                roots[(p, q)] = m - k
        if c is self.coeffs:
            return self
        return _reduced([x * s for x in c], self.denom, roots)

    def value_at(self, pw: int, qw: int) -> tuple[int, int]:
        """The value at h = pw/qw (reduced, qw > 0) as an unreduced int pair
        (num, den), den != 0; ZeroDivisionError if pw/qw is a pole."""
        v = self.cancel() if (pw, qw) in self.roots else self
        if (pw, qw) in v.roots:
            raise ZeroDivisionError(f"pole at h={Fraction(pw, qw)}")
        return _value(v.coeffs, v.denom, v.roots.items(), pw, qw)

    def at(self, w) -> Fraction:
        """The value at h = w; ZeroDivisionError if w is a pole."""
        return Fraction(*self.value_at(w.numerator, w.denominator))

    def residue(self, pw: int, qw: int) -> tuple[int, int]:
        """The residue at a root (pw, qw) of multiplicity 1, as an unreduced
        int pair: the value at it of (h - pw/qw) times this value,
        N(r) / (g prod_{r' != r} (r - r')^m').  A root at which N vanishes
        is no pole, and its residue is 0."""
        return _value(self.coeffs, self.denom, self.roots.items(), pw, qw)

    def to_ratfunc(self) -> RatFunc:
        """The cancelled value as a gcd-reduced RatFunc: the printed form."""
        v = self.cancel()
        return RatFunc(v.num, v.den).reduced()

    def to_string(self) -> str:
        return self.to_ratfunc().to_string()

    def __repr__(self):
        return f"HRat({self.to_string()})"
