"""Exact arithmetic substrate: sparse multivariate polynomials over Q and
normalized rational functions.

A polynomial is a mapping from exponent tuples to rational coefficients;
zero coefficients are never stored.  A coefficient is held as an int while
it is integral and as a Fraction otherwise (`_exact`), so products and
sums of polynomials with integral coefficients run in int arithmetic, and
a large product of two homogeneous int polynomials is one big-int
multiplication (Kronecker substitution, `_mul_homogeneous`).
The monomial order is graded lexicographic for the variable order

    x1 < x2 < h < z < (auxiliary names, alphabetically)

and within equal total degree the highest-ranked variable is the most
significant.  All values are treated as immutable after construction and
every operation is pure, so callers may fan out independent computations
with no coordination.

Canonical string form (used verbatim inside all JSON payloads): integer
coefficients, monomials as ``var^exp`` joined by ``*``, terms joined by
``+``/``-`` in descending canonical order; ``^1`` and unit coefficients
are omitted; a rational function prints as ``(num)/(den)`` unless the
denominator is 1.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
import operator
from collections.abc import Iterable, Mapping
from fractions import Fraction

_ZERO = Fraction(0)

_FIXED_RANK = {"x1": 0, "x2": 1, "h": 2, "z": 3}
_XNAMES = ("x1", "x2")


def var_rank(name: str):
    """Sort key realizing x1 < x2 < h < z < auxiliary names, alphabetically."""
    return (_FIXED_RANK.get(name, len(_FIXED_RANK)), name)


def order_vars(names: Iterable[str]) -> tuple[str, ...]:
    return tuple(sorted(set(names), key=var_rank))


def monomial_key(exp: tuple[int, ...]):
    """Graded-lex key; larger key = larger monomial.

    Variables are stored in ascending rank order, so reversing the
    exponent tuple makes the highest-ranked variable most significant.
    """
    return (sum(exp), exp[::-1])


def _exact(v):
    """v as an int when it is integral; otherwise v itself."""
    return v.numerator if v.denominator == 1 else v


def _descending(exp: tuple[int, ...]):
    """Heap entry: ascending entries are descending `monomial_key` order."""
    deg, rev = monomial_key(exp)
    return -deg, tuple(-p for p in rev), exp


class _Record:
    """A value of the attributes named in `_fields` (never a cached_property):
    equal, with equal hashes, to one of its type with equal fields."""

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return f"{type(self).__name__}{self._values()!r}"


class SparsePoly:
    """Sparse multivariate polynomial over Q: each coefficient an int when
    integral, else a Fraction."""

    __slots__ = ("vars", "terms")

    def __init__(self, vars: tuple[str, ...], terms: Mapping[tuple[int, ...], int | Fraction], _clean: bool = False):
        self.vars = tuple(vars)
        if _clean:
            self.terms = dict(terms)
        else:
            self.terms = {e: _exact(Fraction(c)) for e, c in terms.items() if c != 0}

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, vars: tuple[str, ...]) -> "SparsePoly":
        return cls(vars, {}, _clean=True)

    @classmethod
    def const(cls, vars: tuple[str, ...], c) -> "SparsePoly":
        c = _exact(Fraction(c))
        if c == 0:
            return cls(vars, {}, _clean=True)
        return cls(vars, {(0,) * len(vars): c}, _clean=True)

    @classmethod
    def variable(cls, vars: tuple[str, ...], name: str) -> "SparsePoly":
        idx = vars.index(name)
        e = [0] * len(vars)
        e[idx] = 1
        return cls(vars, {tuple(e): 1}, _clean=True)

    # -- basic queries -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_const(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def const_value(self) -> Fraction:
        if not self.terms:
            return _ZERO
        [(e, c)] = self.terms.items()
        if sum(e) != 0:
            raise ValueError("not a constant polynomial")
        return Fraction(c)

    def degree_in(self, name: str) -> int:
        if not self.terms:
            return -1
        i = self.vars.index(name)
        return max(e[i] for e in self.terms)

    def used_vars(self) -> tuple[str, ...]:
        used = set()
        for e in self.terms:
            for i, p in enumerate(e):
                if p:
                    used.add(self.vars[i])
        return order_vars(used)

    def leading(self) -> tuple[tuple[int, ...], int | Fraction]:
        """Largest (exponent, coefficient) under the canonical order."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms, key=monomial_key)
        return e, self.terms[e]

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = SparsePoly.const(self.vars, other)
        if not isinstance(other, SparsePoly):
            return NotImplemented
        a, b = _unify(self, other)
        return a.terms == b.terms

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    # -- arithmetic ----------------------------------------------------

    def __neg__(self) -> "SparsePoly":
        return SparsePoly(self.vars, {e: -c for e, c in self.terms.items()}, _clean=True)

    def __add__(self, other) -> "SparsePoly":
        if isinstance(other, (int, Fraction)):
            other = SparsePoly.const(self.vars, other)
        if not isinstance(other, SparsePoly):
            return NotImplemented
        a, b = _unify(self, other)
        out = dict(a.terms)
        for e, c in b.terms.items():
            v = out.get(e, 0) + c
            if v:
                out[e] = _exact(v)
            else:
                out.pop(e, None)
        return SparsePoly(a.vars, out, _clean=True)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other if isinstance(other, SparsePoly) else SparsePoly.const(self.vars, -Fraction(other)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other) -> "SparsePoly":
        if isinstance(other, (int, Fraction)):
            c = _exact(Fraction(other))
            if c == 0:
                return SparsePoly.zero(self.vars)
            return SparsePoly(self.vars, {e: _exact(v * c) for e, v in self.terms.items()}, _clean=True)
        if not isinstance(other, SparsePoly):
            return NotImplemented
        a, b = _unify(self, other)
        return _mul_terms(a.vars, a.terms, b.terms, None, ())

    __rmul__ = __mul__

    def mul_trunc(self, other: "SparsePoly", max_xdeg: int | None) -> "SparsePoly":
        """Product with terms of total degree in x1, x2 above `max_xdeg`
        dropped; `max_xdeg=None` is the plain product."""
        a, b = _unify(self, other)
        xidx = tuple(i for i, v in enumerate(a.vars) if v in _XNAMES)
        return _mul_terms(a.vars, a.terms, b.terms, max_xdeg, xidx)

    def __pow__(self, k: int) -> "SparsePoly":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = SparsePoly.const(self.vars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    # -- structure -----------------------------------------------------

    def decompose_by(self, name: str) -> dict[int, "SparsePoly"]:
        """Split as sum_k name**k * f_k; values keep the ambient variable tuple."""
        i = self.vars.index(name)
        buckets: dict[int, dict] = {}
        for e, c in self.terms.items():
            e2 = list(e)
            k = e2[i]
            e2[i] = 0
            buckets.setdefault(k, {})[tuple(e2)] = c
        return {k: SparsePoly(self.vars, t, _clean=True) for k, t in buckets.items()}

    def decompose_x(self) -> dict[tuple[int, ...], "SparsePoly"]:
        """Split by the joint exponents of x1, x2; values have those exponents zeroed."""
        xidx = tuple(self.vars.index(v) for v in _XNAMES if v in self.vars)
        buckets: dict[tuple[int, ...], dict] = {}
        for e, c in self.terms.items():
            key = tuple(e[i] for i in xidx)
            e2 = list(e)
            for i in xidx:
                e2[i] = 0
            buckets.setdefault(key, {})[tuple(e2)] = c
        return {k: SparsePoly(self.vars, t, _clean=True) for k, t in buckets.items()}

    def substitute(self, assignments: Mapping[str, object]) -> "SparsePoly":
        """Substitute variables by Fractions or polynomials."""
        scalars: dict[int, Fraction] = {}
        values: dict[str, SparsePoly] = {}
        for name, val in assignments.items():
            if name not in self.vars:
                continue
            if isinstance(val, SparsePoly):
                values[name] = val
            else:
                scalars[self.vars.index(name)] = Fraction(val)
        # scalar values fold into the coefficients, term by term
        folded: dict[tuple[int, ...], object] = {}
        for e, c in self.terms.items():
            for i, v in scalars.items():
                if e[i]:
                    c = c * v ** e[i]
                    e = e[:i] + (0,) + e[i + 1:]
            folded[e] = folded.get(e, 0) + c
        target_vars = order_vars(set(self.vars).union(*(v.vars for v in values.values())))
        base = SparsePoly(self.vars, folded)
        if not values:
            return base.embed(target_vars)
        result = SparsePoly.zero(target_vars)
        # Horner would be faster; term-by-term is fine at the sizes in scope.
        pow_cache: dict[tuple[str, int], SparsePoly] = {}
        for e, c in base.terms.items():
            term = SparsePoly.const(target_vars, c)
            for i, p in enumerate(e):
                if p == 0:
                    continue
                name = self.vars[i]
                val = values.get(name)
                if val is None:
                    term = term * SparsePoly.variable(target_vars, name) ** p
                else:
                    key = (name, p)
                    if key not in pow_cache:
                        pow_cache[key] = val.embed(target_vars) ** p
                    term = term * pow_cache[key]
            result = result + term
        return result

    def eval_all(self, values: Mapping[str, object]) -> Fraction:
        """Evaluate at a full point; every used variable must be assigned."""
        vals = [Fraction(values[v]) if v in values else None for v in self.vars]
        total = _ZERO
        for e, c in self.terms.items():
            t = c
            for i, p in enumerate(e):
                if p:
                    if vals[i] is None:
                        raise ValueError(f"unassigned variable {self.vars[i]}")
                    t *= vals[i] ** p
            total += t
        return total

    def embed(self, newvars: tuple[str, ...]) -> "SparsePoly":
        if newvars == self.vars:
            return self
        pos = []
        for v in self.vars:
            if v not in newvars:
                if any(e[self.vars.index(v)] for e in self.terms):
                    raise ValueError(f"cannot drop used variable {v}")
                pos.append(None)
            else:
                pos.append(newvars.index(v))
        # a dropped variable has exponent 0 throughout, so no two terms meet
        out = {}
        m = len(newvars)
        for e, c in self.terms.items():
            e2 = [0] * m
            for i, p in enumerate(e):
                if p:
                    e2[pos[i]] = p
            out[tuple(e2)] = c
        return SparsePoly(newvars, out, _clean=True)

    def swap_x(self) -> "SparsePoly":
        """Exchange x1 and x2, which rank first in any space holding them."""
        if self.vars[:2] != _XNAMES:
            if set(_XNAMES) & set(self.vars):
                raise ValueError("swap_x needs both x1 and x2 in the variable space")
            return self
        return SparsePoly(self.vars, {(e[1], e[0]) + e[2:]: c for e, c in self.terms.items()}, _clean=True)

    def is_symmetric_x(self) -> bool:
        return self == self.swap_x()

    def divide_exact(self, divisor: "SparsePoly"):
        """Exact polynomial division; returns the quotient or None.

        The remainder's exponents sit in a heap in descending canonical
        order.  A cancelled term stays in the remainder as a zero until it
        is popped, so each exponent is pushed once.
        """
        a, d = _unify(self, divisor)
        if d.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        dl_e, dl_c = d.leading()
        dterms = [(e, c) for e, c in d.terms.items() if e != dl_e]
        rem = dict(a.terms)
        heap = [_descending(e) for e in rem]
        heapq.heapify(heap)
        quot: dict[tuple[int, ...], object] = {}
        while heap:
            e = heapq.heappop(heap)[-1]
            c = rem.pop(e)
            if not c:
                continue
            qe = tuple(ei - di for ei, di in zip(e, dl_e))
            if any(q < 0 for q in qe):
                return None
            # an int when dl_c divides c, a Fraction otherwise
            qc, r = divmod(c, dl_c)
            if r:
                qc = Fraction(c, dl_c)
            quot[qe] = qc
            for de, dc in dterms:
                ke = tuple(q + di for q, di in zip(qe, de))
                v = rem.get(ke)
                if v is None:
                    heapq.heappush(heap, _descending(ke))
                    v = 0
                rem[ke] = v - qc * dc
        return SparsePoly(a.vars, quot, _clean=True)

    # -- normalization helpers ------------------------------------------

    def content_denominator(self) -> int:
        return math.lcm(*(c.denominator for c in self.terms.values())) if self.terms else 1

    def integer_content(self) -> int:
        return math.gcd(*(abs(c.numerator) for c in self.terms.values())) if self.terms else 0

    # -- serialization ---------------------------------------------------

    def to_string(self) -> str:
        if not self.terms:
            return "0"
        vs, terms, parts = self.vars, self.terms, []
        for e in sorted(terms, key=monomial_key, reverse=True):
            c = terms[e]
            mono = "*".join([f"{vs[i]}^{p}" if p > 1 else vs[i] for i, p in enumerate(e) if p])
            mag = abs(c)
            body = f"{mag}*{mono}" if mono and mag != 1 else mono or str(mag)
            parts.append(("+" if c > 0 else "-") + body)
        parts[0] = parts[0].removeprefix("+")
        return "".join(parts)

    def __repr__(self):
        return f"SparsePoly({self.to_string()})"


def _unify(a: SparsePoly, b: SparsePoly) -> tuple[SparsePoly, SparsePoly]:
    if a.vars == b.vars:
        return a, b
    vs = order_vars(set(a.vars) | set(b.vars))
    return a.embed(vs), b.embed(vs)


def _mul_terms(vars, ta, tb, max_xdeg, xidx) -> SparsePoly:
    """Product of two term dicts over `vars`, without the terms whose degree
    in x1, x2 (positions `xidx`) exceeds `max_xdeg`; None keeps every term.

    A one-term factor only shifts exponents, so no two of its products
    collide and that case needs no packing.  An untruncated product of at
    least 256 term pairs whose operands are each homogeneous with int
    coefficients (every zero-weight ladder numerator, cofactor and chain
    product) is one big-int multiplication, `_mul_homogeneous`, unless its
    box of output exponents is too sparse for that to pay.  Every other
    product (a Fraction coefficient, a truncated product, a non-homogeneous
    operand: all weighted inputs) runs a loop over the term pairs.

    The loop packs exponent tuples into ints (Kronecker substitution): the
    exponent of vars[i] fills the bit field [i*width, (i+1)*width).  `width`
    is the bit length of the largest per-variable exponent sum the product
    can reach plus one spare bit, so every exponent sum fits its field.
    With no negative exponent (checked: packing would silently corrupt one)
    no carry or borrow crosses a field, adding packed keys adds exponent
    tuples, and each output key is unpacked once.  For a truncated product
    the longer operand is sorted by x-degree, and each row of the shorter
    one stops at the first term over the bound, found by bisection.  Int
    coefficients multiply and add as ints; a sum or product involving a
    Fraction may come out integral and goes through `_exact`.
    """
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
                out[e] = _exact(ca * cb)
        return SparsePoly(vars, out, _clean=True)
    if max_xdeg is None and len(ta) * len(tb) >= 256:
        out = _mul_homogeneous(vars, ta, tb, cols_a, cols_b)
        if out is not None:
            return out
    top = max(map(operator.add, map(max, cols_a), map(max, cols_b)), default=0)
    width = top.bit_length() + 1
    shifts = range(0, width * len(vars), width)

    def packed(items):
        return [(sum(map(operator.lshift, e, shifts)), c) for e, c in items]

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
    clean = {tuple([k >> s & mask for s in shifts]): _exact(v) for k, v in out.items() if v}
    return SparsePoly(vars, clean, _clean=True)


def _mul_homogeneous(vars, ta, tb, cols_a, cols_b) -> SparsePoly | None:
    """Product of the term dicts ta, tb (ta no longer than tb, exponent
    columns `cols_a`, `cols_b`) as one big-int product, or None unless both
    are homogeneous with int coefficients and the box of output exponents
    has at most a quarter as many slots as there are term pairs.

    Kronecker substitution: the last variable is dropped, since homogeneity
    restores its exponent, and the others index a mixed-radix slot with
    radix `max_a + max_b + 1` each, so no exponent sum carries.  A slot is
    `wb` whole bytes, two bits more than an output coefficient needs: it
    sums at most len(ta) products, each below 2**bits.  An operand is its
    positive slots minus its negative ones, built from bytes.  Adding `half`
    to every slot of the product leaves each slot `c + half` with no borrow
    between slots, so a slot reads back as `u - half` and `half` is zero.
    """
    if any(len({sum(e) for e in t}) > 1 or any(type(c) is not int for c in t.values()) for t in (ta, tb)):
        return None
    radices = [p + q + 1 for p, q in zip(map(max, cols_a[:-1]), map(max, cols_b[:-1]))]
    slots = math.prod(radices)
    if 4 * slots > len(ta) * len(tb):
        return None
    strides = [math.prod(radices[:i]) for i in range(len(radices))]
    bits = max(map(abs, ta.values())).bit_length() + max(map(abs, tb.values())).bit_length()
    wb = (bits + len(ta).bit_length() + 9) // 8

    def packed(t):
        pos, neg = bytearray(slots * wb), bytearray(slots * wb)
        for e, c in t.items():
            i = sum(map(operator.mul, e, strides)) * wb
            if c > 0:
                pos[i : i + wb] = c.to_bytes(wb, "little")
            else:
                neg[i : i + wb] = (-c).to_bytes(wb, "little")
        return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")

    half = 1 << (8 * wb - 1)
    zero = half.to_bytes(wb, "little")
    raw = (packed(ta) * packed(tb) + int.from_bytes(zero * slots, "little")).to_bytes(slots * wb, "little")
    deg = sum(next(iter(ta))) + sum(next(iter(tb)))
    kept = itertools.product(*map(range, reversed(radices)))
    chunks = [raw[i : i + wb] for i in range(0, slots * wb, wb)]
    out = {e[::-1] + (deg - sum(e),): int.from_bytes(c, "little") - half for e, c in zip(kept, chunks) if c != zero}
    return SparsePoly(vars, out, _clean=True)


# ---------------------------------------------------------------------------
# univariate helpers (RatFunc reduction, HRat, the residue module and the
# h-expansions of the operator layer)
# ---------------------------------------------------------------------------


def _univariate_terms(p: SparsePoly | int | Fraction, name: str) -> dict[int, object]:
    """{exponent: nonzero coefficient, an int when integral} of a polynomial
    that only uses `name`, or {0: p} for a nonzero rational constant p."""
    if not isinstance(p, SparsePoly):
        return {0: p} if p else {}
    used = p.used_vars()
    if used and used != (name,):
        raise ValueError(f"polynomial is not univariate in {name}: uses {used}")
    if name not in p.vars:
        return {0: c for c in p.terms.values()}
    i = p.vars.index(name)
    return {e[i]: c for e, c in p.terms.items()}


def univariate_coeffs(p: SparsePoly, name: str) -> list:
    """Ascending coefficient list, ints where integral, of a polynomial
    that only uses `name`."""
    terms = _univariate_terms(p, name)
    coeffs = [0] * (max(terms, default=0) + 1)
    for k, c in terms.items():
        coeffs[k] = c
    return coeffs


def poly_from_coeffs(coeffs, name: str) -> SparsePoly:
    vars = (name,)
    return SparsePoly(vars, {(i,): c for i, c in enumerate(coeffs) if c != 0})


def _trim(c: list) -> list:
    """Drop trailing zeros in place; return the list."""
    while c and not c[-1]:
        c.pop()
    return c


def _pseudo_rem(a: list[int], b: list[int]) -> tuple[list[int], int]:
    """Pseudo-remainder of ascending int coefficient lists, for b with no
    trailing zero: (r, k) with lead(b)^k a = quo * b + r and deg r < deg b,
    r trimmed, k the number of division steps.  Stays in ints."""
    d, lead = len(b) - 1, b[-1]
    r, k = _trim(list(a)), 0
    while len(r) > d:
        c = r.pop()
        shift = len(r) - d
        r = [lead * v for v in r]
        for i in range(d):
            r[shift + i] -= c * b[i]
        _trim(r)
        k += 1
    return r, k


def _primitive(c: list[int]) -> list[int]:
    """c trimmed and divided by its content, with positive leading coefficient."""
    c = _trim(list(c))
    if not c:
        return c
    g = math.gcd(*c)
    g = -g if c[-1] < 0 else g
    return [v // g for v in c]


def univariate_gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd, with positive leading coefficient, of ascending int
    coefficient lists (Euclid on primitive pseudo-remainders)."""
    a, b = _primitive(a), _primitive(b)
    while b:
        a, b = b, _primitive(_pseudo_rem(a, b)[0])
    return a


def _divmod_linear(a: list[int | Fraction], z0: int | Fraction) -> tuple[list[int | Fraction], int | Fraction]:
    """Synthetic division of ascending-coeff a by (z - z0): (quotient, a(z0))."""
    q = [_ZERO] * (len(a) - 1)
    r = a[-1]
    for i in range(len(a) - 2, -1, -1):
        q[i] = r
        r = a[i] + z0 * r
    return q, r


def _deflate(a: list[int | Fraction], z0: int | Fraction) -> tuple[list[int | Fraction], int]:
    """Divide a by (z - z0) as often as possible; return (quotient, multiplicity)."""
    mult = 0
    while len(a) > 1 and (qr := _divmod_linear(a, z0))[1] == 0:
        a, mult = qr[0], mult + 1
    return a, mult


class RatFunc:
    """Normalized quotient of two sparse polynomials.

    Invariants: den != 0; num and den have int coefficients with joint
    integer content 1; the leading coefficient of den under the canonical
    order is positive.  Equality compares numerators over equal
    denominators and is decided by cross-multiplication otherwise, so it
    does not rely on gcd-reduced representatives.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: SparsePoly, den: SparsePoly | None = None):
        if den is None:
            den = SparsePoly.const(num.vars, 1)
        num, den = _unify(num, den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            den = SparsePoly.const(num.vars, 1)
        num, den = _normalize_pair(num, den)
        self.num = num
        self.den = den

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_scalar(cls, c, vars: tuple[str, ...] = ()) -> "RatFunc":
        c = Fraction(c)
        return cls(SparsePoly.const(vars, c))

    # -- queries ----------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_const(self) -> bool:
        return self.num.is_const() and self.den.is_const()

    def const_value(self) -> Fraction:
        return self.num.const_value() / self.den.const_value()

    def used_vars(self) -> tuple[str, ...]:
        return order_vars(set(self.num.used_vars()) | set(self.den.used_vars()))

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = RatFunc.from_scalar(other, self.num.vars)
        elif isinstance(other, SparsePoly):
            other = RatFunc(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        if self.den == other.den:
            return self.num == other.num
        return self.num * other.den == other.num * self.den

    def __hash__(self):
        raise TypeError("RatFunc is not hashable")

    # -- arithmetic ---------------------------------------------------------

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __add__(self, other):
        other = _as_ratfunc(other, self)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        a, b = self, other
        if a.den == b.den:
            return RatFunc(a.num + b.num, a.den)
        # opportunistic common denominator when one divides the other; only
        # a denominator of no smaller total degree can be the dividend
        da, db = (max(map(sum, p.terms)) for p in (a.den, b.den))
        if db >= da and (q := b.den.divide_exact(a.den)) is not None:
            return RatFunc(a.num * q + b.num, b.den)
        if da >= db and (q := a.den.divide_exact(b.den)) is not None:
            return RatFunc(a.num + b.num * q, a.den)
        return RatFunc(a.num * b.den + b.num * a.den, a.den * b.den)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_ratfunc(other, self)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _as_ratfunc(other, self)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return RatFunc.from_scalar(0, self.num.vars)
        # cheap cross-cancellation attempts keep chained products small
        num1, den2 = _cancel(self.num, other.den)
        num2, den1 = _cancel(other.num, self.den)
        return RatFunc(num1 * num2, den1 * den2)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_ratfunc(other, self)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return self * RatFunc(other.den, other.num)

    def __rtruediv__(self, other):
        return _as_ratfunc(other, self) / self

    def __pow__(self, k: int):
        if k < 0:
            return RatFunc(self.den**(-k), self.num**(-k))
        return RatFunc(self.num**k, self.den**k)

    # -- operations -----------------------------------------------------------

    def substitute(self, assignments: Mapping[str, object]) -> "RatFunc":
        return RatFunc(self.num.substitute(assignments), self.den.substitute(assignments))

    def eval_all(self, values: Mapping[str, object]) -> Fraction:
        d = self.den.eval_all(values)
        if d == 0:
            raise ZeroDivisionError("denominator vanishes at evaluation point")
        return self.num.eval_all(values) / d

    def swap_x(self) -> "RatFunc":
        return RatFunc(self.num.swap_x(), self.den.swap_x())

    def reduced(self) -> "RatFunc":
        """Gcd-reduced representative when num and den are univariate."""
        used = self.used_vars()
        if self.den.is_const() or len(used) != 1:
            return self
        name = used[0]
        ca = univariate_coeffs(self.num, name)
        cb = univariate_coeffs(self.den, name)
        g = univariate_gcd(ca, cb)
        if len(g) <= 1:
            return self
        gp = poly_from_coeffs(g, name)
        qn = self.num.divide_exact(gp)
        qd = self.den.divide_exact(gp)
        if qn is None or qd is None:  # pragma: no cover - gcd divides by construction
            return self
        return RatFunc(qn, qd)

    def to_string(self) -> str:
        if self.den.is_const() and self.den.const_value() == 1:
            return self.num.to_string()
        return f"({self.num.to_string()})/({self.den.to_string()})"

    def __repr__(self):
        return f"RatFunc({self.to_string()})"


def _as_ratfunc(other, like: RatFunc):
    if isinstance(other, RatFunc):
        return other
    if isinstance(other, SparsePoly):
        return RatFunc(other)
    if isinstance(other, (int, Fraction)):
        return RatFunc.from_scalar(other, like.num.vars)
    return NotImplemented


def _cancel(num: SparsePoly, den: SparsePoly):
    """Cheap cross-cancellation: only monomial denominators are attempted
    (full division attempts on dense inputs dominate runtime otherwise)."""
    if den.is_const() or len(den.terms) != 1:
        return num, den
    q = num.divide_exact(den)
    if q is not None:
        return q, SparsePoly.const(den.vars, 1)
    return num, den


def _normalize_pair(num: SparsePoly, den: SparsePoly):
    """Scale to int coefficients of joint content 1, leading den term > 0."""
    dn = math.lcm(num.content_denominator(), den.content_denominator())
    if dn != 1:
        num = num * dn
        den = den * dn
    g = math.gcd(num.integer_content(), den.integer_content())
    if den.leading()[1] < 0:
        g = -g
    if g != 1:
        num, den = (SparsePoly(p.vars, {e: c // g for e, c in p.terms.items()}, _clean=True) for p in (num, den))
    return num, den
