"""Residues of univariate rational functions at finite points and at
infinity, plus the Residue-Theorem sum check.

Pole discovery is deliberately limited to caller-supplied candidate
locations: every denominator in scope factors into explicit linear
factors, so the check deflates the denominator at the candidates and
refuses to proceed if their multiplicities fall short of its degree.

Coefficient lists are ints while integral (`rings.univariate_coeffs`),
and an integral candidate is passed on as an int, so synthetic division
by (z - z0) (the univariate helpers of `rings`) stays in int arithmetic.
At a finite point the denominator is deflated once; the first m Taylor
coefficients there of the numerator and of the deflated denominator give
both the pole order and the residue, the latter as one term of their
expansion at h = infinity (`series._expand_parts`).  At infinity the
residue is read off the remainder of num modulo den.  The sum check
extracts the coefficient lists once.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

from .rings import RatFunc, _Record, _deflate, _divmod_linear, _exact, _pseudo_rem, univariate_coeffs
from .series import _expand_parts

INFINITY = "inf"
_ZERO = Fraction(0)


class ResidueReport(_Record):
    _fields = ("pole_location", "order", "residue")

    def __init__(self, pole_location, order: int, residue: Fraction):
        self.pole_location = pole_location  # Fraction or INFINITY
        self.order, self.residue = order, residue


class NonSplitDenominatorError(ValueError):
    """A denominator factor has no root among the supplied candidates."""


def _coeff_lists(f: RatFunc, var: str) -> tuple[list[int], list[int]]:
    return univariate_coeffs(f.num, var), univariate_coeffs(f.den, var)


def _taylor_head(a: list, z0: int | Fraction, m: int) -> list:
    """The first m coefficients of a(z + z0): the input's own at z0 = 0,
    else the successive remainders of division by (z - z0)."""
    if z0 == 0:
        return (a + [0] * m)[:m]
    out = []
    for _ in range(m):
        if not a:
            out.append(0)
            continue
        a, r = _divmod_linear(a, z0)
        out.append(r)
    return out


def _pole_at(num: list, den: list, z0: int | Fraction) -> tuple[int, int, Fraction]:
    """(m, order, residue) of num/den at z0, for ascending coefficient
    lists: m the root multiplicity of den, order that of the pole (m less
    that of num, and 0 at a regular point or for num = 0), and the
    coefficient of (z - z0)^(-1).  An integral z0 is divided by as an int.
    With den = (z - z0)^m u and u(z0) != 0, both come from the first m
    Taylor coefficients of num and of u at z0: the order is m less the
    index of the first nonzero one of num (none: order 0), and the residue
    is the t^(m-1) coefficient of num/u in t = z - z0, the h^(1-m) term of
    their expansion at h = 1/t = infinity."""
    z0 = _exact(z0)
    u, m = _deflate(den, z0)
    if m == 0:
        return 0, 0, _ZERO
    nhead = _taylor_head(num, z0, m)
    order = m - next((i for i, c in enumerate(nhead) if c), m)
    nsh, ush = ({-i: c for i, c in enumerate(head) if c} for head in (nhead, _taylor_head(u, z0, m)))
    return m, order, _expand_parts(nsh, ush, m).coeff(1 - m)


def _at_infinity(num: list, den: list) -> Fraction:
    """Minus the z^-1 coefficient of num/den at z = infinity.  With
    num = quo * den + r and deg r < deg den = d, the polynomial quo has no
    such term and r/den = (r_(d-1) / lead(den)) z^-1 + O(z^-2), so the
    residue is -r_(d-1) / lead(den).  The remainder is taken in ints, as
    the pseudo-remainder lead(den)^k num mod den (`rings._pseudo_rem`)."""
    d, lead = len(den) - 1, den[-1]
    r, k = _pseudo_rem(num, den)
    if d == 0 or len(r) < d:
        return _ZERO
    return -Fraction(r[d - 1]) / lead ** (k + 1)


def residue_at(f: RatFunc, z0, var: str = "z") -> Fraction:
    """Coefficient of (z - z0)^(-1) in the local Laurent expansion."""
    return _pole_at(*_coeff_lists(f, var), Fraction(z0))[2]


def pole_order_at(f: RatFunc, z0, var: str = "z") -> int:
    """Order of the pole of f at z0 (0 at a regular point): the root
    multiplicity of den at z0 less that of num."""
    return _pole_at(*_coeff_lists(f, var), Fraction(z0))[1]


def residue_sum_check(
    f: RatFunc, candidate_poles: Sequence, var: str = "z"
) -> tuple[bool, list[ResidueReport]]:
    """Residue Theorem on S^2: all residues (finite poles + infinity) sum to 0.

    The candidates must cover every root of the denominator, i.e. their
    multiplicities must add up to its degree; otherwise
    NonSplitDenominatorError is raised.
    """
    num, den = _coeff_lists(f, var)
    reports: list[ResidueReport] = []
    total = Fraction(0)
    found = 0
    for z0 in dict.fromkeys(map(Fraction, candidate_poles)):
        m, order, r = _pole_at(num, den, z0)
        found += m
        if order >= 1:
            reports.append(ResidueReport(z0, order, r))
        total += r
    if found < len(den) - 1:
        raise NonSplitDenominatorError(
            "denominator has roots outside the supplied candidate poles"
        )
    rinf = _at_infinity(num, den)
    dn, dd = len(num) - 1, len(den) - 1
    reports.append(ResidueReport(INFINITY, max(dn - dd + 2, 0), rinf))
    total += rinf
    return total == 0, reports
