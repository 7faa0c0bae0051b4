"""Residues of univariate rational functions at finite points and at
infinity, plus the Residue-Theorem sum check.

Pole discovery is deliberately limited to caller-supplied candidate
locations: every denominator in scope factors into explicit linear
factors, so the check deflates the denominator at the candidates and
refuses to proceed if a nontrivial factor is left over.

Both residues read one term of an expansion run by the package's one
inverse-series recurrence (`series._expand_parts`): at a finite point,
of the Taylor heads at that point in the local variable; at infinity, of
the coefficients themselves.  Deflation by synthetic division comes
from the univariate helpers of `rings`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .rings import RatFunc, _deflate, _divmod_linear, _univariate_terms, univariate_coeffs
from .series import _expand_parts

INFINITY = "inf"


@dataclass(frozen=True)
class ResidueReport:
    pole_location: object  # Fraction or INFINITY
    order: int
    residue: Fraction


class NonSplitDenominatorError(ValueError):
    """A denominator factor has no root among the supplied candidates."""


def _coeff_lists(f: RatFunc, var: str) -> tuple[list[Fraction], list[Fraction]]:
    return univariate_coeffs(f.num, var), univariate_coeffs(f.den, var)


def _taylor_head(a: list[Fraction], z0: Fraction, m: int) -> list[Fraction]:
    """The first m coefficients of a(z + z0): the input's own at z0 = 0,
    else the successive remainders of division by (z - z0)."""
    if z0 == 0:
        return (a + [Fraction(0)] * m)[:m]
    out: list[Fraction] = []
    for _ in range(m):
        if not a:
            out.append(Fraction(0))
            continue
        a, r = _divmod_linear(a, z0)
        out.append(r)
    return out


def residue_at(f: RatFunc, z0, var: str = "z") -> Fraction:
    """Coefficient of (z - z0)^(-1) in the local Laurent expansion.

    With den = (z - z0)^m u and u(z0) != 0, it is the t^(m-1) coefficient
    of num/u in t = z - z0, for which only the first m Taylor coefficients
    of num and of u at z0 enter: the h^(1-m) term of their expansion at
    h = 1/t = infinity."""
    z0 = Fraction(z0)
    num, den = _coeff_lists(f, var)
    u, m = _deflate(den, z0)
    if m == 0:
        return Fraction(0)
    nsh, ush = ({-i: c for i, c in enumerate(_taylor_head(a, z0, m)) if c} for a in (num, u))
    return _expand_parts(nsh, ush, m).coeff(1 - m)


def pole_order_at(f: RatFunc, z0, var: str = "z") -> int:
    """Order of the pole of f at z0 (0 at a regular point): the root
    multiplicity of den at z0 less that of num."""
    z0 = Fraction(z0)
    num, den = _coeff_lists(f, var)
    if not any(num):
        return 0
    return max(_deflate(den, z0)[1] - _deflate(num, z0)[1], 0)


def residue_at_infinity(f: RatFunc, var: str = "z") -> Fraction:
    """Minus the z^-1 coefficient of the expansion of f at z = infinity."""
    return -_expand_parts(_univariate_terms(f.num, var), _univariate_terms(f.den, var), 2).coeff(-1)


def residue_sum_check(
    f: RatFunc, candidate_poles: Sequence, var: str = "z"
) -> tuple[bool, list[ResidueReport]]:
    """Residue Theorem on S^2: all residues (finite poles + infinity) sum to 0.

    The candidates must cover every root of the denominator; leftovers
    raise NonSplitDenominatorError.
    """
    num, den = _coeff_lists(f, var)
    reports: list[ResidueReport] = []
    total = Fraction(0)
    remaining = list(den)
    seen = set()
    for z0 in candidate_poles:
        z0 = Fraction(z0)
        if z0 in seen:
            continue
        seen.add(z0)
        remaining, mult = _deflate(remaining, z0)
        if mult == 0:
            continue
        r = residue_at(f, z0, var)
        order = pole_order_at(f, z0, var)
        if order >= 1:
            reports.append(ResidueReport(z0, order, r))
        total += r
    if len(remaining) > 1:
        raise NonSplitDenominatorError(
            "denominator has roots outside the supplied candidate poles"
        )
    rinf = residue_at_infinity(f, var)
    dn, dd = len(num) - 1, len(den) - 1
    reports.append(ResidueReport(INFINITY, max(dn - dd + 2, 0), rinf))
    total += rinf
    return total == 0, reports
