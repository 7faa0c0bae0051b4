"""Residues of univariate rational functions at finite points and at
infinity, plus the Residue-Theorem sum check.

Pole discovery is deliberately limited to caller-supplied candidate
locations: every denominator in scope factors into explicit linear
factors, so the check deflates the denominator at the candidates and
refuses to proceed if their multiplicities fall short of its degree.

Both residues read one term of an expansion at h = infinity
(`series._expand_parts`, which runs the package's one inverse-series
recurrence, `series._Triangle.inverse`): at a finite point, of the
Taylor heads at that point in the local variable; at infinity, of the
coefficients themselves.  Deflation by synthetic division comes from the
univariate helpers of `rings`.  The sum check extracts the coefficient
lists once and reads order and residue at each candidate from one
deflation of the denominator there.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .rings import RatFunc, _deflate, _divmod_linear, univariate_coeffs
from .series import _expand_parts

INFINITY = "inf"


@dataclass(frozen=True)
class ResidueReport:
    pole_location: object  # Fraction or INFINITY
    order: int
    residue: Fraction


class NonSplitDenominatorError(ValueError):
    """A denominator factor has no root among the supplied candidates."""


def _coeff_lists(f: RatFunc, var: str) -> tuple[list[int], list[int]]:
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


def _pole_at(num: list[Fraction], den: list[Fraction], z0: Fraction) -> tuple[int, int, Fraction]:
    """(m, order, residue) of num/den at z0, for ascending coefficient
    lists: m the root multiplicity of den, order that of the pole (m less
    that of num, and 0 at a regular point or for num = 0), and the
    coefficient of (z - z0)^(-1).  With den = (z - z0)^m u and u(z0) != 0,
    the residue is the t^(m-1) coefficient of num/u in t = z - z0, for
    which only the first m Taylor coefficients of num and of u at z0
    enter: the h^(1-m) term of their expansion at h = 1/t = infinity."""
    u, m = _deflate(den, z0)
    if m == 0:
        return 0, 0, Fraction(0)
    order = max(m - _deflate(num, z0)[1], 0) if any(num) else 0
    nsh, ush = ({-i: c for i, c in enumerate(_taylor_head(a, z0, m)) if c} for a in (num, u))
    return m, order, _expand_parts(nsh, ush, m).coeff(1 - m)


def _at_infinity(num: list[Fraction], den: list[Fraction]) -> Fraction:
    num_parts, den_parts = ({i: c for i, c in enumerate(a) if c} for a in (num, den))
    return -_expand_parts(num_parts, den_parts, 2).coeff(-1)


def residue_at(f: RatFunc, z0, var: str = "z") -> Fraction:
    """Coefficient of (z - z0)^(-1) in the local Laurent expansion."""
    return _pole_at(*_coeff_lists(f, var), Fraction(z0))[2]


def pole_order_at(f: RatFunc, z0, var: str = "z") -> int:
    """Order of the pole of f at z0 (0 at a regular point): the root
    multiplicity of den at z0 less that of num."""
    return _pole_at(*_coeff_lists(f, var), Fraction(z0))[1]


def residue_at_infinity(f: RatFunc, var: str = "z") -> Fraction:
    """Minus the z^-1 coefficient of the expansion of f at z = infinity."""
    return _at_infinity(*_coeff_lists(f, var))


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
