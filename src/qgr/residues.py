"""Residues of univariate rational functions at finite points and at
infinity, plus the Residue-Theorem sum check.

Pole discovery is deliberately limited to caller-supplied candidate
locations: every denominator in scope factors into explicit linear
factors, so the check deflates the denominator at the candidates and
refuses to proceed if a nontrivial factor is left over.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .rings import RatFunc, univariate_coeffs

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


def _divmod_linear(a: list[Fraction], z0: Fraction) -> tuple[list[Fraction], Fraction]:
    """Synthetic division of ascending-coeff a by (z - z0): (quotient, a(z0))."""
    q = [Fraction(0)] * (len(a) - 1)
    r = a[-1]
    for i in range(len(a) - 2, -1, -1):
        q[i] = r
        r = a[i] + z0 * r
    return q, r


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


def _series_inverse(u: list[Fraction], order: int) -> list[Fraction]:
    """First `order`+1 coefficients of 1/u(z) for u(0) != 0."""
    inv = [Fraction(1) / u[0]]
    for k in range(1, order + 1):
        s = Fraction(0)
        for t in range(1, k + 1):
            if t < len(u):
                s += u[t] * inv[k - t]
        inv.append(-s / u[0])
    return inv


def residue_at(f: RatFunc, z0, var: str = "z") -> Fraction:
    """Coefficient of (z - z0)^(-1) in the local Laurent expansion.

    With den = (z - z0)^m u and u(z0) != 0, only the first m Taylor
    coefficients of num and of u at z0 enter."""
    z0 = Fraction(z0)
    num, den = _coeff_lists(f, var)
    u, m = _deflate(den, z0)
    if m == 0:
        return Fraction(0)
    nsh = _taylor_head(num, z0, m)
    uinv = _series_inverse(_taylor_head(u, z0, m), m - 1)
    return sum((nsh[i] * uinv[m - 1 - i] for i in range(m)), Fraction(0))


def pole_order_at(f: RatFunc, z0, var: str = "z") -> int:
    """Order of the pole of f at z0 (0 at a regular point): the root
    multiplicity of den at z0 less that of num."""
    z0 = Fraction(z0)
    num, den = _coeff_lists(f, var)
    if not any(num):
        return 0
    return max(_deflate(den, z0)[1] - _deflate(num, z0)[1], 0)


def residue_at_infinity(f: RatFunc, var: str = "z") -> Fraction:
    """Equals -Res_{w=0} w^-2 f(1/w)."""
    num, den = _coeff_lists(f, var)
    if not num or all(c == 0 for c in num):
        return Fraction(0)
    dn, dd = len(num) - 1, len(den) - 1
    s = dd - dn - 2
    if s >= 0:
        return Fraction(0)
    # g(w) = rev(num)/rev(den) is a unit-denominator power series at w=0
    revn = num[::-1]
    revd = den[::-1]
    order = -1 - s
    dinv = _series_inverse(revd, order)
    coeff = Fraction(0)
    for i in range(order + 1):
        if i < len(revn):
            coeff += revn[i] * dinv[order - i]
    return -coeff


def _deflate_once(a: list[Fraction], z0: Fraction):
    """Synthetic division of ascending-coeff a by (z - z0); None unless exact."""
    if len(a) < 2:
        return None
    q, r = _divmod_linear(a, z0)
    return q if r == 0 else None


def _deflate(den: list[Fraction], z0: Fraction) -> tuple[list[Fraction], int]:
    """Divide den by (z - z0) as often as possible; return (quotient, multiplicity)."""
    mult = 0
    cur = list(den)
    while True:
        q = _deflate_once(cur, z0)
        if q is None:
            break
        cur = q
        mult += 1
    return cur, mult


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
