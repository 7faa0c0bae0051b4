"""The ring H*(Gr(2,n)) and its equivariant counterpart: Schur basis on
two-row partitions in the 2x(n-2) box, ideal reduction, Poincare pairing,
diagonal classes, fixed-point data and Atiyah-Bott integration.

The non-equivariant functions take n; the equivariant ones take the
torus weights alphas = (a_1, ..., a_n), Fractions assumed pairwise
distinct, and enumerate the fixed points through fixed_points(n).

Basis convention: the degree-k classes are the Schur polynomials s_lam
with |lam| = k and lam inside the box, indexed j = 0, 1, ... by
descending first row.  Duality pairs lam with its box complement
lam^c = (n-2-lam2, n-2-lam1).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .rings import SparsePoly, _Record, order_vars
from .series import _vzero

XV = ("x1", "x2")

Partition = tuple  # (a, b) with a >= b >= 0


class GenericityError(ValueError):
    """Supplied torus weights hit a resonance of an in-scope denominator."""


def default_generic_alpha(n: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(7**m) for m in range(1, n + 1))


def genericity_check(alpha, max_degree: int) -> None:
    """Abort early if a scheduled denominator vanishes.

    Covers alpha_j - alpha_m + (l/d)(alpha_k - alpha_j) for d <= max_degree,
    1 <= l <= d, plus pairwise distinctness and alpha_i + alpha_j != 0
    (eta nonvanishing for the polynomiality checks).
    """
    n = len(alpha)
    # every test is homogeneous and linear in alpha, so it runs exactly on
    # the weights scaled to integers by the lcm of their denominators
    alpha = [Fraction(a) for a in alpha]
    scale = lcm(*(a.denominator for a in alpha))
    w = [(a * scale).numerator for a in alpha]
    if len(set(w)) != n:
        raise GenericityError("alpha values must be pairwise distinct")
    for i in range(n):
        for j in range(n):
            if w[i] + w[j] == 0:
                raise GenericityError("alpha_i + alpha_j vanishes")
    for d in range(1, max_degree + 1):
        # the resonance alpha_j - alpha_m + (l/d)(alpha_k - alpha_j) = 0
        # reads d w_j + l (w_k - w_j) = d w_m
        dw = [d * v for v in w]
        targets = set(dw)
        for l in range(1, d + 1):
            for j in range(n):
                for k in range(n):
                    if k == j:
                        continue
                    v = dw[j] + l * (w[k] - w[j])
                    if v not in targets:
                        continue
                    for m in range(n):
                        if l == d and m == k:
                            continue
                        if dw[m] == v:
                            raise GenericityError(
                                f"resonance at d={d}, l={l}, (j,k,m)=({j+1},{k+1},{m+1})"
                            )


# ---------------------------------------------------------------------------
# partitions and Schur polynomials
# ---------------------------------------------------------------------------


def box_partitions(n: int) -> list[Partition]:
    """All two-row partitions inside the 2x(n-2) box, graded then by index."""
    out = []
    for k in range(2 * (n - 2) + 1):
        out.extend(partitions_of_degree(n, k))
    return out


def partitions_of_degree(n: int, k: int) -> list[Partition]:
    """Degree-k box partitions; index j runs over descending first row."""
    out = []
    for a in range(min(k, n - 2), (k + 1) // 2 - 1, -1):
        b = k - a
        if 0 <= b <= a and a <= n - 2:
            out.append((a, b))
    return out


def complement(lam: Partition, n: int) -> Partition:
    return (n - 2 - lam[1], n - 2 - lam[0])


def h_complete(m: int) -> SparsePoly:
    """Complete symmetric polynomial of degree m in x1, x2."""
    return SparsePoly(XV, {(i, m - i): Fraction(1) for i in range(m + 1)})


def schur_poly(lam: Partition) -> SparsePoly:
    """Two-row Schur polynomial: s_(a,b) = (x1 x2)^b h_(a-b)."""
    a, b = lam
    if a < b or b < 0:
        raise ValueError(f"not a partition: {lam}")
    e2b = SparsePoly(XV, {(b, b): Fraction(1)})
    return e2b * h_complete(a - b)


def schur_reduce(p: SparsePoly, n: int) -> dict[Partition, object]:
    """Class of a symmetric polynomial in H*(Gr(2,n)): its Schur
    coordinates inside the box, as {partition: coefficient}."""
    if not p.is_symmetric_x():
        raise ValueError("polynomial is not symmetric in x1, x2")
    if not set(p.used_vars()) <= set(XV):
        raise ValueError("polynomial uses variables besides x1, x2")
    parts = p.embed(order_vars(set(p.vars) | set(XV))).decompose_x()
    return box_schur({e: c.const_value() for e, c in parts.items()}, n)


def box_schur(values_by_exp: dict[tuple[int, int], object], n: int) -> dict[Partition, object]:
    """Schur coordinates of a symmetric form in x1, x2 given by exponent
    values, read degree by degree (`graded_to_schur`), without s_lam for
    lam1 >= n-1: the box classes in H*(Gr(2,n)), zeros dropped."""
    graded: dict[int, dict] = {}
    for e, v in values_by_exp.items():
        graded.setdefault(e[0] + e[1], {})[e] = v
    return {lam: c for r, vals in graded.items()
            for lam, c in graded_to_schur(vals, r).items() if lam[0] <= n - 2}


def graded_to_schur(values_by_exp: dict[tuple[int, int], object], r: int) -> dict[Partition, object]:
    """Schur coordinates of a symmetric degree-r form given by exponent values.

    values_by_exp maps (e1, e2) with e1+e2 = r to arbitrary ring values;
    symmetry values[(a,b)] == values[(b,a)] is assumed.  Inverts the
    unitriangular monomial-to-Schur change of basis m_(a,b) = s_(a,b) -
    s_(a-1,b+1).
    """

    def val(b):
        v = values_by_exp.get((r - b, b))
        return values_by_exp.get((b, r - b)) if v is None else v

    out: dict[Partition, object] = {}
    for b in range(r // 2 + 1):
        vb = val(b)
        vp = val(b - 1) if b > 0 else None
        if vb is None and vp is None:
            continue
        if vp is None:
            cur = vb
        elif vb is None:
            cur = -vp
        else:
            cur = vb - vp
        if not _vzero(cur):
            out[(r - b, b)] = cur
    return out


# ---------------------------------------------------------------------------
# pairing and diagonals
# ---------------------------------------------------------------------------


def pairing(a: dict[Partition, object], b: dict[Partition, object], n: int):
    """Integral over Gr(2,n) of a*b, for classes given as {partition:
    coefficient}, via complementary-partition duality."""
    total = Fraction(0)
    for lam, c in a.items():
        mu = complement(lam, n)
        if mu in b:
            total = total + c * b[mu]
    return total


def diagonal(n: int) -> dict[tuple[Partition, Partition], Fraction]:
    """Poincare dual of the diagonal: sum of s_lam (x) s_{lam^c}."""
    return {(lam, complement(lam, n)): Fraction(1) for lam in box_partitions(n)}


# ---------------------------------------------------------------------------
# fixed points and localization
# ---------------------------------------------------------------------------


def fixed_points(n: int) -> list[tuple[int, int]]:
    """The torus-fixed points p_ij of Gr(2,n) as ordered pairs (i, j),
    i != j, 1-based, in lexicographic order; each point appears twice."""
    return [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]


class FixedPointData(_Record):
    _fields = ("i", "j", "phi", "euler_normal", "det_euler")

    def __init__(self, i: int, j: int, phi: SparsePoly, euler_normal: Fraction, det_euler: Fraction):
        self.i, self.j, self.phi, self.euler_normal, self.det_euler = i, j, phi, euler_normal, det_euler


def euler_tangent(alphas, i: int, j: int) -> Fraction:
    """e(T_Gr) restricted to p_ij: prod_{k not in {i,j}} (a_i-a_k)(a_j-a_k)."""
    ai, aj = alphas[i - 1], alphas[j - 1]
    out = Fraction(1)
    for k, ak in enumerate(alphas, 1):
        if k not in (i, j):
            out *= (ai - ak) * (aj - ak)
    return out


def localization_data(alphas) -> list[FixedPointData]:
    """Per fixed point: the class phi_ij = prod_{k not in {i,j}} (x1-a_k)(x2-a_k),
    which restricts to e(T)|_p at p_ij and p_ji and to 0 elsewhere, with
    e(T)|_p and a_i + a_j."""
    x1 = SparsePoly.variable(XV, "x1")
    x2 = SparsePoly.variable(XV, "x2")
    out = []
    for i, j in fixed_points(len(alphas)):
        phi = SparsePoly.const(XV, 1)
        for k, ak in enumerate(alphas, 1):
            if k not in (i, j):
                phi = phi * (x1 - ak) * (x2 - ak)
        out.append(FixedPointData(i, j, phi, euler_tangent(alphas, i, j), alphas[i - 1] + alphas[j - 1]))
    return out


def restrict_fixed_point(eta: SparsePoly, alphas, i: int, j: int) -> Fraction:
    """eta(x1=alpha_i, x2=alpha_j)."""
    return eta.eval_all({"x1": alphas[i - 1], "x2": alphas[j - 1]})


def ab_integrate(eta: SparsePoly, alphas) -> Fraction:
    """Atiyah-Bott: (1/2) sum over ordered pairs of eta|_p / e(T)|_p."""
    return sum(restrict_fixed_point(eta, alphas, i, j) / euler_tangent(alphas, i, j)
               for i, j in fixed_points(len(alphas))) / 2


# ---------------------------------------------------------------------------
# equivariant diagonal
# ---------------------------------------------------------------------------


def _mat_solve(M, B):
    """Solve M X = B by Gauss-Jordan over an exact field (Fraction/RatFunc)."""
    n = len(M)
    A = [list(row) + list(brow) for row, brow in zip(M, B)]
    for col in range(n):
        piv = None
        for r in range(col, n):
            if not _vzero(A[r][col]):
                piv = r
                break
        if piv is None:
            raise GenericityError("singular restriction matrix (non-generic alpha)")
        A[col], A[piv] = A[piv], A[col]
        pval = A[col][col]
        A[col] = [v / pval for v in A[col]]
        for r in range(n):
            if r == col:
                continue
            f = A[r][col]
            if _vzero(f):
                continue
            A[r] = [a - f * b for a, b in zip(A[r], A[col])]
    return [row[n:] for row in A]


def restriction_inverse(alphas) -> tuple[list[tuple[int, int]], list[list[Fraction]]]:
    """(pairs, Minv): the fixed points p_ij, i < j, one per box partition,
    and the inverse of M[p][lam] = s_lam|_p, rows as in box_partitions(n):
    a class has Schur coordinates Minv times its restrictions to pairs.  A
    singular M raises GenericityError."""
    n = len(alphas)
    pairs = [(i, j) for i, j in fixed_points(n) if i < j]
    M = [[restrict_fixed_point(schur_poly(lam), alphas, i, j) for lam in box_partitions(n)] for i, j in pairs]
    return pairs, _mat_solve(M, [[Fraction(int(a == b)) for b in range(len(pairs))] for a in range(len(pairs))])


def equivariant_diagonal(alphas) -> dict[tuple[Partition, Partition], Fraction]:
    """The tensor g restricting to delta_{p,p'} e(T)|_p on fixed-point pairs:
    g = M^-1 diag(e(T)|_p) M^-T, with M of `restriction_inverse`."""
    parts = box_partitions(len(alphas))
    pairs, Minv = restriction_inverse(alphas)
    euler = [euler_tangent(alphas, i, j) for i, j in pairs]
    out = {}
    for a, lam in enumerate(parts):
        for b, mu in enumerate(parts):
            v = sum(Minv[a][p] * e * Minv[b][p] for p, e in enumerate(euler))
            if v:
                out[(lam, mu)] = v
    return out
