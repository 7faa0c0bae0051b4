"""The ring H*(Gr(2,n)) and its equivariant counterpart: Schur basis on
two-row partitions in the 2x(n-2) box, ideal reduction, Poincare pairing,
diagonal classes, fixed-point data and Atiyah-Bott integration.

Basis convention: the degree-k classes are the Schur polynomials s_lam
with |lam| = k and lam inside the box, indexed j = 0, 1, ... by
descending first row.  Duality pairs lam with its box complement
lam^c = (n-2-lam2, n-2-lam1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .rings import RatFunc, SparsePoly, order_vars
from .series import _vzero

XV = ("x1", "x2")

Partition = tuple  # (a, b) with a >= b >= 0


class GenericityError(ValueError):
    """Supplied torus weights hit a resonance of an in-scope denominator."""


@dataclass(frozen=True)
class GrContext:
    """Gr(2,n) with an optional torus-weight specialization.

    ``alpha=None`` selects the non-equivariant theory (all weights zero);
    ``symbolic=True`` keeps the weights as polynomial variables a1..an.
    """

    n: int
    alpha: tuple[Fraction, ...] | None = None
    symbolic: bool = False

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("need n >= 3")
        if self.alpha is not None:
            if len(self.alpha) != self.n:
                raise ValueError("alpha must list n weights")
            if len(set(self.alpha)) != self.n:
                raise GenericityError("repeated alpha values")

    @property
    def avars(self) -> tuple[str, ...]:
        return tuple(f"a{i}" for i in range(1, self.n + 1))

    def alpha_value(self, i: int):
        """Weight alpha_i (1-based): Fraction, variable, or 0."""
        if self.symbolic:
            return SparsePoly.variable(self.avars, f"a{i}")
        if self.alpha is None:
            return Fraction(0)
        return self.alpha[i - 1]


def default_generic_alpha(n: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(7**m) for m in range(1, n + 1))


def genericity_check(alpha, max_degree: int) -> None:
    """Abort early if a scheduled denominator vanishes.

    Covers alpha_j - alpha_m + (l/d)(alpha_k - alpha_j) for d <= max_degree,
    1 <= l <= d, plus pairwise distinctness and alpha_i + alpha_j != 0
    (eta nonvanishing for the polynomiality checks).
    """
    n = len(alpha)
    if len(set(alpha)) != n:
        raise GenericityError("alpha values must be pairwise distinct")
    for i in range(n):
        for j in range(n):
            if alpha[i] + alpha[j] == 0:
                raise GenericityError("alpha_i + alpha_j vanishes")
    for d in range(1, max_degree + 1):
        for l in range(1, d + 1):
            for j in range(n):
                for k in range(n):
                    if k == j:
                        continue
                    step = Fraction(l, d) * (alpha[k] - alpha[j])
                    for m in range(n):
                        if l == d and m == k:
                            continue
                        if alpha[j] - alpha[m] + step == 0:
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


@dataclass
class CohClass:
    """Element of H*(Gr) in the Schur basis; values are any exact ring type."""

    coeffs: dict

    def __add__(self, other: "CohClass") -> "CohClass":
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            w = out.get(k)
            nv = v if w is None else w + v
            out[k] = nv
        return CohClass({k: v for k, v in out.items() if not _vzero(v)})

    def scale(self, c) -> "CohClass":
        return CohClass({k: v * c for k, v in self.coeffs.items() if not _vzero(v * c)})

    def __eq__(self, other):
        if not isinstance(other, CohClass):
            return NotImplemented
        keys = set(self.coeffs) | set(other.coeffs)
        for k in keys:
            a = self.coeffs.get(k, Fraction(0))
            b = other.coeffs.get(k, Fraction(0))
            if not _vzero(a - b):
                return False
        return True

    def get(self, lam: Partition):
        return self.coeffs.get(tuple(lam), Fraction(0))


def schur_reduce(p: SparsePoly, n: int) -> CohClass:
    """Class of a symmetric polynomial in H*(Gr(2,n)): its Schur
    coordinates, read degree by degree, without s_lam for lam1 >= n-1."""
    if not p.is_symmetric_x():
        raise ValueError("polynomial is not symmetric in x1, x2")
    if not set(p.used_vars()) <= set(XV):
        raise ValueError("polynomial uses variables besides x1, x2")
    graded: dict[int, dict] = {}
    for e, c in p.embed(order_vars(set(p.vars) | set(XV))).decompose_x().items():
        graded.setdefault(sum(e), {})[e] = c.const_value()
    return CohClass({lam: c for r, vals in graded.items()
                     for lam, c in graded_to_schur(vals, r).items() if lam[0] <= n - 2})


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


def pairing(a: CohClass, b: CohClass, ctx: GrContext):
    """Integral over Gr of a*b via complementary-partition duality."""
    total = Fraction(0)
    for lam, c in a.coeffs.items():
        mu = complement(lam, ctx.n)
        if mu in b.coeffs:
            total = total + c * b.coeffs[mu]
    return total


def diagonal(ctx: GrContext) -> dict[tuple[Partition, Partition], Fraction]:
    """Poincare dual of the diagonal: sum of s_lam (x) s_{lam^c}."""
    return {(lam, complement(lam, ctx.n)): Fraction(1) for lam in box_partitions(ctx.n)}


# ---------------------------------------------------------------------------
# fixed points and localization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FixedPointData:
    i: int
    j: int
    phi: SparsePoly
    euler_normal: object  # Fraction or SparsePoly in the alpha variables
    det_euler: object


def euler_tangent(ctx: GrContext, i: int, j: int):
    """e(T_Gr) restricted to p_ij: prod_{k not in {i,j}} (a_i-a_k)(a_j-a_k)."""
    ai, aj = ctx.alpha_value(i), ctx.alpha_value(j)
    out = None
    for k in range(1, ctx.n + 1):
        if k in (i, j):
            continue
        ak = ctx.alpha_value(k)
        f = (ai - ak) * (aj - ak)
        out = f if out is None else out * f
    return out if out is not None else Fraction(1)


def localization_data(ctx: GrContext) -> list[FixedPointData]:
    if ctx.alpha is None and not ctx.symbolic:
        raise ValueError("localization needs equivariant weights")
    vars = order_vars(XV + (ctx.avars if ctx.symbolic else ()))
    x1 = SparsePoly.variable(vars, "x1")
    x2 = SparsePoly.variable(vars, "x2")
    out = []
    for i in range(1, ctx.n + 1):
        for j in range(1, ctx.n + 1):
            if i == j:
                continue
            phi = SparsePoly.const(vars, 1)
            for k in range(1, ctx.n + 1):
                if k in (i, j):
                    continue
                ak = ctx.alpha_value(k)
                phi = phi * (x1 - ak) * (x2 - ak)
            out.append(
                FixedPointData(
                    i=i,
                    j=j,
                    phi=phi,
                    euler_normal=euler_tangent(ctx, i, j),
                    det_euler=ctx.alpha_value(i) + ctx.alpha_value(j),
                )
            )
    return out


def restrict_fixed_point(eta: SparsePoly, i: int, j: int, ctx: GrContext):
    """eta(x1=alpha_i, x2=alpha_j)."""
    ai, aj = ctx.alpha_value(i), ctx.alpha_value(j)
    if ctx.symbolic:
        return eta.substitute({"x1": ai, "x2": aj})
    return eta.eval_all({"x1": ai, "x2": aj, **{f"a{m}": ctx.alpha[m - 1] if ctx.alpha else 0 for m in range(1, ctx.n + 1)}})


def ab_integrate(eta: SparsePoly, ctx: GrContext):
    """Atiyah-Bott: (1/2) sum over ordered pairs of eta|_p / e(T)|_p."""
    if ctx.alpha is None:
        raise ValueError("ab_integrate needs concrete generic alpha")
    total = Fraction(0)
    for i in range(1, ctx.n + 1):
        for j in range(1, ctx.n + 1):
            if i == j:
                continue
            val = restrict_fixed_point(eta, i, j, ctx)
            total += Fraction(val) / euler_tangent(ctx, i, j)
    return total / 2


# ---------------------------------------------------------------------------
# equivariant diagonal
# ---------------------------------------------------------------------------


def _mat_solve(M, B):
    """Solve M X = B by Gauss-Jordan over an exact field (Fraction/RatFunc)."""
    n = len(M)
    A = [list(row) + list(brow) for row, brow in zip(M, B)]
    w = len(A[0])
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


def equivariant_diagonal(ctx: GrContext) -> dict[tuple[Partition, Partition], object]:
    """The tensor restricting to delta_{p,p'} e(T)|_p on fixed-point pairs."""
    n = ctx.n
    parts = box_partitions(n)
    pairs = list(combinations(range(1, n + 1), 2))
    if len(pairs) != len(parts):  # pragma: no cover - combinatorial identity
        raise AssertionError("basis/fixed-point count mismatch")

    def lift(v):
        if ctx.symbolic:
            return RatFunc(v) if isinstance(v, SparsePoly) else RatFunc.from_scalar(v, ctx.avars)
        return Fraction(v)

    M = []
    for (i, j) in pairs:
        row = []
        for lam in parts:
            row.append(lift(restrict_fixed_point(schur_poly(lam), i, j, ctx)))
        M.append(row)
    E = [[lift(euler_tangent(ctx, i, j)) if a == b else lift(0) for b in range(len(pairs))]
         for a, (i, j) in enumerate(pairs)]
    # G = M^{-1} E (M^T)^{-1}: solve M Y = E, then M G^T = Y^T
    Y = _mat_solve(M, E)
    YT = [[Y[r][c] for r in range(len(Y))] for c in range(len(Y[0]))]
    GT = _mat_solve(M, YT)
    G = [[GT[r][c] for r in range(len(GT))] for c in range(len(GT[0]))]
    out = {}
    for a, lam in enumerate(parts):
        for b, mu in enumerate(parts):
            v = G[a][b]
            if not _vzero(v):
                out[(lam, mu)] = v
    return out
