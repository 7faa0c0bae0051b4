"""Operator calculus on the ladder series: the shift operators, Schur
polynomials in them, the bar-transformed operator family, the invertible
degree-k endomorphisms, extraction of the operator-expansion tables, the
structure coefficients, and assembly of the basis-weighted series and the
double series (with the diagonal-orthogonality consequence).

Every linear system over Q[[q]] here (the family's level blocks, the
degree-k endomorphisms, the structure-coefficient equations) has the
identity as its q^0 part.  One Neumann iteration, `_neumann_solve`, solves
them all, and a `_mat_mul` product certifies the J inverses and the
structure coefficients.

The class map is: expand in x about 0, Schur-reduce each graded piece into
the box basis, then Laurent-expand the coefficients in h^-1; the degree-k
bracket is the h^0 coefficient of its degree-k components.  The map is
linear, and the normalized operator series and the basis-weighted series
are Q[[q]]-combinations, with h-power weights, of the bar-transformed
operator series.  So it runs once per bar series, and every later table
is the same linear combination of those class tables.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

from .cohomology import (
    box_partitions,
    complement,
    diagonal,
    equivariant_diagonal,
    euler_tangent,
    fixed_points,
    graded_to_schur,
    partitions_of_degree,
    schur_poly,
)
from .hrat import HRat
from .hyper import CISpec, HyperSeries, V3, bar_assemble, bar_evaluated, build_K, k_series_evaluated
from .rings import RatFunc, SparsePoly, _univariate_terms
from .series import LaurentExpansion, QSeries, _expand_parts, x_coefficients


def _x(name):
    return SparsePoly.variable(V3, name)


def _shift_weights(t: tuple[int, int], d: tuple[int, int]):
    """Yield (a, w_a) for the nonzero terms of the shift operator's weight
    (x1 + d1 h)^t1 (x2 + d2 h)^t2 = sum_a w_a x^a h^{|t|-|a|} on q^(d1,d2),
    w_a = C(t1,a1) C(t2,a2) d1^(t1-a1) d2^(t2-a2)."""
    for a1 in range(t[0] + 1):
        for a2 in range(t[1] + 1):
            w = comb(t[0], a1) * comb(t[1], a2) * d[0] ** (t[0] - a1) * d[1] ** (t[1] - a2)
            if w:
                yield (a1, a2), w


def _h_expand(f: RatFunc, depth: int) -> LaurentExpansion:
    """f, a rational function of h alone, expanded at h = infinity from its
    Fraction coefficients (exact when its denominator is a monomial in h);
    no step forms a polynomial product."""
    return _expand_parts(_univariate_terms(f.num, "h"), _univariate_terms(f.den, "h"), depth)


def audit_frakD_normalizations(F: HyperSeries, p: tuple[int, int]) -> dict:
    """Verify the defining table properties of the shift-operator expansion.

    Checks, with C^(r)_{p,s} read off the x- and h-expansion of
    (shifted coefficient) / h^{|p|}:
      * the q^0 table is delta_{p,r} delta_{|r|,s};
      * C^(r)_{p,|r|} = delta_{p,r} as a full q-series whenever |r| <= |p|.
    """
    ptot = p[0] + p[1]
    depth = F.n * F.D + ptot + 2
    offenders = []
    zero = LaurentExpansion.zero(None)
    for key in sorted(F.num_parts, key=lambda k: (sum(k), k)):
        # one expansion of the coefficient: at q^0 the weight is x^p alone,
        # and elsewhere only exponents >= -|p| are read, so depth suffices
        X = {b: _h_expand(v, depth) for b, v in x_coefficients(F.coeff(key), ptot).items()}
        weights = list(_shift_weights(p, key))

        def got_at(e, m):
            # the x^e h^m coefficient of sum_a w_a x^a h^{|p|-|a|} F_key
            return sum((w * X.get((e[0] - a[0], e[1] - a[1]), zero).coeff(m - ptot + a[0] + a[1])
                        for a, w in weights), Fraction(0))

        for e in [(e1, tot - e1) for tot in range(ptot + 1) for e1 in range(tot + 1)]:
            etot = e[0] + e[1]
            if sum(key) == 0:
                # q^0 table: exact deltas for every s within reach
                for s in range(depth + ptot):
                    got = got_at(e, ptot - s)
                    want = Fraction(1) if (e == p and s == etot) else Fraction(0)
                    if got != want:
                        offenders.append({"check": "q0-delta", "q": key, "r": e, "s": s, "got": got})
            if etot <= ptot:
                got = got_at(e, ptot - etot)
                want = Fraction(1) if (e == p and sum(key) == 0) else Fraction(0)
                if got != want:
                    offenders.append({"check": "series-delta", "q": key, "r": e, "s": etot, "got": got})
    return {"ok": not offenders, "offenders": offenders}


# ---------------------------------------------------------------------------
# normalized operator family
#
# The bare shift operators satisfy the table normalizations only while
# every weight row fits in n (their audit catches the failure on
# Calabi-Yau-type specializations).  The family actually used is corrected
# level by level: lower diagonal-slot entries are killed by subtracting
# already-normalized operators, then each level is recombined through the
# inverse of its diagonal block.  Every step is linear over scalar
# (q1, q2) series, so the family is stored as a lower-triangular matrix
# over the bare operators,
#
#     N_p = sum_t U[p][t] h^{|p|-|t|} frakD_t,
#
# which the symbolic and the fixed-point routes both apply.  Where the
# bare audit passes, U is the identity.
# ---------------------------------------------------------------------------


def _add_rows(acc: dict, row: dict, c) -> None:
    """acc += c * row for rows {t: scalar series} over the bare operators."""
    for t, u in row.items():
        acc[t] = acc[t] + c * u if t in acc else c * u


def frakD_family_normalized(K: HyperSeries, pmax: int) -> dict:
    """The normalized operators for K as the matrix U over the bare ones:
    p -> {t: U[p][t]} for |t| <= |p| <= pmax, zero entries omitted."""
    D = K.D
    # kappa[d][s]: the x^s h^{-|s|} coefficient of the q^d coefficient of K
    kappa = {key: {s: _h_expand(v, s[0] + s[1] + 1).coeffs.get(-s[0] - s[1], Fraction(0))
                   for s, v in x_coefficients(K.coeff(key), pmax).items()} for key in K.num_parts}

    @functools.cache
    def table(t, r) -> QSeries:
        # the scalar series multiplying x^r h^{|t|-|r|} in frakD_t K; it is
        # also the (level, r) entry of h^{level-|t|} frakD_t at every level.
        # The weight of frakD_t on K_d is homogeneous in (x, h), so its term
        # w_a x^a h^{|t|-|a|} reads the x^{r-a} coefficient of K_d at
        # h^{-|r-a|}: the entry is sum_a w_a kappa[d][r - a].
        return QSeries(2, D, {
            key: sum((w * kd.get((r[0] - a[0], r[1] - a[1]), 0) for a, w in _shift_weights(t, key)), Fraction(0))
            for key, kd in kappa.items()
        })

    def entry(row: dict, r) -> QSeries:
        acc = QSeries(2, D)
        for t, u in row.items():
            acc = acc + u * table(t, r)
        return acc

    fam: dict = {}
    for L in range(pmax + 1):
        ps = [(p1, L - p1) for p1 in range(L + 1)]
        work = {}
        for p in ps:
            G = {p: QSeries.one(2, D)}
            # kill diagonal-slot entries below this level
            for Lr in range(L):
                for r in [(r1, Lr - r1) for r1 in range(Lr + 1)]:
                    c = entry(G, r)
                    if c.coeffs:
                        _add_rows(G, fam[r], -c)
            work[p] = G
        # recombine through the inverse of the level's diagonal block
        block = [[entry(work[pc], pr) for pc in ps] for pr in ps]
        for idx in range(len(ps)):
            if block[idx][idx].get((0, 0)) != 1:
                raise ArithmeticError("operator block lost its unit constant term")
        binv = neumann_inverse(block, D, arity=2)
        for icol, p in enumerate(ps):
            acc: dict = {}
            for irow, r in enumerate(ps):
                _add_rows(acc, work[r], binv[irow][icol])
            fam[p] = {t: u for t, u in acc.items() if u.coeffs}
    return fam


def _schur_row(lam, fam: dict) -> dict:
    """Row over the bare operators of gamma_lam in the normalized ones."""
    row: dict = {}
    for e, c in schur_poly(lam).terms.items():
        _add_rows(row, fam[e], c)
    return row


def _row_weights(row: dict, level: int, D: int, x1, x2, h):
    """Yield (e, d, w) for every step q^e -> q^d of the operator
    sum_t row[t] h^{level-|t|} frakD_t with a nonzero weight

        w = sum_t row[t][d - e] (x1 + e1 h)^t1 (x2 + e2 h)^t2 h^{level-|t|},

    computed in the type of x1, x2 and h."""
    for e in [(e1, tot - e1) for tot in range(D + 1) for e1 in range(tot + 1)]:
        shifted = {
            t: (x1 + h * e[0]) ** t[0] * (x2 + h * e[1]) ** t[1] * h ** (level - t[0] - t[1])
            for t in row
        }
        for d in [(d1, d2) for d1 in range(e[0], D + 1) for d2 in range(e[1], D + 1 - d1)]:
            w = None
            for t, u in row.items():
                c = u.get((d[0] - e[0], d[1] - e[1]))
                if c:
                    w = shifted[t] * c if w is None else w + shifted[t] * c
            if w is not None:
                yield e, d, w


def build_barD_normalized(lam, K: HyperSeries, fam: dict) -> HyperSeries:
    """Bar transform of the Schur combination of normalized operators."""
    c1, c2 = K.den_chains
    combo: dict = {}
    steps = _row_weights(_schur_row(lam, fam), lam[0] + lam[1], K.D, _x("x1"), _x("x2"), _x("h"))
    for e, d, w in steps:
        cof = c1.cofactor(e[0], d[0]) * c2.cofactor(e[1], d[1])
        term = K.num_parts[e].mul_trunc(w, K.xtrunc).mul_trunc(cof, K.xtrunc)
        combo[d] = combo[d] + term if d in combo else term
    F = HyperSeries(n=K.n, D=K.D, den_chains=K.den_chains, num_parts=combo, xtrunc=K.xtrunc)
    return bar_assemble(F)


def class_extract(ser: QSeries, n: int, kmax: int, depth: int) -> dict:
    """The class map on a one-q series: x-expand every coefficient,
    Schur-reduce each graded piece into the box basis, and Laurent-expand
    the h-coefficients.  Returns (r, jindex) -> QSeries of expansions."""
    out: dict = {}
    for key, f in ser.coeffs.items():
        xc = x_coefficients(f, kmax)
        for r in range(kmax + 1):
            vals = {e: v for e, v in xc.items() if e[0] + e[1] == r}
            if not vals:
                continue
            for lam, v in graded_to_schur(vals, r).items():
                if lam[0] <= n - 2:
                    jidx = partitions_of_degree(n, r).index(lam)
                    out.setdefault((r, jidx), {})[key] = _h_expand(v, depth)
    return {rj: QSeries(1, ser.trunc_q, comp) for rj, comp in sorted(out.items())}


# ---------------------------------------------------------------------------
# scalar-series matrices
# ---------------------------------------------------------------------------


def _mat_identity(size: int, D: int, arity: int = 1):
    return [
        [QSeries.one(arity, D) if i == j else QSeries(arity, D) for j in range(size)]
        for i in range(size)
    ]


def _mat_mul(A, B):
    # a product with an empty factor adds nothing, so it is skipped
    return [[functools.reduce(operator.add, (a * b for a, b in zip(row[1:], col[1:]) if a.coeffs and b.coeffs),
                              row[0] * col[0]) for col in zip(*B)] for row in A]


def _neumann_solve(M, B, D: int):
    """X with M X = B, for a square scalar-series matrix M whose q^0 part
    is the identity: from X = B, repeat X <- B + (I - M) X.  I - M is O(q),
    so each step fixes one more q-degree and D steps are exact."""
    N = [[-m for m in row] for row in M]
    for i, row in enumerate(N):
        row[i] = row[i] + QSeries.one(row[i].q_arity, D)
    X = B
    for _ in range(D):
        X = [[b + nx for b, nx in zip(rb, rnx)] for rb, rnx in zip(B, _mat_mul(N, X))]
    return X


def neumann_inverse(M, D: int, arity: int = 1):
    """Inverse of a scalar-series matrix with identity q^0 part."""
    return _neumann_solve(M, _mat_identity(len(M), D, arity), D)


# ---------------------------------------------------------------------------
# the per-series pipeline
# ---------------------------------------------------------------------------


@dataclass
class GammaPipeline:
    """Everything derived from one ladder series: the operator family, the
    inverses of the degree-k endomorphisms, the expansion tables, structure
    coefficients, and the classes of the assembled basis-weighted series.
    The series themselves, `calD` and `ygamma`, are formed when read."""

    kind: str
    n: int
    a: CISpec
    alphas: tuple | None
    D: int
    K: HyperSeries = None
    family: dict = field(default_factory=dict)  # p -> {t: U[p][t]}, see frakD_family_normalized
    barD: dict = field(default_factory=dict)  # lam -> HyperSeries (1q)
    Jinv: dict = field(default_factory=dict)  # k -> inverse of the degree-k endomorphism matrix
    J_certified: dict = field(default_factory=dict)
    opexp: dict = field(default_factory=dict)  # (k, i) -> {(s,(r,j)) -> scalar QSeries}
    structC: dict = field(default_factory=dict)  # (k, i) -> {(t,(s,j)) -> scalar QSeries}
    eqtic_residual_zero: dict = field(default_factory=dict)
    classes: dict = field(default_factory=dict)  # lam -> {d -> {(r,j) -> Laurent}}

    @property
    def kmax(self) -> int:
        return 2 * (self.n - 2)

    @property
    def depth(self) -> int:
        return self.n * self.D + self.kmax + 2

    @functools.cached_property
    def calD(self) -> dict:
        """(k, i) -> the normalized operator series, a QSeries of RatFunc."""
        return _normalized(self, {lam: bar.series() for lam, bar in self.barD.items()})

    @functools.cached_property
    def ygamma(self) -> dict:
        """lam -> the basis-weighted series, a QSeries of RatFunc."""
        return _assembled(self, self.calD, RatFunc(_x("h")))


def _h_coeff(ser: QSeries, e: int) -> QSeries:
    """The scalar series of h^e coefficients of a series of expansions."""
    return QSeries(1, ser.trunc_q, {key: le.coeffs.get(e, Fraction(0)) for key, le in ser.coeffs.items()})


def _basis(n: int, kmax: int):
    """Yield (k, i, lam) for the i-th box partition lam of degree k."""
    for k in range(kmax + 1):
        for i, lam in enumerate(partitions_of_degree(n, k)):
            yield k, i, lam


def build_pipeline(kind: str, n: int, a: CISpec, alphas, D: int) -> GammaPipeline:
    """Run the whole operator pipeline for one series, on the normalized
    shift-operator family."""
    pipe = GammaPipeline(kind=kind, n=n, a=a,
                         alphas=tuple(alphas) if alphas is not None else None, D=D)
    kmax = pipe.kmax
    pipe.K = build_K(kind, n, a, alphas, D, xtrunc=kmax + 1)
    parts = box_partitions(n)
    pipe.family = frakD_family_normalized(pipe.K, kmax)
    for lam in parts:
        pipe.barD[lam] = build_barD_normalized(lam, pipe.K, pipe.family)
    # the class map is linear, so it runs once per bar series; kmax extra
    # orders cover the h^(k-t-s) weights of the assembly
    bar_cls = {lam: class_extract(pipe.barD[lam].series(), n, kmax, pipe.depth + kmax) for lam in parts}
    comps = [(r, j) for r, j, _ in _basis(n, kmax)]
    zero = QSeries(1, D)
    # degree-k endomorphism matrices and Neumann inverses
    for k in range(kmax + 1):
        basis_k = partitions_of_degree(n, k)
        size = len(basis_k)
        M = [[_h_coeff(bar_cls[lam].get((k, i), zero), 0) for lam in basis_k] for i in range(size)]
        if any(M[i][j].get((0,)) != (1 if i == j else 0) for i in range(size) for j in range(size)):
            raise ArithmeticError(f"degree-{k} endomorphism q^0 part is not the identity")
        Minv = neumann_inverse(M, D)
        pipe.Jinv[k] = Minv
        ident = _mat_identity(size, D)
        pipe.J_certified[k] = (_mat_mul(M, Minv) == ident) and (_mat_mul(Minv, M) == ident)
        if not pipe.J_certified[k]:  # pragma: no cover - Neumann inverse is exact
            raise ArithmeticError(f"inverse certificate failed at degree {k}")
    # classes of the normalized operator series, per component
    calD_cls = {rj: _normalized(pipe, {lam: bar_cls[lam].get(rj, zero) for lam in parts}) for rj in comps}
    # expansion tables
    for k, iidx, _ in _basis(n, kmax):
        table = {}
        for rj in comps:
            for s in range(kmax + 1):
                ser_c = _h_coeff(calD_cls[rj][(k, iidx)], k - s)
                if ser_c.coeffs:
                    table[(s, rj)] = ser_c
        # the q^0 table is the triple delta; an absent entry reads as 0
        for s in range(kmax + 1):
            for r, jidx in comps:
                want = Fraction(1) if (jidx == iidx and r == k and s == r) else Fraction(0)
                if table.get((s, (r, jidx)), zero).get((0,)) != want:
                    raise ArithmeticError(f"expansion table q^0 delta failed at {(k, iidx, s, r, jidx)}")
        pipe.opexp[(k, iidx)] = table
    # structure coefficients and their defining residual
    for k, iidx, _ in _basis(n, kmax):
        pipe.structC[(k, iidx)] = _solve_structure(pipe, k, iidx)
        pipe.eqtic_residual_zero[(k, iidx)] = _eqtic_residual_is_zero(pipe, k, iidx)
    # classes of the assembled series, cut back to the pipeline depth
    y_cls = {rj: _assembled(pipe, cls, LaurentExpansion({1: Fraction(1)}, None)) for rj, cls in calD_cls.items()}
    for lam in parts:
        pipe.classes[lam] = {d: {} for d in range(D + 1)}
        for rj in comps:
            for (d,), le in y_cls[rj][lam].coeffs.items():
                pipe.classes[lam][d][rj] = LaurentExpansion(le.coeffs, None if le.depth is None else pipe.depth)
    return pipe


def _normalized(pipe: GammaPipeline, bar: dict) -> dict:
    """(k, i) -> J^{-1}(gamma_i) = sum_j Jinv[k][j][i] bar[gamma_j] for every
    basis class, where `bar` maps each box partition to a series: of
    RatFunc, of HRat at a fixed point, or of one class component."""
    out = {}
    for k, iidx, _ in _basis(pipe.n, pipe.kmax):
        acc = None
        for jidx, lam in enumerate(partitions_of_degree(pipe.n, k)):
            term = pipe.Jinv[k][jidx][iidx] * bar[lam]
            acc = term if acc is None else acc + term
        out[(k, iidx)] = acc
    return out


def _assembled(pipe: GammaPipeline, calD: dict, h) -> dict:
    """lam -> the basis-weighted series of lam, assembled from `calD`."""
    return {lam: assemble_Y_gamma(pipe, calD, k, jidx, h) for k, jidx, lam in _basis(pipe.n, pipe.kmax)}


def _structure_system(pipe: GammaPipeline, k: int, iidx: int):
    """The defining equations of the structure coefficients of (k, i) as
    (keys, A, e) with A C = e.

    The unknowns C~^{(t)}_{k,i;s,j}, t <= k and s <= k - t, are keyed
    (t, (s, j)); the equations use the same index set, keyed
    (r, (r1, j1)).  A[(r,(r1,j1))][(t,(s,j))] is C^{(r1,j1)}_{s,j,r+r1-t}
    for t <= r and 0 otherwise, and e is 1 at the equation (0, (k, i)).
    The expansion tables' q^0 delta, checked by build_pipeline, makes the
    q^0 part of A the identity.
    """
    keys = [(t, (s, j)) for t in range(k + 1) for s in range(k - t + 1)
            for j in range(len(partitions_of_degree(pipe.n, s)))]
    zero = QSeries(1, pipe.D)
    A = [[pipe.opexp[(s, j)].get((r + r1 - t, (r1, j1)), zero) if t <= r else zero for t, (s, j) in keys]
         for r, (r1, j1) in keys]
    e = [[QSeries.one(1, pipe.D) if key == (0, (k, iidx)) else zero] for key in keys]
    return keys, A, e


def _solve_structure(pipe: GammaPipeline, k: int, iidx: int) -> dict:
    """The structure coefficients of (k, i): (t, (s, j)) -> the scalar
    series C~^{(t)}_{k,i;s,j}, from the Neumann solve of A C = e."""
    keys, A, e = _structure_system(pipe, k, iidx)
    return {key: row[0] for key, row in zip(keys, _neumann_solve(A, e, pipe.D))}


def _eqtic_residual_is_zero(pipe: GammaPipeline, k: int, iidx: int) -> bool:
    """Re-evaluate the defining equations A C = e on the stored solution
    pipe.structC[(k, i)]."""
    keys, A, e = _structure_system(pipe, k, iidx)
    C = pipe.structC[(k, iidx)]
    return _mat_mul(A, [[C[key]] for key in keys]) == e


def assemble_Y_gamma(pipe: GammaPipeline, calD: dict, k: int, jidx: int, h) -> QSeries:
    """The basis-weighted series: the normalized operator applied to the
    ladder series plus the structure-coefficient corrections.

    `calD` maps (k, i) to the normalized operator series and `h` is h as a
    value of their kind: a trivariate RatFunc for `pipe.calD`, an HRat for
    their evaluations at a fixed point, an exact LaurentExpansion for one
    component of their classes.
    """
    out = calD[(k, jidx)]
    C = pipe.structC[(k, jidx)]
    for t in range(1, k + 1):
        for s in range(k - t + 1):
            for iidx in range(len(partitions_of_degree(pipe.n, s))):
                cser = C.get((t, (s, iidx)))
                if cser is None or not cser.coeffs:
                    continue
                hpow = h ** (k - t - s)
                term = cser * calD[(s, iidx)].map_values(lambda v: v * hpow)
                out = out + term
    return out


# ---------------------------------------------------------------------------
# evaluated form of the assembled series (for the recursivity/MPC checks)
# ---------------------------------------------------------------------------


def y_gamma_evaluated(pipe: GammaPipeline, i: int, j: int) -> dict:
    """Every basis-weighted series evaluated at the fixed point (i, j):
    partition -> QSeries with values rational in h.

    The operator weights are exact at the point: the bare operator t acts
    on the q^(d1,d2) coefficient as (alpha_i + d1 h)^t1 (alpha_j + d2 h)^t2,
    and `pipe.family` combines the bare operators as in `pipe.ygamma`.
    """
    if pipe.alphas is None:
        raise ValueError("fixed-point evaluation needs concrete weights")
    xi, xj = pipe.alphas[i - 1], pipe.alphas[j - 1]
    K = k_series_evaluated(pipe.kind, pipe.n, pipe.a, pipe.alphas, i, j, pipe.D)
    x1, x2, h = HRat.poly((xi,)), HRat.poly((xj,)), HRat.poly((0, 1))
    barD = {}
    for lam in box_partitions(pipe.n):
        combo: dict = {}
        for e, d, w in _row_weights(_schur_row(lam, pipe.family), lam[0] + lam[1], pipe.D, x1, x2, h):
            term = K.get(e) * w
            combo[d] = combo[d] + term if d in combo else term
        barD[lam] = bar_evaluated(QSeries(2, pipe.D, combo), xi - xj)
    return _assembled(pipe, _normalized(pipe, barD), h)


# ---------------------------------------------------------------------------
# diagonal orthogonality and the double series
# ---------------------------------------------------------------------------


def _laurent_flip_h(le: LaurentExpansion) -> LaurentExpansion:
    return LaurentExpansion({e: (v if e % 2 == 0 else -v) for e, v in le.coeffs.items()}, le.depth)


def _complementary_terms(pipe_dot: GammaPipeline, pipe_ddot: GammaPipeline, d: int):
    """Yield ((lam1, lam2), le1, le2) for every complementary class pair
    (lam, mu), split d = d1 + d2 and pair of basis components: le1 is the
    component lam1 of the first series' class at q^d1, le2 the component
    lam2 of the second's at q^d2."""
    n = pipe_dot.n
    for lam in box_partitions(n):
        mu = complement(lam, n)
        for d1 in range(d + 1):
            c1 = pipe_dot.classes[lam][d1]
            c2 = pipe_ddot.classes[mu][d - d1]
            for (r1, j1), le1 in c1.items():
                lam1 = partitions_of_degree(n, r1)[j1]
                for (r2, j2), le2 in c2.items():
                    yield (lam1, partitions_of_degree(n, r2)[j2]), le1, le2


def orthogonality_check(pipe_dot: GammaPipeline, pipe_ddot: GammaPipeline) -> dict:
    """The bilinear combination over complementary basis pairs, with the
    second factor at -h, reduced in H* (x) H*: it must equal the diagonal
    tensor at q^0 and vanish at every positive q-degree."""
    n = pipe_dot.n
    D = min(pipe_dot.D, pipe_ddot.D)
    failures = []
    for d in range(D + 1):
        tensor: dict = {}
        for key, le1, le2 in _complementary_terms(pipe_dot, pipe_ddot, d):
            tensor[key] = tensor.get(key, LaurentExpansion.zero(None)) + le1 * _laurent_flip_h(le2)
        want = diagonal(n) if d == 0 else {}
        keys = set(tensor) | set(want)
        for key in keys:
            got = tensor.get(key, LaurentExpansion.zero(None))
            expect = LaurentExpansion.scalar(want.get(key, Fraction(0)))
            if not got.eq_mod_common_depth(expect):
                failures.append({"q": d, "entry": key, "got": got, "want": expect})
    return {"ok": not failures, "failures": failures}


def equivariant_orthogonality_check(pipe_dot: GammaPipeline, pipe_ddot: GammaPipeline) -> dict:
    """Fixed-point form of the double-series consequence: for ordered
    fixed-point pairs (p1, p2),

      sum_{lam,mu} g_{lam,mu} Y_{gamma_lam}|_{p1}(h, q) Y''_{gamma_mu}|_{p2}(-h, q)

    equals the equivariant diagonal restriction at q^0 and vanishes at
    every positive q-degree, g being the equivariant diagonal at the
    pipelines' weights, which must be given and equal.  Exact HRat
    arithmetic.
    """
    al = pipe_dot.alphas
    if al is None or pipe_ddot.alphas != al:
        raise ValueError("equivariant orthogonality needs both pipelines at the same torus weights")
    tensor = equivariant_diagonal(al)
    D = min(pipe_dot.D, pipe_ddot.D)
    pairs = fixed_points(pipe_dot.n)
    ev1 = {p: y_gamma_evaluated(pipe_dot, *p) for p in pairs}
    ev2 = {p: y_gamma_evaluated(pipe_ddot, *p) for p in pairs}
    failures = []
    for p1 in pairs:
        for p2 in pairs:
            for d in range(D + 1):
                acc = None
                for (lam, mu), g in tensor.items():
                    for d1 in range(d + 1):
                        v1 = HRat.convert(ev1[p1][lam].get((d1,)))
                        v2 = HRat.convert(ev2[p2][mu].get((d - d1,)))
                        term = g * v1 * v2.flip_h()
                        acc = term if acc is None else acc + term
                want = Fraction(0)
                if d == 0 and set(p1) == set(p2):
                    want = euler_tangent(al, *p1)
                if not acc == want:
                    failures.append({"pairs": (p1, p2), "q": d})
    return {"ok": not failures, "failures": failures}


def assemble_double_J(pipe_dot: GammaPipeline, pipe_ddot: GammaPipeline) -> dict:
    """Tensor table of the double series numerator: for each q-degree and
    basis pair, the exact two-variable Laurent polynomial in (h1, h2).

    The double series is this numerator divided by (h1 + h2); its q^0
    term is the diagonal tensor.
    """
    D = min(pipe_dot.D, pipe_ddot.D)
    out: dict = {}
    for d in range(D + 1):
        tensor: dict = {}
        for key, le1, le2 in _complementary_terms(pipe_dot, pipe_ddot, d):
            cur = tensor.setdefault(key, {})
            for e1, v1 in le1.coeffs.items():
                for e2, v2 in le2.coeffs.items():
                    cur[(e1, e2)] = cur.get((e1, e2), Fraction(0)) + Fraction(v1) * Fraction(v2)
        tensor = {
            key: {e: v for e, v in entry.items() if v}
            for key, entry in tensor.items()
        }
        out[d] = {key: entry for key, entry in tensor.items() if entry}
    return out
