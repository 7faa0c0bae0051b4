"""Operator calculus on the ladder series: the shift operators, Schur
polynomials in them, the bar-transformed operator family, the invertible
degree-k endomorphisms, extraction of the operator-expansion tables, the
structure coefficients, and assembly of the basis-weighted series and the
double series (with the diagonal-orthogonality consequence).

Every linear system over Q[[q]] here (the family's level blocks, the
degree-k endomorphisms, the structure-coefficient equations) has the
identity as its q^0 part.  One Neumann iteration, `_neumann_solve`, solves
them all, and a matrix product certifies the J inverses and the structure
coefficients.  The structure equations of one degree share their matrix,
so every class of that degree is solved and certified at once, one
right-hand column per class.  That scalar layer holds each series as a
flat list over its graded triangle of q-exponents (`_Triangle`), with a
value an int while it is integral and a Fraction otherwise, so zero-weight
pipelines run in int arithmetic; QSeries of Fraction are formed only for
the tables other code reads: the family, the J inverses, the expansion
tables and the structure coefficients.

The class map takes a series to the Laurent expansions in h^-1 of its
Schur coordinates in the box basis; the degree-k bracket is the h^0
coefficient of its degree-k components.  The map is linear, and the
normalized operator series and the basis-weighted series are
Q[[q]]-combinations, with h-power weights, of the bar-transformed
operator series.  So it runs once per bar series, and every later table
is the same linear combination of those class tables.

The family is read off the zero-weight ladder series at every weight
(see `build_pipeline`), held as a `hyper.LadderImage` of h = 1 values
over the x-triangle of total degree <= kmax + 1.  At zero weights the bar
transform and the class map run on these lists: a bar numerator times one
x-adic inverse of its denominator, Schur-reduced, gives each component as
one exact term c h^(deg - r), and `barD`, `calD` and `ygamma` restore the
trivariate series when read.  At other weights the classes come by
localization, from the bar series evaluated at the fixed points.

Diagonal orthogonality is the double-series numerator at (h1, h2) =
(h, -h): `orthogonality_check` reads it off the table of
`assemble_double_J`.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import comb, lcm

from .cohomology import (
    box_partitions,
    box_schur,
    complement,
    diagonal,
    equivariant_diagonal,
    euler_tangent,
    fixed_points,
    partitions_of_degree,
    restriction_inverse,
    schur_poly,
)
from .hrat import HRat
from .hyper import CISpec, DenChain, HyperSeries, LadderImage, V3, bar_evaluated, k_series_evaluated
from .rings import RatFunc, SparsePoly, _exact, _univariate_terms
from .series import LaurentExpansion, QSeries, _expand_parts, _Triangle, _triangle, x_coefficients


@functools.cache
def _shift_weights(t: tuple[int, int], d: tuple[int, int]) -> tuple:
    """The pairs (a, w_a) for the nonzero terms of the shift operator's weight
    (x1 + d1 h)^t1 (x2 + d2 h)^t2 = sum_a w_a x^a h^{|t|-|a|} on q^(d1,d2),
    w_a = C(t1,a1) C(t2,a2) d1^(t1-a1) d2^(t2-a2)."""
    return tuple(((a1, a2), w) for a1 in range(t[0] + 1) for a2 in range(t[1] + 1)
                 if (w := comb(t[0], a1) * comb(t[1], a2) * d[0] ** (t[0] - a1) * d[1] ** (t[1] - a2)))


def _h_expand(v, depth: int) -> LaurentExpansion:
    """v at h = infinity to `depth`, v a RatFunc of h or an HRat, from the
    coefficients of its numerator and denominator; exact when the
    denominator is a monomial.  No step forms a polynomial product."""
    return _expand_parts(_univariate_terms(v.num, "h"), _univariate_terms(v.den, "h"), depth)


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
# linear systems over Q[[q]] with identity q^0 part
# ---------------------------------------------------------------------------


def _neumann_solve(M, B, tri: _Triangle):
    """X with M X = B, for a square matrix M of series lists whose q^0 part
    is the identity: from X = B, repeat X <- B + (I - M) X.  I - M is O(q),
    so each step fixes one more q-degree and D steps are exact."""
    N = [[[-v for v in m] for m in row] for row in M]
    for i, row in enumerate(N):
        row[i][0] += 1
    X = B
    for _ in range(tri.D):
        X = tri.mat_mul(N, X, B)
    return X


def neumann_inverse(M, D: int, arity: int = 1):
    """Inverse of a matrix of scalar QSeries with identity q^0 part."""
    tri = _triangle(arity, D)
    inv = _neumann_solve([[tri.from_series(m) for m in row] for row in M], tri.identity(len(M)), tri)
    return [[tri.series(x) for x in row] for row in inv]


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


def frakD_family_normalized(K: LadderImage, pmax: int) -> dict:
    """The normalized operators for the ladder image K, as the matrix U
    over the bare ones: p -> {t: U[p][t]} for |t| <= |p| <= pmax, zero
    entries omitted."""
    tri = _triangle(2, K.D)
    xkeys = _triangle(2, pmax).keys
    # kappa[d][s]: the x^s h^{-|s|} coefficient of K_d, for the d with one.
    # x^s comes with h^(deg - |s|), so only K_d of degree 0 has one (every
    # d when |a| = n, only d = 0 else), its h = 1 value; the degree is
    # structural, so the other keys are not expanded
    kappa = {}
    for key in K.num_parts:
        if K.degree(key):
            continue
        _, X, g = K.x_expansion(key, pmax)
        if kd := {s: Fraction(v, g) for s, v in zip(xkeys, X) if v}:
            kappa[key] = kd
    # the tables hold den times their series, den a common denominator of
    # kappa, so they hold integers; `entry` divides den back out
    den = lcm(*(v.denominator for kd in kappa.values() for v in kd.values()))
    scaled = [(tri.index[key], {s: _exact(v * den) for s, v in kd.items()}) for key, kd in kappa.items()]

    @functools.cache
    def weighted_kappa(t) -> list:
        # (slot of d, den kappa[d], weights of frakD_t on q^d) for every d
        return [(i, kd, _shift_weights(t, tri.keys[i])) for i, kd in scaled]

    @functools.cache
    def table(t, r) -> list:
        # den times the scalar series multiplying x^r h^{|t|-|r|} in
        # frakD_t K; that series is also the (level, r) entry of
        # h^{level-|t|} frakD_t at every level.  The weight of frakD_t on
        # K_d is homogeneous in (x, h), so its term w_a x^a h^{|t|-|a|}
        # reads the x^{r-a} coefficient of K_d at h^{-|r-a|}: the entry is
        # sum_a w_a kappa[d][r - a].
        out = [0] * tri.size
        for i, kd, weights in weighted_kappa(t):
            out[i] = _exact(sum(w * kd.get((r[0] - a[0], r[1] - a[1]), 0) for a, w in weights))
        return out

    def entry(row: dict, r) -> list:
        acc = [0] * tri.size
        for t, u in row.items():
            tri.mul_into(acc, u, table(t, r))
        return acc if den == 1 else [_exact(Fraction(v, den)) for v in acc]

    def add_rows(acc: dict, row: dict, c) -> None:
        # acc += c * row for rows {t: scalar series} over the bare operators
        for t, u in row.items():
            if t not in acc:
                acc[t] = [0] * tri.size
            tri.mul_into(acc[t], c, u)

    fam: dict = {}
    for L in range(pmax + 1):
        ps = [(p1, L - p1) for p1 in range(L + 1)]
        work = {}
        for p in ps:
            G = {p: tri.one()}
            # kill diagonal-slot entries below this level
            for Lr in range(L):
                for r in [(r1, Lr - r1) for r1 in range(Lr + 1)]:
                    c = entry(G, r)
                    if any(c):
                        add_rows(G, fam[r], [-v for v in c])
            work[p] = G
        # recombine through the inverse of the level's diagonal block
        block = [[entry(work[pc], pr) for pc in ps] for pr in ps]
        for idx in range(len(ps)):
            if block[idx][idx][0] != 1:
                raise ArithmeticError("operator block lost its unit constant term")
        binv = _neumann_solve(block, tri.identity(len(ps)), tri)
        for icol, p in enumerate(ps):
            acc: dict = {}
            for irow, r in enumerate(ps):
                add_rows(acc, work[r], binv[irow][icol])
            fam[p] = {t: u for t, u in acc.items() if any(u)}
    return {p: {t: tri.series(u) for t, u in row.items()} for p, row in fam.items()}


def _schur_row(lam, fam: dict) -> dict:
    """Row over the bare operators of gamma_lam in the normalized ones."""
    row: dict = {}
    for e, c in schur_poly(lam).terms.items():
        for t, u in fam[e].items():
            row[t] = row[t] + c * u if t in row else c * u
    return row


def _row_weights(row: dict, level: int, D: int):
    """Yield (e, d, w) for every step q^e -> q^d of the operator
    sum_t row[t] h^{level-|t|} frakD_t with a nonzero weight

        sum_t row[t][d - e] (x1 + e1 h)^t1 (x2 + e2 h)^t2 h^{level-|t|}
            = sum_a w[a] x^a h^{level-|a|},

    w mapping a to its exact coefficient, an int where integral.  The
    weight is homogeneous of degree `level`, so w is also its x-expansion
    at h = 1, where x + e h becomes x + e."""
    for e in [(e1, tot - e1) for tot in range(D + 1) for e1 in range(tot + 1)]:
        for d in [(d1, d2) for d1 in range(e[0], D + 1) for d2 in range(e[1], D + 1 - d1)]:
            w: dict = {}
            for t, u in row.items():
                c = u.coeffs.get((d[0] - e[0], d[1] - e[1]))
                if c:
                    c = _exact(c)
                    for a, s in _shift_weights(t, e):
                        w[a] = w.get(a, 0) + c * s
            w = {a: _exact(v) for a, v in w.items() if v}
            if w:
                yield e, d, w


def build_barD_normalized(lam, K: LadderImage, fam: dict) -> LadderImage:
    """Bar transform of the Schur combination of normalized operators on
    the ladder image K: the weights of the steps from q^e into bar degree
    m are summed first, W0 = sum w and W1 = sum (d1 - d2) w over the
    targets d with |d| = m, a term w_a x^a carrying h^(level - |a|)."""
    level = lam[0] + lam[1]
    tri = K.tri
    sums: dict = {}
    for e, d, w in _row_weights(_schur_row(lam, fam), level, K.D):
        W0, W1 = sums.setdefault((e, d[0] + d[1]), ([0] * tri.size, [0] * tri.size))
        for a, v in w.items():
            W0[tri.index[a]] += v
            W1[tri.index[a]] += (d[0] - d[1]) * v
    return K.bar(sums, level)


def class_extract(F: LadderImage, n: int, kmax: int) -> dict:
    """The class map on a one-q ladder image: x-expand every coefficient
    and Schur-reduce each graded piece into the box basis.  A coefficient
    homogeneous of degree deg has x-degree-r part c(x) h^(deg-r), so each
    component is that one exact term.  Returns (r, jindex) -> QSeries of
    expansions."""
    out: dict = {}
    keys = _triangle(2, kmax).keys
    for key in F.num_parts:
        deg, X, g = F.x_expansion(key, kmax)
        for lam, v in box_schur({e: v for e, v in zip(keys, X) if v}, n).items():
            r = lam[0] + lam[1]
            out.setdefault((r, partitions_of_degree(n, r).index(lam)), {})[key] = LaurentExpansion(
                {deg - r: Fraction(v, g)}, None)
    return {rj: QSeries(1, F.D, comp) for rj, comp in sorted(out.items())}


# ---------------------------------------------------------------------------
# the per-series pipeline
# ---------------------------------------------------------------------------


class GammaPipeline:
    """Everything derived from one ladder series, filled in by
    `build_pipeline`: the operator family, the inverses of the degree-k
    endomorphisms, the expansion tables, structure coefficients, and the
    classes of the assembled basis-weighted series.  The series, `barD`,
    `calD` and `ygamma`, are formed when read, from the ladder images in
    `bars`, at zero weights only; `y_gamma_evaluated` evaluates them."""

    def __init__(self, kind: str, n: int, a: CISpec, alphas: tuple | None, D: int):
        self.kind, self.n, self.a, self.alphas, self.D = kind, n, a, alphas, D
        self.family = {}  # p -> {t: U[p][t]}, see frakD_family_normalized
        self.bars = {}  # lam -> the bar series, a LadderImage (1q); zero weights only
        self.Jinv = {}  # k -> inverse of the degree-k endomorphism matrix
        self.J_certified = {}
        self.opexp = {}  # (k, i) -> {(s,(r,j)) -> scalar QSeries}
        self.structC = {}  # (k, i) -> {(t,(s,j)) -> scalar QSeries}
        self.eqtic_residual_zero = {}
        self.classes = {}  # lam -> {d -> {(r,j) -> Laurent}}

    @property
    def kmax(self) -> int:
        return 2 * (self.n - 2)

    @property
    def depth(self) -> int:
        return self.n * self.D + self.kmax + 2

    @functools.cached_property
    def barD(self) -> dict:
        """lam -> the bar series as a HyperSeries (1q), over the trivariate
        ladder chains of the two slots, as build_K has them."""
        if self.alphas is not None:
            raise ValueError("barD, calD and ygamma are formed at zero weights only; "
                             "y_gamma_evaluated gives the series at each fixed point")
        chains = tuple(DenChain.build(self.n, None, x, self.D, self.kmax + 1) for x in ("x1", "x2"))
        return {lam: bar.restore(chains) for lam, bar in self.bars.items()}

    @functools.cached_property
    def calD(self) -> dict:
        """(k, i) -> the normalized operator series, a QSeries of RatFunc."""
        return _normalized(self, {lam: bar.series() for lam, bar in self.barD.items()})

    @functools.cached_property
    def ygamma(self) -> dict:
        """lam -> the basis-weighted series, a QSeries of RatFunc."""
        return _assembled(self, self.calD, RatFunc(SparsePoly.variable(V3, "h")))


def _h_coeff(ser: QSeries, e: int, tri: _Triangle) -> list:
    """The h^e coefficients of a one-q series of expansions, as a list."""
    return [_exact(ser.coeffs[key].coeffs.get(e, 0)) if key in ser.coeffs else 0 for key in tri.keys]


def _basis(n: int, kmax: int):
    """Yield (k, i, lam) for the i-th box partition lam of degree k."""
    for k in range(kmax + 1):
        for i, lam in enumerate(partitions_of_degree(n, k)):
            yield k, i, lam


def build_pipeline(kind: str, n: int, a: CISpec, alphas, D: int) -> GammaPipeline:
    """Run the whole operator pipeline for one series, on the normalized
    shift-operator family.

    The family is read off the zero-weight ladder image at every weight.
    That is exact: it reads the x^s h^-|s| coefficient of each K_d, and as
    the x^s coefficient is homogeneous of degree (|a| - n) d - |s| in
    (h, alpha), that term has alpha-degree (|a| - n) d: with |a| <= n,
    which CISpec.validate enforces, it is the weight-free term or zero.
    The class map is linear, so it runs once per bar series: on the bar
    images at zero weights, where every fixed point coincides, and by
    localization at weights, where `pipe.bars` stays empty."""
    pipe = GammaPipeline(kind=kind, n=n, a=a,
                         alphas=tuple(alphas) if alphas is not None else None, D=D)
    kmax = pipe.kmax
    K = LadderImage.ladder(kind, n, a, D, kmax + 1)
    parts = box_partitions(n)
    pipe.family = frakD_family_normalized(K, kmax)
    if pipe.alphas is None:
        for lam in parts:
            pipe.bars[lam] = build_barD_normalized(lam, K, pipe.family)
        bar_cls = {lam: class_extract(pipe.bars[lam], n, kmax) for lam in parts}
    else:
        # kmax extra orders cover the h^(k-t-s) weights of the assembly
        bar_cls = _localized_classes(pipe, pipe.depth + kmax)
    comps = [(r, j) for r, j, _ in _basis(n, kmax)]
    zero = QSeries(1, D)
    tri = _triangle(1, D)
    # degree-k endomorphism matrices and Neumann inverses; the certificate
    # multiplies the stored inverse back
    for k in range(kmax + 1):
        basis_k = partitions_of_degree(n, k)
        size = len(basis_k)
        M = [[_h_coeff(bar_cls[lam].get((k, i), zero), 0, tri) for lam in basis_k] for i in range(size)]
        if any(M[i][j][0] != (1 if i == j else 0) for i in range(size) for j in range(size)):
            raise ArithmeticError(f"degree-{k} endomorphism q^0 part is not the identity")
        pipe.Jinv[k] = neumann_inverse([[tri.series(m) for m in row] for row in M], D)
        Minv = [[tri.from_series(x) for x in row] for row in pipe.Jinv[k]]
        ident = tri.identity(size)
        pipe.J_certified[k] = tri.mat_mul(M, Minv) == ident and tri.mat_mul(Minv, M) == ident
    # classes of the normalized operator series, per component
    calD_cls = {rj: _normalized(pipe, {lam: bar_cls[lam].get(rj, zero) for lam in parts}) for rj in comps}
    # expansion tables, as lists for the structure equations
    tables = {}
    absent = [0] * tri.size
    for k, iidx, _ in _basis(n, kmax):
        table = {}
        for rj in comps:
            ser = calD_cls[rj][(k, iidx)]
            for s in range(kmax + 1):
                x = _h_coeff(ser, k - s, tri)
                if any(x):
                    table[(s, rj)] = x
        # the q^0 table is the triple delta; an absent entry reads as 0
        for s in range(kmax + 1):
            for r, jidx in comps:
                want = 1 if (jidx == iidx and r == k and s == r) else 0
                if table.get((s, (r, jidx)), absent)[0] != want:
                    raise ArithmeticError(f"expansion table q^0 delta failed at {(k, iidx, s, r, jidx)}")
        tables[(k, iidx)] = table
        pipe.opexp[(k, iidx)] = {key: tri.series(x) for key, x in table.items()}
    # structure coefficients: one solve and one certificate per degree,
    # split into the per-class tables
    for k in range(kmax + 1):
        system = _structure_equations(n, k, tables, tri)
        for iidx, table in enumerate(_solve_structure(pipe, k, system)):
            pipe.structC[(k, iidx)] = table
        for iidx, ok in enumerate(_eqtic_residuals(pipe, k, system)):
            pipe.eqtic_residual_zero[(k, iidx)] = ok
    # classes of the assembled series, cut back to the pipeline depth
    y_cls = {rj: _assembled(pipe, cls, LaurentExpansion({1: Fraction(1)}, None)) for rj, cls in calD_cls.items()}
    for lam in parts:
        pipe.classes[lam] = {d: {} for d in range(D + 1)}
        for rj in comps:
            for (d,), le in y_cls[rj][lam].coeffs.items():
                pipe.classes[lam][d][rj] = LaurentExpansion(le.coeffs, None if le.depth is None else pipe.depth)
    return pipe


def _localized_classes(pipe: GammaPipeline, depth: int) -> dict:
    """The class map at weights, lam -> (r, j) -> QSeries of h-expansions:
    the bar series evaluated at the points p_ij, i < j, each value expanded
    at h = infinity to `depth` (per point, so no value grows), combined by
    the constant inverse restriction matrix, so exactly to `depth`."""
    pairs, Minv = restriction_inverse(pipe.alphas)
    at = [{lam: {key: _h_expand(v, depth) for key, v in ser.coeffs.items()}
           for lam, ser in _bars_evaluated(pipe, *p).items()} for p in pairs]
    out = {}
    for lam in box_partitions(pipe.n):
        out[lam] = {}
        for (r, j, _), row in zip(_basis(pipe.n, pipe.kmax), Minv):
            comp: dict = {}
            for c, ev in zip(row, at):
                for key, le in ev[lam].items():
                    comp[key] = comp[key] + le * c if key in comp else le * c
            out[lam][(r, j)] = QSeries(1, pipe.D, comp)
    return out


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


def _structure_equations(n: int, k: int, tables: dict, tri: _Triangle):
    """The defining equations of the structure coefficients of degree k
    as (keys, A, E), from the expansion tables as series lists: the
    classes (k, i) solve A C = E together, column i of E one-hot at the
    equation (0, (k, i)).

    The unknowns C~^{(t)}_{k,i;s,j}, t <= k and s <= k - t, are keyed
    (t, (s, j)); the equations use the same index set, keyed
    (r, (r1, j1)).  A[(r,(r1,j1))][(t,(s,j))] is C^{(r1,j1)}_{s,j,r+r1-t}
    for t <= r and 0 otherwise.  The expansion tables' q^0 delta, checked
    by build_pipeline, makes the q^0 part of A the identity.
    """
    keys = [(t, (s, j)) for t in range(k + 1) for s in range(k - t + 1)
            for j in range(len(partitions_of_degree(n, s)))]
    zero = [0] * tri.size
    A = [[tables[(s, j)].get((r + r1 - t, (r1, j1)), zero) if t <= r else zero for t, (s, j) in keys]
         for r, (r1, j1) in keys]
    E = [[tri.one() if key == (0, (k, iidx)) else zero for iidx in range(len(partitions_of_degree(n, k)))]
         for key in keys]
    return keys, A, E


def _solve_structure(pipe: GammaPipeline, k: int, system) -> list:
    """The structure coefficients of every class (k, i), indexed by i:
    (t, (s, j)) -> the scalar series C~^{(t)}_{k,i;s,j}, from one Neumann
    solve of the degree-k system A C = E."""
    keys, A, E = system
    tri = _triangle(1, pipe.D)
    C = _neumann_solve(A, E, tri)
    return [{key: tri.series(row[iidx]) for key, row in zip(keys, C)} for iidx in range(len(E[0]))]


def _eqtic_residuals(pipe: GammaPipeline, k: int, system) -> list:
    """Re-evaluate the degree-k equations A C = E on the stored solutions
    pipe.structC[(k, i)]: for each i, whether column i holds."""
    keys, A, E = system
    tri = _triangle(1, pipe.D)
    tables = [pipe.structC[(k, iidx)] for iidx in range(len(E[0]))]
    R = tri.mat_mul(A, [[tri.from_series(table[key]) for table in tables] for key in keys])
    return [all(r[iidx] == e[iidx] for r, e in zip(R, E)) for iidx in range(len(tables))]


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


def _bars_evaluated(pipe: GammaPipeline, i: int, j: int) -> dict:
    """Every bar series evaluated at the fixed point (i, j): partition ->
    QSeries of HRat.

    The operator weights are exact at the point: the bare operator t acts
    on the q^(d1,d2) coefficient as (alpha_i + d1 h)^t1 (alpha_j + d2 h)^t2,
    and `pipe.family` combines the bare operators as in the bar images.
    """
    xi, xj = pipe.alphas[i - 1], pipe.alphas[j - 1]
    K = k_series_evaluated(pipe.kind, pipe.n, pipe.a, pipe.alphas, i, j, pipe.D)
    barD = {}
    for lam in box_partitions(pipe.n):
        combo: dict = {}
        level = lam[0] + lam[1]
        for e, d, w in _row_weights(_schur_row(lam, pipe.family), level, pipe.D):
            at_point = [0] * (level + 1)  # ascending in h
            for a, v in w.items():
                at_point[level - a[0] - a[1]] += v * xi ** a[0] * xj ** a[1]
            term = K.get(e) * HRat.poly(at_point)
            combo[d] = combo[d] + term if d in combo else term
        barD[lam] = bar_evaluated(QSeries(2, pipe.D, combo), xi - xj)
    return barD


def y_gamma_evaluated(pipe: GammaPipeline, i: int, j: int) -> dict:
    """Every basis-weighted series evaluated at the fixed point (i, j):
    partition -> QSeries with values rational in h."""
    if pipe.alphas is None:
        raise ValueError("fixed-point evaluation needs concrete weights")
    return _assembled(pipe, _normalized(pipe, _bars_evaluated(pipe, i, j)), HRat.poly((0, 1)))


# ---------------------------------------------------------------------------
# diagonal orthogonality and the double series
# ---------------------------------------------------------------------------


def orthogonality_check(pipe_dot: GammaPipeline, pipe_ddot: GammaPipeline, table: dict | None = None) -> dict:
    """The double-series numerator at (h1, h2) = (h, -h), reduced in
    H* (x) H*: it must equal the diagonal tensor at q^0 and vanish at every
    positive q-degree.  Each entry of `assemble_double_J` (the pair's
    `table`, built here when not given) is summed as sum v h^e1 (-h)^e2,
    which needs the exact classes of zero weights."""
    if pipe_dot.alphas is not None or pipe_ddot.alphas is not None:
        raise ValueError("orthogonality_check needs zero-weight pipelines; "
                         "equivariant_orthogonality_check takes weights")
    if table is None:
        table = assemble_double_J(pipe_dot, pipe_ddot)
    failures = []
    for d, entries in table.items():
        want = diagonal(pipe_dot.n) if d == 0 else {}
        for key in sorted(entries.keys() | want.keys()):
            at_h = {}
            for (e1, e2), v in entries.get(key, {}).items():
                at_h[e1 + e2] = at_h.get(e1 + e2, 0) + (-v if e2 % 2 else v)
            got = LaurentExpansion(at_h, None)
            expect = LaurentExpansion.scalar(want.get(key, 0))
            if got != expect:
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

    An entry (lam1, lam2) at q^d sums, over every complementary class pair
    (lam, mu) and split d = d1 + d2, the product of the component lam1 of
    the first series' class of lam at q^d1 with the component lam2 of the
    second's class of mu at q^d2.  The double series is this numerator
    divided by (h1 + h2); its q^0 term is the diagonal tensor.
    """
    n = pipe_dot.n
    out: dict = {}
    for d in range(min(pipe_dot.D, pipe_ddot.D) + 1):
        tensor: dict = {}
        for lam in box_partitions(n):
            mu = complement(lam, n)
            for d1 in range(d + 1):
                c2 = pipe_ddot.classes[mu][d - d1]
                for (r1, j1), le1 in pipe_dot.classes[lam][d1].items():
                    lam1 = partitions_of_degree(n, r1)[j1]
                    for (r2, j2), le2 in c2.items():
                        cur = tensor.setdefault((lam1, partitions_of_degree(n, r2)[j2]), {})
                        for e1, v1 in le1.coeffs.items():
                            for e2, v2 in le2.coeffs.items():
                                cur[(e1, e2)] = cur.get((e1, e2), Fraction(0)) + Fraction(v1) * Fraction(v2)
        tensor = {key: {e: v for e, v in entry.items() if v} for key, entry in tensor.items()}
        out[d] = {key: entry for key, entry in tensor.items() if entry}
    return out
