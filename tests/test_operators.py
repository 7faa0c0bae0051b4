import functools
import operator
from fractions import Fraction

import pytest

from qgr import operators
from qgr.cohomology import (
    GenericityError,
    box_partitions,
    default_generic_alpha,
    diagonal,
    fixed_points,
    graded_to_schur,
    partitions_of_degree,
    schur_poly,
)
from qgr.hrat import HRat
from qgr.hyper import AMatrixSpec, CISpec, HyperSeries, LadderImage, bar_assemble, build_A, build_K
from qgr.operators import (
    _normalized,
    _shift_weights,
    assemble_Y_gamma,
    assemble_double_J,
    audit_frakD_normalizations,
    build_pipeline,
    class_extract,
    equivariant_orthogonality_check,
    frakD_family_normalized,
    neumann_inverse,
    orthogonality_check,
    y_gamma_evaluated,
)
from qgr.rings import RatFunc, SparsePoly
from qgr.series import LaurentExpansion, QSeries, laurent_expand_hbar, x_coefficients

V3 = ("x1", "x2", "h")
x1 = SparsePoly.variable(V3, "x1")
x2 = SparsePoly.variable(V3, "x2")
h = SparsePoly.variable(V3, "h")


def build_barD(lam, K):
    """Reference: the bar transform of the Schur polynomial in the bare
    shift operators, gamma(x1 + d1 h, x2 + d2 h) on the q^(d1,d2) term."""
    nums = {
        d: v.mul_trunc(schur_poly(lam).substitute({"x1": x1 + h * d[0], "x2": x2 + h * d[1]}), K.xtrunc)
        for d, v in K.num_parts.items()
    }
    return bar_assemble(HyperSeries(K.n, K.D, K.den_chains, nums, K.xtrunc))


def test_frakD_eigen_action():
    # (x1 + h q1 d/dq1)^t1 (x2 + h q2 d/dq2)^t2 on q^d c is
    # (x1 + d1 h)^t1 (x2 + d2 h)^t2 q^d c; the weights are its terms
    for t in [(0, 0), (1, 0), (0, 1), (2, 1), (1, 3), (4, 2)]:
        for d in [(0, 0), (3, 5), (1, 2), (0, 4), (2, 0)]:
            got = SparsePoly.zero(V3)
            for a, w in _shift_weights(t, d):
                assert w != 0
                got = got + w * x1 ** a[0] * x2 ** a[1] * h ** (t[0] + t[1] - a[0] - a[1])
            assert got == (x1 + d[0] * h) ** t[0] * (x2 + d[1] * h) ** t[1], (t, d)


def test_frakD_normalization_audit_passes_in_range():
    # weight rows fitting in n: the bare operators satisfy the table laws
    for rows, n in [((), 3), (((1, 1),), 3), (((2, 1),), 4), (((1, 1), (1, 0)), 4)]:
        A = build_A("dot", AMatrixSpec(n=n, rows=rows), 2)
        for p in ((1, 0), (0, 1), (1, 1), (2, 0)):
            rep = audit_frakD_normalizations(A, p)
            assert rep["ok"], (rows, p, rep["offenders"][:2])


def test_frakD_normalization_audit_fails_out_of_range():
    # a row exceeding n breaks the bare series-delta law (and the pipeline
    # switches to the corrected family there)
    A = build_A("dot", AMatrixSpec(n=3, rows=((3, 3),)), 2)
    rep = audit_frakD_normalizations(A, (1, 0))
    assert not rep["ok"]


def test_frakD_normalization_audit_q0_delta_can_fail():
    # build_A always has F_(0,0) = 1; doubling it breaks both deltas at
    # q^0, and only at the operator's own index
    A = build_A("dot", AMatrixSpec(n=3), 2)
    F = HyperSeries(A.n, A.D, A.den_chains, {**A.num_parts, (0, 0): 2 * A.num_parts[(0, 0)]}, A.xtrunc)
    for p in ((1, 0), (0, 1), (1, 1), (2, 0)):
        assert audit_frakD_normalizations(A, p)["ok"]
        ptot = p[0] + p[1]
        assert audit_frakD_normalizations(F, p)["offenders"] == [
            {"check": "q0-delta", "q": (0, 0), "r": p, "s": ptot, "got": 2},
            {"check": "series-delta", "q": (0, 0), "r": p, "s": ptot, "got": 2},
        ], p


# Reference route: apply each bare operator to the numerators, then x- and
# h-expand every product again for each entry read.  Equal expansion calls
# are answered from a memo, which changes no value.


@functools.lru_cache(maxsize=1024)
def _ref_x_coefficients(num, den, order):
    return x_coefficients(RatFunc(num, den), order)


def _ref_bare(K, t):
    return {
        key: num.mul_trunc((x1 + h * key[0]) ** t[0] * (x2 + h * key[1]) ** t[1], K.xtrunc)
        for key, num in K.num_parts.items()
    }


def _ref_entry(num, den, r, depth):
    """The x^r entry of num/den expanded at h = infinity."""
    v = _ref_x_coefficients(num, den, r[0] + r[1]).get(r)
    if v is None:
        return LaurentExpansion.zero(None)
    le = laurent_expand_hbar(v.num, v.den, depth)
    return LaurentExpansion({e: c.const_value() for e, c in le.coeffs.items()}, le.depth)


def _ref_family(K, pmax):
    D = K.D
    tables = {}
    bare = functools.cache(lambda t: _ref_bare(K, t))

    def table(t, r):
        if (t, r) not in tables:
            e0 = t[0] + t[1] - r[0] - r[1]
            out = {}
            for key, num in bare(t).items():
                out[key] = _ref_entry(num, K.dens[key], r, max(2, 2 - e0)).coeffs.get(e0, Fraction(0))
            tables[(t, r)] = QSeries(2, D, out)
        return tables[(t, r)]

    def entry(row, r):
        acc = QSeries(2, D)
        for t, u in row.items():
            acc = acc + u * table(t, r)
        return acc

    def add_rows(acc, row, c):
        for t, u in row.items():
            acc[t] = acc[t] + c * u if t in acc else c * u

    fam = {}
    for L in range(pmax + 1):
        ps = [(p1, L - p1) for p1 in range(L + 1)]
        work = {}
        for p in ps:
            G = {p: QSeries.one(2, D)}
            for r in [(r1, Lr - r1) for Lr in range(L) for r1 in range(Lr + 1)]:
                c = entry(G, r)
                if c.coeffs:
                    add_rows(G, fam[r], -c)
            work[p] = G
        binv = neumann_inverse([[entry(work[pc], pr) for pc in ps] for pr in ps], D, arity=2)
        for icol, p in enumerate(ps):
            acc = {}
            for irow, r in enumerate(ps):
                add_rows(acc, work[r], binv[irow][icol])
            fam[p] = {t: u for t, u in acc.items() if u.coeffs}
    return fam


def _ref_audit(F, p):
    ptot = p[0] + p[1]
    depth = F.n * F.D + ptot + 2
    offenders = []
    nums = _ref_bare(F, p)
    for key in sorted(nums, key=lambda k: (sum(k), k)):
        for e in [(e1, tot - e1) for tot in range(ptot + 1) for e1 in range(tot + 1)]:
            le = _ref_entry(nums[key], F.dens[key], e, depth)
            etot = e[0] + e[1]
            if sum(key) == 0:
                for s in range(depth + ptot):
                    got = le.coeff(ptot - s)
                    if got != (1 if (e == p and s == etot) else 0):
                        offenders.append({"check": "q0-delta", "q": key, "r": e, "s": s, "got": got})
            if etot <= ptot:
                got = le.coeff(ptot - etot)
                if got != (1 if (e == p and sum(key) == 0) else 0):
                    offenders.append({"check": "series-delta", "q": key, "r": e, "s": etot, "got": got})
    return {"ok": not offenders, "offenders": offenders}


def test_family_and_audit_match_reference_route():
    # the bare operators act on one expansion of each coefficient; the
    # route that expands each operator's numerator products must agree
    # entry for entry, Calabi-Yau rows (U != I) included.  The reference at
    # generic weights equals the zero-weight image's family, the one every
    # pipeline uses
    cases = [(n, a, None) for n, a in [(3, ()), (3, (1,)), (3, (1, 1, 1)), (3, (3,)), (4, (2,)), (4, (4,))]]
    cases += [(4, (2,), default_generic_alpha(4)), (3, (1, 1, 1), default_generic_alpha(3))]
    for kind in ("dot", "ddot"):
        for n, a, al in cases:
            K = build_K(kind, n, CISpec(a), al, 2, xtrunc=2 * (n - 2) + 1)
            image = LadderImage.ladder(kind, n, CISpec(a), 2, 2 * (n - 2) + 1)
            assert frakD_family_normalized(image, 2 * (n - 2)) == _ref_family(K, 2 * (n - 2)), (kind, n, a, al)
    failing = 0
    for kind in ("dot", "ddot"):
        # generic weights truncate the h-expansions, so the depth matters there
        for rows, n, al in [((), 3, None), (((1, 1),), 3, None), (((2, 1),), 4, None), (((3, 3),), 3, None),
                            (((1, 1),), 3, default_generic_alpha(3))]:
            A = build_A(kind, AMatrixSpec(n=n, rows=rows, alpha1=al, alpha2=al), 2)
            for p in ((1, 0), (0, 1), (1, 1), (2, 0)):
                rep = audit_frakD_normalizations(A, p)
                assert rep == _ref_audit(A, p), (kind, rows, al, p)
                failing += not rep["ok"]
    assert failing > 0


def test_barD_normalized_against_bare():
    # the family is the identity matrix over the bare operators exactly
    # where every weight row fits in n
    for n, a, trivial in [(3, (), True), (3, (1,), True), (4, (2,), True),
                          (3, (1, 1, 1), False), (3, (3,), False)]:
        K = LadderImage.ladder("dot", n, CISpec(a), 2, 2 * (n - 2) + 1)
        fam = frakD_family_normalized(K, 2 * (n - 2))
        identity = {p: {p: QSeries.one(2, 2)} for p in fam}
        assert (fam == identity) is trivial, (n, a)
    # weight rows that fit in n: the normalized family is the bare one
    for a in ((), (1,)):
        pipe = build_pipeline("dot", 3, CISpec(a), None, 2)
        K = build_K("dot", 3, CISpec(a), None, 2, xtrunc=pipe.kmax + 1)
        for lam in box_partitions(3):
            bare = build_barD(lam, K)
            for d in range(3):
                assert pipe.barD[lam].coeff((d,)) == bare.coeff((d,)), (a, lam, d)
    # the row (3, 3) exceeds n = 3: every bare operator needs correcting
    pipe = build_pipeline("dot", 3, CISpec((3,)), None, 2)
    K = build_K("dot", 3, CISpec((3,)), None, 2, xtrunc=pipe.kmax + 1)
    for lam in box_partitions(3):
        bare = build_barD(lam, K)
        assert any(pipe.barD[lam].coeff((d,)) != bare.coeff((d,)) for d in range(3)), lam


def test_barD_k0_is_bar_transform():
    K = build_K("dot", 3, CISpec(()), None, 2)
    D0 = build_barD((0, 0), K)
    Y = bar_assemble(K)
    for d in range(3):
        assert D0.coeff((d,)) == Y.coeff((d,))


def test_barD_symmetry():
    K = build_K("dot", 3, CISpec((1,)), None, 2)
    D1 = build_barD((1, 0), K)
    for d in range(3):
        c = D1.coeff((d,))
        assert c == c.swap_x()


@pytest.mark.parametrize("n,a", [(3, ()), (3, (3,)), (4, (2,))])
def test_pipeline_certificates(n, a):
    pipe = build_pipeline("dot", n, CISpec(a), None, 2)
    assert all(pipe.J_certified.values())
    assert all(pipe.eqtic_residual_zero.values())
    # q0 of every assembled series is its basis class
    for lam in box_partitions(n):
        got = pipe.ygamma[lam].get((0,))
        assert got == RatFunc(schur_poly(lam).embed(V3))
    # structure coefficients: t=0 row is the delta
    for (k, i), table in pipe.structC.items():
        for (t, (s, j)), ser in table.items():
            if t == 0:
                want = QSeries.one(1, pipe.D) if (s, j) == (k, i) else QSeries(1, pipe.D)
                assert ser == want


# The routes the single Neumann solve replaced, kept verbatim as oracles:
# the power sum I + N + ... + N^D with N = I - M over QSeries, and the
# back-substitution of the structure equations ascending in q-degree.


def _ref_mat_identity(size: int, D: int, arity: int = 1):
    return [
        [QSeries.one(arity, D) if i == j else QSeries(arity, D) for j in range(size)]
        for i in range(size)
    ]


def _ref_mat_mul(A, B):
    # a product with an empty factor adds nothing, so it is skipped
    return [[functools.reduce(operator.add, (a * b for a, b in zip(row[1:], col[1:]) if a.coeffs and b.coeffs),
                              row[0] * col[0]) for col in zip(*B)] for row in A]


def _ref_mat_add(A, B):
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def _ref_mat_neg(A):
    return [[-a for a in row] for row in A]


def _ref_neumann_inverse(M, D: int, arity: int = 1):
    """Inverse of a scalar-series matrix with identity q^0 part."""
    size = len(M)
    I = _ref_mat_identity(size, D, arity)
    N = _ref_mat_add(I, _ref_mat_neg(M))  # N = I - M, O(q)
    inv = I
    power = I
    for _ in range(D):
        power = _ref_mat_mul(power, N)
        inv = _ref_mat_add(inv, power)
    return inv


def _ref_opexp_entry(pipe, s: int, jidx: int, m: int, r1: int, j1: int) -> QSeries:
    """C^{(r1,j1)}_{s,j,m} as a scalar series (zero when absent)."""
    return pipe.opexp[(s, jidx)].get((m, (r1, j1)), QSeries(1, pipe.D))


def _ref_solve_structure(pipe, k: int, iidx: int) -> dict:
    """Back-substitute the defining equations, ascending in q-degree.

    Unknowns C~^{(t)}_{k,i;s,j} for t <= k, s <= k - t; equation (r, r1, j1)
    isolates the unknown with (t, s, j) = (r, r1, j1) at the top q-order.
    """
    D = pipe.D
    n = pipe.n
    unknowns: dict = {}
    for t in range(k + 1):
        for s in range(k - t + 1):
            for jidx in range(len(partitions_of_degree(n, s))):
                unknowns[(t, (s, jidx))] = {}
    for Dq in range(D + 1):
        for r in range(k + 1):
            for r1 in range(k - r + 1):
                for j1 in range(len(partitions_of_degree(n, r1))):
                    rhs = Fraction(1) if (j1 == iidx and r1 == k and r == 0 and Dq == 0) else Fraction(0)
                    acc = Fraction(0)
                    for t in range(r + 1):
                        for s in range(k - t + 1):
                            for jidx in range(len(partitions_of_degree(n, s))):
                                cterm = _ref_opexp_entry(pipe, s, jidx, r + r1 - t, r1, j1)
                                known = unknowns[(t, (s, jidx))]
                                for D1 in range(Dq + 1):
                                    if (t, (s, jidx), D1) == (r, (r1, j1), Dq):
                                        continue
                                    v1 = known.get(D1)
                                    if not v1:
                                        continue
                                    v2 = cterm.get((Dq - D1,))
                                    if v2:
                                        acc += v1 * v2
                    unknowns[(r, (r1, j1))][Dq] = rhs - acc
    return {
        key: QSeries(1, D, {(d,): v for d, v in vals.items() if v})
        for key, vals in unknowns.items()
    }


@pytest.mark.parametrize("n,a,D", [
    (3, (), 3), (3, (1,), 3), (3, (3,), 3), (4, (2,), 3), (4, (4,), 2), (5, (2,), 2),
])
def test_neumann_solve_matches_replaced_routes(n, a, D, monkeypatch):
    for kind in ("dot", "ddot"):
        solves, inverses = [], []

        def recording_solve(M, B, tri):
            X = solve(M, B, tri)
            solves.append((M, B, tri, X))
            return X

        def recording_inverse(M, D, arity=1):
            inv = neumann_inverse(M, D, arity)
            inverses.append((M, D, arity, inv))
            return inv

        solve = operators._neumann_solve
        monkeypatch.setattr(operators, "_neumann_solve", recording_solve)
        monkeypatch.setattr(operators, "neumann_inverse", recording_inverse)
        pipe = build_pipeline(kind, n, CISpec(a), None, D)
        monkeypatch.undo()
        # the family's level blocks are the two-variable solves, against the
        # identity; then one J inverse per degree
        blocks = [(M, B, tri, X) for M, B, tri, X in solves if tri.arity == 2]
        assert len(blocks) == pipe.kmax + 1 and len(inverses) == pipe.kmax + 1
        for M, B, tri, X in blocks:
            assert B == tri.identity(len(M)) and tri.D == D
            Mq = [[tri.series(m) for m in row] for row in M]
            assert [[tri.series(x) for x in row] for row in X] == _ref_neumann_inverse(Mq, D, 2), (kind, len(M))
        if sum(a) == n and kind == "dot":  # the blocks are not the identity here
            M, B, tri, X = blocks[-1]
            assert X != B
        for k, (M, Dm, arity, inv) in enumerate(inverses):
            assert pipe.Jinv[k] is inv and (Dm, arity) == (D, 1)
            assert inv == _ref_neumann_inverse(M, Dm, arity), (kind, k)
        for (k, i), table in pipe.structC.items():
            want = _ref_solve_structure(pipe, k, i)
            assert table.keys() == want.keys(), (kind, k, i)
            for key, ser in want.items():
                assert table[key] == ser, (kind, k, i, key)


@pytest.mark.parametrize("n,a,alphas", [
    (3, (3,), None), (4, (2,), None), (3, (3,), "generic"), (3, (1, 1, 1), "generic"),
])
def test_pipeline_tables_hold_fractions(n, a, alphas):
    # the scalar layer runs on ints where values are integral; every table
    # other code reads still holds Fraction values
    al = default_generic_alpha(n) if alphas else None
    pipe = build_pipeline("dot", n, CISpec(a), al, 2)
    values = [v for row in pipe.family.values() for u in row.values() for v in u.coeffs.values()]
    values += [v for M in pipe.Jinv.values() for row in M for u in row for v in u.coeffs.values()]
    values += [v for tab in (*pipe.opexp.values(), *pipe.structC.values())
               for u in tab.values() for v in u.coeffs.values()]
    assert len(values) > 50 and all(type(v) is Fraction for v in values)
    if alphas:
        assert any(v.denominator != 1 for v in values)


def test_opexp_q0_delta_and_homogeneity_filter():
    n, a = 3, CISpec((1,))
    pipe = build_pipeline("dot", n, a, None, 2)
    deficit = n - a.total
    for (k, i), table in pipe.opexp.items():
        for (s, (r, j)), ser in table.items():
            q0 = ser.get((0,))
            want = Fraction(1) if (j == i and r == k and s == r) else Fraction(0)
            assert q0 == want
            # at alpha = 0 entries vanish unless s = r + (n - |a|) d
            for (d,), v in ser.coeffs.items():
                if v:
                    assert s == r + deficit * d


def test_opexp_q0_delta_requires_its_entries(monkeypatch):
    # zero class tables leave every expansion table empty; the delta
    # entries are then missing, and the check must not pass
    def zero_tables(pipe, bar):
        return {(k, i): QSeries(1, pipe.D) for k in range(pipe.kmax + 1)
                for i in range(len(partitions_of_degree(pipe.n, k)))}

    monkeypatch.setattr(operators, "_normalized", zero_tables)
    with pytest.raises(ArithmeticError, match="q\\^0 delta"):
        build_pipeline("dot", 3, CISpec((1,)), None, 1)


def test_k0_pipeline_is_plain_series():
    n, a = 3, CISpec(())
    pipe = build_pipeline("dot", n, a, None, 2)
    Y = bar_assemble(build_K("dot", n, a, None, 2, xtrunc=2 * (n - 2) + 1))
    for d in range(3):
        assert pipe.ygamma[(0, 0)].get((d,)) == Y.coeff((d,))


@pytest.mark.parametrize("a", [(), (1,), (3,), (1, 1, 1)])
def test_orthogonality_n3(a):
    pd = build_pipeline("dot", 3, CISpec(a), None, 2)
    pdd = build_pipeline("ddot", 3, CISpec(a), None, 2)
    rep = orthogonality_check(pd, pdd)
    assert rep["ok"], rep["failures"][:2]


def test_orthogonality_names_failing_entries():
    # one h-coefficient of one class component raised by 1: the check
    # fails exactly at the entries that component reaches
    pd = build_pipeline("dot", 3, CISpec((1,)), None, 2)
    pdd = build_pipeline("ddot", 3, CISpec((1,)), None, 2)
    assert orthogonality_check(pd, pdd)["ok"]
    cls = pd.classes[(1, 0)][1]
    cls[(0, 0)] = LaurentExpansion({-1: cls[(0, 0)].coeffs[-1] + 1}, None)
    rep = orthogonality_check(pd, pdd)
    assert not rep["ok"]
    got = sorted((f["q"], f["entry"], f["got"], f["want"]) for f in rep["failures"])
    zero = LaurentExpansion.zero(None)
    assert got == [
        (1, ((0, 0), (1, 0)), LaurentExpansion({-1: 1}, None), zero),
        (2, ((0, 0), (1, 0)), LaurentExpansion({-3: 1}, None), zero),
        (2, ((0, 0), (1, 1)), LaurentExpansion({-4: 2}, None), zero),
    ]


def test_orthogonality_check_rejects_weights():
    al = default_generic_alpha(3)
    pd = build_pipeline("dot", 3, CISpec((1,)), al, 1)
    pdd = build_pipeline("ddot", 3, CISpec((1,)), al, 1)
    with pytest.raises(ValueError, match="equivariant_orthogonality_check"):
        orthogonality_check(pd, pdd)


def test_double_J_q0_is_diagonal():
    n = 3
    pd = build_pipeline("dot", n, CISpec((1,)), None, 1)
    pdd = build_pipeline("ddot", n, CISpec((1,)), None, 1)
    table = assemble_double_J(pd, pdd)
    want = diagonal(n)
    got0 = table[0]
    for (lam, mu), entry in got0.items():
        w = want.get((lam, mu), Fraction(0))
        # q^0 numerator: h1^0 h2^0 coefficient carries the diagonal tensor
        assert entry.get((0, 0), Fraction(0)) == w
    for key, w in want.items():
        assert got0.get(key, {}).get((0, 0), Fraction(0)) == w


def _equivariant_orthogonality(n, a, al, D):
    pd = build_pipeline("dot", n, a, al, D)
    pdd = build_pipeline("ddot", n, a, al, D)
    return equivariant_orthogonality_check(pd, pdd)


def test_equivariant_double_series_two_seeds():
    # the fixed-point orthogonality identity holds at two independent
    # generic weight draws (dual-alpha check)
    n = 3
    for a, D in ((CISpec(()), 1), (CISpec((1,)), 2), (CISpec((2,)), 2)):
        for base in (7, 11):
            al = tuple(Fraction(base**m) for m in range(1, n + 1))
            rep = _equivariant_orthogonality(n, a, al, D)
            assert rep["ok"], (a, base, rep["failures"][:2])


def test_equivariant_orthogonality_needs_equal_weights():
    n, a = 3, CISpec(())
    al7 = default_generic_alpha(n)
    al11 = tuple(Fraction(11**m) for m in range(1, n + 1))
    for w1, w2 in ((None, None), (al7, None), (None, al7), (al7, al11)):
        pd = build_pipeline("dot", n, a, w1, 1)
        pdd = build_pipeline("ddot", n, a, w2, 1)
        with pytest.raises(ValueError):
            equivariant_orthogonality_check(pd, pdd)


@pytest.mark.parametrize("n,a,D", [(3, (1, 1, 1), 1), (3, (3,), 1), (4, (4,), 1), (3, (3,), 2)])
def test_equivariant_double_series_calabi_yau(n, a, D):
    # |a| = n: the classes keep the alpha-corrections of the Schur classes
    # outside the box, which an x-expansion cut at the box drops
    rep = _equivariant_orthogonality(n, CISpec(a), default_generic_alpha(n), D)
    assert rep["ok"], rep["failures"][:2]


def test_y_gamma_evaluated_matches_trivariate():
    # the evaluated route equals J^-1 and the structure corrections applied
    # to the normalized family on the untruncated ladder series, substituted
    # at x = (alpha_1, alpha_2); on (1,1,1) and (3,) the family is not the
    # bare one.  The family and the bar transform are the trivariate
    # oracles below.
    n, D = 3, 2
    al = default_generic_alpha(n)
    pt = {"x1": al[0], "x2": al[1]}
    for a in (CISpec((2,)), CISpec((1, 1, 1)), CISpec((3,))):
        pipe = build_pipeline("dot", n, a, al, D)
        K = build_K("dot", n, a, al, D)
        fam = _ref_family(K, pipe.kmax)
        bar = {
            lam: _ref_build_barD_normalized(lam, K, fam).series().map_values(lambda v: v.substitute(pt))
            for lam in box_partitions(n)
        }
        calD = _normalized(pipe, bar)
        ev = y_gamma_evaluated(pipe, 1, 2)
        assert set(ev) == set(box_partitions(n))
        for k in range(pipe.kmax + 1):
            for j, lam in enumerate(partitions_of_degree(n, k)):
                want = assemble_Y_gamma(pipe, calD, k, j, h)
                for d in range(D + 1):
                    assert ev[lam].get((d,)) == want.get((d,)), (a, lam, d)
                # q0 evaluates to the restricted class
                assert ev[lam].get((0,)) == schur_poly(lam).eval_all(pt)


# The trivariate route of the pipeline, kept verbatim as an oracle for the
# ladder-image route: operator weights as powers of trivariate polynomials,
# the bar transform of their products with the ladder numerators, and the
# class map through x_coefficients and h-expansion.


def _ref_powers(base, k: int) -> list:
    """[base^0, ..., base^k], each power one product from the last."""
    out = [base**0]
    for _ in range(k):
        out.append(out[-1] * base)
    return out


def _ref_row_weights(row: dict, level: int, D: int, x1, x2, h):
    """Yield (e, d, w) for every step q^e -> q^d of the operator
    sum_t row[t] h^{level-|t|} frakD_t with a nonzero weight

        w = sum_t row[t][d - e] (x1 + e1 h)^t1 (x2 + e2 h)^t2 h^{level-|t|},

    computed in the type of x1, x2 and h from one table of powers per
    factor, and only for the t that reach some q^d."""
    hpow = _ref_powers(h, level)
    for e in [(e1, tot - e1) for tot in range(D + 1) for e1 in range(tot + 1)]:
        reach = D - e[0] - e[1]
        live = [t for t, u in row.items() if any(k1 + k2 <= reach for k1, k2 in u.coeffs)]
        if not live:
            continue
        pow1 = _ref_powers(x1 + h * e[0], max(t[0] for t in live))
        pow2 = _ref_powers(x2 + h * e[1], max(t[1] for t in live))
        shifted = {t: pow1[t[0]] * pow2[t[1]] * hpow[level - t[0] - t[1]] for t in live}
        for d in [(d1, d2) for d1 in range(e[0], D + 1) for d2 in range(e[1], D + 1 - d1)]:
            w = None
            for t in live:
                c = row[t].get((d[0] - e[0], d[1] - e[1]))
                if c:
                    w = shifted[t] * c if w is None else w + shifted[t] * c
            if w is not None:
                yield e, d, w


def _ref_build_barD_normalized(lam, K, fam: dict):
    """Bar transform of the Schur combination of normalized operators."""
    c1, c2 = K.den_chains
    combo: dict = {}
    steps = _ref_row_weights(operators._schur_row(lam, fam), lam[0] + lam[1], K.D, x1, x2, h)
    for e, d, w in steps:
        cof = c1.cofactor(e[0], d[0]) * c2.cofactor(e[1], d[1])
        term = K.num_parts[e].mul_trunc(w, K.xtrunc).mul_trunc(cof, K.xtrunc)
        combo[d] = combo[d] + term if d in combo else term
    F = HyperSeries(n=K.n, D=K.D, den_chains=K.den_chains, num_parts=combo, xtrunc=K.xtrunc)
    return bar_assemble(F)


def _ref_class_extract(ser: QSeries, n: int, kmax: int, depth: int) -> dict:
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
                    out.setdefault((r, jidx), {})[key] = operators._h_expand(v, depth)
    return {rj: QSeries(1, ser.trunc_q, comp) for rj, comp in sorted(out.items())}


_FRACTIONAL_ALPHA = (Fraction(1, 2), Fraction(5, 3), Fraction(7))


@pytest.mark.parametrize("n,a,D", [(3, (), 3), (3, (3,), 3), (4, (2,), 2), (5, (5,), 2), (6, (3, 3), 2)])
def test_h1_route_matches_trivariate_route(n, a, D, monkeypatch):
    _check_image_route(n, a, D, monkeypatch)


def _ref_x_route_classes(pipe, depth):
    """The class map at weights as the x-route: the trivariate bar series
    of the pipeline's family, x-expanded and cut at the box."""
    K = build_K(pipe.kind, pipe.n, pipe.a, pipe.alphas, pipe.D, xtrunc=pipe.kmax + 1)
    return {lam: _ref_class_extract(_ref_build_barD_normalized(lam, K, pipe.family).series(), pipe.n, pipe.kmax, depth)
            for lam in box_partitions(pipe.n)}


@pytest.mark.parametrize("n,a,D,alphas", [
    (3, (1, 1, 1), 2, "generic"), (3, (3,), 2, "generic"), (4, (2,), 2, "generic"), (4, (4,), 1, "generic"),
    (3, (1,), 2, "fractional"),
])
def test_image_route_matches_trivariate_route_at_weights(n, a, D, alphas, monkeypatch):
    # the pipeline at weights (the zero-weight image's family, classes by
    # localization) against the trivariate pipeline at the same weights
    # (family of the weighted series, classes by the x-route).  The two
    # class maps agree at h >= 0; below, the x-route drops the
    # alpha-corrections, which reach the tables only when |a| = n
    al = default_generic_alpha(n) if alphas == "generic" else _FRACTIONAL_ALPHA
    for kind in ("dot", "ddot"):
        pipe = build_pipeline(kind, n, CISpec(a), al, D)
        monkeypatch.setattr(LadderImage, "ladder", lambda kind, n, a, D, xtrunc: build_K(kind, n, a, al, D, xtrunc))
        monkeypatch.setattr(operators, "frakD_family_normalized", _ref_family)
        monkeypatch.setattr(operators, "_localized_classes", _ref_x_route_classes)
        ref = build_pipeline(kind, n, CISpec(a), al, D)
        monkeypatch.undo()
        assert pipe.bars == {} and (pipe.family, pipe.Jinv) == (ref.family, ref.Jinv), kind
        if sum(a) < n:
            assert (pipe.opexp, pipe.structC) == (ref.opexp, ref.structC), kind
        for lam in box_partitions(n):
            for d in range(D + 1):
                got, want = pipe.classes[lam][d], ref.classes[lam][d]
                for rj in got.keys() | want.keys():
                    le, ref_le = got.get(rj, LaurentExpansion.zero()), want.get(rj, LaurentExpansion.zero())
                    assert ({e: c for e, c in le.coeffs.items() if e >= 0}
                            == {e: c for e, c in ref_le.coeffs.items() if e >= 0}), (kind, lam, d, rj)


_H2_CASES = [
    ("dot", 3, (), 2), ("dot", 3, (1,), 3), ("dot", 4, (2,), 2), ("dot", 3, (3,), 3), ("dot", 3, (1, 1, 1), 2),
    ("dot", 4, (4,), 2), ("dot", 4, (2, 2), 2), ("dot", 5, (2,), 2), ("dot", 5, (5,), 1), ("dot", 4, (1, 3), 2),
    ("ddot", 4, (2,), 2), ("ddot", 3, (3,), 2), ("ddot", 4, (4,), 2),
]


@pytest.mark.parametrize("kind,n,a,D", _H2_CASES)
def test_family_is_weight_free(kind, n, a, D):
    # the family reads the x^s h^-|s| coefficients of the ladder series,
    # of alpha-degree (|a| - n) d: with |a| <= n the weight-free term or
    # zero, so the zero-weight family, which the pipeline takes at every
    # weight, is the family of the weighted series.  It is the bare one
    # (the identity) exactly when |a| < n, so a pipeline using the bare
    # operators at weights would fail here on |a| = n
    pipe = build_pipeline(kind, n, CISpec(a), default_generic_alpha(n), D)
    identity = {p: {p: QSeries.one(2, D)} for p in pipe.family}
    for al in (pipe.alphas, (Fraction(1, 2), Fraction(5, 3), Fraction(7), Fraction(11), Fraction(13))[:n]):
        ref = _ref_family(build_K(kind, n, CISpec(a), al, D, xtrunc=pipe.kmax + 1), pipe.kmax)
        assert pipe.family == ref and (ref == identity) is (sum(a) < n), (kind, n, a, al)


@pytest.mark.parametrize("n,a,D,alphas", [
    (3, (1, 1, 1), 2, "generic"), (3, (3,), 2, "generic"), (4, (2,), 2, "generic"), (4, (4,), 1, "generic"),
    (3, (1,), 2, "fractional"),
])
def test_classes_match_localization(n, a, D, alphas):
    # the classes restrict at every ordered fixed point, i > j included
    # (which the class map never reads), to the h-expansion of the series
    # evaluated there
    al = default_generic_alpha(n) if alphas == "generic" else _FRACTIONAL_ALPHA
    for kind in ("dot", "ddot"):
        pipe = build_pipeline(kind, n, CISpec(a), al, D)
        for i, j in fixed_points(n):
            at = {"x1": al[i - 1], "x2": al[j - 1]}
            ev = y_gamma_evaluated(pipe, i, j)
            for lam in box_partitions(n):
                for d in range(D + 1):
                    got = LaurentExpansion.zero()
                    for (r, jidx), le in pipe.classes[lam][d].items():
                        got = got + le * schur_poly(partitions_of_degree(n, r)[jidx]).eval_all(at)
                    want = operators._h_expand(HRat.convert(ev[lam].get((d,))), pipe.depth)
                    assert (LaurentExpansion(got.coeffs, pipe.depth)
                            == LaurentExpansion(want.coeffs, pipe.depth)), (kind, (i, j), lam, d)


def test_localization_needs_distinct_restrictions():
    # alpha_1 = alpha_2: p_13 and p_23 restrict every class alike
    with pytest.raises(GenericityError, match="singular"):
        build_pipeline("dot", 3, CISpec(()), (Fraction(1), Fraction(1), Fraction(2)), 1)


def _check_image_route(n, a, D, monkeypatch):
    # the pipeline on h = 1 ladder images against the same pipeline with the
    # trivariate family, bar transform and class map: family, bar class
    # tables, restored bar numerators and every table downstream
    fractional = False
    for kind in ("dot", "ddot"):
        pipe = build_pipeline(kind, n, CISpec(a), None, D)
        monkeypatch.setattr(LadderImage, "ladder", lambda kind, n, a, D, xtrunc: build_K(kind, n, a, None, D, xtrunc))
        monkeypatch.setattr(operators, "frakD_family_normalized", _ref_family)
        monkeypatch.setattr(operators, "build_barD_normalized", _ref_build_barD_normalized)
        # zero-weight components are exact terms, so no depth is read
        monkeypatch.setattr(operators, "class_extract",
                            lambda F, n, kmax: _ref_class_extract(F.series(), n, kmax, 1))
        ref = build_pipeline(kind, n, CISpec(a), None, D)
        monkeypatch.undo()
        assert all(isinstance(bar, LadderImage) for bar in pipe.bars.values())
        ladder = LadderImage.ladder(kind, n, CISpec(a), D, pipe.kmax + 1)
        K = build_K(kind, n, CISpec(a), None, D, xtrunc=pipe.kmax + 1)
        assert ladder.restore(K.den_chains).num_parts == K.num_parts, kind
        assert pipe.family == ref.family, kind
        for lam in box_partitions(n):
            got = class_extract(pipe.bars[lam], n, pipe.kmax)
            want = _ref_class_extract(ref.bars[lam].series(), n, pipe.kmax, 1)
            assert {rj: ser.coeffs for rj, ser in got.items()} == {rj: ser.coeffs for rj, ser in want.items()}
            bar = pipe.barD[lam]
            assert bar.num_parts == ref.bars[lam].num_parts and bar.xtrunc == ref.bars[lam].xtrunc, (kind, lam)
        assert pipe.classes == ref.classes, kind
        assert (pipe.opexp, pipe.structC, pipe.Jinv) == (ref.opexp, ref.structC, ref.Jinv), kind
        fractional |= any(v.denominator != 1 for tab in pipe.opexp.values()
                          for ser in tab.values() for v in ser.coeffs.values())
    # (5, (5,)) has non-integral expansion tables, so the int-while-integral
    # rule meets Fractions there
    assert fractional or (n, a) != (5, (5,))


def _coefficient_classes(pipe, ser) -> dict:
    """d -> {(r, j) -> expansion}: the class map run on each single
    q-coefficient of a series of RatFunc, at the pipeline depth."""
    out = {d: {} for d in range(pipe.D + 1)}
    for (d,), v in ser.coeffs.items():
        for rj, cls in _ref_class_extract(QSeries(1, pipe.D, {(d,): v}), pipe.n, pipe.kmax, pipe.depth).items():
            out[d][rj] = cls.get((d,))
    return out


@pytest.mark.parametrize("n,a,alphas", [
    (3, (1,), None), (3, (1, 1, 1), None), (4, (2,), None), (3, (3,), None), (3, (2,), None), (5, (5,), None),
])
def test_classes_match_coefficientwise_extraction(n, a, alphas):
    # the pipeline extracts classes from the bar series only and gets the
    # rest by linear algebra; extracting every coefficient of the formed
    # RatFunc series must agree in keys, coefficients and depth.  The
    # series are formed at zero weights; test_classes_match_localization
    # checks the classes at weights
    pipe = build_pipeline("dot", n, CISpec(a), alphas, 2)
    for lam, ser in pipe.ygamma.items():
        want = _coefficient_classes(pipe, ser)
        for d in range(pipe.D + 1):
            got = pipe.classes[lam][d]
            assert set(got) == set(want[d]), (lam, d)
            for rj, le in want[d].items():
                assert got[rj] == le and got[rj].depth == le.depth, (lam, d, rj)
    for (k, i), ser in pipe.calD.items():
        table = {}
        for d, cls in _coefficient_classes(pipe, ser).items():
            for rj, le in cls.items():
                for s in range(pipe.kmax + 1):
                    c = le.coeffs.get(k - s, 0)
                    if c:
                        table[(s, rj)] = table.get((s, rj), QSeries(1, pipe.D)) + QSeries(1, pipe.D, {(d,): c})
        assert pipe.opexp[(k, i)] == table, (k, i)


def test_series_views_are_formed_on_read():
    # double-j and the orthogonality check work from the class tables alone
    pd = build_pipeline("dot", 3, CISpec((1,)), None, 1)
    pdd = build_pipeline("ddot", 3, CISpec((1,)), None, 1)
    assert orthogonality_check(pd, pdd)["ok"]
    assemble_double_J(pd, pdd)
    for pipe in (pd, pdd):
        assert "calD" not in vars(pipe) and "ygamma" not in vars(pipe)
    assert pd.ygamma[(0, 0)].get((0,)) == 1 and "calD" in vars(pd)


def test_named_pipeline_accessors():
    pipe = build_pipeline("dot", 3, CISpec((1,)), None, 2)
    assert pipe.J_certified[1] and {i for (k, i) in pipe.calD if k == 1} == {0}
    assert pipe.opexp[(1, 0)][(1, (1, 0))].get((0,)) == 1
    assert pipe.eqtic_residual_zero[(2, 0)]
    assert pipe.structC[(2, 0)][(0, (2, 0))].get((0,)) == 1
    # at weights the series are read at the fixed points only
    pipe = build_pipeline("dot", 3, CISpec((1,)), default_generic_alpha(3), 1)
    for view in ("barD", "calD", "ygamma"):
        with pytest.raises(ValueError, match="y_gamma_evaluated"):
            getattr(pipe, view)


def test_pipeline_shares_x_inverse(monkeypatch):
    # Regression guard by count: the zero-weight pipeline expands the bar
    # series of every box class over the same few ladder denominators, so
    # each (denominator, order) inverse must be computed once and then
    # reused.  No pipeline calls x_coefficients: the family and the bars
    # expand ladder images, and the bars of one ladder share its table of
    # inverses.  At weights only the family expands: the ladder key of
    # degree 0, and no bar.
    import qgr.operators

    seen, expansions = [], []
    x_expansion = LadderImage.x_expansion

    def counted(f, max_x_degree):
        seen.append((f.den, max_x_degree))
        return x_coefficients(f, max_x_degree)

    def counted_expansion(self, key, order):
        expansions.append((id(self.inverses), key[0], key[-1], order))
        return x_expansion(self, key, order)

    monkeypatch.setattr(qgr.operators, "x_coefficients", counted)
    monkeypatch.setattr(LadderImage, "x_expansion", counted_expansion)
    pipe = build_pipeline("dot", 4, CISpec((2,)), None, 2)
    assert seen == []
    [inverses] = {id(bar.inverses): bar.inverses for bar in pipe.bars.values()}.values()
    assert {e[0] for e in expansions} == {id(inverses)}
    assert len(inverses) == len(set(expansions)) < len(expansions), (len(inverses), len(expansions))
    expansions.clear()
    pipe = build_pipeline("dot", 4, CISpec((2,)), default_generic_alpha(4), 2)
    assert seen == [] and pipe.bars == {}
    assert [e[1:] for e in expansions] == [(0, 0, pipe.kmax)]


def test_h_expansion_makes_no_polynomial_product(monkeypatch):
    # functions of h alone expand on Fraction coefficient lists: no step of
    # the recurrence goes through the SparsePoly product kernel
    from qgr import rings

    K = build_K("dot", 4, CISpec((2,)), default_generic_alpha(4), 2)
    vals = [v for key in K.num_parts for v in x_coefficients(K.coeff(key), 2).values()]
    calls = []
    kernel = rings._mul_terms

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(rings, "_mul_terms", counted)
    got = [operators._h_expand(v, 6) for v in vals]
    assert not calls
    # the inputs run the recurrence: truncated expansions, Fraction values
    assert sum(le.depth == 6 for le in got) > 10
    assert all(type(c) is Fraction for le in got for c in le.coeffs.values())
