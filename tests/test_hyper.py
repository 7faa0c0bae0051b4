from fractions import Fraction

import pytest

from qgr.cohomology import default_generic_alpha, genericity_check
from qgr.hyper import (
    AMatrixSpec,
    CISpec,
    DenChain,
    HyperSeries,
    _num_l_range,
    _row_product,
    amatrix_numerator,
    bar_assemble,
    build_A,
    build_K,
    build_Y_closed,
    c_coeff,
    den_factor,
    k_series_evaluated,
    normalization_I,
    scr_coeff,
    y_series_evaluated,
)
from qgr.operators import build_pipeline
from qgr.rings import RatFunc, SparsePoly
from qgr.series import QSeries, _graded_keys

V3 = ("x1", "x2", "h")
x1 = SparsePoly.variable(V3, "x1")
x2 = SparsePoly.variable(V3, "x2")
h = SparsePoly.variable(V3, "h")
one = SparsePoly.const(V3, 1)


def test_Y_closed_q0_is_one():
    Y = build_Y_closed("dot", 3, CISpec(()), 2)
    assert Y.coeff((0,)) == 1
    Ydd = build_Y_closed("ddot", 4, CISpec((2,)), 2)
    assert Ydd.coeff((0,)) == 1


def test_Y1_matches_display_n3():
    # hand-transcribed degree-1 coefficient for n=3, no hypersurfaces
    Y = build_Y_closed("dot", 3, CISpec(()), 1)
    P1 = (x1 + h) ** 3 - x1**3
    P2 = (x2 + h) ** 3 - x2**3
    lhs = RatFunc(x1 - x2 + h, (x1 - x2) * P1) + RatFunc(x1 - x2 - h, (x1 - x2) * P2)
    assert Y.coeff((1,)) == -lhs


def test_ddot_numerator_has_l0_factor():
    # lower limit l=0 supplies the a_r(x1+x2) factor
    num = amatrix_numerator("ddot", ((2, 2),), 1, 0)
    assert num == (2 * x1 + 2 * x2) * (2 * x1 + 2 * x2 + h)
    numdot = amatrix_numerator("dot", ((2, 2),), 1, 0)
    assert numdot == (2 * x1 + 2 * x2 + h) * (2 * x1 + 2 * x2 + 2 * h)


def test_A_q00_and_q10():
    spec = AMatrixSpec(n=3)
    A = build_A("dot", spec, 1)
    assert A.coeff((0, 0)) == 1
    # coefficient of q1: 1 / ((x1+h)^3 - x1^3)
    assert A.coeff((1, 0)) == RatFunc(one, (x1 + h) ** 3 - x1**3)


def test_K_swap_symmetry():
    al = default_generic_alpha(3)
    K = build_K("dot", 3, CISpec((1,)), al, 2)
    for d in range(3):
        for d1 in range(d + 1):
            a = K.coeff((d1, d - d1))
            b = K.coeff((d - d1, d1)).swap_x()
            assert a == b


def test_bar_transform_q0_and_symmetry():
    al = default_generic_alpha(3)
    K = build_K("dot", 3, CISpec(()), al, 2)
    Y = bar_assemble(K)
    assert Y.coeff((0,)) == 1
    for d in range(3):
        c = Y.coeff((d,))
        assert c == c.swap_x()


def test_dual_path_small():
    # bar(K)|_{alpha=0} equals the closed form, kinds dot and ddot
    for kind, n, a in (("dot", 4, CISpec((2,))), ("ddot", 4, CISpec((2,)))):
        K = build_K(kind, n, a, None, 2)
        Ybar = bar_assemble(K)
        Yclosed = build_Y_closed(kind, n, a, 2)
        for d in range(3):
            assert Ybar.coeff((d,)) == Yclosed.coeff((d,)), (kind, d)


def _eager_series(F, xtrunc) -> QSeries:
    """Reference: every coefficient formed up front as one fraction, the
    numerator over c1.products[d1] * c2.products[d2] (d1 = d2 = d for a
    one-q key), multiplied at the builder's x-truncation."""
    c1, c2 = F.den_chains
    coeffs = {}
    for key, num in F.num_parts.items():
        d1, d2 = key if len(key) == 2 else key * 2
        coeffs[key] = RatFunc(num, c1.products[d1].mul_trunc(c2.products[d2], xtrunc))
    return QSeries(len(key), F.D, coeffs)


def _assert_same_coefficients(F, want: QSeries):
    got = F.series()
    assert got.q_arity == want.q_arity and got.trunc_q == want.trunc_q
    assert set(got.coeffs) == set(want.coeffs)
    for key, v in want.coeffs.items():
        assert (got.coeffs[key].num, got.coeffs[key].den) == (v.num, v.den), key
        assert F.coeff(key) == v, key


def test_series_matches_eager_fractions():
    al = default_generic_alpha(3)
    other = tuple(Fraction(11**m) for m in range(1, 4))
    for spec in (AMatrixSpec(n=3, rows=((1, 2),), alpha1=al, alpha2=other),
                 AMatrixSpec(n=3, rows=((1, 1), (2, 0)))):
        for xtrunc in (None, 3):
            A = build_A("dot", spec, 2, xtrunc)
            _assert_same_coefficients(A, _eager_series(A, xtrunc))
    for kind in ("dot", "ddot"):
        for alphas in (None, al):
            for xtrunc in (None, 3):
                Y = bar_assemble(build_K(kind, 3, CISpec((1,)), alphas, 2, xtrunc))
                _assert_same_coefficients(Y, _eager_series(Y, xtrunc))
        for xtrunc in (None, 3):
            Y = build_Y_closed(kind, 4, CISpec((2,)), 2, xtrunc)
            _assert_same_coefficients(Y, _eager_series(Y, xtrunc))


@pytest.mark.parametrize("n, a", [(3, ()), (3, (1, 1, 1)), (4, (2,))])
def test_bar_and_closed_routes_are_one_series(n, a):
    # at alpha = 0 both routes share their denominator chains, so equal
    # coefficients mean equal numerators
    for kind in ("dot", "ddot"):
        Ybar = bar_assemble(build_K(kind, n, CISpec(a), None, 2))
        Yclosed = build_Y_closed(kind, n, CISpec(a), 2)
        assert Ybar == Yclosed, kind
        nums = dict(Yclosed.num_parts)
        nums[(1,)] = -nums[(1,)]
        flipped = HyperSeries(Yclosed.n, Yclosed.D, Yclosed.den_chains, nums, Yclosed.xtrunc)
        assert Ybar != flipped, kind
        assert Ybar.coeff((1,)) != flipped.coeff((1,)), kind


def _homogeneous_degree(p):
    """Total degree of a homogeneous polynomial, None if it is not homogeneous."""
    degs = {sum(e) for e in p.terms}
    if not degs:
        return 0
    return degs.pop() if len(degs) == 1 else None


def test_homogeneity_at_alpha_zero():
    # q^d coefficient jointly homogeneous of degree (|a| - n) d
    for kind in ("dot", "ddot"):
        Y = build_Y_closed(kind, 4, CISpec((2,)), 3)
        for d in range(4):
            c = Y.coeff((d,))
            dn = _homogeneous_degree(c.num)
            dd = _homogeneous_degree(c.den)
            assert dn is not None and dd is not None
            assert dn - dd == (2 - 4) * d


def test_normalization_I_cases():
    assert normalization_I("dot", 4, CISpec((2,)), 3) == normalization_I("ddot", 4, CISpec((2,)), 3)
    ones = normalization_I("ddot", 3, CISpec((1, 1, 1)), 2)
    for d in range(3):
        assert ones.get((d,)) == (1 if d == 0 else 0)
    with pytest.raises(ValueError):
        normalization_I("dot", 3, CISpec((4,)), 2)


def test_normalization_I_against_x_series_oracle():
    # constant term of the bivariate x-expansion at h=1, degree by degree
    from qgr.series import x_coefficients

    n, a = 3, CISpec((1, 1, 1))
    I = normalization_I("dot", n, a, 2)
    Y = build_Y_closed("dot", n, a, 2)
    assert I.get((0,)) == 1
    for d in (1, 2):
        f = Y.coeff((d,)).substitute({"h": Fraction(1)})
        const_term = x_coefficients(f, 0)[(0, 0)]
        assert I.get((d,)) == const_term.const_value()


def test_recursion_coeff_hand_value():
    al = default_generic_alpha(3)
    got = c_coeff("dot", 2, 1, 2, 3, 1, _diagonal_spec(al, CISpec(())))
    expect = Fraction(1) / ((al[0] - al[1]) * (al[2] - al[1]))
    assert got == expect


def _diagonal_spec(al, a: CISpec) -> AMatrixSpec:
    return AMatrixSpec(n=len(al), rows=tuple((ak, ak) for ak in a.a), alpha1=al, alpha2=al)


def test_c_over_frak_ratio():
    # the single-q coefficient is a sign and a weight ratio times the
    # ladder coefficient on equal rows and one weight family
    al = default_generic_alpha(4)
    for a in (CISpec((2,)), CISpec((2, 1))):
        spec = _diagonal_spec(al, a)
        for d in (1, 2):
            for (i, j, k) in ((1, 2, 3), (2, 4, 1), (3, 1, 4)):
                c = c_coeff("dot", 2, i, j, k, d, spec)
                f = scr_coeff("dot", 2, i, j, k, d, spec)
                ratio = Fraction(-1) ** d * (al[i - 1] - al[k - 1]) / (al[i - 1] - al[j - 1])
                assert c == ratio * f
                c1 = c_coeff("ddot", 1, i, j, k, d, spec)
                f1 = scr_coeff("ddot", 1, i, j, k, d, spec)
                ratio1 = Fraction(-1) ** d * (al[k - 1] - al[j - 1]) / (al[i - 1] - al[j - 1])
                assert c1 == ratio1 * f1


def test_ddot_C1_numerator_l0_factor():
    # the l=0 factor a_r(alpha_i + alpha_j) shows up in the ddot coefficient
    al = default_generic_alpha(3)
    a = CISpec((1,))
    got = scr_coeff("ddot", 2, 1, 2, 3, 1, _diagonal_spec(al, a))
    # numerator prod_{l=0}^{0}: exactly a(alpha_1+alpha_2)
    den = Fraction(1)
    for m in range(1, 4):
        if m == 3:
            continue
        den *= al[1] - al[m - 1] + (al[2] - al[1])
    assert got == (al[0] + al[1]) / den


def test_evaluated_matches_trivariate():
    al = default_generic_alpha(3)
    a = CISpec((1,))
    K = build_K("dot", 3, a, al, 2)
    Ke = k_series_evaluated("dot", 3, a, al, 1, 2, 2)
    pt = {"x1": al[0], "x2": al[1]}
    for d in range(3):
        for d1 in range(d + 1):
            lhs = K.coeff((d1, d - d1)).substitute(pt)
            rhs = Ke.get((d1, d - d1))
            assert lhs == rhs
    Y = bar_assemble(K)
    Ye = y_series_evaluated("dot", 3, a, al, 1, 2, 2)
    for d in range(3):
        assert Y.coeff((d,)).substitute(pt) == Ye.get((d,))


def test_mutation_changes_series():
    al = default_generic_alpha(3)
    a = CISpec(())
    clean = y_series_evaluated("dot", 3, a, al, 1, 2, 2)
    bad = y_series_evaluated("dot", 3, a, al, 1, 2, 2, mutate=(1, 1))
    assert clean.get((1,)) != bad.get((1,))


def test_normalization_I_frozen_values():
    # frozen from the x-series-limit oracle (see the oracle test above)
    vals3 = [normalization_I("dot", 3, CISpec((3,)), 3).get((d,)) for d in range(4)]
    assert vals3 == [1, 6, 90, 1680]
    vals111 = [normalization_I("dot", 3, CISpec((1, 1, 1)), 3).get((d,)) for d in range(4)]
    assert vals111 == [1, 1, 1, 1]
    vals44 = [normalization_I("dot", 4, CISpec((4,)), 2).get((d,)) for d in range(3)]
    assert vals44 == [1, 48, 15120]


# ---------------------------------------------------------------------------
# differential test: shared numerators against one numerator and one
# product per key
# ---------------------------------------------------------------------------


def _ref_build_A(kind, spec, D, xtrunc=None):
    """Reference: one numerator built per q-key."""
    c1 = DenChain.build(spec.n, spec.alpha1, "x1", D, xtrunc)
    c2 = DenChain.build(spec.n, spec.alpha2, "x2", D, xtrunc)
    nums = {
        (d1, d - d1): amatrix_numerator(kind, spec.rows, d1, d - d1, xtrunc)
        for d in range(D + 1) for d1 in range(d + 1)
    }
    return HyperSeries(n=spec.n, D=D, den_chains=(c1, c2), num_parts=nums, xtrunc=xtrunc)


def _ref_bar_assemble(F):
    """Reference: one numerator-cofactor product per q-key, and one
    division of the summed derivative numerator per degree."""
    if F.q_arity != 2:
        raise ValueError("bar transform needs a two-variable series")
    D = F.D
    x1mx2 = x1 - x2
    c1, c2 = F.den_chains
    nums = {}
    for d in range(D + 1):
        N0 = SparsePoly.zero(V3)
        N1 = SparsePoly.zero(V3)
        for d1 in range(d + 1):
            d2 = d - d1
            num = F.num_parts.get((d1, d2))
            if num is None:
                continue
            cof = c1.cofactor(d1, d).mul_trunc(c2.cofactor(d2, d), F.xtrunc)
            t = num.mul_trunc(cof, F.xtrunc)
            N0 = N0 + t
            if d1 != d2:
                N1 = N1 + t * (d1 - d2)
        if N1.is_zero():
            Q = SparsePoly.zero(V3)
        else:
            Q = N1.divide_exact(x1mx2)
            if Q is None:
                raise ValueError("derivative numerator not divisible by x1 - x2 (asymmetric input)")
        sign = -1 if d % 2 else 1
        nums[(d,)] = (N0 + h.mul_trunc(Q, F.xtrunc)) * sign
    return HyperSeries(
        n=F.n, D=D, den_chains=F.den_chains, num_parts=nums,
        xtrunc=None if F.xtrunc is None else F.xtrunc - 1,
    )


def _assert_same_parts(got, want):
    assert got.xtrunc == want.xtrunc
    assert list(got.num_parts) == list(want.num_parts)
    for key, num in want.num_parts.items():
        assert got.num_parts[key] == num, key


@pytest.mark.parametrize("n, a, D", [(5, (2, 3), 4), (4, (), 3), (3, (1, 1, 1), 3)])
@pytest.mark.parametrize("generic", [False, True])
def test_shared_numerators_match_per_key_route(n, a, D, generic):
    al = default_generic_alpha(n) if generic else None
    spec = AMatrixSpec(n=n, rows=CISpec(a).rows, alpha1=al, alpha2=al)
    for kind in ("dot", "ddot"):
        for xtrunc in (None, 2 * (n - 2) + 1):
            K = build_K(kind, n, CISpec(a), al, D, xtrunc)
            ref = _ref_build_A(kind, spec, D, xtrunc)
            _assert_same_parts(K, ref)
            _assert_same_parts(bar_assemble(K), _ref_bar_assemble(ref))


def test_bar_of_operator_combos_matches_per_key_route():
    # the trivariate bar transform of the six operator combinations of a
    # pipeline's family, built here: every key has its own numerator, so no
    # group is shared.  At zero weights both routes also match the
    # pipeline's bars, which it transforms on the ladder image.
    from qgr import operators
    from qgr.cohomology import box_partitions

    n, a, D = 4, CISpec((2,)), 2
    for al in (default_generic_alpha(n), None):
        pipe = build_pipeline("dot", n, a, al, D)
        K = build_K("dot", n, a, al, D, xtrunc=pipe.kmax + 1)
        c1, c2 = K.den_chains
        for lam in box_partitions(n):
            level = lam[0] + lam[1]
            combo = {}
            for e, d, w in operators._row_weights(operators._schur_row(lam, pipe.family), level, D):
                w = SparsePoly(V3, {(a1, a2, level - a1 - a2): v for (a1, a2), v in w.items()})
                cof = c1.cofactor(e[0], d[0]) * c2.cofactor(e[1], d[1])
                term = K.num_parts[e].mul_trunc(w, K.xtrunc).mul_trunc(cof, K.xtrunc)
                combo[d] = combo[d] + term if d in combo else term
            F = HyperSeries(K.n, K.D, K.den_chains, combo, K.xtrunc)
            _assert_same_parts(bar_assemble(F), _ref_bar_assemble(F))
            if al is None:
                _assert_same_parts(pipe.barD[lam], _ref_bar_assemble(F))


def test_build_A_builds_each_numerator_once(monkeypatch):
    import qgr.hyper

    calls = []

    def counted(*args):
        calls.append(args)
        return amatrix_numerator(*args)

    monkeypatch.setattr(qgr.hyper, "amatrix_numerator", counted)
    for kind in ("dot", "ddot"):
        for D in (0, 2, 4):
            calls.clear()
            K = build_K(kind, 5, CISpec((2, 3)), None, D)
            assert len(calls) == D + 1
            for d in range(D + 1):
                assert len({id(K.num_parts[(d1, d - d1)]) for d1 in range(d + 1)}) == 1
        # unequal rows: row degree 2 d1 + d2 is distinct within each degree
        rows = ((2, 1),)
        A = build_A(kind, AMatrixSpec(n=3, rows=rows), 3)
        for (d1, d2), num in A.num_parts.items():
            assert num == amatrix_numerator(kind, rows, d1, d2), (d1, d2)
            assert all(num is not A.num_parts[(e1, d1 + d2 - e1)] for e1 in range(d1 + d2 + 1) if e1 != d1)


def test_split_group_matches_per_key_route():
    # a numerator copied into a new object leaves its degree in two groups,
    # neither antisymmetric alone; the summed remainder still divides
    for xtrunc in (None, 5):
        K = build_K("dot", 4, CISpec((2,)), default_generic_alpha(4), 3, xtrunc)
        nums = dict(K.num_parts)
        nums[(2, 1)] = SparsePoly(V3, nums[(2, 1)].terms)
        split = HyperSeries(K.n, K.D, K.den_chains, nums, K.xtrunc)
        _assert_same_parts(bar_assemble(split), _ref_bar_assemble(split))
        _assert_same_parts(bar_assemble(split), bar_assemble(K))


# ---------------------------------------------------------------------------
# differential test: the products shared per process against the per-call
# builds they replace (verbatim copies of those builds)
# ---------------------------------------------------------------------------


def _ref_den_factor(n, alphas, l, xname, xtrunc=None):
    x = SparsePoly.variable(V3, xname)
    p1 = one
    p2 = one
    for j in range(n):
        aj = Fraction(0) if alphas is None else Fraction(alphas[j])
        p1 = p1.mul_trunc(x - SparsePoly.const(V3, aj) + h * l, xtrunc)
        p2 = p2.mul_trunc(x - SparsePoly.const(V3, aj), xtrunc)
    return p1 - p2


def _ref_numerator(kind, rows, d1, d2, xtrunc=None):
    """Every linear factor multiplied in from the first, per call."""
    out = one
    for (a1, a2) in rows:
        m = a1 * d1 + a2 * d2
        base = x1 * a1 + x2 * a2
        for l in _num_l_range(kind, m):
            out = out.mul_trunc(base + h * l, xtrunc)
    return out


def _ref_chain(n, alphas, xname, D, xtrunc=None):
    """(factors, products) of a chain built per call."""
    factors = [_ref_den_factor(n, alphas, l, xname, xtrunc) for l in range(1, D + 1)]
    products = [one]
    for f in factors:
        products.append(products[-1].mul_trunc(f, xtrunc))
    return factors, products


def _ref_cofactor(factors, d_from, d_to, xtrunc):
    out = one
    for l in range(d_from + 1, d_to + 1):
        out = out.mul_trunc(factors[l - 1], xtrunc)
    return out


def _assert_chain_matches(chain, n, alphas, xname, D, xtrunc):
    factors, products = _ref_chain(n, alphas, xname, D, xtrunc)
    assert (chain.xname, chain.xtrunc) == (xname, xtrunc)
    assert chain.factors == tuple(factors) and chain.products == tuple(products)
    for d_to in range(D + 1):
        for d_from in range(d_to + 1):
            assert chain.cofactor(d_from, d_to) == _ref_cofactor(factors, d_from, d_to, xtrunc), (d_from, d_to)


@pytest.mark.parametrize("n, a, D, generic", [(5, (2, 3), 4, False), (3, (1, 1, 1), 3, False), (4, (2,), 3, True)])
@pytest.mark.parametrize("xtrunc", [None, 5])
def test_shared_products_match_per_call_builds(n, a, D, generic, xtrunc):
    al = default_generic_alpha(n) if generic else None
    rows = CISpec(a).rows
    for kind in ("dot", "ddot"):
        for ak in set(a):
            for m in range(ak * D + 1):
                want = one
                for l in _num_l_range(kind, m):
                    want = want.mul_trunc(x1 * ak + x2 * ak + h * l, xtrunc)
                assert _row_product(kind, ak, ak, m, xtrunc) == want, (kind, ak, m)
        for d1, d2 in _graded_keys(2, D):
            assert amatrix_numerator(kind, rows, d1, d2, xtrunc) == _ref_numerator(kind, rows, d1, d2, xtrunc)
        K = build_K(kind, n, CISpec(a), al, D, xtrunc)
        for key, num in K.num_parts.items():
            assert num == _ref_numerator(kind, rows, *key, xtrunc), key
        for chain, xname in zip(K.den_chains, ("x1", "x2")):
            assert chain is DenChain.build(n, al, xname, D, xtrunc)
            _assert_chain_matches(chain, n, al, xname, D, xtrunc)


@pytest.mark.parametrize("xtrunc", [None, 5])
def test_shared_products_on_unequal_rows(xtrunc):
    rows = ((2, 1),)
    for kind in ("dot", "ddot"):
        A = build_A(kind, AMatrixSpec(n=3, rows=rows), 3, xtrunc)
        for (d1, d2), num in A.num_parts.items():
            assert num == _ref_numerator(kind, rows, d1, d2, xtrunc), (d1, d2)
        for chain, xname in zip(A.den_chains, ("x1", "x2")):
            _assert_chain_matches(chain, 3, None, xname, 3, xtrunc)


# ---------------------------------------------------------------------------
# sharing and immutability of the per-process products
# ---------------------------------------------------------------------------


def _clear_shared_products():
    for cached in (_row_product, DenChain.build):
        cached.cache_clear()


def test_dual_run_forms_each_product_once(monkeypatch, capsys):
    import qgr.hyper
    from qgr.cli import run

    _clear_shared_products()
    factors = []

    def counted(*args):
        factors.append(args)
        return den_factor(*args)

    monkeypatch.setattr(qgr.hyper, "den_factor", counted)
    assert run(["series", "--kind", "dot-dual", "--n", "5", "--a", "2,3", "--qdeg", "4"]) == 0
    capsys.readouterr()
    # two chains of four factors, each factor formed once
    assert sorted(factors) == sorted((5, None, l, x, None) for l in range(1, 5) for x in ("x1", "x2"))
    assert DenChain.build.cache_info().misses == 2
    # row products (dot, a, a, m) for m <= 4 a, each formed once
    info = _row_product.cache_info()
    assert info.misses == info.currsize == 9 + 13


def test_shared_products_are_unchanged_by_reuse(monkeypatch, capsys):
    import qgr.hyper
    from qgr.cli import run

    _clear_shared_products()
    formed = []

    def recorded(f):
        def wrapper(*args):
            out = f(*args)
            formed.append(out)
            return out
        return wrapper

    build = recorded(DenChain.build)
    monkeypatch.setattr(qgr.hyper, "_row_product", recorded(_row_product))
    monkeypatch.setattr(qgr.hyper, "amatrix_numerator", recorded(amatrix_numerator))
    monkeypatch.setattr(DenChain, "build", classmethod(lambda cls, *args: build(*args)))
    argvs = [
        ["series", "--kind", "dot-dual", "--n", "4", "--a", "4", "--qdeg", "3"],
        ["series", "--kind", "z-normalized", "--n", "4", "--a", "4", "--qdeg", "3"],
        ["verify", "--suite", "residue-internal", "--n", "3", "--a", "1", "--qdeg", "2", "--alpha", "generic"],
    ]
    outs = []
    for _ in range(2):
        for argv in argvs:
            assert run(argv) == 0, argv
        outs.append(capsys.readouterr().out)
        if len(outs) == 1:
            polys = [p for p in formed if isinstance(p, SparsePoly)]
            for chain in (c for c in formed if isinstance(c, DenChain)):
                polys += [*chain.factors, *chain.products, *chain._cofactors.values()]
            snapshot = [(p, dict(p.terms)) for p in polys]
    assert outs[0] == outs[1]
    assert snapshot and all(p.terms == terms for p, terms in snapshot)


# ---------------------------------------------------------------------------
# recursion coefficients in ints against the Fraction route they replace
# ---------------------------------------------------------------------------


def _ref_c_coeff(kind, slot, i, j, k, d, alphas, a):
    spec = AMatrixSpec(n=len(alphas), rows=a.rows, alpha1=tuple(alphas), alpha2=tuple(alphas))
    al = spec.int_alphas[1]
    factor = al[i - 1] - al[k - 1] if slot == 2 else al[k - 1] - al[j - 1]
    return Fraction((-1) ** d * factor, al[i - 1] - al[j - 1]) * scr_coeff(kind, slot, i, j, k, d, spec)


@pytest.mark.parametrize("al, a", [
    (default_generic_alpha(4), (2,)),
    (default_generic_alpha(3), (1, 1, 1)),
    ((Fraction(1, 2), Fraction(5, 3), Fraction(7)), (1,)),
    ((Fraction(-3, 4), Fraction(1, 2), Fraction(5, 3), Fraction(7)), (2,)),
])
def test_c_coeff_matches_fraction_route(al, a):
    genericity_check(al, 3)
    a = CISpec(a)
    n = len(al)
    spec = AMatrixSpec(n=n, rows=a.rows, alpha1=al, alpha2=al)
    for kind in ("dot", "ddot"):
        for slot in (1, 2):
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    for k in range(1, n + 1):
                        if i == j or k == (i if slot == 1 else j):
                            continue
                        for d in (1, 2, 3):
                            got = c_coeff(kind, slot, i, j, k, d, spec)
                            want = _ref_c_coeff(kind, slot, i, j, k, d, al, a)
                            assert type(got) is Fraction and got == want, (kind, slot, i, j, k, d)
