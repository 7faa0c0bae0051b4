import random
from fractions import Fraction

import pytest

from qgr.cohomology import (
    CohClass,
    GenericityError,
    GrContext,
    ab_integrate,
    box_partitions,
    complement,
    default_generic_alpha,
    diagonal,
    equivariant_diagonal,
    euler_tangent,
    genericity_check,
    graded_to_schur,
    localization_data,
    pairing,
    partitions_of_degree,
    restrict_fixed_point,
    schur_poly,
    schur_reduce,
)
from qgr.rings import SparsePoly

XV = ("x1", "x2")
x1 = SparsePoly.variable(XV, "x1")
x2 = SparsePoly.variable(XV, "x2")


def sym_rand(rng, deg):
    p = SparsePoly.zero(XV)
    for a in range(deg + 1):
        b = deg - a
        if a < b:
            continue
        c = Fraction(rng.randint(-5, 5))
        p = p + SparsePoly(XV, {(a, b): c, (b, a): c} if a != b else {(a, a): c})
    return p


def test_box_partitions_count():
    # |basis| = C(n,2)
    for n in range(3, 7):
        assert len(box_partitions(n)) == n * (n - 1) // 2
    assert partitions_of_degree(4, 2) == [(2, 0), (1, 1)]


def test_schur_poly_values():
    assert schur_poly((1, 0)) == x1 + x2
    assert schur_poly((1, 1)) == x1 * x2
    assert schur_poly((2, 0)) == x1**2 + x1 * x2 + x2**2


def test_schur_reduce_ideal():
    # n=3: h_2 is in the ideal
    h2 = x1**2 + x1 * x2 + x2**2
    assert schur_reduce(h2, 3) == CohClass({})
    # (x1+x2)^2 = s_(2) + s_(1,1) -> s_(1,1) mod the ideal
    sq = (x1 + x2) ** 2
    assert schur_reduce(sq, 3) == CohClass({(1, 1): Fraction(1)})
    assert schur_reduce(SparsePoly.const(XV, 1), 5) == CohClass({(0, 0): Fraction(1)})


def test_schur_reduce_rejects_asymmetric():
    with pytest.raises(ValueError):
        schur_reduce(x1, 3)


def _to_poly(cls: CohClass) -> SparsePoly:
    """The class as a polynomial in x1, x2: its Schur expansion summed."""
    out = SparsePoly.zero(XV)
    for lam, c in cls.coeffs.items():
        out = out + schur_poly(lam) * c
    return out


def test_schur_reduce_is_ring_map():
    rng = random.Random(2)
    n = 4
    for _ in range(50):
        p = sym_rand(rng, rng.randint(0, 3))
        q = sym_rand(rng, rng.randint(0, 3))
        lhs = schur_reduce(p * q, n)
        rhs = schur_reduce(_to_poly(schur_reduce(p, n)) * _to_poly(schur_reduce(q, n)), n)
        assert lhs == rhs


def test_pairing_antidiagonal():
    for n in range(3, 7):
        ctx = GrContext(n)
        parts = box_partitions(n)
        for lam in parts:
            for mu in parts:
                a = CohClass({lam: Fraction(1)})
                b = CohClass({mu: Fraction(1)})
                expect = Fraction(1) if mu == complement(lam, n) else Fraction(0)
                assert pairing(a, b, ctx) == expect


def test_pairing_examples():
    ctx = GrContext(3)
    assert pairing(CohClass({(0, 0): Fraction(1)}), CohClass({(1, 1): Fraction(1)}), ctx) == 1
    assert pairing(CohClass({(1, 0): Fraction(1)}), CohClass({(1, 0): Fraction(1)}), ctx) == 1
    assert pairing(CohClass({(0, 0): Fraction(1)}), CohClass({(1, 0): Fraction(1)}), ctx) == 0


def test_pairing_against_localization_oracle():
    # independent oracle: Atiyah-Bott sums with two random generic weight draws
    rng = random.Random(9)
    for n in (3, 4):
        parts = box_partitions(n)
        for _ in range(2):
            alpha = tuple(Fraction(v) for v in rng.sample(range(-40, 40), n))
            try:
                genericity_check(alpha, 0)
            except GenericityError:
                continue
            ctx = GrContext(n, alpha=alpha)
            for lam in parts:
                for mu in parts:
                    if sum(lam) + sum(mu) != 2 * (n - 2):
                        continue
                    val = ab_integrate(schur_poly(lam) * schur_poly(mu), ctx)
                    expect = Fraction(1) if mu == complement(lam, n) else Fraction(0)
                    assert val == expect


def test_diagonal_n3():
    ctx = GrContext(3)
    d = diagonal(ctx)
    assert d == {
        ((0, 0), (1, 1)): Fraction(1),
        ((1, 0), (1, 0)): Fraction(1),
        ((1, 1), (0, 0)): Fraction(1),
    }
    # total bidegree of every term is 2(n-2)
    for n in range(3, 7):
        for (lam, mu) in diagonal(GrContext(n)):
            assert sum(lam) + sum(mu) == 2 * (n - 2)
    assert len(diagonal(GrContext(4))) == 6


def test_localization_data_n3():
    ctx = GrContext(3, alpha=default_generic_alpha(3))
    data = {(f.i, f.j): f for f in localization_data(ctx)}
    a = ctx.alpha
    f12 = data[(1, 2)]
    # phi_12 = (x1 - a3)(x2 - a3)
    expect = (x1 - SparsePoly.const(XV, a[2])) * (x2 - SparsePoly.const(XV, a[2]))
    assert f12.phi == expect.embed(f12.phi.vars)
    assert f12.euler_normal == (a[0] - a[2]) * (a[1] - a[2])
    assert f12.det_euler == a[0] + a[1]
    # phi restricts to euler at p_12 and p_21, zero elsewhere
    for (i, j), f in data.items():
        val = restrict_fixed_point(f12.phi, i, j, ctx)
        if {i, j} == {1, 2}:
            assert val == f12.euler_normal
        else:
            assert val == 0


def test_restrict_examples():
    ctx = GrContext(3, alpha=default_generic_alpha(3))
    a = ctx.alpha
    assert restrict_fixed_point(x1 + x2, 1, 2, ctx) == a[0] + a[1]


def test_ab_integrate_examples():
    ctx = GrContext(3, alpha=default_generic_alpha(3))
    data = {(f.i, f.j): f for f in localization_data(ctx)}
    assert ab_integrate(data[(1, 2)].phi, ctx) == 1
    assert ab_integrate(SparsePoly.const(XV, 1), ctx) == 0
    # degree-2(n-2) random symmetric polynomial matches the pairing route
    rng = random.Random(4)
    for n in (3, 4, 5):
        ctx = GrContext(n, alpha=default_generic_alpha(n))
        for _ in range(3):
            eta = sym_rand(rng, 2 * (n - 2))
            via_ab = ab_integrate(eta, ctx)
            red = schur_reduce(eta, n)
            via_pairing = red.get((n - 2, n - 2))
            assert via_ab == via_pairing
            # independence of the generic draw
            ctx2 = GrContext(n, alpha=tuple(Fraction(11**m) for m in range(1, n + 1)))
            assert ab_integrate(eta, ctx2) == via_ab


def test_graded_to_schur():
    # c20 (x1^2 + x2^2) + c11 x1 x2 -> c20 s_(2) + (c11 - c20) s_(1,1)
    vals = {(2, 0): Fraction(3), (0, 2): Fraction(3), (1, 1): Fraction(5)}
    out = graded_to_schur(vals, 2)
    assert out == {(2, 0): Fraction(3), (1, 1): Fraction(2)}


def test_equivariant_diagonal_concrete():
    for n in (3, 4):
        ctx = GrContext(n, alpha=default_generic_alpha(n))
        tensor = equivariant_diagonal(ctx)
        pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
        for p1 in pairs:
            for p2 in pairs:
                got = sum(
                    g
                    * restrict_fixed_point(schur_poly(lam), *p1, ctx)
                    * restrict_fixed_point(schur_poly(mu), *p2, ctx)
                    for (lam, mu), g in tensor.items()
                )
                if set(p1) == set(p2):
                    assert got == euler_tangent(ctx, *p1)
                else:
                    assert got == 0


def _homogeneous_degree(p):
    """Total degree of a homogeneous polynomial, None if it is not homogeneous."""
    degs = {sum(e) for e in p.terms}
    if not degs:
        return 0
    return degs.pop() if len(degs) == 1 else None


def test_equivariant_diagonal_symbolic_limit():
    ctx = GrContext(3, symbolic=True)
    tensor = equivariant_diagonal(ctx)
    at_zero = {}
    zeros = {f"a{i}": Fraction(0) for i in range(1, 4)}
    for (lam, mu), g in tensor.items():
        # entries are honest polynomials in alpha, homogeneous of the
        # complementary degree 2(n-2) - |lam| - |mu|
        q = g.num.divide_exact(g.den)
        assert q is not None, f"entry ({lam},{mu}) is not polynomial in alpha"
        dq = _homogeneous_degree(q)
        assert dq == 2 - sum(lam) - sum(mu) or q.is_zero()
        v = q.eval_all(zeros)
        if v:
            at_zero[(lam, mu)] = v
    assert at_zero == diagonal(GrContext(3))


def test_genericity_check_rejects():
    with pytest.raises(GenericityError):
        genericity_check((Fraction(1), Fraction(2), Fraction(3)), 2)  # d=2 resonance
    genericity_check(default_generic_alpha(4), 3)
