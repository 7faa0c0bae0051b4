import random
from fractions import Fraction
from itertools import combinations
from math import prod

import pytest

from qgr.cohomology import (
    GenericityError,
    _mat_solve,
    ab_integrate,
    box_partitions,
    box_schur,
    complement,
    default_generic_alpha,
    diagonal,
    equivariant_diagonal,
    euler_tangent,
    fixed_points,
    genericity_check,
    graded_to_schur,
    localization_data,
    pairing,
    partitions_of_degree,
    restrict_fixed_point,
    schur_poly,
    schur_reduce,
)
from qgr.rings import RatFunc, SparsePoly

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
    assert schur_reduce(h2, 3) == {}
    # (x1+x2)^2 = s_(2) + s_(1,1) -> s_(1,1) mod the ideal
    sq = (x1 + x2) ** 2
    assert schur_reduce(sq, 3) == {(1, 1): Fraction(1)}
    assert schur_reduce(SparsePoly.const(XV, 1), 5) == {(0, 0): Fraction(1)}


def test_schur_reduce_rejects_asymmetric():
    with pytest.raises(ValueError):
        schur_reduce(x1, 3)


def _to_poly(cls: dict) -> SparsePoly:
    """The class as a polynomial in x1, x2: its Schur expansion summed."""
    out = SparsePoly.zero(XV)
    for lam, c in cls.items():
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
        parts = box_partitions(n)
        for lam in parts:
            for mu in parts:
                a = {lam: Fraction(1)}
                b = {mu: Fraction(1)}
                expect = Fraction(1) if mu == complement(lam, n) else Fraction(0)
                assert pairing(a, b, n) == expect


def test_pairing_examples():
    assert pairing({(0, 0): Fraction(1)}, {(1, 1): Fraction(1)}, 3) == 1
    assert pairing({(1, 0): Fraction(1)}, {(1, 0): Fraction(1)}, 3) == 1
    assert pairing({(0, 0): Fraction(1)}, {(1, 0): Fraction(1)}, 3) == 0


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
            for lam in parts:
                for mu in parts:
                    if sum(lam) + sum(mu) != 2 * (n - 2):
                        continue
                    val = ab_integrate(schur_poly(lam) * schur_poly(mu), alpha)
                    expect = Fraction(1) if mu == complement(lam, n) else Fraction(0)
                    assert val == expect


def test_diagonal_n3():
    d = diagonal(3)
    assert d == {
        ((0, 0), (1, 1)): Fraction(1),
        ((1, 0), (1, 0)): Fraction(1),
        ((1, 1), (0, 0)): Fraction(1),
    }
    # total bidegree of every term is 2(n-2)
    for n in range(3, 7):
        for (lam, mu) in diagonal(n):
            assert sum(lam) + sum(mu) == 2 * (n - 2)
    assert len(diagonal(4)) == 6


def test_fixed_points_are_the_ordered_pairs():
    assert fixed_points(3) == [(1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2)]
    for n in range(3, 7):
        assert len(fixed_points(n)) == n * (n - 1)


def test_localization_data_n3():
    a = default_generic_alpha(3)
    data = {(f.i, f.j): f for f in localization_data(a)}
    assert list(data) == fixed_points(3)
    f12 = data[(1, 2)]
    # phi_12 = (x1 - a3)(x2 - a3)
    expect = (x1 - SparsePoly.const(XV, a[2])) * (x2 - SparsePoly.const(XV, a[2]))
    assert f12.phi == expect.embed(f12.phi.vars)
    assert f12.euler_normal == (a[0] - a[2]) * (a[1] - a[2])
    assert f12.det_euler == a[0] + a[1]
    # phi restricts to euler at p_12 and p_21, zero elsewhere
    for (i, j), f in data.items():
        val = restrict_fixed_point(f12.phi, a, i, j)
        if {i, j} == {1, 2}:
            assert val == f12.euler_normal
        else:
            assert val == 0


def test_restrict_examples():
    a = default_generic_alpha(3)
    assert restrict_fixed_point(x1 + x2, a, 1, 2) == a[0] + a[1]
    assert restrict_fixed_point(x1 * x1, a, 3, 1) == a[2] ** 2


def test_euler_tangent_examples():
    a = default_generic_alpha(4)
    assert euler_tangent(a, 1, 2) == (a[0] - a[2]) * (a[1] - a[2]) * (a[0] - a[3]) * (a[1] - a[3])
    assert euler_tangent(a, 2, 1) == euler_tangent(a, 1, 2)
    assert isinstance(euler_tangent((1, 2, 3), 1, 2), Fraction)


def test_ab_integrate_examples():
    a3 = default_generic_alpha(3)
    data = {(f.i, f.j): f for f in localization_data(a3)}
    assert ab_integrate(data[(1, 2)].phi, a3) == 1
    assert ab_integrate(SparsePoly.const(XV, 1), a3) == 0
    # degree-2(n-2) random symmetric polynomial matches the pairing route
    rng = random.Random(4)
    for n in (3, 4, 5):
        al = default_generic_alpha(n)
        for _ in range(3):
            eta = sym_rand(rng, 2 * (n - 2))
            via_ab = ab_integrate(eta, al)
            red = schur_reduce(eta, n)
            via_pairing = red.get((n - 2, n - 2), 0)
            assert via_ab == via_pairing
            # independence of the generic draw
            assert ab_integrate(eta, tuple(Fraction(11**m) for m in range(1, n + 1))) == via_ab


def test_graded_to_schur():
    # c20 (x1^2 + x2^2) + c11 x1 x2 -> c20 s_(2) + (c11 - c20) s_(1,1)
    vals = {(2, 0): Fraction(3), (0, 2): Fraction(3), (1, 1): Fraction(5)}
    out = graded_to_schur(vals, 2)
    assert out == {(2, 0): Fraction(3), (1, 1): Fraction(2)}


def _ref_schur_classes(out: dict, key, xc: dict, n: int, kmax: int, expand) -> None:
    """The per-degree loop the class map ran before `box_schur`, verbatim."""
    for r in range(kmax + 1):
        vals = {e: v for e, v in xc.items() if e[0] + e[1] == r}
        if not vals:
            continue
        for lam, v in graded_to_schur(vals, r).items():
            if lam[0] <= n - 2:
                out.setdefault((r, partitions_of_degree(n, r).index(lam)), {})[key] = expand(v, r)


def _sym_form_values(rng, top: int) -> dict:
    """Nonzero exponent values of a random symmetric form of degree <= top,
    some degrees left out, int and Fraction values."""
    vals = {}
    for r in range(top + 1):
        if rng.random() < 0.2:
            continue
        for b in range(r // 2 + 1):
            c = rng.choice([0, rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(1, 5))])
            if c:
                vals[(r - b, b)] = vals[(b, r - b)] = c
    return vals


def test_box_schur_matches_per_degree_loop():
    rng = random.Random(27)
    for n in range(3, 7):
        kmax = 2 * (n - 2)
        for _ in range(40):
            vals = _sym_form_values(rng, kmax + 2)
            ref: dict = {}
            _ref_schur_classes(ref, 0, vals, n, kmax, lambda v, r: (v, r))
            cls = box_schur(vals, n)
            assert cls == {partitions_of_degree(n, r)[j]: comp[0][0] for (r, j), comp in ref.items()}
            # every component above the box vanishes, so nothing of degree > kmax survives
            assert all(lam[0] <= n - 2 and sum(lam) <= kmax for lam in cls)
        top = {e: v for e, v in _sym_form_values(rng, kmax + 2).items() if sum(e) > kmax}
        assert box_schur(top, n) == {}


def test_equivariant_diagonal_concrete():
    for n in (3, 4):
        al = default_generic_alpha(n)
        tensor = equivariant_diagonal(al)
        for p1 in fixed_points(n):
            for p2 in fixed_points(n):
                got = sum(
                    g
                    * restrict_fixed_point(schur_poly(lam), al, *p1)
                    * restrict_fixed_point(schur_poly(mu), al, *p2)
                    for (lam, mu), g in tensor.items()
                )
                if set(p1) == set(p2):
                    assert got == euler_tangent(al, *p1)
                else:
                    assert got == 0


def _two_solve(M, E):
    """G = M^-1 E (M^T)^-1: solve M Y = E, then M G^T = Y^T."""
    Y = _mat_solve(M, E)
    YT = [[Y[r][c] for r in range(len(Y))] for c in range(len(Y[0]))]
    GT = _mat_solve(M, YT)
    return [[GT[r][c] for r in range(len(GT))] for c in range(len(GT[0]))]


def _two_solve_diagonal(alphas):
    """The equivariant diagonal by two solves and two transposes, the route
    the one-inverse form replaced."""
    n = len(alphas)
    parts = box_partitions(n)
    pairs = list(combinations(range(1, n + 1), 2))
    M = [[restrict_fixed_point(schur_poly(lam), alphas, i, j) for lam in parts] for (i, j) in pairs]
    E = [[euler_tangent(alphas, i, j) if a == b else Fraction(0) for b in range(len(pairs))]
         for a, (i, j) in enumerate(pairs)]
    G = _two_solve(M, E)
    return {(lam, mu): G[a][b] for a, lam in enumerate(parts) for b, mu in enumerate(parts) if G[a][b]}


def test_equivariant_diagonal_matches_two_solve_route():
    for n in range(3, 7):
        for al in (default_generic_alpha(n), tuple(Fraction(11**m) for m in range(1, n + 1))):
            want = _two_solve_diagonal(al)
            got = equivariant_diagonal(al)
            assert set(got) == set(want), n
            for key, v in want.items():
                assert got[key] == v, (n, key)


def _homogeneous_degree(p):
    """Total degree of a homogeneous polynomial, None if it is not homogeneous."""
    degs = {sum(e) for e in p.terms}
    if not degs:
        return 0
    return degs.pop() if len(degs) == 1 else None


def test_equivariant_diagonal_symbolic_limit():
    # oracle over RatFunc in the weight variables a1..a3: the restriction
    # matrix M[p][lam] = s_lam(a_i, a_j), solved for g = M^-1 E M^-T
    n = 3
    avars = tuple(f"a{m}" for m in range(1, n + 1))
    a = [SparsePoly.variable(avars, v) for v in avars]
    parts = box_partitions(n)
    pairs = list(combinations(range(1, n + 1), 2))
    M = [[RatFunc(schur_poly(lam).substitute({"x1": a[i - 1], "x2": a[j - 1]})) for lam in parts]
         for (i, j) in pairs]
    euler = [prod(((a[i - 1] - ak) * (a[j - 1] - ak) for k, ak in enumerate(a, 1) if k not in (i, j)),
                  start=SparsePoly.const(avars, 1)) for (i, j) in pairs]
    E = [[RatFunc(e) if r == c else RatFunc.from_scalar(0, avars) for c in range(len(pairs))]
         for r, e in enumerate(euler)]
    G = _two_solve(M, E)
    generic = default_generic_alpha(n)
    numeric = equivariant_diagonal(generic)
    at_zero, at_generic = {}, {}
    for r, lam in enumerate(parts):
        for c, mu in enumerate(parts):
            g = G[r][c]
            # entries are honest polynomials in alpha, homogeneous of the
            # complementary degree 2(n-2) - |lam| - |mu|
            q = g.num.divide_exact(g.den)
            assert q is not None, f"entry ({lam},{mu}) is not polynomial in alpha"
            assert q.is_zero() or _homogeneous_degree(q) == 2 * (n - 2) - sum(lam) - sum(mu)
            v0 = q.eval_all({v: 0 for v in avars})
            if v0:
                at_zero[(lam, mu)] = v0
            vg = q.eval_all(dict(zip(avars, generic)))
            if vg:
                at_generic[(lam, mu)] = vg
    assert at_zero == diagonal(n)
    assert at_generic == numeric


def test_genericity_check_rejects():
    with pytest.raises(GenericityError):
        genericity_check((Fraction(1), Fraction(2), Fraction(3)), 2)  # d=2 resonance
    genericity_check(default_generic_alpha(4), 3)


def _ref_genericity_check(alpha, max_degree: int) -> None:
    """The Fraction-arithmetic check the integer one replaced, verbatim."""
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


def _genericity_verdict(check, alpha, max_degree):
    try:
        check(alpha, max_degree)
    except GenericityError as exc:
        return str(exc)
    return None


def test_integer_genericity_check_matches_fraction_route():
    # same verdict and message as the Fraction route: non-integral,
    # negative, duplicated, alpha_i = -alpha_j and resonant weights
    rng = random.Random(20)
    draws = []
    for _ in range(300):
        n = rng.randint(2, 5)
        den = rng.choice((1, 1, 2, 3, 6, 35))
        draws.append(tuple(Fraction(rng.randint(-12, 12), den) for _ in range(n)))
    for _ in range(40):
        al = [Fraction(rng.randint(-30, 30), rng.randint(1, 9)) for _ in range(rng.randint(2, 5))]
        al[-1] = al[0] if rng.random() < 0.5 else -al[0]
        draws.append(tuple(al))
    for d in (2, 3, 4, 5):
        for l in range(1, d):
            # alpha_m = alpha_j + (l/d)(alpha_k - alpha_j) at j, k, m = 1, 2, 3
            a, b = Fraction(rng.randint(1, 9), 7), Fraction(rng.randint(10, 19), 5)
            draws.append((a, b, a + Fraction(l, d) * (b - a), Fraction(101, 3)))
    draws += [(1, 2, 3), (Fraction(1, 2), 1, Fraction(3, 2)), default_generic_alpha(5), ()]
    verdicts = []
    for al in draws:
        for max_degree in range(6):
            want = _genericity_verdict(_ref_genericity_check, al, max_degree)
            assert _genericity_verdict(genericity_check, al, max_degree) == want, (al, max_degree)
            verdicts.append(want)
    # every kind of verdict is reached, resonances at several (d, l); a
    # resonance at l/d is one at (d-l)/d with j, k swapped, so l <= d/2
    resonances = {v.split(", (")[0] for v in verdicts if v and v.startswith("resonance")}
    assert None in verdicts and "alpha_i + alpha_j vanishes" in verdicts
    assert "alpha values must be pairwise distinct" in verdicts
    assert {f"resonance at d={d}, l=1" for d in (2, 3, 4, 5)} | {"resonance at d=5, l=2"} <= resonances
