"""The value types are plain classes: equality and hashing come from the
declared fields alone, and the CLI document's meta is the run
configuration as given."""

import inspect
import json

import pytest

from qgr.cli import RunConfig, run
from qgr.hyper import AMatrixSpec, CISpec, DenChain, HyperSeries, build_K
from qgr.operators import build_pipeline


def test_records_compare_by_declared_fields(capsys):
    pairs = [
        (CISpec((2, 3)), CISpec((2, 3)), CISpec((3, 2))),
        (AMatrixSpec(3, ((1, 1),)), AMatrixSpec(n=3, rows=((1, 1),)), AMatrixSpec(3, ((1, 1),), alpha1=(1, 2, 3))),
    ]
    chain = DenChain.build(3, None, "x1", 2)
    assert DenChain.build(3, None, "x1", 2) is chain
    pairs.append((chain, DenChain(chain.xname, chain.factors, chain.products, chain.xtrunc),
                  DenChain.build(3, None, "x2", 2)))
    for a, b, other in pairs:
        assert a == b and hash(a) == hash(b), a
        assert a != other, a
    # cached properties are not fields
    spec = pairs[1][0]
    spec.int_alphas
    chain.cofactor(0, 2)
    assert spec == pairs[1][1] and hash(spec) == hash(pairs[1][1])
    assert chain == pairs[2][1] and hash(chain) == hash(pairs[2][1])

    K = build_K("dot", 3, CISpec((1,)), None, 2)
    copy = HyperSeries(K.n, K.D, K.den_chains, dict(K.num_parts), K.xtrunc)
    assert K == copy
    K.dens
    assert K == copy and copy == K
    nums = dict(K.num_parts)
    nums[(1, 0)] = -nums[(1, 0)]
    assert K != HyperSeries(K.n, K.D, K.den_chains, nums, K.xtrunc)

    with pytest.raises(ValueError, match="all a_k must be positive"):
        CISpec((0,))

    # the bar series of one ladder share its inverse tables
    pipe = build_pipeline("dot", 3, CISpec(()), None, 1)
    assert len({id(bar.inverses) for bar in pipe.bars.values()}) == 1

    fields = list(inspect.signature(RunConfig).parameters)
    assert len(fields) == 15
    assert run(["cohomology", "--n", "3"]) == 0
    assert sorted(json.loads(capsys.readouterr().out)["meta"]) == sorted(fields)


def test_ladder_image_equality_ignores_its_inverse_cache():
    # the x-adic inverse table is a cache, filled on first read: not a field
    from qgr.hyper import LadderImage

    K, other = (LadderImage.ladder("dot", 3, CISpec((1,)), 2, 3) for _ in range(2))
    assert K is not other and K == other
    K.x_expansion((1, 1), 2)
    assert K.inverses and not other.inverses
    assert K == other and other == K
