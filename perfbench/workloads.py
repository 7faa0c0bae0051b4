"""Workload definitions: seeded inputs and the qgr argv of every job.

A workload pass is a closed loop of jobs, each an argv list handed to
``qgr.cli.run``.  Torus weights come from a fixed pool per ``n``: the
pool is the first ``POOL_SIZE`` draws of ``n`` distinct integers from
``WEIGHT_RANGE`` that pass ``qgr.cohomology.genericity_check`` at
``POOL_QDEG``, made with a fixed generator.  Every pool entry has a
recorded reference (see ``record_reference.py``), so the seed only picks
entries; arbitrary weights would have no reference to grade against.
Entries from one bounded range keep bit lengths similar across seeds.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

WORKLOADS = ("fixedpoint", "symbolic", "closedform")

WEIGHT_RANGE = (1, 40)
POOL_SIZE = 16
POOL_QDEG = 3
POOL_NS = (3, 4, 5)

# (k, j) basis classes of H*(Gr(2,4)): degrees 0..4, two classes in degree 2.
GR24_CLASSES = ((0, 0), (1, 0), (2, 0), (2, 1), (3, 0), (4, 0))


def weight_pools(genericity_check, genericity_error) -> dict[int, list[tuple[int, ...]]]:
    """The fixed weight pool for every n in ``POOL_NS``."""
    pools = {}
    for n in POOL_NS:
        rng = random.Random(f"qgr-weight-pool:{n}")
        pool: list[tuple[int, ...]] = []
        while len(pool) < POOL_SIZE:
            w = tuple(sorted(rng.sample(range(WEIGHT_RANGE[0], WEIGHT_RANGE[1] + 1), n)))
            if w in pool:
                continue
            try:
                genericity_check(tuple(Fraction(v) for v in w), POOL_QDEG)
            except genericity_error:
                continue
            pool.append(w)
        pools[n] = pool
    return pools


class Weights:
    """Placeholder in a job template: torus weights for n fixed points."""

    def __init__(self, n: int):
        self.n = n


class BasisClass:
    """Placeholder in a job template: a (k, j) class of H*(Gr(2,4))."""


W3, W4, W5, CLS = Weights(3), Weights(4), Weights(5), BasisClass()

# Everything is a rational function in h alone: RatFunc.add, divide_exact
# and build_phi dominate; x_coefficients never runs.  The two
# fault-injected jobs have reference verdict fail, so the failure path of
# the verifier is timed too.
FIXEDPOINT = (
    ("verify", "--suite", "recursivity", "--n", "3", "--a", "1,1,1", "--qdeg", "3", "--alpha", W3),
    ("verify", "--suite", "mpc", "--n", "3", "--a", "1,1,1", "--qdeg", "3", "--zdeg", "3", "--alpha", W3),
    ("verify", "--suite", "recursivity", "--n", "4", "--a", "2", "--qdeg", "3", "--alpha", W4),
    ("verify", "--suite", "mpc", "--n", "4", "--a", "2", "--qdeg", "2", "--zdeg", "2", "--alpha", W4),
    ("verify", "--suite", "residue-internal", "--n", "3", "--a", "1", "--qdeg", "3", "--alpha", W3),
    ("verify", "--suite", "recursivity", "--n", "3", "--a", "", "--qdeg", "3", "--mutate", "1:1", "--alpha", W3),
    ("verify", "--suite", "mpc", "--n", "3", "--a", "", "--qdeg", "3", "--mutate", "1:1", "--alpha", W3),
)

# Zero-weight operator pipeline: x_coefficients on few distinct
# denominators amid many small trivariate products; no fixed points.
SYMBOLIC = (
    ("double-j", "--n", "4", "--a", "2", "--qdeg", "3"),
    ("double-j", "--n", "4", "--a", "4", "--qdeg", "2"),
    ("verify", "--suite", "operator-norms", "--n", "4", "--a", "2", "--qdeg", "2"),
    ("series", "--kind", "y-gamma", "--n", "4", "--a", "4", "--qdeg", "2", CLS),
    ("series", "--kind", "ydd-gamma", "--n", "4", "--a", "4", "--qdeg", "2", CLS),
)

# A few dense trivariate products, rational-function equality tests and
# large canonical documents; x_coefficients only on distinct denominators.
CLOSEDFORM = (
    ("series", "--kind", "dot-dual", "--n", "5", "--a", "2,3", "--qdeg", "4"),
    ("series", "--kind", "ddot-dual", "--n", "5", "--a", "2,3", "--qdeg", "4"),
    ("series", "--kind", "dot-bar", "--n", "5", "--a", "1,2", "--qdeg", "3", "--alpha", W5),
    ("series", "--kind", "z-normalized", "--n", "4", "--a", "4", "--qdeg", "4"),
    ("verify", "--suite", "fano-vanishing", "--n", "4", "--a", "", "--qdeg", "3", "--alpha", W4),
    ("verify", "--suite", "fano-vanishing", "--n", "5", "--a", "2", "--qdeg", "2", "--alpha", W5),
)

TEMPLATES = {"fixedpoint": FIXEDPOINT, "symbolic": SYMBOLIC, "closedform": CLOSEDFORM}


def _expand(template, choose) -> tuple[list[str], object]:
    """(argv, drawn value or None) with the template's placeholder filled
    by choose(placeholder)."""
    argv, drawn = [], None
    for item in template:
        if isinstance(item, Weights):
            drawn = choose(item)
            argv.append(",".join(str(v) for v in drawn))
        elif isinstance(item, BasisClass):
            drawn = choose(item)
            argv += ["--k", str(drawn[0]), "--j", str(drawn[1])]
        else:
            argv.append(item)
    return argv, drawn


def draw_inputs(workload: str, seed: int, pass_index: int, pools) -> tuple[list, list[list[str]]]:
    """Seeded inputs of one pass: (the value drawn for each job, job argv list).

    Every job draws its own weights or class, so a pass averages over
    several draws.  Pass ``i`` of a run with seed ``s`` always gets the
    same inputs.
    """
    rng = random.Random(f"{workload}:{seed}:{pass_index}")

    def choose(ph):
        return rng.choice(pools[ph.n] if isinstance(ph, Weights) else GR24_CLASSES)

    expanded = [_expand(t, choose) for t in TEMPLATES[workload]]
    return [list(d) if d is not None else None for _, d in expanded], [a for a, _ in expanded]


def all_jobs(pools) -> dict[str, list[list[str]]]:
    """Every job any seed can draw, per workload (for recording references)."""
    out = {}
    for workload, templates in TEMPLATES.items():
        out[workload] = []
        for t in templates:
            ph = next((x for x in t if isinstance(x, (Weights, BasisClass))), None)
            values = [None] if ph is None else pools[ph.n] if isinstance(ph, Weights) else GR24_CLASSES
            for v in values:
                out[workload].append(_expand(t, lambda _, v=v: v)[0])
    return out


def job_key(argv: list[str]) -> str:
    """Reference-table key of a job: its argv as a JSON list."""
    return json.dumps(argv)
