"""Exact-arithmetic quasimap series for complete intersections in Gr(2,n).

Builds the ladder generating functions, their bar transforms and closed
forms, the recursion-coefficient tables, the operator calculus and the
basis-weighted series, and machine-verifies recursivity, polynomiality,
operator normalizations and diagonal orthogonality — all over exact
rationals.
"""

from .cohomology import (
    ab_integrate,
    box_partitions,
    default_generic_alpha,
    diagonal,
    equivariant_diagonal,
    localization_data,
    pairing,
    restrict_fixed_point,
    schur_poly,
    schur_reduce,
)
from .hrat import HRat
from .hyper import (
    AMatrixSpec,
    CISpec,
    HyperSeries,
    bar_assemble,
    build_A,
    build_K,
    build_Y_closed,
    c_coeff,
    normalization_I,
    scr_coeff,
    y_series_evaluated,
)
from .operators import (
    assemble_Y_gamma,
    assemble_double_J,
    audit_frakD_normalizations,
    build_pipeline,
    equivariant_orthogonality_check,
    orthogonality_check,
    y_gamma_evaluated,
)
from .residues import residue_at, residue_sum_check
from .rings import RatFunc, SparsePoly
from .series import LaurentExpansion, QSeries, laurent_expand_hbar
from .verifier import (
    build_phi,
    check_mpc,
    check_recursive,
    check_recursive_2q,
)

__version__ = "0.1.0"
