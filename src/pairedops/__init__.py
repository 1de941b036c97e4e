"""Paired operators a*P+ + b*P- on the Fourier basis of the circle.

Exact Laurent-symbol algebra, Riesz projections, paired/transposed operator
actions, finite sections and norms, kernel computation with structure maps
(conjugation transfer, adjoint transfer, the kernel dichotomy), and seeded
randomized verification suites, all behind a small CLI.
"""

from .symbols import (
    ConditioningError,
    FactorizationError,
    InnerOuterFactorization,
    LaurentPoly,
    NondegeneracyReport,
    RationalSymbol,
    SymbolParseError,
    blaschke,
    in_conj_hardy,
    in_conj_hardy_vanishing,
    in_hardy,
    inner_outer_factor,
    is_nondegenerate,
    parse_symbol,
    poly_from_roots,
    poly_roots,
    rational_to_coeffs,
    rational_to_coeffs_auto,
    unit_grid,
)
from .operators import (
    CoeffVector,
    CommutatorResidual,
    CompositionResidual,
    DegeneratePairError,
    FiniteSection,
    SymbolPair,
    apply_paired,
    apply_transposed,
    commutator_residual,
    composition_residual,
    exact_action_matrix,
    finite_section,
    inner_product,
    op_norm,
    riesz_minus,
    riesz_plus,
)
from .kernels import (
    AmbiguousKernelError,
    BridgeReport,
    CoburnReport,
    KernelBasis,
    KernelPair,
    L2Kernel,
    adjoint_inverse_report,
    adjoint_kernel_basis,
    adjoint_kernel_map,
    adjoint_kernel_map_inverse,
    coburn_check,
    invertible_on_circle,
    kernel_basis,
    kernel_conjugate,
    kernel_element_direct,
    kernel_element_from_inner_factor,
    l2_kernel,
    pair_from_function,
    same_kernel_test,
    subspace_angle,
    toeplitz_kernel_bridge,
)
from .properties import (
    AggregateReport,
    GeneratorConfig,
    SUITES,
    TrialReport,
    Violation,
    gen_symbol,
    replay_violation,
    run_all,
)
from .cli import RunConfig, main

__version__ = "0.1.0"
