"""Paired operators a*P+ + b*P- on the Fourier basis of the circle.

Exact Laurent-symbol algebra, Riesz projections, paired/transposed operator
actions, finite sections and norms, kernel computation with structure maps
(conjugation transfer, adjoint transfer, the kernel dichotomy), and seeded
randomized verification suites, all behind a small CLI.
"""

from .symbols import (
    AnalyticityClass,
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
    model_space_basis,
    parse_symbol,
    poly_from_roots,
    poly_roots,
    rational_to_coeffs,
    rational_to_coeffs_auto,
    unit_grid,
)
from .operators import (
    BlockDecomposition,
    CoeffVector,
    CommutatorResidual,
    CompositionResidual,
    DegeneratePairError,
    FiniteSection,
    SymbolPair,
    apply_paired,
    apply_transposed,
    block_decompose,
    commutator_residual,
    composition_residual,
    conjugation_identity_residual,
    exact_action_matrix,
    finite_section,
    hankel_minus,
    hankel_plus,
    inner_product,
    mul_apply,
    op_norm,
    riesz_minus,
    riesz_plus,
)
from .kernels import (
    AmbiguousKernelError,
    BridgeReport,
    CoburnReport,
    InvarianceReport,
    KernelBasis,
    KernelPair,
    KernelProjections,
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
    kernel_projections,
    l2_kernel,
    multiplier_invariance_test,
    pair_from_function,
    reciprocal_symbol,
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
