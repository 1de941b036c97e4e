"""The public surface of the package, and the part of it that other code reads.

``perfbench/tracer.py`` wraps library functions by attribute name, and
``tests/test_acceptance.py`` imports names from the modules.  A deletion or
rename that breaks either fails here, in seconds, rather than inside a
traced benchmark run.  Each module's ``__all__`` and the names the package
re-exports are pinned, so a change to the public surface is a deliberate
edit of this file.
"""

from __future__ import annotations

import ast
import types
from pathlib import Path

import pytest

import pairedops
from pairedops import cli, kernels, operators, properties, symbols

ROOT = Path(__file__).resolve().parent.parent
MODULES = {m.__name__.rsplit(".", 1)[1]: m for m in (symbols, operators, kernels, properties, cli)}


def _module_assignment(path: Path, name: str) -> ast.expr:
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets):
            return node.value
    raise AssertionError(f"{path.name} assigns no {name}")


def _tracer_targets() -> list[tuple[str, str]]:
    """(module, attribute) of every entry of the tracer's ``_FUNCTIONS`` and ``_KERNEL_ONLY``."""
    tracer = ROOT / "perfbench" / "tracer.py"
    # _FUNCTIONS entries are (span, layer, module, attribute); _KERNEL_ONLY ones
    # (span, layer, attribute), patched on the kernels module
    functions = [(e.elts[2].id, e.elts[3].value) for e in _module_assignment(tracer, "_FUNCTIONS").elts]
    kernel_only = [("kernels", e.elts[2].value) for e in _module_assignment(tracer, "_KERNEL_ONLY").elts]
    return functions + kernel_only


def _acceptance_imports() -> list[tuple[str, str]]:
    """(module, name) of every ``from pairedops.<module> import name`` in the acceptance gate."""
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    return [
        (node.module.rsplit(".", 1)[1], alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("pairedops.")
        for alias in node.names
    ]


@pytest.mark.parametrize("module,attr", _tracer_targets() + _acceptance_imports())
def test_outside_reference_exists(module, attr):
    assert hasattr(MODULES[module], attr)


def test_outside_references_were_read():
    assert len(_tracer_targets()) >= 10 and len(_acceptance_imports()) >= 20


_ALL = {
    "symbols": [
        "BLASCHKE_BOUNDARY_MARGIN", "CIRCLE_ROOT_TOL", "ConditioningError", "FactorizationError",
        "InnerOuterFactorization", "LaurentPoly", "NondegeneracyReport", "PolyRoots", "RationalSymbol",
        "RationalTruncation", "SymbolParseError", "blaschke", "in_conj_hardy", "in_conj_hardy_vanishing",
        "in_hardy", "inner_outer_factor", "is_nondegenerate", "parse_symbol", "poly_from_roots", "poly_roots",
        "rational_to_coeffs", "rational_to_coeffs_auto", "unit_grid",
    ],
    "operators": [
        "CoeffVector", "CompositionResidual", "CommutatorResidual", "DegeneratePairError", "FiniteSection",
        "SectionKind", "SymbolPair", "apply_paired", "apply_transposed", "commutator_residual",
        "composition_residual", "exact_action_matrix", "finite_section", "inner_product", "op_norm",
        "riesz_minus", "riesz_plus", "toeplitz_window",
    ],
    "kernels": [
        "AdjointInverseReport", "AmbiguousKernelError", "BridgeReport", "CoburnReport", "KernelBasis",
        "KernelPair", "L2Kernel", "NULL_SPACE_REL_THRESHOLD", "adjoint_kernel_basis", "adjoint_kernel_map",
        "adjoint_kernel_map_inverse", "adjoint_inverse_report", "coburn_check", "invertible_on_circle",
        "kernel_basis", "kernel_conjugate", "kernel_element_direct", "kernel_element_from_inner_factor",
        "l2_kernel", "pair_from_function", "reciprocal_symbol", "same_kernel_test", "subspace_angle",
        "toeplitz_kernel_bridge",
    ],
    "properties": [
        "AggregateReport", "GeneratorConfig", "SUITES", "TrialReport", "Violation", "gen_symbol",
        "replay_violation", "run_all", "suite_brown_halmos", "suite_coburn", "suite_commutant",
        "suite_kernels", "suite_model_space", "suite_norm_bounds", "suite_pointwise_commutation",
    ],
    "cli": ["RunConfig", "main"],
}

_REEXPORTS = {
    "AggregateReport", "AmbiguousKernelError", "BridgeReport", "CoburnReport", "CoeffVector",
    "CommutatorResidual", "CompositionResidual", "ConditioningError", "DegeneratePairError",
    "FactorizationError", "FiniteSection", "GeneratorConfig", "InnerOuterFactorization", "KernelBasis",
    "KernelPair", "L2Kernel", "LaurentPoly", "NondegeneracyReport", "RationalSymbol", "RunConfig", "SUITES",
    "SymbolPair", "SymbolParseError", "TrialReport", "Violation", "adjoint_inverse_report",
    "adjoint_kernel_basis", "adjoint_kernel_map", "adjoint_kernel_map_inverse", "apply_paired",
    "apply_transposed", "blaschke", "coburn_check", "commutator_residual", "composition_residual",
    "exact_action_matrix", "finite_section", "gen_symbol", "in_conj_hardy", "in_conj_hardy_vanishing",
    "in_hardy", "inner_outer_factor", "inner_product", "invertible_on_circle", "is_nondegenerate",
    "kernel_basis", "kernel_conjugate", "kernel_element_direct", "kernel_element_from_inner_factor",
    "l2_kernel", "main", "op_norm", "pair_from_function", "parse_symbol", "poly_from_roots", "poly_roots",
    "rational_to_coeffs", "rational_to_coeffs_auto", "reciprocal_symbol", "replay_violation", "riesz_minus",
    "riesz_plus", "run_all", "same_kernel_test", "subspace_angle", "toeplitz_kernel_bridge", "unit_grid",
}


@pytest.mark.parametrize("name", sorted(_ALL))
def test_module_all_is_pinned(name):
    module = MODULES[name]
    assert module.__all__ == _ALL[name]
    assert all(hasattr(module, attr) for attr in module.__all__)


def test_package_reexports_are_pinned():
    public = {
        name
        for name, value in vars(pairedops).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == _REEXPORTS
