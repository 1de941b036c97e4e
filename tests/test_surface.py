"""The public surface of the package, and the part of it that other code reads.

``perfbench/tracer.py`` wraps library functions by attribute name, and
``tests/test_acceptance.py`` imports names from the modules.  A deletion or
rename that breaks either fails here, in seconds, rather than inside a
traced benchmark run.  Each module's ``__all__`` and the names the package
re-exports are pinned, and so is every value a caller can set (config
fields, common flags, defaulted parameters), so a change to the public
surface is a deliberate edit of this file.  Every constant that the README
"Tolerances" table names must exist.
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import inspect
import re
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
        "BLASCHKE_BOUNDARY_MARGIN", "ConditioningError", "FactorizationError",
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
        "KernelPair", "L2Kernel", "adjoint_kernel_basis", "adjoint_kernel_map",
        "adjoint_kernel_map_inverse", "adjoint_inverse_report", "coburn_check", "invertible_on_circle",
        "kernel_basis", "kernel_conjugate", "kernel_element_direct", "kernel_element_from_inner_factor",
        "l2_kernel", "pair_from_function", "same_kernel_test", "subspace_angle",
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
    "rational_to_coeffs", "rational_to_coeffs_auto", "replay_violation", "riesz_minus",
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


def _readme_tolerances() -> list[tuple[str, str]]:
    """(module, constant) of each name in the first column of the README "Tolerances" table.

    A cell names its module once: `symbols._START_BAND`, `_MAX_BAND`.
    """
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("### Tolerances", 1)[1].split("\n#", 1)[0]
    named = []
    for row in section.splitlines():
        if row.startswith("| `"):
            first, *rest = re.findall(r"`([^`]+)`", row.split("|")[1])
            module, constant = first.split(".")
            named += [(module, constant)] + [(module, name) for name in rest]
    return named


@pytest.mark.parametrize("module,constant", _readme_tolerances())
def test_readme_tolerance_exists(module, constant):
    assert hasattr(MODULES[module], constant)


def test_readme_tolerances_were_read():
    assert len(_readme_tolerances()) >= 20


def _common_flags() -> list[str]:
    """The option strings that every subcommand accepts."""
    sub = next(a for a in cli._PARSER._actions if isinstance(a, argparse._SubParsersAction))
    flags = [{s for action in p._actions for s in action.option_strings} for p in sub.choices.values()]
    return sorted(set.intersection(*flags))


def _defaulted_parameters() -> set[str]:
    """``module.qualname(parameter)`` of each parameter with a default, over the public functions and methods.

    The generated ``__init__`` of a dataclass is left out: its fields are pinned on their own.
    """
    functions = set()
    for module in MODULES.values():
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isfunction(obj):
                functions.add(obj)
            elif inspect.isclass(obj):
                for attr, value in vars(obj).items():
                    value = getattr(value, "__func__", value)
                    if inspect.isfunction(value) and not (attr == "__init__" and dataclasses.is_dataclass(obj)):
                        functions.add(value)
    return {
        f"{fn.__module__.rsplit('.', 1)[1]}.{fn.__qualname__}({p.name})"
        for fn in functions
        for p in inspect.signature(fn).parameters.values()
        if p.default is not inspect.Parameter.empty
    }


def test_settable_surface_is_pinned():
    assert [f.name for f in dataclasses.fields(cli.RunConfig)] == ["N", "seed", "out", "format"]
    assert [f.name for f in dataclasses.fields(properties.GeneratorConfig)] == ["seed", "coefficient_scale", "trials"]
    assert _common_flags() == ["--N", "--config", "--format", "--help", "--out", "--seed", "-h"]
    # of these, only invertible_on_circle(min_distance) is a tolerance: callers pass 1e-8, 1e-3 and 1e-2
    assert _defaulted_parameters() == {
        "cli.main(argv)",
        "kernels.invertible_on_circle(min_distance)",
        "kernels.kernel_basis(kind)",
        "operators.composition_residual(kind)",
        "operators.exact_action_matrix(kind)",
        "operators.toeplitz_window(out)",
        "properties.AggregateReport.to_json_dict(include_runtime)",
        "properties.TrialReport.to_json_dict(include_runtime)",
        "properties.gen_symbol(family)",
        "symbols.LaurentPoly.__init__(coeffs)",
        "symbols.LaurentPoly.monomial(coefficient)",
        "symbols.RationalSymbol.__init__(den)",
        "symbols.poly_from_roots(leading)",
        "symbols.poly_from_roots(shift)",
    }


def _poly_roots_call_sites() -> list[tuple[str, str]]:
    """(module, enclosing function) of every call of ``poly_roots`` in the package source."""
    sites = []
    for path in sorted((ROOT / "src" / "pairedops").glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                callee = getattr(node, "func", None)
                if getattr(callee, "id", getattr(callee, "attr", None)) == "poly_roots":
                    sites.append((path.stem, fn.name))
    return sites


def test_one_root_split_solves_for_roots():
    # every decision about a root's side of the circle reads the disks of symbols._root_disks;
    # a second caller of poly_roots would be a second root classifier
    assert _poly_roots_call_sites() == [("symbols", "_root_disks")]
