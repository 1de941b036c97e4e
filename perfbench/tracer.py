"""Outside-in tracing of the library's layers.

The tracer wraps module attributes at the place where callers look them up
(``pairedops.kernels.exact_action_matrix``, ``pairedops.cli.kernel_basis``,
``numpy.linalg.svd`` and so on) and restores them afterwards; no library
file changes.  Spans (name, start, end, parent, op id, N) stay in memory and
are written out when the run ends.  A span's self time is its duration
minus the time of its direct children.
"""

from __future__ import annotations

import functools
import json
import time
import types
from collections import defaultdict

import numpy as np

from pairedops import cli, kernels, operators, properties, symbols
from pairedops.kernels import AmbiguousKernelError

LAYERS = ("symbols", "operators", "kernels", "properties", "cli")
_MODULES = (symbols, operators, kernels, properties, cli)

# (span name, layer, module defining the function, attribute).  Every module
# of the package that imported the function under the same name is patched.
_FUNCTIONS = (
    ("symbols.parse_symbol", "symbols", symbols, "parse_symbol"),
    ("symbols.poly_roots", "symbols", symbols, "poly_roots"),
    ("symbols.rational_to_coeffs", "symbols", symbols, "rational_to_coeffs"),
    ("symbols.rational_to_coeffs_auto", "symbols", symbols, "rational_to_coeffs_auto"),
    ("operators.finite_section", "operators", operators, "finite_section"),
    ("operators.exact_action_matrix", "operators", operators, "exact_action_matrix"),
    ("kernels.kernel_basis", "kernels", kernels, "kernel_basis"),
    ("kernels.coburn_check", "kernels", kernels, "coburn_check"),
    ("cli.main", "cli", cli, "main"),
)
# Exact application as called from `kernels` only, i.e. kernel certification
# and the structure maps; section builds in `operators` call it too.
_KERNEL_ONLY = (
    ("operators.exact_apply", "operators", "apply_paired"),
    ("operators.exact_apply", "operators", "apply_transposed"),
)
_RATIONAL = ("symbols.rational_to_coeffs", "symbols.rational_to_coeffs_auto")
_SVD_VALUES = "operators.svd_values"
_SVD_FULL = "kernels.svd_full"
_SUITE = "properties.suite."


class _Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "op", "N", "error", "cells")

    def __init__(self, name, layer, start, parent, op, N):
        self.name, self.layer, self.start, self.parent, self.op, self.N = name, layer, start, parent, op, N
        self.end = start
        self.error = ""
        self.cells = 0


class Tracer:
    """Records spans at layer boundaries while installed (use as a context)."""

    def __init__(self):
        self.spans: list[_Span] = []
        self.laurent_new = 0
        self.op_id = -1
        self.op_N = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def begin_op(self, op_id: int, band: int) -> None:
        self.op_id, self.op_N = op_id, band

    def _wrap(self, name: str, layer: str, fn, svd: bool = False):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name, span_layer = name, layer
            if svd:
                full = kwargs.get("compute_uv", True)
                span_name, span_layer = (_SVD_FULL, "kernels") if full else (_SVD_VALUES, "operators")
            span = _Span(span_name, span_layer, 0.0, stack[-1] if stack else -1, self.op_id, self.op_N)
            if svd:
                shape = np.shape(args[0])
                span.cells = int(shape[-2] * shape[-1])
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as err:
                span.error = type(err).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()

        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        try:
            self._install()
        except BaseException:
            self.__exit__()
            raise
        return self

    def _install(self) -> None:
        for name, layer, home, attr in _FUNCTIONS:
            original = getattr(home, attr)
            wrapper = self._wrap(name, layer, original)
            for module in _MODULES:
                if getattr(module, attr, None) is original:
                    self._patch(module, attr, wrapper)
        for name, layer, attr in _KERNEL_ONLY:
            self._patch(kernels, attr, self._wrap(name, layer, getattr(kernels, attr)))
        self._patch(np.linalg, "svd", self._wrap("svd", "", np.linalg.svd, svd=True))
        poly = symbols.LaurentPoly
        self._patch(poly, "sup_norm", self._wrap("symbols.sup_norm", "symbols", poly.sup_norm))
        init = poly.__init__

        def counting_init(obj, *args, **kwargs):
            self.laurent_new += 1
            init(obj, *args, **kwargs)

        self._patch(poly, "__init__", counting_init)
        json_proxy = types.SimpleNamespace(**vars(cli.json))
        json_proxy.dumps = self._wrap("cli.json", "cli", cli.json.dumps)
        self._patch(cli, "json", json_proxy)
        for suite, fn in list(properties.SUITES.items()):
            self._patch_item(properties.SUITES, suite, self._wrap(_SUITE + suite, "properties", fn))

    def _patch_item(self, table: dict, key, value) -> None:
        self._undo.append((table, key, table[key]))
        table[key] = value

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)

    # -- output ------------------------------------------------------------

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for i, s in enumerate(self.spans):
                record = {"id": i, "name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                          "op": s.op, "N": s.N}
                if s.error:
                    record["error"] = s.error
                if s.cells:
                    record["cells"] = s.cells
                handle.write(json.dumps(record) + "\n")


def layer_metrics(tracer: Tracer, ops: int, outcomes) -> dict:
    """Per-layer metrics of a traced pass over ``ops`` ops.

    ``outcomes`` are the traced ops' outcomes, for the suite statistics and
    output sizes.  Layers an op never reaches report 0.
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start
            children[s.parent].append(i)

    def ancestor(i: int, names) -> bool:
        p = spans[i].parent
        while p >= 0:
            if spans[p].name in names:
                return True
            p = spans[p].parent
        return False

    total = defaultdict(float)
    calls = defaultdict(int)
    self_time = defaultdict(float)
    for i, s in enumerate(spans):
        total[s.name] += s.end - s.start
        calls[s.name] += 1
        self_time[s.layer] += s.end - s.start - child_time[i]
    root_time = sum(s.end - s.start for s in spans if s.parent < 0)

    def per_op(value: float) -> float:
        return value / ops

    def ms(name: str) -> float:
        return per_op(total[name] * 1e3)

    rational_top = sum(
        s.end - s.start for i, s in enumerate(spans) if s.name in _RATIONAL and not ancestor(i, _RATIONAL)
    )
    bands = sum(
        1 for i, s in enumerate(spans) if s.name == "symbols.rational_to_coeffs"
        and ancestor(i, ("symbols.rational_to_coeffs_auto",))
    )
    exact_apply = sum(
        s.end - s.start for i, s in enumerate(spans)
        if s.name == "operators.exact_apply" and not ancestor(i, ("operators.exact_apply",))
    )
    basis = [s for s in spans if s.name == "kernels.kernel_basis"]
    svd_in_basis = sum(1 for i, s in enumerate(spans) if s.name == _SVD_FULL and ancestor(i, ("kernels.kernel_basis",)))
    cli_self = sum(
        s.end - s.start - sum(spans[c].end - spans[c].start for c in children[i] if spans[c].name != "cli.json")
        for i, s in enumerate(spans) if s.name == "cli.main"
    )

    metrics = {
        "symbols.laurent_new_per_op": (per_op(tracer.laurent_new), "count"),
        "symbols.rational_ms_per_op": (per_op(rational_top * 1e3), "ms"),
        "symbols.rational_bands_per_call": (bands / calls["symbols.rational_to_coeffs_auto"]
                                            if calls["symbols.rational_to_coeffs_auto"] else 0.0, "count"),
        "symbols.sup_norm_ms_per_op": (ms("symbols.sup_norm"), "ms"),
        "operators.section_build_ms_per_op": (ms("operators.finite_section"), "ms"),
        "operators.action_matrix_ms_per_op": (ms("operators.exact_action_matrix"), "ms"),
        "operators.svd_values_calls_per_op": (per_op(calls[_SVD_VALUES]), "count"),
        "operators.svd_values_ms_per_op": (ms(_SVD_VALUES), "ms"),
        "operators.svd_cells_per_op": (per_op(sum(s.cells for s in spans)), "count"),
        "operators.exact_apply_ms_per_op": (per_op(exact_apply * 1e3), "ms"),
        "kernels.kernel_basis_calls_per_op": (per_op(len(basis)), "count"),
        "kernels.kernel_basis_ms_per_op": (ms("kernels.kernel_basis"), "ms"),
        "kernels.svd_full_ms_per_op": (ms(_SVD_FULL), "ms"),
        "kernels.svd_per_kernel_basis": (svd_in_basis / len(basis) if basis else 0.0, "count"),
        "kernels.coburn_ms_per_op": (ms("kernels.coburn_check"), "ms"),
        "kernels.ambiguous_per_attempt": (
            sum(1 for s in basis if s.error == AmbiguousKernelError.__name__) / len(basis) if basis else 0.0,
            "ratio",
        ),
    }
    for suite in sorted(properties.SUITES):
        name = _SUITE + suite
        metrics[f"properties.suite_ms.{suite}"] = (total[name] * 1e3 / calls[name] if calls[name] else 0.0, "ms")
    metrics["properties.band_escalations_per_op"] = (per_op(sum(o.band_escalations for o in outcomes)), "count")
    metrics["properties.ambiguities_per_op"] = (per_op(sum(o.ambiguities for o in outcomes)), "count")
    metrics["cli.self_ms_per_op"] = (per_op(cli_self * 1e3), "ms")
    metrics["cli.json_ms_per_op"] = (ms("cli.json"), "ms")
    metrics["cli.output_bytes_per_op"] = (
        per_op(sum(o.output_bytes for o in outcomes)) if calls["cli.main"] else 0.0, "bytes")
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = (self_time[layer] / root_time if root_time else 0.0, "ratio")
    return metrics
