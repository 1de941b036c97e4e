"""Command line interface: apply, norm, kernel, factor, pair-from, coburn, suite.

Every command emits a report in one of three formats (json, csv, pretty);
the JSON form embeds the resolved run configuration as a reproducibility
header and is byte-stable across runs with identical flags.  Exit codes:
0 success / suite passed, 1 suite violations, 2 invalid input, an
ambiguity the library refused to resolve, or another arithmetic failure.

``kernel`` and ``coburn`` answer from the closed-form L2 kernels where a and b
are invertible on the circle (``"route": "index"``, independent of N), and
from the band-N null spaces otherwise (``"route": "band-limited"``).
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import json
import math
import sys

from .kernels import (
    AmbiguousKernelError,
    coburn_check,
    kernel_basis,
    kernel_projections,
    l2_kernel,
    pair_from_function,
)
from .operators import (
    DegeneratePairError,
    SymbolPair,
    apply_paired,
    apply_transposed,
    op_norm,
    riesz_minus,
    riesz_plus,
)
from .properties import SUITES, GeneratorConfig, run_all
from .symbols import (
    ConditioningError,
    LaurentPoly,
    RationalSymbol,
    SymbolParseError,
    inner_outer_factor,
    parse_symbol,
)

__all__ = ["RunConfig", "main"]

_FORMATS = ("json", "csv", "pretty")
_TOLERANCES = ("exact", "numeric", "null_threshold")

# Bytes of the largest dense complex array `norm`, `kernel` or `coburn` may
# build: 64 times the 4 MB section of `norm` at N = 256.
MAX_DENSE_BYTES = 1 << 28


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Resolved run parameters shared by every command."""

    N: int = 32
    grid_points: int = 1024
    tolerances: dict = dataclasses.field(
        default_factory=lambda: {"exact": 1e-12, "numeric": 1e-8, "null_threshold": 1e-8}
    )
    seed: int = 0
    out: str | None = None
    format: str = "pretty"

    def __post_init__(self):
        for name in ("N", "grid_points", "seed"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, not {value!r}")
        if self.N < 1:
            raise ValueError("N must be at least 1")
        if self.out is not None and not isinstance(self.out, str):
            raise ValueError(f"out must be a path or null, not {self.out!r}")
        if self.format not in _FORMATS:
            raise ValueError(f"format must be one of {_FORMATS}")
        if not isinstance(self.tolerances, dict):
            raise ValueError(f"tolerances must be an object, not {self.tolerances!r}")
        unknown = set(self.tolerances) - set(_TOLERANCES)
        if unknown:
            raise ValueError(f"unknown tolerance keys: {sorted(unknown)}")
        for key in _TOLERANCES:
            value = self.tolerances.get(key)
            if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0 < value < math.inf:
                raise ValueError(f"tolerance {key!r} must be present, finite and positive, not {value!r}")

    def to_json_dict(self) -> dict:
        return {
            "N": self.N,
            "grid_points": self.grid_points,
            "tolerances": dict(self.tolerances),
            "seed": self.seed,
            "out": self.out,
            "format": self.format,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise ValueError("a run config must be a JSON object")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)


def _load_config(args: argparse.Namespace) -> RunConfig:
    if args.config:
        with open(args.config, "r", encoding="utf-8") as handle:
            cfg = RunConfig.from_json_dict(json.load(handle))
    else:
        cfg = RunConfig()
    overrides = {}
    if args.N is not None:
        overrides["N"] = _parse_bands(args.N)[0]
    if args.grid is not None:
        overrides["grid_points"] = args.grid
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out is not None:
        overrides["out"] = args.out
    if args.format is not None:
        overrides["format"] = args.format
    return dataclasses.replace(cfg, **overrides) if overrides else cfg


def _parse_bands(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as err:
        raise SymbolParseError(f"invalid band list {text!r}", 0) from err
    if not values or any(v < 1 for v in values):
        raise SymbolParseError(f"invalid band list {text!r}", 0)
    return values


def _check_size(pair: SymbolPair, bands: list[int], cfg: RunConfig) -> None:
    """Refuse, before any allocation, inputs whose dense arrays exceed :data:`MAX_DENSE_BYTES`.

    For band radius d and the largest band N: the exact action matrix of
    (2(N+d)+1) x (2N+1) entries (it contains every finite section), the
    companion matrix of a root solve of degree up to 2d, and the evaluation
    grid of max(--grid, 16(2d+1)) points.
    """
    d, band = pair.band_radius(), max(bands)
    arrays = {
        f"band {band} matrix": (2 * (band + d) + 1) * (2 * band + 1),
        "root-solve matrix": (2 * d) ** 2,
        "evaluation grid": max(cfg.grid_points, 16 * (2 * d + 1)),
    }
    for name, entries in arrays.items():
        if 16 * entries > MAX_DENSE_BYTES:
            raise ValueError(f"the {name} would take {16 * entries} bytes, above the cap of {MAX_DENSE_BYTES}")


def _fmt_number(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def _triples(v: LaurentPoly) -> list[list[float]]:
    return [[k, c.real, c.imag] for k, c in v.items()]


# ---------------------------------------------------------------------------
# per-command handlers: build (result_dict, pretty_lines, csv_rows)
# ---------------------------------------------------------------------------


def _check_products(products) -> None:
    """Refuse, before any allocation, an exact product whose dense convolution exceeds :data:`MAX_DENSE_BYTES`.

    Two multi-term factors of widths w1 and w2 convolve into w1 + w2 - 1
    dense entries; a single-term factor takes the sparse path.
    """
    for left, right in products:
        if len(left.coeffs) > 1 and len(right.coeffs) > 1:
            entries = (left.kmax - left.kmin) + (right.kmax - right.kmin) + 1
            if 16 * entries > MAX_DENSE_BYTES:
                raise ValueError(f"a dense product would take {16 * entries} bytes, above the cap of {MAX_DENSE_BYTES}")


def _cmd_apply(args, cfg: RunConfig):
    pair = SymbolPair(parse_symbol(args.a), parse_symbol(args.b))
    vector = parse_symbol(args.f)
    parts = (vector, vector) if args.sigma else (riesz_plus(vector), riesz_minus(vector))
    _check_products(zip((pair.a, pair.b), parts))
    image = apply_transposed(pair, vector) if args.sigma else apply_paired(pair, vector)
    triples = _triples(image)
    pretty = [f"({k}, {_fmt_number(re)}, {_fmt_number(im)})" for k, re, im in triples]
    csv_rows = [["exponent", "re", "im"]] + [[str(k), repr(re), repr(im)] for k, re, im in triples]
    return {"coeffs": triples}, pretty, csv_rows


def _cmd_norm(args, cfg: RunConfig):
    pair = SymbolPair(parse_symbol(args.a), parse_symbol(args.b))
    bands = _parse_bands(args.N) if args.N else [8, 16, 32, 64]
    _check_size(pair, bands, cfg)
    sup_a, sup_b = pair.a.sup_norm(cfg.grid_points), pair.b.sup_norm(cfg.grid_points)
    m = max(sup_a, sup_b)
    rows = []
    for band in bands:
        rows.append(
            {
                "N": band,
                "sigma_max": op_norm(pair, band),
                "bounds": {"M": m, "sqrt2M": 2**0.5 * m, "sumAB": sup_a + sup_b},
            }
        )
    result = {"spec": pair.to_json_dict(), "rows": rows}
    header = f"{'N':>6s} {'sigma_max':>18s} {'M':>12s} {'sqrt2M':>12s} {'sumAB':>12s}"
    pretty = [header] + [
        f"{r['N']:>6d} {r['sigma_max']:>18.12f} {m:>12.8f} {2**0.5 * m:>12.8f} {sup_a + sup_b:>12.8f}"
        for r in rows
    ]
    csv_rows = [["N", "sigma_max", "M", "sqrt2M", "sumAB"]] + [
        [str(r["N"]), repr(r["sigma_max"]), repr(m), repr(2**0.5 * m), repr(sup_a + sup_b)]
        for r in rows
    ]
    return result, pretty, csv_rows


def _rational_expression(symbol: RationalSymbol) -> str:
    return f"({symbol.num.to_expression()}) / ({symbol.den.to_expression()})"


def _cmd_kernel(args, cfg: RunConfig):
    pair = SymbolPair(parse_symbol(args.a), parse_symbol(args.b))
    band = _parse_bands(args.N)[0] if args.N else cfg.N
    _check_size(pair, [band], cfg)
    kernel = l2_kernel(pair)
    if kernel is None:
        return _band_limited_kernel(args, cfg, pair, band)
    result = {"route": "index", "N": band, **kernel.to_json_dict()}
    pretty = [
        f"kernel of ({args.a}, {args.b}), index route",
        f"dim = {kernel.dim}   wind_a = {kernel.wind_a}   wind_b = {kernel.wind_b}   residual = {kernel.residual:.3e}",
    ]
    for i, (plus, minus) in enumerate(kernel.basis):
        pretty.append(f"basis[{i}] = {_rational_expression(plus)} + {_rational_expression(minus)}")
    csv_rows = [["vector", "part", "exponent", "re", "im"]]
    for i, parts in enumerate(kernel.basis):
        for side, symbol in zip(("plus", "minus"), parts):
            for name, poly in (("num", symbol.num), ("den", symbol.den)):
                for k, re, im in _triples(poly):
                    csv_rows.append([str(i), f"{side}_{name}", str(k), repr(re), repr(im)])
    if args.project:
        result["plus"] = [p.to_json_dict() for p, _ in kernel.basis]
        result["minus"] = [m.to_json_dict() for _, m in kernel.basis]
        pretty += [f"plus[{i}] = {_rational_expression(p)}" for i, (p, _) in enumerate(kernel.basis)]
        pretty += [f"minus[{i}] = {_rational_expression(m)}" for i, (_, m) in enumerate(kernel.basis)]
    return result, pretty, csv_rows


def _band_limited_kernel(args, cfg: RunConfig, pair: SymbolPair, band: int):
    basis = kernel_basis(pair, band, rel_threshold=cfg.tolerances["null_threshold"])
    result = {"route": "band-limited", **basis.to_json_dict()}
    pretty = [
        f"kernel of ({args.a}, {args.b}) at band {band}, band-limited route",
        f"dim = {basis.dim}   certified = {basis.certified}   expected_dim = {basis.expected_dim}",
    ]
    for i, v in enumerate(basis.basis):
        pretty.append(f"basis[{i}] = {v.to_expression()}")
    csv_rows = [["vector", "exponent", "re", "im"]]
    for i, v in enumerate(basis.basis):
        for k, re, im in _triples(v):
            csv_rows.append([str(i), str(k), repr(re), repr(im)])
    if args.project:
        proj = kernel_projections(basis)
        result["plus"] = [v.to_json_dict() for v in proj.plus]
        result["minus"] = [v.to_json_dict() for v in proj.minus]
        for i, v in enumerate(proj.plus):
            pretty.append(f"plus[{i}] = {v.to_expression()}")
        for i, v in enumerate(proj.minus):
            pretty.append(f"minus[{i}] = {v.to_expression()}")
    return result, pretty, csv_rows


def _cmd_factor(args, cfg: RunConfig):
    poly = parse_symbol(args.p)
    io_fact = inner_outer_factor(poly)
    result = {
        "inner": io_fact.inner.to_json_dict(),
        "outer": io_fact.outer.to_json_dict(),
        "unimodular_constant": [
            io_fact.unimodular_constant.real,
            io_fact.unimodular_constant.imag,
        ],
        "monomial_order": io_fact.monomial_order,
        "interior_roots": [[r.real, r.imag] for r in io_fact.interior_roots],
        "circle_roots": [[r.real, r.imag] for r in io_fact.circle_roots],
        "exterior_roots": [[r.real, r.imag] for r in io_fact.exterior_roots],
    }
    pretty = [
        f"inner  = ({io_fact.inner.num.to_expression()}) / ({io_fact.inner.den.to_expression()})",
        f"outer  = {io_fact.outer.num.to_expression()}",
        f"unimodular constant = {io_fact.unimodular_constant}",
        f"monomial order = {io_fact.monomial_order}",
    ]
    csv_rows = [["part", "exponent", "re", "im"]]
    for name, sym in (("inner_num", io_fact.inner.num), ("inner_den", io_fact.inner.den), ("outer", io_fact.outer.num)):
        for k, re, im in _triples(sym):
            csv_rows.append([name, str(k), repr(re), repr(im)])
    return result, pretty, csv_rows


def _cmd_pair_from(args, cfg: RunConfig):
    vector = parse_symbol(args.f)
    kp = pair_from_function(vector)
    result = kp.to_json_dict()
    pretty = [
        f"a = ({kp.a.num.to_expression()}) / ({kp.a.den.to_expression()})",
        f"b = ({kp.b.num.to_expression()}) / ({kp.b.den.to_expression()})",
        f"annihilation residual = {kp.residual:.3e}",
        f"convention = {kp.convention}",
    ]
    csv_rows = [["part", "exponent", "re", "im"]]
    for name, sym in (("a_num", kp.a.num), ("a_den", kp.a.den), ("b_num", kp.b.num), ("b_den", kp.b.den)):
        for k, re, im in _triples(sym):
            csv_rows.append([name, str(k), repr(re), repr(im)])
    return result, pretty, csv_rows


def _cmd_coburn(args, cfg: RunConfig):
    pair = SymbolPair(parse_symbol(args.a), parse_symbol(args.b))
    band = _parse_bands(args.N)[0] if args.N else cfg.N
    _check_size(pair, [band], cfg)
    report = coburn_check(pair, band, rel_threshold=cfg.tolerances["null_threshold"])
    result = report.to_json_dict()
    pretty = [
        f"route = {report.route}",
        f"dims: kernel={report.dim_kernel} swapped={report.dim_swapped} "
        f"conjugated={report.dim_conjugated} adjoint={report.dim_adjoint}",
        f"dichotomy holds = {report.dichotomy_holds}",
        f"conjugate dims match = {report.conjugate_dims_match}",
        f"invertible cases = {list(report.invertible_cases)}",
    ]
    csv_rows = [
        ["dim_kernel", "dim_swapped", "dim_conjugated", "dim_adjoint", "dichotomy"],
        [
            str(report.dim_kernel),
            str(report.dim_swapped),
            str(report.dim_conjugated),
            str(report.dim_adjoint),
            str(report.dichotomy_holds),
        ],
    ]
    return result, pretty, csv_rows


def _cmd_suite(args, cfg: RunConfig):
    gen_cfg = GeneratorConfig(
        seed=cfg.seed,
        trials=args.trials,
        exact_tol=cfg.tolerances["exact"],
        numeric_tol=cfg.tolerances["numeric"],
        null_threshold=cfg.tolerances["null_threshold"],
    )
    if args.name == "all":
        report = run_all(gen_cfg)
        reports = report.reports
        pretty = [f"seed={gen_cfg.seed} trials={gen_cfg.trials} verdict={report.verdict}"] + [
            f"  {name:24s} {r.verdict:12s} max_residual={r.max_residual:.3e}"
            for name, r in sorted(reports.items())
        ]
    elif args.name in SUITES:
        report = SUITES[args.name](gen_cfg)
        reports = {args.name: report}
        pretty = [
            f"suite {args.name}: verdict={report.verdict} trials={report.trials_run} "
            f"violations={len(report.violations)} max_residual={report.max_residual:.3e}"
        ]
    else:
        raise SymbolParseError(f"unknown suite {args.name!r}", 0)
    csv_rows = [["suite", "verdict", "trials", "violations", "ambiguities", "max_residual"]]
    for name, r in sorted(reports.items()):
        counts = (r.trials_run, len(r.violations), len(r.ambiguities))
        csv_rows.append([name, r.verdict, *map(str, counts), repr(r.max_residual)])
    return report.to_json_dict(include_runtime=False), pretty, csv_rows, report.exit_code


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to a JSON run-config file")
    common.add_argument("--out", help="write the report to this path instead of stdout")
    common.add_argument("--format", choices=_FORMATS, help="output format")
    common.add_argument("--seed", type=int, help="random seed for suites")
    common.add_argument("--N", help="band (single integer, or comma list for `norm`)")
    common.add_argument("--grid", type=int, help="evaluation grid points")

    parser = argparse.ArgumentParser(
        prog="pairedops",
        description="Paired operators a*P+ + b*P- on the Fourier basis of the circle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("apply", parents=[common], help="apply a paired operator to a vector")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--f", required=True)
    p.add_argument("--sigma", action="store_true", help="apply the transposed operator instead")
    p.set_defaults(handler=_cmd_apply)

    p = sub.add_parser("norm", parents=[common], help="finite-section norms with bounds")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(handler=_cmd_norm)

    p = sub.add_parser(
        "kernel", parents=[common], help="kernel basis: closed form on Fredholm pairs, band-limited otherwise"
    )
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--project", action="store_true", help="include Riesz projections of the basis")
    p.set_defaults(handler=_cmd_kernel)

    p = sub.add_parser("factor", parents=[common], help="inner-outer factorization")
    p.add_argument("--p", required=True)
    p.set_defaults(handler=_cmd_factor)

    p = sub.add_parser("pair-from", parents=[common], help="the paired kernel containing a function")
    p.add_argument("--f", required=True)
    p.set_defaults(handler=_cmd_pair_from)

    p = sub.add_parser("coburn", parents=[common], help="kernel dichotomy report")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(handler=_cmd_coburn)

    p = sub.add_parser("suite", parents=[common], help="run a verification suite")
    p.add_argument("name", help="suite name or 'all'")
    p.add_argument("--trials", type=int, default=50)
    p.set_defaults(handler=_cmd_suite)
    return parser


_PARSER = _build_parser()


def _emit(payload: str, cfg: RunConfig) -> None:
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as handle:
            handle.write(payload)
    else:
        sys.stdout.write(payload)


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        cfg = _load_config(args)
        outcome = args.handler(args, cfg)
    except (SymbolParseError, DegeneratePairError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (AmbiguousKernelError, ConditioningError) as err:
        print(f"ambiguous: {err}", file=sys.stderr)
        return 2
    except ArithmeticError as err:
        # overflow or a failed self-check: exit 1 stays reserved for suite violations
        print(f"error: {err}", file=sys.stderr)
        return 2
    if len(outcome) == 4:
        result, pretty, csv_rows, exit_code = outcome
    else:
        result, pretty, csv_rows = outcome
        exit_code = 0

    if cfg.format == "json":
        envelope = {"command": args.command, "config": cfg.to_json_dict(), "result": result}
        payload = json.dumps(envelope, sort_keys=True, indent=2) + "\n"
    elif cfg.format == "csv":
        buffer = io.StringIO()
        for row in csv_rows:
            buffer.write(",".join(row) + "\n")
        payload = buffer.getvalue()
    else:
        payload = "\n".join(pretty) + ("\n" if pretty else "")
    _emit(payload, cfg)
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
