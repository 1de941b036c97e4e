"""Workload generators and the closed-loop op executor.

Each workload turns a seed into a list of ops up front.  The library sees
only the generated inputs, through its public entry points: ``cli.main``
in-process for ``norm``, ``kernel`` and ``coburn``, and ``SUITES[name]`` for
the suites.  Both are looked up on their modules at call time, so the
tracer in ``tracer.py`` can wrap them from outside.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from pairedops import cli, properties
from pairedops.properties import GeneratorConfig

import oracles

WORKLOADS = ("suites", "sections", "kernels")

# Ops generated per run, for every workload.  A run cycles through them
# until its deadline; today a run uses under half of them.
POOL_SIZE = 2048

SUITE_TRIALS = 1
SECTION_BANDS = (32, 256)
SECTION_DEGREES = (1, 4)
KERNEL_BANDS = (16, 96)
KERNEL_MIX = ("kernel", "kernel", "kernel", "coburn")
INSIDE_MODULI = (0.1, 0.75)
OUTSIDE_MODULI = (1.33, 4.0)


@dataclass(frozen=True)
class Op:
    index: int
    kind: str  # "suite", "norm", "kernel" or "coburn"
    N: int = 0  # band; 0 for suites
    argv: tuple = ()
    suite: str = ""
    seed: int = 0
    expect: dict = field(default_factory=dict, compare=False)


@dataclass
class Outcome:
    seconds: float  # wall time of the library call alone
    cpu_seconds: float  # process CPU time of the library call alone
    answered: bool
    failed: bool
    digest: str
    answer: dict | None = None
    output_bytes: int = 0
    band_escalations: int = 0
    ambiguities: int = 0
    error: str = ""


def _expression(coeffs: np.ndarray, kmin: int) -> str:
    return " + ".join(
        f"({float(c.real)!r}+{float(c.imag)!r}*i)*z^{kmin + k}" for k, c in enumerate(coeffs)
    )


def _argv(command: str, a: str, b: str, band: int) -> tuple:
    return (command, "--a", a, "--b", b, "--N", str(band), "--format", "json")


def _suite_ops(rng: np.random.Generator, count: int) -> list[Op]:
    names = sorted(properties.SUITES)
    return [
        Op(i, "suite", suite=names[i % len(names)], seed=int(rng.integers(0, 2**63)))
        for i in range(count)
    ]


def _sizes(rng: np.random.Generator, lo: int, hi: int, count: int) -> np.ndarray:
    """Bands uniform on [lo, hi]: a seeded shuffle of the whole range, repeated.

    Each op's band is uniform, and every stretch of hi - lo + 1 ops holds
    each band once, so runs of different seeds do the same amount of work.
    """
    sweeps = max(1, -(-count // (hi - lo + 1)))
    return np.concatenate([rng.permutation(np.arange(lo, hi + 1)) for _ in range(sweeps)])[:count]


def _general_symbol(rng: np.random.Generator) -> tuple[np.ndarray, int]:
    d = int(rng.integers(SECTION_DEGREES[0], SECTION_DEGREES[1] + 1))
    coeffs = (rng.standard_normal(2 * d + 1) + 1j * rng.standard_normal(2 * d + 1)) / math.sqrt(2.0)
    return coeffs, -d


def _section_op(index: int, a, b, band: int) -> Op:
    (ac, ak), (bc, bk) = a, b
    return Op(
        index,
        "norm",
        N=band,
        argv=_argv("norm", _expression(ac, ak), _expression(bc, bk), band),
        expect={"a": ac, "a_kmin": ak, "b": bc, "b_kmin": bk, "N": band},
    )


def _section_ops(rng: np.random.Generator, count: int) -> list[Op]:
    bands = _sizes(rng, *SECTION_BANDS, count)
    return [_section_op(i, _general_symbol(rng), _general_symbol(rng), int(bands[i])) for i in range(count)]


def _rooted_symbol(rng: np.random.Generator) -> tuple[str, int]:
    """c * z^shift * prod(z - r) with every |r| kept off the circle.

    One to three roots, each inside the disk with probability 1/2, and a
    shift uniform on -2..2.  Returns the expression and its winding number,
    known by construction.
    """
    count = int(rng.integers(1, 4))
    inside = rng.random(count) < 0.5
    lo = np.where(inside, INSIDE_MODULI[0], OUTSIDE_MODULI[0])
    hi = np.where(inside, INSIDE_MODULI[1], OUTSIDE_MODULI[1])
    roots = rng.uniform(lo, hi) * np.exp(2j * np.pi * rng.random(count))
    shift = int(rng.integers(-2, 3))
    lead = rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.random())
    coeffs = lead * np.poly(roots)[::-1]
    return _expression(coeffs, shift), oracles.winding_number(shift, roots)


def _kernel_op(index: int, command: str, a, b, band: int) -> Op:
    (a_expr, wind_a), (b_expr, wind_b) = a, b
    dims = oracles.expected_kernel_dims(wind_a, wind_b)
    expect = dims if command == "coburn" else {"kernel": dims["kernel"]}
    return Op(index, command, N=band, argv=_argv(command, a_expr, b_expr, band), expect=expect)


def _kernel_ops(rng: np.random.Generator, count: int) -> list[Op]:
    commands = [KERNEL_MIX[i % len(KERNEL_MIX)] for i in range(count)]
    # each command sweeps the bands on its own: coburn ops make the tail
    bands = {c: iter(_sizes(rng, *KERNEL_BANDS, commands.count(c))) for c in sorted(set(KERNEL_MIX))}
    return [
        _kernel_op(i, c, _rooted_symbol(rng), _rooted_symbol(rng), int(next(bands[c])))
        for i, c in enumerate(commands)
    ]


def generate(workload: str, seed: int, count: int = POOL_SIZE) -> list[Op]:
    """The op pool for one run: the same seed always gives the same ops."""
    rng = np.random.default_rng(seed)
    if workload == "suites":
        # one suite per op, as run_all calls it: the only path through `properties`, exact Python arithmetic
        return _suite_ops(rng, count)
    if workload == "sections":
        # `norm`: isolates section build in `operators` plus values-only LAPACK SVD; no kernel code
        return _section_ops(rng, count)
    # `kernel`/`coburn`: isolates `kernels` (exact action matrix, full SVD, certification), checked by index
    return _kernel_ops(rng, count)


def warmup_ops(workload: str) -> list[Op]:
    """One smallest op per command, fixed inputs, run once during set-up."""
    if workload == "suites":
        return [Op(i, "suite", suite=name, seed=0) for i, name in enumerate(sorted(properties.SUITES))]
    one = np.array([1.0 + 0j])
    if workload == "sections":
        return [_section_op(0, (one, 0), (one * 2, 0), SECTION_BANDS[0])]
    a = (_expression(np.array([-0.5, 1.0 + 0j]), 0), 1)
    b = (_expression(one * 2, 0), 0)
    return [_kernel_op(0, "kernel", a, b, KERNEL_BANDS[0]), _kernel_op(1, "coburn", a, b, KERNEL_BANDS[0])]


def _cli_answer(kind: str, result: dict) -> dict:
    if kind == "norm":
        row = result["rows"][0]
        return {"sigma_max": row["sigma_max"], "sqrt2M": row["bounds"]["sqrt2M"], "sumAB": row["bounds"]["sumAB"]}
    if kind == "kernel":
        return {"kernel": result["dim"]}
    return dict(result["dims"])


def execute(op: Op) -> Outcome:
    """Run one op through the library's public entry point and capture its output.

    The clocks cover the library call only; the digest, the JSON parsing
    and the answer extraction that follow are the benchmark's own work.
    An op is answered when it returns a result; the library's documented
    refusals (exit code 2 with ``ambiguous:``, or suite verdict
    ``ambiguous``) are unanswered.  Anything else unexpected is a failed op.
    """
    start, cpu_start = time.perf_counter(), time.process_time()
    try:
        if op.kind == "suite":
            raw = properties.SUITES[op.suite](GeneratorConfig(seed=op.seed, trials=SUITE_TRIALS))
        else:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(op.argv))
            raw = (code, out.getvalue(), err.getvalue())
    except Exception as exc:  # the op boundary: record and keep the loop running
        raw = exc
    clocks = (time.perf_counter() - start, time.process_time() - cpu_start)
    if isinstance(raw, Exception):
        return Outcome(*clocks, False, True, "", error=f"{type(raw).__name__}: {raw}")
    if op.kind == "suite":
        payload = json.dumps(raw.to_json_dict(include_runtime=False), sort_keys=True)
        return Outcome(
            *clocks,
            answered=raw.verdict != "ambiguous",
            failed=False,
            digest=oracles.digest(payload),
            answer={"verdict": raw.verdict},
            output_bytes=len(payload),
            band_escalations=int(raw.stats.get("band_escalations", 0)),
            ambiguities=len(raw.ambiguities),
        )
    code, payload, errors = raw
    digest = oracles.digest(f"{code}\n{payload}{errors}")
    if code == 2 and errors.startswith("ambiguous:"):
        return Outcome(*clocks, False, False, digest, output_bytes=len(payload))
    if code != 0:
        return Outcome(*clocks, False, True, digest, error=errors.strip())
    answer = _cli_answer(op.kind, json.loads(payload)["result"])
    return Outcome(*clocks, True, False, digest, answer=answer, output_bytes=len(payload))


@functools.lru_cache(maxsize=None)
def _sigma_reference(op: Op) -> float:
    """The oracle's sigma_max for one norm op, computed once per op of the pool."""
    e = op.expect
    return oracles.sigma_max(e["a"], e["a_kmin"], e["b"], e["b_kmin"], e["N"])


def check(op: Op, outcome: Outcome) -> tuple[bool, bool]:
    """(correct, hard_error) for one op; unanswered and failed ops are not correct."""
    if not outcome.answered:
        return False, False
    if op.kind == "suite":
        # a "fail" verdict is the suite reporting a violation it found on this
        # seed: it counts against the correct ratio, and the op record keeps
        # the suite and seed so it can be replayed
        return outcome.answer["verdict"] == "pass", False
    if op.kind == "norm":
        return oracles.check_norm(outcome.answer, _sigma_reference(op))
    return oracles.check_dims(outcome.answer, op.expect)
