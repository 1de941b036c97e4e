"""CLI tests: commands, formats, exit codes, config handling."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pairedops
from pairedops import kernels, properties
from pairedops.cli import RunConfig, main


def run_cli(capsys, *argv: str):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# apply
# ---------------------------------------------------------------------------


def test_apply_pinned_constant_two(capsys):
    code, out, _ = run_cli(capsys, "apply", "--a", "1", "--b", "z", "--f", "1+z^-1")
    assert code == 0
    assert out.strip() == "(0, 2, 0)"


def test_apply_kernel_element_is_empty(capsys):
    code, out, _ = run_cli(capsys, "apply", "--a", "z^-1", "--b", "z", "--f", "1 - z^-2")
    assert code == 0
    assert out.strip() == ""


def test_apply_identity(capsys):
    code, out, _ = run_cli(capsys, "apply", "--a", "1", "--b", "1", "--f", "z")
    assert code == 0
    assert out.strip() == "(1, 1, 0)"


def test_apply_sigma_flag(capsys):
    code, out, _ = run_cli(capsys, "apply", "--a", "z^-1", "--b", "1", "--f", "1", "--sigma")
    assert code == 0
    assert out.strip() == ""


def test_apply_parse_error_exit_2(capsys):
    code, _, err = run_cli(capsys, "apply", "--a", "1/z", "--b", "z", "--f", "1")
    assert code == 2
    assert "error" in err


# ---------------------------------------------------------------------------
# norm
# ---------------------------------------------------------------------------


def test_norm_table_and_bounds(capsys):
    code, out, _ = run_cli(capsys, "norm", "--a", "1", "--b", "z", "--N", "8", "--format", "json")
    assert code == 0
    report = json.loads(out)
    row = report["result"]["rows"][0]
    assert row["N"] == 8
    assert abs(row["sigma_max"] - math.sqrt(2)) <= 1e-9
    assert abs(row["bounds"]["M"] - 1.0) <= 1e-12
    assert abs(row["bounds"]["sqrt2M"] - math.sqrt(2)) <= 1e-12
    assert abs(row["bounds"]["sumAB"] - 2.0) <= 1e-12


def test_norm_monotone_rows(capsys):
    code, out, _ = run_cli(
        capsys, "norm", "--a", "1+z", "--b", "z^-2", "--N", "8,16,32", "--format", "json"
    )
    assert code == 0
    rows = json.loads(out)["result"]["rows"]
    values = [r["sigma_max"] for r in rows]
    assert values == sorted(values)


# ---------------------------------------------------------------------------
# kernel
# ---------------------------------------------------------------------------


def test_kernel_dimensions(capsys):
    code, out, _ = run_cli(capsys, "kernel", "--a", "z^-1", "--b", "z", "--N", "8", "--format", "json")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["route"] == "index" and result["dim"] == 2
    assert (result["wind_a"], result["wind_b"]) == (-1, 1) and "singular_values" not in result

    # b vanishes at 1: not Fredholm, so the band-limited route answers
    code, out, _ = run_cli(capsys, "kernel", "--a", "1", "--b", "1-z", "--N", "16", "--format", "json")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["route"] == "band-limited" and result["dim"] == 0 and result["expected_dim"] is None

    # band 8 fell short of the index here (dim 0); the closed form does not depend on N
    answers = []
    for band in ("8", "64"):
        code, out, _ = run_cli(capsys, "kernel", "--a", "1", "--b", "z - 0.3", "--N", band, "--format", "json")
        assert code == 0
        answers.append(json.loads(out)["result"])
    assert answers[0]["route"] == "index" and answers[0]["dim"] == 1
    assert {**answers[0], "N": 64} == answers[1]


def test_kernel_project_flag(capsys):
    code, out, _ = run_cli(
        capsys, "kernel", "--a", "z^-1", "--b", "1", "--N", "6", "--project", "--format", "json"
    )
    assert code == 0
    result = json.loads(out)["result"]
    assert result["route"] == "index" and result["dim"] == 1
    # the index route's basis is given by its Riesz parts: f = 1 - z^-1
    assert result["plus"] == [result["basis"][0]["plus"]] and result["minus"] == [result["basis"][0]["minus"]]
    one = {"coeffs": [[0, 1.0, 0.0]]}
    assert result["plus"][0] == {"num": one, "den": one}
    assert result["minus"][0] == {"num": {"coeffs": [[-1, -1.0, 0.0]]}, "den": one}

    # b vanishes at 1: band-limited vectors, projected coefficientwise
    code, out, _ = run_cli(
        capsys, "kernel", "--a", "z^-2", "--b", "1 - z", "--N", "6", "--project", "--format", "json"
    )
    assert code == 0
    result = json.loads(out)["result"]
    assert result["route"] == "band-limited" and result["dim"] == 2
    assert len(result["plus"]) == len(result["minus"]) == 2
    assert all(k >= 0 for v in result["plus"] for k, _, _ in v["coeffs"])
    assert all(k <= -1 for v in result["minus"] for k, _, _ in v["coeffs"])


def test_kernel_degenerate_exit_2(capsys):
    code, _, err = run_cli(capsys, "kernel", "--a", "1", "--b", "1", "--N", "4")
    assert code == 2
    assert "degenerate" in err


# ---------------------------------------------------------------------------
# factor / pair-from / coburn
# ---------------------------------------------------------------------------


def test_factor_exterior_root(capsys):
    code, out, _ = run_cli(capsys, "factor", "--p", "z-2", "--format", "json")
    assert code == 0
    result = json.loads(out)["result"]
    constant = complex(*result["unimodular_constant"])
    assert abs(constant + 1.0) <= 1e-12
    outer = {int(k): complex(re, im) for k, re, im in result["outer"]["num"]["coeffs"]}
    assert abs(outer[0] - 2.0) <= 1e-12 and abs(outer[1] + 1.0) <= 1e-12


def test_pair_from_residual(capsys):
    code, out, _ = run_cli(capsys, "pair-from", "--f", "1 - z^-1", "--format", "json")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["residual"] <= 1e-9
    assert result["convention"] == "generic"


def test_coburn_report(capsys):
    code, out, _ = run_cli(capsys, "coburn", "--a", "1", "--b", "z", "--N", "8", "--format", "json")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["route"] == "index"
    assert result["dims"] == {"kernel": 1, "swapped": 0, "conjugated": 0, "adjoint": 0}
    assert result["dichotomy_holds"] and "all_stabilized" not in result
    assert result["invertible_cases"] == ["a", "b"] and result["adjoint_dim_matches"]

    # b vanishes at 1: the band-limited route answers, with the same keys
    code, out, _ = run_cli(capsys, "coburn", "--a", "z^-2", "--b", "1 - z", "--N", "8", "--format", "json")
    assert code == 0
    limited = json.loads(out)["result"]
    assert limited["route"] == "band-limited" and set(limited) == set(result)
    assert limited["dims"]["kernel"] == 2 and limited["invertible_cases"] == ["a", "difference"]


@pytest.mark.parametrize("command", ["kernel", "coburn"])
def test_null_threshold_from_config_reaches_every_kernel(command, tmp_path, capsys):
    # b vanishes at 1, so the band-limited route answers: at band 6 and a
    # 1e-3 threshold a null candidate of (z^-1, (1 - z)(z - 0.3)) fails
    # certification, and both commands must refuse
    tolerances = {"exact": 1e-12, "numeric": 1e-8, "null_threshold": 1e-3}
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"tolerances": tolerances}), encoding="utf-8")
    argv = (command, "--a", "z^-1", "--b", "(1 - z)*(z - 0.3)", "--N", "6")
    code, _, err = run_cli(capsys, *argv, "--config", str(path))
    assert code == 2 and err.startswith("ambiguous:")
    # the default threshold answers the same question
    assert run_cli(capsys, *argv)[0] == 0
    # a Fredholm pair takes the index route, which has no null threshold
    fredholm = (command, "--a", "z^-1", "--b", "z - 0.3", "--N", "6", "--format", "json")
    code, out, _ = run_cli(capsys, *fredholm, "--config", str(path))
    assert code == 0
    assert json.loads(out)["result"] == json.loads(run_cli(capsys, *fredholm)[1])["result"]


def test_suite_null_threshold_from_config(tmp_path, capsys):
    # the suites' band-limited kernels run under the configured threshold: at
    # 1e-3 a band-16 adjoint sample of the coburn suite lands in the gray zone,
    # where the default 1e-8 gives certified elements for its round trips
    tolerances = {"exact": 1e-12, "numeric": 1e-8, "null_threshold": 1e-3}
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"tolerances": tolerances}), encoding="utf-8")
    argv = ("suite", "coburn", "--trials", "5", "--seed", "1", "--format", "json")
    code, out, _ = run_cli(capsys, *argv)
    default = json.loads(out)["result"]
    code_cfg, out_cfg, _ = run_cli(capsys, *argv, "--config", str(path))
    configured = json.loads(out_cfg)["result"]
    assert code == code_cfg == 0
    assert configured != default
    skipped = [report["stats"].get("element_checks_skipped", 0) for report in (default, configured)]
    assert skipped[1] > skipped[0]
    assert configured["stats"]["adjoint_round_trips"] < default["stats"]["adjoint_round_trips"]


# ---------------------------------------------------------------------------
# suite
# ---------------------------------------------------------------------------


def test_suite_single_pass(capsys):
    code, out, _ = run_cli(
        capsys, "suite", "norm_bounds", "--trials", "3", "--seed", "0", "--format", "json"
    )
    assert code == 0
    result = json.loads(out)["result"]
    assert result["verdict"] == "pass"
    assert "runtime" not in result


def test_suite_all_deterministic_output(capsys):
    args = ("suite", "all", "--trials", "2", "--seed", "0", "--format", "json")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_suite_exit_code_follows_violations(capsys, monkeypatch):
    # exit 1 exactly when the report holds violations: a negative rounding
    # tolerance makes the pinned norm checks fail by construction
    argv = ("suite", "norm_bounds", "--seed", "0", "--trials", "1", "--format", "json")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and not json.loads(out)["result"]["violations"]
    monkeypatch.setattr(properties, "_ROUNDING_TOL", -1.0)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 1 and json.loads(out)["result"]["violations"]


def test_suite_unknown_name_exit_2(capsys):
    code, _, err = run_cli(capsys, "suite", "nonsense", "--trials", "1")
    assert code == 2


def test_suite_csv_format(capsys):
    code, out, _ = run_cli(capsys, "suite", "commutant", "--trials", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split(",")[0] == "suite"
    assert lines[1].split(",")[1] == "pass"


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------


def test_runconfig_round_trip():
    cfg = RunConfig(N=17, grid_points=512, seed=9, out="x.json", format="csv")
    assert RunConfig.from_json_dict(cfg.to_json_dict()) == cfg


def test_runconfig_validation():
    with pytest.raises(ValueError):
        RunConfig(N=0)
    with pytest.raises(ValueError):
        RunConfig(format="yaml")
    with pytest.raises(ValueError):
        RunConfig(tolerances={"exact": 1e-12})
    with pytest.raises(ValueError):
        RunConfig.from_json_dict({"bogus": 1})


@pytest.mark.parametrize(
    "config, message",
    [
        ({"N": "5"}, "N must be an integer"),
        ({"seed": 1.5}, "seed must be an integer"),
        ({"grid_points": True}, "grid_points must be an integer"),
        ({"out": 1}, "out must be a path"),
        ({"tolerances": {"exact": "1e-12", "numeric": 1e-8, "null_threshold": 1e-8}}, "tolerance 'exact'"),
        ({"tolerances": {"exact": 1e-12, "numeric": math.nan, "null_threshold": 1e-8}}, "tolerance 'numeric'"),
        (
            {"tolerances": {"exact": 1e-12, "numeric": 1e-8, "null_threshold": 1e-8, "nul_threshold": 1e-3}},
            "unknown tolerance keys: ['nul_threshold']",
        ),
        ([], "must be a JSON object"),
    ],
)
def test_mistyped_config_exits_2(config, message, tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    code, out, err = run_cli(capsys, "kernel", "--a", "z^-1", "--b", "z", "--config", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error:") and message in err


def test_config_file_and_flag_precedence(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(RunConfig(N=6, format="json").to_json_dict()), encoding="utf-8")
    code, out, _ = run_cli(capsys, "kernel", "--a", "z^-1", "--b", "z", "--config", str(path))
    assert code == 0
    assert json.loads(out)["result"]["N"] == 6
    # CLI flag overrides the file value
    code, out, _ = run_cli(
        capsys, "kernel", "--a", "z^-1", "--b", "z", "--config", str(path), "--N", "4"
    )
    assert json.loads(out)["result"]["N"] == 4


def test_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "apply", "--a", "1", "--b", "z", "--f", "1", "--format", "json", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    data = json.loads(target.read_text(encoding="utf-8"))
    assert data["command"] == "apply"
    assert data["config"]["out"] == str(target)


def test_json_embeds_config(capsys):
    code, out, _ = run_cli(capsys, "apply", "--a", "1", "--b", "1", "--f", "z", "--format", "json")
    data = json.loads(out)
    assert set(data) == {"command", "config", "result"}
    assert data["config"]["N"] == 32


_OVERSIZED = [
    ["kernel", "--a", "1", "--b", "z", "--N", "40000"],
    ["coburn", "--a", "1", "--b", "z", "--N", "40000"],
    ["norm", "--a", "1", "--b", "z", "--N", "8,40000"],
    ["norm", "--a", "1", "--b", "z", "--N", "8", "--grid", "1000000000"],
    ["kernel", "--a", "1 + z^12000", "--b", "z", "--N", "8"],
    ["apply", "--a", "1 + z^400000000", "--b", "1", "--f", "1 + z"],
]
_UNDER_TWO_GIB = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from pairedops.cli import main
raise SystemExit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("argv", _OVERSIZED, ids=lambda argv: " ".join(argv[::2]))
def test_oversized_input_exits_2_before_allocating(argv):
    # under a 2 GiB address-space limit a missing check fails fast instead of exhausting memory
    env = dict(os.environ, PYTHONPATH=str(Path(pairedops.__file__).parents[1]), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", _UNDER_TWO_GIB, *argv], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error:") and "above the cap of 268435456" in proc.stderr
    assert proc.stdout == ""


_EXTREME = [
    ["norm", "--a", "1e308*z+1e308", "--b", "1e308", "--N", "8"],
    ["norm", "--a", "1e-320*z+1e-320", "--b", "1e-320", "--N", "8"],
    ["pair-from", "--f", "z^-1+1e308*z"],
    ["pair-from", "--f", "z^-1+1e-320*z"],
    ["factor", "--p", "1e308*z+1e308"],
]


@pytest.mark.parametrize("argv", _EXTREME, ids=" ".join)
def test_extreme_coefficients_exit_0_or_2_without_a_traceback(argv):
    # exit 1 is reserved for suite violations; overflow and failed self-checks are input errors
    env = dict(os.environ, PYTHONPATH=str(Path(pairedops.__file__).parents[1]), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pairedops", *argv], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode in (0, 2), proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [["factor", "--p", "1e-320*z+1e-320"], ["kernel", "--a", "1e-320*z+1e-320", "--b", "1", "--N", "8"]],
    ids=" ".join,
)
def test_subnormal_coefficients_solve_quietly(argv):
    # a = (z + 1) * 1e-320: its one root, -1, lies on the circle
    env = dict(os.environ, PYTHONPATH=str(Path(pairedops.__file__).parents[1]), OPENBLAS_NUM_THREADS="1")
    command = [sys.executable, "-m", "pairedops", *argv, "--format", "json"]
    proc = subprocess.run(command, capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr
    result = json.loads(proc.stdout)["result"]
    if argv[0] == "factor":
        assert result["circle_roots"] == [[-1.0, 0.0]]
    else:
        # not invertible on the circle, so no index and the band-limited route
        assert result["route"] == "band-limited" and result["expected_dim"] is None


def test_apply_cap_spares_single_term_factors(capsys):
    # a one-term factor multiplies sparsely: the 400000001-wide symbol needs no dense array
    for extra in ([], ["--sigma"]):
        code, out, _ = run_cli(capsys, "apply", "--a", "1 + z^400000000", "--b", "1", "--f", "1", *extra)
        assert code == 0
        assert out.splitlines() == ["(0, 1, 0)", "(400000000, 1, 0)"]


def test_size_cap_admits_the_largest_benchmark_section(capsys):
    a = "0.5*z^-4 + z^-1 + 1 + 0.25*z^4"
    code, out, _ = run_cli(capsys, "norm", "--a", a, "--b", "z^3", "--N", "256", "--format", "json")
    assert code == 0
    assert json.loads(out)["result"]["rows"][0]["N"] == 256


def test_python_dash_m_runs_quietly():
    env = dict(os.environ, PYTHONPATH=str(Path(pairedops.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "pairedops", "norm", "--a", "1", "--b", "z", "--N", "4", "--format", "json"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["command"] == "norm"


def _fresh_process_stdout(argv: list[str], **env_vars: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(Path(pairedops.__file__).parents[1]), **env_vars)
    proc = subprocess.run(
        [sys.executable, "-m", "pairedops", *argv], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0
    return proc.stdout


def test_consecutive_main_calls_share_no_state(capsys):
    kernel = ["kernel", "--a", "z^-1", "--b", "1", "--N", "6", "--format", "json"]
    norm = ["norm", "--a", "1+z", "--b", "z^-2", "--format", "json"]
    sequence = [kernel + ["--project"], kernel, norm[:-2] + ["--N", "8,16"] + norm[-2:], norm]
    outputs = []
    for argv in sequence:
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        outputs.append(out)
    assert "plus" in json.loads(outputs[0])["result"]
    assert not {"plus", "minus"} & set(json.loads(outputs[1])["result"])
    assert [r["N"] for r in json.loads(outputs[2])["result"]["rows"]] == [8, 16]
    assert [r["N"] for r in json.loads(outputs[3])["result"]["rows"]] == [8, 16, 32, 64]
    assert json.loads(outputs[0])["result"]["route"] == json.loads(outputs[1])["result"]["route"] == "index"
    for argv, out in zip(sequence, outputs):
        assert out == _fresh_process_stdout(argv)


def test_norm_json_is_repeatable_in_and_across_processes(capsys):
    argv = ["norm", "--a", "1 + 0.3*z - 2*z^-2 + 0.5i*z^4", "--b", "z^-1 - 0.7*z^3",
            "--N", "8,16,32,64,128,256", "--format", "json"]
    code, first, _ = run_cli(capsys, *argv)
    assert code == 0
    assert run_cli(capsys, *argv)[1] == first
    assert _fresh_process_stdout(argv) == first


@pytest.mark.parametrize("command", ["kernel", "coburn"])
def test_kernel_json_is_repeatable_in_and_across_processes(capsys, command):
    # b = z^2 - 0.25*z takes the index route; (z - 1)(z - 0.25) vanishes at 1, the band-limited one
    for b, route in (("z^2 - 0.25*z", "index"), ("(z - 1)*(z - 0.25)", "band-limited")):
        argv = [command, "--a", "1 - 0.2*z + 0.1*z^-1", "--b", b, "--N", "24", "--format", "json"]
        code, first, _ = run_cli(capsys, *argv)
        assert code == 0 and json.loads(first)["result"]["route"] == route
        assert run_cli(capsys, *argv)[1] == first
        assert _fresh_process_stdout(argv) == first


@pytest.mark.parametrize("command, solves", [("kernel", 2), ("coburn", 3)])
def test_fredholm_pair_takes_one_root_solve_per_symbol(capsys, monkeypatch, command, solves):
    # a and b for both commands, plus a - b for coburn's invertible cases
    calls = []
    solve = kernels.poly_roots

    def counting(p, *args, **kwargs):
        calls.append(p)
        return solve(p, *args, **kwargs)

    monkeypatch.setattr(kernels, "poly_roots", counting)
    argv = [command, "--a", "1 - 0.2*z + 0.1*z^-1", "--b", "z^2 - 0.25*z", "--N", "24", "--format", "json"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and json.loads(out)["result"]["route"] == "index"
    assert len(calls) == solves


def test_suite_json_is_identical_across_hash_seeds():
    # stream keys must not depend on Python's per-process string hashing
    argv = ["suite", "all", "--trials", "2", "--seed", "0", "--format", "json"]
    first = _fresh_process_stdout(argv, PYTHONHASHSEED="1")
    assert json.loads(first)["result"]["passed"]
    assert _fresh_process_stdout(argv, PYTHONHASHSEED="2") == first
