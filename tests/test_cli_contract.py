"""The CLI's contract as a whole: every output byte for a fixed matrix of
invocations, the exit codes 0, 2 and 3 for arbitrary arguments, and the
real entry point in a fresh interpreter."""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

import stormerkit
from stormerkit import pidigits
from stormerkit.cli import cli
from stormerkit.gregory import GregoryCombo

_SRC = Path(__file__).resolve().parents[1] / "src"

_FORMATS = ("text", "json", "csv")

# Each command with a success, a usage error and a domain error, run in every format.
_PER_FORMAT = [
    ["stormer", "check", "15"],
    ["stormer", "check", "3"],
    ["stormer", "check", "1", "--convention", "inclusive"],
    ["stormer", "check", "abc"],
    ["stormer", "check", "0"],
    ["stormer", "list", "--limit", "30"],
    ["stormer", "list", "--limit", "30", "--convention", "strict"],
    ["stormer", "list", "--limit", "0"],
    ["stormer", "list", "--limit", "x"],
    ["stormer", "list", "--limit", str(2**32)],
    ["stormer", "of-prime", "13"],
    ["stormer", "of-prime", "xyz"],
    ["stormer", "of-prime", "7"],
    ["stormer", "of-prime", "21"],
    ["twosquares", "13"],
    ["twosquares", "1000000009"],
    ["twosquares", "xyz"],
    ["twosquares", "7"],
    ["twosquares", "21"],
    ["density", "--limits", "100,1000"],
    ["density", "--limits", "100,100", "--measure", "large-factor"],
    ["density", "--limits", "100", "--measure", "strict"],
    ["density", "--limits", "10,5"],
    ["density", "--limits", "a,b"],
    ["density", "--limits", "100", "--measure", "bogus"],
    ["gregory", "decompose", "70"],
    ["gregory", "decompose", "1"],
    ["gregory", "decompose", "239"],
    ["gregory", "decompose", "x"],
    ["gregory", "decompose", "0"],
    ["gregory", "verify", "t1 = 4*t5 - t239"],
    ["gregory", "verify", "t1 = 4*t5 + t239"],
    ["gregory", "verify", "t1 = 5*t7 + 2*t79/3"],
    ["gregory", "verify", "nonsense"],
    ["gregory", "verify", "t0 = t1"],
    ["gregory", "verify", "10000*t1 = 40000*t5 - 10000*t239"],
    ["gregory", "verify", "10000*t1 = 40000*t5 - 10000*t238"],
    ["pi", "--digits", "30"],
    ["pi", "--formula", "stormer1896", "--digits", "60"],
    ["pi", "--formula", "t1 = 4*t5 - t239", "--digits", "30"],
    ["pi", "--formula", "machin", "--digits", "140", "--max-terms", "100"],
    ["pi", "--formula", "vega", "--digits", "20", "--max-terms", "1"],
    ["pi", "--formula", "euler", "--digits", "20", "--max-terms", "3"],
    ["pi", "--digits", "20", "--max-terms", "0"],
    ["pi", "--formula", "gibberish", "--digits", "20"],
    ["pi", "--digits", "x"],
    ["pi", "--digits", "0"],
    ["pi", "--formula", "t1 = 4*t5 + t239", "--digits", "20"],
    ["pi", "--formula", "t5 = t5", "--digits", "20"],
    ["pi", "--formula", "t1 = t1/2 - t3", "--digits", "5"],
    ["pi", "--formula", "t1 = t1", "--digits", "5"],
]

_HELP = [
    [*command, "--help"]
    for command in (
        [], ["stormer"], ["stormer", "check"], ["stormer", "list"], ["stormer", "of-prime"], ["twosquares"],
        ["density"], ["gregory"], ["gregory", "decompose"], ["gregory", "verify"], ["pi"],
    )
]

_MATRIX = [[*args, "--format", fmt] for args in _PER_FORMAT for fmt in _FORMATS] + _HELP + [
    ["stormer", "of-prime", "13", "--format", "yaml"],
    ["stormer"],
    ["nosuchcommand"],
]

# sha256 of the canonical JSON of [args, exit code, stdout, stderr] over
# _MATRIX, frozen before the commands shared one runner.  Since then only the
# three `stormer list --limit 4294967296` records changed: their progress line
# no longer comes before the error line.
_GOLDEN_DIGEST = "e5cad1317e2fb04c97d3831e95962448961a4779d1231217f5425db9387a5f8b"


def _record(args: list[str]) -> list:
    result = CliRunner().invoke(cli, args, terminal_width=80)
    return [args, result.exit_code, result.stdout, result.stderr]


def test_cli_matrix_matches_the_golden_digest() -> None:
    records = [_record(args) for args in _MATRIX]
    canonical = json.dumps(records, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(canonical.encode()).hexdigest() == _GOLDEN_DIGEST


def _assert_contract(args: list[str]) -> None:
    result = CliRunner().invoke(cli, args)
    assert result.exit_code in (0, 2, 3), (args, result.exception)
    assert result.exception is None or isinstance(result.exception, SystemExit), args
    if result.exit_code == 3:
        assert result.stdout == ""
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (args, result.stderr)


_COMMANDS = [["stormer", "check"], ["stormer", "of-prime"], ["twosquares"], ["gregory", "decompose"]]


@settings(max_examples=150, deadline=None)
@given(command=st.sampled_from(_COMMANDS), n=st.integers(-20, 10**6), fmt=st.sampled_from(_FORMATS))
def test_integer_commands_exit_0_2_or_3(command: list[str], n: int, fmt: str) -> None:
    _assert_contract([*command, str(n), "--format", fmt])


@settings(max_examples=150, deadline=None)
@given(
    formula=st.sampled_from(["machin", "vega", "t1 = t1"]),
    digits=st.integers(1, 40),
    max_terms=st.integers(1, 60),
    fmt=st.sampled_from(_FORMATS),
)
@example(formula="t1 = t1", digits=5, max_terms=2, fmt="text")
@example(formula="t1 = t1", digits=40, max_terms=6, fmt="json")
def test_pi_exits_0_2_or_3(formula: str, digits: int, max_terms: int, fmt: str) -> None:
    _assert_contract(["pi", "--formula", formula, "--digits", str(digits), "--max-terms", str(max_terms),
                      "--format", fmt])


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("cap", ["2", "4"])
def test_capped_pi_that_is_not_pi_is_a_domain_error(cap: str, fmt: str) -> None:
    # 4 * (1 - 1/3) = 2.67 and 4 * (1 - 1/3 + 1/5 - 1/7) = 2.90 do not start with "3."
    result = CliRunner().invoke(cli, ["pi", "--formula", "t1 = t1", "--digits", "5", "--max-terms", cap,
                                      "--format", fmt])
    assert result.exit_code == 3
    assert result.stdout == ""
    assert result.stderr.startswith("error: ") and f"capped at {cap} terms" in result.stderr


def test_compute_pi_capped_below_pi_raises_value_error() -> None:
    formula = GregoryCombo.of_integers({1: 1})  # t1 = t1
    with pytest.raises(ValueError, match="capped at 2 terms"):
        pidigits.compute_pi(formula, 5, max_terms=2)


def test_domain_error_outside_standalone_mode_is_system_exit_3() -> None:
    # Callers that run the group with standalone_mode=False still see exit 3.
    with pytest.raises(SystemExit) as caught:
        cli.main(["stormer", "of-prime", "7"], prog_name="stormerkit", standalone_mode=False)
    assert caught.value.code == 3


@pytest.mark.parametrize("arg, code, stdout", [("13", 0, "S(13) = 5\n"), ("xyz", 2, ""), ("7", 3, "")])
def test_module_entry_point(arg: str, code: int, stdout: str) -> None:
    env = {**os.environ, "PYTHONPATH": str(_SRC)}
    done = subprocess.run([sys.executable, "-m", "stormerkit.cli", "stormer", "of-prime", arg],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == code
    assert done.stdout == stdout
    if code == 3:
        assert done.stderr.startswith("error: ") and len(done.stderr.splitlines()) == 1


def test_pi_digits_under_the_smallest_int_str_limit() -> None:
    # 640 is the smallest nonzero PYTHONINTMAXSTRDIGITS the interpreter
    # accepts; the digits must not depend on it.
    runs = []
    for limit in (None, "640"):
        env = {**os.environ, "PYTHONPATH": str(_SRC)}
        env.pop("PYTHONINTMAXSTRDIGITS", None)
        if limit:
            env["PYTHONINTMAXSTRDIGITS"] = limit
        runs.append(subprocess.run([sys.executable, "-m", "stormerkit.cli", "pi", "--digits", "2000"],
                                   capture_output=True, text=True, env=env, timeout=60))
    default, limited = runs
    assert default.returncode == 0 and len(default.stdout) > 2000
    assert limited.returncode == 0, limited.stderr
    assert limited.stdout == default.stdout


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("k", [2000, 10**6])
def test_gregory_verify_prints_the_same_whatever_the_int_str_limit(k: int, fmt: str) -> None:
    # The certificate is printed as its powers past 4300 digits, CPython's
    # default limit, also where PYTHONINTMAXSTRDIGITS lifts the limit (0) or
    # raises it: a lifted limit must neither print the number nor build it.
    identity = f"{k}*t1 = {4 * k}*t5 - {k}*t239"
    outputs = set()
    for limit in (None, "0", "4300", "100000"):
        env = {**os.environ, "PYTHONPATH": str(_SRC)}
        env.pop("PYTHONINTMAXSTRDIGITS", None)
        if limit:
            env["PYTHONINTMAXSTRDIGITS"] = limit
        done = subprocess.run([sys.executable, "-m", "stormerkit.cli", "gregory", "verify", identity, "--format", fmt],
                              capture_output=True, text=True, env=env, timeout=5)
        assert done.returncode == 0, (limit, done.stderr)
        outputs.add(done.stdout)
    assert len(outputs) == 1
    assert "^" in outputs.pop() or fmt == "json"


# Inputs the library refuses, large enough that the command would announce
# its work on stderr: the refusal must come first and alone.
_REFUSED_BEFORE_PROGRESS = [
    ["pi", "--formula", "t1 = t1", "--digits", "2000"],
    ["pi", "--formula", "t1 = t1/2 - t3", "--digits", "2000"],
    ["stormer", "list", "--limit", str(2**32)],
    ["density", "--limits", str(2**32)],
    # Refused only after its capped series are summed, so it announces nothing.
    ["pi", "--formula", "t1 = t1", "--digits", "2000", "--max-terms", "2"],
]


@pytest.mark.parametrize("fmt", _FORMATS)
@pytest.mark.parametrize("args", _REFUSED_BEFORE_PROGRESS)
def test_domain_error_is_the_only_stderr_line(args: list[str], fmt: str) -> None:
    result = CliRunner().invoke(cli, [*args, "--format", fmt])
    assert result.exit_code == 3
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), result.stderr


# --- pi --formula "t1 = R" holds only if R is t1 itself -----------------------

_FALSE_IDENTITIES = [
    ["--formula", "t1 = 8*t5 - 2*t239", "--digits", "20"],  # 2*t1
    ["--formula", "t1 = t1 + t2 + t3", "--digits", "10", "--max-terms", "40"],  # 2*t1
]


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("args", _FALSE_IDENTITIES)
def test_pi_refuses_an_identity_whose_right_side_is_a_larger_multiple_of_t1(args: list[str], fmt: str) -> None:
    result = CliRunner().invoke(cli, ["pi", *args, "--format", fmt])
    assert result.exit_code == 3
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "does not hold" in lines[0]
    assert "2*t1" in lines[0]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_pi_accepts_an_identity_that_holds(fmt: str) -> None:
    result = CliRunner().invoke(cli, ["pi", "--formula", "t1 = 4*t5 - t239", "--digits", "20", "--format", fmt])
    assert result.exit_code == 0
    assert "3.14159265358979323846" in result.stdout


# Combos with known multiples of t1, so that R = k*t1 comes up for many k.
_KNOWN_T1 = [
    GregoryCombo.of_integers({1: 1}),
    GregoryCombo.of_integers({2: 1, 3: 1}),
    pidigits.FORMULAS["machin"],
    pidigits.FORMULAS["vega"],
    pidigits.FORMULAS["euler"],
]


@settings(max_examples=120, deadline=None)
@given(
    multiples=st.lists(st.tuples(st.sampled_from(_KNOWN_T1), st.integers(-2, 3)), min_size=1, max_size=3),
    extra=st.just({}) | st.dictionaries(st.integers(1, 12), st.integers(-2, 2), max_size=2),
    fmt=st.sampled_from(["text", "json"]),
)
@example(multiples=[(pidigits.FORMULAS["machin"], 2)], extra={}, fmt="text")
@example(multiples=[(GregoryCombo.of_integers({2: 1, 3: 1}), 1)], extra={1: 1}, fmt="json")
@example(multiples=[(pidigits.FORMULAS["machin"], 2)], extra={1: -1}, fmt="text")
@example(multiples=[(pidigits.FORMULAS["vega"], 1)], extra={}, fmt="json")
def test_pi_prints_digits_only_from_an_identity_that_verifies(
    multiples: list[tuple[GregoryCombo, int]], extra: dict[int, int], fmt: str
) -> None:
    rhs = GregoryCombo.of_integers(extra)
    for combo, k in multiples:
        rhs = rhs + combo * k
    if not rhs:
        return
    identity = f"t1 = {rhs}"
    args = ["pi", "--formula", identity, "--digits", "10", "--max-terms", "60", "--format", fmt]
    _assert_contract(args)
    if CliRunner().invoke(cli, args).exit_code == 0:
        verify = CliRunner().invoke(cli, ["gregory", "verify", identity])
        assert verify.exit_code == 0
        assert verify.stdout.startswith("true "), (identity, verify.stdout)


# --- the version, from a source tree --------------------------------------------

def test_version_runs_from_a_source_tree() -> None:
    env = {**os.environ, "PYTHONPATH": str(_SRC)}
    done = subprocess.run([sys.executable, "-m", "stormerkit.cli", "--version"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "0.1.0" in done.stdout


def test_pyproject_version_is_the_package_version() -> None:
    pyproject = (_SRC.parent / "pyproject.toml").read_text()
    project = pyproject.split("[project]", 1)[1].split("\n[", 1)[0]
    match = re.search(r'^version\s*=\s*"([^"]+)"', project, re.MULTILINE)
    assert match is not None
    assert match.group(1) == stormerkit.__version__
