from __future__ import annotations

import json
import sys
import time

import pytest
from click.testing import CliRunner

from stormerkit import gregory, pidigits
from stormerkit.arith import GaussianInt
from stormerkit.cli import cli


def run(*args: str):
    return CliRunner().invoke(cli, args)


def test_stormer_of_prime_text() -> None:
    result = run("stormer", "of-prime", "13")
    assert result.exit_code == 0
    assert result.output.strip() == "S(13) = 5"


def test_stormer_of_prime_domain_error() -> None:
    assert run("stormer", "of-prime", "7").exit_code == 3
    assert run("stormer", "of-prime", "21").exit_code == 3


def test_stormer_of_prime_usage_error() -> None:
    assert run("stormer", "of-prime", "xyz").exit_code == 2


def test_stormer_check_text_and_json() -> None:
    result = run("stormer", "check", "3")
    assert result.exit_code == 0
    assert "not a Stormer number" in result.output
    assert "5" in result.output

    result = run("stormer", "check", "15", "--format", "json")
    payload = json.loads(result.output)
    assert payload == {
        "convention": "strict",
        "is_stormer": True,
        "largest_prime_factor": 113,
        "witness_prime": 113,
        "x0": 15,
    }


def test_stormer_check_convention_flag() -> None:
    strict = json.loads(run("stormer", "check", "1", "--format", "json").output)
    assert strict["is_stormer"] is False
    inclusive = json.loads(
        run("stormer", "check", "1", "--convention", "inclusive", "--format", "json").output
    )
    assert inclusive["is_stormer"] is True


def test_stormer_list() -> None:
    result = run("stormer", "list", "--limit", "16")
    assert result.output.strip() == "1 2 4 5 6 9 10 11 12 14 15 16"
    result = run("stormer", "list", "--limit", "1", "--convention", "strict")
    assert result.output.strip() == ""
    payload = json.loads(run("stormer", "list", "--limit", "16", "--format", "json").output)
    assert payload["values"] == [1, 2, 4, 5, 6, 9, 10, 11, 12, 14, 15, 16]


def test_twosquares_command() -> None:
    result = run("twosquares", "13")
    assert result.exit_code == 0
    assert "13 = 3^2 + 2^2" in result.output
    assert "[2,1,1,2]" in result.output

    payload = json.loads(run("twosquares", "5", "--format", "json").output)
    assert payload == {"a": 2, "b": 1, "p": 5, "palindrome": [2, 2], "x0": 2}

    assert run("twosquares", "7").exit_code == 3


def test_density_default_and_measures() -> None:
    result = run("density", "--limits", "100,1000")
    lines = result.output.strip().splitlines()
    assert lines[0] == "limit,count,ratio,ln2_gap"
    assert lines[1].startswith("100,70,")
    assert lines[2].startswith("1000,720,")

    result = run("density", "--limits", "100", "--measure", "large-factor")
    assert result.output.strip().splitlines()[1].startswith("100,86,0.86")

    result = run("density", "--limits", "1000", "--measure", "strict")
    assert result.output.strip().splitlines()[1].startswith("1000,719,0.719")


def test_density_json() -> None:
    payload = json.loads(run("density", "--limits", "100,200", "--format", "json").output)
    assert payload["measure"] == "inclusive"
    assert [row["limit"] for row in payload["rows"]] == [100, 200]
    assert payload["rows"][0]["count"] == 70


def test_density_usage_errors() -> None:
    assert run("density", "--limits", "").exit_code == 2
    assert run("density", "--limits", "10,5").exit_code == 2
    assert run("density", "--limits", "a,b").exit_code == 2


def test_gregory_decompose() -> None:
    result = run("gregory", "decompose", "70")
    assert result.output.strip() == "t70 = -t2 + 2*t5 + t12"
    payload = json.loads(run("gregory", "decompose", "70", "--format", "json").output)
    assert payload["n"] == 70
    assert {"re": 5, "im": 1, "coef": 2} in payload["terms"]
    assert run("gregory", "decompose", "0").exit_code == 3


def test_gregory_verify() -> None:
    result = run("gregory", "verify", "t1 = 4*t5 - t239")
    assert result.output.startswith("true")
    assert "certificate" in result.output

    result = run("gregory", "verify", "t1 = 4*t5 + t239")
    assert result.output.startswith("false")

    assert run("gregory", "verify", "nonsense").exit_code == 2


# The JSON `gregory verify` printed for three classic identities and a false one before the
# certificate was built on plain ints in dict order.
_VERIFY_GOLDEN = {
    "t1 = 4*t5 - t239": '{"certificate": {"im": 0, "re": 228488}, "identity": "t1 = 4*t5 - t239", "valid": true}',
    "t1 = 5*t7 + 2*t79/3": (
        '{"certificate": {"im": 0, "re": 156250000}, "identity": "t1 = 5*t7 + 2*t79/3", "valid": true}'
    ),
    "t1 = 44*t57 + 7*t239 - 12*t682 + 24*t12943": (
        '{"certificate": {"im": 0, "re": 5688762645913292991824270173697799706556486555046675730094059800255326381'
        "2399506744146742516941719209806270712130484019211154622382038165493584882474037422994683765864465385675430"
        '297851562500000000000000000000000000000000000000}, "identity": "t1 = 44*t57 + 7*t239 - 12*t682 + 24*t12943",'
        ' "valid": true}'
    ),
    "t1 = 4*t5 - t238": '{"certificate": {"im": 4, "re": 227532}, "identity": "t1 = 4*t5 - t238", "valid": false}',
}


@pytest.mark.parametrize("identity", sorted(_VERIFY_GOLDEN))
def test_gregory_verify_certificate_is_unchanged(identity: str) -> None:
    result = run("gregory", "verify", identity, "--format", "json")
    assert result.exit_code == 0
    assert result.output == _VERIFY_GOLDEN[identity] + "\n"


@pytest.mark.parametrize("identity", sorted(_VERIFY_GOLDEN))
def test_certificate_powers_multiply_to_the_printed_certificate(identity: str) -> None:
    # Above the print limit the certificate is printed as these powers.
    lhs, rhs = gregory.parse_identity(identity)
    product = GaussianInt(1, 0)
    for a, b, e in gregory._powers(lhs - rhs):
        product = product * GaussianInt(a, b) ** e
    printed = json.loads(_VERIFY_GOLDEN[identity])["certificate"]
    assert {"re": product.re, "im": product.im} == printed


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("identity, verdict, last", [
    ("10000*t1 = 40000*t5 - 10000*t239", "true", 239),
    ("10000*t1 = 40000*t5 - 10000*t238", "false", 238),
])
def test_gregory_verify_above_the_print_limit_prints_the_powers(
    identity: str, verdict: str, last: int, fmt: str
) -> None:
    # The certificate has over 4300 digits, more than str() will print, so
    # it is printed as the product of the powers of lhs - rhs.
    result = run("gregory", "verify", identity, "--format", fmt)
    assert result.exit_code == 0
    assert result.stderr == ""
    if fmt == "json":
        assert json.loads(result.stdout) == {
            "identity": identity,
            "valid": verdict == "true",
            "certificate": {"powers": [[1, 1, 10000], [5, -1, 40000], [last, 1, 10000]]},
        }
    else:
        assert result.stdout == f"{verdict}   certificate: (1+i)^10000 * (5-i)^40000 * ({last}+i)^10000\n"


@pytest.mark.parametrize("k", [10**6, 10**30])
def test_gregory_verify_cost_does_not_grow_with_the_coefficients(k: int) -> None:
    # The verdict compares Stormer-basis vectors, and a certificate past the
    # print limit is never multiplied out.
    identity = f"{k}*t1 = {4 * k}*t5 - {k}*t239"
    start = time.perf_counter()
    result = run("gregory", "verify", identity)
    assert time.perf_counter() - start < 1
    assert result.exit_code == 0
    assert result.stdout == f"true   certificate: (1+i)^{k} * (5-i)^{4 * k} * (239+i)^{k}\n"


def _verify_by_the_old_rule(identity: str, valid: bool, fmt: str) -> str:
    """gregory verify's output when the certificate is always built, and its
    powers printed only if str() refuses it."""
    lhs, rhs = gregory.parse_identity(identity)
    certificate = gregory.identity_certificate(lhs, rhs)
    try:
        shown = str(certificate)
        printed = {"re": certificate.re, "im": certificate.im}
    except ValueError:
        powers = gregory._powers(lhs - rhs)
        shown = " * ".join(f"({GaussianInt(a, b)})^{e}" for a, b, e in powers)
        printed = {"powers": powers}
    if fmt == "json":
        return json.dumps({"identity": identity, "valid": valid, "certificate": printed}, sort_keys=True) + "\n"
    return f"{str(valid).lower()}   certificate: {shown}\n"


# For k*t1 = 4k*t5 - k*t239 (and t238) the certificate passes `limit` digits
# near k = limit/5.36, and its norm passes 2**(7*limit), where the product is
# no longer built, at k = 7*limit/32.
@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("limit, ks", [
    (4300, [1, 798, 799, 800, 801, 802, 803, 804, 805, 940, 941, 942, 2000]),
    (640, [1, 117, 118, 119, 120, 121, 122, 139, 140, 141, 500]),
])
def test_gregory_verify_prints_as_the_old_rule_across_the_print_limit(limit: int, ks: list[int], fmt: str) -> None:
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        forms = set()
        for k in ks:
            for last, valid in ((239, True), (238, False)):
                identity = f"{k}*t1 = {4 * k}*t5 - {k}*t{last}"
                result = run("gregory", "verify", identity, "--format", fmt)
                assert result.exit_code == 0
                assert result.stdout == _verify_by_the_old_rule(identity, valid, fmt), (k, last)
                forms.add("^" in result.stdout or "powers" in result.stdout)
    finally:
        sys.set_int_max_str_digits(saved)
    assert forms == {True, False}


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_gregory_verify_prints_as_at_4300_under_a_lifted_or_higher_limit(fmt: str) -> None:
    # Near k = 802 the certificate passes 4300 digits, and near k = 941 its
    # norm passes 2**(7*4300): between the two it is built, and printed as
    # its powers whatever the interpreter's limit.
    ks = [1, 801, 802, 803, 850, 940, 941, 2000]
    saved = sys.get_int_max_str_digits()
    outputs = {}
    try:
        for limit in (4300, 0, 100000):
            sys.set_int_max_str_digits(limit)
            outputs[limit] = [
                run("gregory", "verify", f"{k}*t1 = {4 * k}*t5 - {k}*t{last}", "--format", fmt).stdout
                for k in ks
                for last in (239, 238)
            ]
    finally:
        sys.set_int_max_str_digits(saved)
    assert outputs[0] == outputs[100000] == outputs[4300]
    assert len({"^" in out or "powers" in out for out in outputs[4300]}) == 2


def test_pi_command() -> None:
    result = run("pi", "--formula", "machin", "--digits", "30")
    assert result.output.strip().startswith("3.141592653589793238462643383279")

    as_string = run("pi", "--formula", "t1 = 4*t5 - t239", "--digits", "30")
    assert as_string.output == result.output

    payload = json.loads(run("pi", "--formula", "vega", "--digits", "25", "--format", "json").output)
    assert payload["digits"].startswith("3.14159265358979323846")
    assert len(payload["terms_used"]) == 2


def test_pi_max_terms_reports_tail_estimate() -> None:
    result = run("pi", "--formula", "machin", "--digits", "140", "--max-terms", "100")
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[0].startswith("3.14159265358979")
    assert "correct digits" in lines[1]
    assert int(lines[1].rsplit(" ", 1)[1]) >= 140


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_pi_max_terms_below_one_is_a_usage_error(cap: str) -> None:
    result = run("pi", "--digits", "20", "--max-terms", cap)
    assert result.exit_code == 2
    assert "--max-terms" in result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_pi_max_terms_evaluates_each_series_once(fmt: str, monkeypatch: pytest.MonkeyPatch) -> None:
    # The digits and the tail estimate come from one evaluation: one
    # arctan series per term of the formula, not two.
    calls = []
    real = pidigits._arctan

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(pidigits, "_arctan", counting)
    pidigits._pi.cache_clear()
    result = run("pi", "--formula", "stormer1896", "--digits", "300", "--max-terms", "1000", "--format", fmt)
    assert result.exit_code == 0
    assert len(calls) == len(pidigits.FORMULAS["stormer1896"])


def test_pi_formula_reads_its_vector_once(monkeypatch: pytest.MonkeyPatch) -> None:
    # The CLI checks the formula before its progress line, and compute_pi
    # reads that verdict rather than the vector a second time.
    calls = []
    real = gregory._combo_vector

    def counting(combo):
        calls.append(combo)
        return real(combo)

    monkeypatch.setattr(gregory, "_combo_vector", counting)
    pidigits._pi.cache_clear()
    pidigits._checked_multiple.cache_clear()
    result = run("pi", "--digits", "20", "--formula", "t1 = 4*t5 - t239")
    assert result.exit_code == 0
    assert result.output.strip() == "3.14159265358979323846"
    assert len(calls) == 1


def test_pi_rejects_unverified_formula() -> None:
    assert run("pi", "--formula", "t1 = 4*t5 + t239", "--digits", "20").exit_code == 3
    assert run("pi", "--formula", "t5 = t5", "--digits", "20").exit_code == 3
    assert run("pi", "--formula", "gibberish", "--digits", "20").exit_code == 2


def test_pi_rejects_series_argument_above_one() -> None:
    # t1 = t_{1/2} - t3 holds (arctan 2 - arctan 1/3 = pi/4), but the series
    # for arctan 2 diverges: a domain error, not a run without end
    result = run("pi", "--formula", "t1 = t1/2 - t3", "--digits", "5")
    assert result.exit_code == 3
    assert "not below one" in result.output


def test_outputs_are_deterministic() -> None:
    first = run("gregory", "decompose", "239").output
    second = run("gregory", "decompose", "239").output
    assert first == second
    assert run("pi", "--digits", "200").output == run("pi", "--digits", "200").output


def test_out_option_writes_file(tmp_path) -> None:
    target = tmp_path / "digits.txt"
    result = CliRunner().invoke(cli, ["pi", "--digits", "15", "--out", str(target)])
    assert result.exit_code == 0
    assert target.read_text().strip().startswith("3.14159265358979")


def test_convention_choices_are_the_convention_values() -> None:
    # cli.py spells the choices out so that loading it imports no library module.
    from stormerkit.stormer import Convention

    stormer_group = cli.commands["stormer"]
    for command in ("check", "list"):
        (option,) = [p for p in stormer_group.commands[command].params if p.name == "convention"]
        assert list(option.type.choices) == [c.value for c in Convention]
