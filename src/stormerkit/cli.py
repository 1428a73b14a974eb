"""Command-line interface.

Every command supports ``--format`` where meaningful (text, json, csv) and
``--out`` to write to a file instead of stdout.  Exit codes: 0 on success,
2 on usage or parse errors, 3 on domain errors (e.g. a prime that is 3 mod
4 where 1 mod 4 is required).  Long-running commands report progress on
stderr only, keeping stdout machine-clean.  Bulk enumeration runs in one
process, as one sieve of x^2 + 1 by the roots +-S(p).
"""

from __future__ import annotations

import json
import sys

import click

from . import density as density_mod
from . import gregory as gregory_mod
from . import pidigits, stormer, twosquares
from .arith import GaussianInt
from .gregory import GregoryCombo, IdentityParseError
from .stormer import Convention

_FORMAT = click.option(
    "--format", "fmt", type=click.Choice(["text", "json", "csv"]), default="text", show_default=True
)
_OUT = click.option("--out", type=click.Path(writable=True), default=None, help="Write output to a file.")
_CONVENTION = click.option(
    "--convention",
    type=click.Choice([c.value for c in Convention]),
    default=None,
    help="Stormer-number convention (default: strict for checks, inclusive for lists).",
)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        click.echo(text)


def _domain_error(exc: Exception) -> None:
    click.echo(f"error: {exc}", err=True)
    sys.exit(3)


def _as_json(payload) -> str:
    return json.dumps(payload, sort_keys=True)


@click.group()
@click.version_option(package_name="stormerkit")
def cli() -> None:
    """Stormer numbers, two-squares decompositions, arctangent identities,
    and arbitrary-precision pi."""


# --- stormer ----------------------------------------------------------------

@cli.group("stormer")
def stormer_group() -> None:
    """Test, enumerate, and map Stormer numbers."""


@stormer_group.command("check")
@click.argument("n", type=int)
@_CONVENTION
@_FORMAT
@_OUT
def stormer_check(n: int, convention: str | None, fmt: str, out: str | None) -> None:
    """Decide whether N is a Stormer number."""
    conv = Convention(convention) if convention else Convention.STRICT
    try:
        verdict = stormer.is_stormer(n, conv)
    except ValueError as exc:
        _domain_error(exc)
    if fmt == "json":
        _emit(
            _as_json(
                {
                    "x0": verdict.x0,
                    "is_stormer": verdict.is_stormer,
                    "witness_prime": verdict.witness_prime,
                    "largest_prime_factor": verdict.largest_prime_factor,
                    "convention": verdict.convention.value,
                }
            ),
            out,
        )
        return
    bound = stormer._threshold(n, conv)
    if verdict.is_stormer:
        _emit(
            f"{n} is a Stormer number: largest prime factor of {n}^2+1 is "
            f"{verdict.largest_prime_factor} >= {bound} (witness prime {verdict.witness_prime})",
            out,
        )
    else:
        _emit(
            f"{n} is not a Stormer number: largest prime factor of {n}^2+1 is "
            f"{verdict.largest_prime_factor} < {bound}",
            out,
        )


@stormer_group.command("list")
@click.option("--limit", type=int, required=True)
@_CONVENTION
@_FORMAT
@_OUT
def stormer_list(limit: int, convention: str | None, fmt: str, out: str | None) -> None:
    """List all Stormer numbers up to --limit."""
    conv = Convention(convention) if convention else Convention.INCLUSIVE
    try:
        if limit >= 10**5:
            click.echo(f"enumerating Stormer numbers up to {limit}...", err=True)
        values = stormer.enumerate_stormer(limit, conv)
    except ValueError as exc:
        _domain_error(exc)
    if fmt == "json":
        _emit(_as_json({"limit": limit, "convention": conv.value, "values": values}), out)
    elif fmt == "csv":
        _emit("\n".join(["x0"] + [str(v) for v in values]), out)
    else:
        _emit(" ".join(str(v) for v in values), out)


@stormer_group.command("of-prime")
@click.argument("p", type=int)
@_FORMAT
@_OUT
def stormer_of_prime(p: int, fmt: str, out: str | None) -> None:
    """Print S(P) for a prime P congruent to 1 mod 4."""
    try:
        pair = stormer.stormer_of_prime(p)
    except ValueError as exc:
        _domain_error(exc)
    if fmt == "json":
        _emit(_as_json({"p": pair.p, "x0": pair.x0}), out)
    else:
        _emit(f"S({pair.p}) = {pair.x0}", out)


# --- twosquares ---------------------------------------------------------------

@cli.command("twosquares")
@click.argument("p", type=int)
@_FORMAT
@_OUT
def twosquares_cmd(p: int, fmt: str, out: str | None) -> None:
    """Decompose a prime P == 1 (mod 4) as a sum of two squares."""
    try:
        result = twosquares.two_squares(p)
    except ValueError as exc:
        _domain_error(exc)
    if fmt == "json":
        _emit(
            _as_json(
                {
                    "p": result.p,
                    "a": result.a,
                    "b": result.b,
                    "palindrome": list(result.palindrome),
                    "x0": result.x0,
                }
            ),
            out,
        )
    else:
        palindrome = ",".join(str(q) for q in result.palindrome)
        _emit(f"{result.p} = {result.a}^2 + {result.b}^2   palindrome [{palindrome}]   x0 = {result.x0}", out)


# --- density ------------------------------------------------------------------

@cli.command("density")
@click.option("--limits", required=True, help="Comma-separated ascending limits, e.g. 100,1000,10000.")
@click.option(
    "--measure",
    type=click.Choice(["inclusive", "strict", "large-factor"]),
    default="inclusive",
    show_default=True,
    help="Count Stormer numbers (by convention) or integers whose x^2+1 has a prime factor above x.",
)
@_FORMAT
@_OUT
def density_cmd(limits: str, measure: str, fmt: str, out: str | None) -> None:
    """Count toward the conjectured natural density ln 2."""
    try:
        parsed = [int(part) for part in limits.split(",") if part.strip()]
    except ValueError:
        raise click.UsageError(f"--limits must be a comma-separated list of integers, got {limits!r}")
    if not parsed or any(n <= 0 for n in parsed) or parsed != sorted(parsed):
        raise click.UsageError("--limits must be positive and ascending")
    if parsed[-1] >= 10**5:
        click.echo(f"counting up to {parsed[-1]}...", err=True)
    try:
        rows = density_mod.density_sweep(parsed, measure)
    except ValueError as exc:
        _domain_error(exc)
    if fmt == "json":
        _emit(
            _as_json(
                {
                    "measure": measure,
                    "rows": [
                        {"limit": r.limit, "count": r.count, "ratio": r.ratio, "ln2_gap": r.ln2_gap}
                        for r in rows
                    ],
                }
            ),
            out,
        )
    else:
        lines = ["limit,count,ratio,ln2_gap"]
        lines += [f"{r.limit},{r.count},{r.ratio!r},{r.ln2_gap!r}" for r in rows]
        _emit("\n".join(lines), out)


# --- gregory ------------------------------------------------------------------

@cli.group("gregory")
def gregory_group() -> None:
    """Stormer-basis decompositions and identity verification."""


@gregory_group.command("decompose")
@click.argument("n", type=int)
@_FORMAT
@_OUT
def gregory_decompose(n: int, fmt: str, out: str | None) -> None:
    """Express tN = arctan(1/N) over the Stormer basis."""
    try:
        combo = gregory_mod.decompose(n)
    except ValueError as exc:
        _domain_error(exc)
    if fmt == "json":
        payload = combo.to_json()
        payload["n"] = n
        _emit(_as_json(payload), out)
    else:
        _emit(f"t{n} = {combo}", out)


@gregory_group.command("verify")
@click.argument("identity")
@_FORMAT
@_OUT
def gregory_verify(identity: str, fmt: str, out: str | None) -> None:
    """Verify an identity such as "t1 = 4*t5 - t239"."""
    try:
        lhs, rhs = gregory_mod.parse_identity(identity)
    except IdentityParseError as exc:
        raise click.UsageError(str(exc))
    valid, certificate = gregory_mod._verdict(lhs, rhs)
    verdict = str(valid).lower()
    payload = {"identity": identity, "valid": valid, "certificate": {"re": certificate.re, "im": certificate.im}}
    try:
        text = _as_json(payload) if fmt == "json" else f"{verdict}   certificate: {certificate}"
    except ValueError:
        # str() refuses ints longer than the interpreter's limit: print the
        # certificate as the product of its term powers instead.
        powers = gregory_mod._powers(lhs - rhs)
        if fmt == "json":
            payload["certificate"] = {"powers": powers}
            text = _as_json(payload)
        else:
            product = " * ".join(f"({GaussianInt(a, b)})^{e}" for a, b, e in powers)
            text = f"{verdict}   certificate: {product}"
    _emit(text, out)


# --- pi -----------------------------------------------------------------------

@cli.command("pi")
@click.option("--formula", default="machin", show_default=True, help="A named formula or an identity string.")
@click.option("--digits", type=int, required=True)
@click.option(
    "--max-terms", type=click.IntRange(min=1), default=None, help="Cap each term's series at this many terms."
)
@_FORMAT
@_OUT
def pi_cmd(formula: str, digits: int, max_terms: int | None, fmt: str, out: str | None) -> None:
    """Compute pi digits from a verified Machin-like formula."""
    name = formula.strip().lower()
    if name in pidigits.FORMULAS:
        combo = pidigits.FORMULAS[name]
    else:
        try:
            lhs, rhs = gregory_mod.parse_identity(formula)
        except IdentityParseError as exc:
            raise click.UsageError(str(exc))
        if lhs != GregoryCombo.of_integers({1: 1}):
            _domain_error(ValueError(f"formula must have t1 alone on the left: {formula!r}"))
        combo = rhs
    if digits >= 2000:
        click.echo(f"computing {digits} digits...", err=True)
    try:
        result = pidigits.compute_pi(combo, digits, max_terms)
    except ValueError as exc:
        _domain_error(exc)
    if fmt == "json":
        payload = {
            "digits": result.digits,
            "formula": result.formula.to_json(),
            "terms_used": list(result.terms_used),
        }
        if max_terms is not None:
            payload["correct_digits_estimate"] = pidigits.tail_correct_digits(combo, digits, max_terms)
        _emit(_as_json(payload), out)
    else:
        lines = [result.digits]
        if max_terms is not None:
            est = pidigits.tail_correct_digits(combo, digits, max_terms)
            lines.append(f"correct digits from the tail bound: >= {est}")
        _emit("\n".join(lines), out)


def main() -> None:
    cli()


if __name__ == "__main__":
    main()
