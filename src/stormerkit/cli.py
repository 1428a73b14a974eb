"""Command-line interface.

Every command supports ``--format`` where meaningful (text, json, csv) and
``--out`` to write to a file instead of stdout.  Exit codes: 0 on success,
2 on usage or parse errors, 3 on domain errors.  A domain error is any
``ValueError`` the library raises (e.g. for a prime that is 3 mod 4 where 1
mod 4 is required): it is shown as one ``error:`` line on stderr, with
nothing on stdout.  Long-running commands report progress on stderr only,
keeping stdout machine-clean, and only after the library check that owns
each input has accepted it, so a refused input leaves only its ``error:``
line; ``pi --max-terms``, whose value is checked only once summed, reports
none.  Bulk enumeration runs in one process, as one sieve of x^2 + 1 by the
roots +-S(p) that takes a block of x at a time.  ``stormer list`` streams:
its values are rendered a few thousand at a time as the sieve finds them,
so neither the values nor their strings are all held at once, and the
bytes are the same as those of the whole list rendered in one piece.

Loading this module imports only click and the standard library.  Each
command body imports the library modules it runs, so ``density`` never loads
``gregory`` or ``pidigits``, and ``--help`` and ``--version`` load none.

Each command body calls the library and returns its JSON payload and a text
renderer, plus a csv renderer where the command has one; :func:`_formatted`
renders only the chosen format, and :func:`_write` is the one place any
output is written.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
from itertools import chain, islice
from typing import Callable, Iterable, Iterator

import click

from . import __version__

_FORMAT = click.option(
    "--format", "fmt", type=click.Choice(["text", "json", "csv"]), default="text", show_default=True
)
_OUT = click.option("--out", type=click.Path(writable=True), default=None, help="Write output to a file.")
_CONVENTION = click.option(
    "--convention",
    type=click.Choice(["strict", "inclusive"]),
    default=None,
    help="Stormer-number convention (default: strict for checks, inclusive for lists).",
)


def _formatted(body: Callable[..., tuple]) -> Callable[..., None]:
    """Add ``--format`` and ``--out`` to a command body.

    The body returns ``(payload, text)`` or ``(payload, text, csv)``, where
    text and csv are renderers taking no arguments; csv falls back to text.
    payload is the JSON payload, or a renderer of its ``json.dumps``.  A
    renderer returns one str or an iterable of str chunks.  Only the chosen
    format is rendered, and :func:`_write` sends it to stdout or the file.
    """

    @functools.wraps(body)
    def command(fmt: str, out: str | None, **kwargs) -> None:
        payload, text, *csv = body(**kwargs)
        if fmt == "json":
            rendered = payload() if callable(payload) else json.dumps(payload, sort_keys=True)
        elif fmt == "csv" and csv:
            rendered = csv[0]()
        else:
            rendered = text()
        _write([rendered] if isinstance(rendered, str) else rendered, out)

    return _FORMAT(_OUT(command))


def _write(chunks: Iterable[str], out: str | None) -> None:
    """The one place a command's output is written: the chunks in turn and
    a newline, to the file ``out`` or, without one, to stdout."""
    with open(out, "w") if out else contextlib.nullcontext() as fh:
        for chunk in chunks:
            click.echo(chunk, file=fh, nl=False)
        click.echo(file=fh)


# Values rendered at a time by _joined.
_CHUNK = 4096


def _joined(values: Iterator, sep: str) -> Iterator[str]:
    """``sep.join(map(str, values))`` in chunks of _CHUNK values, so that the
    values and their strings are never all held at once."""
    lead = ""
    while chunk := sep.join(map(str, islice(values, _CHUNK))):
        yield lead + chunk
        lead = sep


class _Group(click.Group):
    """The top-level group: the one place a library ValueError becomes a
    domain error, one ``error:`` line on stderr and exit 3."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except ValueError as exc:
            click.echo(f"error: {exc}", err=True)
            # SystemExit rather than ctx.exit: main(standalone_mode=False)
            # would return ctx.exit's code instead of raising it.
            sys.exit(3)


@click.group(cls=_Group)
@click.version_option(__version__)
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
@_formatted
def stormer_check(n: int, convention: str | None) -> tuple:
    """Decide whether N is a Stormer number."""
    from dataclasses import asdict

    from . import stormer

    conv = stormer.Convention(convention or "strict")
    verdict = stormer.is_stormer(n, conv)
    payload = {**asdict(verdict), "convention": verdict.convention.value}

    def text() -> str:
        bound = stormer._threshold(n, conv)
        if verdict.is_stormer:
            return (
                f"{n} is a Stormer number: largest prime factor of {n}^2+1 is "
                f"{verdict.largest_prime_factor} >= {bound} (witness prime {verdict.witness_prime})"
            )
        return (
            f"{n} is not a Stormer number: largest prime factor of {n}^2+1 is "
            f"{verdict.largest_prime_factor} < {bound}"
        )

    return payload, text


@stormer_group.command("list")
@click.option("--limit", type=int, required=True)
@_CONVENTION
@_formatted
def stormer_list(limit: int, convention: str | None) -> tuple:
    """List all Stormer numbers up to --limit."""
    from . import stormer

    conv = stormer.Convention(convention or "inclusive")
    stormer._check_table_limit(limit)
    if limit >= 10**5:
        click.echo(f"enumerating Stormer numbers up to {limit}...", err=True)
    # Each renderer streams the values from a sieve of its own: only the
    # chosen one runs, and it holds one block and one chunk at a time.
    values = functools.partial(stormer._stormer_numbers, limit, conv)
    head, tail = json.dumps({"limit": limit, "convention": conv.value, "values": []}, sort_keys=True).split("[]")
    return (
        lambda: chain([head, "["], _joined(values(), ", "), ["]", tail]),
        lambda: _joined(values(), " "),
        lambda: _joined(chain(["x0"], values()), "\n"),
    )


@stormer_group.command("of-prime")
@click.argument("p", type=int)
@_formatted
def stormer_of_prime(p: int) -> tuple:
    """Print S(P) for a prime P congruent to 1 mod 4."""
    from dataclasses import asdict

    from . import stormer

    pair = stormer.stormer_of_prime(p)
    return asdict(pair), lambda: f"S({pair.p}) = {pair.x0}"


# --- twosquares ---------------------------------------------------------------

@cli.command("twosquares")
@click.argument("p", type=int)
@_formatted
def twosquares_cmd(p: int) -> tuple:
    """Decompose a prime P == 1 (mod 4) as a sum of two squares."""
    from dataclasses import asdict

    from . import twosquares

    result = twosquares.two_squares(p)
    payload = asdict(result)

    def text() -> str:
        palindrome = ",".join(str(q) for q in result.palindrome)
        return f"{result.p} = {result.a}^2 + {result.b}^2   palindrome [{palindrome}]   x0 = {result.x0}"

    return payload, text


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
@_formatted
def density_cmd(limits: str, measure: str) -> tuple:
    """Count toward the conjectured natural density ln 2."""
    from . import density, stormer

    try:
        parsed = [int(part) for part in limits.split(",") if part.strip()]
    except ValueError:
        raise click.UsageError(f"--limits must be a comma-separated list of integers, got {limits!r}")
    if not parsed or any(n <= 0 for n in parsed) or parsed != sorted(parsed):
        raise click.UsageError("--limits must be positive and ascending")
    stormer._check_table_limit(parsed[-1])
    if parsed[-1] >= 10**5:
        click.echo(f"counting up to {parsed[-1]}...", err=True)
    rows = density.density_sweep(parsed, measure)
    payload = {
        "measure": measure,
        "rows": [{"limit": r.limit, "count": r.count, "ratio": r.ratio, "ln2_gap": r.ln2_gap} for r in rows],
    }

    def text() -> str:
        lines = ["limit,count,ratio,ln2_gap"]
        lines += [f"{r.limit},{r.count},{r.ratio!r},{r.ln2_gap!r}" for r in rows]
        return "\n".join(lines)

    return payload, text


# --- gregory ------------------------------------------------------------------

@cli.group("gregory")
def gregory_group() -> None:
    """Stormer-basis decompositions and identity verification."""


@gregory_group.command("decompose")
@click.argument("n", type=int)
@_formatted
def gregory_decompose(n: int) -> tuple:
    """Express tN = arctan(1/N) over the Stormer basis."""
    from . import gregory

    combo = gregory.decompose(n)
    return {**combo.to_json(), "n": n}, lambda: f"t{n} = {combo}"


# A certificate part of more digits than CPython's default int print limit
# is printed as its powers, whatever PYTHONINTMAXSTRDIGITS says.
_PRINT_DIGITS = 4300


@gregory_group.command("verify")
@click.argument("identity")
@_formatted
def gregory_verify(identity: str) -> tuple:
    """Verify an identity such as "t1 = 4*t5 - t239"."""
    from . import gregory
    from .arith import GaussianInt

    try:
        lhs, rhs = gregory.parse_identity(identity)
    except gregory.IdentityParseError as exc:
        raise click.UsageError(str(exc))
    valid = gregory.verify_identity(lhs, rhs)
    powers = gregory._powers(lhs - rhs)
    try:
        # A product of norm 2**bits has max(|re|, |im|) >= 2**((bits - 1)/2),
        # which is >= 10**_PRINT_DIGITS once bits > 7*_PRINT_DIGITS, so it is
        # not built.
        if sum(e * ((a * a + b * b).bit_length() - 1) for a, b, e in powers) > 7 * _PRINT_DIGITS:
            raise ValueError
        certificate = gregory.identity_certificate(lhs, rhs)
        if max(abs(certificate.re), abs(certificate.im)) >= 10**_PRINT_DIGITS:
            raise ValueError
        shown = str(certificate)
        printed = {"re": certificate.re, "im": certificate.im}
    except ValueError:
        # Too long to print, or longer than a lower limit of the interpreter,
        # which str() and json enforce: print the certificate as the product
        # of its term powers instead.
        shown = " * ".join(f"({GaussianInt(a, b)})^{e}" for a, b, e in powers)
        printed = {"powers": powers}
    payload = {"identity": identity, "valid": valid, "certificate": printed}
    return payload, lambda: f"{str(valid).lower()}   certificate: {shown}"


# --- pi -----------------------------------------------------------------------

@cli.command("pi")
@click.option("--formula", default="machin", show_default=True, help="A named formula or an identity string.")
@click.option("--digits", type=int, required=True)
@click.option(
    "--max-terms", type=click.IntRange(min=1), default=None, help="Cap each term's series at this many terms."
)
@_formatted
def pi_cmd(formula: str, digits: int, max_terms: int | None) -> tuple:
    """Compute pi digits from a verified Machin-like formula."""
    from . import gregory, pidigits

    name = formula.strip().lower()
    if name in pidigits.FORMULAS:
        combo = pidigits.FORMULAS[name]
    else:
        try:
            lhs, rhs = gregory.parse_identity(formula)
        except gregory.IdentityParseError as exc:
            raise click.UsageError(str(exc))
        if lhs != gregory.GregoryCombo.of_integers({1: 1}):
            raise ValueError(f"formula must have t1 alone on the left: {formula!r}")
        combo = rhs
    k = pidigits._checked_multiple(combo, digits, max_terms)
    if k != 1:
        raise ValueError(f"identity {formula!r} does not hold: its right side equals {k}*t1")
    if digits >= 2000 and max_terms is None:
        click.echo(f"computing {digits} digits...", err=True)
    result = pidigits.compute_pi(combo, digits, max_terms)
    payload = {"digits": result.digits, "formula": result.formula.to_json(), "terms_used": list(result.terms_used)}
    tail = ""
    if max_terms is not None:
        payload["correct_digits_estimate"] = estimate = pidigits.tail_correct_digits(combo, digits, max_terms)
        tail = f"\ncorrect digits from the tail bound: >= {estimate}"
    return payload, lambda: result.digits + tail


def main() -> None:
    cli()


if __name__ == "__main__":
    main()
