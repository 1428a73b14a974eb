"""The package namespace is lazy: importing ``stormerkit`` or its CLI loads
no library module, each command loads only the modules it runs, and every
public name still resolves to the object its owning module defines.

The same holds for the standard library's rational arithmetic: ``fractions``
(which brings in ``decimal`` and ``numbers``) is imported only where a
``Fraction`` is built, so importing gregory and pidigits, and running pi with
integer terms, decompose, verify, density, stormer or twosquares, loads
neither ``fractions`` nor ``decimal``.  A rational term such as t79/3 in the
euler formula loads them on demand."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parents[1] / "src"

_LIBRARY = ("arith", "stormer", "twosquares", "density", "gregory", "pidigits")

# The public names, in order, as every release so far has listed them.
_ALL = [
    "ArcTerm", "Convention", "DensityReport", "FORMULAS", "FixedPoint", "FlattenResult", "GaussianInt",
    "GregoryCombo", "LehmerExpansion", "PiResult", "PrimeFactorization", "StormerPair", "StormerVerdict",
    "TwoSquares", "check_factor_residues", "classical_bounds_check", "compare_digits", "compute_pi", "continuant",
    "count_large_factor", "count_stormer", "decompose", "density_sweep", "enumerate_stormer", "euclid_quotients",
    "extended_gcd", "factorize", "flatten", "gaussian_factorize", "gregory_series", "heuristic_probability",
    "is_irreducible", "is_prime", "is_stormer", "largest_prime_factor", "lehmer_expand", "mertens_gap",
    "occurs_among_earlier", "parse_identity", "prime_stormer_table", "stormer_of_prime", "two_squares",
    "verify_identity",
]


def _fresh(code: str) -> object:
    """Run ``code`` in a fresh interpreter and return the JSON it prints last."""
    env = {**os.environ, "PYTHONPATH": str(_SRC)}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


_LOADED = "print(json.dumps(sorted(m for m in sys.modules if m.startswith('stormerkit.'))))"


@pytest.mark.parametrize("module", ["stormerkit", "stormerkit.cli"])
def test_import_loads_no_library_module(module: str) -> None:
    loaded = _fresh(f"import json, sys\nimport {module}\n{_LOADED}")
    assert loaded == (["stormerkit.cli"] if module == "stormerkit.cli" else [])


# Each command and the library modules it runs, with gregory's own import of
# stormer; twosquares reads S(p) from arith alone.
_COMMAND_MODULES = [
    (["density", "--limits", "100,1000"], {"arith", "stormer", "density"}),
    (["stormer", "list", "--limit", "1000", "--format", "csv"], {"arith", "stormer"}),
    (["stormer", "check", "239"], {"arith", "stormer"}),
    (["stormer", "of-prime", "13"], {"arith", "stormer"}),
    (["twosquares", "13"], {"arith", "twosquares"}),
    (["gregory", "decompose", "239"], {"arith", "stormer", "gregory"}),
    (["gregory", "verify", "t1 = 4*t5 - t239"], {"arith", "stormer", "gregory"}),
    (["pi", "--digits", "30"], {"arith", "stormer", "gregory", "pidigits"}),
    (["--version"], set()),
]


def _after_command(args: list[str], report: str) -> object:
    """Run the CLI on ``args`` in a fresh interpreter, then ``report``."""
    return _fresh(
        "import contextlib, io, json, sys\n"
        "from stormerkit.cli import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    try:\n        cli.main({args!r}, prog_name='stormerkit', standalone_mode=False)\n"
        "    except SystemExit as exc:\n        assert not exc.code\n"
        f"{report}"
    )


@pytest.mark.parametrize("args, modules", _COMMAND_MODULES, ids=[" ".join(args) for args, _ in _COMMAND_MODULES])
def test_each_command_loads_only_the_modules_it_runs(args: list[str], modules: set[str]) -> None:
    assert _after_command(args, _LOADED) == sorted(["stormerkit.cli", *(f"stormerkit.{m}" for m in modules)])


_RATIONALS = "print(json.dumps(sorted(m for m in ('fractions', 'decimal') if m in sys.modules)))"

# Commands that build no Fraction: no term of theirs is rational.
_INTEGER_COMMANDS = [
    ["pi", "--digits", "30"],
    ["pi", "--formula", "stormer1896", "--digits", "30"],
    ["gregory", "decompose", "239"],
    ["gregory", "verify", "t1 = 4*t5 - t239"],
    ["density", "--limits", "100,1000"],
    ["stormer", "list", "--limit", "1000"],
    ["twosquares", "13"],
]


@pytest.mark.parametrize("args", _INTEGER_COMMANDS, ids=[" ".join(args) for args in _INTEGER_COMMANDS])
def test_integer_commands_load_no_rational_arithmetic(args: list[str]) -> None:
    assert _after_command(args, _RATIONALS) == []


def test_importing_the_pi_modules_loads_no_rational_arithmetic() -> None:
    assert _fresh(f"import json, sys\nimport stormerkit.gregory, stormerkit.pidigits\n{_RATIONALS}") == []


def test_a_rational_term_loads_fractions_on_demand() -> None:
    # A combo orders and sums a rational term by cross products, so pi over
    # Euler's formula loads no fractions; a term's x is a Fraction, imported
    # when it is asked for.
    code = (
        "import json, sys\nfrom stormerkit.pidigits import FORMULAS, compute_pi\n"
        "digits = compute_pi(FORMULAS['euler'], 30).digits\n"
        "loaded = 'fractions' in sys.modules\n"
        "x = str(FORMULAS['euler'].items()[1][0].x)\n"
        "print(json.dumps([digits, loaded, x, 'fractions' in sys.modules]))"
    )
    assert _fresh(code) == ["3.141592653589793238462643383279", False, "79/3", True]


def test_all_is_unchanged_and_every_name_is_its_owners_object() -> None:
    # A fresh interpreter, so each lookup goes through the lazy hook before
    # anything has imported the owning module.
    code = (
        "import importlib, json, stormerkit\n"
        "names = list(stormerkit.__all__)\n"
        "found = {n: id(getattr(stormerkit, n)) for n in names}\n"
        f"mods = {{m: importlib.import_module('stormerkit.' + m) for m in {_LIBRARY!r}}}\n"
        "owners = {n: [m for m, mod in mods.items() if n in mod.__all__] for n in names}\n"
        "same = {n: len(o) == 1 and id(getattr(mods[o[0]], n)) == found[n] for n, o in owners.items()}\n"
        "print(json.dumps([names, same]))"
    )
    names, same = _fresh(code)
    assert names == _ALL
    assert [name for name, ok in same.items() if not ok] == []


def test_star_import_binds_every_public_name() -> None:
    code = (
        "import json\nns = {}\nexec('from stormerkit import *', ns)\n"
        "print(json.dumps(sorted(set(ns) - {'__builtins__'})))"
    )
    assert _fresh(code) == sorted(_ALL)


def test_submodules_resolve_as_attributes_and_by_from_import() -> None:
    code = (
        "import json, stormerkit\n"
        "from stormerkit import density\n"
        "print(json.dumps([stormerkit.gregory.__name__, density.__name__, stormerkit.density is density]))"
    )
    assert _fresh(code) == ["stormerkit.gregory", "stormerkit.density", True]


def test_dir_lists_every_public_name_and_submodule() -> None:
    import stormerkit

    listed = set(dir(stormerkit))
    assert {"__all__", "__version__", *_ALL, *_LIBRARY} <= listed


def test_unknown_attribute_raises_attribute_error() -> None:
    import stormerkit

    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        stormerkit.no_such_name  # noqa: B018
    assert not hasattr(stormerkit, "_no_such_private")
    with pytest.raises(ImportError):
        from stormerkit import no_such_name  # noqa: F401
