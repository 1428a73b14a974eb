"""stormerkit: Stormer numbers and their applications.

Characterization and enumeration of Stormer numbers, explicit two-squares
decompositions of primes p == 1 (mod 4) via continuants, natural-density
experiments, reduction of Gregory numbers arctan(1/n) to a Stormer-number
basis through Gaussian-integer arithmetic, and arbitrary-precision
evaluation of the resulting Machin-like formulas for pi.

The namespace is lazy (PEP 562): ``import stormerkit`` loads no submodule,
and a public name or a submodule name imports its module on first access.
So each CLI command, which imports what it runs, loads only those modules.
"""

import importlib

__version__ = "0.1.0"

# Each submodule and the public names the package takes from it.
_EXPORTS = {
    "arith": (
        "GaussianInt", "PrimeFactorization", "extended_gcd", "factorize", "gaussian_factorize", "is_prime",
        "largest_prime_factor",
    ),
    "stormer": (
        "Convention", "StormerPair", "StormerVerdict", "check_factor_residues", "enumerate_stormer", "is_stormer",
        "prime_stormer_table", "stormer_of_prime",
    ),
    "twosquares": ("TwoSquares", "continuant", "euclid_quotients", "two_squares"),
    "density": (
        "DensityReport", "count_large_factor", "count_stormer", "density_sweep", "heuristic_probability",
        "mertens_gap",
    ),
    "gregory": (
        "ArcTerm", "FlattenResult", "GregoryCombo", "LehmerExpansion", "decompose", "flatten", "is_irreducible",
        "lehmer_expand", "occurs_among_earlier", "parse_identity", "verify_identity",
    ),
    "pidigits": (
        "FORMULAS", "FixedPoint", "PiResult", "classical_bounds_check", "compare_digits", "compute_pi",
        "gregory_series",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)
# Bound in the package since the first release, though never in __all__.
_OWNER["sqrt_minus_one_mod_p"] = "arith"


def __getattr__(name: str):
    """Import the submodule ``name``, or the one that owns the public
    ``name``, and bind the result in the package so later lookups skip this."""
    module = _OWNER.get(name, name if name in _EXPORTS else None)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f".{module}", __name__)
    if name != module:
        value = globals()[name] = getattr(value, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
