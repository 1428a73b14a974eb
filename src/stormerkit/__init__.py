"""stormerkit: Stormer numbers and their applications.

Characterization and enumeration of Stormer numbers, explicit two-squares
decompositions of primes p == 1 (mod 4) via continuants, natural-density
experiments, reduction of Gregory numbers arctan(1/n) to a Stormer-number
basis through Gaussian-integer arithmetic, and arbitrary-precision
evaluation of the resulting Machin-like formulas for pi.
"""

from .arith import (
    GaussianInt,
    PrimeFactorization,
    extended_gcd,
    factorize,
    gaussian_factorize,
    is_prime,
    largest_prime_factor,
    sqrt_minus_one_mod_p,
)
from .stormer import (
    Convention,
    StormerPair,
    StormerVerdict,
    check_factor_residues,
    enumerate_stormer,
    is_stormer,
    prime_stormer_table,
    stormer_of_prime,
)
from .twosquares import TwoSquares, continuant, euclid_quotients, two_squares
from .density import (
    DensityReport,
    count_large_factor,
    count_stormer,
    density_sweep,
    heuristic_probability,
    mertens_gap,
)
from .gregory import (
    ArcTerm,
    FlattenResult,
    GregoryCombo,
    LehmerExpansion,
    decompose,
    flatten,
    is_irreducible,
    lehmer_expand,
    occurs_among_earlier,
    parse_identity,
    verify_identity,
)
from .pidigits import (
    FORMULAS,
    FixedPoint,
    PiResult,
    classical_bounds_check,
    compare_digits,
    compute_pi,
    gregory_series,
)

__version__ = "0.1.0"

__all__ = [
    "ArcTerm",
    "Convention",
    "DensityReport",
    "FORMULAS",
    "FixedPoint",
    "FlattenResult",
    "GaussianInt",
    "GregoryCombo",
    "LehmerExpansion",
    "PiResult",
    "PrimeFactorization",
    "StormerPair",
    "StormerVerdict",
    "TwoSquares",
    "check_factor_residues",
    "classical_bounds_check",
    "compare_digits",
    "compute_pi",
    "continuant",
    "count_large_factor",
    "count_stormer",
    "decompose",
    "density_sweep",
    "enumerate_stormer",
    "euclid_quotients",
    "extended_gcd",
    "factorize",
    "flatten",
    "gaussian_factorize",
    "gregory_series",
    "heuristic_probability",
    "is_irreducible",
    "is_prime",
    "is_stormer",
    "largest_prime_factor",
    "lehmer_expand",
    "mertens_gap",
    "occurs_among_earlier",
    "parse_identity",
    "prime_stormer_table",
    "stormer_of_prime",
    "two_squares",
    "verify_identity",
]
