"""Natural-density experiments for Stormer numbers.

Counts of Stormer numbers up to a limit, compared against the conjectured
density ln 2; the heuristic probability sum over primes 2*x0+1 <= p <=
x0**2+1 of 2/(p-1); and the Mertens partial-sum gap used to monitor its
convergence.

Also provided is the count of x whose x**2 + 1 has a prime factor exceeding
x (the form the density conjecture takes for primitive divisors).  The two
counts share the ln 2 limit but differ at finite range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Sequence

from . import arith
from .stormer import Convention, _meets

__all__ = [
    "DensityReport",
    "count_large_factor",
    "count_stormer",
    "density_sweep",
    "heuristic_probability",
    "mertens_gap",
]

LN2 = math.log(2)

# x counts under a measure when the largest prime factor of x**2 + 1 is at
# least slope*x + offset.
_MEASURES = {"strict": (2, 1), "inclusive": (2, 0), "large-factor": (1, 1)}


@dataclass(frozen=True)
class DensityReport:
    limit: int
    count: int
    ratio: float
    ln2_gap: float
    measure: str

    @staticmethod
    def build(limit: int, count: int, measure: str) -> "DensityReport":
        ratio = count / limit
        return DensityReport(limit, count, ratio, abs(ratio - LN2), measure)


def density_sweep(limits: Sequence[int], measure: str = "inclusive") -> list[DensityReport]:
    """One report per limit, for ascending positive limits.

    ``measure`` is "inclusive" or "strict" (Stormer numbers under that
    convention) or "large-factor".  Every count is read from one sieve of
    x**2 + 1 up to the largest limit, a block of x at a time, and each x is
    tested once.
    """
    if measure not in _MEASURES:
        raise ValueError(f"unknown measure {measure!r}; expected one of {sorted(_MEASURES)}")
    arith._ints(*limits)
    if not limits or limits[0] < 1 or list(limits) != sorted(limits):
        raise ValueError(f"expected ascending limits >= 1, got {list(limits)}")
    meets = _meets(limits[-1], *_MEASURES[measure])
    reports, count, done = [], 0, 0
    for limit in limits:
        count += sum(islice(meets, limit - done))
        reports.append(DensityReport.build(limit, count, measure))
        done = limit
    return reports


def count_stormer(limit: int, convention: Convention = Convention.INCLUSIVE) -> DensityReport:
    """Exact count of Stormer numbers <= limit under the given convention."""
    return density_sweep([limit], convention.value)[0]


def count_large_factor(limit: int) -> DensityReport:
    """Count of x <= limit whose x**2 + 1 has a prime factor > x.

    A weaker threshold than the Stormer condition 2x+1; both counts have
    conjectural density ln 2.
    """
    return density_sweep([limit], "large-factor")[0]


def heuristic_probability(x0: int) -> float:
    """Sum of 2/(p-1) over primes p == 1 (mod 4) with 2*x0+1 <= p <= x0**2+1.

    Under the heuristic that each residue in (1, (p-1)/2] is equally likely
    to be S(p), this is the chance that x0 is a Stormer number; it tends to
    ln 2 as x0 grows.  Summed exactly rounded with ``math.fsum``.
    """
    if x0 <= 1:
        raise ValueError(f"expected x0 >= 2, got {x0}")
    return math.fsum(2.0 / (p - 1) for p in arith._primes_between(2 * x0 + 1, x0 * x0 + 1) if p % 4 == 1)


def mertens_gap(x: int) -> float:
    """sum_{p <= x} 1/p - ln ln x.

    Approaches the Mertens constant 0.2615 as x grows; used to monitor the
    convergence of the heuristic sum, not asserted to a tight value.
    """
    if x < 3:
        raise ValueError(f"expected x >= 3, got {x}")
    return math.fsum(1.0 / p for p in arith._primes_between(2, x)) - math.log(math.log(x))
