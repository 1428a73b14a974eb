"""Two-squares decompositions of primes p == 1 (mod 4) via continuants.

Smith's construction: run the Euclidean algorithm on p / S(p), with S(p)
read from ``arith.sqrt_minus_one_mod_p``.  The quotient sequence is a
palindrome of even length [q1..qn, qn..q1], and

    p = K(q1..qn)**2 + K(q1..q_{n-1})**2

where K is the continuant.  This yields the unique decomposition
p = a**2 + b**2 explicitly.  The two continuants are the remainders at
which Euclid on (p, S(p)) first drops below sqrt(p) (Brillhart 1972), so
each result is checked against ``arith._prime_over``, the route the rest of
the package takes to the Gaussian prime over p.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import arith

__all__ = ["TwoSquares", "continuant", "euclid_quotients", "two_squares"]


@dataclass(frozen=True)
class TwoSquares:
    """p = a**2 + b**2 with a > b >= 1, plus the palindromic quotient
    sequence of p / x0 and x0 = S(p) itself."""

    p: int
    a: int
    b: int
    palindrome: tuple[int, ...]
    x0: int


def continuant(qs: Sequence[int]) -> int:
    """The continuant K(q1, ..., qm).

    Computed by the three-term recurrence K_m = q_m*K_{m-1} + K_{m-2} with
    K_0 = 1 (empty product convention) and K_1 = q1; equal to the numerator
    of the continued fraction [q1; q2, ..., qm].  Entries must be positive.
    """
    prev, cur = 0, 1
    for q in qs:
        arith._ints(q)
        if q <= 0:
            raise ValueError(f"continuant entries must be positive, got {q}")
        prev, cur = cur, q * cur + prev
    return cur


def euclid_quotients(s: int, r: int) -> list[int]:
    """Quotient sequence of the Euclidean algorithm on s / r, for s > r >= 1.

    The result [q1, ..., qn] satisfies continuant(q1..qn) = s / gcd(s, r) and
    continuant(q2..qn) = r / gcd(s, r); the final quotient absorbs the exact
    division, so qn >= 2 whenever n > 1.
    """
    arith._ints(s, r)
    if r <= 0 or r >= s:
        raise ValueError(f"expected s > r >= 1, got s={s}, r={r}")
    qs = []
    while r:
        q, rem = divmod(s, r)
        qs.append(q)
        s, r = r, rem
    return qs


def two_squares(p: int) -> TwoSquares:
    """The unique decomposition p = a**2 + b**2 of a prime p == 1 (mod 4).

    Raises ValueError for composite p, for p == 3 (mod 4), where no
    representation exists, and for 2 = 1**2 + 1**2, which has no S(p).
    """
    if p % 4 == 3 and arith.is_prime(p):
        raise ValueError(f"{p} is not a sum of two squares: only primes p == 1 (mod 4) are")
    x0 = arith.sqrt_minus_one_mod_p(p)  # S(p); validates primality
    qs = euclid_quotients(p, x0)
    if len(qs) % 2 or qs != qs[::-1]:
        raise ArithmeticError(f"no even-length palindromic quotient sequence for p={p} (got {qs})")
    half = qs[: len(qs) // 2]
    a = continuant(half)
    b = continuant(half[:-1])
    if sorted(arith._prime_over(p, x0)) != [b, a]:
        raise ArithmeticError(f"continuants {a}, {b} of {half} are not the Gaussian prime over {p}")
    return TwoSquares(p, a, b, tuple(qs), x0)
