"""Stormer numbers: characterization, the map S(p), and enumeration.

A positive integer x0 is a Stormer number exactly when the largest prime
factor p_m of x0**2 + 1 satisfies 2*x0 + 1 <= p_m; in that case p_m is the
unique prime with S(p_m) = x0, where S(p) denotes the least residue root of
x**2 == -1 (mod p) lying in (1, (p-1)/2].  The inclusive convention
(Conway-Guy) relaxes the bound to 2*x0, which changes nothing except that it
admits x0 = 1.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from enum import Enum
from itertools import chain, compress, count, islice
from operator import ge
from typing import Iterator

from . import arith

__all__ = [
    "Convention",
    "StormerPair",
    "StormerVerdict",
    "check_factor_residues",
    "enumerate_stormer",
    "is_stormer",
    "prime_stormer_table",
    "stormer_of_prime",
]


class Convention(Enum):
    """Which largest-prime-factor threshold defines a Stormer number."""

    STRICT = "strict"        # p_m >= 2*x0 + 1; excludes x0 = 1
    INCLUSIVE = "inclusive"  # p_m >= 2*x0 (Conway-Guy); admits x0 = 1


@dataclass(frozen=True)
class StormerVerdict:
    """Outcome of testing one candidate.

    ``largest_prime_factor`` is always the largest prime factor of
    x0**2 + 1; ``witness_prime`` repeats it when the verdict is positive
    (it is then the unique prime with S(witness_prime) = x0).
    """

    x0: int
    is_stormer: bool
    witness_prime: int | None
    largest_prime_factor: int
    convention: Convention


@dataclass(frozen=True)
class StormerPair:
    """A prime p == 1 (mod 4) together with S(p)."""

    p: int
    x0: int


# Read once: each Convention.STRICT is an enum attribute lookup, several
# times the cost of a module constant on Python 3.11.
_STRICT = Convention.STRICT


def _threshold(x0: int, convention: Convention) -> int:
    return 2 * x0 + 1 if convention is _STRICT else 2 * x0


def is_stormer(x0: int, convention: Convention = Convention.STRICT) -> StormerVerdict:
    """Decide whether x0 is a Stormer number under the given convention."""
    arith._positive(x0)
    p_m = arith._factorize_norm(x0 * x0 + 1)[-1][0]
    hit = p_m >= _threshold(x0, convention)
    return StormerVerdict(x0, hit, p_m if hit else None, p_m, convention)


def stormer_of_prime(p: int) -> StormerPair:
    """S(p) for a prime p == 1 (mod 4).

    Of the two least-residue roots x and p - x of x**2 == -1 (mod p),
    exactly one lies in (1, (p-1)/2]; that one is S(p).  Any other p is
    refused with ValueError by :func:`arith.sqrt_minus_one_mod_p`, which
    returns S(p) itself.
    """
    return StormerPair(p, arith.sqrt_minus_one_mod_p(p))


def check_factor_residues(x0: int) -> bool:
    """True iff every odd prime factor of x0**2 + 1 is == 1 (mod 4).

    This always holds (any odd prime divisor q of x0**2 + 1 makes -1 a
    quadratic residue mod q); the function exists as a test oracle.
    """
    arith._positive(x0)
    return all(p == 2 or p % 4 == 1 for p in arith.factorize(x0 * x0 + 1).primes())


# Values of x per block of :func:`_lpf_blocks`: 2**17 8-byte entries, 1 MB.
# Smaller blocks ran the sieve to 10**5 slower (2**15 and 2**16 entries).
_BLOCK = 1 << 17


def _lpf_blocks(limit: int) -> Iterator[tuple[int, array]]:
    """Yield (lo, t) for lo = 0, _BLOCK, 2*_BLOCK, ... <= limit, where t[x - lo]
    is the largest prime factor of x**2 + 1 for lo <= x <= min(lo + _BLOCK - 1,
    limit), and 1 for x = 0.

    A segmented sieve (Bays & Hudson, 1977) over the values x**2 + 1, with no
    candidate factored on its own.  The only primes dividing x**2 + 1 are 2,
    for odd x, and the primes p == 1 (mod 4) with x == +-S(p) (mod p), so
    walking those two residues with stride p finds every multiple of p.
    A prime joins in the block that holds it, and each of its roots waits
    for its second x, root + p or 2*p - root, in the bucket of the block
    that x falls in.  A block sorts its bucket, so its primes go in
    ascending order, and divides each out as often as it goes; an entry that
    drops to 1 becomes the prime that emptied it, which is then its largest.
    Every p <= x that divides x**2 + 1 meets x at its second x or later, and
    after them the entry of x is 1 or a single prime > x (two would exceed
    x**2 + 1), so every entry is exact.  So a root's first x, which is below
    p, is never walked: its entry is left holding p.
    Memory is one block plus at most two 8-byte codes per prime == 1
    (mod 4) up to limit.
    """
    _check_table_limit(limit)
    size = _BLOCK
    # buckets[b] holds p*size + x - b*size for each root of each prime
    # whose next x lies in block b; sorting it sorts by p.
    buckets = [array("Q") for _ in range(limit // size + 1)]
    for b, lo in enumerate(range(0, limit + 1, size)):
        hi = min(lo + size, limit + 1)
        # x**2 + 1 == 2 (mod 4) for odd x, so one shift takes out the prime 2.
        t = array("Q", ((x * x + 1) >> (x & 1) for x in range(lo, hi)))
        if lo <= 1 < hi:
            t[1 - lo] = 2
        for p in arith._primes_between(lo, hi - 1):
            if p % 4 != 1:
                continue
            root = arith._sqrt_minus_one(p)
            for x in (root + p, 2 * p - root):
                if x <= limit:
                    buckets[x // size].append(p * size + x % size)
        bucket, buckets[b] = buckets[b], None
        for code in sorted(bucket):
            p, start = divmod(code, size)
            # A code's x is at most limit, so the walk takes at least one x.
            for x in range(start, hi - lo, p):
                v = t[x] // p
                while v % p == 0:
                    v //= p
                t[x] = v if v > 1 else p
            x += lo + p
            if x <= limit:
                buckets[x // size].append(p * size + x % size)
        yield lo, t


def _check_table_limit(limit: int) -> None:
    """Refuse a limit of :func:`_lpf_blocks` whose x**2 + 1 would not fit
    the blocks' 64-bit entries."""
    if limit >= 1 << 32:
        raise ValueError(f"limit {limit} is too large: x**2 + 1 must fit in 64 bits")


def _meets(limit: int, slope: int, offset: int) -> Iterator[bool]:
    """For x = 1, 2, ..., limit in turn, whether the largest prime factor of
    x**2 + 1 is >= slope*x + offset, read block by block from :func:`_lpf_blocks`."""
    flags = chain.from_iterable(
        map(ge, t, range(slope * lo + offset, slope * (lo + len(t)) + offset, slope)) for lo, t in _lpf_blocks(limit)
    )
    return islice(flags, 1, None)  # x = 0 is no candidate


def _stormer_numbers(limit: int, convention: Convention) -> Iterator[int]:
    """The Stormer numbers <= limit in ascending order, computed as they are read."""
    # _threshold(x, convention) == 2*x + _threshold(0, convention)
    return compress(count(1), _meets(limit, 2, _threshold(0, convention)))


def enumerate_stormer(limit: int, convention: Convention = Convention.INCLUSIVE) -> list[int]:
    """Ascending list of all Stormer numbers <= limit.

    The largest prime factor of every x**2 + 1 comes from one sieve by the
    roots +-S(p) of the primes p <= limit, taken a block of x at a time.
    """
    arith._ints(limit)
    return list(_stormer_numbers(limit, convention))


def prime_stormer_table(prime_limit: int) -> list[StormerPair]:
    """All pairs (p, S(p)) for primes p == 1 (mod 4) up to prime_limit."""
    return [StormerPair(p, arith._sqrt_minus_one(p)) for p in arith.sieve_primes(prime_limit) if p % 4 == 1]
