"""Exact integer and Gaussian-integer arithmetic.

Everything in this package reduces to a handful of primitives implemented
here: the one prime sieve (segmented Eratosthenes), deterministic primality
testing, integer factorization (one gcd with the product of the primes
below 1000, a second with those == 1 (mod 4) below 10**4 for the norms
a**2 + b**2, then Brent's variant of Pollard rho), the extended Euclidean
algorithm, recursive division of big ints, square roots of -1 modulo a
prime, the Gaussian prime over p read from such a root by Euclid stopped
below sqrt(p) (Brillhart 1972), and exact arithmetic in Z[i] including
factorization into Gaussian primes.  Products of Gaussian powers are
multiplied out in one place, :func:`_turns`, which also counts their
quarter turns.

Plain Python ints serve as the arbitrary-precision integer type and
``fractions.Fraction`` as the rational type; both are exact.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Iterator

__all__ = [
    "GaussianInt",
    "PrimeFactorization",
    "extended_gcd",
    "factorize",
    "gaussian_factorize",
    "gaussian_gcd",
    "is_prime",
    "largest_prime_factor",
    "sieve_primes",
    "sqrt_minus_one_mod_p",
]

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)

# Deterministic Miller-Rabin witness sets, each proven sufficient below its
# bound, the least strong pseudoprime to its bases; n picks the first tier
# whose bound exceeds it.  The final tier covers everything below 3.317e24.
_MR_TIERS = (
    (1373653, (2, 3)),
    (9080191, (31, 73)),
    (25326001, (2, 3, 5)),
    (4759123141, (2, 7, 61)),
    (1122004669633, (2, 13, 23, 1662803)),
    (2152302898747, (2, 3, 5, 7, 11)),
    (3474749660383, (2, 3, 5, 7, 11, 13)),
    (341550071728321, (2, 3, 5, 7, 11, 13, 17)),
    (3825123056546413051, (2, 3, 5, 7, 11, 13, 17, 19, 23)),
    (318665857834031151167461, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)),
    (3317044064679887385961981, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)),
)

# Witnesses used above the last proven tier.  Deterministic output, but only
# conjecturally correct out to 2**128; nothing in this package factors or
# primality-tests numbers that large.
_MR_FALLBACK = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)


def sieve_primes(limit: int) -> list[int]:
    """All primes <= limit, by the segmented sieve of :func:`_primes_between`."""
    _ints(limit)
    return list(_primes_between(2, limit))


# Odd numbers crossed off at a time by _primes_between, one byte each.  A
# segment spans 2 * _SEGMENT integers in a bytearray of _SEGMENT bytes,
# 512 KB, which bounds the sieve's memory for any window.
_SEGMENT = 1 << 19


def _primes_between(lo: int, hi: int) -> Iterator[int]:
    """Yield the primes p with lo <= p <= hi in ascending order.

    A segmented sieve of Eratosthenes (Bays & Hudson, 1977) over the odd
    numbers only, one byte each, after 2 itself: the window is taken
    2 * _SEGMENT integers at a time from an odd start, and each segment is
    crossed off by the odd primes up to isqrt(hi) from max(p*p, the first
    odd multiple of p in the segment), every p-th byte being every 2p-th
    integer.  The crossed-off bytes are sliced from one zero buffer per
    call.  The generator is lazy, so memory stays bounded for any hi.
    """
    lo = max(lo, 2)
    if hi < lo:
        return
    if lo == 2:
        yield 2
    base = list(_primes_between(3, math.isqrt(hi)))
    zeros = memoryview(bytes(min(_SEGMENT, (hi - lo) // 2 + 1)))
    for start in range(lo | 1, hi + 1, 2 * _SEGMENT):
        stop = min(start + 2 * _SEGMENT, hi + 1)
        seg = bytearray([1]) * ((stop - start + 1) // 2)
        for p in base:
            if p * p >= stop:
                break
            first = (max(p * p, (-(-start // p) | 1) * p) - start) // 2
            seg[first::p] = zeros[: len(range(first, len(seg), p))]
        yield from compress(range(start, stop, 2), seg)


def _ints(*values: object) -> None:
    """Raise TypeError for the first value that is not an int or is a bool:
    the one integer rule of the public entry points.  A bool is an int to
    Python, but True would compute as 1 and print as True."""
    for v in values:
        if type(v) is bool or not isinstance(v, int):
            raise TypeError(f"expected an int that is not a bool, got {v!r}")


def _positive(n: int) -> int:
    """n, once :func:`_ints` passes it and n >= 1; else ValueError."""
    _ints(n)
    if n < 1:
        raise ValueError(f"expected a positive integer, got {n}")
    return n


def _miller_rabin(n: int, bases: tuple[int, ...]) -> bool:
    """Strong-probable-prime test of odd n to every base, each base in
    2..n-1: :func:`is_prime` calls it only for n >= 47**2."""
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_prime(n: int) -> bool:
    """Deterministic primality test.

    Uses trial division by a few small primes followed by Miller-Rabin with
    witness sets proven correct below 3.3e24; units and negatives are not
    prime.  A non-integer n, such as 13.0, or a bool is refused with
    TypeError (:func:`_ints`).
    """
    _ints(n)
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    if n < 47 * 47:
        return True
    for bound, bases in _MR_TIERS:
        if n < bound:
            return _miller_rabin(n, bases)
    return _miller_rabin(n, _MR_FALLBACK)


def _brent_rho(n: int) -> int:
    """A nontrivial factor of composite n (n odd, not a prime power of a
    small prime).  Brent's cycle-finding variant of Pollard rho with batched
    gcds; the parameter sequence is fixed so results are deterministic."""
    for c in range(1, 100):
        y, m = 2, 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += m
            r <<= 1
        if g == n:
            # Batched gcd overshot; replay one step at a time.
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g
    raise ArithmeticError(f"rho failed to split {n}")


def _factor_into(n: int, out: dict[int, int]) -> None:
    """Add the prime factors of n > 1 to ``out``; rho splits a composite n
    into two factors, each above 1."""
    if is_prime(n):
        out[n] = out.get(n, 0) + 1
        return
    d = _brent_rho(n)
    _factor_into(d, out)
    _factor_into(n // d, out)


# A trial stage is (primes, product, limit): ``primes`` holds, in ascending
# order, the primes that can divide n from the previous stage's limit up to
# ``limit``, and ``product`` is their product.  One gcd of n with the product
# finds every one of them that divides n, at the cost of one division of
# that product by n, where a loop would pay one division per prime.
# factorize() takes one stage, the primes below _TRIAL_LIMIT; rho handles
# any cofactor this package meets (values <= ~1e13).
_TRIAL_LIMIT = 1000
_TRIAL_PRIMES = tuple(sieve_primes(_TRIAL_LIMIT))
_TRIAL_STAGES = ((_TRIAL_PRIMES, math.prod(_TRIAL_PRIMES), _TRIAL_LIMIT),)


@dataclass(frozen=True, slots=True)
class PrimeFactorization:
    """Ordered prime factorization: ``factors`` is ((p1, e1), (p2, e2), ...)
    with p1 < p2 < ... and every pi prime."""

    factors: tuple[tuple[int, int], ...]

    def value(self) -> int:
        return math.prod(p**e for p, e in self.factors)

    def largest_prime(self) -> int:
        """Largest prime factor; 1 for the empty factorization."""
        return self.factors[-1][0] if self.factors else 1

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)


def factorize(n: int) -> PrimeFactorization:
    """Prime factorization of n >= 1; n = 1 gives the empty factorization.
    Any other n is refused by :func:`_positive`."""
    return PrimeFactorization(_trial_factorize(_positive(n), _TRIAL_STAGES))


# The stages of _factorize_norm: 2 and the primes == 1 (mod 4) below
# _TRIAL_LIMIT, then the primes == 1 (mod 4) up to _NORM_TRIAL_LIMIT, whose
# product has about 6.4 kbit.  x**2 + 1 for x <= 1e4 leaves no cofactor of
# 1e8 or more, so it never reaches Miller-Rabin or rho.
_NORM_TRIAL_LIMIT = 10_000
_NORM_LOW_PRIMES = tuple(p for p in _TRIAL_PRIMES if p % 4 != 3)
_NORM_HIGH_PRIMES = tuple(p for p in _primes_between(_TRIAL_LIMIT, _NORM_TRIAL_LIMIT) if p % 4 == 1)
_NORM_STAGES = (
    (_NORM_LOW_PRIMES, math.prod(_NORM_LOW_PRIMES), _TRIAL_LIMIT),
    (_NORM_HIGH_PRIMES, math.prod(_NORM_HIGH_PRIMES), _NORM_TRIAL_LIMIT),
)


def _factorize_norm(n: int) -> tuple[tuple[int, int], ...]:
    """The prime factorization of n = a**2 + b**2 with gcd(a, b) = 1, such
    as x**2 + 1, the norm of a Gaussian integer of content 1, as the pairs
    (p, e) of :func:`_trial_factorize`, ascending, so that the last one
    holds the largest prime.

    A prime q == 3 (mod 4) dividing a**2 + b**2 would make -1 a square mod
    q unless q divided both a and b, so only 2 and the primes == 1 (mod 4)
    are tried, in the two stages of _NORM_STAGES: below 1000, then below
    10**4 for a cofactor of at least 10**6.  That skips no possible factor,
    so the cofactor rule of :func:`_trial_factorize` holds: a cofactor below
    10**6 after the first stage, or below 10**8 after the second, is 1 or
    prime, and only a larger one goes to Miller-Rabin and rho.
    """
    return _trial_factorize(n, _NORM_STAGES)


def _trial_factorize(n: int, stages: tuple[tuple[tuple[int, ...], int, int], ...]) -> tuple[tuple[int, int], ...]:
    """The pairs (p, e) of the prime factorization of n >= 1, ascending in
    p (empty for n = 1), found through the trial ``stages`` (primes,
    product, limit), in order, where ``primes`` holds every prime that can
    divide n from the previous stage's limit (or 2) to ``limit``.

    In each stage g = gcd(n, product) is the squarefree product of the
    stage's primes that divide n.  Trial division of g while p*p <= g leaves
    one prime or 1, and each prime found is divided out of n as often as it
    goes as soon as it is found.  The cofactor then has no prime below
    ``limit``: below limit**2 it is 1 or prime, and the next stage runs
    otherwise.  Past the last stage, Miller-Rabin decides it, and Brent rho
    splits it if it is composite.  The pairs come out ascending: a stage's
    trial primes in order, then the prime left in g, larger than each of
    them, and a cofactor or the next stage's primes, all above ``limit``;
    only the primes from rho are sorted, among themselves.
    """
    found: list[tuple[int, int]] = []
    for primes, product, limit in stages:
        g = math.gcd(n, product)
        for p in primes:
            if p * p > g:
                break
            if g % p == 0:
                g //= p
                n //= p
                e = 1
                while n % p == 0:
                    n //= p
                    e += 1
                found.append((p, e))
        if g > 1:
            n //= g
            e = 1
            while n % g == 0:
                n //= g
                e += 1
            found.append((g, e))
        if n < limit * limit:
            if n > 1:
                found.append((n, 1))
            break
    else:
        rho: dict[int, int] = {}
        _factor_into(n, rho)
        found += sorted(rho.items())
    return tuple(found)


def largest_prime_factor(n: int) -> int:
    """Largest prime factor of n >= 2, read from :func:`factorize`."""
    if n < 2:
        raise ValueError(f"largest_prime_factor expects n >= 2, got {n}")
    return factorize(n).largest_prime()


def extended_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclid: returns (g, u, v) with u*a + v*b = g = gcd(a, b) > 0.

    Rejects (0, 0), where the gcd is undefined.
    """
    _ints(a, b)
    if a == 0 and b == 0:
        raise ValueError("extended_gcd(0, 0) is undefined")
    old_r, r = a, b
    old_u, u = 1, 0
    old_v, v = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_u, u = u, old_u - q * u
        old_v, v = v, old_v - q * v
    if old_r < 0:
        old_r, old_u, old_v = -old_r, -old_u, -old_v
    return old_r, old_u, old_v


# Bit length at or below which a division step goes to native divmod: a
# divisor this short, or a quotient this short.  Measured on Python 3.11,
# whose native division is quadratic; see _divmod.
_DIV_LIMIT = 4000


def _divmod(a: int, b: int) -> tuple[int, int]:
    """divmod(a, b) for a >= 0 and b > 0, in time O(M(n) log n) per n
    quotient bits, n the bit length of b and M(n) the cost of an n-bit
    multiplication, where native divmod is quadratic before Python 3.12.

    Recursive division (Burnikel & Ziegler, "Fast recursive division",
    MPI-I-98-1-022, 1998; Brent & Zimmermann, Modern Computer Arithmetic,
    section 1.4.3), the route CPython 3.12 takes in Lib/_pylong.py.  a is
    read as digits in base 2**n, n the bit length of b, top digit first,
    and each step divides (remainder, digit) by b with :func:`_div2n1n`.
    Every step is exact, so nothing needs correcting afterwards.
    """
    n = b.bit_length()
    if n <= _DIV_LIMIT or a.bit_length() - n <= _DIV_LIMIT:
        return divmod(a, b)
    mask = (1 << n) - 1
    q = r = 0
    for shift in range((a.bit_length() - 1) // n * n, -1, -n):
        digit, r = _div2n1n(r << n | a >> shift & mask, b, n)
        q = q << n | digit
    return q, r


def _div2n1n(a: int, b: int, n: int) -> tuple[int, int]:
    """divmod(a, b) for b of exactly n bits and 0 <= a < b * 2**n.

    An odd n is made even by doubling a and b.  With b = b1 * 2**h + b2 and
    h = n/2, the quotient's two h-bit halves each come from one 3h-by-2h
    step of :func:`_div3n2n`.
    """
    if a.bit_length() - n <= _DIV_LIMIT:
        return divmod(a, b)
    pad = n & 1
    if pad:
        a, b, n = a << 1, b << 1, n + 1
    h = n >> 1
    mask = (1 << h) - 1
    b1, b2 = b >> h, b & mask
    q1, r = _div3n2n(a >> n, a >> h & mask, b, b1, b2, h)
    q2, r = _div3n2n(r, a & mask, b, b1, b2, h)
    return q1 << h | q2, r >> pad


def _div3n2n(a12: int, a3: int, b: int, b1: int, b2: int, h: int) -> tuple[int, int]:
    """divmod(a12 * 2**h + a3, b) for b = b1 * 2**h + b2 of exactly 2h
    bits, a3 < 2**h and a12 < b.

    The quotient q < 2**h is first estimated from a12 / b1, which can only
    overstate it; b1's top bit is set, so at most two steps of adding b
    back bring the remainder to 0 <= r < b.
    """
    if a12 >> h == b1:
        q, r = (1 << h) - 1, a12 - (b1 << h) + b1
    else:
        q, r = _div2n1n(a12, b1, h)
    r = (r << h | a3) - q * b2
    while r < 0:
        q, r = q - 1, r + b
    return q, r


def sqrt_minus_one_mod_p(p: int) -> int:
    """S(p): the solution x of x**2 == -1 (mod p) with 1 <= x <= (p-1)/2.

    Requires p prime with p == 1 (mod 4) and raises ValueError otherwise:
    for any other odd p no solution exists, and p = 2, whose root is 1, has
    no S(p) and no two-squares palindrome.  The root is found by raising a
    quadratic non-residue to the power (p-1)/4, which is the Tonelli-Shanks
    computation specialized to -1; of it and p minus it, the smaller is S(p).
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p == 2:
        raise ValueError("2 is prime but not == 1 (mod 4): a prime p == 1 (mod 4) is required")
    if p % 4 != 1:
        raise ValueError(f"{p} % 4 != 1, so x^2 == -1 (mod {p}) has no solution")
    return _sqrt_minus_one(p)


def _sqrt_minus_one(p: int) -> int:
    """:func:`sqrt_minus_one_mod_p` for p already known to be a prime == 1 (mod 4).

    a**((p-1)/4) squares to -1 exactly when a is a non-residue, and the base
    is the least non-residue, from :func:`_least_non_residue`, so one ``pow``
    finds a root x.  S(p) is the smaller of x and p - x.  For a p that is
    not a prime == 1 (mod 4) the power may not square to -1, and then
    ArithmeticError is raised rather than a wrong root returned.
    """
    x = pow(_least_non_residue(p), (p - 1) // 4, p)
    if x * x % p != p - 1:
        raise ArithmeticError(f"no square root of -1 modulo {p}: {p} is not a prime == 1 (mod 4)")
    # Not min(x, p - x): the comparison is several times cheaper per root.
    return x if 2 * x < p else p - x


# The odd primes that _least_non_residue tries, in ascending order.
_ODD_TRIAL_PRIMES = _TRIAL_PRIMES[1:]


def _least_non_residue(p: int) -> int:
    """The least quadratic non-residue modulo a prime p == 1 (mod 4).

    The least non-residue is prime, since a product of residues is a
    residue.  2 is one exactly when p == 5 (mod 8).  For an odd prime q,
    reciprocity gives (q/p) = (p/q), as p == 1 (mod 4), and Euler's
    criterion reads (p/q) from (p mod q)**((q-1)/2) mod q, a power of small
    ints.  Past the odd primes below _TRIAL_LIMIT, which no prime below
    about 10**20 needs, Euler's criterion is read mod p for a = _TRIAL_LIMIT,
    _TRIAL_LIMIT + 1, ...; a p with no non-residue there, which is then no
    prime == 1 (mod 4), gets 2.
    """
    if p % 8 == 5:
        return 2
    for q in _ODD_TRIAL_PRIMES:
        if pow(p % q, q >> 1, q) == q - 1:
            return q
    return next((a for a in range(_TRIAL_LIMIT, p) if pow(a, p >> 1, p) == p - 1), 2)


def _quarter(re: int, im: int) -> tuple[int, int, int]:
    """(t, x, y) with re + im*i = i**t * (x + yi), x > 0 and y >= 0, for
    re + im*i != 0.  t is in -2..2, chosen so that t*pi/2 + Arg(x + yi) is
    the principal argument, in (-pi, pi]."""
    if re > 0 and im >= 0:
        return 0, re, im
    if im > 0:
        return 1, im, -re
    if re < 0:
        return (2 if im == 0 else -2), -re, -im
    return -1, -im, re


def _turns(terms: Iterable[tuple[int, int, int]]) -> tuple[int, int, int]:
    """(q, r, s) with prod((a + bi)**e) = i**q * (r + si) over the triples
    (a, b, e) of ``terms``, e >= 0: the package's one square and multiply in
    Z[i].  With no a + bi zero, r > 0, s >= 0 and sum(e * Arg(a + bi)) =
    q*pi/2 + Arg(r + si) exactly.  A zero a + bi makes r = s = 0, whatever
    q, when e >= 1, and changes nothing when e = 0: 0**0 == 1.

    Square and multiply on plain ints, r + si being the product turned back
    by i**q.  A product or square of two first-quadrant values lies in the
    upper half-plane, so one quarter turn (times -i) at most brings it back.
    A square that turns is i times a first-quadrant base that still enters
    the product e times, e being the exponent left: it adds e quarter turns.
    """
    q, re, im = 0, 1, 0
    for a, b, e in terms:
        if a <= 0 or b < 0:
            t, a, b = _quarter(a, b)
            q += t * e
        while e:
            if e & 1:
                re, im = re * a - im * b, re * b + im * a
                if re <= 0:
                    re, im, q = im, -re, q + 1
            e >>= 1
            if e:
                a, b = a * a - b * b, 2 * a * b
                if a <= 0:
                    a, b, q = b, -a, q + e
    return q, re, im


def _rotated(q: int, r: int, s: int) -> "GaussianInt":
    """i**q * (r + si), from the four powers of i."""
    return GaussianInt(*((r, s), (-s, r), (-r, -s), (s, -r))[q % 4])


@dataclass(frozen=True)
class GaussianInt:
    """Gaussian integer re + im*i with exact arithmetic.  Each part must be
    an int: a bool, float or any other value raises TypeError."""

    re: int
    im: int

    def __post_init__(self) -> None:
        _ints(self.re, self.im)

    def __add__(self, other: "GaussianInt") -> "GaussianInt":
        return GaussianInt(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianInt") -> "GaussianInt":
        return GaussianInt(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "GaussianInt") -> "GaussianInt":
        return GaussianInt(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __neg__(self) -> "GaussianInt":
        return GaussianInt(-self.re, -self.im)

    def __pow__(self, k: int) -> "GaussianInt":
        _ints(k)
        if k < 0:
            raise ValueError("negative Gaussian powers are not integral")
        return _rotated(*_turns([(self.re, self.im, k)]))

    def conjugate(self) -> "GaussianInt":
        return GaussianInt(self.re, -self.im)

    def norm(self) -> int:
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_unit(self) -> bool:
        return self.norm() == 1

    def divides(self, other: "GaussianInt") -> bool:
        n = self.norm()
        t = other * self.conjugate()
        return n != 0 and t.re % n == 0 and t.im % n == 0

    def exact_div(self, other: "GaussianInt") -> "GaussianInt":
        """self / other, which must be exact."""
        n = other.norm()
        t = self * other.conjugate()
        if n == 0 or t.re % n or t.im % n:
            raise ValueError(f"{other} does not divide {self}")
        return GaussianInt(t.re // n, t.im // n)

    def canonical_associate(self) -> tuple["GaussianInt", "GaussianInt"]:
        """(unit, w) with self = unit * w and w in the first quadrant
        (w.re > 0, w.im >= 0).  Exactly one associate of a nonzero Gaussian
        integer lies there."""
        if self.is_zero():
            raise ValueError("0 has no canonical associate")
        t, re, im = _quarter(self.re, self.im)
        return _rotated(t, 1, 0), GaussianInt(re, im)

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i" if self.im not in (1, -1) else ("i" if self.im == 1 else "-i")
        sign = "+" if self.im > 0 else "-"
        mag = abs(self.im)
        imag = "i" if mag == 1 else f"{mag}i"
        return f"{self.re}{sign}{imag}"


def gaussian_gcd(a: GaussianInt, b: GaussianInt) -> GaussianInt:
    """A greatest common divisor of a and b in Z[i] (unique up to units)."""
    ar, ai, br, bi = a.re, a.im, b.re, b.im
    while br or bi:
        n = br * br + bi * bi
        # t = a * conj(b); the nearest-integer quotient keeps the remainder
        # norm below n.
        tr, ti = ar * br + ai * bi, ai * br - ar * bi
        qr, qi = (2 * tr + n) // (2 * n), (2 * ti + n) // (2 * n)
        ar, ai, br, bi = br, bi, ar - (qr * br - qi * bi), ai - (qr * bi + qi * br)
    return GaussianInt(ar, ai)


def gaussian_factorize(z: GaussianInt) -> tuple[GaussianInt, tuple[tuple[GaussianInt, int], ...]]:
    """Factor z != 0 into a unit times first-quadrant Gaussian primes.

    Returns (unit, factors) with unit in {1, -1, i, -i} and factors an
    ordered tuple of (prime, exponent) pairs such that the product of all
    prime powers times the unit equals z exactly.  Each prime is normalized
    to the first quadrant (re > 0, im >= 0): primes over a rational prime
    p == 1 (mod 4) appear as the pair {a+bi, b+ai}, the ramified prime over
    2 as 1+i, and inert rational primes q == 3 (mod 4) as q itself.

    z = g * (x + yi) with g = gcd(re, im).  Each p**e exactly dividing g
    brings both Gaussian primes over p (p == 1 (mod 4)), (1+i)**(2e)
    (p = 2) or p**e (p == 3 (mod 4)).  Each odd p**e exactly dividing
    x**2 + y**2 brings the one prime over p that divides x + yi, which is
    the one dividing r + i for r = x/y mod p (:func:`_prime_over`).
    The primes are checked, not trusted: with z = i**q * w and their
    product i**t * w' (:func:`_turns`), w and w' in the first quadrant, they
    are z's primes exactly when w' == w, and the unit is then i**(q - t).
    """
    if z.is_zero():
        raise ValueError("cannot factor 0")
    g = math.gcd(z.re, z.im)
    x, y = z.re // g, z.im // g
    found: Counter[tuple[int, int]] = Counter()
    for p, e in factorize(g).factors:
        if p == 2:
            found[1, 1] += 2 * e
        elif p % 4 == 3:
            found[p, 0] += e
        else:
            a, b = _prime_over(p, _sqrt_minus_one(p))
            found[a, b] += e
            found[b, a] += e
    for p, e in _factorize_norm(x * x + y * y):
        found[(1, 1) if p == 2 else _prime_over(p, x * pow(y, -1, p))] += e
    factors = sorted(((GaussianInt(a, b), e) for (a, b), e in found.items()), key=lambda fe: (fe[0].norm(), fe[0].im))
    q, *associate = _quarter(z.re, z.im)
    t, *product = _turns((g.re, g.im, e) for g, e in factors)
    if product != associate:
        raise ArithmeticError(f"the Gaussian primes found for {z} leave a non-unit residual")
    return _rotated(q - t, 1, 0), tuple(factors)


def _prime_over(p: int, r: int) -> tuple[int, int]:
    """(a, b) with a + bi the first-quadrant Gaussian prime over a prime
    p == 1 (mod 4) that divides r + i, for r a root of x**2 == -1 (mod p);
    for any odd p > 1 with such a root, a + bi is the first-quadrant
    Gaussian integer of norm p, of content 1, that divides r + i.

    With S = min(r, p - r) for r reduced mod p, S(p) for a prime, Euclid
    on (p, S) stopped at the first remainder below sqrt(p) gives
    p = a**2 + b**2: a is that remainder and b the next (Brillhart, "Note
    on representing a prime as a sum of two squares", Math. Comp. 26,
    1972).  These are the continuants that
    :func:`stormerkit.twosquares.two_squares` reads from the palindrome of
    p/S; p/S is a palindrome for a composite p too, as Smith's proof of it
    needs only S**2 == -1 (mod p).  The pair is oriented so that a + bi
    divides S + i, that is S*b == a (mod p); for 2r > p, r == -S and the
    divisor of r + i is the conjugate, whose first-quadrant associate is
    b + ai.
    """
    r %= p
    s = min(r, p - r)
    u, v = p, s
    while v * v > p:
        u, v = v, u % v
    a, b = v, u % v
    if s * b % p != a:
        a, b = b, a
    return (b, a) if 2 * r > p else (a, b)
