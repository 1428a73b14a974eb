from __future__ import annotations

import dataclasses
import math
import pickle
import random

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stormerkit import arith
from stormerkit.arith import (
    GaussianInt,
    extended_gcd,
    factorize,
    gaussian_factorize,
    is_prime,
    largest_prime_factor,
    sieve_primes,
    sqrt_minus_one_mod_p,
)


# --- primality ---------------------------------------------------------------

def test_is_prime_examples() -> None:
    assert not is_prime(1)
    assert is_prime(38921)
    assert is_prime(113)
    assert is_prime(2)
    assert not is_prime(0)
    assert not is_prime(-7)


@pytest.mark.parametrize("n", [2.5, 10.5, 13.0, 2.0**61 - 1.0])
def test_is_prime_refuses_a_float(n: float) -> None:
    # No trial remainder of 2.5 is zero and 2.5 < 47**2: an unchecked float
    # would be called prime.
    with pytest.raises(TypeError):
        is_prime(n)


def test_is_prime_rejects_each_tier_bound() -> None:
    # Each bound is a composite strong pseudoprime to its own tier's bases,
    # so a tier read as n <= bound would call it prime.  Each is at least
    # 47**2 and has no prime factor up to 47, so trial division passes it on
    # to the tiers and every bound reaches its own.  3215031751, the least
    # strong pseudoprime to 2, 3, 5 and 7, falls in the (2, 7, 61) tier.
    for bound, bases in arith._MR_TIERS:
        assert bound >= 47 * 47 and min(sympy.primefactors(bound)) > 47, bound
        assert not sympy.isprime(bound) and sympy.ntheory.primetest.mr(bound, list(bases)), bound
        assert not is_prime(bound), bound
    assert not is_prime(3215031751)


# Above the last proven Miller-Rabin tier, is_prime runs the fallback bases.
_ABOVE_TIERS = arith._MR_TIERS[-1][0]


def test_is_prime_above_the_proven_tiers_matches_sympy() -> None:
    rng = random.Random(24)
    for _ in range(200):
        n = rng.randrange(_ABOVE_TIERS, 2**100)
        assert is_prime(n) == sympy.isprime(n), n
    for _ in range(40):
        p = sympy.nextprime(rng.randrange(_ABOVE_TIERS, 2**100))
        assert is_prime(p) == sympy.isprime(p)
        assert is_prime(p)


def test_is_prime_rejects_semiprimes_of_two_13_digit_primes() -> None:
    rng = random.Random(13)
    for _ in range(40):
        p, q = (sympy.nextprime(rng.randrange(2 * 10**12, 10**13)) for _ in range(2))
        assert p * q > _ABOVE_TIERS
        assert is_prime(p * q) == sympy.isprime(p * q)
        assert not is_prime(p * q)


def test_is_prime_rejects_chernick_carmichael_numbers_above_the_proven_tiers() -> None:
    # (6k+1)(12k+1)(18k+1) is a Carmichael number when all three factors are
    # prime (Chernick 1939): a Fermat pseudoprime to every coprime base.
    found = []
    k = 14_000_001
    while len(found) < 5:
        factors = (6 * k + 1, 12 * k + 1, 18 * k + 1)
        if all(sympy.isprime(f) for f in factors):
            found.append(factors[0] * factors[1] * factors[2])
        k += 1
    for n in found:
        assert n > _ABOVE_TIERS
        assert pow(2, n - 1, n) == 1
        assert is_prime(n) == sympy.isprime(n)
        assert not is_prime(n)


def test_is_prime_matches_sieve_below_10k() -> None:
    primes = set(sieve_primes(10000))
    for n in range(10000 + 1):
        assert is_prime(n) == (n in primes)


def test_is_prime_matches_sympy_on_randoms() -> None:
    rng = random.Random(20240817)
    for _ in range(500):
        n = rng.randrange(2, 10**13)
        assert is_prime(n) == sympy.isprime(n)


# --- prime sieve ---------------------------------------------------------------

_SEGMENT = arith._SEGMENT
# Integers per segment: _SEGMENT bytes, one per odd number.
_SPAN = 2 * _SEGMENT


@pytest.mark.parametrize(
    ("lo", "hi"),
    [(lo, hi) for lo in range(5) for hi in range(1, 5)]
    + [(5, 4), (3, 0), (0, -7)]
    # Windows across the segment edges at lo + 2**20 and lo + 2 * 2**20.
    # 2**20 + 7 is prime: a segment one short drops it from the first
    # segment (lo = 8), one too long yields it twice (lo = 7).
    + [(0, 2 * _SPAN + 64), (7, 2 * _SPAN + 64), (8, 2 * _SPAN + 64), (_SPAN - 3, 3 * _SPAN)]
    + [(_SPAN - 64, _SPAN + 64), (2 * _SPAN - 64, 2 * _SPAN + 64)]
    # Both ends odd and even, within 2 of a segment edge.
    + [(_SPAN + d, k * _SPAN + e) for d in range(-2, 3) for k in (1, 2) for e in range(-2, 3)],
)
def test_primes_between_matches_sympy(lo: int, hi: int) -> None:
    assert list(arith._primes_between(lo, hi)) == list(sympy.sieve.primerange(lo, hi + 1))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 5000), st.integers(0, 5000), st.sampled_from([1, 2, 3, 7, 64, _SEGMENT]))
def test_primes_between_property(a: int, b: int, segment: int) -> None:
    # Short segments put many segment edges inside a small window.
    lo, hi = min(a, b), max(a, b)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(arith, "_SEGMENT", segment)
        found = list(arith._primes_between(lo, hi))
    assert found == [n for n in range(lo, hi + 1) if is_prime(n)]


def test_sieve_primes_small_limits() -> None:
    assert [sieve_primes(n) for n in (-3, 0, 1, 2, 3, 4)] == [[], [], [], [2], [2, 3], [2, 3]]


def test_gaussian_pow_multiplies_only_what_it_uses(monkeypatch: pytest.MonkeyPatch) -> None:
    # popcount(k) products into the result and bit_length(k) - 1 squarings:
    # the base is not squared again after the top bit.
    for base in (GaussianInt(5, 1), GaussianInt(-2, 3), GaussianInt(0, 1)):
        expected = GaussianInt(1, 0)
        for k in range(41):
            assert base**k == expected, (base, k)
            expected = expected * base
    calls = []
    plain = GaussianInt.__mul__

    def counted(self, other):
        calls.append(1)
        return plain(self, other)

    monkeypatch.setattr(GaussianInt, "__mul__", counted)
    for k in [*range(1, 70), 400000]:
        calls.clear()
        GaussianInt(5, 1) ** k
        assert len(calls) == bin(k).count("1") + k.bit_length() - 1, k


def test_sieve_primes_is_entered_once_per_call(monkeypatch: pytest.MonkeyPatch) -> None:
    # The base primes come from _primes_between itself, so a wrapper on the
    # public name (as a tracer installs it) counts outermost calls only.
    calls = []

    def counting(limit: int) -> list[int]:
        calls.append(limit)
        return sieve_primes(limit)

    monkeypatch.setattr(arith, "sieve_primes", counting)
    primes = arith.sieve_primes(10**6)
    assert calls == [10**6]
    assert len(primes) == 78498 and primes[-1] == 999983


# --- factorization -------------------------------------------------------------

def test_factorize_examples() -> None:
    assert factorize(226).factors == ((2, 1), (113, 1))
    # 70^2 + 1 = 4901 = 13^2 * 29
    assert factorize(4901).factors == ((13, 2), (29, 1))
    assert factorize(1).factors == ()


def test_factorize_rejects_nonpositive() -> None:
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(-12)


def test_factorize_round_trip_randoms() -> None:
    rng = random.Random(1)
    for _ in range(400):
        n = rng.randrange(1, 10**13)
        fact = factorize(n)
        assert fact.value() == n
        assert all(is_prime(p) for p in fact.primes())
        assert list(fact.primes()) == sorted(set(fact.primes()))


def test_factorize_matches_sympy() -> None:
    rng = random.Random(2)
    for _ in range(120):
        n = rng.randrange(2, 10**10)
        assert dict(factorize(n).factors) == sympy.factorint(n)


def test_largest_prime_factor() -> None:
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randrange(2, 10**12)
        assert largest_prime_factor(n) == max(sympy.factorint(n))
    # x**2 + 1 of 40 to 80 bits, the values a single Stormer query factors
    for bits in (20, 25, 30, 35, 40):
        x = rng.getrandbits(bits) | 1 << (bits - 1)
        assert largest_prime_factor(x * x + 1) == max(sympy.factorint(x * x + 1)), x
    with pytest.raises(ValueError):
        largest_prime_factor(1)


def test_factorize_semiprime_near_rho_range() -> None:
    # both factors beyond the trial-division stage
    p, q = 999983, 999979
    assert factorize(p * q).factors == ((q, 1), (p, 1))


# x = 1, 7, 18, 57, 239: x**2 + 1 = 2, 2*5**2, 5**2*13, 2*5**3*13, 2*13**4
@settings(max_examples=40, deadline=None)
@given(st.integers(1, 10**12))
@example(1)
@example(7)
@example(18)
@example(57)
@example(239)
def test_factorize_norm_of_x_squared_plus_one_matches_sympy(x: int) -> None:
    n = x * x + 1
    assert dict(arith._factorize_norm(n)) == sympy.factorint(n)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 10**6), st.integers(1, 10**6))
def test_factorize_norm_of_coprime_squares_matches_sympy(a: int, b: int) -> None:
    g = math.gcd(a, b)
    n = (a // g) ** 2 + (b // g) ** 2
    assert dict(arith._factorize_norm(n)) == sympy.factorint(n)


# The trial stage takes g = gcd(n, product of the trial primes), splits g and
# divides each prime of g out of n as often as it goes.  Inputs are drawn as
# prime powers up to just past _TRIAL_LIMIT times a tail, so that g holds
# several primes, some to powers above 1, with one left over after the split.
_NEAR_LIMIT = sieve_primes(1100)
_NEAR_LIMIT_NORM = [p for p in _NEAR_LIMIT if p % 4 == 1]


def _first_quadrant_prime(p: int) -> GaussianInt:
    """a + bi with a**2 + b**2 = p, for p == 1 (mod 4), by search."""
    a = next(a for a in range(1, math.isqrt(p) + 1) if math.isqrt(p - a * a) ** 2 == p - a * a)
    return GaussianInt(a, math.isqrt(p - a * a))


@st.composite
def _trial_prime_products(draw: st.DrawFn) -> int:
    powers = draw(st.dictionaries(st.sampled_from(_NEAR_LIMIT), st.integers(1, 4), max_size=6))
    return math.prod(p**e for p, e in powers.items()) * draw(st.just(1) | st.integers(1, 10**6))


@st.composite
def _content_one_norms(draw: st.DrawFn) -> int:
    """The norm of (1 + i)**(0 or 1) times powers of Gaussian primes over
    distinct p == 1 (mod 4), each taken or conjugated: content 1."""
    z = GaussianInt(1, draw(st.integers(0, 1)))
    powers = draw(st.dictionaries(st.sampled_from(_NEAR_LIMIT_NORM), st.integers(1, 4), max_size=5))
    for p, e in powers.items():
        pi = _first_quadrant_prime(p)
        z = z * (pi.conjugate() if draw(st.booleans()) else pi) ** e
    assert math.gcd(z.re, z.im) == 1
    return z.norm()


@settings(max_examples=300, deadline=None)
@given(_trial_prime_products())
@example(1)
@example(2**40)
@example(5**17 * 13**3)
@example(997)  # the largest trial prime
@example(1009)  # the smallest prime past it
@example(997**2)  # below _TRIAL_LIMIT**2, so only the gcd can split it
@example(1009**2)
@example(1009 * 1013)
@example(997**2 * 1009)
@example(1000003)  # a prime just above 10**6
def test_factorize_of_trial_prime_products_matches_sympy(n: int) -> None:
    assert dict(factorize(n).factors) == sympy.factorint(n)


@settings(max_examples=300, deadline=None)
@given(_content_one_norms())
@example(1)
@example(2)
@example(5**17 * 13**3)
@example(997)
@example(1009)
@example(997**2)
@example(1009**2)
@example(1009 * 1013)
@example(997**2 * 1009)
@example(1000033)  # a prime == 1 (mod 4) just above 10**6
def test_factorize_norm_of_gaussian_products_matches_sympy(n: int) -> None:
    assert dict(arith._factorize_norm(n)) == sympy.factorint(n)


def _factorize_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """factorize(n)'s pairs, as _factorize_norm returns them."""
    return factorize(n).factors


@pytest.mark.parametrize(
    "primes, factor", [(_NEAR_LIMIT, _factorize_pairs), (_NEAR_LIMIT_NORM, arith._factorize_norm)], ids=["all", "norm"]
)
def test_trial_stage_finds_each_prime_to_its_power(primes: list[int], factor) -> None:
    # A trial prime missing from the gcd leaves its square, below
    # _TRIAL_LIMIT**2, to the cofactor rule, which would call it prime.  In
    # p**2 * q**3 for neighbours p < q, q is the prime g leaves over.
    for p, q in zip(primes, primes[1:]):
        assert factor(p**2) == ((p, 2),), p
        assert factor(p**2 * q**3) == ((p, 2), (q, 3)), (p, q)


def test_factorize_norm_of_x_squared_plus_one_to_2e4() -> None:
    for x in range(1, 20001):
        n = x * x + 1
        assert dict(arith._factorize_norm(n)) == sympy.factorint(n), x


def test_norms_of_x_squared_plus_one_to_1e4_need_no_miller_rabin_or_rho(monkeypatch: pytest.MonkeyPatch) -> None:
    # The second norm stage tries the primes == 1 (mod 4) below 1e4, so a
    # cofactor below 1e8, such as any left by x**2 + 1 for x <= 1e4, is 1 or
    # prime by the trial bound alone.
    calls = []
    for name in ("_miller_rabin", "_brent_rho"):
        real = getattr(arith, name)
        monkeypatch.setattr(arith, name, lambda *args, _name=name, _real=real: calls.append(_name) or _real(*args))
    for x in range(1, 10001):
        arith._factorize_norm(x * x + 1)
    assert calls == []
    # A cofactor past 1e8 still takes Miller-Rabin and then rho.
    assert arith._factorize_norm(10009**2) == ((10009, 2),)
    assert set(calls) == {"_miller_rabin", "_brent_rho"}


# Products of primes == 1 (mod 4) on either side of the norm stages' limits,
# 1000 and 1e4, and cofactors on either side of 1e6 and 1e8, the bounds below
# which a cofactor left by one stage or by both is 1 or prime.
@pytest.mark.parametrize("n", [
    997 * 1009,
    1009 * 1013,
    1009**2 * 1013,
    999961,  # the largest prime == 1 (mod 4) below 1e6
    1000033,
    9973**2,
    9973 * 10009,
    9901 * 9949 * 9973,
    2 * 5**3 * 1009**3 * 9973 * 10009,
    10009**2,
    10009 * 10037,
    99999989,  # the largest prime == 1 (mod 4) below 1e8
    100000037,  # the least prime == 1 (mod 4) above 1e8
    2 * 5 * 99999989,
    2 * 1009 * 100000037,
    9973 * 100000037,
])
@pytest.mark.parametrize("factor", [_factorize_pairs, arith._factorize_norm], ids=["all", "norm"])
def test_factorize_at_the_norm_stage_boundaries_matches_sympy(factor, n: int) -> None:
    assert dict(factor(n)) == sympy.factorint(n)


# The pairs come out in the order they are found, with no sort but of the
# primes rho finds: largest_prime(), and every reader of _factorize_norm,
# reads the last one.  Draws take small
# prime powers times primes just past 1e4, and 2 at most once, so that two or
# more of the large ones leave a composite cofactor past both trial bounds,
# 1e6 and 1e8, and reach rho.
_PAST_THE_STAGES = list(sympy.primerange(10_000, 10_300))
_PAST_THE_NORM_STAGES = [p for p in _PAST_THE_STAGES if p % 4 == 1]


@st.composite
def _products_past_the_stages(draw: st.DrawFn, small: list[int], large: list[int]) -> int:
    powers = draw(st.dictionaries(st.sampled_from(small), st.integers(1, 3), max_size=4))
    powers |= draw(st.dictionaries(st.sampled_from(large), st.integers(1, 2), max_size=3))
    return math.prod(p**e for p, e in powers.items()) * draw(st.sampled_from((1, 2)))


def _assert_ascending_primes(n: int, factors: tuple[tuple[int, int], ...], largest: int) -> None:
    primes = [p for p, _ in factors]
    assert all(p < q for p, q in zip(primes, primes[1:])), factors
    assert all(sympy.isprime(p) and e >= 1 for p, e in factors), factors
    assert math.prod(p**e for p, e in factors) == n
    assert largest == max(primes, default=1)


@settings(max_examples=200, deadline=None)
@given(_products_past_the_stages(_NEAR_LIMIT, _PAST_THE_STAGES))
@example(1)
@example(10007 * 10009)
@example(12 * 10009 * 10007)
@example(2**3 * 3 * 997**2 * 10037 * 10039 * 10061)
@example(997 * 999983 * 1000003)
def test_factorize_gives_ascending_primes(n: int) -> None:
    f = factorize(n)
    _assert_ascending_primes(n, f.factors, f.largest_prime())


@settings(max_examples=200, deadline=None)
@given(_products_past_the_stages(_NEAR_LIMIT_NORM, _PAST_THE_NORM_STAGES))
@example(1)
@example(10009 * 10037)
@example(2 * 5 * 13 * 10037 * 10009)
@example(5**2 * 9973 * 10037**2 * 10061 * 10069)
@example(2 * 1009 * 99999989 * 100000037)
def test_factorize_norm_gives_ascending_primes(n: int) -> None:
    factors = arith._factorize_norm(n)
    _assert_ascending_primes(n, factors, factors[-1][0] if factors else 1)


def test_prime_factorization_is_a_slotted_frozen_value() -> None:
    f = factorize(50)
    assert f == arith.PrimeFactorization(((2, 1), (5, 2))) and hash(f) == hash(arith.PrimeFactorization(((2, 1), (5, 2))))
    assert f != factorize(10)
    assert repr(f) == "PrimeFactorization(factors=((2, 1), (5, 2)))"
    with pytest.raises(dataclasses.FrozenInstanceError):
        f.factors = ()  # type: ignore[misc]
    assert not hasattr(f, "__dict__")
    assert pickle.loads(pickle.dumps(f)) == f
    assert (f.value(), f.largest_prime(), f.primes()) == (50, 5, (2, 5))


# --- extended gcd ---------------------------------------------------------------

def test_extended_gcd_examples() -> None:
    assert extended_gcd(1, 0) == (1, 1, 0)
    # 18d - 5c = 1 has the solution (c, d) = (7, 2)
    g, u, v = extended_gcd(18, -5)
    assert 18 * u - 5 * v == g == 1
    assert 18 * 2 - 5 * 7 == 1
    # 3d + 2c = -1 admits (c, d) = (1, -1)
    assert 3 * (-1) + 2 * 1 == -1


def test_extended_gcd_rejects_zero_pair() -> None:
    with pytest.raises(ValueError):
        extended_gcd(0, 0)


@given(st.integers(-(10**9), 10**9), st.integers(-(10**9), 10**9))
def test_extended_gcd_bezout(a: int, b: int) -> None:
    if a == 0 and b == 0:
        return
    g, u, v = extended_gcd(a, b)
    assert g == math.gcd(a, b) > 0
    assert u * a + v * b == g


def test_extended_gcd_bezout_bulk() -> None:
    rng = random.Random(4)
    for _ in range(10**5):
        a = rng.randrange(-(10**12), 10**12)
        b = rng.randrange(-(10**12), 10**12)
        if a == 0 and b == 0:
            continue
        g, u, v = extended_gcd(a, b)
        assert u * a + v * b == g == math.gcd(a, b)


# --- exact division -----------------------------------------------------------

def _exact_bits(n: int, seed: int) -> int:
    """A fixed pseudo-random int of exactly n bits."""
    return random.Random(seed).getrandbits(n) | 1 << (n - 1)


# Native divmod serves divisors and quotients up to this many bits.
_LIMIT = arith._DIV_LIMIT
_B = _exact_bits(3 * _LIMIT + 1, 1)  # odd bit length: the padding branch
_Q = _exact_bits(2 * _LIMIT + 7, 2)


@st.composite
def _division(draw) -> tuple[int, int]:
    """(a, b) with a = q*b + r: b and q up to three times the crossover in
    bits, and r either 0, b - 1 or any remainder."""
    b_bits = draw(st.integers(1, 3 * _LIMIT))
    b = draw(st.integers(1 << (b_bits - 1), (1 << b_bits) - 1))
    q = draw(st.integers(0, 1 << draw(st.integers(0, 3 * _LIMIT))))
    r = draw(st.sampled_from([0, b - 1]) | st.integers(0, b - 1))
    return q * b + r, b


@settings(max_examples=150, deadline=None)
@given(_division())
@example((_Q * _B, _B))  # an exact multiple
@example((_Q * _B - 1, _B))
@example((_Q * _B + _B - 1, _B))
@example((_B - 1, _B))  # a < b
@example((0, _B))
@example(((_B << _B.bit_length()) - 1, _B))  # every quotient bit set
@example((_Q << 3 * _LIMIT, 1 << 3 * _LIMIT))  # b = 2**k
@example((_Q * ((1 << 3 * _LIMIT) - 1) + 5, (1 << 3 * _LIMIT) - 1))  # b = 2**k - 1
@example((_exact_bits(3 * _LIMIT, 3), _exact_bits(_LIMIT - 1, 4)))  # divisors around the crossover
@example((_exact_bits(3 * _LIMIT, 3), _exact_bits(_LIMIT, 4)))
@example((_exact_bits(3 * _LIMIT, 3), _exact_bits(_LIMIT + 1, 4)))
@example((_exact_bits(2 * _LIMIT + 2, 5), _exact_bits(_LIMIT + 1, 6)))
def test_divmod_matches_native(case: tuple[int, int]) -> None:
    a, b = case
    assert arith._divmod(a, b) == divmod(a, b)


@pytest.mark.parametrize("limit", [8, 33])
def test_divmod_matches_native_when_every_step_recurses(limit: int, monkeypatch: pytest.MonkeyPatch) -> None:
    # A small crossover sends every size through several levels of 2n/n
    # and 3n/2n steps, odd and even, that the real one reaches only at
    # millions of bits.
    monkeypatch.setattr(arith, "_DIV_LIMIT", limit)
    rng = random.Random(limit)
    for _ in range(400):
        b = _exact_bits(rng.randrange(1, 1500), rng.getrandbits(32))
        q = rng.getrandbits(rng.randrange(0, 3000))
        a = max(q * b + rng.choice([0, -1, b - 1, rng.randrange(b)]), 0)
        assert arith._divmod(a, b) == divmod(a, b), (a, b)


# --- Gaussian integers ------------------------------------------------------------

def test_gaussian_basic_ops() -> None:
    z = GaussianInt(3, 1)
    w = GaussianInt(1, 2)
    assert z * w == GaussianInt(1, 7)
    assert (z * w).norm() == z.norm() * w.norm()
    assert z.conjugate() == GaussianInt(3, -1)
    assert GaussianInt(2, 3) ** 4 == GaussianInt(2, 3) * GaussianInt(2, 3) * GaussianInt(2, 3) * GaussianInt(2, 3)


@given(
    st.integers(-(10**6), 10**6), st.integers(-(10**6), 10**6),
    st.integers(-(10**6), 10**6), st.integers(-(10**6), 10**6),
)
def test_norm_multiplicative(a: int, b: int, c: int, d: int) -> None:
    z, w = GaussianInt(a, b), GaussianInt(c, d)
    assert (z * w).norm() == z.norm() * w.norm()


def _reassemble(unit: GaussianInt, factors) -> GaussianInt:
    out = unit
    for prime, e in factors:
        out = out * prime**e
    return out


def test_gaussian_factorize_examples() -> None:
    unit, factors = gaussian_factorize(GaussianInt(3, 1))
    assert unit == GaussianInt(0, -1)
    assert factors == ((GaussianInt(1, 1), 1), (GaussianInt(1, 2), 1))

    unit, factors = gaussian_factorize(GaussianInt(239, 1))
    assert unit == GaussianInt(0, 1)
    assert factors == ((GaussianInt(1, 1), 1), (GaussianInt(2, 3), 4))

    unit, factors = gaussian_factorize(GaussianInt(2, 0))
    assert unit == GaussianInt(0, -1)
    assert factors == ((GaussianInt(1, 1), 2),)
    assert _reassemble(unit, factors) == GaussianInt(2, 0)


def test_gaussian_factorize_rejects_zero() -> None:
    with pytest.raises(ValueError):
        gaussian_factorize(GaussianInt(0, 0))


def test_gaussian_factorize_round_trip_randoms() -> None:
    rng = random.Random(5)
    for _ in range(250):
        z = GaussianInt(rng.randrange(-31622, 31623), rng.randrange(-31622, 31623))
        if z.is_zero():
            continue
        assert z.norm() <= 2 * 31623**2
        unit, factors = gaussian_factorize(z)
        assert unit.is_unit()
        assert _reassemble(unit, factors) == z
        for prime, e in factors:
            assert e >= 1
            assert prime.re > 0 and prime.im >= 0
            n = prime.norm()
            assert is_prime(n) or (prime.im == 0 and is_prime(prime.re) and prime.re % 4 == 3)


@settings(max_examples=60)
@given(st.integers(-400, 400), st.integers(-400, 400))
def test_gaussian_factorize_round_trip_hypothesis(a: int, b: int) -> None:
    z = GaussianInt(a, b)
    if z.is_zero():
        return
    unit, factors = gaussian_factorize(z)
    assert _reassemble(unit, factors) == z


def _sqrt_split_reference(z: GaussianInt):
    """gaussian_factorize as it was before the gcd split: the whole norm
    through factorize, and every p == 1 (mod 4) split through a square root
    of -1 mod p, trying both Gaussian primes over p."""
    residual = z
    found = []
    for p, e in factorize(z.norm()).factors:
        if p == 2:
            primes = [GaussianInt(1, 1)]
        elif p % 4 == 3:
            primes = [GaussianInt(p, 0)]
        else:
            _, pi = arith.gaussian_gcd(GaussianInt(p, 0), GaussianInt(sqrt_minus_one_mod_p(p), 1)).canonical_associate()
            primes = [pi, GaussianInt(pi.im, pi.re)]
        for prime in primes:
            count = 0
            while prime.divides(residual):
                residual = residual.exact_div(prime)
                count += 1
            if count:
                found.append((prime, count))
    assert residual.is_unit()
    found.sort(key=lambda fe: (fe[0].norm(), fe[0].im))
    return residual, tuple(found)


def _primes_over(p: int) -> tuple[GaussianInt, GaussianInt]:
    """The two first-quadrant Gaussian primes a+bi, b+ai over p == 1 (mod 4),
    found by search for p = a**2 + b**2."""
    a = next(a for a in range(1, math.isqrt(p) + 1) if math.isqrt(p - a * a) ** 2 == p - a * a)
    b = math.isqrt(p - a * a)
    return GaussianInt(a, b), GaussianInt(b, a)


_SPLIT_PRIMES = [p for p in sieve_primes(400) if p % 4 == 1]


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(_SPLIT_PRIMES), st.booleans(), st.integers(1, 5)),
        max_size=5,
        unique_by=lambda t: t[0],
    ),
    st.integers(0, 1),
    st.integers(0, 3),
)
def test_gaussian_factorize_content_one_products(
    powers: list[tuple[int, bool, int]], ramified: int, quarter_turns: int
) -> None:
    # One Gaussian prime over each p, and (1+i) at most once, so that no
    # rational prime divides z: each p == 1 (mod 4) has one of its two
    # Gaussian primes dividing z, and the split must find which.
    unit = GaussianInt(0, 1) ** quarter_turns
    z = unit * GaussianInt(1, 1) ** ramified
    expected = [(GaussianInt(1, 1), 1)] if ramified else []
    for p, conjugate_side, e in powers:
        prime = _primes_over(p)[conjugate_side]
        z = z * prime**e
        expected.append((prime, e))
    assert math.gcd(z.re, z.im) == 1
    got_unit, factors = gaussian_factorize(z)
    assert _reassemble(got_unit, factors) == z
    assert sorted(factors, key=lambda fe: (fe[0].norm(), fe[0].im)) == list(factors)
    assert sorted(factors, key=str) == sorted(expected, key=str)
    assert (got_unit, factors) == _sqrt_split_reference(z)


@pytest.mark.parametrize(
    ("content", "w"),
    [(5, (2, 1)), (13, (3, 2)), (5, (1, 2)), (25, (2, 1)), (65, (8, 1)), (2, (3, 2)),
     (3, (2, 1)), (10, (7, 1)), (15, (1, 0)), (5 * 13 * 17, (4, 1)), (9, (3, 0)),
     (5, (4, 1)), (13, (2, 1)), (7 * 13, (12, 5))],
)
def test_gaussian_factorize_content_above_one(content: int, w: tuple[int, int]) -> None:
    # Primes dividing the content bring both of their Gaussian primes; the
    # others, such as 17 in 5*(4+i) or 5 in 13*(2+i), bring only one.
    for z in (GaussianInt(content * w[0], content * w[1]), GaussianInt(-content * w[1], content * w[0])):
        unit, factors = gaussian_factorize(z)
        assert _reassemble(unit, factors) == z
        assert (unit, factors) == _sqrt_split_reference(z)


@settings(max_examples=150, deadline=None)
@given(st.integers(-3000, 3000), st.integers(-3000, 3000), st.integers(1, 120))
def test_gaussian_factorize_matches_sqrt_reference(a: int, b: int, content: int) -> None:
    z = GaussianInt(content * a, content * b)
    if z.is_zero():
        return
    assert gaussian_factorize(z) == _sqrt_split_reference(z)


def _prime_over_by_gcd(p: int, r: int) -> tuple[int, int]:
    """The first-quadrant associate of gcd(p, r + i) in Z[i]."""
    _, pi = arith.gaussian_gcd(GaussianInt(p, 0), GaussianInt(r, 1)).canonical_associate()
    return pi.re, pi.im


def _check_prime_over(p: int) -> None:
    roots = sympy.sqrt_mod(-1, p, all_roots=True)
    assert len(roots) == 2
    got = {r: arith._prime_over(p, r) for r in roots}
    for r, (a, b) in got.items():
        assert a * a + b * b == p and a > 0 and b > 0, (p, r)
        assert (a, b) == _prime_over_by_gcd(p, r), (p, r)
        # Unreduced roots name the same prime.
        assert arith._prime_over(p, r - p) == arith._prime_over(p, r + 3 * p) == (a, b)


def test_prime_over_matches_gaussian_gcd_below_2e4() -> None:
    primes = [p for p in sieve_primes(2 * 10**4) if p % 4 == 1]
    assert len(primes) == 1125
    for p in primes:
        _check_prime_over(p)


@settings(max_examples=60, deadline=None)
@given(st.integers(40, 128), st.integers(0, 2**128))
def test_prime_over_matches_gaussian_gcd_on_large_primes(bits: int, seed: int) -> None:
    p = sympy.nextprime(2 ** (bits - 1) + seed % 2 ** (bits - 1))
    while p % 4 != 1:
        p = sympy.nextprime(p)
    _check_prime_over(p)


_MODULUS_PRIMES = [p for p in sieve_primes(2000) if p % 4 == 1] + [10**9 + 9, 10**20 + 129]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from(_MODULUS_PRIMES), st.integers(1, 3), st.booleans()), min_size=1, max_size=4)
)
@example([(5, 1, False), (13, 1, True)])
@example([(5, 2, False)])
@example([(5, 1, True), (5, 1, False), (13, 2, True)])
def test_prime_over_on_composite_moduli(parts: list[tuple[int, int, bool]]) -> None:
    # m = prod(p**k) over primes p == 1 (mod 4), and r the root of -1 mod m
    # that is +-S(p**k) on each part, joined by CRT: the stopped Euclid gives
    # the first-quadrant a + bi of norm m that divides r + i, as for a prime.
    powers: dict[int, int] = {}
    signs: dict[int, bool] = {}
    for p, k, sign in parts:
        powers[p] = powers.get(p, 0) + k
        signs[p] = sign
    m = math.prod(p**k for p, k in powers.items())
    r = 0
    for p, k in powers.items():
        q = p**k
        s = min(sympy.sqrt_mod(-1, q, all_roots=True))
        s = q - s if signs[p] else s
        r += s * (m // q) * pow(m // q, -1, q)
    r %= m
    assert (r * r + 1) % m == 0
    a, b = arith._prime_over(m, r)
    assert a * a + b * b == m and a > 0 and b > 0
    # (a + bi) divides r + i: (r + i)(a - bi) is m times a Gaussian integer.
    assert (r * a + b) % m == 0 and (a - r * b) % m == 0
    assert (a, b) == _prime_over_by_gcd(m, r) == arith._prime_over(m, r - m)


# --- square roots of -1 ------------------------------------------------------------

def test_sqrt_minus_one_examples() -> None:
    assert sqrt_minus_one_mod_p(13) in (5, 8)
    assert sqrt_minus_one_mod_p(5) in (2, 3)
    assert sqrt_minus_one_mod_p(17) in (4, 13)


def test_sqrt_minus_one_rejects_bad_inputs() -> None:
    with pytest.raises(ValueError):
        sqrt_minus_one_mod_p(7)  # 3 mod 4
    with pytest.raises(ValueError):
        sqrt_minus_one_mod_p(21)  # composite
    # x = 1 solves x^2 == -1 (mod 2): the refusal names the requirement instead.
    with pytest.raises(ValueError, match=r"^2 is prime but not == 1 \(mod 4\): a prime p == 1 \(mod 4\) is required$"):
        sqrt_minus_one_mod_p(2)


def test_sqrt_minus_one_core_raises_without_a_root() -> None:
    # The unchecked core behind sqrt_minus_one_mod_p must fail loudly, not
    # return a wrong root, when handed a number that is not a prime 1 mod 4.
    with pytest.raises(ArithmeticError):
        arith._sqrt_minus_one(21)


def test_sqrt_minus_one_mod_p_bulk() -> None:
    for p in sieve_primes(20000):
        if p % 4 == 1:
            x = sqrt_minus_one_mod_p(p)
            assert 1 <= x <= p - 1
            assert (x * x + 1) % p == 0


def _least_non_residue_by_search(p: int) -> int:
    """The least a whose a**((p-1)/2) is -1 mod p, found by trying a = 2, 3, ..."""
    return next(a for a in range(2, p) if pow(a, (p - 1) // 2, p) == p - 1)


def _check_root(p: int) -> None:
    x = arith._sqrt_minus_one(p)
    assert min(x, p - x) == sympy.sqrt_mod(p - 1, p)
    # One pow of the least non-residue: the same base, and so the same root,
    # as trying a = 2, 3, ... in turn.
    base = _least_non_residue_by_search(p)
    assert arith._least_non_residue(p) == base
    assert x == pow(base, (p - 1) // 4, p)


def test_sqrt_minus_one_matches_sympy_below_2e5() -> None:
    for p in sieve_primes(2 * 10**5):
        if p % 4 == 1:
            _check_root(p)


def test_sqrt_minus_one_matches_sympy_from_20_to_90_bits() -> None:
    rng = random.Random(20_90)
    for bits in range(20, 91):
        found = 0
        while found < 30:
            p = rng.getrandbits(bits) | 1 << (bits - 1) | 1
            if p % 4 == 1 and sympy.isprime(p):
                _check_root(p)
                found += 1
