from __future__ import annotations

import math
import random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from stormerkit.arith import sieve_primes
from stormerkit.twosquares import continuant, euclid_quotients, two_squares


def test_continuant_examples() -> None:
    assert continuant([2, 1, 1, 2]) == 13
    assert continuant([1, 1, 2]) == 5
    assert continuant([7]) == 7
    assert continuant([]) == 1


def test_continuant_rejects_nonpositive_entries() -> None:
    with pytest.raises(ValueError):
        continuant([2, 0, 1])
    with pytest.raises(ValueError):
        continuant([-1])


def _tridiagonal_determinant(qs: list[int]) -> int:
    """Direct determinant of the defining tridiagonal matrix (oracle)."""
    m = len(qs)
    mat = sympy.zeros(m, m)
    for i in range(m):
        mat[i, i] = qs[i]
        if i + 1 < m:
            mat[i, i + 1] = 1
            mat[i + 1, i] = -1
    return int(mat.det())


def test_continuant_matches_determinant_definition() -> None:
    rng = random.Random(6)
    for _ in range(80):
        qs = [rng.randrange(1, 10) for _ in range(rng.randrange(1, 9))]
        assert continuant(qs) == _tridiagonal_determinant(qs)


@given(st.lists(st.integers(1, 50), min_size=1, max_size=12))
def test_continuant_reversal(qs: list[int]) -> None:
    assert continuant(qs) == continuant(list(reversed(qs)))


def test_euclid_quotients_examples() -> None:
    assert euclid_quotients(13, 5) == [2, 1, 1, 2]
    assert euclid_quotients(5, 2) == [2, 2]
    for n in (2, 4, 9, 100):
        assert euclid_quotients(n + 1, n) == [1, n]
    # the final quotient absorbs an exact division, so 2/1 is [2], not [1, 1]
    assert euclid_quotients(2, 1) == [2]


def test_euclid_quotients_rejects_bad_ratio() -> None:
    with pytest.raises(ValueError):
        euclid_quotients(5, 5)
    with pytest.raises(ValueError):
        euclid_quotients(5, 7)
    with pytest.raises(ValueError):
        euclid_quotients(5, 0)


@settings(max_examples=200)
@given(st.integers(2, 10**6), st.integers(1, 10**6))
def test_euclid_quotients_regenerate_ratio(s: int, r: int) -> None:
    if r >= s or math.gcd(s, r) != 1:
        return
    qs = euclid_quotients(s, r)
    assert continuant(qs) == s
    assert continuant(qs[1:]) == r


def _brute_force_two_squares(p: int) -> list[tuple[int, int]]:
    hits = []
    for a in range(1, math.isqrt(p) + 1):
        b2 = p - a * a
        b = math.isqrt(b2)
        if b >= 1 and b * b == b2 and a >= b:
            hits.append((a, b))
    return hits


def test_two_squares_examples() -> None:
    result = two_squares(13)
    assert (result.a, result.b) == (3, 2)
    assert result.palindrome == (2, 1, 1, 2)
    assert result.x0 == 5

    assert _brute_force_two_squares(5) == [(2, 1)]
    result = two_squares(5)
    assert (result.a, result.b) == (2, 1)

    assert _brute_force_two_squares(41) == [(5, 4)]
    result = two_squares(41)
    assert (result.a, result.b) == (5, 4)


def test_two_squares_rejects_bad_inputs() -> None:
    with pytest.raises(ValueError):
        two_squares(7)  # no representation for p == 3 (mod 4)
    # 2 = 1^2 + 1^2, so the refusal names the requirement, not a missing sum.
    with pytest.raises(ValueError, match=r"^2 is prime but not == 1 \(mod 4\): a prime p == 1 \(mod 4\) is required$"):
        two_squares(2)
    with pytest.raises(ValueError):
        two_squares(65)  # composite


def test_two_squares_against_brute_force_below_10k() -> None:
    for p in sieve_primes(10**4):
        if p % 4 != 1:
            continue
        result = two_squares(p)
        assert _brute_force_two_squares(p) == [(result.a, result.b)]


def test_two_squares_structure_sweep() -> None:
    for p in sieve_primes(20000):
        if p % 4 != 1:
            continue
        result = two_squares(p)
        qs = result.palindrome
        assert result.a**2 + result.b**2 == p
        assert result.a > result.b >= 1
        assert math.gcd(result.a, result.b) == 1
        assert len(qs) % 2 == 0
        assert list(qs) == list(reversed(qs))
        # dropping the first entry of the palindrome recovers x0
        assert continuant(qs[1:]) == result.x0
