"""Acceptance suite.

One test per criterion, each ending with a printed PASS line (pytest -s
shows them; a failed assertion is the FAIL line).  The heavyweight
enumeration up to 10**6 is shared through a session fixture.
"""

from __future__ import annotations

import bisect
import math
import random
import time

import pytest

from stormerkit.arith import GaussianInt, gaussian_factorize, sieve_primes
from stormerkit.density import LN2, count_large_factor, heuristic_probability
from stormerkit.gregory import (
    ArcTerm,
    GregoryCombo,
    decompose,
    is_irreducible,
    occurs_among_earlier,
    verify_identity,
)
from stormerkit.pidigits import FORMULAS, classical_bounds_check, compare_digits, compute_pi
from stormerkit.stormer import (
    Convention,
    check_factor_residues,
    enumerate_stormer,
    is_stormer,
    prime_stormer_table,
)
from stormerkit.twosquares import continuant, two_squares

from _tables import TABLE1, TABLE2, TABLE3

T1 = GregoryCombo.of_integers({1: 1})


def _report(num: int, message: str) -> None:
    print(f"\ncriterion {num}: PASS - {message}")


@pytest.fixture(scope="session")
def stormer_to_1e6() -> tuple[list[int], float]:
    start = time.time()
    values = enumerate_stormer(10**6, Convention.INCLUSIVE)
    return values, time.time() - start


def test_criterion_01_table1(stormer_to_1e6) -> None:
    start = time.time()
    table = [(pair.p, pair.x0) for pair in prime_stormer_table(373)]
    elapsed = time.time() - start
    assert len(table) == 35
    assert table == TABLE1
    assert elapsed < 1.0
    _report(1, f"35 pairs (5,2)..(373,104) reproduced in {elapsed:.3f}s "
               "(S(89) = 34 and S(197) = 14)")


def test_criterion_02_table2() -> None:
    start = time.time()
    values = enumerate_stormer(107, Convention.INCLUSIVE)
    elapsed = time.time() - start
    assert values == TABLE2
    assert elapsed < 1.0
    _report(2, f"all {len(TABLE2)} Stormer numbers <= 107 reproduced in {elapsed:.3f}s "
               "(89 qualifies: 89^2+1 = 2*17*233 and 233 >= 179)")


def test_criterion_03_table3(stormer_to_1e6) -> None:
    values, enum_seconds = stormer_to_1e6
    matches = []
    for limit, reference, expected_measure in TABLE3:
        inclusive = bisect.bisect_right(values, limit)
        counts = {"inclusive": inclusive, "strict": inclusive - 1}
        if limit <= 1000:
            counts["large-factor"] = count_large_factor(limit).count
        matched = [name for name, count in counts.items() if count == reference]
        assert matched, f"no measure reproduces the reference count {reference} at {limit}: {counts}"
        assert expected_measure in matched
        matches.append(f"{limit}:{reference}={'/'.join(matched)}")
    assert enum_seconds < 30  # one sieve by the roots +-S(p); per-candidate factoring took ~75 s
    _report(3, f"reference counts reproduced ({'; '.join(matches)}) with the 10^6 pass in "
               f"{enum_seconds:.1f}s; no single measure fits all five rows")


def test_criterion_04_density_proxy(stormer_to_1e6) -> None:
    values, _ = stormer_to_1e6
    strict_count = bisect.bisect_right(values, 10**6) - 1
    ratio = strict_count / 10**6
    assert ratio == 0.704536
    assert abs(ratio - LN2) < 0.02
    gaps = [abs(heuristic_probability(10**k) - LN2) for k in (1, 2, 3)]
    assert gaps[0] > gaps[1] > gaps[2]
    _report(4, f"ratio at 10^6 is {ratio} (|ratio - ln 2| = {abs(ratio - LN2):.6f} < 0.02); "
               f"heuristic gaps {[round(g, 4) for g in gaps]} decrease toward ln 2")


def test_criterion_05_two_squares_suite() -> None:
    start = time.time()
    checked = 0
    for p in sieve_primes(10**5):
        if p % 4 != 1:
            continue
        result = two_squares(p)
        qs = result.palindrome
        assert result.a ** 2 + result.b ** 2 == p
        assert math.gcd(result.a, result.b) == 1
        assert len(qs) % 2 == 0 and list(qs) == list(reversed(qs))
        checked += 1
    for p in sieve_primes(10**4):
        if p % 4 != 1:
            continue
        result = two_squares(p)
        brute = [
            (a, b)
            for a in range(1, math.isqrt(p) + 1)
            for b in (math.isqrt(p - a * a),)
            if b >= 1 and a >= b and a * a + b * b == p
        ]
        assert brute == [(result.a, result.b)]
    elapsed = time.time() - start
    assert elapsed < 30
    _report(5, f"{checked} primes below 10^5 decomposed with even palindromes; uniqueness "
               f"brute-forced below 10^4; {elapsed:.1f}s")


def test_criterion_06_decomposition_golden_set() -> None:
    start = time.time()
    assert decompose(3) == GregoryCombo.of_integers({1: 1, 2: -1})
    assert decompose(21) == GregoryCombo.of_integers({4: 1, 5: -1})
    assert decompose(70) == GregoryCombo.of_integers({2: -1, 5: 2, 12: 1})
    assert decompose(239) == GregoryCombo.of_integers({1: -1, 5: 4})

    identities = [
        GregoryCombo.of_integers({3: 2, 7: 1}),
        GregoryCombo.of_integers({5: 4, 239: -1}),
        GregoryCombo({ArcTerm.integer(7): 5, ArcTerm(79, 3): 2}),
        GregoryCombo.of_integers({57: 44, 239: 7, 682: -12, 12943: 24}),
    ]
    for rhs in identities:
        assert verify_identity(T1, rhs)

    rng = random.Random(987654321)
    rejected = 0
    while rejected < 20:
        base = rng.choice(identities)
        terms = base.terms()
        term = rng.choice(list(terms))
        bump = rng.choice((-2, -1, 1, 2))
        terms[term] += bump
        perturbed = GregoryCombo(terms)
        if perturbed == base:
            continue
        # independent numeric confirmation that the perturbation is wrong
        drift = abs(T1.value() - perturbed.value())
        assert drift > 1e-6
        assert not verify_identity(T1, perturbed)
        rejected += 1
    elapsed = time.time() - start
    assert elapsed < 5
    _report(6, f"golden reductions match; 4 classical identities accepted and "
               f"{rejected} perturbations rejected in {elapsed:.2f}s")


def test_criterion_07_soundness_sweep_500() -> None:
    start = time.time()
    for n in range(1, 501):
        combo = decompose(n)
        assert verify_identity(GregoryCombo.of_integers({n: 1}), combo), n
        stormer_n = is_stormer(n, Convention.INCLUSIVE).is_stormer
        for term, _ in combo:
            assert term.im == 1
            assert is_stormer(term.re, Convention.INCLUSIVE).is_stormer
            if not stormer_n:
                assert term.re < n
    elapsed = time.time() - start
    assert elapsed < 30
    _report(7, f"decompose(n) verified exactly with Stormer keys < n for all n <= 500 in {elapsed:.1f}s")


def test_criterion_08_machin_140_digits() -> None:
    start = time.time()
    capped = compute_pi(FORMULAS["machin"], 160, max_terms=100)
    reference = compute_pi(FORMULAS["stormer1896"], 160)
    agreement = compare_digits(capped.digits, reference.digits)
    elapsed = time.time() - start
    assert capped.terms_used[0] == 100
    assert agreement >= 140
    assert elapsed < 5
    _report(8, f"Machin with both series capped at 100 terms agrees with the 1896 formula on "
               f"{agreement} digits (>= 140) in {elapsed:.2f}s")


def test_criterion_09_cross_formula_agreement() -> None:
    start = time.time()
    at_1000 = [compute_pi(FORMULAS[name], 1000).digits for name in ("machin", "stormer1896", "vega", "euler")]
    assert len(set(at_1000)) == 1
    big = compute_pi(FORMULAS["machin"], 10**4).digits
    assert big.startswith(at_1000[0])
    elapsed = time.time() - start
    assert elapsed < 120
    _report(9, f"machin/stormer1896/vega/euler byte-identical at 1000 digits; 10^4-digit run keeps "
               f"the first 1000 stable; {elapsed:.1f}s")


def test_criterion_10_classical_bounds() -> None:
    start = time.time()
    digits = compute_pi(FORMULAS["machin"], 25).digits
    assert classical_bounds_check(digits)
    assert classical_bounds_check()
    corrupted = digits[:4] + "9" + digits[5:]
    assert not classical_bounds_check(corrupted)
    elapsed = time.time() - start
    assert elapsed < 1
    _report(10, f"223/71 < pi < 22/7 and |pi - 355/113|/pi < 9e-8 hold (corrupted digits fail) "
                f"in {elapsed:.2f}s")


def test_criterion_11_property_suites() -> None:
    start = time.time()

    table = prime_stormer_table(10**6)
    images = [pair.x0 for pair in table]
    assert len(images) == len(set(images))
    for pair in random.Random(11).sample(table, 200):
        assert (pair.x0**2 + 1) % pair.p == 0

    for x0 in range(1, 10**4 + 1):
        assert check_factor_residues(x0)

    rng = random.Random(12)
    for _ in range(10**4):
        qs = [rng.randrange(1, 30) for _ in range(rng.randrange(1, 12))]
        assert continuant(qs) == continuant(list(reversed(qs)))

    for n in range(2, 201):
        stormer_n = is_stormer(n, Convention.INCLUSIVE).is_stormer
        assert is_irreducible(n) == stormer_n
        assert occurs_among_earlier(n) == (not stormer_n)

    rng = random.Random(13)
    bound = math.isqrt(10**9 // 2)
    for _ in range(400):
        z = GaussianInt(rng.randrange(-bound, bound + 1), rng.randrange(-bound, bound + 1))
        if z.is_zero():
            continue
        assert z.norm() <= 10**9
        unit, factors = gaussian_factorize(z)
        rebuilt = unit
        for prime, e in factors:
            rebuilt = rebuilt * prime**e
        assert rebuilt == z

    elapsed = time.time() - start
    _report(11, f"injectivity of S below 10^6 ({len(images)} primes), residue theorem to 10^4, "
                f"continuant reversal on 10^4 sequences, Todd equivalences to 200, Gaussian "
                f"round-trips at norms <= 10^9; {elapsed:.1f}s")
