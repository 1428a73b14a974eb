from __future__ import annotations

import hashlib
import json
import math
import random
from fractions import Fraction
from functools import lru_cache

import mpmath
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stormerkit import arith, gregory, pidigits
from stormerkit.arith import GaussianInt
from stormerkit.gregory import (
    ArcTerm,
    GregoryCombo,
    IdentityParseError,
    decompose,
    flatten,
    identity_certificate,
    is_irreducible,
    lehmer_expand,
    occurs_among_earlier,
    parse_identity,
    verify_identity,
)

T = ArcTerm.integer


def combo(coeffs: dict[int, int]) -> GregoryCombo:
    return GregoryCombo.of_integers(coeffs)


@pytest.fixture
def cold_tables(monkeypatch: pytest.MonkeyPatch) -> None:
    """The decomposition engine from empty tables: no A(p) entry and no
    basis term but t_1.  The module's own tables come back after the test."""
    monkeypatch.setattr(gregory, "_prime_memo", {})
    monkeypatch.setattr(gregory, "_basis_terms", {1: T(1)})


# --- arc terms and combos -----------------------------------------------------

def test_arcterm_canonicalization() -> None:
    assert ArcTerm.of(6, 2) == ArcTerm(3, 1)
    assert ArcTerm.of(79, 3) == ArcTerm(79, 3)
    with pytest.raises(ValueError):
        ArcTerm(4, 2)  # content 2
    with pytest.raises(ValueError):
        ArcTerm(0, 1)
    with pytest.raises(ValueError):
        ArcTerm(3, -1)


def test_combo_arithmetic_and_equality() -> None:
    a = combo({5: 4, 239: -1})
    b = combo({239: -1, 5: 4})
    assert a == b and hash(a) == hash(b)
    assert (a - b) == GregoryCombo()
    assert str(combo({2: -1, 5: 2, 12: 1})) == "-t2 + 2*t5 + t12"
    assert str(GregoryCombo({ArcTerm(79, 3): 2})) == "2*t79/3"
    assert (a * 0) == GregoryCombo()


def test_combo_json_round_trip() -> None:
    c = GregoryCombo({T(5): 4, T(239): -1, ArcTerm(79, 3): 2})
    restored = GregoryCombo.from_json(json.loads(json.dumps(c.to_json())))
    assert restored == c
    # integer shorthand accepted on input
    assert GregoryCombo.from_json({"terms": [{"n": 5, "coef": 4}]}) == combo({5: 4})


_ARC_TERMS = st.builds(ArcTerm.of, st.integers(1, 400), st.integers(1, 12)) | st.builds(T, st.integers(1, 400))


@given(st.dictionaries(_ARC_TERMS, st.integers(-5, 5).filter(bool), max_size=12))
@example({T(3): 1, ArcTerm(7, 2): 1, ArcTerm(5, 2): -1, T(2): 1, ArcTerm(7, 3): 4})
def test_items_are_ordered_by_the_fraction_re_over_im(terms: dict[ArcTerm, int]) -> None:
    # Integer terms are sorted by re alone: the order must be that of x = re/im.
    expected = sorted(terms.items(), key=lambda tc: Fraction(tc[0].re, tc[0].im))
    assert GregoryCombo(terms).items() == expected


# --- verification ---------------------------------------------------------------

def test_verify_identity_classics() -> None:
    t1 = combo({1: 1})
    assert verify_identity(t1, combo({5: 4, 239: -1}))
    assert verify_identity(t1, combo({3: 2, 7: 1}))
    assert verify_identity(t1, combo({57: 44, 239: 7, 682: -12, 12943: 24}))
    assert verify_identity(t1, GregoryCombo({T(7): 5, ArcTerm(79, 3): 2}))
    # Hwang (1997), six terms
    assert verify_identity(t1, combo({239: 183, 1023: 32, 5832: -68, 110443: 12, 4841182: -12, 6826318: -100}))


def test_verify_identity_rejects_perturbation() -> None:
    t1 = combo({1: 1})
    assert not verify_identity(t1, combo({5: 4, 239: 1}))
    assert not verify_identity(t1, combo({5: 3, 239: -1}))


def test_verify_is_scale_invariant() -> None:
    # arg(79 + 3i) written with content 5: same identity after canonicalization
    scaled = GregoryCombo({T(7): 5, ArcTerm.of(79 * 5, 3 * 5): 2})
    assert verify_identity(combo({1: 1}), scaled)


def test_certificate_positive_real_for_true_identity() -> None:
    lhs, rhs = parse_identity("t1 = 4*t5 - t239")
    cert = identity_certificate(lhs, rhs)
    assert cert.im == 0 and cert.re > 0


def test_angle_sums_spanning_multiple_turns() -> None:
    # 8 * t1 = 2*pi: the product certificate alone cannot distinguish this
    # from zero, the vector over the Stormer basis ({1: 8}, not {}) must
    assert not verify_identity(combo({1: 8}), GregoryCombo())
    assert verify_identity(combo({1: 8}), combo({1: 8}))


@pytest.mark.parametrize("k", [1, 2, 3, 7, 1000])
@pytest.mark.parametrize("j", [-2, -1, 1, 2])
def test_full_turn_offsets_are_rejected(k: int, j: int) -> None:
    # k*t1 = 4k*t5 - k*t239 + 8j*t1 holds modulo 2*pi (the certificate is a
    # positive real) but is off by j full turns.
    lhs = combo({1: k})
    true_rhs = combo({5: 4 * k, 239: -k})
    offset = true_rhs + combo({1: 8 * j})
    assert verify_identity(lhs, true_rhs)
    cert = identity_certificate(lhs, offset)
    assert cert.im == 0 and cert.re > 0
    assert not verify_identity(lhs, offset)
    assert gregory._combo_vector(offset - lhs) == {1: 8 * j}


_BASE = st.tuples(st.integers(-60, 60), st.integers(-60, 60)).filter(lambda ab: ab != (0, 0))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_BASE, st.integers(0, 40)), max_size=4))
@example([((-1, 0), 3), ((-2, -1), 5), ((0, -3), 2), ((1, -1), 7)])
@example([((1, 1), 8)])
def test_turns_match_mpmath(terms: list[tuple[tuple[int, int], int]]) -> None:
    # sum(e * Arg(a + bi)) - q*pi/2 must be Arg(r + si), which lies in
    # [0, pi/2); a q off by one would leave pi/2 over.
    q, r, s = gregory._turns((a, b, e) for (a, b), e in terms)
    assert r > 0 and s >= 0
    with mpmath.workdps(50):
        total = mpmath.fsum(e * mpmath.atan2(b, a) for (a, b), e in terms)
        assert abs(total - q * mpmath.pi / 2 - mpmath.atan2(s, r)) < mpmath.mpf(10) ** -40


_ARC = st.tuples(st.integers(1, 60), st.integers(1, 60)).map(lambda ab: ArcTerm.of(*ab))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_ARC, st.integers(-40, 40)), max_size=4), st.integers(-6, 6))
@example([(T(5), 4), (T(239), -1)], 1)
@example([(T(2), 1), (T(3), 1)], 1)
@example([(T(1), 8)], 0)
@example([(ArcTerm(3, 2), 2), (ArcTerm(2, 3), 2)], 4)
def test_verify_identity_matches_mpmath(terms: list[tuple[ArcTerm, int]], k: int) -> None:
    # The examples include true identities, which random draws seldom hit.
    lhs, rhs = GregoryCombo(terms), combo({1: k})
    with mpmath.workdps(50):
        gap = mpmath.fsum(c * mpmath.atan2(t.im, t.re) for t, c in lhs) - k * mpmath.pi / 4
        expected = abs(gap) < mpmath.mpf(10) ** -40
    assert verify_identity(lhs, rhs) is expected
    product = GaussianInt(1, 0)
    for t, c in (lhs - rhs).terms().items():
        product = product * GaussianInt(t.re, t.im if c > 0 else -t.im) ** abs(c)
    assert identity_certificate(lhs, rhs) == product


_RATIONAL = st.builds(ArcTerm.of, st.integers(1, 300), st.integers(1, 300))
_BIG = st.integers(-(10**12), 10**12)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(_RATIONAL, _BIG), max_size=3),
    st.sampled_from(sorted(pidigits.FORMULAS)),
    st.integers(0, 10**12),
    st.integers(-3, 3),
    _RATIONAL,
    _BIG,
)
@example([], "machin", 10**12, 1, T(1), 0)
@example([], "euler", 7, 0, ArcTerm(3, 2), -(10**12))
@example([(ArcTerm(1, 2), 10**12), (T(3), -(10**12)), (T(1), -(10**12))], "stormer1896", 10**12 - 1, 0, T(2), 5)
def test_verify_identity_matches_mpmath_at_large_coefficients(
    extra: list[tuple[ArcTerm, int]], name: str, k: int, j: int, pair: ArcTerm, m: int
) -> None:
    # k * formula + m * (t_{a/b} + t_{b/a}) + extra = (k + 2m + 8j) * t1 holds
    # exactly when extra sums to zero and j = 0: t_{a/b} + t_{b/a} = pi/2,
    # and 8j * t1 is j full turns.  The verdict reads vectors only, so these
    # coefficients cost no more than small ones; no certificate is built.
    lhs = pidigits.FORMULAS[name] * k + GregoryCombo({pair: m}) + GregoryCombo({ArcTerm(pair.im, pair.re): m})
    lhs = lhs + GregoryCombo(extra)
    rhs = combo({1: k + 2 * m + 8 * j})
    with mpmath.workdps(80):
        gap = mpmath.fsum(c * mpmath.atan2(t.im, t.re) for t, c in (lhs - rhs).terms().items())
        expected = abs(gap) < mpmath.mpf(10) ** -50
    assert verify_identity(lhs, rhs) is expected


def test_exact_paths_use_no_float(monkeypatch: pytest.MonkeyPatch, cold_tables: None) -> None:
    # Verification, decomposition and the pi formula check read exact
    # vectors and quarter turns only: every float that could decide them
    # raises here.
    def float_used(*args, **kwargs):
        raise AssertionError("a float entered an exact check")

    monkeypatch.setattr(math, "atan2", float_used)
    monkeypatch.setattr(math, "fsum", float_used)
    monkeypatch.setattr(ArcTerm, "value", float_used)
    monkeypatch.setattr(GregoryCombo, "value", float_used)
    for module in (gregory, pidigits):
        monkeypatch.setattr(module, "round", float_used, raising=False)
    pidigits._pi.cache_clear()

    payload = [decompose(n).to_json() for n in range(1, 3001)]
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == _DECOMPOSE_TO_3000_SHA256
    for formula in pidigits.FORMULAS.values():
        assert verify_identity(combo({1: 1}), formula)
        assert pidigits.compute_pi(formula, 40).digits == "3.1415926535897932384626433832795028841971"


# --- flattening -----------------------------------------------------------------

def test_flatten_chain_18_minus_5i() -> None:
    result = flatten(GaussianInt(18, -5))
    assert result.multipliers[0] == GaussianInt(7, 2)
    assert result.flats[0] == GaussianInt(136, 1) == result.w
    # the follow-up multiplier flattens 7+2i; the minimal-norm solution of
    # 7d + 2c = +-1 is -3+i (norm 10), giving (7+2i)(-3+i) = -23+i
    assert result.multipliers[1] == GaussianInt(-3, 1)
    assert result.flats[1] == GaussianInt(-23, 1)


def test_flatten_single_steps() -> None:
    result = flatten(GaussianInt(2, 5))
    assert result.multipliers == (GaussianInt(1, -2),)
    assert result.w == GaussianInt(12, 1)

    result = flatten(GaussianInt(2, 3))
    assert result.multipliers == (GaussianInt(1, -1),)
    assert result.w == GaussianInt(5, 1)


def test_flatten_step_identities_hold_exactly() -> None:
    rng = random.Random(7)
    for _ in range(200):
        a = rng.randrange(2, 2000)
        b = rng.randrange(2, 2000) * rng.choice((1, -1))
        if math.gcd(a, abs(b)) != 1 or abs(b) == 1:
            continue
        z = GaussianInt(a, b)
        result = flatten(z)
        chain = (z,) + result.multipliers[:-1]
        for cur, mult, flat in zip(chain, result.multipliers, result.flats):
            assert cur * mult == flat
            assert abs(flat.im) == 1
            assert mult.norm() < cur.norm()  # descent
        assert result.w == result.flats[0]


def test_flatten_rejects_non_canonical() -> None:
    with pytest.raises(ValueError):
        flatten(GaussianInt(4, 2))  # content 2
    with pytest.raises(ValueError):
        flatten(GaussianInt(-3, 2))  # left half-plane
    with pytest.raises(ValueError):
        flatten(GaussianInt(3, 1))  # already x + i
    with pytest.raises(ValueError):
        flatten(GaussianInt(1, 1))  # norm 2


# --- decomposition ---------------------------------------------------------------

def test_decompose_golden_set() -> None:
    assert decompose(3) == combo({1: 1, 2: -1})
    assert decompose(21) == combo({4: 1, 5: -1})
    assert decompose(70) == combo({2: -1, 5: 2, 12: 1})
    assert decompose(239) == combo({1: -1, 5: 4})
    assert decompose(2) == combo({2: 1})
    assert decompose(1) == combo({1: 1})


def test_decompose_rejects_nonpositive() -> None:
    with pytest.raises(ValueError):
        decompose(0)
    with pytest.raises(ValueError):
        decompose(-5)


def test_decompose_vega_components() -> None:
    assert decompose(7) == combo({1: -1, 2: 2})
    # t1 = 2*t3 + t7 follows from the two reductions
    lhs = combo({1: 1})
    assert verify_identity(lhs, decompose(3) * 2 + decompose(7))


def test_decompose_soundness_small_sweep() -> None:
    from stormerkit.stormer import Convention, is_stormer

    for n in range(1, 80):
        result = decompose(n)
        assert verify_identity(combo({n: 1}), result)
        for term, _ in result:
            assert term.im == 1
            s = term.re
            assert is_stormer(s, Convention.INCLUSIVE).is_stormer
            if not is_stormer(n, Convention.INCLUSIVE).is_stormer:
                assert s < n


# sha256 of the canonical JSON of [decompose(n).to_json() for n in 1..3000],
# computed before t_n was decomposed from one factorization of n**2 + 1.
_DECOMPOSE_TO_3000_SHA256 = "fb7f2971a6ecbbf714fefb82b44b1df903d3c8162d5ab4f9fffbd0c23bc5459e"


def test_decompose_golden_digest_to_3000() -> None:
    payload = [decompose(n).to_json() for n in range(1, 3001)]
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == _DECOMPOSE_TO_3000_SHA256


# sha256 of the canonical JSON of [decompose(n).to_json() for n in ns], ns
# 300 log-uniform draws in [10**4, 10**10] from random.Random(9), computed
# before t_n was decomposed from one table entry per prime.
_DECOMPOSE_LARGE_SHA256 = "71d77cbc3443212ffc99d275baac5a052f16daa4350c05530f6e685ff06f6336"


def test_decompose_golden_digest_large_n() -> None:
    rng = random.Random(9)
    payload = [decompose(int(10 ** rng.uniform(4, 10))).to_json() for _ in range(300)]
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == _DECOMPOSE_LARGE_SHA256


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 10**12))
@example(1)
@example(239)
@example(10**12)
def test_decompose_evaluates_to_arctan(n: int) -> None:
    from stormerkit.stormer import Convention, is_stormer

    result = decompose(n)
    with mpmath.workdps(50):
        total = mpmath.fsum(c * mpmath.atan(mpmath.mpf(1) / t.re) for t, c in result)
        assert abs(total - mpmath.atan(mpmath.mpf(1) / n)) < mpmath.mpf(10) ** -40
    if result == combo({n: 1}):
        assert is_stormer(n, Convention.INCLUSIVE).is_stormer
        return
    for term, _ in result:
        assert term.im == 1 and term.re < n
        assert is_stormer(term.re, Convention.INCLUSIVE).is_stormer


@pytest.mark.parametrize("wrong", [{2: -1, 5: 2, 12: 2}, {1: 8, 2: -1, 5: 2, 12: 1}])
def test_decompose_rejects_a_wrong_memo(wrong: dict[int, int], monkeypatch: pytest.MonkeyPatch) -> None:
    # t70 = -t2 + 2*t5 + t12; the second vector is 2*pi off, a positive real
    # certificate that only the quarter-turn count rejects.
    monkeypatch.setattr(gregory, "_vector", lambda a, b, norm: dict(wrong))
    with pytest.raises(ArithmeticError):
        decompose(70)


def test_decompose_factors_each_norm_once(monkeypatch: pytest.MonkeyPatch, cold_tables: None) -> None:
    # From cold tables: n**2 + 1 is factored once per decompose call, serving
    # both the Stormer test and the split of n + i, and S(p)**2 + 1 once per
    # table entry whose S(p) + i is not itself prime.  n mod p picks each
    # Gaussian prime, so nothing is factored over Z[i], flattened or rooted.
    calls = []
    real = arith._factorize_norm

    def counted(n: int):
        calls.append(n)
        return real(n)

    def forbidden(*args):
        raise AssertionError(f"unexpected call with {args}")

    monkeypatch.setattr(arith, "_factorize_norm", counted)
    for name in ("gaussian_factorize", "gaussian_gcd", "factorize", "sqrt_minus_one_mod_p"):
        monkeypatch.setattr(arith, name, forbidden)
    monkeypatch.setattr(gregory, "_flatten_step", forbidden)
    for n in range(1, 1001):
        decompose(n)
    composite = [p for p in gregory._prime_memo if _naive_min_root(p) ** 2 + 1 != p]
    assert composite
    assert len(calls) == 1000 + len(composite)


def test_decompose_keeps_no_state_per_n(cold_tables: None) -> None:
    # A sweep grows the A(p) table and the basis terms of its entries, and
    # nothing else: no module-level container gains an entry per n.
    def sizes() -> dict[str, int]:
        return {
            name: len(v)
            for name, v in vars(gregory).items()
            if not name.startswith("__") and isinstance(v, (dict, list, set))
        }

    before = sizes()
    for n in range(1, 4001):
        decompose(n)
    grown = {name for name, size in sizes().items() if size != before.get(name)}
    assert grown == {"_prime_memo", "_basis_terms"}
    assert len(gregory._basis_terms) <= len(gregory._prime_memo) + 1
    assert all(arith.is_prime(p) and p % 4 == 1 for p in gregory._prime_memo)


def _split_powers(x: int, skip: int = 0) -> tuple[list[tuple[int, int, int]], list[int]]:
    """The Gaussian primes of x + i other than the one over ``skip``, as
    (a, b, e) from the table, with the sign taken for each odd prime."""
    powers, signs = [], []
    for q, e in sorted(sympy.factorint(x * x + 1).items()):
        if q == 2:
            powers.append((1, 1, e))
        elif q != skip:
            a, b, _ = gregory._prime_memo[q]
            sign = 1 if x % q == _naive_min_root(q) else -1
            powers.append((a, sign * b, e))
            signs.append(sign)
    return powers, signs


def test_prime_table_matches_mpmath(cold_tables: None) -> None:
    # Each entry p -> (a, b, A(p)): a + bi is the first-quadrant prime over p
    # dividing S(p) + i, and A(p) evaluates to its argument.  The sweep
    # 1..3000 picks the conjugate prime as well as pi_p and needs the
    # quarter-turn correction 2*q*t_1 in both the t_n and the A(p) sums, so
    # the golden digest guards each of them.
    vectors = {n: {t.re: c for t, c in decompose(n)} for n in range(1, 3001)}
    assert {p for p in sympy.primerange(5, 3000) if p % 4 == 1} <= set(gregory._prime_memo)
    with mpmath.workdps(50):
        for p, (a, b, arg) in gregory._prime_memo.items():
            assert a * a + b * b == p and a > 0 and b > 0
            value = mpmath.fsum(c * mpmath.atan(mpmath.mpf(1) / s) for s, c in arg.items())
            assert abs(value - mpmath.atan2(b, a)) < mpmath.mpf(10) ** -40, p
    signs = {1: 0, -1: 0}
    turned = {"n": 0, "p": 0}
    for n, t_n in vectors.items():
        if t_n != {n: 1}:
            powers, n_signs = _split_powers(n)
            q, r, s = gregory._turns(powers)
            assert (r, s) == (n, 1)
            turned["n"] += q != 0
            for sign in n_signs:
                signs[sign] += 1
    for p, (a, b, _) in gregory._prime_memo.items():
        x = _naive_min_root(p)
        if x * x + 1 != p:
            powers, p_signs = _split_powers(x, p)
            k, r, s = gregory._turns(powers + [(a, b, 1)])
            assert (r, s) == (x, 1)
            turned["p"] += k != 0
            for sign in p_signs:
                signs[sign] += 1
    assert signs == {1: 1346, -1: 1520}
    assert turned == {"n": 535, "p": 183}


def test_prime_entry_factors_only_the_cofactor(monkeypatch: pytest.MonkeyPatch, cold_tables: None) -> None:
    # From cold tables, every p == 1 (mod 4) below 2*10**4: A(p) is built from
    # the factors of m = (S(p)**2 + 1)/p < p/4, never of a multiple of p.
    calls = []
    real = arith._factorize_norm

    def spy(n: int):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(arith, "_factorize_norm", spy)
    primes = [p for p in sympy.primerange(5, 2 * 10**4) if p % 4 == 1]
    for p in primes:
        s = min(sympy.sqrt_mod(-1, p, all_roots=True))
        calls.clear()
        a, b, arg = gregory._prime_entry(p, s)
        assert all(n % p and 4 * n < p for n in calls), p
        assert a * a + b * b == p and a > 0 and b > 0
        # (a + bi) divides s + i: (s + i)(a - bi) is p times a Gaussian integer.
        assert (s * a + b) % p == 0 and (a - s * b) % p == 0
    assert set(gregory._prime_memo) >= set(primes)
    with mpmath.workdps(50):
        for p in primes:
            a, b, arg = gregory._prime_memo[p]
            value = mpmath.fsum(c * mpmath.atan(mpmath.mpf(1) / s) for s, c in arg.items())
            assert abs(value - mpmath.atan2(b, a)) < mpmath.mpf(10) ** -40, p


def _sweep_large_n() -> list[int]:
    """The 200 large arguments of the benchmark's decompose sweep: one
    log-uniform draw in each of 200 equal log-strata of [10 001, 10**6],
    from random.Random(101)."""
    rng = random.Random(101)
    lo, hi = math.log(10_001), math.log(10**6)
    width = (hi - lo) / 200
    return [max(10_001, min(10**6, int(math.exp(lo + (j + rng.random()) * width)))) for j in range(200)]


def test_decompose_result_equals_the_public_construction() -> None:
    for n in [*range(1, 3001), *_sweep_large_n()]:
        vector = {t.re: c for t, c in decompose(n).terms().items() if t.im == 1}
        fast = decompose(n)
        public = GregoryCombo({ArcTerm.integer(s): c for s, c in vector.items()})
        assert fast == public and hash(fast) == hash(public), n
        assert fast.items() == public.items() and fast.terms() == public.terms()
        assert str(fast) == str(public) and fast.to_json() == public.to_json()
        # Neither the returned copy nor the result's own dict is shared with
        # the engine's tables or with a later result.
        fast.terms().clear()
        fast._terms[T(n + 1)] = 1
        assert decompose(n) == public, n


# --- independent oracle: valuation peeling ----------------------------------------

@lru_cache(maxsize=None)
def _naive_odd_primes(value: int) -> tuple[tuple[int, int], ...]:
    """Odd prime factorization of value by trial division (test-local)."""
    out = []
    v = value
    while v % 2 == 0:
        v //= 2
    d = 3
    while d * d <= v:
        if v % d == 0:
            e = 0
            while v % d == 0:
                v //= d
                e += 1
            out.append((d, e))
        else:
            d += 2
    if v > 1:
        out.append((v, 1))
    return tuple(out)


@lru_cache(maxsize=None)
def _naive_min_root(p: int) -> int:
    for m in range(1, p // 2 + 1):
        if (m * m + 1) % p == 0:
            return m
    raise AssertionError(f"no root of -1 mod {p}")


@lru_cache(maxsize=None)
def _naive_is_stormer(x: int) -> bool:
    if x == 1:
        return True
    primes = _naive_odd_primes(x * x + 1)
    largest = primes[-1][0] if primes else 2
    return largest >= 2 * x + 1


def _signed_valuations(m: int) -> dict[int, int]:
    """p -> signed multiplicity of p in m^2+1; positive when m is in the
    residue class of the minimal root of -1 mod p."""
    out = {}
    for p, e in _naive_odd_primes(m * m + 1):
        out[p] = e if m % p == _naive_min_root(p) else -e
    return out


def _oracle_decompose(n: int) -> dict[int, int]:
    """Solve for the Stormer-basis coefficients of t_n by peeling signed
    prime valuations in decreasing prime order; independent of the library's
    descent (uses only trial division and brute-force roots)."""
    if _naive_is_stormer(n):
        return {n: 1}
    residual = dict(_signed_valuations(n))
    coeffs: dict[int, int] = {}
    while True:
        live = [p for p, v in residual.items() if v != 0]
        if not live:
            break
        q = max(live)
        x = _naive_min_root(q)
        # the minimal root is the only Stormer number below q/2 in its class
        assert _naive_is_stormer(x) and x < n, f"cannot peel prime {q} for n={n}"
        c = residual[q]  # d_q(x) == +1
        coeffs[x] = coeffs.get(x, 0) + c
        for p, v in _signed_valuations(x).items():
            residual[p] = residual.get(p, 0) - c * v
    # fix the t_1 coefficient from the angle itself, then verify exactly
    partial = math.atan2(1, n) - sum(c * math.atan2(1, s) for s, c in coeffs.items())
    c1 = round(partial / math.atan2(1, 1))
    assert abs(partial - c1 * math.atan2(1, 1)) < 1e-9
    if c1:
        coeffs[1] = coeffs.get(1, 0) + c1
    return {s: c for s, c in coeffs.items() if c}


def test_decompose_matches_independent_oracle_to_200() -> None:
    for n in range(2, 201):
        expected = _oracle_decompose(n)
        assert verify_identity(combo({n: 1}), combo(expected)), n
        assert decompose(n) == combo(expected), n


# --- Todd's criteria ---------------------------------------------------------------

def test_irreducibility_examples() -> None:
    assert is_irreducible(2)
    assert not is_irreducible(3)
    assert not is_irreducible(239)


def test_occurs_among_earlier_examples() -> None:
    assert occurs_among_earlier(3)  # 10 = 2*5; 2 | 1+1^2, 5 | 1+2^2
    assert not occurs_among_earlier(2)  # 5 divides no 1+m^2 with m < 2
    assert occurs_among_earlier(7)  # 50 = 2*5^2
    with pytest.raises(ValueError):
        occurs_among_earlier(1)


# --- Lehmer expansions ----------------------------------------------------------------

def test_lehmer_examples() -> None:
    assert lehmer_expand(3, 1).cotangents == (3,)
    assert not lehmer_expand(3, 1).truncated
    assert lehmer_expand(8, 3).cotangents == (2, 9, 173)
    assert lehmer_expand(5, 2).cotangents == (2, 12)


def test_lehmer_numeric_identity() -> None:
    for a, b in ((8, 3), (5, 2), (17, 12), (355, 113), (101, 3)):
        expansion = lehmer_expand(a, b)
        assert not expansion.truncated
        assert abs(expansion.value() - math.atan2(b, a)) < 1e-12


def test_lehmer_truncation_flag() -> None:
    expansion = lehmer_expand(8, 3, max_terms=2)
    assert expansion.truncated
    assert expansion.cotangents == (2, 9)


def test_lehmer_rejects_bad_inputs() -> None:
    with pytest.raises(ValueError):
        lehmer_expand(3, 3)
    with pytest.raises(ValueError):
        lehmer_expand(3, 5)
    with pytest.raises(ValueError):
        lehmer_expand(10, 4)  # not coprime
    with pytest.raises(ValueError):
        lehmer_expand(3, 0)


# --- identity grammar --------------------------------------------------------------------

def test_parse_identity_round_trips() -> None:
    lhs, rhs = parse_identity("t1 = 4*t5 - t239")
    assert lhs == combo({1: 1})
    assert rhs == combo({5: 4, 239: -1})
    lhs, rhs = parse_identity("  t1=5*t7+2*t79/3 ")
    assert rhs == GregoryCombo({T(7): 5, ArcTerm(79, 3): 2})
    lhs, rhs = parse_identity("-2*t3 + t1 = t7")
    assert lhs == combo({3: -2, 1: 1})


def test_parse_identity_canonicalizes_content() -> None:
    # arctan(2/4) = arctan(1/2), so t4/2 is t2
    _, rhs = parse_identity("t1 = t4/2")
    assert rhs == combo({2: 1})


def test_parse_identity_rejects_garbage() -> None:
    for bad in ("t1 == t2", "t1", "t1 = ", "t1 = 4x5", "t1 = t5 t7", "u1 = t5", "t1 = t0"):
        with pytest.raises(IdentityParseError):
            parse_identity(bad)
