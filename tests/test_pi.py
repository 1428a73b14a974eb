from __future__ import annotations

import hashlib
import math
import random
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from stormerkit import pidigits
from stormerkit.gregory import ArcTerm, GregoryCombo, parse_identity, verify_identity
from stormerkit.pidigits import (
    FORMULAS,
    FixedPoint,
    classical_bounds_check,
    compare_digits,
    compute_pi,
    gregory_series,
    tail_correct_digits,
)

T1 = GregoryCombo.of_integers({1: 1})


def test_all_named_formulas_verify() -> None:
    for name, formula in FORMULAS.items():
        assert verify_identity(T1, formula), name


def test_series_tail_bound_t5_at_100_terms() -> None:
    # first omitted term of the t_5 series at k = 100 is 1/(201 * 5^201)
    assert 201 * 5**201 > 10**140
    capped = gregory_series(ArcTerm.integer(5), 150, max_terms=100)
    full = gregory_series(ArcTerm.integer(5), 150)
    assert capped.terms_used == 100
    gap = abs(capped.value() - full.value())
    assert gap < Fraction(1, 10**140)


def test_series_precision_zero_has_integer_part_zero() -> None:
    fp = gregory_series(ArcTerm.integer(7), 0)
    assert fp.decimal_string() == "0"


def test_series_one_digit_per_tenfold_terms_for_t1() -> None:
    reference = compute_pi(FORMULAS["machin"], 40).digits
    pi_ref = Fraction(int(reference.replace(".", "", 1)), 10**40)

    def correct_digits(terms: int) -> int:
        quarter = gregory_series(ArcTerm.integer(1), 30, max_terms=terms)
        err = abs(4 * quarter.value() - pi_ref)
        digits = 0
        while err < Fraction(1, 10 ** (digits + 1)) and digits < 29:
            digits += 1
        return digits

    gains = []
    previous = correct_digits(10)
    for k in (100, 1000, 10000, 100000):
        current = correct_digits(k)
        gains.append(current - previous)
        previous = current
    assert all(0 <= gain <= 2 for gain in gains)  # one digit per decade, +-1


@pytest.mark.parametrize("term, message", [
    (ArcTerm.integer(1), "a formula containing t1 itself needs an explicit term cap"),
    (ArcTerm(2, 3), "series argument 3/2 is not below one"),
])
def test_both_evaluators_refuse_a_series_with_one_message(term: ArcTerm, message: str) -> None:
    # gregory_series and compute_pi share pidigits._check_series.  A term
    # with b > a that got past it would keep gregory_series from returning,
    # while compute_pi would still fail on its vector, so compute_pi goes first.
    with pytest.raises(ValueError) as pi:
        compute_pi(GregoryCombo.single(term), 10)
    assert str(pi.value) == message
    with pytest.raises(ValueError) as series:
        gregory_series(term, 10)
    assert str(series.value) == message


def test_series_rejects_arguments_at_or_above_one() -> None:
    with pytest.raises(ValueError):
        gregory_series(ArcTerm(3, 5), 10)
    with pytest.raises(ValueError):
        gregory_series(ArcTerm.integer(1), 10)  # t_1 needs a term cap


def test_series_max_terms_changes_result_by_at_most_last_term() -> None:
    term = ArcTerm.integer(3)
    for k in (5, 9, 20):
        longer = gregory_series(term, 40, max_terms=k)
        shorter = gregory_series(term, 40, max_terms=k - 1)
        # magnitude of term k-1 of arctan(1/3): 1 / ((2k-1) * 3^(2k-1))
        last = Fraction(1, (2 * k - 1) * 3 ** (2 * k - 1))
        assert abs(longer.value() - shorter.value()) <= last


def test_compute_pi_small_digit_string() -> None:
    digits = {name: compute_pi(f, 11).digits for name, f in FORMULAS.items()}
    assert len(set(digits.values())) == 1  # cross-formula agreement
    assert digits["machin"].startswith("3.1415926535")


def test_compute_pi_monotone_refinement() -> None:
    d50 = compute_pi(FORMULAS["machin"], 50).digits
    d120 = compute_pi(FORMULAS["machin"], 120).digits
    assert d120.startswith(d50)


def test_compute_pi_rejects_bad_inputs() -> None:
    with pytest.raises(ValueError):
        compute_pi(FORMULAS["machin"], 0)
    with pytest.raises(ValueError):
        compute_pi(GregoryCombo.of_integers({5: 4, 239: 1}), 20)  # not t1
    with pytest.raises(ValueError):
        compute_pi(GregoryCombo(), 20)


@pytest.mark.parametrize("digits, max_terms", [
    (True, None), (False, None), (10.5, None), (10.0, None), ("10", None), (None, None), (Fraction(10), None),
    (10, True), (10, 2.0), (10, "3"),
])
def test_compute_pi_refuses_digits_and_caps_that_are_not_ints(digits: object, max_terms: object) -> None:
    # True right after 1 would be a hit in the cache behind compute_pi, which
    # takes True for 1; the check comes first.
    assert compute_pi(FORMULAS["machin"], 1).digits == "3.1"
    assert compute_pi(FORMULAS["machin"], 10, 1).digits
    with pytest.raises(TypeError):
        compute_pi(FORMULAS["machin"], digits, max_terms)  # type: ignore[arg-type]


def test_compute_pi_accepts_multiples_of_t1() -> None:
    # 2*t1: doubled Machin
    doubled = GregoryCombo.of_integers({5: 8, 239: -2})
    assert compute_pi(doubled, 30).digits == compute_pi(FORMULAS["machin"], 30).digits


@pytest.mark.parametrize("name", sorted(FORMULAS))
def test_formula_multiple_is_exact(name: str) -> None:
    formula = FORMULAS[name]
    for k in range(1, 21):
        assert pidigits._formula_multiple(formula * k) == k
    # formula - t1 is a nonempty combination equal to 0, not a multiple k >= 1.
    zero = formula - GregoryCombo.of_integers({1: 1})
    for bad in (-formula, formula * -3, GregoryCombo(), GregoryCombo.of_integers({2: 1}), zero):
        with pytest.raises(ValueError):
            pidigits._formula_multiple(bad)


def test_machin_tail_estimate_at_100_terms() -> None:
    assert tail_correct_digits(FORMULAS["machin"], 160, 100) >= 140


def test_compare_digits_examples() -> None:
    assert compare_digits("3.14159", "3.14158") == 5
    assert compare_digits("3.14159", "3.14159") == 6
    # Zu's ratio agrees with pi through 3.141592
    pi_digits = compute_pi(FORMULAS["machin"], 12).digits
    zu = "3." + str(355 * 10**12 // 113)[1:]
    assert compare_digits(pi_digits, zu) == 7


def test_compare_digits_rejects_malformed() -> None:
    with pytest.raises(ValueError):
        compare_digits("2.71828", "3.14159")
    with pytest.raises(ValueError):
        compare_digits("3.14159", "31415")
    with pytest.raises(ValueError):
        compare_digits("3.14x59", "3.14159")


def test_classical_bounds() -> None:
    assert classical_bounds_check()
    good = compute_pi(FORMULAS["machin"], 25).digits
    assert classical_bounds_check(good)
    corrupted = good[:5] + "9" + good[6:]
    assert not classical_bounds_check(corrupted)
    assert not classical_bounds_check("garbage")


def test_terms_used_reported_per_term() -> None:
    # t_5 needs more than 40 terms for 50 digits and is capped; the t_239
    # series underflows the working scale after 13 terms on its own
    result = compute_pi(FORMULAS["machin"], 50, max_terms=40)
    assert result.terms_used == (40, 13)
    free = compute_pi(FORMULAS["machin"], 50)
    assert len(free.terms_used) == 2
    assert all(t > 0 for t in free.terms_used)


# --- the arctan evaluator against independent oracles ---------------------------

def _mpmath_pi(digits: int) -> str:
    """pi truncated to ``digits`` places, as "3.…", from mpmath."""
    with mpmath.workdps(digits + 40):
        return mpmath.nstr(mpmath.pi, digits + 30, strip_zeros=False)[: digits + 2]


@pytest.mark.parametrize("name", sorted(FORMULAS))
def test_compute_pi_matches_mpmath(name: str) -> None:
    reference = _mpmath_pi(20000)
    for digits in (1, 2, 11, 1000, 5000, 20000):
        assert compute_pi(FORMULAS[name], digits).digits == reference[: digits + 2], digits


def _partial_sum(a: int, b: int, n: int) -> Fraction:
    return sum((Fraction((-1) ** k * b ** (2 * k + 1), (2 * k + 1) * a ** (2 * k + 1)) for k in range(n)), Fraction(0))


def _reference_count(a: int, b: int, scale: int, max_terms: int | None) -> int:
    """Series length by the term-at-a-time loop the evaluator replaced: a
    term underflowing 10**-scale ends an uncapped series, and a capped one
    runs on until the floored power itself reaches zero."""
    t = 10**scale * b // a
    k = 0
    while t and (max_terms is None or k < max_terms):
        if t // (2 * k + 1) == 0 and max_terms is None:
            break
        t = t * b * b // (a * a)
        k += 1
    return k


@st.composite
def _arc_terms(draw) -> ArcTerm:
    a = draw(st.integers(2, 100))
    b = draw(st.integers(1, a - 1))
    assume(math.gcd(a, b) == 1)
    return ArcTerm(a, b)


@settings(max_examples=150, deadline=None)
@given(_arc_terms(), st.integers(0, 300), st.none() | st.integers(1, 200))
@example(ArcTerm(79, 3), 300, None)
@example(ArcTerm(79, 3), 40, 7)
@example(ArcTerm(3, 2), 120, 200)
@example(ArcTerm(2, 1), 0, 1)
@example(ArcTerm(13, 12), 30, None)  # b/a near one: the chain is walked
@example(ArcTerm(101, 100), 5, 50)
@example(ArcTerm(10**200, 1), 10, None)  # a**2 / b**2 overflows a float
@example(ArcTerm(10**200, 1), 300, 5)
def test_series_within_stated_bound(term: ArcTerm, prec: int, cap: int | None) -> None:
    fp = gregory_series(term, prec, cap)
    a, b, n, scale = term.re, term.im, fp.terms_used, fp.scale + fp.guard
    assert n == _reference_count(a, b, scale, cap)
    if cap is not None:
        # rounded toward the limit: below S_n for odd n, above it for even n
        exact = 10**scale * _partial_sum(a, b, n)
        gap = exact - fp.mantissa if n % 2 else fp.mantissa - exact
        assert 0 <= gap <= pidigits._DUST
    else:
        with mpmath.workdps(scale + 30):
            exact = mpmath.atan(mpmath.mpf(b) / a) * mpmath.mpf(10) ** scale
            assert abs(fp.mantissa - exact) <= pidigits._error_bound(a, b, scale, n)


def test_arctan_rounds_the_exact_partial_sum_toward_the_limit() -> None:
    # Up to _LEAF terms are summed exactly, so the result is exactly
    # 10**scale * S_n less half a unit floored (odd n) or plus half a unit
    # ceiled (even n).  Ties occur, e.g. arctan(1/2) at 0 digits over 1 term,
    # and at even n, e.g. arctan(3/4) at 5 digits over 2 terms, where
    # 10**5 * S_2 = 60937.5 rounds to 60938.
    ties = even_ties = 0
    for a in range(2, 12):
        for b in range(1, a):
            for scale in range(6):
                partial = Fraction(0)
                for n in range(1, pidigits._LEAF + 1):
                    k = 2 * n - 1
                    partial += Fraction((-1) ** (n - 1) * b**k, k * a**k)
                    half_up = partial * 10**scale + Fraction(1, 2)
                    expected = math.floor(half_up - 1) if n & 1 else math.ceil(half_up)
                    ties += half_up.denominator == 1
                    even_ties += half_up.denominator == 1 and not n & 1
                    assert pidigits._arctan(a, b, scale, n) == expected, (a, b, scale, n)
    assert ties > 0 and even_ties > 0


# sha256 of repr() of _arctan over _ARCTAN_GRID, computed from the evaluator
# that multiplied out P at every node: the splitting trees reach several
# levels, with nodes both shifted and not, so any change to the merge or the
# shift rule shows here.
_ARCTAN_GRID = [
    (a, b, scale, n)
    for a, b in ((2, 1), (5, 1), (239, 1), (12943, 1), (3, 2), (79, 3), (13, 12))
    for n in (17, 33, 100, 1000, 4097)
    for scale in (0, 60, 3000)
]
_ARCTAN_SHA256 = "efe4c387a36594e674dee5f3f32c49113b4a4b2019a54eb206f06c375ad2ed54"


def test_arctan_is_bit_identical_beyond_one_leaf() -> None:
    values = [pidigits._arctan(a, b, scale, n) for a, b, scale, n in _ARCTAN_GRID]
    assert hashlib.sha256(repr(values).encode()).hexdigest() == _ARCTAN_SHA256


def test_a_long_low_precision_series_made_of_leaves() -> None:
    # 166 646 terms of t10001/10000 at 5 digits: the work is almost all in
    # the leaves, where each term takes one product p * p_k.
    _, formula = parse_identity("t1 = t10001/10000 + t20001")
    result = compute_pi(formula, 5)
    assert result.digits == "3.14159"
    assert result.terms_used == _reference_terms(formula, 5, None)


def test_series_terms_follow_the_floored_chain() -> None:
    # for b > 1 the floored chain drifts below the exact powers and can stop
    # a term earlier than the closed form; (3, 2) does so at most scales
    for a, b in ((3, 2), (4, 3), (11, 7), (79, 3), (13, 12)):
        for prec in range(0, 160, 3):
            for cap in (None, 10**6):
                fp = gregory_series(ArcTerm(a, b), prec, cap)
                assert fp.terms_used == _reference_count(a, b, fp.scale + fp.guard, cap), (a, b, prec, cap)


def _reference_terms(formula: GregoryCombo, digits: int, max_terms: int | None) -> tuple[int, ...]:
    """Series lengths at the working scale of compute_pi's guard rule."""
    estimate = sum(
        10**digits if t.re == t.im else int(digits * math.log(10) / (2 * (math.log(t.re) - math.log(t.im)))) + 2
        for t, _ in formula.items()
    )
    scale = digits + 10 + len(str(max(estimate, 1)))
    return tuple(_reference_count(t.re, t.im, scale, max_terms) for t, _ in formula.items())


@pytest.mark.parametrize("max_terms", [None, 10, 40, 10**6])
def test_terms_used_matches_reference_loop(max_terms: int | None) -> None:
    for name, formula in FORMULAS.items():
        for digits in range(1, 401):
            got = compute_pi(formula, digits, max_terms).terms_used
            assert got == _reference_terms(formula, digits, max_terms), (name, digits)


def test_tail_estimate_never_exceeds_matching_digits() -> None:
    # vega at 2000 digits and 1000 terms is off by 6.9e-958, and a borrow
    # through "...7780..." -> "...7779..." leaves only 955 digits matching
    reference = _mpmath_pi(2000)
    vega = compute_pi(FORMULAS["vega"], 2000, 1000).digits
    assert compare_digits(vega, reference) - 1 == 955
    assert tail_correct_digits(FORMULAS["vega"], 2000, 1000) == 955
    assert tail_correct_digits(FORMULAS["machin"], 20, 0) == 0  # no terms: no digit is certain
    for name, formula in FORMULAS.items():
        for digits in (11, 50, 160, 2000):
            for cap in (3, 10, 40, 100, 1000):
                got = compute_pi(formula, digits, cap).digits
                matching = compare_digits(got, reference[: digits + 2]) - 1
                estimate = tail_correct_digits(formula, digits, cap)
                assert 0 <= estimate <= min(matching, digits), (name, digits, cap)


def _int_of(digits: str) -> int:
    """int(digits) by halves, so that a long string costs a few
    multiplications, where int() on it is quadratic before Python 3.12."""
    if len(digits) <= 1000:
        return int(digits)
    k = len(digits) // 2
    return _int_of(digits[:-k]) * 10**k + _int_of(digits[-k:])


def test_decimal_string_matches_str() -> None:
    chunk = pidigits._CHUNK_DIGITS
    rng = random.Random(20261018)
    cases = [0, 1, 9, 10]
    for k in (chunk - 1, chunk, chunk + 1, 2 * chunk, 4 * chunk + 3, 12345):
        cases += [10**k, 10**k - 1, 10**k + 1]
    # long internal zero runs, straddling the split points
    cases += [7 * 10**k + 3 for k in (chunk, 2 * chunk - 1, 2 * chunk, 5000, 33333)]
    cases += [10 ** (2 * chunk) * 123 + 10**chunk * 45 + 6, (10**60000 - 1) // 9 * 10**70000 + 1]
    cases += [rng.randrange(10 ** (d - 1), 10**d) for d in (1, 2, 999, 1000, 1001, 2001, 4000, 65536, 200000)]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        for n in cases:
            assert pidigits._decimal_digits(n) == str(n), len(str(n))
    finally:
        sys.set_int_max_str_digits(limit)
    # Past str()'s reach in tier-1 time: the digits n was built from.
    digits = str(rng.randrange(1, 10)) + "".join(rng.choices("0123456789", k=500_000))
    assert pidigits._decimal_digits(_int_of(digits)) == digits
    # FixedPoint.decimal_string places the point on the same digits
    assert FixedPoint(314159 * 10**8995 + 5, 4500, 4500).decimal_string() == "3.14159" + "0" * 4495
    assert FixedPoint(-(10**3000 * 31416), 3004, 0).decimal_string() == "-3.1416" + "0" * 3000


@settings(max_examples=100, deadline=None)
@given(st.integers(-(10**40), 10**40), st.integers(0, 8), st.integers(0, 6))
@example(-15, 1, 1)  # -0.15
@example(-5, 0, 1)  # -0.5
@example(-1, 3, 2)  # -0.00001
@example(-(10**9), 3, 6)  # -1 exactly
def test_decimal_string_truncates_toward_zero(mantissa: int, scale: int, guard: int) -> None:
    kept = math.trunc(Fraction(mantissa, 10 ** (scale + guard)) * 10**scale)
    whole, frac = divmod(abs(kept), 10**scale)
    expected = ("-" if kept < 0 else "") + str(whole) + (f".{frac:0{scale}d}" if scale else "")
    assert FixedPoint(mantissa, scale, guard).decimal_string() == expected
