"""Arbitrary-precision evaluation of Gregory series and Machin-like formulas.

Values are scaled integers in base 10 (mantissa / 10**(scale+guard)), so
decimal digits fall straight out of the representation.  One evaluator,
:func:`_arctan`, sums the Gregory series for arctan(b/a) over a given number
of terms by binary splitting (Haible & Papanikolaou, "Fast multiprecision
evaluation of series of rational numbers", 1998), with every product kept
at the output width and one division at the end, so the cost is a few
full-width multiplications rather than a full-width pass per term.  That
division, and the splits of :func:`_decimal_digits` that write the result
out, go through :func:`arith._divmod`, whose recursive division keeps them
subquadratic where Python's own is not (3.11 and earlier).  The term
count comes in closed form from the alternating-series bound, and the
result is rounded toward the limit: it never lies beyond the partial sum on
the side away from arctan(b/a).

One error bound covers every series: the first omitted term plus
:data:`_DUST` units of the last place.  :func:`tail_correct_digits` reports
from it; the guard digits keep it well below the published digits.

Digit correctness is certified by agreement between independently verified
formulas rather than by a stored reference constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .arith import _divmod
from .gregory import ArcTerm, GregoryCombo, _formula_multiple

__all__ = [
    "FORMULAS",
    "FixedPoint",
    "PiResult",
    "classical_bounds_check",
    "compare_digits",
    "compute_pi",
    "gregory_series",
]

# Classic arctangent formulas for pi/4, keyed by the names the CLI accepts.
FORMULAS: dict[str, GregoryCombo] = {
    "machin": GregoryCombo.of_integers({5: 4, 239: -1}),
    "vega": GregoryCombo.of_integers({3: 2, 7: 1}),
    "euler": GregoryCombo({ArcTerm.integer(7): 5, ArcTerm(79, 3): 2}),
    "stormer1896": GregoryCombo.of_integers({57: 44, 239: 7, 682: -12, 12943: 24}),
}


# Largest piece handed to str(): 640 digits is the smallest nonzero limit the
# interpreter's int-to-str conversion guard accepts (PYTHONINTMAXSTRDIGITS,
# sys.int_info.str_digits_check_threshold), so every setting passes it.
_CHUNK_DIGITS = 640
_CHUNK = 10**_CHUNK_DIGITS


def _decimal_digits(n: int) -> str:
    """Decimal digits of n >= 0, for values of any size.

    Divide and conquer: n is split by powers[k] = 10**(_CHUNK_DIGITS * 2**k),
    largest k first, and each half is written zero-padded to its full width,
    so str() only ever sees pieces below 10**_CHUNK_DIGITS.
    """
    if n < _CHUNK:
        return str(n)
    powers = [_CHUNK]
    square = _CHUNK * _CHUNK
    while square <= n:
        powers.append(square)
        square *= square

    def padded(m: int, k: int) -> str:
        # m < powers[k]**2, written as exactly _CHUNK_DIGITS * 2**(k+1) digits
        if k < 0:
            return str(m).zfill(_CHUNK_DIGITS)
        high, low = _divmod(m, powers[k])
        return padded(high, k - 1) + padded(low, k - 1)

    return padded(n, len(powers) - 1).lstrip("0")


@dataclass(frozen=True)
class FixedPoint:
    """Scaled decimal: value = mantissa / 10**(scale + guard).

    ``scale`` is the published precision; the extra ``guard`` digits exist
    so that arithmetic truncates only below the published digits.
    ``terms_used`` records how many series terms produced the value.
    """

    mantissa: int
    scale: int
    guard: int
    terms_used: int | None = None

    def value(self) -> Fraction:
        from fractions import Fraction

        return Fraction(self.mantissa, 10 ** (self.scale + self.guard))

    def __float__(self) -> float:
        return self.mantissa / 10 ** (self.scale + self.guard)

    def decimal_string(self) -> str:
        """The value truncated toward zero to ``scale`` digits after the
        point, with no sign when those digits are all zero."""
        m = abs(self.mantissa) // 10**self.guard
        sign = "-" if self.mantissa < 0 and m else ""
        digits = _decimal_digits(m).rjust(self.scale + 1, "0")
        if self.scale == 0:
            return sign + digits
        return f"{sign}{digits[: -self.scale]}.{digits[-self.scale :]}"


@dataclass(frozen=True)
class PiResult:
    """Digits of pi from one verified formula."""

    formula: GregoryCombo
    digits: str
    terms_used: tuple[int, ...]
    requested_digits: int


# Bound on |_arctan(a, b, scale, n) - 10**scale * S_n| in units of
# 10**-scale, S_n being the exact partial sum: truncation plus rounding.
_DUST = 2


# Terms merged one at a time, exactly, at the leaves of the splitting.
_LEAF = 16


def _split(a2: int, b2: int, lo: int, hi: int, width: int, drop: int, with_p: bool = True) -> tuple[int, int, int]:
    """(P, Q, T) for terms lo..hi-1 of the sum of c_k, where c_0 = 1 and
    c_k / c_(k-1) = p_k / q_k = -(2k-1) b2 / ((2k+1) a2).

    P / Q is the product of p_j / q_j over the range and T / Q the sum of
    its partial products; halves merge as P1*P2, Q1*Q2, T1*Q2 + P1*T2.  Only
    a left child's P is read, so P1*P2 is multiplied out only ``with_p``:
    the root passes False, and so does each node without P to its right
    child.  The right spine from the root therefore returns 0 for P, and
    every other node carries it.  A leaf's P comes with its T: each term
    multiplies p_k into the running product once and adds that product to
    T.  A node whose Q passes its width is shifted right, all three
    together.  The
    node enters the whole sum multiplied by |c_(lo-1)| <= (b2/a2)**(lo-1),
    and (a2/b2)**16 >= 2**drop, so its width shrinks by drop bits every 16
    terms (never below 32): each shift then moves the whole sum by less than
    8 * 2**-width.  Leaves of up to _LEAF terms are summed exactly.
    """
    if hi - lo <= _LEAF:
        p, q, t = 1, 1, 0
        for k in range(lo, hi):
            pk, qk = (-(2 * k - 1) * b2, (2 * k + 1) * a2) if k else (1, 1)
            p, q = p * pk, q * qk
            t = t * qk + p
        return p, q, t
    mid = (lo + hi) // 2
    p1, q1, t1 = _split(a2, b2, lo, mid, width, drop)
    p2, q2, t2 = _split(a2, b2, mid, hi, width, drop, with_p)
    p, q, t = p1 * p2 if with_p else 0, q1 * q2, t1 * q2 + p1 * t2
    shift = q.bit_length() - max(width - drop * (max(lo - 1, 0) // 16), 32)
    if shift > 0:
        p, q, t = p >> shift, q >> shift, t >> shift
    return p, q, t


# 10**scale, built once for the term counts and series of one evaluation,
# all at one scale.
@lru_cache(maxsize=1)
def _power_of_ten(scale: int) -> int:
    return 10**scale


def _arctan(a: int, b: int, scale: int, n: int) -> int:
    """10**scale times S_n, the sum of the first n terms of the Gregory
    series for arctan(b/a), rounded toward arctan(b/a).

    S_n lies above arctan(b/a) for odd n and below it for even n, so the
    result is S_n minus 1/2 unit floored for odd n, plus 1/2 unit ceiled for
    even n.  Binary splitting at width W = bits(10**scale) + bits(n) + 5
    shifts at most n - 1 nodes, each moving the sum by less than 8 * 2**-W,
    so the result is within _DUST units of 10**scale * S_n, on the side of
    the limit.
    """
    if n <= 0:
        return 0
    one = _power_of_ten(scale)
    a2, b2 = a * a, b * b
    width = one.bit_length() + n.bit_length() + 5
    drop = _divmod(a2**16, b2**16)[0].bit_length() - 1
    _, q, t = _split(a2, b2, 0, n, width, drop, False)
    # arctan(b/a) ~ (b/a) * T/Q, so 10**scale * S_n = whole + rest / den
    den = a * q
    whole, rest = _divmod(one * b * t, den)
    if n & 1:
        return whole - (2 * rest < den)
    return whole + 1 + (2 * rest > den)


def _error_bound(a: int, b: int, scale: int, n: int) -> int:
    """Units of 10**-scale by which _arctan(a, b, scale, n) may miss
    10**scale * arctan(b/a): the first omitted term b**(2n+1) / ((2n+1)
    a**(2n+1)) (alternating-series bound), rounded up, plus _DUST."""
    k = 2 * n + 1
    return -(-(10**scale) * b**k // (k * a**k)) + _DUST


def _first_below(x: int, c1: int, c0: int, a2: int, b2: int) -> int:
    """The least n >= 0 with x * b2**n < (c1*n + c0) * a2**n, for a2 > b2.

    With f(n) = log(x / (c1*n + c0)) / log(a2/b2), decreasing, the answer
    is the least n > f(n).  floor(f(floor(f(0)))) lies below it, so one less
    than its float value is a safe start for exact steps upward.
    """
    step = math.log(a2) - math.log(b2)
    n = 0
    for _ in range(2):
        n = max(0, int((math.log(x) - math.log(c1 * n + c0)) / step))
    n = max(n - 1, 0)
    lhs, rhs = x * b2**n, a2**n
    while lhs >= (c1 * n + c0) * rhs:
        n, lhs, rhs = n + 1, lhs * b2, rhs * a2
    return n


def _term_count(a: int, b: int, scale: int, max_terms: int | None) -> int:
    """How many terms the series for arctan(b/a) takes at 10**-scale.

    Both stopping rules read the chain t_0 = floor(10**scale * b / a),
    t_k = floor(t_(k-1) * b**2 / a**2).  Without a cap the series stops at
    the first k with t_k < 2k + 1, where term k drops below one unit; with a
    cap it runs to the cap unless t_k reaches 0 first.

    For b = 1 the chain is floor(x_k), x_k = 10**scale * (b/a)**(2k+1), so
    the first k with x_k below the threshold is the count, in closed form.
    For b > 1 the floors leave t_k below x_k by less than D = a**2 / (a**2 -
    b**2), so the chain cannot stop before the first k with x_k within D
    of the threshold; it is walked only when that k comes before the closed
    form's count.  The exact powers are about log(a**2) / log(a**2 /
    b**2) times wider than 10**scale; past 8 times, the chain is walked
    from the start instead.
    """
    if max_terms is not None and (max_terms <= 0 or a == b):
        return max(max_terms, 0)
    capped = max_terms is not None
    a2, b2 = a * a, b * b
    x = _power_of_ten(scale) * b
    c1 = 0 if capped else 2 * a
    if b > 1 and math.log(a2) > 8 * (math.log(a2) - math.log(b2)):
        first, n = 0, math.inf
    else:
        n = _first_below(x, c1, a, a2, b2)
        u = a2 - b2
        first = n if b == 1 else _first_below(x * u, c1 * u, a * (u + a2), a2, b2)
    stop = min(n, max_terms) if capped else n
    if first < stop:
        k, t = 0, x // a
        while k < stop and t >= (1 if capped else 2 * k + 1):
            k, t = k + 1, t * b2 // a2
        stop = k
    return stop


def _guard(digits: int, terms: list[tuple[int, int]], count: int | None = None) -> int:
    """Guard digits below the published ones: ten, plus the decimal length
    of a term count, ``count`` if given, else the estimate digits * ln 10 /
    (2 ln(a/b)) + 2 summed over the (a, b) of ``terms`` (10**digits for t_1).

    The guard sets the working scale and with it the term counts reported
    in ``terms_used``; the error bound it must clear is a few units per
    series, far below it.
    """
    if count is None:
        count = sum(
            10**digits if a == b else int(digits * math.log(10) / (2 * (math.log(a) - math.log(b)))) + 2
            for a, b in terms
        )
    return 10 + len(_decimal_digits(max(count, 1)))


def gregory_series(term: ArcTerm, precision_digits: int, max_terms: int | None = None) -> FixedPoint:
    """Evaluate t_x = arctan(b/a) for the arc term a + bi to the requested
    decimal precision.

    Requires a > b >= 1 so the series argument is below one; a = b = 1
    (the series for pi/4 itself) is allowed but converges so slowly that
    ``max_terms`` is mandatory for it.  The value is the partial sum over
    ``terms_used`` terms rounded toward arctan(b/a), and it is off from
    arctan(b/a) by at most the first omitted term plus _DUST units of
    10**-(scale + guard).
    """
    a, b = term.re, term.im
    if precision_digits < 0:
        raise ValueError("precision must be >= 0")
    if b > a or (a == b and a != 1):
        raise ValueError(f"series argument {b}/{a} is not below one")
    if a == b == 1 and max_terms is None:
        raise ValueError("the series for t_1 needs an explicit term cap")
    guard = _guard(precision_digits, [(a, b)], max_terms)
    scale = precision_digits + guard
    n = _term_count(a, b, scale, max_terms)
    return FixedPoint(_arctan(a, b, scale, n), precision_digits, guard, n)


# The last verdict is kept too: ``pi`` checks the formula before its progress
# line, and the evaluation behind compute_pi then reads the same verdict, so
# the formula's vector is read once.
@lru_cache(maxsize=1)
def _checked_multiple(formula: GregoryCombo, digits: int, max_terms: int | None) -> int:
    """The k with formula == k * t_1, once the inputs pass every check
    :func:`compute_pi` makes before it sums a series; else ValueError.  The
    checks on the digits and the terms come first, before the vector is
    read (:func:`stormerkit.gregory._formula_multiple`)."""
    if digits < 1:
        raise ValueError("digits must be >= 1")
    terms = list(formula._triples())
    if max_terms is None and any(a == b for a, b, _ in terms):
        raise ValueError("a formula containing t1 itself needs an explicit term cap")
    for a, b, _ in terms:
        if b > a:
            raise ValueError(f"series argument {b}/{a} is not below one")
    return _formula_multiple(formula)


# The last evaluation is kept: ``pi --max-terms`` asks compute_pi for the
# digits and tail_correct_digits for their estimate, and both read one run.
@lru_cache(maxsize=1)
def _pi(formula: GregoryCombo, digits: int, max_terms: int | None) -> tuple[int, int, int, tuple[int, ...]]:
    """(mantissa, scale, k, terms): pi ~ mantissa / 10**scale from the
    formula, which equals k * t_1, and the length of each term's series."""
    k = _checked_multiple(formula, digits, max_terms)
    terms = list(formula._triples())
    scale = digits + _guard(digits, [(a, b) for a, b, _ in terms])
    total = 0
    used = []
    for a, b, coef in terms:
        n = _term_count(a, b, scale, max_terms)
        total += coef * _arctan(a, b, scale, n)
        used.append(n)
    return 4 * total // k, scale, k, tuple(used)


def compute_pi(formula: GregoryCombo, digits: int, max_terms: int | None = None) -> PiResult:
    """Digits of pi from a verified Machin-like formula.

    The combo must equal k * t_1 for a positive integer k (verified
    exactly); pi is then 4/k times its value.  ``max_terms`` caps every
    term's series individually.  The output carries at least ``digits``
    decimal digits; their correctness is limited by the series tails when
    ``max_terms`` is set (see :func:`tail_correct_digits`).  A capped value
    that does not start with "3." raises ValueError: the cap is too small.
    Uncapped, it raises ArithmeticError, since the series bounds failed.
    """
    mantissa, scale, _, used = _pi(formula, digits, max_terms)
    text = FixedPoint(mantissa, digits, scale - digits).decimal_string()
    if not text.startswith("3."):
        if max_terms is not None:
            raise ValueError(f"series capped at {max_terms} terms give {text[:12]}..., which is not pi")
        raise ArithmeticError(f"computed value {text[:12]}... is not pi")
    return PiResult(formula, text, used, digits)


def tail_correct_digits(formula: GregoryCombo, digits: int, max_terms: int) -> int:
    """Correct-digit estimate when every series is capped at ``max_terms``.

    Takes the value :func:`compute_pi` prints and its error bound (each
    series' first omitted term plus _DUST), and counts the leading digits
    after the point on which the truncations of value - error and value +
    error agree.  Pi lies between the two, so its digits agree there too.
    Never more than ``digits``.
    """
    mantissa, scale, k, used = _pi(formula, digits, max_terms)
    bound = sum(abs(c) * _error_bound(a, b, scale, n) for (a, b, c), n in zip(formula._triples(), used))
    error = -(-4 * bound // k) + 1  # the final floor division adds at most one unit
    if error > mantissa:
        return 0
    low, high = _decimal_digits(mantissa - error), _decimal_digits(mantissa + error)
    if len(low) != len(high):  # the integer parts differ
        return 0
    agree = next((i for i, (c, d) in enumerate(zip(low, high)) if c != d), len(low))
    return max(0, min(digits, agree - (len(low) - scale)))


def compare_digits(s1: str, s2: str) -> int:
    """Number of agreeing leading digits of two decimal expansions of the
    form "3.…" (the decimal point is not counted)."""
    for s in (s1, s2):
        if not s.startswith("3.") or not s[2:].isdigit():
            raise ValueError(f"malformed decimal expansion: {s[:16]!r}")
    count = 0
    for c1, c2 in zip(s1, s2):
        if c1 != c2:
            break
        if c1 != ".":
            count += 1
    return count


def classical_bounds_check(digits: str | None = None) -> bool:
    """Check the classical rational bounds on pi.

    Archimedes: 223/71 < pi < 22/7 (strict), and Zu's ratio 355/113 is
    within relative error 9e-8.  With no argument, pi is computed to 30
    digits from Machin's formula; passing a digit string checks that string
    instead (a corrupted one fails).
    """
    if digits is None:
        digits = compute_pi(FORMULAS["machin"], 30).digits
    if not digits.startswith("3.") or not digits[2:].isdigit():
        return False
    # 120 digits decide both bounds with over a hundred orders of margin
    digits = digits[:122]
    from fractions import Fraction

    frac_digits = len(digits) - 2
    value = Fraction(int(digits.replace(".", "", 1)), 10**frac_digits)
    if not (Fraction(223, 71) < value < Fraction(22, 7)):
        return False
    return abs(value - Fraction(355, 113)) / value < Fraction(9, 10**8)
