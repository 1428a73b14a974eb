"""Reduction of Gregory numbers to a Stormer-number basis.

The Gregory number t_x = arctan(1/x) is the argument of the Gaussian integer
x + i.  Because arguments add under multiplication, the Gaussian prime
factorization of n + i expresses t_n as an integer combination of arguments
of Gaussian primes.  Every odd prime p dividing n**2 + 1 is == 1 (mod 4) and
has n == +-S(p) (mod p), S(p) being the least residue root of x**2 == -1
(mod p); the sign alone says which of the two Gaussian primes over p divides
n + i: the first-quadrant prime pi_p dividing S(p) + i, or its conjugate.
So t_n needs one table entry per rational prime, A(p) = Arg(pi_p) over the
basis, and A(p) itself reduces the same way through the factors of
(S(p)**2 + 1)/p, all below p (Stormer 1896; Todd 1949, who proved the
result unique).  The prime over 2 is 1 + i, of argument t_1, and units
contribute quarter turns, 2*t_1 each.

Every angle sum is read exactly as a vector over that basis, t_1 included
(:func:`_vector`): each term a + bi factors the same way, r = a/b mod q
picking the Gaussian prime over each odd q | a**2 + b**2, and the quarter
turns of the product (:func:`_turns`) give its t_1 correction.  As the A(p)
and pi are linearly independent over Q, an identity holds exactly when its
two sides have the same vector, and a hidden 2*pi*m shows as 8*m on t_1;
:func:`_combo_vector` alone reads these, no float decides them, and their
cost does not grow with the coefficients.  The Gaussian product itself is
multiplied out only as a certificate to print (:func:`identity_certificate`).
The flattening of a + bi to e +- i through a*d + b*c = +-1 is kept as
:func:`flatten`.
"""

from __future__ import annotations

import math
import re as _re
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping

from . import arith
from .arith import GaussianInt
from .stormer import Convention, _threshold

__all__ = [
    "ArcTerm",
    "FlattenResult",
    "GregoryCombo",
    "IdentityParseError",
    "LehmerExpansion",
    "decompose",
    "flatten",
    "is_irreducible",
    "lehmer_expand",
    "occurs_among_earlier",
    "parse_identity",
    "verify_identity",
]

class IdentityParseError(ValueError):
    """Raised when an identity string does not match the grammar."""


@dataclass(frozen=True)
class ArcTerm:
    """Canonical argument term arg(re + im*i) with re >= 1, im >= 1 coprime.

    For an integer n the term n + i denotes t_n = arctan(1/n); a general
    term a + bi denotes t_{a/b} = arctan(b/a).  Conjugate arguments are
    expressed by negative coefficients in a combo, never by im < 0 keys.
    """

    re: int
    im: int

    def __post_init__(self) -> None:
        if self.re < 1 or self.im < 1:
            raise ValueError(f"arc term must have re >= 1 and im >= 1, got {self.re}+{self.im}i")
        if math.gcd(self.re, self.im) != 1:
            raise ValueError(f"arc term {self.re}+{self.im}i has content > 1")

    @staticmethod
    def integer(n: int) -> "ArcTerm":
        return ArcTerm(n, 1)

    @staticmethod
    def of(re: int, im: int) -> "ArcTerm":
        """Canonicalize by dividing out the content; re and im must be >= 1."""
        g = math.gcd(re, im)
        if g == 0:
            raise ValueError("zero is not an arc term")
        return ArcTerm(re // g, im // g)

    @property
    def x(self) -> Fraction:
        """The x in t_x = arctan(1/x)."""
        return Fraction(self.re, self.im)

    def gaussian(self) -> GaussianInt:
        return GaussianInt(self.re, self.im)

    def value(self) -> float:
        return math.atan2(self.im, self.re)

    def __str__(self) -> str:
        return f"t{self.re}" if self.im == 1 else f"t{self.re}/{self.im}"


def _sort_key(item: tuple[ArcTerm, int]) -> int | Fraction:
    """t_x ordered by x: an integer term by re alone, since an int and a
    Fraction compare exactly, and a Fraction built only when im > 1."""
    term = item[0]
    return term.re if term.im == 1 else Fraction(term.re, term.im)


class GregoryCombo:
    """An integer combination of arc terms, denoting sum(c_z * arg(z)).

    Immutable once built; zero coefficients are dropped and keys are kept
    canonical, so equal combinations compare equal.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[ArcTerm, int] | Iterable[tuple[ArcTerm, int]] = ()) -> None:
        merged: dict[ArcTerm, int] = {}
        # type() first: the ABC check behind isinstance(terms, Mapping) is slow.
        items = terms.items() if type(terms) is dict or isinstance(terms, Mapping) else terms
        for term, coef in items:
            if not isinstance(term, ArcTerm):
                raise TypeError(f"expected ArcTerm keys, got {term!r}")
            if coef:
                merged[term] = merged.get(term, 0) + coef
        self._terms = {t: c for t, c in merged.items() if c}

    @classmethod
    def _canonical(cls, terms: dict[ArcTerm, int]) -> "GregoryCombo":
        """The combo over ``terms``, a dict no one else holds whose keys are
        ArcTerms and whose coefficients are nonzero, taken as it is."""
        combo = cls.__new__(cls)
        combo._terms = terms
        return combo

    @staticmethod
    def of_integers(coeffs: Mapping[int, int]) -> "GregoryCombo":
        """Build a combo of integer terms, e.g. {5: 4, 239: -1} for Machin."""
        return GregoryCombo({ArcTerm.integer(n): c for n, c in coeffs.items()})

    @staticmethod
    def single(term: ArcTerm, coef: int = 1) -> "GregoryCombo":
        return GregoryCombo({term: coef})

    def terms(self) -> dict[ArcTerm, int]:
        return dict(self._terms)

    def items(self) -> list[tuple[ArcTerm, int]]:
        return sorted(self._terms.items(), key=_sort_key)

    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self) -> Iterator[tuple[ArcTerm, int]]:
        return iter(self.items())

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GregoryCombo) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(tuple(self.items()))

    def __add__(self, other: "GregoryCombo") -> "GregoryCombo":
        out = dict(self._terms)
        for t, c in other._terms.items():
            out[t] = out.get(t, 0) + c
        return GregoryCombo(out)

    def __sub__(self, other: "GregoryCombo") -> "GregoryCombo":
        return self + (-other)

    def __neg__(self) -> "GregoryCombo":
        return GregoryCombo({t: -c for t, c in self._terms.items()})

    def __mul__(self, k: int) -> "GregoryCombo":
        return GregoryCombo({t: k * c for t, c in self._terms.items()})

    __rmul__ = __mul__

    def value(self) -> float:
        return math.fsum(c * t.value() for t, c in self._terms.items())

    def to_json(self) -> dict:
        return {"terms": [{"re": t.re, "im": t.im, "coef": c} for t, c in self.items()]}

    @staticmethod
    def from_json(data: Mapping) -> "GregoryCombo":
        out: dict[ArcTerm, int] = {}
        for entry in data["terms"]:
            if "n" in entry:
                term = ArcTerm.integer(int(entry["n"]))
            else:
                term = ArcTerm(int(entry["re"]), int(entry["im"]))
            out[term] = out.get(term, 0) + int(entry["coef"])
        return GregoryCombo(out)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for term, coef in self.items():
            mag = abs(coef)
            body = str(term) if mag == 1 else f"{mag}*{term}"
            if not parts:
                parts.append(body if coef > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coef > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"GregoryCombo({self._terms!r})"


# --- identity verification -------------------------------------------------

def _turns(terms: Iterable[tuple[int, int, int]]) -> tuple[int, int, int]:
    """(q, r, s) with sum(e * Arg(a + bi)) = q*pi/2 + Arg(r + si) exactly,
    r > 0 and s >= 0, over the triples (a, b, e) of ``terms``, a + bi != 0
    and e >= 0.

    Square and multiply on plain ints, r + si being the product turned back
    by i**q.  A product or square of two first-quadrant values lies in the
    upper half-plane, so one quarter turn (times -i) at most brings it back.
    A square that turns is i times a first-quadrant base that still enters
    the product e times, e being the exponent left: it adds e quarter turns.
    """
    q, re, im = 0, 1, 0
    for a, b, e in terms:
        t, a, b = arith._quarter(a, b)
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


def _powers(terms: Iterable[tuple[ArcTerm, int]]) -> list[tuple[int, int, int]]:
    """The triples (a, b, e) of a Gaussian product prod((a + bi)**e) whose
    argument is sum(c * arg(t)) over the pairs (t, c) of ``terms``; a
    negative c takes |c| times the conjugate of t, whose argument is -arg(t)
    as re >= 1."""
    return [(t.re, t.im if c > 0 else -t.im, abs(c)) for t, c in terms]


def _combo_vector(combo: GregoryCombo) -> dict[int, int]:
    """sum(c * arg(t)) over ``combo`` as a vector over the Stormer basis,
    {s: coefficient} with s = 1 for t_1 and zeros dropped: the sum of each
    term's :func:`_vector`.  The basis is linearly independent over Q, so
    the sum is zero exactly when the vector is empty, and k*t_1 exactly
    when it is {1: k}.  This is the one place an angle sum becomes a
    verdict; its cost is that of factoring each term's norm, whatever the
    coefficients."""
    total: dict[int, int] = {}
    with _memo_lock:
        for t, c in combo._terms.items():
            _add(total, _vector(t.re, t.im, arith._factorize_norm(t.re * t.re + t.im * t.im)), c)
    return {s: c for s, c in total.items() if c}


def identity_certificate(lhs: GregoryCombo, rhs: GregoryCombo) -> GaussianInt:
    """Gaussian product over the difference combo, conjugating terms with
    negative coefficients.  The identity holds modulo 2*pi exactly when this
    product is a positive real number.  Its size grows with the
    coefficients; the verdict itself is :func:`verify_identity`'s."""
    return math.prod((GaussianInt(a, b) ** e for a, b, e in _powers(lhs - rhs)), start=GaussianInt(1, 0))


def verify_identity(lhs: GregoryCombo, rhs: GregoryCombo) -> bool:
    """Exact check that sum(lhs) equals sum(rhs) as real numbers: the two
    sides have the same vector over the Stormer basis (:func:`_combo_vector`).
    A difference that is a positive real product but a multiple 2*pi*m,
    m != 0, reads as {1: 8*m}, and is rejected.
    """
    return not _combo_vector(lhs - rhs)


def _formula_multiple(formula: GregoryCombo) -> int:
    """The positive integer k with formula == k * t_1, exactly, or raise
    ValueError."""
    if not formula:
        raise ValueError("formula is empty")
    vector = _combo_vector(formula)
    k = vector.pop(1, 0)
    if not vector and k >= 1:
        return k
    raise ValueError(f"formula does not equal a positive multiple of t1: {formula}")


# --- flattening ------------------------------------------------------------

@dataclass(frozen=True)
class FlattenResult:
    """Outcome of flattening a + bi to a form e +- i.

    ``multipliers[0]`` flattens the input (input * multipliers[0] equals
    ``flats[0]``, which is ``w``); each later multiplier flattens its
    predecessor (multipliers[k] * multipliers[k+1] = flats[k+1]).  The chain
    stops once a multiplier is a unit or is itself of the form x +- i up to
    a unit.
    """

    w: GaussianInt
    multipliers: tuple[GaussianInt, ...]
    flats: tuple[GaussianInt, ...]


def _is_flat_class(z: GaussianInt) -> bool:
    """True if some associate of z has imaginary part +-1 (form x +- i)."""
    return min(abs(z.re), abs(z.im)) == 1 or (abs(z.re) == 1 and z.im == 0) or (abs(z.im) == 1 and z.re == 0)


def _flatten_step(a: int, b: int) -> tuple[GaussianInt, GaussianInt]:
    """One flattening step for z = a + bi with gcd(a, b) = 1, b != 0.

    Solves a*d + b*c = +-1 and returns (m, w) with m = c + di of minimal
    norm and w = z*m of the form e +- i.  Solutions form the line
    (c, d) = (c0 + a*t, d0 - b*t); the minimum over t is checked on both
    right-hand sides, preferring +1, then d in {1, -1}, then smaller |d|,
    then c > 0.
    """
    _, u, v = arith.extended_gcd(a, b)
    n = a * a + b * b
    candidates: list[tuple[int, int, int, int]] = []
    for delta in (1, -1):
        c0, d0 = v * delta, u * delta
        t_star = Fraction(d0 * b - c0 * a, n)
        for t in {math.floor(t_star), math.ceil(t_star)}:
            c, d = c0 + a * t, d0 - b * t
            candidates.append((c * c + d * d, 0 if delta == 1 else 1, c, d))
    best_norm = min(cand[0] for cand in candidates)
    pool = [cand for cand in candidates if cand[0] == best_norm]
    pool.sort(key=lambda cand: (cand[1], 0 if cand[3] in (1, -1) else 1, abs(cand[3]), cand[2] <= 0))
    _, _, c, d = pool[0]
    m = GaussianInt(c, d)
    w = GaussianInt(a, b) * m
    if abs(w.im) != 1:
        raise ArithmeticError(f"flattening {GaussianInt(a, b)} by {m} gave {w}, not of the form e +- i")
    return m, w


def flatten(z: GaussianInt) -> FlattenResult:
    """Flatten a canonical Gaussian integer to the form e +- i.

    ``z`` must satisfy gcd(re, im) = 1, re > 0, |im| != 1 and norm > 2.
    Each step solves the Diophantine equation a*d + b*c = +-1 for the
    minimal-norm multiplier c + di; the step repeats on the multiplier while
    it is neither a unit nor of the form x +- i up to a unit.  Norms of the
    successive multipliers strictly decrease, which bounds the chain length;
    a failure of that invariant raises ArithmeticError.
    """
    if z.is_zero() or math.gcd(abs(z.re), abs(z.im)) != 1:
        raise ValueError(f"{z} is not in canonical form (content must be 1)")
    if z.re <= 0:
        raise ValueError(f"{z} is not in canonical form (re must be positive)")
    if abs(z.im) == 1 or z.im == 0:
        raise ValueError(f"{z} is already of the form x +- i")
    if z.norm() <= 2:
        raise ValueError(f"{z} has norm <= 2")
    multipliers: list[GaussianInt] = []
    flats: list[GaussianInt] = []
    cur = z
    while True:
        m, w = _flatten_step(cur.re, cur.im)
        if m.norm() >= cur.norm():
            raise ArithmeticError(f"flattening failed to reduce the norm at {cur} (multiplier {m})")
        multipliers.append(m)
        flats.append(w)
        if m.is_unit() or _is_flat_class(m):
            break
        cur = m
    return FlattenResult(flats[0], tuple(multipliers), tuple(flats))


# --- the decomposition engine ----------------------------------------------

_memo_lock = threading.Lock()
# The only state of the engine, grown by the primes met and never by n:
# p == 1 (mod 4) -> (a, b, A(p)), a + bi the first-quadrant Gaussian prime
# dividing S(p) + i and A(p) its argument over the Stormer basis.
_prime_memo: dict[int, tuple[int, int, dict[int, int]]] = {}
# s -> t_s as an ArcTerm for the terms that recur in results: t_1 and the
# t_S(p) of _prime_memo's entries, added with them.
_basis_terms: dict[int, ArcTerm] = {1: ArcTerm.integer(1)}


def _add(dst: dict[int, int], src: Mapping[int, int], scale: int) -> None:
    for s, c in src.items():
        dst[s] = dst.get(s, 0) + scale * c


def _factor_args(a: int, b: int, norm: arith.PrimeFactorization) -> tuple[dict[int, int], list[tuple[int, int, int]]]:
    """The Gaussian primes of a + bi, a, b >= 1 coprime, over the factors of
    ``norm``, the prime factorization of a**2 + b**2, or of (a**2 + b**2)/p
    for a prime p that divides it once.

    Returns (combo, powers): ``combo`` is the sum of their arguments over the
    Stormer basis, and ``powers`` the triples (a, b, e) of their product for
    :func:`_turns`.  The prime over 2 is 1 + i, to the power e2.  An odd q**e
    exactly dividing a**2 + b**2 does not divide b, and a + bi = b*(r + i)
    for r = a/b mod q, a root of x**2 == -1 (mod q): S(q) = min(r, q - r),
    and the prime is pi_q when 2r < q and the conjugate of pi_q, of argument
    -A(q), when not.
    """
    combo: dict[int, int] = {}
    powers = []
    for q, e in norm.factors:
        if q == 2:
            combo[1] = combo.get(1, 0) + e
            powers.append((1, 1, e))
        else:
            r = a * pow(b, -1, q) % q
            sign = 1 if 2 * r < q else -1
            x, y, arg = _prime_entry(q, min(r, q - r))
            _add(combo, arg, sign * e)
            powers.append((x, sign * y, e))
    return combo, powers


def _vector(a: int, b: int, norm: arith.PrimeFactorization) -> dict[int, int]:
    """Arg(a + bi) over the Stormer basis, {s: coefficient} with s = 1 for
    t_1 and zeros dropped, for a, b >= 1 coprime and ``norm`` the prime
    factorization of a**2 + b**2.

    a + bi is, up to a unit, the product of its Gaussian primes
    (:func:`_factor_args`): with q the quarter turns of that product, the
    argument is theirs less 2*q*t_1.  It fills _prime_memo, so the caller
    holds _memo_lock.
    """
    combo, powers = _factor_args(a, b, norm)
    combo[1] = combo.get(1, 0) - 2 * _turns(powers)[0]
    return {s: c for s, c in combo.items() if c}


def _prime_entry(p: int, s: int) -> tuple[int, int, dict[int, int]]:
    """(a, b, A(p)) for a prime p == 1 (mod 4) with S(p) = s: pi_p = a + bi
    is the first-quadrant Gaussian prime dividing s + i, read by
    :func:`arith._prime_over`, and A(p) = Arg(pi_p) over the Stormer basis.

    s is a Stormer number, as p >= 2s + 1 is the largest prime of s**2 + 1.
    If s**2 + 1 = p, s + i is pi_p and A(p) = t_s.  Otherwise p divides
    s**2 + 1 < p**2 / 4 + 1 once, and m = (s**2 + 1)/p < p/4 is the norm of
    (s + i)/pi_p, of content 1, so its primes are those of s + i other than
    pi_p.  The quarter turns k of pi_p times the Gaussian primes over m
    (:func:`_factor_args`) put their product at i**k * (s + i), so A(p) is
    t_s less the other primes' arguments plus 2*k*t_1.
    """
    entry = _prime_memo.get(p)
    if entry is None:
        a, b = arith._prime_over(p, s)
        arg = {s: 1}
        m = (s * s + 1) // p
        if m != 1:
            others, powers = _factor_args(s, 1, arith._factorize_norm(m))
            powers.append((a, b, 1))
            _add(arg, others, -1)
            arg[1] = arg.get(1, 0) + 2 * _turns(powers)[0]
        _basis_terms[s] = ArcTerm.integer(s)
        entry = _prime_memo[p] = (a, b, arg)
    return entry


def decompose(n: int) -> GregoryCombo:
    """Express t_n as an integer combination of Stormer-basis terms.

    A Stormer number (inclusive convention) is its own basis element.  Any
    other n has n**2 + 1 = 2**e2 * prod(p**e), n + i is, up to a unit,
    (1 + i)**e2 times prod(pi_p**e) with pi_p or its conjugate picked by
    n mod p, and t_n = e2*t_1 + sum(+-e*A(p)) less 2*q*t_1 for the q
    quarter turns of that product (:func:`_vector`).  Each A(p) is a
    combination of t_s with s Stormer and s <= (p - 1)/2 < n.  That sum is
    verified exactly, in quarter turns, before it is returned.  Nothing is
    kept per n: a call adds only the table entries A(p) it meets.
    """
    if n <= 0:
        raise ValueError(f"expected a positive integer, got {n}")
    norm = arith._factorize_norm(n * n + 1)
    if norm.largest_prime() >= _threshold(n, Convention.INCLUSIVE):
        return GregoryCombo._canonical({ArcTerm.integer(n): 1})
    with _memo_lock:
        vector = _vector(n, 1, norm)
    powers = [(n, 1, 1)] + [(s, -1 if c > 0 else 1, abs(c)) for s, c in vector.items()]
    q, _, im = _turns(powers)
    if q or im:
        raise ArithmeticError(f"internal decomposition of t_{n} failed verification")
    return GregoryCombo._canonical({_basis_terms[s]: c for s, c in vector.items()})


def is_irreducible(n: int) -> bool:
    """True iff t_n does not reduce: decompose(n) is the single term t_n."""
    return decompose(n) == GregoryCombo.single(ArcTerm.integer(n))


def occurs_among_earlier(n: int) -> bool:
    """True iff every prime factor of 1 + n**2 divides 1 + m**2 for some
    1 <= m < n.  Checked literally, as a test oracle."""
    if n < 2:
        raise ValueError(f"expected n >= 2, got {n}")
    for p in arith.factorize(n * n + 1).primes():
        if not any((m * m + 1) % p == 0 for m in range(1, n)):
            return False
    return True


# --- Lehmer's arccot expansion ----------------------------------------------

@dataclass(frozen=True)
class LehmerExpansion:
    """Alternating expansion arccot(a/b) = arccot(n_0) - arccot(n_1) + ...

    ``truncated`` is set when the term cap was reached before the remainder
    vanished, in which case the identity holds only up to the dropped tail.
    """

    a: int
    b: int
    cotangents: tuple[int, ...]
    truncated: bool

    def value(self) -> float:
        return math.fsum((-1) ** j * math.atan2(1, n) for j, n in enumerate(self.cotangents))


def lehmer_expand(a: int, b: int, max_terms: int = 64) -> LehmerExpansion:
    """Run the recurrences a_j = n_j*b_j + b_{j+1}, a_{j+1} = a_j*n_j + b_j.

    Starting from a_0 = a, b_0 = b with a > b >= 1 and gcd(a, b) = 1, the
    remainders b_j strictly decrease, so the expansion terminates in at most
    b steps unless capped earlier by ``max_terms``.
    """
    if b < 1 or a <= b:
        raise ValueError(f"expected a > b >= 1, got a={a}, b={b}")
    if math.gcd(a, b) != 1:
        raise ValueError(f"expected gcd(a, b) = 1, got a={a}, b={b}")
    if max_terms < 1:
        raise ValueError("max_terms must be positive")
    cots = []
    aj, bj = a, b
    while bj and len(cots) < max_terms:
        n, b_next = divmod(aj, bj)
        cots.append(n)
        aj, bj = aj * n + bj, b_next
    return LehmerExpansion(a=a, b=b, cotangents=tuple(cots), truncated=bj != 0)


# --- identity grammar --------------------------------------------------------

_TERM_RE = _re.compile(r"([+-]?)(?:(\d+)\*)?t(\d+)(?:/(\d+))?")


def _parse_side(text: str, original: str) -> GregoryCombo:
    pos = 0
    terms: dict[ArcTerm, int] = {}
    while pos < len(text):
        match = _TERM_RE.match(text, pos)
        if not match or (pos > 0 and match.group(1) == ""):
            raise IdentityParseError(f"cannot parse identity {original!r} at {text[pos:]!r}")
        sign = -1 if match.group(1) == "-" else 1
        coef = sign * int(match.group(2) or 1)
        try:
            term = ArcTerm.of(int(match.group(3)), int(match.group(4) or 1))
        except ValueError as exc:
            raise IdentityParseError(f"bad term in identity {original!r}: {exc}") from None
        terms[term] = terms.get(term, 0) + coef
        pos = match.end()
    if not terms:
        raise IdentityParseError(f"empty side in identity {original!r}")
    return GregoryCombo(terms)


def parse_identity(text: str) -> tuple[GregoryCombo, GregoryCombo]:
    """Parse an identity like ``"t1 = 4*t5 - t239"`` (rational subscripts as
    ``t79/3``); whitespace is insignificant."""
    compact = "".join(text.split())
    if compact.count("=") != 1:
        raise IdentityParseError(f"identity must contain exactly one '=': {text!r}")
    lhs_text, rhs_text = compact.split("=")
    return _parse_side(lhs_text, text), _parse_side(rhs_text, text)
