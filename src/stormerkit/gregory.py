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

The one reader of an angle sum (:func:`_vector`) splits each term a + bi
into Gaussian parts, r = a/b mod q picking the part over each odd q of a
factorization of a**2 + b**2 into coprime pieces, and the quarter turns of
their product (:func:`arith._turns`, the package's one square and multiply
in Z[i]) give its t_1 correction.  decompose reads it
over the primes, with the A(p) as the entries.  A verdict needs no primes
(:func:`_combo_vector`): gcds refine the terms' norms into pairwise coprime
pieces m on which every term's root is +-S_m, and the entry of m is the
argument of rho_m, the Gaussian integer of norm m dividing S_m + i.  The
rho_m are pairwise coprime, and each is coprime to its conjugate as a and
b are coprime, so their arguments and pi are linearly independent over Q:
an identity holds exactly when the vector of its difference is empty, and
a hidden 2*pi*m shows as 8*m on t_1.  No float decides a verdict, and no
factoring, primality test or table does; its cost does not grow with the
coefficients.  The Gaussian product itself is multiplied out only as a
certificate to print (:func:`identity_certificate`), by the same
:func:`arith._turns` that counts a vector's quarter turns.
The flattening of a + bi to e + i through a*d + b*c = 1 is kept as
:func:`flatten`.

A :class:`GregoryCombo` holds its terms as one flat tuple of ints, (re, im,
coef) per term in ascending x = re/im; the vector readers and the pi
evaluator read those triples, and :class:`ArcTerm` values are built only
when a caller asks for the terms.  Its constructor is the one place terms
are merged and type-checked: the identity parser and
:meth:`GregoryCombo.from_json` hand it their terms as they come.
"""

from __future__ import annotations

import math
import re as _re
from dataclasses import dataclass
from functools import cache, cmp_to_key
from typing import Callable, Iterable, Iterator, Mapping

from . import arith
from .arith import GaussianInt, _turns
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


@dataclass(frozen=True, slots=True)
class ArcTerm:
    """Canonical argument term arg(re + im*i) with re >= 1, im >= 1 coprime.

    For an integer n the term n + i denotes t_n = arctan(1/n); a general
    term a + bi denotes t_{a/b} = arctan(b/a).  Conjugate arguments are
    expressed by negative coefficients in a combo, never by im < 0 keys.
    """

    re: int
    im: int

    def __post_init__(self) -> None:
        arith._ints(self.re, self.im)
        if self.re < 1 or self.im < 1:
            raise ValueError(f"arc term must have re >= 1 and im >= 1, got {self.re}+{self.im}i")
        if math.gcd(self.re, self.im) != 1:
            raise ValueError(f"arc term {self.re}+{self.im}i has content > 1")

    @staticmethod
    def integer(n: int) -> "ArcTerm":
        """t_n, the term n + i, with the checks of ArcTerm(n, 1)."""
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
        from fractions import Fraction

        return Fraction(self.re, self.im)

    def gaussian(self) -> GaussianInt:
        return GaussianInt(self.re, self.im)

    def value(self) -> float:
        return math.atan2(self.im, self.re)

    def __str__(self) -> str:
        return f"t{self.re}" if self.im == 1 else f"t{self.re}/{self.im}"


# Terms (re, im) in ascending x = re/im, exactly: s before t when
# s.re * t.im < t.re * s.im, with no Fraction built and ``fractions`` not
# imported.
_sort_key = cmp_to_key(lambda s, t: s[0] * t[1] - t[0] * s[1])


def _summed(triples: Iterable[tuple[int, int, int]]) -> tuple[int, ...]:
    """The sum of the terms (re, im, coef) of ``triples`` in the form of
    ``GregoryCombo._terms``: duplicates merged, zeros dropped, sorted."""
    merged: dict[tuple[int, int], int] = {}
    for re, im, c in triples:
        merged[re, im] = merged.get((re, im), 0) + c
    return tuple(v for key in sorted(merged, key=_sort_key) if merged[key] for v in (*key, merged[key]))


class GregoryCombo:
    """An integer combination of arc terms, denoting sum(c_z * arg(z)).

    Immutable: ``_terms`` is one flat tuple (re, im, coef, re, im, coef,
    ...), a triple per term, each coefficient a nonzero int, in ascending
    x = re/im; so equal combinations hold equal tuples.  ArcTerms are built
    only when asked for, by :meth:`items` and the methods that read it.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[ArcTerm, int] | Iterable[tuple[ArcTerm, int]] = ()) -> None:
        # type() first: the ABC check behind isinstance(terms, Mapping) is slow.
        items = terms.items() if type(terms) is dict or isinstance(terms, Mapping) else terms
        triples = []
        for term, coef in items:
            arith._ints(coef)
            if not isinstance(term, ArcTerm):
                raise TypeError(f"expected ArcTerm keys, got {term!r}")
            triples.append((term.re, term.im, coef))
        self._terms = _summed(triples)

    @classmethod
    def _canonical(cls, terms: tuple[int, ...]) -> "GregoryCombo":
        """The combo over ``terms``, a tuple already in the form of
        ``_terms``, taken as it is."""
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

    def _triples(self) -> Iterator[tuple[int, int, int]]:
        """(re, im, coef) of each term, in ascending x."""
        flat = iter(self._terms)
        return zip(flat, flat, flat)

    def terms(self) -> dict[ArcTerm, int]:
        return dict(self.items())

    def items(self) -> list[tuple[ArcTerm, int]]:
        return [(ArcTerm(re, im), c) for re, im, c in self._triples()]

    def __len__(self) -> int:
        return len(self._terms) // 3

    def __iter__(self) -> Iterator[tuple[ArcTerm, int]]:
        return iter(self.items())

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GregoryCombo) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(self._terms)

    def __add__(self, other: "GregoryCombo") -> "GregoryCombo":
        if not isinstance(other, GregoryCombo):
            return NotImplemented
        return GregoryCombo._canonical(_summed((*self._triples(), *other._triples())))

    def __sub__(self, other: "GregoryCombo") -> "GregoryCombo":
        return self + -other if isinstance(other, GregoryCombo) else NotImplemented

    def __neg__(self) -> "GregoryCombo":
        return self * -1

    def __mul__(self, k: int) -> "GregoryCombo":
        if type(k) is bool or not isinstance(k, int):
            return NotImplemented
        return GregoryCombo._canonical(_summed((re, im, k * c) for re, im, c in self._triples()))

    __rmul__ = __mul__

    def value(self) -> float:
        return math.fsum(c * math.atan2(im, re) for re, im, c in self._triples())

    def to_json(self) -> dict:
        return {"terms": [{"re": re, "im": im, "coef": c} for re, im, c in self._triples()]}

    @staticmethod
    def from_json(data: Mapping) -> "GregoryCombo":
        """The combo of ``to_json``'s form, with {"n": n, "coef": c} taken
        for the term n + i.  Each field goes to ArcTerm and the constructor
        as it is, so a float, a bool or a string raises TypeError and
        repeated terms are summed."""
        return GregoryCombo(
            (ArcTerm.integer(e["n"]) if "n" in e else ArcTerm(e["re"], e["im"]), e["coef"]) for e in data["terms"]
        )

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
        return f"GregoryCombo({self.terms()!r})"


# --- identity verification -------------------------------------------------

def _powers(combo: GregoryCombo) -> list[tuple[int, int, int]]:
    """The triples (a, b, e) of a Gaussian product prod((a + bi)**e) whose
    argument is sum(c * arg(re + im*i)) over the terms (re, im, c) of
    ``combo``; a negative c takes |c| times the conjugate, whose argument is
    the negative as re >= 1."""
    return [(re, im if c > 0 else -im, abs(c)) for re, im, c in combo._triples()]


def _refine(todo: list[tuple[int, int]]) -> list[int]:
    """Pairwise coprime odd moduli m > 1, each n of the pairs (n, r) in
    ``todo`` a product of their powers, r being a root of x**2 == -1 (mod n)
    with n odd (Bernstein, "Factoring into coprimes in essentially linear
    time", J. Algorithms 54, 2005, here by plain pairwise gcds).

    Two entries (n, r) and (m, s) that share g = gcd(m, n) > 1 give way to
    m/g, n/g and the split of g by d = gcd(r - s, g).  A root of -1 modulo
    an odd prime power is one of two, +-s, fixed by its value mod the prime,
    so d is the part of g where r == s and g/d the part where r == -s,
    coprime to d.  m/g keeps s and the other three take r, so each new
    piece has one sign on the whole of it against the root of each entry it
    came from.  By induction, each input's root is +-S_m on every m that
    divides its n, S_m = min(r, m - r).
    """
    base: dict[int, int] = {}
    while todo:
        n, r = todo.pop()
        m = next((m for m in base if math.gcd(m, n) > 1), 0)
        if not m:
            base[n] = r
            continue
        s = base.pop(m)
        g = math.gcd(m, n)
        d = math.gcd(r - s, g)
        todo += [(k, x % k) for k, x in ((m // g, s), (n // g, r), (d, r), (g // d, r)) if k > 1]
    return list(base)


def _piece(m: int, s: int) -> tuple[int, int, dict[int, int]]:
    """(a, b, {m: 1}) for a piece m of :func:`_refine` with S_m = s: a + bi
    of norm m divides s + i (:func:`arith._prime_over`), and its argument is
    the basis element named m."""
    return (*arith._prime_over(m, s), {m: 1})


def _combo_vector(combo: GregoryCombo) -> dict[int, int]:
    """sum(c * arg(t)) over ``combo`` as an exact vector, {1: coefficient of
    t_1, m: coefficient of Arg(rho_m)} with zeros dropped: the sum of each
    term's :func:`_vector` over a coprime base rather than over primes.

    The odd parts of the terms' norms a**2 + b**2 are refined by gcds into
    pairwise coprime pieces m, on each of which every term's root
    r = a/b mod m is +-S_m (:func:`_refine`), and rho_m is the first-quadrant
    Gaussian integer of norm m that divides S_m + i (:func:`_piece`).  Up to
    a unit, a + bi is (1 + i)**e2 times rho_m or its conjugate to the power
    m has in its norm, for each m: on every prime of m it takes the Gaussian
    prime over that prime which divides r + i.  The rho_m share no Gaussian
    prime, and each is coprime to its conjugate, as a and b are coprime; so
    their arguments and pi are linearly independent over Q.  The sum is
    therefore zero exactly when the vector is empty, and k*t_1 exactly when
    it is {1: k}.  This is the one place an angle sum becomes a verdict: it
    takes gcds and modular inverses only, factors nothing and touches no
    table, whatever the terms and coefficients."""
    # a**2 + b**2 is 2 (mod 4) when a and b are both odd, and odd otherwise.
    terms = [(a, b, c, (a * a + b * b) >> (a & b & 1)) for a, b, c in combo._triples()]
    base = _refine([(n, a * pow(b, -1, n) % n) for a, b, _, n in terms if n > 1])
    total: dict[int, int] = {}
    for a, b, c, n in terms:
        factors = [(2, 1)] if a & b & 1 else []
        for m in base:
            e = 0
            while n % m == 0:
                n //= m
                e += 1
            if e:
                factors.append((m, e))
        _add(total, _vector(a, b, factors, _piece), c)
    return {s: c for s, c in total.items() if c}


def identity_certificate(lhs: GregoryCombo, rhs: GregoryCombo) -> GaussianInt:
    """Gaussian product over the difference combo, conjugating terms with
    negative coefficients.  The identity holds modulo 2*pi exactly when this
    product is a positive real number.  Its size grows with the
    coefficients; the verdict itself is :func:`verify_identity`'s.

    :func:`arith._turns` squares and multiplies the powers, giving the
    product as i**q * (r + si), and :func:`arith._rotated` turns it."""
    return arith._rotated(*_turns(_powers(lhs - rhs)))


def verify_identity(lhs: GregoryCombo, rhs: GregoryCombo) -> bool:
    """Exact check that sum(lhs) equals sum(rhs) as real numbers: their
    difference has the empty vector over a coprime base (:func:`_combo_vector`).
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
    """Outcome of flattening a + bi to a form e + i.

    ``multipliers[0]`` flattens the input (input * multipliers[0] equals
    ``flats[0]``, which is ``w``); each later multiplier flattens its
    predecessor (multipliers[k] * multipliers[k+1] = flats[k+1]).  Every
    flat has imaginary part 1.  The chain stops once a multiplier is a unit
    or is itself of the form x +- i up to a unit.
    """

    w: GaussianInt
    multipliers: tuple[GaussianInt, ...]
    flats: tuple[GaussianInt, ...]


def _flatten_step(a: int, b: int) -> tuple[GaussianInt, GaussianInt]:
    """One flattening step for z = a + bi with gcd(a, b) = 1, b != 0.

    Returns (m, w) with m = c + di the solution of a*d + b*c = 1 of least
    norm and w = z*m = e + i.  With u*a + v*b = 1 the solutions are
    (c, d) = (v + a*t, u - b*t), whose norm is least at the real
    t* = (u*b - v*a)/(a**2 + b**2); of t = floor(t*) and t + 1, the one of
    smaller norm is taken.  The two tie only when t* is a half-integer,
    which needs a**2 + b**2 = 2, and both are then units: the one with
    d in {1, -1} is taken.  The solutions of a*d + b*c = -1 are these
    negated, of the same norms, so they never give a smaller multiplier.
    """
    _, u, v = arith.extended_gcd(a, b)
    t = (u * b - v * a) // (a * a + b * b)
    solutions = ((v + a * k, u - b * k) for k in (t, t + 1))
    c, d = min(solutions, key=lambda cd: (cd[0] * cd[0] + cd[1] * cd[1], cd[1] not in (1, -1)))
    m = GaussianInt(c, d)
    return m, GaussianInt(a, b) * m


def flatten(z: GaussianInt) -> FlattenResult:
    """Flatten a canonical Gaussian integer to the form e + i.

    ``z`` must satisfy gcd(re, im) = 1, re > 0 and |im| >= 2, so its norm
    is at least 5.
    Each step solves the Diophantine equation a*d + b*c = 1 for the
    minimal-norm multiplier c + di; the step repeats on the multiplier while
    neither of its parts is +-1, that is, while it is neither a unit nor of
    the form x +- i up to a unit.  Norms of the successive multipliers
    strictly decrease, which bounds the chain length; a failure of that
    invariant raises ArithmeticError.
    """
    if z.is_zero() or math.gcd(abs(z.re), abs(z.im)) != 1:
        raise ValueError(f"{z} is not in canonical form (content must be 1)")
    if z.re <= 0:
        raise ValueError(f"{z} is not in canonical form (re must be positive)")
    if abs(z.im) == 1 or z.im == 0:
        raise ValueError(f"{z} is already of the form x +- i")
    multipliers: list[GaussianInt] = []
    flats: list[GaussianInt] = []
    cur = z
    while True:
        m, w = _flatten_step(cur.re, cur.im)
        if m.norm() >= cur.norm():
            raise ArithmeticError(f"flattening failed to reduce the norm at {cur} (multiplier {m})")
        multipliers.append(m)
        flats.append(w)
        if 1 in (abs(m.re), abs(m.im)):
            break
        cur = m
    return FlattenResult(flats[0], tuple(multipliers), tuple(flats))


# --- the decomposition engine ----------------------------------------------

# decompose's convention, read once rather than as an enum attribute per call.
_INCLUSIVE = Convention.INCLUSIVE


def _add(dst: dict[int, int], src: Mapping[int, int], scale: int) -> None:
    for s, c in src.items():
        dst[s] = dst.get(s, 0) + scale * c


# entry(q, s) -> (x, y, arg): the Gaussian integer x + yi over q dividing
# s + i, and its argument over a basis; see _factor_args.
_Entry = Callable[[int, int], tuple[int, int, dict[int, int]]]


def _factor_args(
    a: int, b: int, factors: Iterable[tuple[int, int]], entry: _Entry
) -> tuple[dict[int, int], list[tuple[int, int, int]]]:
    """The Gaussian parts of a + bi, a, b >= 1 coprime, over ``factors``, the
    pairs (q, e) of a factorization of a**2 + b**2 into powers of 2 and of
    pairwise coprime odd q, or of (a**2 + b**2)/p for a prime p that divides
    it once.

    Returns (combo, powers): ``combo`` is the sum of their arguments over the
    basis that ``entry`` reads, and ``powers`` the triples (a, b, e) of their
    product for :func:`_turns`.  The part over 2 is (1 + i)**e, of argument
    e*t_1.  An odd q**e in the factorization is prime to b, and
    a + bi = b*(r + i) for r = a/b mod q (a mod q when b = 1, as for every
    t_n and every A(p)), a root of x**2 == -1 (mod q).  With s = min(r, q - r),
    entry(q, s) gives (x, y, arg): x + yi divides s + i, and is pi_q for a
    prime q (:func:`_prime_entry`) or rho_q for a piece of a coprime base
    (:func:`_piece`).  The part over q is (x + yi)**e when 2r < q, and the
    conjugate's power, of argument -e*arg, when not.
    """
    combo: dict[int, int] = {}
    powers = []
    for q, e in factors:
        if q == 2:
            combo[1] = combo.get(1, 0) + e
            powers.append((1, 1, e))
        else:
            r = (a if b == 1 else a * pow(b, -1, q)) % q
            if 2 * r > q:
                r, e = q - r, -e
            x, y, arg = entry(q, r)
            for s, c in arg.items():
                combo[s] = combo.get(s, 0) + e * c
            powers.append((x, y, e) if e > 0 else (x, -y, -e))
    return combo, powers


def _vector(a: int, b: int, factors: Iterable[tuple[int, int]], entry: _Entry) -> dict[int, int]:
    """Arg(a + bi) over the basis that ``entry`` reads, {s: coefficient} with
    s = 1 for t_1 and zeros dropped, for a, b >= 1 coprime and ``factors``
    a factorization of a**2 + b**2 as :func:`_factor_args` takes it.

    a + bi is, up to a unit, the product of its Gaussian parts
    (:func:`_factor_args`): with q the quarter turns of that product, the
    argument is theirs less 2*q*t_1.
    """
    combo, powers = _factor_args(a, b, factors, entry)
    combo[1] = combo.get(1, 0) - 2 * _turns(powers)[0]
    return {s: c for s, c in combo.items() if c}


@cache
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

    A pure function of (p, s) whose cache is the A(p) table, the engine's
    only memory: it grows by the primes met, never by n.  Two threads that
    meet a new p at once may both build its entry, of equal value.  The
    returned A(p) is shared, and no caller changes it.
    """
    a, b = arith._prime_over(p, s)
    arg = {s: 1}
    m = (s * s + 1) // p
    if m != 1:
        others, powers = _factor_args(s, 1, arith._factorize_norm(m), _prime_entry)
        powers.append((a, b, 1))
        _add(arg, others, -1)
        arg[1] = arg.get(1, 0) + 2 * _turns(powers)[0]
    return a, b, arg


def decompose(n: int) -> GregoryCombo:
    """Express t_n as an integer combination of Stormer-basis terms.

    A Stormer number (inclusive convention) is its own basis element.  Any
    other n has n**2 + 1 = 2**e2 * prod(p**e), n + i is, up to a unit,
    (1 + i)**e2 times prod(pi_p**e) with pi_p or its conjugate picked by
    n mod p, and t_n = e2*t_1 + sum(+-e*A(p)) less 2*q*t_1 for the q
    quarter turns of that product (:func:`_vector`).  Each A(p) is a
    combination of t_s with s Stormer and s <= (p - 1)/2 < n.  That sum is
    verified exactly, in quarter turns, before it is returned.  The result
    holds ints only, the triples (s, 1, c) of that vector in ascending s (or
    the one triple (n, 1, 1)), and no ArcTerm is built for it.  Nothing is
    kept per n: a call adds to the cache of :func:`_prime_entry` only the
    primes it meets, and it takes no lock.
    """
    arith._positive(n)
    factors = arith._factorize_norm(n * n + 1)
    if factors[-1][0] >= _threshold(n, _INCLUSIVE):
        return GregoryCombo._canonical((n, 1, 1))
    vector = _vector(n, 1, factors, _prime_entry)
    powers = [(n, 1, 1)] + [(s, -1, c) if c > 0 else (s, 1, -c) for s, c in vector.items()]
    q, _, im = _turns(powers)
    if q or im:
        raise ArithmeticError(f"internal decomposition of t_{n} failed verification")
    return GregoryCombo._canonical(tuple(v for s in sorted(vector) for v in (s, 1, vector[s])))


def is_irreducible(n: int) -> bool:
    """True iff t_n does not reduce: decompose(n) is the single term t_n."""
    return decompose(n) == GregoryCombo.single(ArcTerm.integer(n))


def occurs_among_earlier(n: int) -> bool:
    """True iff every prime factor of 1 + n**2 divides 1 + m**2 for some
    1 <= m < n.  Checked literally, as a test oracle."""
    arith._ints(n)
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
    arith._ints(a, b, max_terms)
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
    terms: list[tuple[ArcTerm, int]] = []
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
        terms.append((term, coef))
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
