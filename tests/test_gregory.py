from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import pickle
import random
import subprocess
import sys
import threading
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import Iterator

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


# The cached A(p) builder itself, whatever a test installs over the module name.
_PRIME_ENTRY = gregory._prime_entry


@pytest.fixture
def cold_tables(monkeypatch: pytest.MonkeyPatch) -> Iterator[dict[int, int]]:
    """The decomposition engine from an empty cache: no A(p) entry, emptied
    again after the test.  Yields p -> S(p) for every
    prime whose entry is asked for, read by a wrapper over
    gregory._prime_entry: decompose and the recursion inside _prime_entry
    both call it through the module name, so its keys are the table's."""
    met: dict[int, int] = {}

    def entry(p: int, s: int) -> tuple[int, int, dict[int, int]]:
        met[p] = s
        return _PRIME_ENTRY(p, s)

    _PRIME_ENTRY.cache_clear()
    monkeypatch.setattr(gregory, "_prime_entry", entry)
    yield met
    _PRIME_ENTRY.cache_clear()


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


@pytest.mark.parametrize("n", [1, 2, 2**31, 2**64 + 1])
def test_integer_term_is_the_checked_term(n: int) -> None:
    # ArcTerm.integer(n) is ArcTerm(n, 1): the same frozen, slotted value.
    fast, checked = ArcTerm.integer(n), ArcTerm(n, 1)
    assert type(fast) is ArcTerm and fast == checked and hash(fast) == hash(checked)
    assert repr(fast) == repr(checked) == f"ArcTerm(re={n}, im=1)"
    assert pickle.loads(pickle.dumps(fast)) == checked
    with pytest.raises(dataclasses.FrozenInstanceError):
        fast.re = n + 1  # type: ignore[misc]
    assert not hasattr(fast, "__dict__")


@pytest.mark.parametrize("n", [0, -3])
def test_integer_term_refuses_what_the_checked_term_refuses(n: int) -> None:
    message = f"arc term must have re >= 1 and im >= 1, got {n}+1i"
    with pytest.raises(ValueError) as checked:
        ArcTerm(n, 1)
    with pytest.raises(ValueError) as fast:
        ArcTerm.integer(n)
    assert str(fast.value) == str(checked.value) == message


@pytest.mark.parametrize("n", [2.5, 13.0, Fraction(5), "5", None])
def test_integer_term_of_a_non_int_is_the_checked_term(n: object) -> None:
    # ArcTerm.integer(n) meets every check of ArcTerm(n, 1).
    with pytest.raises(TypeError) as checked:
        ArcTerm(n, 1)  # type: ignore[arg-type]
    with pytest.raises(TypeError) as fast:
        ArcTerm.integer(n)  # type: ignore[arg-type]
    assert str(fast.value) == str(checked.value)


def test_a_combo_of_integers_refuses_a_float_key() -> None:
    with pytest.raises(TypeError):
        GregoryCombo.of_integers({2.5: 1})  # type: ignore[dict-item]


@pytest.mark.parametrize("build", [
    lambda: ArcTerm(True, 1),
    lambda: ArcTerm(2, True),
    lambda: ArcTerm(False, 1),
    lambda: ArcTerm.integer(True),
    lambda: GregoryCombo.of_integers({True: 1}),
    lambda: decompose(True),
], ids=["re", "im", "false", "integer", "of_integers", "decompose"])
def test_a_bool_is_no_arc_term_part(build) -> None:
    # A bool is an int to Python, but t_True would print as "tTrue" and
    # write "re": true to JSON.
    with pytest.raises(TypeError, match="bool"):
        build()


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
    assert json.dumps(c.to_json()) == (
        '{"terms": [{"re": 5, "im": 1, "coef": 4}, {"re": 79, "im": 3, "coef": 2}, {"re": 239, "im": 1, "coef": -1}]}'
    )
    restored = GregoryCombo.from_json(json.loads(json.dumps(c.to_json())))
    assert restored == c
    # integer shorthand accepted on input
    assert GregoryCombo.from_json({"terms": [{"n": 5, "coef": 4}]}) == combo({5: 4})


@pytest.mark.parametrize("terms", [
    [{"n": 5, "coef": 1.5}, {"re": 239, "im": 1, "coef": True}],
    [{"n": 5.9, "coef": 1}],
    [{"n": "5", "coef": "4"}],
    [{"re": 79.0, "im": 3, "coef": 2}],
], ids=["float-and-bool-coef", "float-n", "strings", "float-re"])
def test_from_json_takes_ints_only(terms: list) -> None:
    # The fields go to ArcTerm and GregoryCombo as they are, so a JSON float,
    # bool or string is refused rather than truncated to t5 + t239, t5 or 4*t5.
    with pytest.raises(TypeError):
        GregoryCombo.from_json({"terms": terms})


def test_parsed_and_loaded_terms_merge_in_the_constructor() -> None:
    # Repeated terms reach GregoryCombo as they are written, which sums them.
    lhs, rhs = parse_identity("t1 = 2*t5 + t239 + 2*t5 - 2*t239")
    assert rhs == combo({5: 4, 239: -1}) and lhs == combo({1: 1})
    assert parse_identity("t1 = t5 - t5 + t1")[1] == combo({1: 1})
    loaded = GregoryCombo.from_json(
        {"terms": [{"n": 5, "coef": 3}, {"re": 5, "im": 1, "coef": 1}, {"n": 239, "coef": -1}]}
    )
    assert loaded == combo({5: 4, 239: -1})


def test_arcterm_is_a_slotted_frozen_value() -> None:
    t = ArcTerm(79, 3)
    assert t == ArcTerm.of(158, 6) and hash(t) == hash(ArcTerm(79, 3))
    assert t != ArcTerm(3, 79) and T(5) == ArcTerm(5, 1)
    assert repr(t) == "ArcTerm(re=79, im=3)" and str(t) == "t79/3"
    with pytest.raises(dataclasses.FrozenInstanceError):
        t.re = 80  # type: ignore[misc]
    assert not hasattr(t, "__dict__")
    assert pickle.loads(pickle.dumps(t)) == t
    assert t.x == Fraction(79, 3) and t.gaussian() == GaussianInt(79, 3)
    assert {T(5): 1}[ArcTerm(5, 1)] == 1


_ARC_TERMS = st.builds(ArcTerm.of, st.integers(1, 400), st.integers(1, 12)) | st.builds(T, st.integers(1, 400))


@given(st.dictionaries(_ARC_TERMS, st.integers(-5, 5).filter(bool), max_size=12))
@example({T(3): 1, ArcTerm(7, 2): 1, ArcTerm(5, 2): -1, T(2): 1, ArcTerm(7, 3): 4})
def test_items_are_ordered_by_the_fraction_re_over_im(terms: dict[ArcTerm, int]) -> None:
    # Integer terms are sorted by re alone: the order must be that of x = re/im.
    expected = sorted(terms.items(), key=lambda tc: Fraction(tc[0].re, tc[0].im))
    assert GregoryCombo(terms).items() == expected


@st.composite
def _term_lists(draw) -> list[tuple[ArcTerm, int]]:
    """Shuffled (term, coef) pairs over integer and rational terms, some
    terms repeated and some with coefficients summing to zero."""
    pairs = draw(st.lists(st.tuples(_ARC_TERMS, st.integers(-4, 4)), max_size=10))
    if pairs:
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=6))
        for t in draw(st.sets(st.sampled_from([t for t, _ in pairs]), max_size=3)):
            pairs.append((t, -sum(c for u, c in pairs if u == t)))
    return draw(st.permutations(pairs))


def _merged(pairs: list[tuple[ArcTerm, int]]) -> dict[ArcTerm, int]:
    out: dict[ArcTerm, int] = {}
    for t, c in pairs:
        out[t] = out.get(t, 0) + c
    return out


@given(_term_lists(), _term_lists())
@example([(T(5), 2), (ArcTerm(7, 2), 1), (T(5), -2), (T(3), 1), (ArcTerm(7, 2), 0)], [(T(3), -1)])
def test_a_combo_of_any_term_list_is_the_combo_of_its_merged_dict(
    pairs: list[tuple[ArcTerm, int]], others: list[tuple[ArcTerm, int]]
) -> None:
    a, merged = GregoryCombo(pairs), GregoryCombo(_merged(pairs))
    assert a == merged and hash(a) == hash(merged)
    assert str(a) == str(merged) and a.to_json() == merged.to_json()
    assert GregoryCombo.from_json(json.loads(json.dumps(a.to_json()))) == a
    items = a.items()
    assert items == sorted(((t, c) for t, c in _merged(pairs).items() if c), key=lambda tc: tc[0].x)
    assert all(type(c) is int and c != 0 for _, c in items)
    assert all(s.x < t.x for (s, _), (t, _) in zip(items, items[1:]))
    assert len(a) == len(items) and bool(a) is bool(items) and a.terms() == dict(items)
    b = GregoryCombo(others)
    assert a + b - b == a and b + a == a + b and a - a == GregoryCombo()
    assert -a + a == GregoryCombo() and 3 * a == a + a + a and a * 0 == GregoryCombo()


@pytest.mark.parametrize("coef", [1.5, 2.0, Fraction(2), True, False, "2", None])
def test_a_combo_refuses_a_coefficient_that_is_not_an_int(coef: object) -> None:
    # As ArcTerm refuses a bool part: a float 2.0 or a True would pass for 2
    # or 1 in every comparison and vector, and print as neither.
    with pytest.raises(TypeError):
        GregoryCombo({T(5): coef})  # type: ignore[dict-item]
    with pytest.raises(TypeError):
        GregoryCombo([(T(5), 1), (ArcTerm(79, 3), coef)])  # type: ignore[list-item]


def test_machin_with_float_coefficients_is_refused() -> None:
    with pytest.raises(TypeError):
        verify_identity(combo({1: 1}), GregoryCombo({T(5): 4.0, T(239): -1.0}))  # type: ignore[dict-item]


@pytest.mark.parametrize("k", [0.5, 2.0, Fraction(2), True])
def test_a_combo_times_a_non_int_is_a_type_error(k: object) -> None:
    machin = combo({5: 4, 239: -1})
    assert machin.__mul__(k) is NotImplemented
    with pytest.raises(TypeError):
        machin * k  # type: ignore[operator]
    with pytest.raises(TypeError):
        k * machin  # type: ignore[operator]


@pytest.mark.parametrize("other", [1, 0, 1.5, "t1", None, T(5)])
def test_a_combo_plus_or_minus_a_non_combo_is_a_type_error(other: object) -> None:
    machin = combo({5: 4, 239: -1})
    assert machin.__add__(other) is NotImplemented and machin.__sub__(other) is NotImplemented
    for op in (lambda x, y: x + y, lambda x, y: x - y):
        with pytest.raises(TypeError):
            op(machin, other)
        with pytest.raises(TypeError):
            op(other, machin)


def test_decompose_builds_no_arc_term(monkeypatch: pytest.MonkeyPatch) -> None:
    # A result holds ints; items() builds its ArcTerms when asked.
    built = []
    check = ArcTerm.__post_init__

    def counted(term: ArcTerm) -> None:
        built.append(term)
        check(term)

    monkeypatch.setattr(ArcTerm, "__post_init__", counted)
    results = [decompose(n) for n in range(1, 2001)]
    assert built == []
    items = results[69].items()
    assert len(built) == 3 and items == [(T(2), -1), (T(5), 2), (T(12), 1)]


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


def test_exact_paths_use_no_float(monkeypatch: pytest.MonkeyPatch, cold_tables: dict[int, int]) -> None:
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
    pidigits._checked_multiple.cache_clear()

    payload = [decompose(n).to_json() for n in range(1, 3001)]
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == _DECOMPOSE_TO_3000_SHA256
    for formula in pidigits.FORMULAS.values():
        assert verify_identity(combo({1: 1}), formula)
        assert pidigits.compute_pi(formula, 40).digits == "3.1415926535897932384626433832795028841971"


def _stormer_basis_vector(terms: GregoryCombo) -> dict[int, int]:
    """sum(c * arg(t)) over the Stormer basis, read term by term from the
    prime factors of each norm: the reading verdicts made before they read
    a coprime base, kept here as a reference."""
    total: dict[int, int] = {}
    for t, c in terms.terms().items():
        factors = arith._factorize_norm(t.re * t.re + t.im * t.im)
        for s, x in gregory._vector(t.re, t.im, factors, gregory._prime_entry).items():
            total[s] = total.get(s, 0) + c * x
    return {s: x for s, x in total.items() if x}


def _multiple(vector: dict[int, int]) -> int | None:
    """The k with vector == k * t_1 (0 for the empty vector), else None."""
    return vector.get(1, 0) if set(vector) <= {1} else None


def _same_norm_pairs(bound: int) -> list[tuple[ArcTerm, ArcTerm]]:
    """Pairs of terms t_{a/b}, t_{c/d} with a, b, c, d <= bound and one norm,
    other than t_{b/a}: their roots a/b and c/d agree on some primes of the
    norm and are opposite on others."""
    by_norm: dict[int, list[ArcTerm]] = {}
    for a in range(1, bound + 1):
        for b in range(1, bound + 1):
            if math.gcd(a, b) == 1:
                by_norm.setdefault(a * a + b * b, []).append(ArcTerm(a, b))
    return [(t, u) for terms in by_norm.values() for t in terms for u in terms if u.re not in (t.re, t.im)]


_SAME_NORM = _same_norm_pairs(40)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(_ARC, st.integers(-40, 40)), max_size=4),
    st.lists(st.tuples(st.integers(2, 3000), st.integers(-3, 3)), max_size=2),
    st.lists(st.tuples(_ARC, st.integers(-3, 3)), max_size=2),
    st.lists(st.tuples(st.sampled_from(_SAME_NORM), st.integers(-3, 3)), max_size=2),
    st.integers(-2, 2),
)
@example([], [(70, 1)], [], [], 0)
@example([], [(7, 2), (239, -1)], [(ArcTerm(3, 2), 1)], [], 1)
@example([(T(2), 2)], [], [], [], -1)
@example([], [], [], [((T(8), ArcTerm(7, 4)), 1)], 0)
def test_coprime_base_reads_as_the_stormer_basis(
    terms: list[tuple[ArcTerm, int]],
    zeros: list[tuple[int, int]],
    pairs: list[tuple[ArcTerm, int]],
    same_norm: list[tuple[tuple[ArcTerm, ArcTerm], int]],
    j: int,
) -> None:
    # decompose(n) - t_n and t_{a/b} + t_{b/a} - 2*t_1 are zero, and 8*t_1 a
    # full turn: the draws hold true identities and multiples of t_1 that
    # random terms alone seldom hit.  Two terms of one norm whose roots
    # agree on part of it only must be told apart on a piece of the base.
    # Over either basis the sum must read as the same multiple of t_1, or
    # as none.
    total = GregoryCombo(terms) + combo({1: 8 * j})
    for n, c in zeros:
        total = total + (decompose(n) - GregoryCombo.single(T(n))) * c
    for t, c in pairs:
        total = total + GregoryCombo({t: c}) + GregoryCombo({ArcTerm(t.im, t.re): c}) - combo({1: 2 * c})
    for (t, u), c in same_norm:
        total = total + GregoryCombo({t: c}) - GregoryCombo({u: c})
    reference = _multiple(_stormer_basis_vector(total))
    assert _multiple(gregory._combo_vector(total)) == reference
    assert verify_identity(total, GregoryCombo()) is (reference == 0)
    if total and reference is not None and reference >= 1:
        assert gregory._formula_multiple(total) == reference
    else:
        with pytest.raises(ValueError):
            gregory._formula_multiple(total)


_HUGE = st.builds(ArcTerm.of, st.integers(1, 10**12), st.integers(1, 10**12))
_MILLION = st.builds(ArcTerm.of, st.integers(1, 10**6), st.integers(1, 10**6))


@settings(max_examples=200, deadline=None)
@given(_MILLION, _MILLION, st.integers(-(10**12), 10**12), st.lists(st.tuples(_HUGE, st.integers(-9, 9)), max_size=2),
       st.integers(-2, 2), st.integers(-3, 3))
@example(T(2), T(3), 1, [], 0, 0)
@example(ArcTerm(5, 1), ArcTerm(5, 1), 10**12, [], 1, 0)
@example(ArcTerm(999_999, 1_000_000), ArcTerm(3, 1_000_000), -7, [(ArcTerm(10**12 - 1, 10**12), 1)], 0, 0)
def test_verify_identity_matches_mpmath_on_huge_terms(
    x: ArcTerm, y: ArcTerm, k: int, extra: list[tuple[ArcTerm, int]], j: int, shift: int
) -> None:
    # Arg(x) + Arg(y) = Arg(z) for z the product (a + bi)(c + di), a term up
    # to 10**12 brought to the first quadrant by a quarter turn, 2*t_1, when
    # its real part is not positive.  The verdict on
    # k*(x + y - z) + extra + 8*j*t_1 = shift*t_1 must be mpmath's.
    re, im = x.re * y.re - x.im * y.im, x.re * y.im + x.im * y.re
    turn, re, im = arith._quarter(re, im)
    lhs = GregoryCombo({x: k}) + GregoryCombo({y: k}) - combo({1: 2 * turn * k}) + combo({1: 8 * j})
    if im:
        lhs = lhs - GregoryCombo({ArcTerm.of(re, im): k})
    lhs = lhs + GregoryCombo(extra)
    rhs = combo({1: shift})
    with mpmath.workdps(80):
        gap = mpmath.fsum(c * mpmath.atan2(t.im, t.re) for t, c in (lhs - rhs).terms().items())
        expected = abs(gap) < mpmath.mpf(10) ** -50
    assert verify_identity(lhs, rhs) is expected


@pytest.mark.parametrize(
    "args, code, stdout, stderr",
    [
        (["gregory", "verify", "t1 = t12345678901234567890/3"], 0, "false   certificate: ", ""),
        (
            ["pi", "--digits", "5", "--formula", "t1 = t3/12345678901234567890"],
            3,
            "",
            "error: series argument 4115226300411522630/1 is not below one\n",
        ),
    ],
)
def test_short_identities_with_huge_terms_answer_at_once(args: list[str], code: int, stdout: str, stderr: str) -> None:
    # Each term reduces to t_4115226300411522630, whose norm is 173 times two
    # primes of 17 and 19 digits: a verdict that factored it would run rho.
    # pi refuses the term on its cheap check, before the vector is read.
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    done = subprocess.run(
        [sys.executable, "-m", "stormerkit.cli", *args], capture_output=True, text=True, env=env, timeout=2
    )
    assert done.returncode == code
    assert done.stdout.startswith(stdout) and bool(done.stdout) is bool(stdout)
    assert done.stderr == stderr


def _prime_norm_terms() -> list[ArcTerm]:
    """Terms t_{a/b} whose norm a**2 + b**2 is a prime of 20 to 37 digits."""
    terms = []
    for digits in (20, 25, 30, 37, 37, 37):
        p = sympy.nextprime(10 ** (digits - 1) + 7**digits)
        while p % 4 != 1:
            p = sympy.nextprime(p)
        terms.append(ArcTerm(*arith._prime_over(p, sympy.sqrt_mod(-1, p))))
    return terms


def test_verdicts_factor_nothing_and_leave_the_tables(monkeypatch: pytest.MonkeyPatch) -> None:
    # verify_identity and _formula_multiple read gcds and modular inverses
    # only: no factoring, no primality test and no A(p) entry, so a verdict
    # on a term with a 37-digit prime norm is as fast as on a small one, and
    # user terms do not grow the engine's tables.  decompose still reads A(p).
    terms = _prime_norm_terms()
    calls = []

    def spy(name, real):
        def called(*args):
            calls.append(name)
            return real(*args)
        return called

    for name in ("_factorize_norm", "_trial_factorize", "factorize", "is_prime", "_miller_rabin", "_brent_rho"):
        monkeypatch.setattr(arith, name, spy(name, getattr(arith, name)))
    caches = _PRIME_ENTRY.cache_info()
    monkeypatch.setattr(gregory, "_prime_entry", spy("_prime_entry", gregory._prime_entry))
    for t in terms:
        assert not verify_identity(combo({1: 1}), GregoryCombo.single(t))
        pair = GregoryCombo({t: 3}) + GregoryCombo({ArcTerm(t.im, t.re): 3})
        assert verify_identity(pair, combo({1: 6}))
        assert not verify_identity(pair, combo({1: 14}))
        assert gregory._formula_multiple(pair) == 6
        with pytest.raises(ValueError):
            gregory._formula_multiple(pair + GregoryCombo.single(t))
    assert calls == []
    assert _PRIME_ENTRY.cache_info() == caches
    decompose(70)
    assert "_prime_entry" in calls


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


def _flatten_step_with_both_signs(a: int, b: int) -> tuple[GaussianInt, GaussianInt]:
    """The flattening step as first written: the solutions of
    a*d + b*c = +-1 nearest the rational minimum t*, rounded both ways, the
    least norm kept and ties sorted by +1 first, d in {1, -1}, |d| and
    c > 0."""
    _, u, v = arith.extended_gcd(a, b)
    n = a * a + b * b
    candidates = []
    for delta in (1, -1):
        c0, d0 = v * delta, u * delta
        t_star = Fraction(d0 * b - c0 * a, n)
        for t in {math.floor(t_star), math.ceil(t_star)}:
            c, d = c0 + a * t, d0 - b * t
            candidates.append((c * c + d * d, 0 if delta == 1 else 1, c, d))
    best = min(cand[0] for cand in candidates)
    pool = sorted(
        (cand for cand in candidates if cand[0] == best),
        key=lambda cand: (cand[1], 0 if cand[3] in (1, -1) else 1, abs(cand[3]), cand[2] <= 0),
    )
    _, _, c, d = pool[0]
    return GaussianInt(c, d), GaussianInt(a, b) * GaussianInt(c, d)


def test_flatten_step_equals_the_rule_with_both_signs() -> None:
    # Every coprime a, b with |a|, |b| <= 60 and b != 0, a <= 0 included: a
    # multiplier the chain flattens next can have re <= 0.
    pairs = [(a, b) for a in range(-60, 61) for b in range(-60, 61) if b and math.gcd(a, b) == 1]
    assert len(pairs) == 8814
    for a, b in pairs:
        m, w = gregory._flatten_step(a, b)
        assert (m, w) == _flatten_step_with_both_signs(a, b), (a, b)
        assert w.im == 1, (a, b)


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
    monkeypatch.setattr(gregory, "_vector", lambda *args: dict(wrong))
    with pytest.raises(ArithmeticError):
        decompose(70)


def test_decompose_factors_each_norm_once(monkeypatch: pytest.MonkeyPatch, cold_tables: dict[int, int]) -> None:
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
    composite = [p for p in cold_tables if _naive_min_root(p) ** 2 + 1 != p]
    assert composite
    assert len(calls) == 1000 + len(composite)


def test_decompose_from_threads_equals_the_serial_results(cold_tables: dict[int, int]) -> None:
    # Six threads, more than the cores, over overlapping ranges of n from cold
    # caches, switching as often as the interpreter lets them: a race on a
    # new A(p) may build it twice, but every result is the serial one.
    ranges = [range(1 + 1000 * i, 3001 + 1000 * i) for i in range(6)]
    serial = {n: decompose(n) for n in range(1, 8001)}
    _PRIME_ENTRY.cache_clear()
    results: list[list[GregoryCombo]] = [[] for _ in ranges]

    def work(i: int) -> None:
        results[i] = [decompose(n) for n in ranges[i]]

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(ranges))]
    saved = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(saved)
    assert not any(thread.is_alive() for thread in threads)
    for numbers, combos in zip(ranges, results):
        assert len(combos) == len(numbers)
        for n, got in zip(numbers, combos):
            want = serial[n]
            assert got == want and str(got) == str(want) and got.to_json() == want.to_json(), n


def test_decompose_keeps_no_state_per_n(cold_tables: dict[int, int]) -> None:
    # A sweep grows the cache of the A(p) entries, and nothing else: the
    # module holds no dict, list or set to grow, and no other cache.
    def sizes() -> dict[str, int]:
        return {
            name: len(v)
            for name, v in vars(gregory).items()
            if not name.startswith("__") and isinstance(v, (dict, list, set))
        }

    assert sizes() == {}
    for n in range(1, 4001):
        decompose(n)
    assert sizes() == {}
    assert _PRIME_ENTRY.cache_info().currsize == len(cold_tables) > 0
    assert [name for name, v in vars(gregory).items() if hasattr(v, "cache_info")] == []
    assert all(arith.is_prime(p) and p % 4 == 1 for p in cold_tables)


def _split_powers(x: int, skip: int = 0) -> tuple[list[tuple[int, int, int]], list[int]]:
    """The Gaussian primes of x + i other than the one over ``skip``, as
    (a, b, e) from the table, with the sign taken for each odd prime."""
    powers, signs = [], []
    for q, e in sorted(sympy.factorint(x * x + 1).items()):
        if q == 2:
            powers.append((1, 1, e))
        elif q != skip:
            a, b, _ = _PRIME_ENTRY(q, _naive_min_root(q))
            sign = 1 if x % q == _naive_min_root(q) else -1
            powers.append((a, sign * b, e))
            signs.append(sign)
    return powers, signs


def test_prime_table_matches_mpmath(cold_tables: dict[int, int]) -> None:
    # Each entry p -> (a, b, A(p)): a + bi is the first-quadrant prime over p
    # dividing S(p) + i, and A(p) evaluates to its argument.  The sweep
    # 1..3000 picks the conjugate prime as well as pi_p and needs the
    # quarter-turn correction 2*q*t_1 in both the t_n and the A(p) sums, so
    # the golden digest guards each of them.
    vectors = {n: {t.re: c for t, c in decompose(n)} for n in range(1, 3001)}
    assert {p for p in sympy.primerange(5, 3000) if p % 4 == 1} <= set(cold_tables)
    with mpmath.workdps(50):
        for p, root in cold_tables.items():
            a, b, arg = _PRIME_ENTRY(p, root)
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
    for p, root in cold_tables.items():
        a, b, _ = _PRIME_ENTRY(p, root)
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


def test_prime_entry_factors_only_the_cofactor(monkeypatch: pytest.MonkeyPatch, cold_tables: dict[int, int]) -> None:
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
    assert set(cold_tables) >= set(primes)
    with mpmath.workdps(50):
        for p in primes:
            a, b, arg = _PRIME_ENTRY(p, cold_tables[p])
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
        # Neither the returned copy nor the result's own terms are shared
        # with the engine's tables or with a later result: the terms are one
        # immutable tuple, the one the public constructor builds.
        fast.terms().clear()
        assert type(fast._terms) is tuple and fast._terms == public._terms
        with pytest.raises(TypeError):
            fast._terms[0] = n + 1  # type: ignore[index]
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
