from __future__ import annotations

import hashlib
from array import array
from functools import cache
from itertools import count
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stormerkit.arith import is_prime, largest_prime_factor
from stormerkit import stormer
from stormerkit.density import count_large_factor, density_sweep
from stormerkit.stormer import (
    Convention,
    _lpf_blocks,
    check_factor_residues,
    enumerate_stormer,
    is_stormer,
    prime_stormer_table,
    stormer_of_prime,
)

from _tables import TABLE1, TABLE2


def test_is_stormer_examples() -> None:
    v = is_stormer(3)
    assert not v.is_stormer
    assert v.largest_prime_factor == 5 and v.witness_prime is None

    v = is_stormer(15)
    assert v.is_stormer and v.witness_prime == 113

    v = is_stormer(279)
    assert v.is_stormer and v.witness_prime == 38921


def test_is_stormer_one_depends_on_convention() -> None:
    assert not is_stormer(1, Convention.STRICT).is_stormer
    inc = is_stormer(1, Convention.INCLUSIVE)
    assert inc.is_stormer and inc.witness_prime == 2 and inc.largest_prime_factor == 2


def test_is_stormer_rejects_nonpositive() -> None:
    with pytest.raises(ValueError):
        is_stormer(0)
    with pytest.raises(ValueError):
        is_stormer(-3)


def test_conventions_agree_above_one() -> None:
    for x0 in range(2, 2000):
        assert is_stormer(x0, Convention.STRICT).is_stormer == is_stormer(x0, Convention.INCLUSIVE).is_stormer


def test_stormer_of_prime_examples() -> None:
    assert stormer_of_prime(13).x0 == 5
    assert stormer_of_prime(157).x0 == 28
    assert stormer_of_prime(353).x0 == 42
    assert stormer_of_prime(5).x0 == 2


def test_stormer_of_prime_rejects_bad_inputs() -> None:
    with pytest.raises(ValueError):
        stormer_of_prime(7)  # 3 mod 4
    with pytest.raises(ValueError):
        stormer_of_prime(21)  # composite
    with pytest.raises(ValueError):
        stormer_of_prime(2)


def test_stormer_of_prime_root_properties() -> None:
    for p, x0 in TABLE1:
        assert is_prime(p) and p % 4 == 1
        assert (x0 * x0 + 1) % p == 0
        assert 1 < x0 <= (p - 1) // 2
        assert stormer_of_prime(p).x0 == x0


def test_enumerate_examples() -> None:
    assert enumerate_stormer(16, Convention.INCLUSIVE) == [1, 2, 4, 5, 6, 9, 10, 11, 12, 14, 15, 16]
    assert enumerate_stormer(1, Convention.STRICT) == []
    assert enumerate_stormer(1, Convention.INCLUSIVE) == [1]
    assert enumerate_stormer(0, Convention.INCLUSIVE) == []


def test_enumerate_matches_reference_table() -> None:
    assert enumerate_stormer(107, Convention.INCLUSIVE) == TABLE2


def test_enumerate_strict_drops_only_one() -> None:
    strict = enumerate_stormer(107, Convention.STRICT)
    assert strict == [x for x in TABLE2 if x != 1]


def _largest_prime_factors(limit: int) -> array:
    """The blocks of :func:`_lpf_blocks` joined: entry x is the largest prime
    factor of x**2 + 1 (1 for x = 0), and each block starts where the last ended."""
    table = array("Q")
    for lo, block in _lpf_blocks(limit):
        assert lo == len(table) and 0 < len(block) <= stormer._BLOCK
        table.extend(block)
    return table


def test_sieve_table_matches_factoring() -> None:
    limit = 2 * 10**4
    table = _largest_prime_factors(limit)
    assert len(table) == limit + 1
    assert all(table[x] == largest_prime_factor(x * x + 1) for x in range(1, limit + 1))


# sha256 of the entries x = 0..10**6 written in decimal and joined by single
# spaces, frozen from a run of the sieve.  It pins every largest prime factor
# past the factoring oracle's 2*10**4, and so the large-factor flags t[x] > x
# as well as the Stormer flags the CLI digest checks.
_MILLION_ENTRIES_SHA256 = "c69cbdd14d80896a0e609344b998ac6c72ed5c3e93b9178986a342945a9dc45d"


def test_sieve_entries_to_a_million_are_frozen() -> None:
    table = _largest_prime_factors(10**6)
    assert len(table) == 10**6 + 1
    assert hashlib.sha256(" ".join(map(str, table)).encode()).hexdigest() == _MILLION_ENTRIES_SHA256


@cache
def _per_candidate(limit: int = 3000) -> list[tuple[int, bool, bool]]:
    """(largest prime factor of x^2+1, strict verdict, inclusive verdict) for x = 1..limit."""
    return [
        (
            largest_prime_factor(x * x + 1),
            is_stormer(x, Convention.STRICT).is_stormer,
            is_stormer(x, Convention.INCLUSIVE).is_stormer,
        )
        for x in range(1, limit + 1)
    ]


@settings(deadline=None)  # the first example builds the cached oracle
@given(st.integers(1, 3000))
@example(1)
@example(2)
@example(3)
@example(5)
def test_sieve_measures_match_per_candidate_oracle(limit: int) -> None:
    rows = list(enumerate(_per_candidate()[:limit], start=1))
    assert list(_largest_prime_factors(limit))[1:] == [lpf for _, (lpf, _, _) in rows]
    assert enumerate_stormer(limit, Convention.STRICT) == [x for x, (_, strict, _) in rows if strict]
    assert enumerate_stormer(limit, Convention.INCLUSIVE) == [x for x, (_, _, inc) in rows if inc]
    assert count_large_factor(limit).count == sum(1 for x, (lpf, _, _) in rows if lpf > x)


# Block sizes for the block-edge tests: at 7 every prime but 5 hits a block
# at most once per root; at 64 the primes 5..61 hit a block several times per
# root before their next x is handed to the following block.
_SMALL_BLOCKS = (7, 64)


def _block_edge_limits(size: int) -> list[int]:
    return [size - 1, size, size + 1, 2 * size + 1, 3 * size]


@pytest.mark.parametrize("size", _SMALL_BLOCKS)
def test_blocks_match_factoring_at_block_edges(size: int) -> None:
    oracle = [lpf for lpf, _, _ in _per_candidate()]
    with mock.patch.object(stormer, "_BLOCK", size):
        for limit in [*_block_edge_limits(size), 0, 1, 2, 3000]:
            assert list(_largest_prime_factors(limit)) == [1, *oracle[:limit]], limit


@settings(deadline=None)
@given(st.sampled_from(_SMALL_BLOCKS), st.integers(0, 3000))
def test_blocks_match_factoring_below_3000(size: int, limit: int) -> None:
    oracle = [lpf for lpf, _, _ in _per_candidate()]
    with mock.patch.object(stormer, "_BLOCK", size):
        assert list(_largest_prime_factors(limit)) == [1, *oracle[:limit]]


def test_a_bucketed_root_past_the_limit_is_dropped() -> None:
    # p = 13 joins the buckets in block [7, 14) and files each root at its
    # second x: 5 + 13 = 18, hit in block [14, 21), and 26 - 8 = 21, past the
    # limit 20, which is dropped with no code filed.
    with mock.patch.object(stormer, "_BLOCK", 7):
        table = _largest_prime_factors(20)
    assert list(table)[1:] == [largest_prime_factor(x * x + 1) for x in range(1, 21)]


def _filed_codes(limit: int, size: int) -> list[tuple[int, int]]:
    """(p, x) for each code :func:`_lpf_blocks` files into a bucket, read by
    a spy over ``stormer.array``: the buckets are the arrays it builds empty,
    one per block in order, and a code is p*size + x % size."""
    filed: list[tuple[int, int]] = []
    blocks = count()

    class Spy(array):
        def __new__(cls, typecode: str, *initializer: object) -> "Spy":
            spy = super().__new__(cls, typecode, *initializer)
            if not initializer:
                spy.block = next(blocks)
            return spy

        def append(self, code: int) -> None:
            p, offset = divmod(code, size)
            filed.append((p, self.block * size + offset))
            super().append(code)

    with mock.patch.object(stormer, "array", Spy), mock.patch.object(stormer, "_BLOCK", size):
        for _ in _lpf_blocks(limit):
            pass
    return filed


def test_each_root_is_filed_at_its_second_x() -> None:
    # 10**5 is one block, so every code is filed as its prime joins: two per
    # prime == 1 (mod 4) up to 10**5 would make 9 566, less each second x
    # past 10**5.
    filed = _filed_codes(10**5, stormer._BLOCK)
    assert len(filed) == 6823
    assert all(p < x <= 10**5 for p, x in filed)


@pytest.mark.parametrize("size", _SMALL_BLOCKS)
def test_no_code_is_filed_at_or_below_its_prime_in_small_blocks(size: int) -> None:
    filed = _filed_codes(3000, size)
    assert filed and all(p < x <= 3000 and (x * x + 1) % p == 0 for p, x in filed)


@pytest.mark.parametrize("size", _SMALL_BLOCKS)
def test_enumeration_and_sweep_match_the_oracle_inside_and_on_block_edges(size: int) -> None:
    rows = list(enumerate(_per_candidate(), start=1))
    edges = _block_edge_limits(size)
    inside = [size // 2, size + 3, 2 * size + size // 2, 3 * size - 1]
    limits = sorted({*edges, *inside, 1000})
    with mock.patch.object(stormer, "_BLOCK", size):
        for limit in limits:
            assert enumerate_stormer(limit, Convention.STRICT) == [x for x, (_, s, _) in rows[:limit] if s]
            assert enumerate_stormer(limit, Convention.INCLUSIVE) == [x for x, (_, _, i) in rows[:limit] if i]
        for measure, meets in (
            ("strict", lambda x, row: row[1]),
            ("inclusive", lambda x, row: row[2]),
            ("large-factor", lambda x, row: row[0] > x),
        ):
            counts = [report.count for report in density_sweep(limits, measure)]
            assert counts == [sum(meets(x, row) for x, row in rows[:limit]) for limit in limits], measure


def test_sweep_counts_a_repeated_limit_once() -> None:
    with mock.patch.object(stormer, "_BLOCK", 7):
        counts = [r.count for r in density_sweep([7, 7, 14, 14, 15], "inclusive")]
    assert counts == [len(enumerate_stormer(n)) for n in (7, 7, 14, 14, 15)]


def test_sieve_rejects_limits_past_64_bits() -> None:
    with pytest.raises(ValueError):
        enumerate_stormer(1 << 32)


def test_prime_table_first_row() -> None:
    assert [(pair.p, pair.x0) for pair in prime_stormer_table(53)] == [
        (5, 2), (13, 5), (17, 4), (29, 12), (37, 6), (41, 9), (53, 23),
    ]


def test_prime_table_small_limits() -> None:
    assert prime_stormer_table(4) == []
    assert [(q.p, q.x0) for q in prime_stormer_table(5)] == [(5, 2)]


def test_check_factor_residues_examples() -> None:
    assert check_factor_residues(3)
    assert check_factor_residues(70)
    assert check_factor_residues(1)
    with pytest.raises(ValueError):
        check_factor_residues(0)


def test_special_family_4n2_plus_1() -> None:
    # when 4n^2 + 1 is prime its Stormer number is 2n
    for n in range(1, 201):
        p = 4 * n * n + 1
        if is_prime(p):
            assert stormer_of_prime(p).x0 == 2 * n


def test_round_trip_enumeration_and_map() -> None:
    for x0 in enumerate_stormer(3000, Convention.STRICT):
        witness = is_stormer(x0).witness_prime
        assert witness is not None
        assert stormer_of_prime(witness).x0 == x0


def test_bound_equality_only_at_five() -> None:
    for pair in prime_stormer_table(10**4):
        assert pair.x0 <= (pair.p - 1) // 2
        if pair.x0 == (pair.p - 1) // 2:
            assert pair.p == 5
