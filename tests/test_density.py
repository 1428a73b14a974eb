from __future__ import annotations

import math

import pytest

from stormerkit.arith import is_prime, largest_prime_factor
from stormerkit.density import (
    LN2,
    count_large_factor,
    count_stormer,
    density_sweep,
    heuristic_probability,
    mertens_gap,
)
from stormerkit.stormer import Convention


def test_count_stormer_small_limits() -> None:
    report = count_stormer(100)
    assert report.count == 70 and report.measure == "inclusive"
    assert count_stormer(100, Convention.STRICT).count == 69
    assert count_stormer(1000, Convention.STRICT).count == 719
    assert count_stormer(1000).count == 720


def test_count_large_factor_small_limits() -> None:
    assert count_large_factor(100).count == 86
    # independent check of the measure itself
    assert count_large_factor(60).count == sum(
        1 for x in range(1, 61) if largest_prime_factor(x * x + 1) > x
    )


def test_count_rejects_bad_limit() -> None:
    with pytest.raises(ValueError):
        count_stormer(0)
    with pytest.raises(ValueError):
        count_large_factor(-5)


def test_report_fields_consistent() -> None:
    report = count_stormer(500)
    assert report.ratio == report.count / 500
    assert report.ln2_gap == abs(report.ratio - LN2)
    assert 0 <= report.ratio <= 1


def test_count_monotone() -> None:
    counts = [count_stormer(n).count for n in range(1, 400, 13)]
    assert counts == sorted(counts)


def test_density_sweep_matches_single_limits() -> None:
    limits = [1, 7, 7, 100, 1000]
    singles = {
        "inclusive": lambda n: count_stormer(n).count,
        "strict": lambda n: count_stormer(n, Convention.STRICT).count,
        "large-factor": lambda n: count_large_factor(n).count,
    }
    for measure, single in singles.items():
        reports = density_sweep(limits, measure)
        assert [r.limit for r in reports] == limits
        assert {r.measure for r in reports} == {measure}
        assert [r.count for r in reports] == [single(n) for n in limits]


def test_density_sweep_rejects_bad_input() -> None:
    for limits in ([], [0, 5], [10, 5]):
        with pytest.raises(ValueError):
            density_sweep(limits)
    with pytest.raises(ValueError):
        density_sweep([10], "largest")


def _direct_heuristic(x0: int) -> float:
    total = 0.0
    for p in range(2 * x0 + 1, x0 * x0 + 2):
        if p % 4 == 1 and is_prime(p):
            total += 2.0 / (p - 1)
    return total


def test_heuristic_examples() -> None:
    assert heuristic_probability(2) == 0.5  # only p = 5 in [5, 5]
    assert heuristic_probability(3) == 0.0  # no prime == 1 (mod 4) in [7, 10]
    for x0 in (4, 5, 10, 37):
        assert heuristic_probability(x0) == pytest.approx(_direct_heuristic(x0), abs=1e-12)


def test_heuristic_rejects_small_input() -> None:
    with pytest.raises(ValueError):
        heuristic_probability(1)
    with pytest.raises(ValueError):
        heuristic_probability(0)


def test_heuristic_regression_at_1000() -> None:
    # frozen from two independent evaluations of the prime sum
    assert heuristic_probability(1000) == pytest.approx(0.59301585234509, abs=1e-11)


def test_heuristic_in_unit_interval() -> None:
    # x0 = 3 is the one empty-range exception (no primes == 1 mod 4 in [7, 10])
    for x0 in range(2, 1001):
        value = heuristic_probability(x0)
        if x0 == 3:
            assert value == 0.0
        else:
            assert 0.0 < value < 1.0


def test_heuristic_trend_toward_ln2() -> None:
    gaps = [abs(heuristic_probability(10**k) - LN2) for k in (1, 2, 3)]
    assert gaps[0] > gaps[1] > gaps[2]


def test_mertens_examples() -> None:
    assert mertens_gap(3) == pytest.approx(1 / 2 + 1 / 3 - math.log(math.log(3)), abs=1e-12)
    expected_10 = 1 / 2 + 1 / 3 + 1 / 5 + 1 / 7 - math.log(math.log(10))
    assert mertens_gap(10) == pytest.approx(expected_10, abs=1e-12)
    assert expected_10 == pytest.approx(1.17619 - 0.83403, abs=1e-4)


def test_mertens_rejects_small_input() -> None:
    with pytest.raises(ValueError):
        mertens_gap(2)


def test_mertens_constant_at_1e6() -> None:
    assert mertens_gap(10**6) == pytest.approx(0.2615, abs=0.01)
