"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import stormerkit  # noqa: E402
from oracles import Oracle  # noqa: E402
from tracing import MODULES, Tracer  # noqa: E402
from workloads import VEGA_TAIL_JOB, WORKLOADS, build_jobs, canonical_json, inputs_digest  # noqa: E402


@pytest.fixture(scope="module")
def oracle() -> Oracle:
    return Oracle()


def _job(workload: str, job_id: str, seed: int = 1) -> dict:
    return next(j for j in build_jobs(workload, seed) if j["id"] == job_id)


def _density_stdout(oracle: Oracle, measure: str, bump: int = 0) -> str:
    lines = ["limit,count,ratio,ln2_gap"]
    for limit in (10_000, 50_000, 100_000):
        count = oracle.ref["density"][str(limit)][measure] + (bump if limit == 50_000 else 0)
        lines.append(f"{limit},{count},{count / limit!r},{abs(count / limit - math.log(2))!r}")
    return "\n".join(lines) + "\n"


def _flip_digit(text: str, index: int) -> str:
    return text[:index] + str((int(text[index]) + 1) % 10) + text[index + 1:]


def _corrupted_cases(oracle: Oracle) -> list[tuple[dict, str, str]]:
    """(job, correct stdout, corrupted stdout) for each kind of corruption."""
    pi_job = _job("pi-digits", "pi-machin-10000")
    pi = oracle.pi_digits(10_000) + "\n"
    verify = next(j for j in build_jobs("gregory-exact", 1) if j["kind"] == "cli" and j["expect"]["valid"])
    return [
        (pi_job, pi, _flip_digit(pi, 5000)),
        (_job("density-sweep", "density-strict"), _density_stdout(oracle, "strict"),
         _density_stdout(oracle, "strict", bump=1)),
        (verify, json.dumps({"valid": True}), json.dumps({"valid": False})),
    ]


def test_corrupted_outputs_fail_their_oracle_and_count_as_errors(oracle: Oracle) -> None:
    for job, good, bad in _corrupted_cases(oracle):
        assert oracle.check(job, good) is None, job["id"]
        assert oracle.check(job, bad) is not None, job["id"]
        results = [{"id": job["id"], "exit": 0, "stdout": good}, {"id": job["id"], "exit": 0, "stdout": bad}]
        failed, wrong = run.check_outputs(oracle, [job, job], results)
        assert (failed, wrong) == (1, 1)
        assert "error" not in results[0] and results[1]["error"].startswith("wrong output")


def test_machin_and_stormer1896_must_agree(oracle: Oracle) -> None:
    jobs = [_job("pi-digits", "pi-machin-10000"), _job("pi-digits", "pi-stormer1896-10000")]
    pi = oracle.pi_digits(10_000) + "\n"
    assert oracle.check_pass(jobs, {"pi-machin-10000": pi, "pi-stormer1896-10000": pi}) == {}
    flipped = _flip_digit(pi, 9000)
    assert set(oracle.check_pass(jobs, {"pi-machin-10000": pi, "pi-stormer1896-10000": flipped})) == {
        "pi-machin-10000", "pi-stormer1896-10000"}


@pytest.mark.xfail(strict=True, reason="the vega tail estimate claims 957 digits where 955 match")
def test_vega_tail_estimate_does_not_exceed_matching_digits(oracle: Oracle) -> None:
    out = subprocess.run(run.job_argv(VEGA_TAIL_JOB, None), env=run.job_env(None), capture_output=True,
                         text=True, check=True, timeout=120)
    assert oracle.check(VEGA_TAIL_JOB, out.stdout) is None


def test_failed_jobs_raise_error_rate() -> None:
    passes = [{"wall_s": 1.0, "peak_rss_mb": 1.0, "work": 1, "work_s": 1.0, "latencies_ms": [],
               "attempted": 4, "failed": failed} for failed in (0, 2)]
    _, named = run.summarize("pi-digits", passes, [0.1])
    assert named["error_rate"] == 2 / 8


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload: str) -> None:
    here = canonical_json(build_jobs(workload, 5))
    assert here == canonical_json(build_jobs(workload, 5))
    code = f"from workloads import build_jobs, inputs_digest; print(inputs_digest(build_jobs({workload!r}, 5)))"
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        out = subprocess.run([sys.executable, "-c", code], cwd=HERE, env=env, capture_output=True, text=True,
                             check=True)
        assert out.stdout.strip() == inputs_digest(build_jobs(workload, 5))
    if workload != "pi-digits":  # its inputs are fixed by design
        assert here != canonical_json(build_jobs(workload, 6))


def _bindings() -> dict:
    """Every attribute of the package, its modules and the patched class."""
    import stormerkit.cli
    from stormerkit.pidigits import FixedPoint

    holders = [stormerkit, stormerkit.cli, FixedPoint] + [getattr(stormerkit, m) for m in MODULES]
    return {(id(h), name): value for h in holders for name, value in list(vars(h).items())}


def test_trace_wrappers_restore_every_patched_attribute() -> None:
    from stormerkit import arith, gregory, pidigits, stormer

    gregory.decompose(69)  # fills the lazily built tables first
    before = _bindings()
    tracer = Tracer()
    tracer.install(stormerkit)
    try:
        # Wrapped under the name each caller looks up.
        assert gregory.is_stormer is not before[(id(gregory), "is_stormer")]
        assert pidigits.verify_identity is not before[(id(pidigits), "verify_identity")]
        assert stormer.arith.largest_prime_factor is not before[(id(arith), "largest_prime_factor")]
        assert gregory.decompose(70).terms()
    finally:
        tracer.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key[1] for key, value in before.items() if after[key] is not value] == []
    per_name = tracer.summary()["per_name"]
    assert per_name["gregory.decompose"]["calls"] == 1
    assert per_name["stormer.is_stormer"]["calls"] >= 1
