"""Seeded job lists for the four benchmark workloads.

A job is a plain dict, so the same list can be written to disk, handed to a
child process and digested:

* ``{"id", "kind": "cli", "args": [...]}`` runs ``stormerkit <args>``;
* ``{"id", "kind": "lib", "lib": name, "params": {...}}`` runs one library
  job from ``libjob.py``.

``expect`` holds what the oracle needs that is known when the input is made
(for example the true verdict of a verify job); it is not shown to the
program.  Every workload is a closed loop with one client: the next job
starts when the previous one has ended.

Sampled inputs are stratified: a range is cut into as many equal strata (on
a log scale for log-uniform draws) as there are samples, and one value is
drawn in each.  Every seed then covers the whole range, including the large
coefficients that make ``gregory verify`` fail, while the values themselves
change with the seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

WORKLOADS = ("density-sweep", "pi-digits", "gregory-exact", "point-queries")

# Seed for checking a claim on inputs that were not looked at while the
# change was written.  Tune on any other seed.
HELD_OUT_SEED = 9001

DENSITY_LIMITS = (10_000, 50_000, 100_000)
LIST_LIMIT = 100_000
MERTENS_X = 10**7
PI_DIGITS = (10_000, 50_000)
VEGA_DIGITS = 2000
VEGA_MAX_TERMS = 1000

# pi/4 as Machin-like combinations, keyed like pidigits.FORMULAS; each term
# is (coefficient, re, im) for arctan(im/re).  Written out here so that the
# benchmark's expectations do not come from the package under test.
FORMULAS = {
    "machin": ((4, 5, 1), (-1, 239, 1)),
    "vega": ((2, 3, 1), (1, 7, 1)),
    "euler": ((5, 7, 1), (2, 79, 3)),
    "stormer1896": ((44, 57, 1), (7, 239, 1), (-12, 682, 1), (24, 12943, 1)),
}
# log10 of the largest scale factor k per formula.
VERIFY_LOG10_K = {"machin": 5, "vega": 5, "euler": 5, "stormer1896": 3}
VERIFY_JOBS_PER_FORMULA = 6


def _log_uniform_strata(rng: random.Random, lo: float, hi: float, count: int) -> list[int]:
    """One integer drawn log-uniformly in each of ``count`` equal log-strata
    of [lo, hi]."""
    a, b = math.log(lo), math.log(hi)
    width = (b - a) / count
    return [max(int(lo), min(int(hi), int(math.exp(a + (j + rng.random()) * width)))) for j in range(count)]


def _term_text(coef: int, re: int, im: int, first: bool) -> str:
    sign = "-" if coef < 0 else ("" if first else "+")
    body = f"t{re}" if im == 1 else f"t{re}/{im}"
    return f"{sign}{abs(coef)}*{body}"


def verify_identity_text(k: int, terms: tuple[tuple[int, int, int], ...]) -> str:
    """``k*t1 = sum(c*t)`` in the CLI's identity grammar."""
    rhs = " ".join(_term_text(c, re, im, i == 0) for i, (c, re, im) in enumerate(terms))
    return f"{k}*t1 = {rhs}"


def _density_sweep(rng: random.Random) -> list[dict]:
    # Why: almost all the time goes to arith.largest_prime_factor over
    # consecutive x^2+1, spread over the CLI's fork pool.  The ascending
    # limits re-test candidates the previous limit already tested, and the
    # CSV job adds 70 780 lines of output.  This is the workload the x^2+1
    # sieve and the removal of the pool must move.  10^5 rather than 10^6
    # keeps a pass near 20 s on the same per-candidate code path, and the
    # paper's TABLE3 has reference counts at 10^4 and 10^5.  pidigits and
    # gregory do not run here.
    limits = ",".join(str(n) for n in DENSITY_LIMITS)
    jobs = [
        {"id": f"density-{m}", "kind": "cli", "args": ["density", "--limits", limits, "--measure", m],
         "work": sum(DENSITY_LIMITS)}
        for m in ("inclusive", "strict", "large-factor")
    ]
    jobs.append({"id": "stormer-list", "kind": "cli",
                 "args": ["stormer", "list", "--limit", str(LIST_LIMIT), "--format", "csv"], "work": LIST_LIMIT})
    # Four x0 in [1000, 3000], one per quarter, so every seed costs about
    # the same (the work grows with x0^2).
    x0s = [1000 + 500 * j + rng.randrange(500) for j in range(4)]
    jobs.append({"id": "density-heuristic", "kind": "lib", "lib": "density-heuristic",
                 "params": {"x0s": x0s, "mertens_x": MERTENS_X}})
    return jobs


def _pi_digits(rng: random.Random) -> list[dict]:
    # Why: the time is big-integer multiply and divide in the arctan series
    # plus decimal conversion.  Machin at 5*10^4 digits is still quadratic;
    # binary splitting must move it.  Factoring runs here only in the one
    # formula check per job.  The inputs do not depend on the seed.  The
    # tail-bound path is not timed here: see VEGA_TAIL_JOB.
    del rng
    return [
        {"id": f"pi-{f}-{d}", "kind": "cli", "args": ["pi", "--formula", f, "--digits", str(d)], "work": d}
        for f in ("machin", "stormer1896")
        for d in PI_DIGITS
    ]


# The tail-bound path of ``pi --max-terms``.  It is wrong at this input: the
# estimate claims 957 correct digits, the error is 6.9e-958, but a borrow
# reaches back to digit 956, so only 955 digits match pi.  A benchmark
# workload must not fail its oracle on every run, so this job is kept out of
# pi-digits and checked by ``test_vega_tail_estimate_does_not_exceed_matching_digits``
# (an expected failure) until the estimate is fixed; then it belongs back in
# pi-digits.
VEGA_TAIL_JOB = {"id": "pi-vega-tail", "kind": "cli",
                 "args": ["pi", "--formula", "vega", "--digits", str(VEGA_DIGITS),
                          "--max-terms", str(VEGA_MAX_TERMS), "--format", "json"],
                 "work": VEGA_DIGITS}


def _gregory_exact(rng: random.Random) -> list[dict]:
    # Why: the decompose sweep calls gaussian_factorize and is_stormer many
    # times on small numbers with heavy memo reuse.  The verify jobs use the
    # same layer the other way: a few certificates whose cost grows with the
    # coefficient's value, which exact certificates without materialized
    # powers must move.  Large k make the certificate pass 4300 digits and
    # the CLI fail; those failures are counted, never avoided.
    sweep = list(range(1, 10_001)) + _log_uniform_strata(rng, 10_001, 10**6, 200)
    decompose = {"kind": "lib", "lib": "decompose", "params": {"ns": sweep}, "work": len(sweep)}
    jobs = []
    for block, (name, terms) in enumerate(FORMULAS.items()):
        # The decompose job is repeated before each formula's verify jobs:
        # one 1.6 s sample per pass is too few for a steady rate on a shared
        # machine, and spreading the samples over the pass averages out the
        # machine's slow phases.
        jobs.append({"id": f"decompose-{block + 1}", **decompose})
        ks = _log_uniform_strata(rng, 1, 10 ** VERIFY_LOG10_K[name], VERIFY_JOBS_PER_FORMULA)
        # One job of each pair of neighbouring strata is perturbed.
        perturbed = {2 * j + rng.randrange(2) for j in range(VERIFY_JOBS_PER_FORMULA // 2)}
        for j, k in enumerate(ks):
            scaled = [(k * c, re, im) for c, re, im in terms]
            if j in perturbed:
                i = rng.randrange(len(scaled))
                c, re, im = scaled[i]
                scaled[i] = (c + rng.choice((-2, -1, 1, 2)), re, im)
            jobs.append({
                "id": f"verify-{name}-{j}", "kind": "cli",
                "args": ["gregory", "verify", verify_identity_text(k, tuple(scaled)), "--format", "json"],
                "expect": {"valid": j not in perturbed},
            })
    return jobs


def _random_prime_1_mod_4(rng: random.Random, bits: int) -> int:
    import sympy  # oracle-side dependency, not one of the package's

    n = rng.getrandbits(bits) | (1 << (bits - 1))
    n += (1 - n) % 4
    while not sympy.isprime(n):
        n += 4
    return n


def _point_queries(rng: random.Random) -> list[dict]:
    # Why: arith is used one large number at a time, through Miller-Rabin,
    # rho on big cofactors and sqrt_minus_one_mod_p; this is the only
    # workload that measures twosquares.  The x^2+1 sieve should leave it
    # unchanged and a rho work budget should move its tail.
    queries = [["is_stormer", x] for x in _log_uniform_strata(rng, 10**6, 10**12, 200)]
    for op in ("stormer_of_prime", "two_squares"):
        queries += [[op, _random_prime_1_mod_4(rng, 40 + (41 * j) // 100)] for j in range(100)]
    rng.shuffle(queries)
    return [{"id": "point-queries", "kind": "lib", "lib": "point-queries",
             "params": {"queries": queries}, "work": len(queries)}]


_BUILDERS = {
    "density-sweep": _density_sweep,
    "pi-digits": _pi_digits,
    "gregory-exact": _gregory_exact,
    "point-queries": _point_queries,
}


def build_jobs(workload: str, seed: int) -> list[dict]:
    """The job list of ``workload`` for ``seed``; equal seeds give equal lists."""
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"))


def inputs_digest(jobs: list[dict]) -> str:
    """sha256 of the canonical JSON of a job list."""
    return hashlib.sha256(canonical_json(jobs).encode()).hexdigest()


def canonical_json(jobs: list[dict]) -> str:
    return json.dumps(jobs, sort_keys=True, separators=(",", ":"))
