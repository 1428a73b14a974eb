"""Library jobs: workload steps that call stormerkit directly.

Run as ``python3 perfbench/libjob.py SPEC.json`` with ``src`` on
``PYTHONPATH``: the spec is one library job from ``workloads.py``, and the
job's result is printed to stdout as one JSON object.  The traced run calls
:func:`run` in process instead.
"""

from __future__ import annotations

import json
import sys
import time

from stormerkit import density, gregory, stormer, twosquares


def _density_heuristic(params: dict) -> dict:
    heuristic = [[x0, density.heuristic_probability(x0)] for x0 in params["x0s"]]
    return {"heuristic": heuristic, "mertens": density.mertens_gap(params["mertens_x"])}


def _decompose(params: dict) -> dict:
    start = time.perf_counter()
    combos = [gregory.decompose(n) for n in params["ns"]]
    seconds = time.perf_counter() - start
    return {
        "seconds": seconds,
        "combos": [[n, [[t.re, t.im, c] for t, c in combo.items()]] for n, combo in zip(params["ns"], combos)],
    }


def _answer(op: str, value: int):
    if op == "is_stormer":
        verdict = stormer.is_stormer(value)
        return [verdict.is_stormer, verdict.largest_prime_factor]
    if op == "stormer_of_prime":
        return stormer.stormer_of_prime(value).x0
    result = twosquares.two_squares(value)
    return [result.a, result.b]


def _point_queries(params: dict) -> dict:
    answers, latencies = [], []
    for op, value in params["queries"]:
        start = time.perf_counter()
        answer = _answer(op, value)
        latencies.append(time.perf_counter() - start)
        answers.append(answer)
    return {"answers": answers, "latencies_s": latencies}


_LIBS = {
    "density-heuristic": _density_heuristic,
    "decompose": _decompose,
    "point-queries": _point_queries,
}


def run(job: dict) -> str:
    """Run one library job and return its result as a JSON string."""
    return json.dumps(_LIBS[job["lib"]](job["params"]))


if __name__ == "__main__":
    with open(sys.argv[1]) as fh:
        print(run(json.load(fh)))
