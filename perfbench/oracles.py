"""Checks of every job's output against answers that do not come from
stormerkit: the paper's TABLE3 counts, a sympy reference stored in
``reference.json``, mpmath's pi and arctangents, and sympy factorizations.

:meth:`Oracle.check` returns ``None`` for a correct output and a one-line
reason otherwise.  All of this runs outside the timed region.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
from pathlib import Path

import mpmath
import sympy

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# TABLE3 of the paper: (limit, measure) -> count.
TABLE3 = {(10**4, "strict"): 7101, (10**5, "inclusive"): 70780}

LN2 = math.log(2)


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def stormer_values_digest(values: list[int]) -> str:
    """sha256 of the values written one per line, as ``reference.json`` keeps it."""
    return hashlib.sha256("\n".join(map(str, values)).encode()).hexdigest()


class Oracle:
    def __init__(self, reference: dict | None = None) -> None:
        self.ref = reference if reference is not None else load_reference()
        self._pi = ""
        self._primes: list[int] = []
        self._atan: dict[tuple[int, int], mpmath.mpf] = {}
        self._largest: dict[int, int] = {}
        self._checked: set[tuple] = set()  # decompositions already evaluated

    # --- references computed on demand ---------------------------------------

    def pi_digits(self, digits: int) -> str:
        """pi truncated to ``digits`` places, as "3.…", from mpmath."""
        if len(self._pi) < digits + 2:
            with mpmath.workdps(digits + 40):
                self._pi = mpmath.nstr(mpmath.pi, digits + 30, strip_zeros=False)
        return self._pi[: digits + 2]

    def _primes_to(self, limit: int) -> list[int]:
        if not self._primes or self._primes[-1] < limit:
            self._primes = list(sympy.sieve.primerange(2, limit + 1))
        return self._primes

    def heuristic(self, x0: int) -> float:
        primes = self._primes_to(x0 * x0 + 1)
        lo = bisect.bisect_left(primes, 2 * x0 + 1)
        hi = bisect.bisect_right(primes, x0 * x0 + 1)
        return math.fsum(2.0 / (p - 1) for p in primes[lo:hi] if p % 4 == 1)

    def _largest_factor(self, n: int) -> int:
        if n not in self._largest:
            self._largest[n] = max(sympy.factorint(n))
        return self._largest[n]

    def _atan_term(self, re: int, im: int) -> mpmath.mpf:
        if (re, im) not in self._atan:
            self._atan[(re, im)] = mpmath.atan2(im, re)
        return self._atan[(re, im)]

    # --- per-job checks -------------------------------------------------------

    def check(self, job: dict, stdout: str) -> str | None:
        try:
            if job["kind"] == "lib":
                return getattr(self, "_lib_" + job["lib"].replace("-", "_"))(job, json.loads(stdout))
            command = job["args"][0] if job["args"][0] != "stormer" else "stormer_list"
            if job["args"][:2] == ["gregory", "verify"]:
                command = "verify"
            return getattr(self, "_cli_" + command)(job, stdout)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return f"unreadable output: {exc!r}"

    def _cli_density(self, job: dict, stdout: str) -> str | None:
        measure = job["args"][job["args"].index("--measure") + 1]
        limits = [int(n) for n in job["args"][job["args"].index("--limits") + 1].split(",")]
        lines = stdout.split()
        if lines[0] != "limit,count,ratio,ln2_gap" or len(lines) != len(limits) + 1:
            return "unexpected table shape"
        for limit, line in zip(limits, lines[1:]):
            got_limit, count, ratio, gap = line.split(",")
            want = self.ref["density"][str(limit)][measure]
            if TABLE3.get((limit, measure), want) != want:
                return f"reference disagrees with TABLE3 at {limit}"
            if int(got_limit) != limit or int(count) != want:
                return f"{measure} count at {limit}: got {count}, want {want}"
            if float(ratio) != want / limit or float(gap) != abs(want / limit - LN2):
                return f"ratio or gap at {limit} does not match the count"
        return None

    def _cli_stormer_list(self, job: dict, stdout: str) -> str | None:
        lines = stdout.split()
        values = [int(v) for v in lines[1:]]
        ref = self.ref["stormer_list"]
        if lines[0] != "x0" or len(values) != ref["count"] or len(values) != TABLE3[(10**5, "inclusive")]:
            return f"list has {len(values)} values, want {ref['count']}"
        if stormer_values_digest(values) != ref["sha256"]:
            return "listed values differ from the reference"
        return None

    def _cli_pi(self, job: dict, stdout: str) -> str | None:
        digits = int(job["args"][job["args"].index("--digits") + 1])
        if "--max-terms" not in job["args"]:
            got = stdout.split("\n", 1)[0]
            return None if got == self.pi_digits(digits) else "digits differ from mpmath pi"
        payload = json.loads(stdout)
        got, estimate = payload["digits"], payload["correct_digits_estimate"]
        want = self.pi_digits(digits)
        if len(got) != len(want) or not got.startswith("3."):
            return "malformed digit string"
        matching = next((i for i, (a, b) in enumerate(zip(got[2:], want[2:])) if a != b), digits)
        if not 0 <= estimate <= matching:
            return f"tail estimate {estimate} exceeds the {matching} digits that match"
        return None

    def _cli_verify(self, job: dict, stdout: str) -> str | None:
        valid = json.loads(stdout)["valid"]
        return None if valid == job["expect"]["valid"] else f"verdict {valid}, want {job['expect']['valid']}"

    def _lib_density_heuristic(self, job: dict, result: dict) -> str | None:
        x0s = job["params"]["x0s"]
        if [x0 for x0, _ in result["heuristic"]] != x0s:
            return "heuristic results do not match the inputs"
        self._primes_to(max(x0s) ** 2 + 1)
        for x0, value in result["heuristic"]:
            want = self.heuristic(x0)
            if abs(value - want) > 1e-12:
                return f"heuristic_probability({x0}) = {value!r}, want {want!r}"
        if job["params"]["mertens_x"] != self.ref["mertens"]["x"]:
            return "no reference for this mertens_gap argument"
        if abs(result["mertens"] - self.ref["mertens"]["gap"]) > 1e-12:
            return f"mertens_gap = {result['mertens']!r}, want {self.ref['mertens']['gap']!r}"
        return None

    def _lib_decompose(self, job: dict, result: dict) -> str | None:
        combos = result["combos"]
        if [n for n, _ in combos] != job["params"]["ns"]:
            return "decompositions do not match the inputs"
        tolerance = mpmath.mpf(10) ** -40
        with mpmath.workdps(50):
            for n, terms in combos:
                key = (n, tuple(map(tuple, terms)))
                if key in self._checked:
                    continue
                total = mpmath.fsum(c * self._atan_term(re, im) for re, im, c in terms)
                if abs(total - mpmath.atan(mpmath.mpf(1) / n)) > tolerance:
                    return f"decomposition of t{n} does not evaluate to arctan(1/{n})"
                self._checked.add(key)
        return None

    def _lib_point_queries(self, job: dict, result: dict) -> str | None:
        queries, answers = job["params"]["queries"], result["answers"]
        if len(answers) != len(queries) or len(result["latencies_s"]) != len(queries):
            return "answer count does not match the queries"
        for (op, value), answer in zip(queries, answers):
            if op == "is_stormer":
                largest = self._largest_factor(value * value + 1)
                if answer != [largest >= 2 * value + 1, largest]:
                    return f"is_stormer({value}) = {answer}, want {[largest >= 2 * value + 1, largest]}"
            elif op == "stormer_of_prime":
                if not (1 <= answer <= (value - 1) // 2 and answer * answer % value == value - 1):
                    return f"stormer_of_prime({value}) = {answer} is not the small root of -1"
            elif answer[0] ** 2 + answer[1] ** 2 != value:
                return f"two_squares({value}) = {answer} does not sum to p"
        return None

    # --- checks across jobs of one pass ---------------------------------------

    def check_pass(self, jobs: list[dict], outputs: dict[str, str]) -> dict[str, str]:
        """Machin and Stormer-1896 must agree on every requested digit."""
        bad = {}
        for job in jobs:
            if job["id"].startswith("pi-machin-"):
                twin = job["id"].replace("machin", "stormer1896")
                a, b = outputs.get(job["id"]), outputs.get(twin)
                if a is not None and b is not None and a.split("\n", 1)[0] != b.split("\n", 1)[0]:
                    bad[job["id"]] = bad[twin] = "machin and stormer1896 disagree"
        return bad
