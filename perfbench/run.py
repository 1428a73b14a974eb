"""The stormerkit benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source tree (it needs ``src/stormerkit``).
Workloads: density-sweep, pi-digits, gregory-exact, point-queries (see
``workloads.py`` for what each one runs and why).  Tune on any seed; check
a claim also on the held-out seed ``workloads.HELD_OUT_SEED`` (9001).

``--trace 0`` measures end to end.  Every job runs in a child process, so
memos start cold and ``wait4`` gives each job's peak resident set and CPU
time.  ``STORMER_THREADS`` is removed from the jobs' environment, so the CLI
picks its own worker count, which is recorded.  The job list is run whole,
again and again, while at least half of another pass fits in ``--seconds``
of job time (the oracles' time is not counted).  The end-to-end metrics pool every
pass (see ``summarize``): ``setup_s`` is the median of several fresh
interpreters importing ``stormerkit.cli``, ``work_per_s`` the workload's
own rate and ``peak_rss_mb`` the largest job.  The workload-specific names
(``candidates_per_s``, ``verify_p50_s``, ``query_p90_ms``, ...), ``wall_s``
and ``error_rate`` are printed above the result line and kept in the record.

``--trace 1`` runs the job list in process, alternately plain and with spans
around every public function (``tracing.py``), both with one worker, and
reports calls, self time and counts per layer and the tracing overhead.

Every output is checked against an oracle (``oracles.py``).  The last line
of stdout is one JSON object: ``correct`` (no output failed its oracle),
``attempted`` and ``failed`` (jobs that exited non-zero, timed out or failed
their oracle) and ``metrics``.  The full record, with the environment, the
seed and a digest of the inputs, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# A run must end well inside 180 s whatever the program does: jobs still
# running at this point are killed and count as failed.
RUN_DEADLINE_S = 165.0
SETUP_SAMPLES = 9

CLI_LAUNCHER = "import sys\nfrom stormerkit.cli import main\nsys.argv[0] = 'stormerkit'\nsys.exit(main())"

END_TO_END_UNITS = {
    "setup_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}


# --- child processes -----------------------------------------------------------

def job_env(threads: str | None) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("STORMER_THREADS", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    if threads is not None:
        env["STORMER_THREADS"] = threads
    return env


class Spawner:
    """Runs jobs through ``spawner.py``, a small helper process, so that a
    job's peak RSS is not inflated by this process's own (see there)."""

    def __init__(self, workdir: Path) -> None:
        self._workdir = workdir
        self._proc = subprocess.Popen([sys.executable, str(HERE / "spawner.py")], stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE, text=True, cwd=ROOT)

    def run(self, argv: list[str], env: dict, timeout: float) -> dict:
        out, err = self._workdir / "job.out", self._workdir / "job.err"
        request = {"argv": argv, "env": env, "cwd": str(ROOT), "stdout": str(out), "stderr": str(err),
                   "timeout": timeout}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError("the spawner process died")
        result = json.loads(reply)
        result["stdout"] = out.read_text()
        result["stderr"] = err.read_text()[-2000:]
        return result

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.stdout.close()
        self._proc.wait()


def job_argv(job: dict, spec_path: Path) -> list[str]:
    if job["kind"] == "cli":
        return [sys.executable, "-c", CLI_LAUNCHER, *job["args"]]
    return [sys.executable, str(HERE / "libjob.py"), str(spec_path)]


# --- environment -----------------------------------------------------------------

def _version(package: str) -> str | None:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(env: dict) -> tuple[dict, dict]:
    """The environment record, and the job environment to use.

    The CLI's default worker count is read from a child with
    ``STORMER_THREADS`` unset.  If it exceeds the CPUs this process may run
    on, the jobs get ``STORMER_THREADS`` = that CPU count instead, and the
    record says so."""
    affinity = sorted(os.sched_getaffinity(0))
    probe = subprocess.run(
        [sys.executable, "-c",
         "from stormerkit import stormer\nf = getattr(stormer, 'default_workers', None)\nprint(f() if f else '')"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    workers = int(probe.stdout) if probe.stdout.strip() else None
    threads = "cleared"
    if workers is not None and workers > len(affinity):
        env = job_env(str(len(affinity)))
        threads = f"set to {len(affinity)}: the default of {workers} exceeds the CPU affinity"
    status = _git("status", "--porcelain", "--untracked-files=no")
    record = {
        "nproc": len(affinity),
        "os_cpu_count": os.cpu_count(),
        "cpu_affinity": affinity,
        "python": platform.python_version(),
        "click": _version("click"),
        "sympy": _version("sympy"),
        "mpmath": _version("mpmath"),
        "platform": platform.platform(),
        "commit": _git("rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
        "source_sha256": source_digest(),
        "cli_default_workers": workers,
        "STORMER_THREADS": threads,
    }
    return record, env


def measure_setup(spawner: Spawner, env: dict) -> list[float]:
    """Wall time of fresh interpreters importing stormerkit.cli, after one
    untimed start that writes the bytecode caches."""
    argv = [sys.executable, "-c", "import stormerkit.cli"]
    spawner.run(argv, env, 60)
    return [spawner.run(argv, env, 60)["wall_s"] for _ in range(SETUP_SAMPLES)]


# --- metrics -------------------------------------------------------------------

def pass_figures(workload: str, jobs: list[dict], results: list[dict]) -> dict:
    """One pass's figures.

    ``work`` and ``work_s`` are the units of the workload's own rate and the
    time spent on them: limits in the density and list jobs, digits in the
    pi jobs, n values in the decompose jobs (timed inside the job).
    ``latencies_ms`` are the verify jobs of gregory-exact and the single
    queries of point-queries."""
    by_id = {r["id"]: r for r in results}
    figures = {
        "wall_s": sum(r["wall_s"] for r in results),
        "cpu_s": sum(r["cpu_s"] for r in results),
        "peak_rss_mb": max(r["maxrss_kb"] for r in results) / 1024,
        "work": 0, "work_s": 0.0, "latencies_ms": [],
    }
    cli = [j for j in jobs if j["kind"] == "cli"]
    if workload in ("density-sweep", "pi-digits"):
        figures["work"] = sum(j["work"] for j in cli)
        figures["work_s"] = sum(by_id[j["id"]]["wall_s"] for j in cli)
    elif workload == "gregory-exact":
        figures["latencies_ms"] = [1000 * by_id[j["id"]]["wall_s"] for j in cli]
    for job in jobs:
        result = _lib_result(by_id[job["id"]]) if job["kind"] == "lib" else None
        if job.get("lib") == "decompose" and result:
            figures["work"] += job["work"]
            figures["work_s"] += result["seconds"]
        elif job.get("lib") == "point-queries" and result:
            figures["latencies_ms"] = [1000 * t for t in result["latencies_s"]]
    return figures


def _lib_result(result: dict) -> dict | None:
    try:
        return json.loads(result["stdout"]) if result["exit"] == 0 else None
    except ValueError:
        return None


def summarize(workload: str, passes: list[dict], setup: list[float]) -> tuple[dict, dict]:
    """(end-to-end metrics, named metrics) over all passes.

    Rates are total work over total time, so every measured second counts.
    On point-queries a few hard factorizations, which change with the seed,
    dominate the mean latency, so its rate is over the fastest 90% of the
    queries; the tail is the named ``query_p90_ms``.  A rate with nothing
    measured (every job that feeds it failed) is 0."""
    latencies = [ms for p in passes for ms in p["latencies_ms"]] or [float("nan")]
    if workload == "point-queries":
        body = sorted(latencies)[: max(1, int(0.9 * len(latencies)))]
        work, work_s = len(body), sum(body) / 1000
    else:
        work, work_s = sum(p["work"] for p in passes), sum(p["work_s"] for p in passes)
    work_per_s = work / work_s if work_s > 0 else 0.0
    metrics = {
        "setup_s": statistics.median(setup),
        "work_per_s": work_per_s,
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
    }
    named = {
        "setup_s": metrics["setup_s"],
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "error_rate": sum(p["failed"] for p in passes) / sum(p["attempted"] for p in passes),
        "peak_rss_mb": metrics["peak_rss_mb"],
    }
    if workload == "density-sweep":
        named["candidates_per_s"] = work_per_s
    elif workload == "pi-digits":
        named["digits_per_s"] = work_per_s
    elif workload == "gregory-exact":
        named["decompose_per_s"] = work_per_s
        named["verify_p50_s"] = statistics.median(latencies) / 1000
    else:
        named["query_p50_ms"] = statistics.median(latencies)
        named["query_p90_ms"] = (statistics.quantiles(latencies, n=10, method="inclusive")[8]
                                 if len(latencies) > 1 else latencies[0])
    return metrics, named


NAMED_UNITS = {
    "setup_s": "s", "wall_s": "s", "error_rate": "ratio", "peak_rss_mb": "MB", "candidates_per_s": "1/s",
    "digits_per_s": "1/s", "decompose_per_s": "1/s", "verify_p50_s": "s", "query_p50_ms": "ms",
    "query_p90_ms": "ms",
}


# --- the two modes ---------------------------------------------------------------

def check_outputs(oracle, jobs: list[dict], results: list[dict]) -> tuple[int, int]:
    """Mark each result with its oracle verdict; returns (failed, wrong)."""
    bad = oracle.check_pass(jobs, {r["id"]: r["stdout"] for r in results if r["exit"] == 0})
    failed = wrong = 0
    for job, result in zip(jobs, results):
        if result["exit"] != 0:
            result["error"] = "timed out" if result.get("timed_out") else f"exit {result['exit']}"
        else:
            reason = oracle.check(job, result["stdout"]) or bad.get(job["id"])
            if reason:
                result["error"] = f"wrong output: {reason}"
                wrong += 1
        failed += "error" in result
    return failed, wrong


def write_specs(jobs: list[dict], workdir: Path) -> dict[str, Path]:
    paths = {}
    for job in jobs:
        if job["kind"] == "lib":
            paths[job["id"]] = workdir / f"{job['id']}.json"
            paths[job["id"]].write_text(json.dumps(job))
    return paths


def run_end_to_end(spawner, workload, jobs, seconds, env, oracle, deadline, workdir) -> dict:
    specs = write_specs(jobs, workdir)
    passes = []
    while True:
        results = []
        for job in jobs:
            result = spawner.run(job_argv(job, specs.get(job["id"])), env, deadline - time.monotonic())
            result["id"] = job["id"]
            results.append(result)
        figures = pass_figures(workload, jobs, results)
        failed, wrong = check_outputs(oracle, jobs, results)
        figures.update(attempted=len(jobs), failed=failed, wrong=wrong,
                       errors={r["id"]: r["error"] for r in results if "error" in r},
                       jobs={r["id"]: {k: r[k] for k in ("exit", "wall_s", "cpu_s", "maxrss_kb")} for r in results})
        passes.append(figures)
        # Another pass starts if at least half of it fits in the time left.
        measured = sum(p["wall_s"] for p in passes)
        if measured + 0.5 * figures["wall_s"] > seconds or time.monotonic() + 1.5 * figures["wall_s"] > deadline:
            return {"passes": passes}


PER_LAYER_CALLS = (
    "arith.largest_prime_factor", "arith.is_prime", "arith.factorize", "arith.gaussian_factorize",
    "arith.sieve_primes", "arith.sqrt_minus_one_mod_p", "stormer.is_stormer", "stormer.stormer_of_prime",
    "twosquares.two_squares", "gregory.decompose", "gregory.verify_identity", "gregory.identity_certificate",
)
PER_LAYER_SELF = PER_LAYER_CALLS + (
    "stormer.enumerate_stormer", "density.count_stormer", "density.count_large_factor",
    "density.heuristic_probability", "density.mertens_gap", "pidigits.compute_pi",
    "pidigits.decimal_string",
)
PER_LAYER_COUNTS = (
    "arith.sieve_primes.span", "stormer.enumerate_stormer.candidates", "gregory.identity_certificate.digits",
    "pidigits.series_terms", "cli.output_bytes",
)
LAYERS = ("arith", "stormer", "twosquares", "density", "gregory", "pidigits", "cli")


def per_layer_metrics(trace: dict) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, 0 where the workload never enters the layer."""
    names, counts = trace["per_name"], trace["counts"]
    metrics: dict[str, tuple[float, str]] = {}
    for name in PER_LAYER_CALLS:
        metrics[f"{name}.calls"] = (names.get(name, {}).get("calls", 0), "count")
    for name in PER_LAYER_SELF:
        metrics[f"{name}.self_s"] = (names.get(name, {}).get("self_s", 0.0), "s")
    for key in PER_LAYER_COUNTS:
        metrics[key] = (counts.get(key, 0), "bytes" if key == "cli.output_bytes" else "count")
    tested = counts.get("density.tested_x", 0)
    metrics["density.candidate_reuse"] = (counts.get("density.distinct_x", 0) / tested if tested else 0.0, "ratio")
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (trace["per_module"].get(layer, 0.0), "s")
    return metrics


def run_traced(spawner, jobs, seconds, env, oracle, deadline, workdir) -> dict:
    """Plain and traced in-process runs, alternating while another pair fits
    in ``seconds``.  Per-layer values are medians over the traced runs (the
    counts repeat exactly) and the overhead compares median totals."""
    spec = workdir / "jobs.json"
    spec.write_text(json.dumps(jobs))
    runs: dict[str, list[dict]] = {"plain": [], "traced": []}
    started = time.monotonic()
    while True:
        for mode in runs:
            out_path = workdir / f"{mode}.json"
            child = spawner.run([sys.executable, str(HERE / "inproc.py"), str(spec), str(out_path), mode], env,
                                deadline - time.monotonic())
            if child["exit"] != 0:
                raise RuntimeError(f"{mode} in-process run failed: {child['stderr'][-500:]}")
            runs[mode].append(json.loads(out_path.read_text()))
        pair_s = runs["plain"][-1]["total_s"] + runs["traced"][-1]["total_s"]
        now = time.monotonic()
        if now - started + pair_s > seconds or now + 1.5 * pair_s > deadline:
            break
    traced = runs["traced"][-1]
    failed, wrong = check_outputs(oracle, jobs, traced["jobs"])
    per_run = [per_layer_metrics(run["trace"]) for run in runs["traced"]]
    plain_s, traced_s = (statistics.median(run["total_s"] for run in runs[mode]) for mode in ("plain", "traced"))
    return {
        "workers": traced["workers"],
        "pairs": len(per_run),
        "plain_total_s": plain_s,
        "traced_total_s": traced_s,
        "tracing_overhead": traced_s / plain_s - 1,
        "trace": traced["trace"],
        "per_layer": {name: (statistics.median(m[name][0] for m in per_run), unit)
                      for name, (_, unit) in per_run[0].items()},
        "attempted": len(jobs), "failed": failed, "wrong": wrong,
        "errors": {r["id"]: r["error"] for r in traced["jobs"] if "error" in r},
        "jobs": {r["id"]: {"exit": r["exit"], "wall_s": r["wall_s"]} for r in traced["jobs"]},
    }


# --- main ------------------------------------------------------------------------

def parse_args(argv: list[str]) -> argparse.Namespace:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    if not (SRC / "stormerkit" / "cli.py").is_file():
        print(f"error: no stormerkit sources under {SRC}; run from a stormerkit source tree", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    args = parse_args(argv)
    run_start = time.monotonic()
    deadline = run_start + RUN_DEADLINE_S

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        spawner = Spawner(Path(tmp))
        try:
            # Imported after the spawner starts, which then stays small.
            from oracles import Oracle
            from workloads import build_jobs, inputs_digest

            jobs = build_jobs(args.workload, args.seed)
            env_record, env = environment(job_env(None))
            setup = measure_setup(spawner, env)
            oracle = Oracle()
            if args.trace:
                detail = run_traced(spawner, jobs, args.seconds, env, oracle, deadline, Path(tmp))
            else:
                detail = run_end_to_end(spawner, args.workload, jobs, args.seconds, env, oracle, deadline, Path(tmp))
        finally:
            spawner.close()

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "inputs_sha256": inputs_digest(jobs), "environment": env_record, "setup_samples_s": setup,
        "run_s": time.monotonic() - run_start,
    }
    if args.trace:
        metrics = detail.pop("per_layer")
        record["traced"] = detail
        attempted, failed, wrong = detail["attempted"], detail["failed"], detail["wrong"]
        shown = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
        print(f"traced run: one worker, {detail['pairs']} plain/traced pair(s), tracing overhead "
              f"{100 * detail['tracing_overhead']:.1f}% (median {detail['traced_total_s']:.2f} s traced, "
              f"{detail['plain_total_s']:.2f} s plain)")
        for layer, seconds in sorted(detail["trace"]["per_module"].items()):
            print(f"  self time {layer:<10} {seconds:10.4f} s")
    else:
        passes = detail["passes"]
        values, named = summarize(args.workload, passes, setup)
        record.update(passes=passes, metrics=values, named_metrics=named)
        attempted = sum(p["attempted"] for p in passes)
        failed = sum(p["failed"] for p in passes)
        wrong = sum(p["wrong"] for p in passes)
        shown = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
        print(f"{args.workload} seed {args.seed}: {len(passes)} pass(es), inputs sha256 {record['inputs_sha256'][:16]}")
        print(f"  nproc {env_record['nproc']}, CLI workers {env_record['cli_default_workers']}, "
              f"STORMER_THREADS {env_record['STORMER_THREADS']}")
        for name, value in named.items():
            print(f"  {name:<18} {value:.6g} {NAMED_UNITS[name]}")
    for job_id, error in (record.get("traced") or record["passes"][-1]).get("errors", {}).items():
        print(f"  failed: {job_id}: {error}")
    out_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1, sort_keys=True))
    print(f"record: {out_path.relative_to(ROOT)}")
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed, "metrics": shown}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
