"""Run a workload's job list inside one interpreter, traced or not.

``python3 perfbench/inproc.py SPEC.json OUT.json plain|traced`` with ``src``
on ``PYTHONPATH``.  CLI jobs go through
``stormerkit.cli.cli.main(args, standalone_mode=False)`` and library jobs
through ``libjob.run``.  Forked pool workers would take their spans with
them, so the run uses one worker (``STORMER_THREADS=1``) in both modes;
the plain mode is the baseline for the tracing overhead.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time
import traceback

os.environ["STORMER_THREADS"] = "1"

import click  # noqa: E402

import stormerkit  # noqa: E402
import stormerkit.cli  # noqa: E402

import libjob  # noqa: E402
from tracing import Tracer  # noqa: E402


def _run_cli(args: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            stormerkit.cli.cli.main(args, prog_name="stormerkit", standalone_mode=False)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except click.ClickException as exc:
            exc.show()
            code = exc.exit_code
        except Exception:  # a crash of the job under test is its result
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def _run_lib(job: dict) -> tuple[int, str, str]:
    try:
        return 0, libjob.run(job), ""
    except Exception:  # a crash of the job under test is its result
        return 1, "", traceback.format_exc()


def run_jobs(jobs: list[dict], tracer: Tracer | None) -> dict:
    results = []
    start = time.perf_counter()
    for job in jobs:
        t0 = time.perf_counter()
        if tracer is None:
            code, out, err = _run_cli(job["args"]) if job["kind"] == "cli" else _run_lib(job)
        elif job["kind"] == "cli":
            density_job = tracer.density_job() if job["args"][0] == "density" else contextlib.nullcontext()
            with density_job, tracer.span("cli"):
                code, out, err = _run_cli(job["args"])
            tracer.count("cli.output_bytes", len(out.encode()))
        else:
            with tracer.span("bench"):
                code, out, err = _run_lib(job)
        results.append({"id": job["id"], "exit": code, "stdout": out, "stderr": err[-2000:],
                        "wall_s": time.perf_counter() - t0})
    return {"jobs": results, "total_s": time.perf_counter() - start}


def main(spec_path: str, out_path: str, mode: str) -> None:
    with open(spec_path) as fh:
        jobs = json.load(fh)
    tracer = Tracer() if mode == "traced" else None
    if tracer is not None:
        tracer.install(stormerkit)
    try:
        record = run_jobs(jobs, tracer)
    finally:
        if tracer is not None:
            tracer.restore()
    record["workers"] = 1
    if tracer is not None:
        record["trace"] = tracer.summary()
    with open(out_path, "w") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    main(*sys.argv[1:4])
