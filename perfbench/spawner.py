"""Start and reap the benchmark's job processes.

``python3 perfbench/spawner.py`` reads one JSON request per line on stdin:
``{"argv", "env", "cwd", "stdout", "stderr", "timeout"}``, runs the job to
completion, and answers with one JSON line: exit code, whether it timed
out, wall time, CPU time and peak resident set.

Jobs are started from this small process rather than from ``run.py``: Linux
carries the resident-set high-water mark of the forking process into the
child's ``ru_maxrss``, and ``run.py`` holds sympy and mpmath.  Started from
here, a job's ``ru_maxrss`` is its own peak (or that of a worker it reaped).
"""

from __future__ import annotations

import json
import os
import select
import signal
import subprocess
import sys
import time


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _wait_group_gone(pgid: int) -> None:
    """After a kill, wait (up to 5 s) until no process of the job's group is left."""
    for _ in range(500):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        _kill_group(pgid)
        time.sleep(0.01)


def run(request: dict) -> dict:
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(request["argv"], stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                env=request["env"], cwd=request["cwd"], start_new_session=True)
        pidfd = os.pidfd_open(proc.pid)
        try:
            timed_out = not select.select([pidfd], [], [], max(request["timeout"], 0.5))[0]
            if timed_out:
                _kill_group(proc.pid)
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            os.close(pidfd)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if timed_out:
        _wait_group_gone(proc.pid)
    return {
        "exit": proc.returncode,
        "timed_out": timed_out,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,
    }


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
