"""Peak memory of the sieve commands at 10**6: the x**2 + 1 sieve holds one
block of x at a time and ``stormer list`` streams its values, so neither
command grows far past the interpreter that imports the CLI."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in KiB on Linux only")

_SRC = Path(__file__).resolve().parents[1] / "src"

# Headroom over `stormerkit --version` that a command at 10**6 may take.
_HEADROOM_MB = 12


def _peak_rss_mb(args: list[str]) -> float:
    """The child's own peak resident set, from wait4, running `stormerkit <args>`."""
    env = {**os.environ, "PYTHONPATH": str(_SRC)}
    child = subprocess.Popen(
        [sys.executable, "-m", "stormerkit.cli", *args],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    assert child.returncode == 0, args
    return usage.ru_maxrss / 1024


@pytest.mark.parametrize(
    "args",
    [
        ["stormer", "list", "--limit", "1000000", "--format", "csv", "--out", "{tmp}"],
        ["density", "--limits", "1000000"],
    ],
    ids=["stormer-list", "density"],
)
def test_sieve_commands_stay_near_the_import_baseline(args: list[str], tmp_path) -> None:
    baseline = _peak_rss_mb(["--version"])
    peak = _peak_rss_mb([arg.replace("{tmp}", str(tmp_path / "list.csv")) for arg in args])
    assert peak - baseline < _HEADROOM_MB, (peak, baseline)
