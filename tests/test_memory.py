"""Peak memory of the sieve commands at 10**6, of the density sums and of a
decompose sweep: the x**2 + 1 sieve holds one block of x at a time and
``stormer list`` streams its values, so neither command grows far past the
interpreter that imports the CLI; the prime sieve holds one segment of odd
numbers and one zero buffer at a time; decompose keeps nothing per n, only
the A(p) table of the primes it meets, and each result it returns holds a
tuple of ints, not a dict of ArcTerms.

Each child reads its own peak, VmHWM of its address space, from
/proc/self/status.  Its ``ru_maxrss`` would not do: Linux carries the
high-water mark of the process that starts a child into the child's
``ru_maxrss``, and the pytest process is larger than any run here."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.skipif(not sys.platform.startswith("linux"), reason="VmHWM is read from Linux's /proc")

_SRC = Path(__file__).resolve().parents[1] / "src"

# Headroom over `stormerkit --version` that a command at 10**6 may take.
_HEADROOM_MB = 12

_PEAK_MB = """
def peak_mb():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:")) / 1024
"""

# `stormerkit <args>`, printing the peak as the last line of stderr at exit.
_CLI = _PEAK_MB + """
import atexit, runpy, sys
atexit.register(lambda: print(peak_mb(), file=sys.stderr))
sys.argv[0] = "stormerkit"
runpy.run_module("stormerkit.cli", run_name="__main__")
"""

# Decompose 1..2*10**4, dropping each result, and print the peak over the
# peak after `from stormerkit import gregory`.
_SWEEP = _PEAK_MB + """
from stormerkit import gregory
base = peak_mb()
for n in range(1, 20001):
    gregory.decompose(n)
print(peak_mb() - base)
"""

# Decompose 1..10**4 once to fill the A(p) table, then hold the results of a
# second pass and print the bytes tracemalloc counts per result.
_HELD = """
import tracemalloc
from stormerkit import gregory
for n in range(1, 10001):
    gregory.decompose(n)
tracemalloc.start()
results = [gregory.decompose(n) for n in range(1, 10001)]
print(tracemalloc.get_traced_memory()[0] / len(results))
"""

# The Mertens gap to 10**7, then the heuristic sum at x0 = 3000, which
# sieves 6001..9000001, and print the peak over the peak after
# `from stormerkit import density`.
_DENSITY_SUMS = _PEAK_MB + """
from stormerkit import density
base = peak_mb()
density.mertens_gap(10**7)
density.heuristic_probability(3000)
print(peak_mb() - base)
"""


def _run(code: str, args: list[str] = ()) -> subprocess.CompletedProcess:
    """A child running ``code`` with ``args`` on the source tree's package."""
    env = {**os.environ, "PYTHONPATH": str(_SRC)}
    child = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True)
    assert child.returncode == 0, (args, child.stderr)
    return child


def _peak_rss_mb(args: list[str]) -> float:
    """The child's own peak resident set running `stormerkit <args>`."""
    return float(_run(_CLI, args).stderr.splitlines()[-1])


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


def test_decompose_sweep_stays_near_the_import_baseline() -> None:
    growth = float(_run(_SWEEP).stdout)
    assert growth < 4, growth


def test_decompose_results_hold_few_bytes_each() -> None:
    # About 162 B: the combo, its tuple of (re, im, coef) and the ints not
    # shared with the A(p) table, for 71% of n a Stormer number's one triple.
    # A dict of ArcTerm keys per result held about 344 B.
    held = float(_run(_HELD).stdout)
    assert held <= 200, held


def test_density_sums_stay_near_the_import_baseline() -> None:
    growth = float(_run(_DENSITY_SUMS).stdout)
    assert growth < 2, growth
