"""Run tier-1 under a second interpreter, with this interpreter's test packages.

    python tools/second_python.py PYTHON

PYTHON need not have pytest, hypothesis, sympy or mpmath installed.  The
running interpreter's copies of them and of everything they require outside
extras, all pure Python, are symlinked, not copied, into one temporary
directory, which goes on PYTHONPATH after ``src``.  PYTHON's own click is
used when it has one; otherwise the running interpreter's click is linked
too.  Then

    PYTHON -m pytest -q --continue-on-collection-errors

runs from the repository root with ``PYTHONDONTWRITEBYTECODE=1``, so that
PYTHON writes no bytecode into the linked packages, and the tool exits with
pytest's status.  If PYTHON cannot be started or is older than the
``requires-python`` floor, 3.10, it prints why and exits 2.

Only the standard library is used.  Nothing is installed or downloaded, and
the temporary directory is removed at the end.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import tempfile
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TEST_PACKAGES = ("pytest", "hypothesis", "sympy", "mpmath")
FLOOR = (3, 10)

# PYTHON's version, and whether it can import click of its own.
_PROBE = "import sys, importlib.util; print(*sys.version_info[:2], importlib.util.find_spec('click') is not None)"


def _key(name: str) -> str:
    """A distribution name normalized as PEP 503 does."""
    return re.sub(r"[-_.]+", "-", name).lower()


def requirements(dist: metadata.Distribution) -> list[str]:
    """The names ``dist`` requires outside its extras."""
    return [re.match(r"[A-Za-z0-9._-]+", req).group()
            for req in dist.requires or () if not re.search(r"\bextra\s*==", req)]


def link_set(names: list[str], path: list[str]) -> dict[str, Path]:
    """Top-level entry -> its path, for every file and directory at the top
    of the site directories on ``path`` that the distributions ``names``, and
    those they require outside extras, installed: packages, modules and
    ``.dist-info`` directories, but no ``__pycache__``, ``.pth`` file or
    script.  A required name not installed on ``path`` is left out, as a
    marker such as ``python_version < "3.11"`` leaves it out there."""
    links, seen, todo = {}, set(), list(names)
    while todo:
        name = _key(todo.pop())
        if name in seen:
            continue
        seen.add(name)
        dist = next(metadata.distributions(name=name, path=path), None)
        if dist is None:
            continue
        site = Path(dist.locate_file(""))
        for top in {file.parts[0] for file in dist.files or ()}:
            if top not in ("..", "__pycache__") and not top.endswith(".pth"):
                links[top] = site / top
        todo += requirements(dist)
    return links


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    python = argv[0]
    try:
        probe = subprocess.run([python, "-I", "-c", _PROBE], capture_output=True, text=True)
    except OSError as error:
        print(f"cannot start {python}: {error}", file=sys.stderr)
        return 2
    if probe.returncode != 0:
        print(f"{python} exited {probe.returncode}: {probe.stderr.strip()}", file=sys.stderr)
        return 2
    major, minor, own_click = probe.stdout.split()
    if (int(major), int(minor)) < FLOOR:
        print(f"{python} is Python {major}.{minor}; requires-python is >={FLOOR[0]}.{FLOOR[1]}", file=sys.stderr)
        return 2
    names = [*TEST_PACKAGES, *(() if own_click == "True" else ("click",))]
    with tempfile.TemporaryDirectory(prefix="second_python-") as packages:
        for top, source in link_set(names, sys.path).items():
            Path(packages, top).symlink_to(source)
        print(f"Python {major}.{minor}, {'its own' if own_click == 'True' else 'linked'} click", file=sys.stderr)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), packages]),
               "PYTHONDONTWRITEBYTECODE": "1"}
        cmd = [python, "-m", "pytest", "-q", "--continue-on-collection-errors"]
        return subprocess.run(cmd, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
