"""``tools/code_lines.py`` counts code lines: not blank lines, comments or
docstrings, but every line of a triple-quoted string that is no docstring."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

# Ten code lines: the import, three def lines, the class line, three returns
# and the two lines of the string bound to ``text``.
_DOCUMENTED = '''"""Module docstring
over two lines."""

# a comment
import os  # a trailing comment


class Thing:
    """Class docstring."""

    def method(self):
        """Method
        docstring."""
        return os.sep


def function():
    \'\'\'Function docstring.\'\'\'
    text = """not a
docstring"""
    return text


async def coroutine():
    """Async docstring."""
    return None
'''

# Two code lines: a string after the first statement is no docstring.
_BARE = '''x = 1
"""A bare string after code."""
'''


def _rows(*args: str) -> dict[str, int]:
    run = subprocess.run([sys.executable, str(_TOOL), *args], capture_output=True, text=True, check=True)
    return {name: int(count) for name, count in (line.rsplit(" ", 1) for line in run.stdout.splitlines())}


def test_counts_code_lines_per_module_and_their_total(tmp_path: Path) -> None:
    (tmp_path / "documented.py").write_text(_DOCUMENTED)
    (tmp_path / "bare.py").write_text(_BARE)
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert _rows(str(tmp_path)) == {"bare.py": 2, "documented.py": 10, "total": 12}


def test_default_directory_is_the_package() -> None:
    rows = _rows()
    total = rows.pop("total")
    assert set(rows) == {path.name for path in (_TOOL.parents[1] / "src" / "stormerkit").glob("*.py")}
    assert total == sum(rows.values())
