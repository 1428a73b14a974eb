"""Library invariants must survive ``python -O``, which strips ``assert``."""

from __future__ import annotations

import ast
from pathlib import Path

import stormerkit


def test_library_has_no_assert_statements() -> None:
    sources = sorted(Path(stormerkit.__file__).parent.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
