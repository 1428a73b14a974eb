"""``tools/second_python.py`` links the test packages and their requirements
into a directory for a second interpreter.  These tests read a fixture site
directory and start no second interpreter."""

from __future__ import annotations

import importlib.util
from pathlib import Path

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "second_python.py"
_spec = importlib.util.spec_from_file_location("second_python", _TOOL)
second_python = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(second_python)


def _dist(site: Path, folder: str, metadata: str, record: list[str]) -> None:
    """An installed distribution: every file its RECORD lists exists, since
    Python 3.12 and later leave missing ones out of ``files``."""
    for path in record:
        (site / path).parent.mkdir(parents=True, exist_ok=True)
        (site / path).touch()
    (site / folder / "METADATA").write_text(metadata)
    (site / folder / "RECORD").write_text("".join(f"{path},,\n" for path in record))


def test_link_set_follows_requirements_outside_extras(tmp_path: Path) -> None:
    site = tmp_path / "lib" / "site-packages"
    _dist(
        site,
        "alpha-1.0.dist-info",
        "Metadata-Version: 2.1\nName: alpha\nVersion: 1.0\n"
        "Requires-Dist: Beta.Pkg>=2\n"
        'Requires-Dist: gamma; extra == "dev"\n'
        'Requires-Dist: delta; python_version < "3.0"\n',
        ["alpha/__init__.py", "alpha/core.py", "alpha_helper.py", "__pycache__/alpha_helper.cpython-311.pyc",
         "alpha-1.0.dist-info/METADATA", "alpha-1.0.dist-info/RECORD", "alpha.pth", "../../bin/alpha"],
    )
    # A cycle back to alpha, under a name spelled another way.
    _dist(site, "beta_pkg-2.0.dist-info", "Metadata-Version: 2.1\nName: beta-pkg\nVersion: 2.0\nRequires-Dist: ALPHA\n",
          ["beta_pkg/__init__.py", "beta_pkg-2.0.dist-info/RECORD"])
    # Required by alpha only under an extra: not linked.
    _dist(site, "gamma-1.0.dist-info", "Metadata-Version: 2.1\nName: gamma\nVersion: 1.0\n",
          ["gamma.py", "gamma-1.0.dist-info/RECORD"])
    links = second_python.link_set(["alpha"], [str(site)])
    expected = ["alpha", "alpha_helper.py", "alpha-1.0.dist-info", "beta_pkg", "beta_pkg-2.0.dist-info"]
    assert links == {top: site / top for top in expected}
    assert second_python.link_set(["missing"], [str(site)]) == {}


def test_an_interpreter_that_cannot_start_exits_2(tmp_path: Path) -> None:
    assert second_python.main([str(tmp_path / "python")]) == 2
