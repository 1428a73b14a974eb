"""``stormer list`` streams its values: every format, to stdout or to
``--out``, is byte for byte the rendering of the whole list in one piece."""

from __future__ import annotations

import hashlib
import json
from unittest import mock

import pytest
from click.testing import CliRunner

from stormerkit import cli as cli_mod
from stormerkit import stormer
from stormerkit.cli import cli
from stormerkit.stormer import Convention, enumerate_stormer

_FORMATS = ("text", "csv", "json")


def _materialized(limit: int, convention: Convention, fmt: str) -> str:
    """The output as rendered from the whole list at once."""
    values = enumerate_stormer(limit, convention)
    if fmt == "json":
        rendered = json.dumps({"limit": limit, "convention": convention.value, "values": values}, sort_keys=True)
    elif fmt == "csv":
        rendered = "\n".join(["x0"] + [str(v) for v in values])
    else:
        rendered = " ".join(str(v) for v in values)
    return rendered + "\n"


def _listed(limit: int, convention: Convention, fmt: str, out=None) -> str:
    args = ["stormer", "list", "--limit", str(limit), "--convention", convention.value, "--format", fmt]
    result = CliRunner().invoke(cli, args + (["--out", str(out)] if out else []))
    assert result.exit_code == 0, result.output
    if out is None:
        return result.stdout
    assert result.stdout == ""
    return out.read_text()


@pytest.mark.parametrize("fmt", _FORMATS)
def test_list_streams_the_materialized_bytes_to_stdout(fmt: str) -> None:
    for limit in range(301):
        assert _listed(limit, Convention.INCLUSIVE, fmt) == _materialized(limit, Convention.INCLUSIVE, fmt), limit
    for limit in (-3, 0, 1, 2, 300):
        assert _listed(limit, Convention.STRICT, fmt) == _materialized(limit, Convention.STRICT, fmt), limit


@pytest.mark.parametrize("fmt", _FORMATS)
def test_list_streams_the_materialized_bytes_to_a_file(fmt: str, tmp_path) -> None:
    out = tmp_path / f"list.{fmt}"
    for limit in range(301):
        assert _listed(limit, Convention.INCLUSIVE, fmt, out) == _materialized(limit, Convention.INCLUSIVE, fmt)
    assert _listed(300, Convention.STRICT, fmt, out) == _materialized(300, Convention.STRICT, fmt)


@pytest.mark.parametrize("size, chunk", [(7, 1), (7, 2), (64, 3), (64, 4096)])
@pytest.mark.parametrize("fmt", _FORMATS)
def test_list_streams_the_materialized_bytes_across_blocks_and_chunks(
    size: int, chunk: int, fmt: str, tmp_path
) -> None:
    limits = [1, size - 1, size, size + 1, 2 * size + 1, 3 * size, 3 * size + size // 2]
    with mock.patch.object(stormer, "_BLOCK", size), mock.patch.object(cli_mod, "_CHUNK", chunk):
        for limit in limits:
            expected = _materialized(limit, Convention.INCLUSIVE, fmt)
            assert _listed(limit, Convention.INCLUSIVE, fmt) == expected, limit
            assert _listed(limit, Convention.INCLUSIVE, fmt, tmp_path / "list") == expected, limit


# sha256 of `stormer list --limit 1000000 --format <fmt>` on stdout, written
# when the list was still rendered from one materialized list.
_MILLION_SHA256 = {
    "text": "064e5e48e7824651990caefba9798062832982ac80a12e962a906355c98079f7",
    "csv": "15fa1139830bac3a5618e7dda6601c21b33f891666ced66d871a337259277662",
    "json": "8ac008d836aae3924aabe58eaa011fbfd57e674d06b3ea6af093652f70258e89",
}


@pytest.mark.parametrize("fmt", _FORMATS)
def test_list_to_a_million_is_unchanged(fmt: str) -> None:
    result = CliRunner().invoke(cli, ["stormer", "list", "--limit", "1000000", "--format", fmt])
    assert result.exit_code == 0
    assert hashlib.sha256(result.stdout_bytes).hexdigest() == _MILLION_SHA256[fmt]


@pytest.mark.parametrize("fmt", _FORMATS)
def test_list_past_64_bits_to_a_file_writes_only_the_error_line(fmt: str, tmp_path) -> None:
    out = tmp_path / "never"
    result = CliRunner().invoke(cli, ["stormer", "list", "--limit", str(2**32), "--format", fmt, "--out", str(out)])
    assert result.exit_code == 3
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), result.stderr
    assert not out.exists()
