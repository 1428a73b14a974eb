"""Each exact decision has one owner: the reading of an angle sum as a
vector over the Stormer basis lives in ``gregory``, which multiplies the
Gaussian product out only for the certificate ``gregory verify`` prints; the
check that p is a prime == 1 (mod 4) lives in ``arith``, and so do the one
route from a root of -1 to the Gaussian prime over p, ``arith._prime_over``,
and the one division of big values that pi's digits pass through,
``arith._divmod``.  ``decompose`` returns its canonical memo entry without
re-checking it, and A(p) is built from the factors of (S(p)**2 + 1)/p.  The
x**2 + 1 sieve holds one block of x at a time, and the CLI writes its output
in one function."""

from __future__ import annotations

import ast
from pathlib import Path

import stormerkit

_SOURCES = sorted(Path(stormerkit.__file__).parent.glob("*.py"))

# The quarter-turn count, the vector of one term and the one reader of sums.
_GREGORY_ONLY = {"_turns", "_vector", "_combo_vector"}


def _names(tree: ast.AST) -> set[str]:
    """Every identifier a tree names, read or imported."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
    return found


def _function(path: Path, name: str) -> ast.FunctionDef:
    tree = ast.parse(path.read_text(), filename=str(path))
    return next(node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name == name)


def test_quarter_turns_are_read_only_in_gregory() -> None:
    assert {path.name for path in _SOURCES} >= {"gregory.py", "pidigits.py", "cli.py"}
    found = {
        path.name: sorted(_names(ast.parse(path.read_text(), filename=str(path))) & _GREGORY_ONLY)
        for path in _SOURCES
        if path.name != "gregory.py"
    }
    assert {name: used for name, used in found.items() if used} == {}


def test_angle_sums_have_one_exact_reader() -> None:
    # Verify and the pi formula check compare Stormer-basis vectors, decompose
    # builds its vector the same way, and only the certificate multiplies the
    # Gaussian product out; gregory_verify, the CLI body, prints its powers.
    gregory_py = Path(stormerkit.__file__).parent / "gregory.py"
    assert "_combo_vector" in _names(_function(gregory_py, "verify_identity"))
    assert "_combo_vector" in _names(_function(gregory_py, "_formula_multiple"))
    assert "_vector" in _names(_function(gregory_py, "decompose"))
    assert _functions_naming("_powers") == {"identity_certificate", "gregory_verify"}
    for path in _SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        assert not _names(tree) & {"_verdict", "_combo_turns", "_t1_multiple"}, path.name


def test_stormer_of_prime_leaves_its_checks_to_arith() -> None:
    func = _function(Path(stormerkit.__file__).parent / "stormer.py", "stormer_of_prime")
    assert "sqrt_minus_one_mod_p" in _names(func)
    assert "is_prime" not in _names(func)
    assert not any(isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod) for node in ast.walk(func))


def _functions_naming(name: str) -> set[str]:
    """The functions under src/ whose bodies name ``name``, other than its
    own definition."""
    return {
        node.name
        for path in _SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.FunctionDef) and node.name != name and name in _names(node)
    }


def test_gaussian_prime_over_p_has_one_route() -> None:
    # arith._prime_over alone finds the Gaussian prime over p; gaussian_gcd
    # stays public, but nothing in the package calls it.
    assert _functions_naming("gaussian_gcd") == set()
    assert _functions_naming("_prime_over") == {"gaussian_factorize", "_prime_entry", "two_squares"}


def test_pi_divides_only_through_arith_divmod() -> None:
    defined = [
        path.name
        for path in _SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.FunctionDef) and node.name == "_divmod"
    ]
    assert defined == ["arith.py"]
    pidigits = Path(stormerkit.__file__).parent / "pidigits.py"
    arctan = _function(pidigits, "_arctan")
    assert not any(isinstance(node, ast.BinOp) and isinstance(node.op, ast.FloorDiv) for node in ast.walk(arctan))
    decimal = _function(pidigits, "_decimal_digits")
    assert not any(
        isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "divmod"
        for node in ast.walk(decimal)
    )


def test_decompose_returns_through_the_private_constructor() -> None:
    # The vector is canonical already: decompose neither re-checks it in
    # GregoryCombo() nor builds a fresh ArcTerm per term.  The one ArcTerm it
    # builds is a Stormer n's own t_n; every other term is a shared basis term.
    func = _function(Path(stormerkit.__file__).parent / "gregory.py", "decompose")
    calls = [node for node in ast.walk(func) if isinstance(node, ast.Call)]
    assert not any(isinstance(c.func, ast.Name) and c.func.id == "GregoryCombo" for c in calls)
    built = [
        c for c in calls
        if isinstance(c.func, ast.Attribute) and c.func.attr == "integer" and _names(c.func.value) == {"ArcTerm"}
    ]
    assert [[ast.unparse(arg) for arg in c.args] for c in built] == [["n"]]
    (stormer_branch,) = [node for node in ast.walk(func) if isinstance(node, ast.If) and "_threshold" in _names(node.test)]
    assert any(c is built[0] for stmt in stormer_branch.body for c in ast.walk(stmt))


def test_prime_entry_factors_the_cofactor_not_s_squared_plus_one() -> None:
    func = _function(Path(stormerkit.__file__).parent / "gregory.py", "_prime_entry")
    s_squared_plus_one = ast.dump(ast.parse("s * s + 1", mode="eval").body)
    factored = [
        ast.dump(arg)
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and "_factorize_norm" in _names(node.func)
        for arg in node.args
    ]
    assert factored and s_squared_plus_one not in factored


def test_stormer_builds_no_whole_range_table() -> None:
    # The sieve is read a block at a time: no array is sized by the limit,
    # and the block generator holds no list of primes or StormerPairs up to it.
    stormer_py = Path(stormerkit.__file__).parent / "stormer.py"
    tree = ast.parse(stormer_py.read_text(), filename=str(stormer_py))
    functions = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert "_lpf_blocks" in functions and "_largest_prime_factors" not in functions
    arrays = [node for node in ast.walk(tree) if isinstance(node, ast.Call) and "array" in _names(node.func)]
    assert arrays and not any("limit" in _names(arg) for node in arrays for arg in node.args)
    blocks = _function(stormer_py, "_lpf_blocks")
    assert not _names(blocks) & {"prime_stormer_table", "StormerPair", "sieve_primes", "_pair"}


def _output_writers(tree: ast.AST) -> list[str]:
    """The name of the innermost function around each call that writes
    output: ``open``, ``.write``, ``print`` and ``echo`` without ``err=True``."""
    found = []

    def visit(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and _names(child.func) & {"open", "write", "print", "echo", "secho"}:
                to_stderr = any(
                    k.arg == "err" and isinstance(k.value, ast.Constant) and k.value.value for k in child.keywords
                )
                if not to_stderr:
                    found.append(owner)
            visit(child, owner)

    visit(tree, "<module>")
    return found


def test_cli_writes_output_in_one_place() -> None:
    cli_py = Path(stormerkit.__file__).parent / "cli.py"
    writers = _output_writers(ast.parse(cli_py.read_text(), filename=str(cli_py)))
    assert writers and set(writers) == {"_write"}
