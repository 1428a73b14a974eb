"""Each exact decision has one owner: the reading of an angle sum as a
vector, over a coprime base for a verdict and over the Stormer basis for
``decompose``, lives in ``gregory``, which multiplies the Gaussian product
out only for the certificate ``gregory verify`` prints; a verdict factors
nothing and reads no A(p) table; the
check that p is a prime == 1 (mod 4) lives in ``arith``, and so do the one
route from a root of -1 to the Gaussian prime over p, ``arith._prime_over``,
and the one division of big values that pi's digits pass through,
``arith._divmod``.  A(p) is built from the factors of (S(p)**2 + 1)/p by a
cached pure function, which assigns no module name.  The
x**2 + 1 sieve holds one block of x at a time and carries every prime
== 1 (mod 4) by one path, the per-block buckets, and the CLI writes its
output in one function.  Values are built by their constructors, not
through slot setters."""

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
    # Verify and the pi formula check compare vectors over a coprime base,
    # decompose builds its vector with the same reader over the Stormer
    # basis, and only the certificate multiplies the Gaussian product out;
    # gregory_verify, the CLI body, prints its powers.
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
    # arith._prime_over alone finds the Gaussian prime over p, and the
    # Gaussian integer over a piece of a verdict's coprime base (_piece);
    # gaussian_gcd stays public, but nothing in the package calls it.
    assert _functions_naming("gaussian_gcd") == set()
    assert _functions_naming("_prime_over") == {"gaussian_factorize", "_prime_entry", "two_squares", "_piece"}


def test_verdicts_name_no_factoring_and_no_table() -> None:
    # A verdict reads gcds and modular inverses only: the factoring stack,
    # and the A(p) entries serve decompose alone.
    gregory_py = Path(stormerkit.__file__).parent / "gregory.py"
    engine = {"_factorize_norm", "_trial_factorize", "factorize", "is_prime", "_prime_entry"}
    for name in ("verify_identity", "_formula_multiple", "_combo_vector", "_refine", "_piece"):
        assert not _names(_function(gregory_py, name)) & engine, name
    assert "_prime_entry" in _names(_function(gregory_py, "decompose"))


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
    # GregoryCombo() nor builds an ArcTerm at all.  A Stormer n's result is
    # the one triple (n, 1, 1); every other result is its vector's triples.
    func = _function(Path(stormerkit.__file__).parent / "gregory.py", "decompose")
    calls = [node for node in ast.walk(func) if isinstance(node, ast.Call)]
    assert not any(isinstance(c.func, ast.Name) and c.func.id == "GregoryCombo" for c in calls)
    assert "ArcTerm" not in _names(func)
    built = [c for c in calls if isinstance(c.func, ast.Attribute) and c.func.attr == "_canonical"]
    assert len(built) == 2 and all(_names(c.func.value) == {"GregoryCombo"} for c in built)
    (stormer_branch,) = [node for node in ast.walk(func) if isinstance(node, ast.If) and "_threshold" in _names(node.test)]
    (stormer_call,) = [c for stmt in stormer_branch.body for c in ast.walk(stmt) if c in built]
    assert [ast.unparse(arg) for arg in stormer_call.args] == ["(n, 1, 1)"]


def test_values_are_built_by_their_constructors() -> None:
    # No module writes a slot through its __set__ or allocates a value with
    # object.__new__, past the checks of a dataclass's __init__.  The one
    # __new__ call left is GregoryCombo._canonical's, which takes an
    # already canonical tuple as it is.
    setters, allocations = [], []
    for path in _SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr == "__set__":
                setters.append(f"{path.name}: {ast.unparse(node)}")
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "__new__":
                allocations.append(f"{path.name}: {ast.unparse(node)}")
    assert setters == []
    assert allocations == ["gregory.py: cls.__new__(cls)"]
    assert "__new__" in _names(_function(Path(stormerkit.__file__).parent / "gregory.py", "_canonical"))


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


def test_the_a_p_table_is_a_cache_of_a_pure_function() -> None:
    # _prime_entry is cached and stores into no module name: no global
    # statement, and no item or attribute assignment but to its own locals.
    gregory_py = Path(stormerkit.__file__).parent / "gregory.py"
    func = _function(gregory_py, "_prime_entry")
    assert [ast.unparse(node) for node in func.decorator_list] == ["cache"]
    local = {node.id for node in ast.walk(func) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
    local |= {arg.arg for arg in func.args.args}
    stored = [
        node.value.id
        for node in ast.walk(func)
        if isinstance(node, (ast.Subscript, ast.Attribute)) and isinstance(node.ctx, ast.Store)
        and isinstance(node.value, ast.Name)
    ]
    assert not any(isinstance(node, (ast.Global, ast.Nonlocal)) for node in ast.walk(func))
    assert set(stored) <= local
    gone = {"_prime_memo", "_basis_terms", "_basis_term", "_memo_lock", "threading"}
    assert not _names(ast.parse(gregory_py.read_text())) & gone


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


def test_the_sieve_carries_every_prime_by_one_path() -> None:
    # No prime keeps its roots in arrays of its own: the sieve builds only its
    # block and its buckets, and one loop divides a prime out of an entry.
    stormer_py = Path(stormerkit.__file__).parent / "stormer.py"
    blocks = _function(stormer_py, "_lpf_blocks")
    arrays = [node for node in ast.walk(blocks) if isinstance(node, ast.Call) and "array" in _names(node.func)]
    built = sorted(
        ast.unparse(node.targets[0])
        for node in ast.walk(blocks)
        if isinstance(node, ast.Assign)
        for call in ast.walk(node.value)
        if call in arrays
    )
    assert len(arrays) == 2 and built == ["buckets", "t"]
    dividing = [
        node
        for node in ast.walk(blocks)
        if isinstance(node, (ast.For, ast.While))
        and any(isinstance(child, ast.AugAssign) and isinstance(child.op, ast.FloorDiv) for child in node.body)
    ]
    assert len(dividing) == 1


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
