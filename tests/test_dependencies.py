"""The package runs on the standard library alone: no runtime dependencies."""

import ast
import importlib
import sys
import types
from pathlib import Path

import pytest

import cartaninv

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "cartaninv").glob("*.py"))


def imported_modules(path):
    """Top-level names of the absolute imports in one source file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_stdlib_or_cartaninv(path):
    foreign = {name for name in imported_modules(path)
               if name != "cartaninv" and name not in sys.stdlib_module_names}
    assert not foreign, f"{path.name} imports {sorted(foreign)}"


def test_sources_found():
    assert ROOT / "src" / "cartaninv" / "gflinalg.py" in SOURCES


def test_pyproject_declares_no_dependencies():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == []


def test_public_exports_are_consistent():
    exported = cartaninv.__all__
    assert exported == sorted(set(exported))
    for name in exported:
        assert hasattr(cartaninv, name), f"cartaninv.__all__ lists missing {name}"
    bound = {name for name, value in vars(cartaninv).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(exported) == bound


def _functions_using(tree, used):
    """Names of the top-level functions of ``tree`` whose bodies, nested
    functions included, read any attribute or name in ``used``."""
    out = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            for sub in ast.walk(node):
                name = (sub.attr if isinstance(sub, ast.Attribute)
                        else sub.id if isinstance(sub, ast.Name) else None)
                if name in used:
                    out.add(node.name)
    return out


def test_one_ad_kernel():
    # every ad of an element of L on S(L) goes through the one packed pass
    tree = ast.parse((ROOT / "src" / "cartaninv" / "symalg.py").read_text())
    # only the operator builder reads the table's rows, and the three
    # callers of the one pass each build the operators they apply
    assert _functions_using(tree, {"row_mod", "row_int"}) == {"_ad_operator"}
    assert _functions_using(tree, {"_ad_pass"}) == {
        "_ad_images", "_d_gamma_packed", "_invariance"}
    assert _functions_using(tree, {"_ad_operator"}) == {
        "_ad_images", "_d_gamma_packed", "_invariance"}
    # and each polynomial is packed once per call: by the image helper,
    # d_gamma, is_invariant, or checked_d_delta, whose chain's image is
    # checked packed
    assert _functions_using(tree, {"_pack_terms"}) == {
        "_ad_images", "d_gamma", "is_invariant", "checked_d_delta"}
    # the kernel reads the factors off the packed key itself; a monomial is
    # unpacked only into a polynomial that is returned: an ad image, a
    # d_gamma result, an image that passed the check, or a witness
    assert _functions_using(tree, {"_unpack"}) == {"_unpacked"}
    assert _functions_using(tree, {"_unpacked"}) == {
        "_ad_images", "d_gamma", "checked_d_delta", "_invariance"}
    # one key layout: the units of the variables and the bit-length field
    # table are each built in one place, and the operator builder, the
    # unpacker, the packer and the canonical sort all read them
    assert _functions_using(tree, {"_fields"}) == {"_ad_operator", "_unpacked"}
    assert _functions_using(tree, {"_units"}) == {
        "_pack_terms", "SymPolynomial", "_ad_operator"}
    poly, = (node for node in tree.body
             if isinstance(node, ast.ClassDef) and node.name == "SymPolynomial")
    assert _functions_using(poly, {"_units"}) == {"sorted_terms"}
    assert "_unpack_table" not in ast.dump(tree)


def test_one_owner_of_the_table():
    # the stored table holds the pairs i < j; only CartanAlgebra reads it, and
    # everything else goes through row_int or row_mod, which apply antisymmetry
    tree = ast.parse((ROOT / "src" / "cartaninv" / "algebras.py").read_text())
    assert _functions_using(tree, {"rows_int"}) == {"CartanAlgebra"}
    others = [path.name for path in SOURCES
              if path.name != "algebras.py" and "rows_int" in path.read_text()]
    assert others == []


def test_generators_grow_only_through_the_closure():
    # the generating set is the grade -1 part grown by the closure's rank
    # test: no table row is read to pick an element
    tree = ast.parse((ROOT / "src" / "cartaninv" / "algebras.py").read_text())
    alg, = (node for node in tree.body
            if isinstance(node, ast.ClassDef) and node.name == "CartanAlgebra")
    assert "lie_generators" not in _functions_using(alg, {"row_mod", "row_int"})
    assert "lie_generators" in _functions_using(alg, {"_bracket_closure"})


def test_one_truncated_pair_walk():
    # the truncation skip and the row checkpoint are written once, in _pairs:
    # _table walks it for the three closed-form tables and the closure check
    # walks it too; the only other checkpoints are the shared basis walk and
    # H's cut, once per row Hbar stored
    tree = ast.parse((ROOT / "src" / "cartaninv" / "algebras.py").read_text())
    assert _functions_using(tree, {"_pairs"}) == {"_table", "CartanAlgebra"}
    assert _functions_using(tree, {"checkpoint"}) == {"_pairs", "_alphas", "_h_from_hbar"}
    assert "_room" not in ast.dump(tree)


def _stores_pair_rows(node):
    """Whether ``node`` assigns to a subscript keyed by the pair ``i, j``."""
    return any(isinstance(sub, ast.Subscript) and isinstance(sub.ctx, ast.Store)
               and isinstance(sub.slice, ast.Tuple)
               and [getattr(e, "id", None) for e in sub.slice.elts] == ["i", "j"]
               for sub in ast.walk(node))


def test_one_table_writer_and_one_reader():
    # only _table stores a row of a structure table, and _h_from_hbar the
    # rows of Hbar's table it keeps for H; the documents and the text table
    # read the stored rows, not every pair through row_int
    tree = ast.parse((ROOT / "src" / "cartaninv" / "algebras.py").read_text())
    writers = {node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and _stores_pair_rows(node)}
    assert writers == {"_table", "_h_from_hbar"}
    for module, reader in (("serialize", "sc_document"), ("cli", "_cmd_bracket_table")):
        code = _function(ast.parse(
            (ROOT / "src" / "cartaninv" / f"{module}.py").read_text()), reader)
        assert _functions_using(ast.Module([code], []), {"row_int"}) == set()
        assert _functions_using(ast.Module([code], []), {"stored_rows"}) == {reader}


def _function(tree, name):
    node, = (node for node in tree.body
             if isinstance(node, ast.FunctionDef) and node.name == name)
    return node


def test_each_table_fact_is_established_once():
    # H is built only as Hbar's subalgebra, unverified, and Hbar's check
    # covers its brackets
    tree = ast.parse((ROOT / "src" / "cartaninv" / "algebras.py").read_text())
    assert _functions_using(tree, {"_h_from_hbar"}) == {"build_hbar"}
    assert "verify" not in [arg.arg for arg in _function(tree, "_h_from_hbar").args.args]
    assert "build_h" in _functions_using(tree, {"build_hbar"})
    # S_n at n >= 3 chooses its basis and decomposes its brackets on one solver
    solvers = [node for node in ast.walk(_function(tree, "build_s"))
               if isinstance(node, ast.Call)
               and getattr(node.func, "id", None) == "SpanSolver"]
    assert len(solvers) == 1
    # the restriction at u = 0 builds its polynomial over H directly
    tree = ast.parse((ROOT / "src" / "cartaninv" / "pipeline.py").read_text())
    assert "restrict_u_zero" not in _functions_using(tree, {"with_algebra"})


def test_sources_parse_at_the_declared_python_floor():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    spec = project["requires-python"]
    floor = tuple(int(x) for x in spec.removeprefix(">=").split("."))
    for path in SOURCES:
        ast.parse(path.read_text(), filename=str(path), feature_version=floor)
    # the parse is gated: syntax newer than the floor is refused
    if floor < (3, 11):
        with pytest.raises(SyntaxError):
            ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n",
                      feature_version=floor)


def test_console_script_target_runs(capsys):
    # the [project.scripts] entry names a callable that takes argv
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    module, _, name = project["scripts"]["cartaninv"].partition(":")
    target = getattr(importlib.import_module(module), name)
    assert target(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: cartaninv ")


def test_closure_check_brackets_through_the_module_and_apart_from_the_rules():
    tree = ast.parse((ROOT / "src" / "cartaninv" / "algebras.py").read_text())
    # the check calls the module-global bracket, once per alive pair, where
    # the tracer counts it and a stub clock can advance
    alg, = (node for node in tree.body
            if isinstance(node, ast.ClassDef) and node.name == "CartanAlgebra")
    check, = (node for node in alg.body
              if isinstance(node, ast.FunctionDef) and node.name == "_verify_closure")
    assert any(isinstance(node, ast.Call) and getattr(node.func, "id", None) == "bracket"
               for node in ast.walk(check))
    # the kernel and its frame share no arithmetic with the closed forms they
    # check, and the closed forms never read the frame
    rules = {"mi_add", "mi_sub", "multi_binom_int", "_ham_pair_coeff"}
    kernel = {"bracket", "_Frame", "_Binomials"}
    assert kernel <= {node.name for node in tree.body
                      if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert not kernel & _functions_using(tree, rules)
    assert not {"build_w", "_build_hamiltonian"} & _functions_using(tree, {"_Frame"})


@pytest.mark.parametrize("name", ["algebras.py", "serialize.py"])
def test_no_cache_outlives_a_call(name):
    # a build's binomials and a record's text are made per call
    tree = ast.parse((ROOT / "src" / "cartaninv" / name).read_text())
    names = {node.attr if isinstance(node, ast.Attribute) else node.id
             for node in ast.walk(tree) if isinstance(node, (ast.Attribute, ast.Name))}
    names |= {alias.name for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert not names & {"lru_cache", "cache"}
