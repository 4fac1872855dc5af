"""Source rules checked by parsing the package, not by running it."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gtcrystal"


def test_package_has_no_assert_statements():
    # ``python -O`` strips assert statements, so an internal invariant written
    # as one stops being checked; the package raises exceptions instead.
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 7
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_every_public_definition_is_used():
    # A public module-level function or class must be used by package code
    # outside its own definition: the package ships no test-only reference.
    # The re-exports in __init__.py do not count as uses.
    paths = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    statements = [
        node for path in paths for node in ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body
    ]
    uses = [
        {
            sub.id if isinstance(sub, ast.Name) else sub.attr
            for sub in ast.walk(node)
            if isinstance(sub, (ast.Name, ast.Attribute))
        }
        for node in statements
    ]
    defined = [
        (k, node.name)
        for k, node in enumerate(statements)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]
    assert len(defined) > 50
    unused = {name for k, name in defined if not any(name in names for m, names in enumerate(uses) if m != k)}
    assert unused == set()


def test_every_private_definition_is_used_in_its_module():
    # A ``_``-prefixed module-level function or class is private to its
    # module, so code of that module outside its definition must use it.
    defined = 0
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        statements = ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body
        for k, node in enumerate(statements):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_"):
                defined += 1
                used = any(
                    isinstance(sub, ast.Name) and sub.id == node.name
                    for m, other in enumerate(statements)
                    if m != k
                    for sub in ast.walk(other)
                )
                if not used:
                    unused.append(f"{path.name}:{node.lineno} {node.name}")
    assert defined > 20
    assert unused == []


def test_no_package_function_calls_itself():
    # Every walk is a loop, so no input meets Python's recursion limit: no
    # function calls itself by its bare name.  A call through an attribute
    # (``e.to_dict()`` inside ``Violation.to_dict``, ``super().__init__``)
    # reaches another object's method and does not count.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                found += [
                    f"{path.name}:{node.lineno} {func.name}"
                    for node in ast.walk(func)
                    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == func.name
                ]
    assert found == []


def test_no_module_reads_another_modules_private_names():
    # A ``_``-prefixed name is private to its module: no other package module
    # imports it or reads it as an attribute of the module.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        modules = set()  # local names of package modules bound by ``from . import m``
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("gtcrystal")):
                if node.module in (None, "gtcrystal"):
                    modules.update(alias.asname or alias.name for alias in node.names)
                found += [f"{path.name}:{node.lineno} {a.name}" for a in node.names if a.name.startswith("_")]
        found += [
            f"{path.name}:{node.lineno} {node.value.id}.{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and node.attr.startswith("_")
        ]
    assert found == []


def test_every_reported_rule_is_named_by_a_test():
    # Each rule that verify_axioms or verify_isomorphism can report appears as
    # a string in some other test file, so a test pins at least one witness of
    # it.  A rule is the first argument of ``report.add``: a literal, or a
    # loop variable bound from a tuple of (literal, ...) rows.
    tree = ast.parse((PACKAGE / "crystal.py").read_text(encoding="utf-8"))
    names = ("verify_axioms", "verify_isomorphism")
    checks = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name in names]
    rules = set()
    for node in (sub for check in checks for sub in ast.walk(check)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "add":
            first = node.args[0]
            assert isinstance(first, (ast.Constant, ast.Name)), ast.dump(first)
            if isinstance(first, ast.Constant):
                rules.add(first.value)
        if isinstance(node, ast.For) and isinstance(node.iter, ast.Tuple):
            rules.update(row.elts[0].value for row in node.iter.elts)
    assert len(checks) == 2 and len(rules) == 16
    named = {
        node.value
        for path in sorted(ROOT.glob("tests/*.py"))
        if path.name != Path(__file__).name
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }
    assert sorted(rules - named) == []


# A model's crystal data, read as attributes of the model.
MODEL_DATA = {"weight", "phi", "epsilon", "lower", "raise_"}
# The crystal.py definitions allowed to read them; every check reads an evaluation.
MODEL_READERS = {"evaluate", "build_graph", "highest_weight_elements"}


def model_data_readers(tree):
    """The module-level definitions of ``tree`` that read a model datum."""
    return {
        getattr(node, "name", None)
        for node in tree.body
        for sub in ast.walk(node)
        if isinstance(sub, ast.Attribute) and sub.attr in MODEL_DATA
    }


def test_only_the_evaluation_reads_model_data_in_the_checks():
    # In crystal.py a model's data are read only by evaluate, build_graph and
    # highest_weight_elements, so no check reads the model a second time
    # outside its evaluation.
    tree = ast.parse((PACKAGE / "crystal.py").read_text(encoding="utf-8"))
    readers = model_data_readers(tree)
    assert "evaluate" in readers and readers <= MODEL_READERS
    # The rule sees a read slipped into a check.
    check = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "verify_axioms")
    check.body.insert(0, ast.parse("model.phi(b, 1)").body[0])
    assert model_data_readers(tree) - MODEL_READERS == {"verify_axioms"}


def build_graph_callers(tree):
    """The module-level definitions of ``tree`` that call ``build_graph``."""
    return {
        getattr(node, "name", None)
        for node in tree.body
        for sub in ast.walk(node)
        if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name) and sub.func.id == "build_graph"
    }


def test_verify_walks_no_model_a_second_time():
    # No definition in crystal.py calls build_graph: verify reads its lowering
    # edges from the one evaluation of each model, and build_graph's walk
    # serves only the graph command.
    tree = ast.parse((PACKAGE / "crystal.py").read_text(encoding="utf-8"))
    assert build_graph_callers(tree) == set()
    # The rule sees a walk slipped into connectivity.
    check = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "connectivity")
    check.body.insert(0, ast.parse("build_graph(evaluation.model, evaluation.elements)").body[0])
    assert build_graph_callers(tree) == {"connectivity"}


# The crystal operators of both models, which the oracles check.
OPERATORS = {f"{datum}_{model}" for datum in ("phi", "epsilon", "lower", "raise") for model in ("gtp", "ssyt")}


def checked_code_in(tree):
    """The private names and operators that ``tree`` imports from gtcrystal or reads as an attribute."""
    imported = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("gtcrystal")
        for alias in node.names
    ]
    attributes = [node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)]
    return {name for name in imported + attributes if name.startswith("_") or name in OPERATORS}


def test_the_oracles_share_no_code_they_check():
    # The reference oracles in tests/sweeps.py reach the package only through
    # its public values, so a defect in an operator or in a private helper it
    # uses (the cell write of the tableau operators) cannot reach the oracle.
    tree = ast.parse((ROOT / "tests" / "sweeps.py").read_text(encoding="utf-8"))
    assert checked_code_in(tree) == set()
    # The rule sees the shared cell write, or an operator, slipped into the oracles.
    tree.body.insert(0, ast.parse("from gtcrystal.ssyt import _with_cell_changed").body[0])
    assert checked_code_in(tree) == {"_with_cell_changed"}
    tree.body.insert(0, ast.parse("from gtcrystal import ssyt\nssyt.lower_ssyt").body[1])
    assert checked_code_in(tree) == {"_with_cell_changed", "lower_ssyt"}
