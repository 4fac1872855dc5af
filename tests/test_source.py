"""Source rules checked by parsing the package, not by running it."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gtcrystal"


def package_trees():
    """The package modules' syntax trees, by file name."""
    return {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}


def definition(tree, name):
    """The module-level function ``name`` of ``tree``, or its method ``Class.method`` of a module-level class."""
    node = tree
    for part in name.split("."):
        node = next(sub for sub in node.body if isinstance(sub, (ast.FunctionDef, ast.ClassDef)) and sub.name == part)
    return node


def optimized_away(trees):
    """The package modules, by file name, with an assert statement or a ``__debug__`` read."""
    return {
        name
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert) or "__debug__" in (getattr(node, "id", None), getattr(node, "attr", None))
    }


def test_package_has_no_assert_statements():
    # ``python -O`` strips assert statements and sets ``__debug__`` to False,
    # so an internal invariant written with either stops being checked; the
    # package raises exceptions instead.  With neither in the source, every
    # check runs the same under -O as its in-process test sees it, and
    # test_cli's test_exit_codes_hold_under_optimize runs the CLI once under -O.
    trees = package_trees()
    assert len(trees) >= 7 and optimized_away(trees) == set()
    # The rule sees a __debug__ read slipped into gtpattern.py.
    datum = definition(trees["gtpattern.py"], "string_datum")
    datum.body.insert(0, ast.parse("if __debug__:\n    pass").body[0])
    assert optimized_away(trees) == {"gtpattern.py"}


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


def private_reads(trees):
    """Each ``_``-prefixed name that a package module imports from, or reads off, another package module."""
    found = []
    for name, tree in trees.items():
        # Local names of package modules: ``m`` or ``x`` bound by ``from . import m [as x]`` or
        # ``import gtcrystal.m as x``, and the dotted ``gtcrystal.m`` bound by ``import gtcrystal.m``.
        modules = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("gtcrystal")):
                if node.module in (None, "gtcrystal"):
                    modules.update(alias.asname or alias.name for alias in node.names)
                found += [f"{name}:{node.lineno} {a.name}" for a in node.names if a.name.startswith("_")]
            if isinstance(node, ast.Import):
                modules.update(alias.asname or alias.name for alias in node.names if alias.name.startswith("gtcrystal"))
        found += [
            f"{name}:{node.lineno} {ast.unparse(node)}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr.startswith("_") and ast.unparse(node.value) in modules
        ]
    return found


def test_no_module_reads_another_modules_private_names():
    # A ``_``-prefixed name is private to its module: no other package module
    # imports it or reads it as an attribute of the module.  So the private
    # walks (``ssyt._semistandard``, ``gtpattern._interleaving``) run only
    # behind their module's public validator.
    trees = package_trees()
    assert private_reads(trees) == []
    # The rule sees a private import slipped into bijection.py, and a read through ``import gtcrystal.m as x``.
    mapper = definition(trees["bijection.py"], "pattern_to_tableau").body
    mapper[0:0] = ast.parse("from .ssyt import _semistandard").body
    assert private_reads(trees) == ["bijection.py:1 _semistandard"]
    mapper[0:0] = ast.parse("import gtcrystal.ssyt as s\ns._semistandard(n, shape, grid)").body
    assert private_reads(trees) == ["bijection.py:1 _semistandard", "bijection.py:2 s._semistandard"]


def check_functions(tree):
    """The module-level functions of ``tree`` that return a ``Report`` (or a tuple of them), by name."""
    return {
        node.name: node
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.returns is not None and "Report" in ast.unparse(node.returns)
    }


def test_every_reported_rule_is_named_by_a_test():
    # Each rule that a verify_* check can report appears as a string in some
    # other test file, so a test pins at least one witness of it.  A rule is
    # the first argument of ``.add``: a literal, or a loop variable bound
    # from a tuple of (literal, ...) rows.
    checks = check_functions(ast.parse((PACKAGE / "crystal.py").read_text(encoding="utf-8")))
    rules = set()
    for node in (sub for check in checks.values() for sub in ast.walk(check)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "add":
            first = node.args[0]
            assert isinstance(first, (ast.Constant, ast.Name)), ast.dump(first)
            if isinstance(first, ast.Constant):
                rules.add(first.value)
        if isinstance(node, ast.For) and isinstance(node.iter, ast.Tuple):
            rules.update(row.elts[0].value for row in node.iter.elts)
    assert all(name.startswith("verify_") for name in checks) and len(checks) == 6 and len(rules) == 19
    named = {
        node.value
        for path in sorted(ROOT.glob("tests/*.py"))
        if path.name != Path(__file__).name
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }
    assert sorted(rules - named) == []


def record_checks(tree):
    """(check names, what is computed inline) in ``verify_shape`` of ``tree``.

    A check name is a key of the ``checks`` dict or a subscript of ``checks``
    assigned to.  Computed inline are each ``Report`` built, each ``.add``
    called and each value put in ``checks`` that is not the result of a call
    to a module-level ``verify_*`` check function.
    """
    checks = {name for name in check_functions(tree) if name.startswith("verify_")}
    names, found = [], []
    for node in ast.walk(definition(tree, "verify_shape")):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Report":
            found.append("Report()")
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "add":
            found.append(".add")
        for target in node.targets if isinstance(node, ast.Assign) else ():
            if isinstance(target, ast.Name) and target.id == "checks":
                dict_literal = isinstance(node.value, ast.Dict)
                keys, values = (node.value.keys, node.value.values) if dict_literal else ([], [node.value])
            else:
                subscripts = target.elts if isinstance(target, ast.Tuple) else [target]
                keys = [t.slice for t in subscripts if isinstance(t, ast.Subscript) and ast.unparse(t.value) == "checks"]
                values = [node.value] if keys else []
            names += [key.value for key in keys]
            found += [
                ast.unparse(value)
                for value in values
                if not (isinstance(value, ast.Call) and getattr(value.func, "id", None) in checks)
            ]
    return names, found


def test_verify_shape_computes_no_check_itself():
    # verify_shape enumerates, evaluates and assembles the record; each of
    # its eight checks is the Report that a module-level verify_* function
    # returns, so each check has one home, which takes what it reads.
    tree = ast.parse((PACKAGE / "crystal.py").read_text(encoding="utf-8"))
    names, found = record_checks(tree)
    assert len(names) == len(set(names)) == 8 and found == []
    # The rule sees a check built inline and put in the record as a local.
    extra = 'extra = Report()\nextra.add("extra", (), None, 0, 1)\nchecks["extra"] = extra'
    definition(tree, "verify_shape").body[-1:-1] = ast.parse(extra).body
    names_now, found = record_checks(tree)
    assert names_now == names + ["extra"] and sorted(found) == [".add", "Report()", "extra"]


# A model's crystal data, read as attributes of the model.
MODEL_DATA = {"weight", "phi", "epsilon", "lower", "raise_"}
# The crystal.py definitions allowed to read them; every check reads an evaluation.
MODEL_READERS = {"evaluate", "highest_weight_elements"}


def model_data_readers(tree):
    """The module-level definitions of ``tree`` that read a model datum."""
    return {
        getattr(node, "name", None)
        for node in tree.body
        for sub in ast.walk(node)
        if isinstance(sub, ast.Attribute) and sub.attr in MODEL_DATA
    }


def test_only_the_evaluation_reads_model_data_in_the_checks():
    # In crystal.py a model's data are read only by evaluate and
    # highest_weight_elements, so no check reads the model a second time
    # outside its evaluation, and no definition there walks a model's
    # lowering operator beside the evaluation.
    tree = ast.parse((PACKAGE / "crystal.py").read_text(encoding="utf-8"))
    readers = model_data_readers(tree)
    assert "evaluate" in readers and readers <= MODEL_READERS
    # The rule sees a read slipped into a check.
    check = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "verify_axioms")
    check.body.insert(0, ast.parse("model.phi(b, 1)").body[0])
    assert model_data_readers(tree) - MODEL_READERS == {"verify_axioms"}
    # And a second lowering walk slipped into connectivity.
    count = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "connectivity")
    walk = "[evaluation.model.lower(b, i) for b in evaluation.elements for i in evaluation.model.labels]"
    count.body.insert(0, ast.parse(walk).body[0])
    assert model_data_readers(tree) - MODEL_READERS == {"verify_axioms", "connectivity"}


def distinctness_checkers(tree):
    """The module-level definitions of ``tree`` that raise "elements are not distinct"."""
    return {
        getattr(node, "name", None)
        for node in tree.body
        for sub in ast.walk(node)
        if isinstance(sub, ast.Raise)
        and any(isinstance(c, ast.Constant) and c.value == "elements are not distinct" for c in ast.walk(sub))
    }


def test_distinctness_is_checked_where_the_elements_come_in():
    # In crystal.py only evaluate rejects a repeat; every check reads an
    # evaluation, whose elements evaluate has already found distinct.
    tree = ast.parse((PACKAGE / "crystal.py").read_text(encoding="utf-8"))
    assert distinctness_checkers(tree) == {"evaluate"}
    # The rule sees the check slipped into verify_axioms.
    check = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "verify_axioms")
    check.body.insert(0, ast.parse('raise ValueError("elements are not distinct")').body[0])
    assert distinctness_checkers(tree) == {"evaluate", "verify_axioms"}


def callers(tree, names):
    """The module-level definitions of ``tree`` that call a function named in ``names``, bare or as an attribute."""
    return {
        getattr(node, "name", None)
        for node in tree.body
        for sub in ast.walk(node)
        if isinstance(sub, ast.Call) and (getattr(sub.func, "id", None) or getattr(sub.func, "attr", None)) in names
    }


def test_no_check_maps_or_evaluates_a_value():
    # In crystal.py only verify_shape runs the bijection, and no check
    # evaluates a model: every check reads the two crystals by slot, and a
    # value outside them stays a witness, passed to neither.
    tree = ast.parse((PACKAGE / "crystal.py").read_text(encoding="utf-8"))
    maps = {"pattern_to_tableau", "tableau_to_pattern"}
    checks = check_functions(tree).keys()
    assert callers(tree, maps) == {"verify_shape"} and callers(tree, {"evaluate"}) & checks == set()
    # The rule sees both calls slipped into verify_round_trip.
    slipped = "evaluate(tableau_model(1), [bijection.pattern_to_tableau(patterns[0])])"
    definition(tree, "verify_round_trip").body.insert(0, ast.parse(slipped).body[0])
    assert callers(tree, maps) == {"verify_shape", "verify_round_trip"}
    assert callers(tree, {"evaluate"}) & checks == {"verify_round_trip"}


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


def label_raisers(trees):
    """The package modules, by file name, that raise ``LabelError``."""
    return {
        name
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise)
        and node.exc is not None
        and any(getattr(sub, "id", None) == "LabelError" for sub in ast.walk(node.exc))
    }


def test_the_label_rule_has_one_home():
    # Both element types check an operator label with core.require_label, so
    # the range 1..n-1 and its two messages are written once: only core.py
    # raises LabelError, and no module keeps a label check of its own.
    trees = package_trees()
    assert label_raisers(trees) == {"core.py"}
    assert not any(getattr(node, "name", None) == "_check_label" for tree in trees.values() for node in ast.walk(tree))
    # The rule sees a raise slipped into ssyt.py.
    lower = definition(trees["ssyt.py"], "lower_ssyt")
    lower.body.insert(0, ast.parse('raise LabelError(f"label {i} out of range")').body[0])
    assert label_raisers(trees) == {"core.py", "ssyt.py"}


def pattern_reads(function):
    """(entry() reads, GTPattern builds outside the last statement) in ``function``."""
    last = set(ast.walk(function.body[-1]))
    reads = builds = 0
    for node in ast.walk(function):
        if isinstance(node, ast.Attribute) and node.attr == "entry":
            reads += 1
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "GTPattern" and node not in last:
            builds += 1
    return reads, builds


def test_validate_pattern_reads_rows_and_builds_the_pattern_last():
    # validate_pattern scans the row tuples, not a half-built pattern through
    # its bounds-checked entry(), and builds the GTPattern only in its last
    # statement, once every check has passed.
    validator = definition(ast.parse((PACKAGE / "gtpattern.py").read_text(encoding="utf-8")), "validate_pattern")
    assert pattern_reads(validator) == (0, 0)
    # The rule sees an early build and an entry read slipped in.
    validator.body[-1:-1] = ast.parse("pattern = GTPattern(n, rows)\npattern.entry(1, 1)").body
    assert pattern_reads(validator) == (1, 1)


# In gtpattern.py: the literal forms the identity checks read, and the kernel of the operators.
LITERAL_FORMS = {"_a", "_b", "diamond_a", "diamond_b", "sum_a", "sum_b", "weight_expressions"}
KERNEL = {"_scan", "phi_gtp", "epsilon_gtp", "lower_gtp", "raise_gtp"}


def crossings(tree):
    """(caller, callee) pairs of ``tree`` where a literal form names the kernel, or the kernel a literal form."""
    found = set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name in LITERAL_FORMS | KERNEL:
            other = KERNEL if node.name in LITERAL_FORMS else LITERAL_FORMS
            found |= {(node.name, sub.id) for sub in ast.walk(node) if isinstance(sub, ast.Name) and sub.id in other}
    return found


def test_the_literal_forms_and_the_kernel_share_no_code():
    # verify compares the operators' kernel with the paper's literal diamond
    # sums, so neither may reach the other: a defect on one side then cannot
    # show up on both and cancel.  They may share the label check and the
    # weight, which neither of them checks.
    tree = ast.parse((PACKAGE / "gtpattern.py").read_text(encoding="utf-8"))
    defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert LITERAL_FORMS | KERNEL <= defined
    assert crossings(tree) == set()
    # The rule sees the kernel slipped into a literal sum, and a literal form into an operator.
    definition(tree, "sum_a").body.insert(0, ast.parse("_scan(pattern, i)").body[0])
    assert crossings(tree) == {("sum_a", "_scan")}
    definition(tree, "lower_gtp").body.insert(0, ast.parse("diamond_a(pattern, i, 1)").body[0])
    assert crossings(tree) == {("sum_a", "_scan"), ("lower_gtp", "diamond_a")}


# The literal forms that verify proves once per rank on formal entries, the
# entry accessor every literal read goes through, and the row differences a
# proved rank reads in place of the letter counts, by module.
PROVED_FORMS = {
    "gtpattern.py": {
        "GTPattern.entry",
        "_a",
        "_b",
        "diamond_a",
        "diamond_b",
        "sum_a",
        "sum_b",
        "weight_gtp",
        "weight_expressions",
    },
    "bijection.py": {"letter_count_in_row"},
    "crystal.py": {"_row_differences"},
}
# The builtins and operator functions they may name: each builds or walks
# values and none tells a formal entry from an int.
PURE_BUILTINS = {"range", "reversed", "sum", "tuple", "len", "zip", "enumerate", "map", "sub", "IndexError"}


def hidden_reads(trees):
    """Each name a proved form reads beyond its arguments, its locals, the
    proved forms, ``require_label`` and ``PURE_BUILTINS``, with each default
    argument and each ``global`` or ``nonlocal`` statement in one."""
    allowed = set().union(*PROVED_FORMS.values(), PURE_BUILTINS, {"require_label"})
    found = []
    for module, names in PROVED_FORMS.items():
        for name in sorted(names):
            function = definition(trees[module], name)
            nodes = [sub for statement in function.body for sub in ast.walk(statement)]
            local = {node.arg for node in ast.walk(function) if isinstance(node, ast.arg)}
            local |= {node.id for node in nodes if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
            for node in nodes:
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in local | allowed:
                    found.append(f"{name} reads {node.id}")
                # An attribute of anything but an argument or a local, such as sum_a.calls, is state too,
                # and so is a dunder attribute of anything, such as self.__class__.
                if isinstance(node, ast.Attribute) and (
                    isinstance(node.value, ast.Name) and node.value.id not in local or node.attr.startswith("__")
                ):
                    found.append(f"{name} reads {ast.unparse(node)}")
                if isinstance(node, (ast.Global, ast.Nonlocal)):
                    found.append(f"{name} declares {', '.join(node.names)}")
            found += [f"{name} has a default" for _ in function.args.defaults + function.args.kw_defaults]
    return found


def test_the_proved_forms_read_only_their_arguments():
    # verify evaluates the literal forms once per rank on a pattern of formal
    # entries and trusts the result for every pattern of that rank.  That
    # holds only for forms that are functions of their arguments: a form that
    # counts its calls, caches, or tells a formal entry from an int by its
    # type, would do something on formal entries that it does not do on a
    # pattern.  So each reads nothing but its arguments, its locals, the other
    # proved forms, require_label and a few value-only builtins.
    trees = package_trees()
    assert hidden_reads(trees) == []
    # The rule sees a hidden call counter slipped into sum_a, through a module
    # list, a global, a function attribute and a mutable default, a type
    # test slipped into _a, a read counter slipped into entry, through a
    # global and a class attribute, and a module constant slipped into the
    # row differences.
    entry = definition(trees["gtpattern.py"], "GTPattern.entry")
    entry.body[1:1] = ast.parse("global reads\nreads += 1\nself.__class__.reads += 1").body
    sum_a = definition(trees["gtpattern.py"], "sum_a")
    sum_a.body[1:1] = ast.parse("_CALLS.append(j)\nglobal calls\ncalls += 1\nsum_a.calls += 1").body
    sum_a.args.defaults.append(ast.parse("[]").body[0].value)
    definition(trees["gtpattern.py"], "_a").body.insert(0, ast.parse("if type(p.rows[0][0]) is int:\n    pass").body[0])
    definition(trees["crystal.py"], "_row_differences").body.insert(0, ast.parse("n = FORMAL_MIN_PATTERNS").body[0])
    assert hidden_reads(trees) == [
        "GTPattern.entry declares reads",
        "GTPattern.entry reads self.__class__",
        "_a reads int",
        "_a reads type",
        "sum_a reads _CALLS.append",
        "sum_a reads _CALLS",
        "sum_a declares calls",
        "sum_a reads sum_a.calls",
        "sum_a has a default",
        "_row_differences reads FORMAL_MIN_PATTERNS",
    ]
