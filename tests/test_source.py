"""Source rules checked by parsing the package, not by running it."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gtcrystal"


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
