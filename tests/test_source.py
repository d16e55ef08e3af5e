"""Source-level rules for the package."""

import ast
import inspect
from pathlib import Path

import perturba

SOURCES = sorted(Path(perturba.__file__).parent.glob("*.py"))


def test_package_has_no_assert_statements():
    # python -O strips asserts, so invariants must raise explicitly
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and not found, found


def test_exports_match_the_namespace():
    # every exported name resolves, and every public name bound in the
    # package (submodules aside) is exported
    exported = set(perturba.__all__)
    assert len(exported) == len(perturba.__all__)
    assert [name for name in perturba.__all__ if not hasattr(perturba, name)] == []
    public = {
        name
        for name, value in vars(perturba).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public == exported - {"__version__"}
