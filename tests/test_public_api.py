"""Every public top-level function and class of the package has a caller
outside the tests: a name that only tests use is code to delete."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tqd"
CALLER_DIRS = [ROOT / "src", ROOT / "demos", ROOT / "bench"]


def _public_definitions():
    """(module, name) of every public top-level def and class in the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                yield path.stem, node.name


def _referenced_names():
    """Every identifier the caller directories use: names, attributes and
    imported names. A definition's own name is not among them."""
    names = set()
    for folder in CALLER_DIRS:
        for path in folder.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name)
    return names


def test_every_public_definition_has_a_caller_outside_the_tests():
    referenced = _referenced_names()
    definitions = list(_public_definitions())
    assert len(definitions) > 20
    unused = [f"{module}.{name}" for module, name in definitions if name not in referenced]
    assert unused == []
