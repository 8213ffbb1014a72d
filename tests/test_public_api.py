"""Every public top-level function and class of the package has a caller
outside the tests, and every defaulted parameter of one is set by such a
caller: a name or a knob that only tests use is code to delete."""

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


def _caller_trees():
    for folder in CALLER_DIRS:
        for path in sorted(folder.rglob("*.py")):
            yield ast.parse(path.read_text(encoding="utf-8"))


def _referenced_names():
    """Every identifier the caller directories use: names, attributes and
    imported names. A definition's own name is not among them."""
    names = set()
    for tree in _caller_trees():
        for node in ast.walk(tree):
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


def _public_functions():
    """(label, node, bound) of every public top-level function and every
    public method of a public class; bound is 1 for a method, whose self
    or cls a call does not pass."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                yield node.name, node, 0
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item, 1


def _passed_parameters():
    """name -> (most positional arguments, keywords) over every call to
    that name, by Name or Attribute, in the caller directories. A call
    with *args or **kwargs counts as passing every positional parameter."""
    passed = {}
    for tree in _caller_trees():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute) else None)
            if name is None:
                continue
            most, keywords = passed.get(name, (0, set()))
            unpacked = (any(isinstance(arg, ast.Starred) for arg in node.args)
                        or any(kw.arg is None for kw in node.keywords))
            most = max(most, float("inf") if unpacked else len(node.args))
            passed[name] = (most, keywords | {kw.arg for kw in node.keywords})
    return passed


def test_every_defaulted_parameter_is_set_by_a_caller_outside_the_tests():
    # a parameter is set when some call passes it by keyword, or passes
    # enough positional arguments to reach it
    passed = _passed_parameters()
    checked, unset = 0, []
    for label, func, bound in _public_functions():
        most, keywords = passed.get(func.name, (0, set()))
        args = func.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        for i, arg in enumerate(positional[first:], first):
            checked += 1
            if i - bound >= most and arg.arg not in keywords:
                unset.append(f"{label}({arg.arg})")
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            checked += default is not None
            if default is not None and arg.arg not in keywords:
                unset.append(f"{label}({arg.arg})")
    assert checked > 10
    assert unset == []
