"""Every exception class the package defines is caught by type somewhere in it,
and belongs to the family of one exit code.

A class that no ``except`` clause names tells a caller nothing its base class
does not, so it is one more name to keep for no behaviour. ``cli.main`` exits
1 for ``ComputationError`` and 2 for a ValueError; a class of neither family
would end as a traceback, and one of both would take whichever exit code's
handler came first.
"""

import ast
import builtins
import importlib
from pathlib import Path

from energy_ood import cli
from energy_ood.featurestore import ComputationError

SRC = Path(__file__).resolve().parent.parent / "src" / "energy_ood"
# formats the byte-offset suffix of every container fault; callers catch it
# as the ValueError it is
UNCAUGHT_BY_DESIGN = {"TensorFormatError"}


def _trees():
    """The parsed source files, in sorted path order."""
    return [ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))]


def _exception_classes(trees) -> set:
    """Names of the classes defined in ``trees`` that derive from an exception."""
    known = {name for name, obj in vars(builtins).items()
             if isinstance(obj, type) and issubclass(obj, BaseException)}
    classes = [node for tree in trees for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)]
    found = set()
    while True:  # a subclass of a class found here is an exception too
        grown = {c.name for c in classes if any(
            isinstance(b, ast.Name) and b.id in known | found for b in c.bases)}
        if grown == found:
            return found
        found = grown


def _caught_names(trees) -> set:
    """Every class name an ``except`` clause in ``trees`` names, alone or in a tuple."""
    names = set()
    for tree in trees:
        for handler in ast.walk(tree):
            if isinstance(handler, ast.ExceptHandler) and handler.type is not None:
                for node in ast.walk(handler.type):
                    if isinstance(node, ast.Name):
                        names.add(node.id)
                    elif isinstance(node, ast.Attribute):
                        names.add(node.attr)
    return names


def test_every_exception_class_is_caught_by_type():
    trees = _trees()
    defined = _exception_classes(trees)
    assert UNCAUGHT_BY_DESIGN <= defined
    assert {"ComputationError", "TensorFormatError"} <= defined
    assert defined - _caught_names(trees) == UNCAUGHT_BY_DESIGN


def test_every_exception_class_has_one_exit_code():
    paths = sorted(SRC.glob("*.py"))
    trees = _trees()
    defined = _exception_classes(trees)
    for path, tree in zip(paths, trees):
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name in defined:
                # a class defined in a function has no module attribute and fails here
                cls = getattr(importlib.import_module(f"energy_ood.{path.stem}"), node.name)
                assert cls is ComputationError or issubclass(cls, ValueError), node.name
    assert not issubclass(ComputationError, ValueError)


def _main_handlers() -> dict:
    """Exit code -> the classes each ``except`` clause of ``cli.main`` names."""
    tree = ast.parse(Path(cli.__file__).read_text())
    main = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    handlers = {}
    for handler in ast.walk(main):
        if isinstance(handler, ast.ExceptHandler):
            code = next(node.value.value for node in ast.walk(handler)
                        if isinstance(node, ast.Return))
            names = [node.id for node in ast.walk(handler.type) if isinstance(node, ast.Name)]
            handlers.setdefault(code, []).extend(
                getattr(cli, n, None) or getattr(builtins, n) for n in names)
    return handlers


def test_main_maps_each_family_to_one_exit_code():
    handlers = _main_handlers()
    assert set(handlers) == {1, 2}
    assert ComputationError in handlers[1] and ValueError in handlers[2]
    assert not any(issubclass(cls, ValueError) for cls in handlers[1])
    # no class one clause catches is caught by another's, so their order is free
    for code, caught in handlers.items():
        others = tuple(c for other, classes in handlers.items() if other != code
                       for c in classes)
        assert not any(issubclass(cls, others) for cls in caught), code
