"""Every exception class the package defines is caught by type somewhere in it.

A class that no ``except`` clause names tells a caller nothing its base class
does not, so it is one more name to keep for no behaviour.
"""

import ast
import builtins
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "energy_ood"
# formats the byte-offset suffix of every container fault; callers catch it
# as the ValueError it is
UNCAUGHT_BY_DESIGN = {"TensorFormatError"}


def _trees():
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
    assert {"UsageError", "SgldDivergenceError", "NotPositiveDefiniteError"} <= defined
    assert defined - _caught_names(trees) == UNCAUGHT_BY_DESIGN
