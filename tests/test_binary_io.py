"""Every binary file the package reads or writes goes through one reader and
one writer per kind.

``tensorio._read_file`` reads tensor files and archives whole, and
``write_tensor`` and ``write_archive`` write them from the arrays' own
buffers; ``cli._sha256`` hashes the manifest's inputs. A second reader or
writer, with its own copies or its own handling of pipes, would fail here.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "energy_ood"
EXPECTED = [
    ("cli", "_sha256", "rb"),
    ("tensorio", "_read_file", "rb"),
    ("tensorio", "write_archive", "wb"),
    ("tensorio", "write_tensor", "wb"),
]
# calls that read or write a file's bytes without naming a mode
BYTE_CALLS = {"read_bytes", "write_bytes", "fromfile", "tofile", "memmap"}


def _mode(call: ast.Call):
    """The mode of an ``open`` call, "r" when it names none, or None for a
    mode the source does not spell out, which counts as binary."""
    node = call.args[1] if len(call.args) > 1 else next(
        (k.value for k in call.keywords if k.arg == "mode"), ast.Constant("r"))
    return node.value if isinstance(node, ast.Constant) and isinstance(node.value, str) else None


class _BinaryAccess(ast.NodeVisitor):
    def __init__(self, module: str):
        self.module, self.where, self.found = module, [], []

    def visit_FunctionDef(self, node):
        self.where.append(node.name)
        self.generic_visit(node)
        self.where.pop()

    def visit_Call(self, node):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name == "open" or name in BYTE_CALLS:
            mode = _mode(node) if name == "open" else None
            if mode is None or "b" in mode:
                self.found.append((self.module, ".".join(self.where) or "<module>", mode))
        self.generic_visit(node)


def binary_access() -> list:
    """(module, function, mode) of every call under ``SRC`` that opens, reads
    or writes a file in binary mode, in sorted order."""
    found = []
    for path in SRC.glob("*.py"):
        visitor = _BinaryAccess(path.stem)
        visitor.visit(ast.parse(path.read_text(), str(path)))
        found += visitor.found
    return sorted(found, key=str)


def test_one_binary_reader_and_one_writer_per_kind():
    assert binary_access() == EXPECTED


def test_the_guard_sees_other_binary_access():
    tree = ast.parse("def f(p):\n    open(p, 'ab')\n    p.read_bytes()\n"
                     "    open(p, mode=m)\n    open(p)\n    open(p, 'w')\n")
    visitor = _BinaryAccess("m")
    visitor.visit(tree)
    assert visitor.found == [("m", "f", "ab"), ("m", "f", None), ("m", "f", None)]
