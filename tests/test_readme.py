import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _package_imports():
    """Each import of energy_ood in a fenced python block of the README."""
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    nodes = [node for block in blocks for node in ast.walk(ast.parse(block))]
    return [node for node in nodes if isinstance(node, ast.ImportFrom)
            and (node.module or "").split(".")[0] == "energy_ood"]


def test_readme_imports_what_it_names():
    # running the example takes seconds; its imports alone take milliseconds
    imports = _package_imports()
    assert imports
    for node in imports:
        exec(compile(ast.Module([node], type_ignores=[]), str(README), "exec"), {})
