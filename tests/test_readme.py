import ast
import importlib
import inspect
import pkgutil
import re
import shlex
from pathlib import Path

import energy_ood
from energy_ood import cli

README = Path(__file__).resolve().parent.parent / "README.md"
# __main__ is left out: importing it runs the command line
SUBMODULES = [info.name for info in pkgutil.iter_modules(energy_ood.__path__)
              if info.name != "__main__"]


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


def test_readme_names_resolve():
    # every backticked `module.name` whose module is an energy_ood submodule
    names = [(module, name) for module, name in
             re.findall(r"`([a-z_]+)\.([A-Za-z_][A-Za-z0-9_]*)`", README.read_text())
             if module in SUBMODULES]
    assert ("detectors", "score_knn") in names
    for module, name in names:
        assert hasattr(importlib.import_module(f"energy_ood.{module}"), name), f"{module}.{name}"


def test_docstring_names_resolve():
    # every ``module.name`` a package docstring cites exists, and every
    # ``_private`` name exists in the module whose docstring cites it (the
    # bare ``_`` of cli's config-file docstring is no name)
    checked = 0
    for module_name in SUBMODULES:
        module = importlib.import_module(f"energy_ood.{module_name}")
        nodes = ast.walk(ast.parse(inspect.getsource(module)))
        docs = [ast.get_docstring(node) or "" for node in nodes if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))]
        for doc in docs:
            for cited, name in re.findall(r"``([a-z_]+)\.([A-Za-z_][A-Za-z0-9_]*)``", doc):
                if cited in SUBMODULES:
                    checked += 1
                    owner = importlib.import_module(f"energy_ood.{cited}")
                    assert hasattr(owner, name), f"{module_name}: {cited}.{name}"
            for name in re.findall(r"``(_[A-Za-z0-9_]+)``", doc):
                checked += 1
                assert hasattr(module, name), f"{module_name}: {name}"
    assert checked >= 20


def test_readme_calls_resolve():
    # every backticked call form `name(...` names something some submodule defines
    modules = [importlib.import_module(f"energy_ood.{m}") for m in SUBMODULES]
    calls = set(re.findall(r"`([A-Za-z_][A-Za-z0-9_]*)\(", README.read_text()))
    assert "CorrectionModel" in calls
    for name in calls:
        assert any(hasattr(module, name) for module in modules), name


def test_readme_commands_parse():
    # every energy-ood command of a fenced sh block parses, and each score
    # command passes score's option check, without running it
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.M | re.S)
    lines = [line for block in blocks for line in block.replace("\\\n", " ").splitlines()]
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("energy-ood ")]
    assert len(commands) == 8
    parser = cli.build_parser()
    for argv in commands:
        args = parser.parse_args(argv)
        assert args.command == argv[0]
        if args.command == "score":
            cli.check_score_options(args)
