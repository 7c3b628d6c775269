"""The package namespace: `import ofo` runs no submodule, and each public
name and each submodule is imported on first use."""

import ast
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import ofo

from conftest import checkout_env

PUBLIC = [
    "BoxSet", "DisturbanceSchedule", "LinearPlant", "QuadraticCost", "RunConfig",
    "SinePlant", "SqrtPlusCost", "certify", "decay_rate", "envelope_check",
    "optimal_input", "required_regularization", "simulate", "sweep_alpha",
]
SUBMODULES = ["certificate", "cli", "controllers", "costs", "engine", "errors",
              "linalg", "plants", "scenario", "sim"]


def fresh_python(code: str) -> str:
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=checkout_env())
    assert (run.returncode, run.stderr) == (0, ""), run.stderr
    return run.stdout


def test_import_runs_no_submodule():
    code = ("import sys; before = set(sys.modules); import ofo; "
            "print(*sorted(set(sys.modules) - before))")
    added = set(fresh_python(code).split())
    assert "ofo" in added
    assert not {name for name in added if name.startswith("ofo.")}, added
    assert not added & {"dataclasses", "ctypes", "yaml"}, added


def test_public_names_unchanged():
    assert ofo.__all__ == PUBLIC
    assert ofo.__version__ == "0.1.0"
    # listed before any of them is imported
    listed = set(fresh_python("import ofo; print(*dir(ofo))").split())
    assert set(PUBLIC + SUBMODULES) <= listed


@pytest.mark.parametrize("name", PUBLIC)
def test_public_name_is_its_submodules_object(name):
    value = getattr(ofo, name)
    assert value.__module__.startswith("ofo.")
    assert getattr(sys.modules[value.__module__], name) is value
    assert vars(ofo)[name] is value


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from ofo import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(PUBLIC)


def test_submodules_resolve_as_attributes_in_a_fresh_process():
    code = f"import ofo; print(*(getattr(ofo, name).__name__ for name in {SUBMODULES!r}))"
    assert fresh_python(code).split() == [f"ofo.{name}" for name in SUBMODULES]
    assert fresh_python("import ofo; print(ofo.linalg.Matrix.__module__)") == "ofo.linalg\n"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="^module 'ofo' has no attribute 'nonexistent'$"):
        ofo.nonexistent
    with pytest.raises(ImportError):
        from ofo import nonexistent  # noqa: F401


def test_a_run_imports_only_the_standard_library_and_ofo(tmp_path):
    code = ("import sys; before = set(sys.modules); from ofo.cli import main; "
            f"rc = main(['reproduce', 'fig1', '--out', {str(tmp_path)!r}]); "
            "print(rc, *sorted(set(sys.modules) - before))")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=checkout_env())
    assert run.returncode == 0, run.stderr
    rc, *added = run.stdout.splitlines()[-1].split()
    assert rc == "0"
    assert "ofo.cli" in added
    foreign = [name for name in added
               if name.partition(".")[0] not in {*sys.stdlib_module_names, "ofo"}]
    assert not foreign, foreign



def read_names(tree: ast.AST) -> Counter:
    """How often a tree reads each name as a Name, an Attribute or a string
    constant."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names[node.value] += 1
    return names


def test_every_top_level_definition_has_a_user():
    # A top-level function or class of src/ofo, and a method or property of
    # such a class, must be read somewhere in src/ofo outside its own
    # definition, listed in ofo.__all__, or read by the benchmark in
    # perfbench/.  Tests are no users, so a production function or method
    # kept only as a test oracle fails here.
    root = Path(ofo.__file__).parent
    definitions, read = [], Counter()
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text("utf-8"))
        read += read_names(tree)
        for node in tree.body:
            members = node.body if isinstance(node, ast.ClassDef) else []
            definitions += [(path.relative_to(root), d) for d in (node, *members)
                            if isinstance(d, (ast.FunctionDef, ast.ClassDef))]
    outside = set(ofo.__all__)
    for path in sorted((root.parents[1] / "perfbench").glob("*.py")):
        outside |= set(read_names(ast.parse(path.read_text("utf-8"))))
    unused = [f"{path}: {node.name}" for path, node in definitions
              if not (node.name.startswith("__") and node.name.endswith("__"))
              and node.name not in outside
              and read[node.name] == read_names(node)[node.name]]
    assert unused == []
