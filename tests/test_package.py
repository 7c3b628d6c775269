"""The package namespace: `import ofo` runs no submodule, and each public
name and each submodule is imported on first use."""

import ast
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import ofo

from conftest import bundled_scenario_path, checkout_env

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


def test_reproduce_loads_no_importlib_resources(tmp_path):
    # without site (-S) no .pth file imports it first, so only ofo could
    code = ("import sys; from ofo.cli import main; "
            f"rc = main(['reproduce', 'fig1', '--out', {str(tmp_path)!r}]); "
            "print(rc, 'importlib.resources' in sys.modules)")
    run = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         env=checkout_env())
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "0 False"


def test_choosing_the_kernel_loads_no_dataclasses():
    # the benchmark's set-up: the CLI's modules and the kernel choice
    code = ("import sys; before = set(sys.modules); import ofo.cli; "
            "print(ofo.engine.kernel_name(), *sorted(set(sys.modules) - before))")
    kernel, *added = fresh_python(code).split()
    assert kernel in {"compiled", "pure-python"}
    assert {"ofo.cli", "ofo.engine"} <= set(added)
    assert "dataclasses" not in added, added


def test_certify_loads_no_dataclasses():
    code = ("import sys; before = set(sys.modules); from ofo.cli import main; "
            f"rc = main(['certify', {bundled_scenario_path('fig1')!r}]); "
            "print(rc, *sorted(set(sys.modules) - before))")
    rc, *added = fresh_python(code).splitlines()[-1].split()
    assert rc == "3"  # the whole pipeline ran: fig1 is not certified
    assert "ofo.certificate" in added
    assert "dataclasses" not in added, added


def test_segment_spec_is_the_one_dataclass():
    code = ("import dataclasses, importlib, pkgutil, ofo; "
            "names = [m.name for m in pkgutil.walk_packages(ofo.__path__, 'ofo.') "
            "if m.name != 'ofo.engine._speedup']; "
            "mods = [importlib.import_module(name) for name in names]; "
            "print(*sorted(f'{m.__name__}.{k}' for m in mods for k, v in vars(m).items() "
            "if isinstance(v, type) and v.__module__ == m.__name__ "
            "and dataclasses.is_dataclass(v)))")
    assert fresh_python(code).split() == ["ofo.engine.spec.SegmentSpec"]



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


def taken_from_ofo(tree: ast.AST) -> set[str]:
    """The names a module takes from ofo: each name in an `import ofo...` or
    `from ofo... import` statement, and each attribute read through a name
    such a statement binds (`ofo.sim.RunConfig.run`, `engine.SegmentSpec`)."""
    bound, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.partition(".")[0] == "ofo":
                    bound.add(alias.asname or "ofo")
                    names.update(alias.name.split(".")[1:])
        elif isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "ofo":
            names.update(node.module.split(".")[1:])
            for alias in node.names:
                bound.add(alias.asname or alias.name)
                names.add(alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            chain = []
            while isinstance(node, ast.Attribute):
                chain.append(node.attr)
                node = node.value
            if isinstance(node, ast.Name) and node.id in bound:
                names.update(chain)
    return names


def unused_definitions(root: Path, benchmark: Path) -> list[str]:
    """The top-level functions and classes under root, and the methods and
    properties of such classes, that nothing reads: not the code under root
    outside their own definition, not ofo.__all__, and not the modules in
    benchmark through the names they take from ofo."""
    definitions, read = [], Counter()
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text("utf-8"))
        read += read_names(tree)
        for node in tree.body:
            members = node.body if isinstance(node, ast.ClassDef) else []
            definitions += [(path.relative_to(root), d) for d in (node, *members)
                            if isinstance(d, (ast.FunctionDef, ast.ClassDef))]
    outside = set(ofo.__all__)
    for path in sorted(benchmark.glob("*.py")):
        outside |= taken_from_ofo(ast.parse(path.read_text("utf-8")))
    return [f"{path}: {node.name}" for path, node in definitions
            if not (node.name.startswith("__") and node.name.endswith("__"))
            and node.name not in outside
            and read[node.name] == read_names(node)[node.name]]


ROOT = Path(ofo.__file__).parent
BENCHMARK = ROOT.parents[1] / "perfbench"


def test_every_top_level_definition_has_a_user():
    # Tests are no users, so a production function or method kept only as a
    # test oracle fails here.
    assert unused_definitions(ROOT, BENCHMARK) == []


def test_a_planted_unused_method_has_no_user(tmp_path):
    # the benchmark reads `args.trace`, an argparse field and not a name it
    # takes from ofo, so it does not count as a user of a Matrix.trace
    copy = tmp_path / "ofo"
    shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns("__pycache__"))
    linalg = copy / "linalg.py"
    text = linalg.read_text("utf-8")
    anchor = "    def max_norm(self) -> float:\n"
    assert anchor in text
    linalg.write_text(text.replace(anchor, "    def trace(self) -> float:\n"
                                   "        return sum(self.data[::self.cols + 1])\n\n"
                                   + anchor), "utf-8")
    assert unused_definitions(copy, BENCHMARK) == ["linalg.py: trace"]
    assert "trace" in read_names(ast.parse((BENCHMARK / "run.py").read_text("utf-8")))
