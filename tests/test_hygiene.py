"""Checks on the package source: no unused imports, no unreferenced private functions, methods or fields,
no default that only tests override, no dataclass field with a constructor default, no test-only dependency
loaded by ``import prolate``, no module-level result cache."""

import ast
import functools
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import prolate.core

SOURCE = Path(__file__).resolve().parents[1] / "src" / "prolate"
TESTS = Path(__file__).resolve().parent
PERFBENCH = SOURCE.parents[1] / "perfbench"
MODULES = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SOURCE.glob("*.py"))}


def referenced_names(tree: ast.AST) -> set[str]:
    """Names read as variables or attributes anywhere in ``tree``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


@pytest.mark.parametrize("module", sorted(MODULES))
def test_every_import_is_used(module):
    tree = MODULES[module]
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names if alias.name != "*"}
        elif isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
    assert imported - referenced_names(tree) == set()


def test_every_private_function_is_referenced():
    used = set().union(*(referenced_names(tree) for tree in MODULES.values()))
    private = {
        node.name
        for tree in MODULES.values()
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_") and not node.name.startswith("__")
    }
    assert private - used == set()


def loaded_attributes(trees) -> set[str]:
    """Names read (not assigned) as attributes anywhere in ``trees``."""
    return {
        node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def test_every_method_is_read_as_an_attribute():
    read = loaded_attributes(MODULES.values())
    unread = {
        f"{cls.name}.{node.name}"
        for tree in MODULES.values()
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("__") and node.name not in read
    }
    assert unread == set()


def test_every_field_is_read_as_an_attribute():
    # A field is read somewhere in the package or its tests, or it should not be stored.
    tests = (ast.parse(path.read_text(encoding="utf-8")) for path in TESTS.glob("*.py"))
    read = loaded_attributes([*MODULES.values(), *tests])
    unread = {
        f"{cls.name}.{node.target.id}"
        for tree in MODULES.values()
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name) and node.target.id not in read
    }
    assert unread == set()


def test_no_dataclass_field_has_a_constructor_default():
    # A constructor default is a switch callers can leave unset; only derived state,
    # declared field(init=False, ...), may carry a value.
    defaulted = {
        f"{cls.name}.{node.target.id}"
        for tree in MODULES.values()
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        and any("dataclass" in ast.unparse(decorator) for decorator in cls.decorator_list)
        for node in cls.body
        if isinstance(node, ast.AnnAssign) and node.value is not None
        and not (
            isinstance(node.value, ast.Call)
            and ast.unparse(node.value.func) == "field"
            and any(kw.arg == "init" and ast.unparse(kw.value) == "False" for kw in node.value.keywords)
        )
    }
    assert defaulted == set()


def test_every_default_is_overridden_outside_the_tests():
    # A default that only tests override selects a code path no caller takes: a test-only switch.
    callers = [*MODULES.values(), *(ast.parse(path.read_text(encoding="utf-8")) for path in PERFBENCH.glob("*.py"))]
    passed = {
        (node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None), keyword.arg)
        for tree in callers
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        for keyword in node.keywords
    }
    defaulted = set()
    for module in ("core.py", "operators.py", "hardy.py"):
        for node in ast.walk(MODULES[module]):
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                args = node.args
                positional = [*args.posonlyargs, *args.args]
                names = [arg.arg for arg in positional[len(positional) - len(args.defaults) :]]
                names += [arg.arg for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None]
                defaulted |= {(node.name, name) for name in names}
    assert defaulted - passed == set()


def test_import_loads_no_test_only_dependency():
    # Cold CLI runs are dominated by import time; scipy.special alone once took two thirds of it.
    probe = "import sys, prolate; print(sorted({m.split('.')[0] for m in sys.modules} & {'scipy', 'mpmath', 'hypothesis'}))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SOURCE.parent), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_no_module_level_result_cache():
    # Result caches live on their owner (a spectrum, a function), so a benchmark
    # that repeats an operation times the work, not hits in a process-wide cache.
    offenders = []
    for stem in (Path(name).stem for name in MODULES):
        module = importlib.import_module("prolate" if stem == "__init__" else f"prolate.{stem}")
        for name, value in vars(module).items():
            if name.startswith("__") and name.endswith("__") and name != "__all__":
                continue  # module metadata such as __builtins__ and __path__
            if isinstance(value, (dict, set, list)) and name != "__all__":
                offenders.append(f"{stem}.{name}")
            if isinstance(value, functools._lru_cache_wrapper) and value is not prolate.core.gauss_legendre_rule:
                offenders.append(f"{stem}.{name}")
    assert offenders == []
