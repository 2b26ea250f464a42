"""Every library name the benchmark harness looks up must exist.

The harness in ``bench/`` is kept unchanged between library changes, so a
deletion in ``polybell`` could break it without a test failing. These tests
read ``bench/workloads.py`` and ``bench/make_reference.py`` with ``ast`` and
check each ``<module>.<attribute>`` they take off a ``polybell`` module.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

from polybell import correlations

BENCH = Path(__file__).resolve().parent.parent / "bench"
SCRIPTS = ["workloads.py", "make_reference.py"]


def polybell_lookups(path: Path) -> list[tuple[str, str]]:
    """The (module, attribute) pairs that ``path`` reads off ``polybell`` modules.

    A module is known by the name it is bound to: ``from polybell import
    core``, ``import polybell.core as core`` or
    ``core = importlib.import_module("polybell.core")``. A name imported with
    ``from polybell.<module> import <name>`` counts as a lookup itself.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    modules: dict[str, str] = {}
    lookups = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "polybell":
            for alias in node.names:
                full = f"{node.module}.{alias.name}"
                if importlib.util.find_spec(full) is not None:
                    modules[alias.asname or alias.name] = full
                else:
                    lookups.append((node.module, alias.name))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "polybell" and alias.asname:
                    modules[alias.asname] = alias.name
        elif (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
              and ast.unparse(node.value.func) == "importlib.import_module"
              and isinstance(node.value.args[0], ast.Constant)
              and str(node.value.args[0].value).startswith("polybell")):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    modules[target.id] = node.value.args[0].value
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            lookups.append((modules[node.value.id], node.attr))
    return lookups


def missing(lookups: list[tuple[str, str]]) -> list[str]:
    return [f"{module}.{attr}" for module, attr in lookups
            if not hasattr(importlib.import_module(module), attr)]


@pytest.mark.parametrize("script", SCRIPTS)
def test_bench_lookups_exist(script):
    lookups = polybell_lookups(BENCH / script)
    assert lookups
    assert missing(lookups) == []


def test_lookups_cover_both_scripts_and_every_binding():
    workloads = set(polybell_lookups(BENCH / "workloads.py"))
    # bound by `from polybell import cli, ...` and by importlib.import_module
    assert ("polybell.cli", "run") in workloads
    assert ("polybell.polygon", "max_entangled") in workloads
    # only the reference script keeps this route alive
    reference = polybell_lookups(BENCH / "make_reference.py")
    assert ("polybell.correlations", "chsh_max_analytic") in reference


def test_a_deleted_name_is_reported(monkeypatch):
    monkeypatch.delattr(correlations, "chsh_max_analytic")
    assert missing(polybell_lookups(BENCH / "make_reference.py")) == [
        "polybell.correlations.chsh_max_analytic"]
