"""Rules that the library's source keeps, read from its syntax trees."""

import ast
import importlib
from pathlib import Path

import polybell

SOURCES = sorted(Path(polybell.__file__).parent.glob("*.py"))


def parsed():
    return [(path.name, ast.parse(path.read_text(encoding="utf-8"))) for path in SOURCES]


def is_object_setattr(node):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "__setattr__"
            and isinstance(node.func.value, ast.Name) and node.func.value.id == "object")


def test_frozen_objects_are_written_only_in_post_init():
    # a frozen dataclass sets its own derived fields while it is built, and
    # nothing writes to it after
    calls = inside = 0
    for name, tree in parsed():
        found = [node for node in ast.walk(tree) if is_object_setattr(node)]
        allowed = {id(node) for function in ast.walk(tree)
                   if isinstance(function, ast.FunctionDef) and function.name == "__post_init__"
                   for node in ast.walk(function) if is_object_setattr(node)}
        outside = [node.lineno for node in found if id(node) not in allowed]
        assert not outside, f"{name}: object.__setattr__ outside __post_init__ at {outside}"
        calls += len(found)
        inside += len(allowed)
    assert calls == inside > 0


def imports_umath_linalg(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        if any("_umath_linalg" in name for name in names):
            return True
    return False


def test_one_module_calls_numpy_private_linalg():
    # the private LAPACK kernels live in one module, next to each other
    assert [name for name, tree in parsed() if imports_umath_linalg(tree)] == ["core.py"]


def functions(tree):
    """(name, node) of every module-level function and method, methods as ``Class.name``."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item


def test_q1_pairs_effects_under_a_state_in_one_function():
    # _moment_matrix runs the inner-product gate and is the one product with
    # a state's matrix; the only other read of a matrix compares the
    # pushed-forward preimage with omega
    tree = dict(parsed())["q1.py"]
    owner = {id(node): name for name, function in functions(tree)
             for node in ast.walk(function)}
    gate, matrix_reads = [], []
    for node in ast.walk(tree):
        where = owner.get(id(node), "<module>")
        if isinstance(node, ast.Name) and node.id in ("_inner_product_rules",
                                                       "is_inner_product_state"):
            gate.append(where)
        if isinstance(node, ast.Attribute) and node.attr == "matrix":
            matrix_reads.append((where, ast.unparse(node)))
    assert gate == ["_moment_matrix", "_moment_matrix"]
    assert sorted(matrix_reads) == [("_moment_matrix", "state.matrix"),
                                    ("certificate_via_pushforward", "omega.matrix"),
                                    ("certificate_via_pushforward", "pushed.matrix")]


def is_json_writer(node):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("dump", "dumps")
            and isinstance(node.func.value, ast.Name) and node.func.value.id == "json")


def test_cli_json_takes_one_route():
    # indented JSON is the CLI's, and cli._write is the one place that
    # encodes it, so no second writer can drift from its bytes
    writers, imported, encoders = [], [], []
    for name, tree in parsed():
        owner = {id(node): function for function, body in functions(tree)
                 for node in ast.walk(body)}
        for node in ast.walk(tree):
            if is_json_writer(node):
                writers.append((name, [k.arg for k in node.keywords]))
            if isinstance(node, ast.ImportFrom) and node.module == "json":
                imported += [alias.name for alias in node.names]
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "_json_chunks"):
                encoders.append((name, owner.get(id(node), "<module>")))
    # ModelSpec.to_json writes compact JSON; a ** argument could hide an indent
    assert writers and all(None not in args and "indent" not in args for _, args in writers)
    assert not {"dump", "dumps", "JSONEncoder"} & set(imported)
    assert encoders == [("cli.py", "_write")]


def test_cli_imports_only_exported_names():
    # what the command line takes from the library's modules is public API:
    # each public name is the object the package itself exports
    tree = dict(parsed())["cli.py"]
    imported = [(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
                for alias in node.names if not alias.name.startswith("_")]
    assert ("correlations", "distill_with_table") in imported
    unexported = [f"{module}.{name}" for module, name in imported
                  if getattr(polybell, name, None)
                  is not getattr(importlib.import_module(f"polybell.{module}"), name)]
    assert not unexported, f"cli.py imports names polybell does not export: {unexported}"
