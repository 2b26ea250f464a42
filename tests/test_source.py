"""Rules that the library's source keeps, read from its syntax trees."""

import ast
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
