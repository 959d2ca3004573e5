"""Checks on the package's source text shared by several test modules."""

import ast
from pathlib import Path

import lqrec

SRC_DIR = Path(lqrec.__file__).parent


def literal_comparisons(names, src_dir=SRC_DIR):
    """``file:line`` of every ``==``, ``!=``, ``in`` or ``not in`` in the
    modules of ``src_dir`` with one of the string literals ``names`` on one
    side, alone or in a tuple, list, set or dict display."""

    def literals(node):
        elts = {ast.Tuple: "elts", ast.List: "elts", ast.Set: "elts",
                ast.Dict: "keys"}.get(type(node))
        return {e.value for e in (getattr(node, elts) if elts else [node])
                if isinstance(e, ast.Constant)}

    found = []
    for path in sorted(Path(src_dir).glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Compare):
                continue
            sides = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, sides, sides[1:]):
                if (isinstance(op, (ast.Eq, ast.NotEq, ast.In, ast.NotIn))
                        and (literals(left) | literals(right)) & set(names)):
                    found.append(f"{path.name}:{node.lineno}")
    return found


def attribute_accesses(attr, src_dir=SRC_DIR):
    """``file:line`` of every ``.attr`` access in the modules of ``src_dir``."""
    return [f"{path.name}:{node.lineno}"
            for path in sorted(Path(src_dir).glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and node.attr == attr]


def gathers_not_from_params(path=SRC_DIR / "model.py"):
    """``file:line`` of every ``.gather`` or ``.gather_margin`` call in ``path``
    whose table argument is not an ``ex.param(...)`` call."""

    def is_param(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "param" and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "ex")

    path = Path(path)
    return [f"{path.name}:{node.lineno}"
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("gather", "gather_margin")
            and not (node.args and is_param(node.args[0]))]


def names_reached(names, path):
    """``file:line`` of every name, attribute or string constant in ``path``
    that is one of ``names``: a call, a reference or a ``getattr`` of it."""
    path = Path(path)
    return [f"{path.name}:{node.lineno}"
            for node in ast.walk(ast.parse(path.read_text()))
            if (isinstance(node, ast.Name) and node.id in names)
            or (isinstance(node, ast.Attribute) and node.attr in names)
            or (isinstance(node, ast.Constant) and node.value in names)]


def imported_names(path):
    """Every import of ``path`` as a dotted name: ``import a.b`` gives
    ``a.b``, ``from a import b`` gives ``a.b``."""
    return [name for node in ast.walk(ast.parse(Path(path).read_text()))
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for name in (alias.name if isinstance(node, ast.Import)
                         else f"{node.module}.{alias.name}" for alias in node.names)]
