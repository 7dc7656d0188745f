"""The package holds only code that the subcommands or the benchmark run.

Every module-level function and class and every method under
src/bayesdedupe must be referenced by name somewhere under src/ outside
its own definition, or in perfbench/*.py. Names that only tests use
belong in tests/ (oracles.py, presets.py). References are matched by
name. A function or class counts as used when a plain name, an attribute
or an imported name matches; a method only when an attribute of its
name is read, so that a local variable of the same name does not hide
it. Dunder methods are called by the interpreter and are exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bayesdedupe"


def _definitions(tree: ast.Module):
    """(name, node) for every module-level function and class and every
    method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}", item


def _references(tree: ast.AST, skip: ast.AST | None = None) -> tuple:
    """(names, attributes) read anywhere in tree except inside skip:
    names holds plain names, attributes and imported names, attributes
    only the attributes."""
    names: set = set()
    attributes: set = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
        stack.extend(ast.iter_child_nodes(node))
    return names | attributes, attributes


def unreferenced() -> list:
    src = {p: ast.parse(p.read_text(encoding="utf-8"))
           for p in sorted((ROOT / "src").rglob("*.py"))}
    refs = {p: _references(t) for p, t in src.items()}
    for p in sorted((ROOT / "perfbench").glob("*.py")):
        refs[p] = _references(ast.parse(p.read_text(encoding="utf-8")))
    out = []
    for path, tree in src.items():
        if path.parent != PACKAGE:
            continue
        for qualname, node in _definitions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            kind = 1 if "." in qualname else 0  # a method: attributes only
            others = [r[kind] for q, r in refs.items() if q != path]
            if any(name in seen for seen in
                   [_references(tree, skip=node)[kind], *others]):
                continue
            out.append(f"{path.stem}.{qualname}")
    return out


def test_every_package_definition_is_referenced():
    assert unreferenced() == []
