"""The package holds only code that the subcommands or the benchmark run.

Every module-level function and class and every method under
src/bayesdedupe must be referenced by name somewhere under src/ outside
its own definition, or in perfbench/*.py. Names that only tests use
belong in tests/ (oracles.py, presets.py). References are matched by
name: a Name, an attribute or an imported name, so a method counts as
used when any attribute of that name is read. Dunder methods are called
by the interpreter and are exempt.
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


def _references(tree: ast.AST, skip: ast.AST | None = None) -> set:
    """Names read, as plain names, attributes or imported names, anywhere
    in tree except inside skip."""
    found: set = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rsplit(".", 1)[-1])
        stack.extend(ast.iter_child_nodes(node))
    return found


def unreferenced() -> list:
    src = {p: ast.parse(p.read_text(encoding="utf-8"))
           for p in sorted((ROOT / "src").rglob("*.py"))}
    bench: set = set()
    for p in sorted((ROOT / "perfbench").glob("*.py")):
        bench |= _references(ast.parse(p.read_text(encoding="utf-8")))
    elsewhere = {p: set().union(*(_references(t) for q, t in src.items() if q != p))
                 for p in src}
    out = []
    for path, tree in src.items():
        if path.parent != PACKAGE:
            continue
        for qualname, node in _definitions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if (name in bench or name in elsewhere[path]
                    or name in _references(tree, skip=node)):
                continue
            out.append(f"{path.stem}.{qualname}")
    return out


def test_every_package_definition_is_referenced():
    assert unreferenced() == []
