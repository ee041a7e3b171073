"""Every module-level name in the package has a use outside its definition.

A name counts as used when another part of ``src/trilat`` or ``perfbench``
refers to it (a load of the name, an attribute of that name, or an import of
it), or when README.md mentions it as a word.  Tests do not count: a helper
that only its own tests call is dead code with a test attached.
"""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "trilat"


def _definitions(tree):
    """(name, node) for each module-level function, class and assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node


def _references(tree):
    """(name, line) for each use of a name in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.name.rsplit(".", 1)[-1], node.lineno


def unreferenced_names():
    sources = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    trees = {path: ast.parse(path.read_text(), str(path)) for path in sources}
    refs = {path: list(_references(tree)) for path, tree in trees.items()}
    readme = set(re.findall(r"\w+", (ROOT / "README.md").read_text()))
    missing = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, node in _definitions(trees[path]):
            if name.startswith("__") or name in readme:
                continue
            own = range(node.lineno, node.end_lineno + 1)
            if not any(ref == name and (other != path or line not in own)
                       for other, found in refs.items()
                       for ref, line in found):
                missing.append(f"{path.stem}.{name}")
    return missing


def test_every_module_level_name_is_used():
    assert unreferenced_names() == []
