"""Every name that a module of the package imports is used there, and
every private module-level name is used somewhere in the package.

No linter is needed: each module is parsed with ``ast`` and the names
bound by its imports are compared with the names it reads.  An attribute
chain such as ``F.mul`` starts with a name, so it marks ``F`` as used.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "enriques"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0]
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_modules_found():
    assert {p.name for p in MODULES} >= {"cli.py", "field.py", "localeng.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def _bound(stmt):
    """Names a module-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [n.id for t in stmt.targets for n in ast.walk(t)
                if isinstance(n, ast.Name)]
    return []


def _read(stmt):
    """Names a statement reads, as a name, an attribute or an import."""
    out = set()
    for n in ast.walk(stmt):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            out.update(a.name for a in n.names)
    return out


def unreferenced_private_names():
    """Private module-level names that no other statement in src/ reads
    (a recursive helper does not count as its own user)."""
    stmts = [(p.name, stmt) for p in sorted(SRC.glob("*.py"))
             for stmt in ast.parse(p.read_text()).body]
    reads = [_read(stmt) for _, stmt in stmts]
    readers = Counter(name for r in reads for name in r)
    return [f"{module}:{name}"
            for (module, stmt), r in zip(stmts, reads)
            for name in _bound(stmt)
            if name.startswith("_") and not name.startswith("__")
            and readers[name] == (name in r)]


def test_no_unreferenced_private_names():
    assert unreferenced_private_names() == []
