"""Every name that a module of the package imports is used there.

No linter is needed: each module is parsed with ``ast`` and the names
bound by its imports are compared with the names it reads.  An attribute
chain such as ``F.mul`` starts with a name, so it marks ``F`` as used.
"""

import ast
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
