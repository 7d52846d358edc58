"""Every name that a module of the package imports is used there, every
private module-level name is used somewhere in the package, and every
field of a dataclass or attribute of an error is read somewhere in it.

No linter is needed: each module is parsed with ``ast`` and the names
bound by its imports are compared with the names it reads.  An attribute
chain such as ``F.mul`` starts with a name, so it marks ``F`` as used.
"""

import ast
import json
import os
import subprocess
import sys
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


def _is_dataclass(cls):
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               for dec in cls.decorator_list
               for d in [dec.func if isinstance(dec, ast.Call) else dec])


def attribute_reads():
    """Every attribute name that src/ reads."""
    return {n.attr for p in SRC.glob("*.py")
            for n in ast.walk(ast.parse(p.read_text()))
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}


def unread_dataclass_fields():
    """Fields of a ``@dataclass`` in src/ whose name no attribute read in
    src/ carries (so ``n.orbit`` reads every field named ``orbit``)."""
    trees = [(p.name, ast.parse(p.read_text()))
             for p in sorted(SRC.glob("*.py"))]
    read = attribute_reads()
    return [f"{module}:{cls.name}.{stmt.target.id}"
            for module, tree in trees for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef) and _is_dataclass(cls)
            for stmt in cls.body
            if isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)
            and stmt.target.id not in read]


def test_no_unread_dataclass_fields():
    assert unread_dataclass_fields() == []


def unread_error_attributes():
    """Attributes that a class in errors.py sets on ``self`` and that no
    attribute read in src/ carries (``e.var`` reads every ``var``)."""
    read = attribute_reads()
    errors = ast.parse((SRC / "errors.py").read_text())
    return [f"{cls.name}.{n.attr}"
            for cls in errors.body if isinstance(cls, ast.ClassDef)
            for n in ast.walk(cls)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
            and isinstance(n.value, ast.Name) and n.value.id == "self"
            and n.attr not in read]


def test_no_unread_error_attributes():
    assert unread_error_attributes() == []


def unraised_error_classes():
    """Classes in errors.py, past the base ``EnriquesError``, that no
    ``raise`` statement in src/ names."""
    raised = {n.id for p in SRC.glob("*.py")
              for r in ast.walk(ast.parse(p.read_text()))
              if isinstance(r, ast.Raise) and r.exc is not None
              for n in ast.walk(r.exc) if isinstance(n, ast.Name)}
    errors = ast.parse((SRC / "errors.py").read_text())
    return [cls.name for cls in errors.body
            if isinstance(cls, ast.ClassDef)
            and cls.name != "EnriquesError" and cls.name not in raised]


def test_no_unraised_error_classes():
    assert unraised_error_classes() == []


UNLOADED = """
import sys
from click.testing import CliRunner
import enriques.cli
from enriques import chain_cluster, field, monomial_map, pullback_cluster

splits = []
factor = field._factors_over_qq
field._factors_over_qq = lambda cs: splits.append(cs) or factor(cs)
pullback_cluster(monomial_map(2, 3), chain_cluster([3, 2, 1]), 0)
res = CliRunner().invoke(enriques.cli.main,
                         ["map", "pullback", sys.argv[1], sys.argv[2]])
assert res.exit_code == 0, res.output
assert splits, "no tangent form was split over Q"
assert "sympy" not in sys.modules, "sympy was loaded"
"""


def test_sympy_stays_unloaded(tmp_path):
    """Importing the CLI, a criterion-7 pullback and ``map pullback`` in a
    fresh interpreter never load sympy: tangent forms over Q are split in
    the package."""
    from enriques import BiPoly, chain_cluster, cluster_to_json
    from enriques.field import poly_to_json
    x, y = BiPoly.variable("x"), BiPoly.variable("y")
    mapfile, clusterfile = tmp_path / "map.json", tmp_path / "cluster.json"
    mapfile.write_text(json.dumps({"f1": poly_to_json(x ** 2 + y ** 3),
                                   "f2": poly_to_json(y ** 2 + 2 * x ** 3)}))
    clusterfile.write_text(json.dumps(cluster_to_json(chain_cluster([2, 1]))))
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    subprocess.run([sys.executable, "-c", UNLOADED, str(mapfile),
                    str(clusterfile)], env=env, check=True, timeout=120)


# the package's public names; a change to the API shows as a diff here
PUBLIC_NAMES = [
    "BiPoly", "BudgetExceeded", "ContractedCurvePresent", "DivisionByZero",
    "EmptyCluster", "EnriquesError", "EnriquesForest", "ForestViolation",
    "Germ", "HypothesisViolated",
    "LocalMap", "ModulusSplit", "Node",
    "NonReducedGerm", "ParseError", "PlacementConflict", "PlaneConfig",
    "QQ", "RetryBudgetExceeded", "SingularSpec", "Tower",
    "UnrealizableForest", "WeightedMultiCluster", "base_points",
    "branched", "chain_cluster", "cluster_from_json", "cluster_to_json",
    "clusters", "config_from_json", "config_to_json", "configs",
    "curves_through", "errors", "excesses", "fermat",
    "field", "fixed_part", "h_bound_gap", "h_index",
    "harbourne_constant",
    "intersection_multiplicity", "is_consistent", "klein_S_cluster",
    "klein_closed_forms", "klein_lines", "klein_polars", "klein_recursion",
    "klein_report", "klein_state", "kummer_pullback", "local_degree",
    "localeng", "map_multiplicity", "monomial_map", "mult_cluster",
    "noether_intersection", "poly_gcd",
    "pullback_cluster", "pullback_theorem_check",
    "self_intersection", "shared_cluster", "single_point",
    "split_directions", "strict_gap_demo", "theorem_b_family", "triangle",
    "validate_forest", "virtual_codimension", "wiman",
]


def test_public_names():
    import enriques
    assert sorted(enriques.__all__) == PUBLIC_NAMES
