"""Every name a casigrat module imports is referenced by that module, and
private names cross module boundaries only where listed."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "casigrat"

# perfbench's tracer tests look the planar pressure up in every namespace
# that binds it, so these two imports stay although the modules never call
# the function
KEPT = {("grating.py", "casimir_pressure_planar"),
        ("pipeline.py", "casimir_pressure_planar")}


def unused_imports(source: str) -> list[str]:
    """Imported names never read in the module; names listed in
    ``__all__`` count as read (re-exports)."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= {elt.value for elt in node.value.elts}
    return sorted(set(imported) - used)


def test_scan_flags_an_unused_import():
    source = ("from __future__ import annotations\nimport os\n"
              "import numpy as np\nfrom .a import b, c as d\n"
              "__all__ = ['b']\nx = np.pi\n")
    assert unused_imports(source) == ["d", "os"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    unused = [name for name in unused_imports(path.read_text("utf-8"))
              if (path.name, name) not in KEPT]
    assert unused == []


# (importing module, source module, private name): each entry is a
# deliberate use of another module's internals
PRIVATE_IMPORTS = [
    ("checks", "electrostatics", "_end_row_schur"),
    ("checks", "electrostatics", "_graded_from_start"),
    ("cli", "pipeline", "_meshable_profile_from_config"),
    ("cli", "pipeline", "_profile_from_config"),
    ("cli", "pipeline", "_rho_inputs"),
    ("pipeline", "electrostatics", "_meshing_profile"),
]


def private_imports(path: Path) -> list[tuple[str, str, str]]:
    """Names starting with '_' that ``path`` imports from a sibling
    module (``from .m import _name``)."""
    tree = ast.parse(path.read_text("utf-8"))
    return [(path.stem, node.module, alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names if alias.name.startswith("_")]


def test_private_imports_are_allowlisted():
    found = sorted(entry for path in SRC.glob("*.py")
                   for entry in private_imports(path))
    assert found == PRIVATE_IMPORTS
