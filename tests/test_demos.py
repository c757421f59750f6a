"""Smoke test: the fast demo scripts run to completion against the library.

``grating_scattering.py`` is left out: it takes about 12 s on two cores,
longer than the rest of this file together, and the grating layer it
drives is covered by ``test_grating.py``.  A static scan still checks
that every name it, the other demos and the README tour import from
casigrat exists, without running any of them.
"""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import casigrat

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ("calibration_fit.py", "electrostatic_cell.py", "planar_forces.py",
         "trench_pfa.py")


@pytest.mark.parametrize("name", DEMOS)
def test_demo_exits_cleanly(name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def casigrat_imports(source: str) -> list[tuple[str, str]]:
    """(module, name) of every ``from casigrat... import name``."""
    return [(node.module, alias.name) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module
            and node.module.split(".")[0] == "casigrat"
            for alias in node.names]


def readme_python() -> str:
    text = (ROOT / "README.md").read_text("utf-8")
    return "\n".join(re.findall(r"```python\n(.*?)```", text, re.S))


@pytest.mark.parametrize("name", sorted(
    [p.name for p in (ROOT / "demos").glob("*.py")] + ["README.md"]))
def test_imported_names_exist(name):
    source = (readme_python() if name == "README.md"
              else (ROOT / "demos" / name).read_text("utf-8"))
    imports = casigrat_imports(source)
    assert imports, f"{name} imports nothing from casigrat"
    missing = [f"{module}.{attr}" for module, attr in imports
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []


def test_every_export_exists():
    assert [n for n in casigrat.__all__ if not hasattr(casigrat, n)] == []
