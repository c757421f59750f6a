"""Every name a casigrat module imports is referenced by that module,
every public function or class is exported or used in the package,
private names are imported only where listed and no module imports
scipy, a bad value becomes a ConfigError only through config.named,
files are opened only where listed and no module imports csv or io, only
the grating reads the environment, importing the package and running
its stages loads no scipy module, the self-checks, an electrostatic
pipeline and calibrate run with scipy blocked, and importing the package
loads no process pool."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest
import scipy.constants

import casigrat
from casigrat import constants

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "casigrat"

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


def unreferenced_public_defs(sources: dict[str, str],
                             exported: set[str]) -> list[str]:
    """``module:name`` of each public module-level function or class in
    ``sources`` (module name -> source) that is neither in ``exported``
    nor read, attributed or imported anywhere in ``sources``."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read |= {alias.name for alias in node.names}
    return [f"{module}:{node.name}" for module, tree in trees.items()
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")
            and node.name not in exported | read]


def test_scan_flags_an_unreferenced_public_def():
    sources = {"a": "def f(): pass\ndef g(): pass\nclass C: pass\n"
                    "def _h(): pass\n",
               "b": "from .a import g\n"}
    assert unreferenced_public_defs(sources, {"C"}) == ["a:f"]


def test_public_defs_are_exported_or_used():
    sources = {path.stem: path.read_text("utf-8")
               for path in sorted(SRC.glob("*.py"))}
    assert unreferenced_public_defs(sources, set(casigrat.__all__)) == []


# (importing module, source module, private name): each entry is a
# deliberate use of another module's internals
PRIVATE_IMPORTS = [
    ("calibration", "quadrature", "_check_counts"),
    ("checks", "electrostatics", "_end_row_schur"),
    ("checks", "electrostatics", "_graded_from_start"),
    ("cli", "pipeline", "_meshable_profile_from_config"),
    ("cli", "pipeline", "_profile_from_config"),
    ("cli", "pipeline", "_rho_inputs"),
    ("electrostatics", "interpolate", "_tridiagonal_solve"),
    ("electrostatics", "quadrature", "_check_counts"),
    ("grating", "quadrature", "_check_counts"),
    ("pfa", "quadrature", "_check_counts"),
    ("pipeline", "electrostatics", "_meshing_profile"),
    ("planar", "quadrature", "_check_counts"),
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


# (module, caught type) of each except handler that raises a ConfigError
# built from the exception it caught: config.named, which every other
# rewrap of a bad value goes through, and the configparser error of
# Config.from_text
CONFIG_ERROR_REWRAPS = [
    ("config", "(ValueError, KeyError)"),
    ("config", "configparser.Error"),
]


def config_error_rewraps(source: str) -> list[str]:
    """The caught type of each ``except ... as name`` handler in ``source``
    that reads ``name`` and raises a ``ConfigError``."""
    found = []
    for handler in ast.walk(ast.parse(source)):
        if not isinstance(handler, ast.ExceptHandler) or handler.name is None:
            continue
        nodes = [node for stmt in handler.body for node in ast.walk(stmt)]
        reads = any(isinstance(node, ast.Name) and node.id == handler.name
                    for node in nodes)
        if reads and any(isinstance(node, ast.Raise)
                         and isinstance(node.exc, ast.Call)
                         and isinstance(node.exc.func, ast.Name)
                         and node.exc.func.id == "ConfigError"
                         for node in nodes):
            found.append(ast.unparse(handler.type))
    return found


def test_scan_flags_a_config_error_rewrap():
    source = ("try:\n    f()\nexcept ValueError as exc:\n"
              "    raise ConfigError(f'[a] {exc}') from None\n"
              "try:\n    f()\nexcept (KeyError, OSError) as err:\n"
              "    text = str(err.args[0])\n"
              "    raise ConfigError('[b] ' + text)\n"
              "try:\n    f()\nexcept ValueError:\n"
              "    raise ConfigError('not an integer')\n"
              "try:\n    f()\nexcept ValueError as exc:\n"
              "    raise RuntimeError(str(exc))\n")
    assert config_error_rewraps(source) == ["ValueError",
                                            "(KeyError, OSError)"]


def test_config_errors_are_rewrapped_only_by_named():
    found = sorted((path.stem, caught) for path in SRC.glob("*.py")
                   for caught in config_error_rewraps(path.read_text("utf-8")))
    assert found == CONFIG_ERROR_REWRAPS


# (importing module, scipy module): none, numpy is the one runtime
# dependency and scipy serves the tests as an oracle only
SCIPY_IMPORTS = []


def scipy_imports(path: Path) -> set[tuple[str, str]]:
    """The scipy modules ``path`` imports, as (module stem, scipy module)."""
    tree = ast.parse(path.read_text("utf-8"))
    names = [alias.name for node in ast.walk(tree)
             if isinstance(node, ast.Import) for alias in node.names]
    names += [node.module for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.level == 0]
    return {(path.stem, name) for name in names
            if name.split(".")[0] == "scipy"}


def test_scipy_imports_are_allowlisted():
    found = sorted({entry for path in SRC.glob("*.py")
                    for entry in scipy_imports(path)})
    assert found == SCIPY_IMPORTS


# modules that open files (the builtin open, or a path's open, read_text or
# write_text): the INI reader and the one text-table reader and writer
OPEN_CALLS = ["config", "curves"]


def opens_files(path: Path) -> bool:
    """Whether ``path`` calls ``open`` or a ``.open``, ``.read_text`` or
    ``.write_text`` method."""
    calls = [node.func for node in ast.walk(ast.parse(path.read_text("utf-8")))
             if isinstance(node, ast.Call)]
    return any(isinstance(f, ast.Name) and f.id == "open"
               or isinstance(f, ast.Attribute)
               and f.attr in ("open", "read_text", "write_text")
               for f in calls)


def test_open_calls_are_allowlisted():
    assert sorted(path.stem for path in SRC.glob("*.py")
                  if opens_files(path)) == OPEN_CALLS


def top_level_imports(path: Path) -> set[str]:
    """The absolute top-level module names ``path`` imports."""
    tree = ast.parse(path.read_text("utf-8"))
    names = [alias.name for node in ast.walk(tree)
             if isinstance(node, ast.Import) for alias in node.names]
    names += [node.module for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.level == 0]
    return {name.split(".")[0] for name in names}


def test_no_second_table_parser():
    # a table is parsed and formatted by curves.read_table / write_table
    # only, so no module imports the csv or io modules
    found = sorted((path.stem, name) for path in SRC.glob("*.py")
                   for name in top_level_imports(path) & {"csv", "io"})
    assert found == []


def test_scan_flags_open_csv_and_io(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text("import csv\nfrom io import StringIO\n"
                      "with open('x') as fh:\n    pass\n")
    assert opens_files(source)
    assert top_level_imports(source) == {"csv", "io"}
    for call in ("Path('x').write_text('')", "Path('x').read_text()"):
        source.write_text(f"from pathlib import Path\n{call}\n")
        assert opens_files(source)
    source.write_text("import numpy as np\nnp.asarray([1.0])\n")
    assert not opens_files(source)


# modules that read the environment (os.environ or os.getenv): the grating,
# whose worker_count is the one reader of CASIGRAT_WORKERS
ENVIRONMENT_READERS = ["grating"]
_ENVIRONMENT = ("environ", "getenv")


def reads_environment(path: Path) -> bool:
    """Whether ``path`` names ``os.environ`` or ``os.getenv``, as an
    attribute or imported from os."""
    return any(isinstance(node, ast.Attribute) and node.attr in _ENVIRONMENT
               or isinstance(node, ast.ImportFrom) and node.module == "os"
               and any(a.name in _ENVIRONMENT for a in node.names)
               for node in ast.walk(ast.parse(path.read_text("utf-8"))))


def test_environment_is_read_only_by_the_grating():
    assert sorted(path.stem for path in SRC.glob("*.py")
                  if reads_environment(path)) == ENVIRONMENT_READERS


def test_scan_flags_environment_reads(tmp_path):
    source = tmp_path / "mod.py"
    for code in ("import os\nn = os.environ.get('N')\n",
                 "import os\nn = os.getenv('N')\n",
                 "from os import environ\nn = environ['N']\n",
                 "from os import getenv as env\nn = env('N')\n"):
        source.write_text(code)
        assert reads_environment(source), code
    source.write_text("import os\nn = os.cpu_count()\n")
    assert not reads_environment(source)


# a fresh interpreter: import the package, parse every shipped config,
# build and evaluate every finite material and the flat-force laws, run the
# grating on a tiny truncation, then list every scipy module that got loaded
NO_SCIPY_CODE = """\
import sys
from pathlib import Path
import numpy as np
import casigrat
for path in sorted(Path("configs").glob("*.cfg")):
    casigrat.Config.from_file(path)
for name in casigrat.available_materials():
    model = casigrat.get_material(name)
    if not isinstance(model, casigrat.PerfectConductor):
        model.epsilon(np.geomspace(1e10, 1e20, 41))
z = np.geomspace(100e-9, 400e-9, 8)
casigrat.FlatForceLaw.from_table(z, -(z ** -4.0))(z)
casigrat.flat_pressure_law(casigrat.get_material("gold_drude"),
                           casigrat.get_material("silicon_doped"),
                           100e-9, 200e-9, n_points=8)(150e-9)
trench = casigrat.reference_trench_profile()
silicon = casigrat.get_material("silicon_doped")
spec = casigrat.TruncationSpec(1, 2, casigrat.GratingQuadrature(4, 4, 4))
casigrat.grating_reflection(trench, silicon, 1e15, 1e6, 1e6, spec)
casigrat.casimir_pressure_grating_grid(trench, silicon,
                                       casigrat.get_material("gold_drude"),
                                       [100e-9, 150e-9], spec)
print(" ".join(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""

# the same for the capacitor-cell gradient model
FEM_MODEL_CODE = """\
import sys
import casigrat
model = casigrat.fem_gradient_model(casigrat.reference_trench_profile(),
                                    50e-6, 100e-9, 200e-9, n_points=8)
model(150e-9, 0.3)
print(" ".join(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def modules_loaded_by(code: str, *args: str) -> list[str]:
    """The words a fresh interpreter running ``code`` with arguments
    ``args`` prints: the modules it loaded, or the exit codes it got."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code, *args], cwd=ROOT,
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_import_loads_no_scipy():
    loaded = modules_loaded_by(NO_SCIPY_CODE)
    assert loaded == [], f"scipy modules loaded: {' '.join(loaded)}"


# the grating's node pool is a thread pool: importing the package loads no
# process pool machinery
NO_PROCESS_POOL_CODE = """\
import sys
import casigrat
print(" ".join(sorted(m for m in sys.modules if "multiprocessing" in m
                      or m == "concurrent.futures.process")))
"""


def test_import_loads_no_process_pool():
    loaded = modules_loaded_by(NO_PROCESS_POOL_CODE)
    assert loaded == [], f"process pool modules loaded: {' '.join(loaded)}"


def test_fem_gradient_model_loads_no_scipy_interpolate():
    loaded = modules_loaded_by(FEM_MODEL_CODE)
    assert loaded == [], f"scipy modules loaded: {' '.join(loaded)}"


# a fresh interpreter in which importing scipy fails: the self-checks, an
# electrostatic pipeline and every calibrate model still run
SCIPY_BLOCKED_CODE = """\
import contextlib
import io
import sys
sys.modules["scipy"] = None
import numpy as np
import casigrat
from casigrat.cli import main
work = sys.argv[1]
with open(f"{work}/es.cfg", "w") as fh:
    fh.write("[pipeline]\\ntask = electrostatic_gradient\\n"
             "[grid]\\nz = 150:450:150nm\\n[solver]\\ntable_points = 10\\n")
casigrat.write_frequency_shift_samples(
    f"{work}/shifts.csv", casigrat.synthesize_frequency_shifts(
        -614.0, 800e-9, casigrat.series_gradient_model(50e-6),
        voltages=(0.245, 0.3), z_piezo=np.linspace(0.0, 600e-9, 13)))
runs = [["pipeline", "--check", "--all-checks"],
        ["pipeline", "--config", f"{work}/es.cfg", "--out", work]]
runs += [["calibrate", "--input", f"{work}/shifts.csv", "--model", model]
         for model in ("series", "plate", "fem")]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in runs]
print(*codes)
"""


def test_runs_with_scipy_blocked(tmp_path):
    assert modules_loaded_by(SCIPY_BLOCKED_CODE, str(tmp_path)) == ["0"] * 5


def test_literal_constants_equal_scipy():
    assert constants.HBAR == scipy.constants.hbar
    assert constants.C_LIGHT == scipy.constants.c
    assert constants.EPS0 == scipy.constants.epsilon_0
    assert constants.E_CHARGE == scipy.constants.elementary_charge
    assert constants.EV_TO_RAD_PER_S == constants.E_CHARGE / constants.HBAR
