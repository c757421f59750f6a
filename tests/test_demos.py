"""Smoke test: the fast demo scripts run to completion against the library.

``grating_scattering.py`` is left out: it takes about 28 s on two cores,
longer than the rest of this file together, and the grating layer it
drives is covered by ``test_grating.py``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

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
