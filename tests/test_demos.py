"""The demos run end to end."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_demo(name):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                         cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return run.stdout.splitlines()


def test_mesh_and_spaces_demo_runs():
    assert any("mixed tagging at n=2: 16 Dirichlet" in line
               for line in run_demo("mesh_and_spaces.py"))


# demos that drive make_case through a solve, each with one line of its results
@pytest.mark.parametrize("name, line", [
    ("convergence_study.py", " 4  0.4330  1.238e-01  2.82  1.420e+00  1.80          7200"),
    ("fixed_resolution_frequency_sweep.py", " 4   0.400   4.050e-05      1.860e-04"),
    ("plane_waves.py", "  pwave: EOC(u) = ['2.97', '2.97', '2.94'], "
                       "EOC(sigma) = ['1.96', '1.94', '1.93']"),
])
def test_case_demo_runs(name, line):
    assert line in run_demo(name)
