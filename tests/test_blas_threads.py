"""Results must not depend on the BLAS thread count beyond roundoff."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

PRELUDE = r"""
import ctypes, glob, json, os, sys
import numpy as np
from hdg_elastic import (VARIANTS, Discretization, SemidiscreteSystem, TimeState,
                         build_structured_cube, compute_errors, make_case,
                         problem_data_from_case, solve_time_harmonic, tag_boundary,
                         variable_preset)

def blas_threads():
    # OpenBLAS bundled with numpy wheels; None where it cannot be found
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs",
                                  "libscipy_openblas*"))
    for path in libs:
        fn = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            return fn()
    return None
"""

# argv: output path, flux variant, then n and k of the varcoeff solve
SCRIPT = PRELUDE + r"""
case = make_case("varcoeff", kappa=1.0)
n, k = (int(a) for a in sys.argv[3:5])
disc = Discretization(tag_boundary(build_structured_cube(n), "mixed"), k)
sol, info = solve_time_harmonic(disc, case.material, problem_data_from_case(case),
                                VARIANTS[sys.argv[2]])
report = compute_errors(disc, case.material, case, sol)
np.savez(sys.argv[1], sigma=sol.sigma, u=sol.u, uhat=sol.uhat)
print(json.dumps({"threads": blas_threads(), "factor_dtype": info["factor_dtype"],
                  "errors": [report.err_u, report.err_sigma, report.rel_err_u,
                             report.rel_err_sigma, report.err_trace]}))
"""

# 20 steps from a random state: Newmark (conservative) or trapezoidal (dissipative)
STEPS_SCRIPT = PRELUDE + r"""
flux = sys.argv[2]
disc = Discretization(tag_boundary(build_structured_cube(2), "all-dirichlet"), 1)
system = SemidiscreteSystem(disc, variable_preset(), flux)
rng = np.random.default_rng(16)
state = TimeState(0.0, rng.standard_normal(system.nu), rng.standard_normal(system.nu),
                  None if flux == "conservative" else rng.standard_normal(system.nm))
for _ in range(20):
    state = system.step(state, 0.02)
fields = {"u": state.u, "v": state.v}
if state.m is not None:
    fields["m"] = state.m
np.savez(sys.argv[1], **fields)
print(json.dumps({"threads": blas_threads(), "errors": []}))
"""


def _run(tmp_path, threads, variant, script=SCRIPT, args=()):
    out = tmp_path / f"{variant}-threads{threads}.npz"
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               OMP_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC),
                                                        os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script, str(out), variant, *args], env=env,
                          capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if result["threads"] is not None:
        assert result["threads"] == threads
    with np.load(out) as arrays:
        return result, {k: arrays[k] for k in arrays.files}


def _compare_solves(tmp_path, variant, n, k):
    """Runs the solve at 1 and 2 BLAS threads; returns the two factor dtypes."""
    result1, fields1 = _run(tmp_path, 1, variant, args=(str(n), str(k)))
    result2, fields2 = _run(tmp_path, 2, variant, args=(str(n), str(k)))
    for a, b in zip(result1["errors"], result2["errors"]):
        assert abs(a - b) <= 1e-12 * abs(a)
    for name, a in fields1.items():
        b = fields2[name]
        assert np.abs(a - b).max() <= 1e-12 * np.abs(a).max(), name
    return result1["factor_dtype"], result2["factor_dtype"]


# first_order factors a complex skeleton matrix (complex64), conservative a real one (float32)
@pytest.mark.parametrize("variant", ["first_order", "conservative"])
def test_solve_independent_of_blas_threads(tmp_path, variant):
    _compare_solves(tmp_path, variant, 2, 1)


def test_front_kernels_independent_of_blas_threads(tmp_path):
    # the largest skeleton front at n=3 k=2 has 756 dofs, enough for
    # OpenBLAS to thread its getrf, getrs and gemm
    _compare_solves(tmp_path, "conservative", 3, 2)


def test_single_precision_factor_independent_of_blas_threads(tmp_path):
    # a real k=2 skeleton: float32 fronts (sgetrf, sgemm, sgemv), refined in float64
    assert _compare_solves(tmp_path, "conservative", 2, 2) == ("float32", "float32")


@pytest.mark.parametrize("flux", ["conservative", "dissipative"])
def test_steps_independent_of_blas_threads(tmp_path, flux):
    _, fields1 = _run(tmp_path, 1, flux, STEPS_SCRIPT)
    _, fields2 = _run(tmp_path, 2, flux, STEPS_SCRIPT)
    for name, a in fields1.items():
        assert np.abs(a - fields2[name]).max() <= 1e-12 * np.abs(a).max(), name
