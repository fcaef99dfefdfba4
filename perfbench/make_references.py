"""Regenerate perfbench/references.json from the current solver.

Usage, from the root of a checkout (takes a few minutes):

    python3 perfbench/make_references.py

Run it only on code whose outputs are trusted: the benchmark fails every
operation whose output leaves these values by more than 1e-10 relative.
Three kinds of reference exist:

  relative   a computed error; must match to 1e-10 relative
  roundoff   a quantity that is itself a relative difference or residual at
             roundoff level (oracle agreement, polynomial exactness); must
             stay within 1e-10 of the stored value
  quadratic  a transient energy; the run is linear in the seeded mode
             coefficients c, so the energy is c^T G c with G stored here
"""

import argparse
import json
import os
import subprocess
import sys
import time

import run
import worker

REFERENCE_SEED = 0
ROUNDOFF = {("oracles", "hybrid"), ("oracles", "monolithic_second"),
            ("oracles", "monolithic_first"), ("oracles", "flux_residual"),
            ("oracles", "energy_identity", "rel_diff")}


def kind(workload, op, key):
    if {(workload, op), (workload, op, key)} & ROUNDOFF:
        return "roundoff"
    return "relative"


def from_execution(workload, smoke):
    args = argparse.Namespace(workload=workload, seed=REFERENCE_SEED, smoke=smoke)
    result = run.run_worker(args, 0, time.perf_counter() + 600)
    refs = {}
    for op in result["ops"]:
        if op["error"]:
            raise RuntimeError(f"{workload} {op['op']} failed:\n{op['error']}")
        refs[op["op"]] = {key: {"kind": kind(workload, op["op"], key), "value": value}
                          for key, value in op["outputs"].items()}
    return refs


def transient_grams(mode):
    """Gram matrices of the final energies over the initial-state modes."""
    hdg = worker.import_solver()
    td = hdg.time_domain
    n, steps, _ = worker.TRANSIENT[mode]
    mesh = hdg.mesh.tag_boundary(hdg.mesh.build_structured_cube(n), "all-dirichlet")
    disc = hdg.discretization.Discretization(mesh, 1)
    material = hdg.materials.variable_preset()
    ncoef = len(worker.U_MODES) + len(worker.V_MODES)
    grams = {}
    for flux, label in (("conservative", "newmark"), ("dissipative", "trapezoid")):
        system = td.SemidiscreteSystem(disc, material, flux)
        finals = []
        for i in range(ncoef):
            state = td.initial_state(system, *worker.initial_fields(hdg.np.eye(ncoef)[i]))
            for _ in range(steps):
                state = system.step(state, worker.TRANSIENT_DT)
            finals.append(state)

        def energy(a, b):
            m = None if a.m is None else a.m + b.m
            return system.energy(td.TimeState(a.t, a.u + b.u, a.v + b.v, m))

        own = [system.energy(s) for s in finals]
        gram = [[own[i] if i == j else
                 0.5 * (energy(finals[i], finals[j]) - own[i] - own[j])
                 for j in range(ncoef)] for i in range(ncoef)]
        grams[label] = {"final_energy": {"kind": "quadratic", "gram": gram}}
    return grams


def main():
    if sys.argv[1:2] == ["--transient-grams"]:   # child with one BLAS thread
        print(json.dumps(transient_grams(sys.argv[2])))
        return 0
    refs = {}
    for mode in ("full", "smoke"):
        smoke = mode == "smoke"
        refs[mode] = {w: from_execution(w, smoke)
                      for w in ("ladder-k1", "ladder-k2", "oracles")}
        proc = subprocess.run(
            [sys.executable, __file__, "--transient-grams", mode],
            env=dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                     MKL_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1"),
            capture_output=True, text=True, check=True)
        refs[mode]["transient"] = json.loads(proc.stdout.splitlines()[-1])
    run.REFERENCES.write_text(json.dumps(refs, indent=1) + "\n")
    print(f"wrote {run.REFERENCES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
