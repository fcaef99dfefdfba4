"""One execution of one workload in a fresh process.

Usage (run.py starts it; the BLAS thread variables must be set in the
environment, because the BLAS reads them when numpy is first imported):

    python3 perfbench/worker.py --workload ladder-k1 --seed 1 --trace 0 [--smoke]

Prints one JSON object on its last line: the outputs of every operation,
the timings the workload takes itself, and, with --trace 1, the per-layer
metrics computed from the recorded spans. Exits non-zero when the solver
package cannot be imported from the checkout's src/.
"""

import argparse
import json
import resource
import sys
import time
import traceback
import types
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

LADDER_NS = {"full": [1, 2, 3, 4], "smoke": [1, 2]}
# transient: mesh subdivisions, steps per integrator, energy sampling stride
TRANSIENT = {"full": (2, 200, 50), "smoke": (1, 5, 2)}
TRANSIENT_DT = 0.02
ORACLE_N = {"full": 2, "smoke": 1}

# Smooth initial fields vanishing on the boundary: (component, a, b, c) for
# sin(a pi x) sin(b pi y) sin(c pi z). The seed draws one coefficient per
# mode; the run is linear in them, so final energies are quadratic forms in
# the coefficients and references hold for every seed.
U_MODES = ((0, 1, 1, 1), (1, 1, 2, 1), (2, 2, 1, 1), (0, 1, 1, 2))
V_MODES = ((1, 1, 1, 1), (2, 1, 1, 2))


def initial_coefficients(seed):
    import numpy as np
    return np.random.default_rng(seed).standard_normal(len(U_MODES) + len(V_MODES))


def _mode_field(modes, coeffs):
    import numpy as np

    def field(points):
        points = np.asarray(points)
        vals = np.zeros(points.shape[:-1] + (3,))
        for c, (d, a, b, g) in zip(coeffs, modes):
            vals[..., d] += c * (np.sin(a * np.pi * points[..., 0])
                                 * np.sin(b * np.pi * points[..., 1])
                                 * np.sin(g * np.pi * points[..., 2]))
        return vals

    return field


def initial_fields(coeffs):
    nu = len(U_MODES)
    return _mode_field(U_MODES, coeffs[:nu]), _mode_field(V_MODES, coeffs[nu:])


class Ops:
    """Operations attempted, each with its outputs or the error it raised."""

    def __init__(self):
        self.items = []

    def add(self, name, outputs, error=None, seconds=0.0):
        self.items.append({"op": name, "outputs": outputs, "error": error,
                           "seconds": seconds})

    def run(self, name, fn):
        t0 = time.perf_counter()
        try:
            outputs, error = fn(), None
        except Exception:   # a failing operation is counted, the run goes on
            outputs, error = {}, traceback.format_exc(limit=3)
        self.add(name, outputs, error, time.perf_counter() - t0)


def stub_solves(hdg):
    """Replace the solves and error evaluations, in the modules that call
    them, by cheap stand-ins. A set-up-only execution then runs the program's
    own harness (cli.run_experiment, errors.run_energy_identity_check), so
    its set-up time comes from the same code as that of a full execution."""
    def solve(*args, **kwargs):
        return None, {"dofs_skeleton": 0, "dofs_total": 0,
                      "assemble_s": 0.0, "solve_s": 0.0}

    def error_report(*args, **kwargs):
        return types.SimpleNamespace(h=1.0, err_u=0.0, err_sigma=0.0,
                                     rel_err_u=0.0, rel_err_sigma=0.0)

    hdg.cli.solve_time_harmonic = hdg.errors.solve_time_harmonic = solve
    hdg.cli.compute_errors = error_report
    hdg.errors.energy_identity_sides = lambda *args, **kwargs: (1.0, 1.0)


def ladder(hdg, ops, rec, seed, mode, setup_only, k, variant):
    """The paper's varcoeff convergence ladder through the CLI harness."""
    ns = LADDER_NS[mode]
    if setup_only:
        stub_solves(hdg)
        hdg.cli.run_experiment("varcoeff", variant, k, ns)
        return {}
    try:
        rows, error = hdg.cli.run_experiment("varcoeff", variant, k, ns)[0], None
    except Exception:   # every solve of the ladder counts as failed
        rows, error = [], traceback.format_exc(limit=3)
    for n in ns:
        row = next((r for r in rows if r["n"] == n), None)
        ops.add(f"solve_n{n}", {"rel_err_u": row["rel_err_u"],
                                "rel_err_sigma": row["rel_err_sigma"]}
                if row else {}, error)
    solves = rec.durations("global_system.solve_time_harmonic")
    return {"finest_solve_s": solves[-1] if solves else 0.0}


def transient(hdg, ops, rec, seed, mode, setup_only):
    """Conservative Newmark and dissipative trapezoidal stepping, no hybrid solve.

    Set-up ends after the first step of each integrator, which factors."""
    td = hdg.time_domain
    n, steps, stride = TRANSIENT[mode]
    steps = 1 if setup_only else steps
    mesh = hdg.mesh.tag_boundary(hdg.mesh.build_structured_cube(n), "all-dirichlet")
    disc = hdg.discretization.Discretization(mesh, 1)
    material = hdg.materials.variable_preset()
    u0, v0 = initial_fields(initial_coefficients(seed))
    extra = {"first_step_s": 0.0}
    for flux, label in (("conservative", "newmark"), ("dissipative", "trapezoid")):
        step_ms = []

        def run():
            system = td.SemidiscreteSystem(disc, material, flux)
            state = td.initial_state(system, u0, v0)
            energies = [system.energy(state)]
            t0 = time.perf_counter()
            state = system.step(state, TRANSIENT_DT)
            extra["first_step_s"] += time.perf_counter() - t0
            for i in range(1, steps):
                t0 = time.perf_counter()
                state = system.step(state, TRANSIENT_DT)
                step_ms.append(1e3 * (time.perf_counter() - t0))
                if (i + 1) % stride == 0 and i + 1 < steps:
                    energies.append(system.energy(state))
            energies.append(system.energy(state))
            extra[f"{label}_max_rel_drift"] = max(
                abs(e - energies[0]) for e in energies) / energies[0]
            return {"final_energy": energies[-1]}

        ops.run(label, run)
        extra[f"{label}_step_ms"] = step_ms
    return extra


def oracles(hdg, ops, rec, seed, mode, setup_only):
    """Hybrid solve of a seeded polynomial case and the independent oracles."""
    np, gs, errors = hdg.np, hdg.global_system, hdg.errors
    n = ORACLE_N[mode]
    case = hdg.cases.make_case("polynomial", kappa=1.0, k=1, seed=seed)
    mesh = hdg.mesh.tag_boundary(hdg.mesh.build_structured_cube(n), "mixed")
    disc = hdg.discretization.Discretization(mesh, 1)
    if setup_only:
        stub_solves(hdg)
        errors.run_energy_identity_check(n=n)
        return {}
    data = errors.problem_data_from_case(case)
    variant = hdg.local_ops.VARIANTS["first_order"]
    sol = None

    def rel(a, b):
        return float(np.abs(a - b).max() / max(np.abs(b).max(), 1e-300))

    def hybrid():
        nonlocal sol
        sol, _ = gs.solve_time_harmonic(disc, case.material, data, variant)
        report = errors.compute_errors(disc, case.material, case, sol)
        return {"rel_err_u": report.rel_err_u, "rel_err_sigma": report.rel_err_sigma}

    def monolithic(form):
        def run():
            ref = gs.solve_monolithic(disc, case.material, data, variant, form=form)
            sigma = sol.first_order_stress() if form == "first" else sol.sigma
            return {"diff": max(rel(ref.u, sol.u), rel(ref.sigma, sigma),
                                rel(ref.uhat, sol.uhat))}
        return run

    def energy_identity():
        lhs, rhs, rel_diff = errors.run_energy_identity_check(n=n)
        return {"abs_lhs": float(abs(lhs)), "rel_diff": float(rel_diff)}

    ops.run("hybrid", hybrid)
    ops.run("monolithic_second", monolithic("second"))
    ops.run("monolithic_first", monolithic("first"))
    ops.run("flux_residual", lambda: {"residual": gs.flux_residual(
        disc, case.material, data, variant, sol)})
    ops.run("energy_identity", energy_identity)
    return {}


WORKLOADS = {
    "ladder-k1": lambda *a: ladder(*a, k=1, variant="first-order"),
    "ladder-k2": lambda *a: ladder(*a, k=2, variant="second-order"),
    "transient": transient,
    "oracles": oracles,
}


def import_solver():
    """Import the solver from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import numpy as np
    import scipy
    import hdg_elastic
    from hdg_elastic import (cases, cli, discretization, errors, global_system,
                             local_ops, materials, mesh, time_domain)
    if Path(hdg_elastic.__file__).resolve().parent != src / "hdg_elastic":
        raise ImportError(f"hdg_elastic imported from {hdg_elastic.__file__}, "
                          f"not from {src}")
    return types.SimpleNamespace(np=np, scipy=scipy, cases=cases, cli=cli,
                                 discretization=discretization, errors=errors,
                                 global_system=global_system, local_ops=local_ops,
                                 materials=materials, mesh=mesh,
                                 time_domain=time_domain)


def layer_metrics(rec, wall_s, cpu_s):
    """Per-layer metrics from the spans of one traced execution."""
    selfs = rec.self_times()

    def self_s(name):
        return selfs.get(name, (0.0, 0))[0]

    def attrs(name, key):
        return [a[key] for n, a in zip(rec.names, rec.attrs) if n == name]

    element_solves = sum(attrs("global_system.solve_time_harmonic", "elements"))
    blocks = rec.count("local_ops.assemble_local_blocks")
    # complex LU (8n^3/3 real flops) plus the explicit inverse that the
    # 1-norm condition number forms (8n^3); computed from sizes, not counted
    factor_flops = sum(8.0 * n ** 3 / 3.0 + 8.0 * n ** 3
                       for n in attrs("local_ops.factorize_local", "n"))
    return {
        "local_ops.assemble_local_blocks_s": rec.total("local_ops.assemble_local_blocks"),
        "local_ops.factorize_local_s": rec.total("local_ops.factorize_local"),
        "local_ops.condense_s": rec.total("local_ops.condense"),
        "local_ops.recover_s": rec.total("local_ops.recover"),
        "local_ops.assemble_local_blocks_calls": blocks,
        "local_ops.factorize_local_calls": rec.count("local_ops.factorize_local"),
        "local_ops.blocks_per_element": blocks / element_solves if element_solves else 0.0,
        "local_ops.factor_flops": factor_flops,
        "process.cpu_s": cpu_s,
        "process.cpu_per_wall": cpu_s / wall_s,
        "global_system.assemble_hybrid_self_s": self_s("global_system.assemble_hybrid"),
        "global_system.load_moments_s": rec.total("global_system.load_moments"),
        "global_system.solve_skeleton_s": rec.total("global_system.solve_skeleton"),
        "global_system.skeleton_dofs": max(attrs("global_system.solve_skeleton", "dofs"),
                                           default=0),
        "global_system.skeleton_nnz": max(attrs("global_system.solve_skeleton", "nnz"),
                                          default=0),
        "global_system.reconstruct_self_s": self_s("global_system.reconstruct"),
        "errors.compute_errors_s": rec.total("errors.compute_errors"),
        "cases.make_case_s": rec.total("cases.make_case"),
        "cases.make_case_calls": rec.count("cases.make_case"),
        "mesh.build_s": rec.total("mesh.build_structured_cube")
        + rec.total("mesh.tag_boundary"),
        "discretization.init_s": rec.total("discretization.init"),
        "global_system.assemble_monolithic_s": rec.total("global_system.assemble_monolithic"),
        "global_system.solve_monolithic_self_s": self_s("global_system.solve_monolithic"),
        "global_system.flux_residual_s": rec.total("global_system.flux_residual"),
        "errors.energy_identity_s": rec.total("errors.energy_identity_sides"),
        "time_domain.system_build_s": rec.total("time_domain.system_build"),
        "time_domain.initial_state_s": rec.total("time_domain.initial_state"),
        "time_domain.effective_stiffness_s": rec.total("time_domain.effective_stiffness"),
        "time_domain.newmark_factor_s": rec.total("time_domain.newmark_factor"),
        "time_domain.first_order_operator_s": rec.total("time_domain.first_order_operator"),
        "time_domain.trapezoid_factor_s": rec.total("time_domain.trapezoid_factor"),
        "time_domain.step_s": self_s("time_domain.step"),
        "time_domain.energy_s": rec.total("time_domain.energy"),
        "cli.run_experiment_self_s": self_s("cli.run_experiment"),
        "trace.spans": len(rec.names),
        "trace.self_s_sum": sum(s for s, _ in selfs.values()),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true",
                        help="run the workload's set-up, with its solves stubbed")
    parser.add_argument("--spans-out", help="file to write the recorded spans to")
    args = parser.parse_args(argv)
    mode = "smoke" if args.smoke else "full"

    t0 = time.perf_counter()
    hdg = import_solver()
    import_s = time.perf_counter() - t0
    rec = tracing.Recorder()
    rec.install(tracing.TARGETS if args.trace else tracing.LIGHT_SPANS)
    ops = Ops()
    extra = WORKLOADS[args.workload](hdg, ops, rec, args.seed, mode, args.setup_only)
    wall_s = time.perf_counter() - t0

    usage = resource.getrusage(resource.RUSAGE_SELF)
    cpu_s = usage.ru_utime + usage.ru_stime
    setup_s = (import_s + sum(rec.total(s) for s in tracing.SETUP_SPANS)
               + extra.pop("first_step_s", 0.0))
    out = {"wall_s": wall_s, "setup_s": setup_s, "import_s": import_s,
           "peak_rss_mb": usage.ru_maxrss / 1024.0, "cpu_s": cpu_s,
           "ops": ops.items, **extra,
           "versions": {"numpy": hdg.np.__version__,
                        "scipy": hdg.scipy.__version__,
                        "blas": blas_info(hdg.np)}}
    if args.trace:
        out["layers"] = layer_metrics(rec, wall_s, cpu_s)
        out["self_times"] = rec.self_times()
        if args.spans_out:
            with open(args.spans_out, "w") as fh:
                json.dump(rec.spans(t0), fh)
    print(json.dumps(out))
    return 0


def blas_info(np):
    """Name and version of the BLAS numpy was built against."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


if __name__ == "__main__":
    sys.exit(main())
