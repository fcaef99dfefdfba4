"""End-to-end acceptance suite.

Each test covers one numbered acceptance criterion and prints a single
PASS/FAIL verdict line (run pytest with -s or read the captured output)
before asserting, so every verdict is visible even when a later criterion
fails.
"""

import time

import numpy as np
import pytest

from hdg_elastic import (
    VARIANTS,
    Discretization,
    SemidiscreteSystem,
    TimeState,
    build_structured_cube,
    initial_state,
    make_case,
    solve_monolithic,
    solve_time_harmonic,
    tag_boundary,
)
from hdg_elastic.cli import run_experiment
from hdg_elastic.errors import problem_data_from_case, run_energy_identity_check
from hdg_elastic.local_ops import condense_batch, element_blocks, resolution_flags
from hdg_elastic.materials import isotropic, variable_preset
from hdg_elastic.time_domain import FLUXES

from rate_windows import rate_windows_ok


def report(num, name, ok, detail):
    print(f"\nCRITERION {num:2d} {'PASS' if ok else 'FAIL'} — {name}: {detail}")


def _finest_pair_rates(test, variant, k, **kwargs):
    rows, _ = run_experiment(test, variant, k, [1, 2, 3, 4], **kwargs)
    return float(rows[-1]["eoc_u"]), float(rows[-1]["eoc_sigma"]), rows


def test_criterion_01_polynomial_exactness():
    t0 = time.monotonic()
    rows, _ = run_experiment("polynomial", "first-order", 1, [2])
    elapsed = time.monotonic() - t0
    row = rows[0]
    ok = (row["rel_err_u"] <= 1e-9 and row["rel_err_sigma"] <= 1e-9
          and elapsed < 10.0)
    report(1, "polynomial exactness (k=1, n=2, mixed BCs)", ok,
           f"rel_err_u={row['rel_err_u']:.2e}, "
           f"rel_err_sigma={row['rel_err_sigma']:.2e}, runtime={elapsed:.1f}s")
    assert row["rel_err_u"] <= 1e-9
    assert row["rel_err_sigma"] <= 1e-9
    assert elapsed < 10.0


@pytest.mark.parametrize("k", [1, 2])
def test_criterion_02_optimal_rates_first_order(k):
    eoc_u, eoc_s, _ = _finest_pair_rates("varcoeff", "first-order", k)
    ok_u, ok_s = rate_windows_ok(eoc_u, eoc_s, k)
    report(2, f"optimal rates, first-order variant (k={k})", ok_u and ok_s,
           f"EOC(u)={eoc_u:.2f} (target {k + 2}), "
           f"EOC(sigma)={eoc_s:.2f} (target {k + 1})")
    assert ok_u and ok_s


def test_optimal_rates_first_order_k3():
    rows, _ = run_experiment("varcoeff", "first-order", 3, [1, 2, 3])
    eoc_u, eoc_s = float(rows[-1]["eoc_u"]), float(rows[-1]["eoc_sigma"])
    ok_u, ok_s = rate_windows_ok(eoc_u, eoc_s, 3)
    assert ok_u and ok_s, f"EOC(u)={eoc_u:.2f} (target 5), EOC(sigma)={eoc_s:.2f} (target 4)"


@pytest.mark.parametrize("wave", ["pwave", "swave"])
def test_criterion_03_plane_waves(wave):
    eoc_u, eoc_s, rows = _finest_pair_rates(wave, "first-order", 1, kappa=1.0)
    ok_u, ok_s = rate_windows_ok(eoc_u, eoc_s, 1)
    report(3, f"plane-wave rates ({wave}, k=1, all-Dirichlet)", ok_u and ok_s,
           f"EOC(u)={eoc_u:.2f} (target 3), EOC(sigma)={eoc_s:.2f} (target 2)")
    assert ok_u and ok_s


@pytest.mark.parametrize("k", [1, 2])
def test_criterion_04_conservative_rates(k):
    eoc_u, eoc_s, _ = _finest_pair_rates("varcoeff", "second-order", k)
    ok_u, ok_s = rate_windows_ok(eoc_u, eoc_s, k)
    report(4, f"conservative-variant rates (k={k})", ok_u and ok_s,
           f"EOC(u)={eoc_u:.2f} (target {k + 2}), "
           f"EOC(sigma)={eoc_s:.2f} (target {k + 1})")
    assert ok_u and ok_s


def test_criterion_04_conservative_steady_state():
    # kappa = 0 limit: the conservative flux keeps the local and global
    # systems regular, so the static problem solves without singularity flags.
    case = make_case("varcoeff", kappa=0.0)
    mesh = tag_boundary(build_structured_cube(2), "mixed")
    disc = Discretization(mesh, 1)
    sol, info = solve_time_harmonic(disc, variable_preset(), problem_data_from_case(case),
                                    VARIANTS["conservative"])
    flagged = info["flagged_elements"]
    finite = all(np.isfinite(arr).all()
                 for arr in (sol.u, sol.sigma, sol.uhat))
    ok = flagged == 0 and finite
    report(4, "conservative steady state (kappa=0)", ok,
           f"flagged elements={flagged}/{mesh.num_elements}, "
           f"finite solution={finite}")
    assert ok


def test_criterion_05_energy_identity():
    lhs, rhs, rel = run_energy_identity_check(n=2, k=1, kappa=1.0,
                                              exactness=20)
    ok = rel <= 1e-8
    report(5, "energy identity (varcoeff, n=2, k=1)", ok,
           f"lhs={lhs:.6e}, rhs={rhs:.6e}, rel diff={rel:.2e}")
    assert ok


def test_criterion_06_hybridization_matches_monolithic():
    case = make_case("varcoeff", kappa=1.0)
    mesh = tag_boundary(build_structured_cube(1), "mixed")
    disc = Discretization(mesh, 1)
    data = problem_data_from_case(case)
    variant = VARIANTS["first_order"]
    sol, _ = solve_time_harmonic(disc, case.material, data, variant)
    ref = solve_monolithic(disc, case.material, data, variant, form="first")

    def rel(a, b):
        return np.abs(a - b).max() / max(np.abs(b).max(), 1e-30)

    errs = {
        "u": rel(ref.u, sol.u),
        "sigma": rel(ref.sigma, sol.first_order_stress()),
        "uhat": rel(ref.uhat, sol.uhat),
    }
    ok = max(errs.values()) <= 1e-9
    report(6, "hybrid solve matches monolithic first-order solve", ok,
           ", ".join(f"{k}: {v:.2e}" for k, v in errs.items()))
    assert ok


def test_criterion_07_semidiscrete_energy_laws():
    mesh = tag_boundary(build_structured_cube(1), "all-dirichlet")
    disc = Discretization(mesh, 1)
    material = variable_preset()
    worst = {flux: 0.0 for flux in FLUXES}
    for flux in FLUXES:
        system = SemidiscreteSystem(disc, material, flux)
        rng = np.random.default_rng(2026)
        for _ in range(20):
            u = rng.standard_normal(system.nu)
            v = rng.standard_normal(system.nu)
            m = None if flux == "conservative" \
                else rng.standard_normal(system.nm)
            state = TimeState(0.0, u, v, m)
            rate = system.energy_rate(state)
            if flux == "conservative":
                worst[flux] = max(worst[flux],
                                  abs(rate) / system.energy(state))
            else:
                expected = system.velocity_mismatch(state)
                if flux == "dissipative":
                    expected = -expected
                worst[flux] = max(worst[flux], abs(rate - expected)
                                  / max(abs(expected), 1.0))
    ok = all(w <= 1e-10 for w in worst.values())
    report(7, "semidiscrete energy laws (20 random states per flux)", ok,
           ", ".join(f"{f}: {w:.2e}" for f, w in worst.items()))
    assert ok


def _newmark_drift(system, state0, dt, steps):
    e0 = system.energy(state0)
    state = state0
    worst = 0.0
    for _ in range(steps):
        state = system.step(state, dt)
        worst = max(worst, abs(system.energy(state) - e0))
    return worst / e0


def test_criterion_08_newmark_second_order_drift():
    mesh = tag_boundary(build_structured_cube(1), "all-dirichlet")
    disc = Discretization(mesh, 1)
    material = isotropic(1.0, 1.0, 1.0)
    system = SemidiscreteSystem(disc, material, "conservative")

    def u0(points):
        vals = np.zeros((len(points), 3))
        vals[:, 0] = (np.sin(np.pi * points[:, 0])
                      * np.sin(np.pi * points[:, 1])
                      * np.sin(np.pi * points[:, 2]))
        return vals

    def v0(points):
        return np.zeros((len(points), 3))

    state0 = initial_state(system, u0, v0)
    coarse = _newmark_drift(system, state0, 0.02, 200)
    fine = _newmark_drift(system, state0, 0.01, 400)
    ratio = coarse / fine
    ok = 3.0 <= ratio <= 5.0
    report(8, "Newmark energy drift halves twice with dt halved", ok,
           f"drift(dt=0.02)={coarse:.3e}, drift(dt=0.01)={fine:.3e}, "
           f"ratio={ratio:.2f} (window [3, 5])")
    assert ok


def test_criterion_09_fixed_h_kappa_impedance():
    rows, _ = run_experiment("hk-const", "first-order", 1, [1, 2, 3, 4])
    rel_u = [row["rel_err_u"] for row in rows]
    rel_s = [row["rel_err_sigma"] for row in rows]
    bounded = (all(e <= 2.0 * rel_u[0] for e in rel_u)
               and all(e <= 2.0 * rel_s[0] for e in rel_s))
    nonincreasing = all(rel_u[i + 1] <= rel_u[i] * (1 + 1e-12)
                        for i in range(len(rel_u) - 1))
    ok = bounded and nonincreasing
    report(9, "fixed h*kappa impedance sweep (h*kappa=sqrt(3)/10)", ok,
           f"rel_err_u={[f'{e:.2e}' for e in rel_u]}, "
           f"rel_err_sigma={[f'{e:.2e}' for e in rel_s]}, "
           f"bounded(2x)={bounded}, u non-increasing={nonincreasing}")
    assert ok


def test_criterion_10_local_solver_conditioning():
    mesh = tag_boundary(build_structured_cube(1), "mixed")
    disc = Discretization(mesh, 1)
    blocks = element_blocks(disc, variable_preset(), [0])
    variant = VARIANTS["first_order"]
    zero_f = np.zeros((1, blocks.nW3))
    # The first-order flux loses invertibility only in the kappa=0 limit;
    # throughout the resolved regime kappa*h_K <= 0.1 the solver's exact
    # cond(C, 1) must stay far below the singularity-detection threshold and
    # no element may be flagged as under-resolved.
    conds, flags = [], []
    for kh in np.logspace(-3, -1, 25):
        kappa = kh / blocks.h[0]
        conds.append(condense_batch(blocks, kappa ** 2, variant.alpha(kappa), zero_f)[4][0])
        flags.append(bool(resolution_flags(kappa, blocks.h, blocks.wave_bound)[0]))
    bounded = max(conds) <= 1e6
    # zero traces and zero load: the interior unknowns X m + z vanish
    _, _, X, z, _ = condense_batch(blocks, 1.0, variant.alpha(1.0), zero_f)
    x = X[0] @ np.zeros(blocks.nM) + z[0]
    s, u = x[:blocks.nS], x[blocks.nS:]
    zero_ok = (np.abs(s).max() <= 1e-12 and np.abs(u).max() <= 1e-12)
    ok = bounded and not any(flags) and zero_ok
    report(10, "local factorization conditioning on kappa*h <= 0.1 sweep", ok,
           f"cond range [{min(conds):.2e}, {max(conds):.2e}], "
           f"flagged={sum(flags)}/{len(flags)}, zero-data solve max "
           f"|s|,|u| = {max(np.abs(s).max(), np.abs(u).max()):.2e}")
    assert ok
