"""Semidiscrete energy laws and Newmark time stepping.

The semidiscretization of the transient elastic wave equation comes in three
flux flavours: a conservative one (exactly constant energy), a dissipative
one (energy decreases by the squared velocity mismatch between element traces
and the skeleton) and an accumulating one (the same term with opposite sign).
The demo verifies the three energy-rate identities on random states, then
time-steps the conservative system with the Newmark scheme and shows the
second-order energy drift: halving dt cuts the drift by a factor of ~4.
Last, it times the skeleton steps of all three fluxes on refined meshes
(n = 1..6 at k = 1, n = 3 at k = 2), each case in a fresh process so that its
peak RSS is its own. Each step size factors one skeleton matrix, on the first
step; every later step is one batched element load, one skeleton solve and
one batched recovery.

Usage::

    python demos/energy_conservation.py
"""

import multiprocessing
import resource
import time

import numpy as np

from hdg_elastic import (Discretization, SemidiscreteSystem, TimeState,
                         build_structured_cube, initial_state, tag_boundary)
from hdg_elastic.materials import isotropic, variable_preset
from hdg_elastic.time_domain import FLUXES


def u0(points):
    vals = np.zeros((len(points), 3))
    vals[:, 0] = (np.sin(np.pi * points[:, 0])
                  * np.sin(np.pi * points[:, 1])
                  * np.sin(np.pi * points[:, 2]))
    return vals


def v0(points):
    return np.zeros((len(points), 3))


def transient_cost(n, k, flux, dt=0.02, steps=100):
    """Step times, max relative energy drift and peak RSS of one run."""
    mesh = tag_boundary(build_structured_cube(n), "all-dirichlet")
    system = SemidiscreteSystem(Discretization(mesh, k), variable_preset(),
                                flux)
    state = initial_state(system, u0, v0)
    e0, drift, times = system.energy(state), 0.0, []
    for _ in range(steps):
        t0 = time.perf_counter()
        state = system.step(state, dt)
        times.append(time.perf_counter() - t0)
        drift = max(drift, abs(system.energy(state) - e0) / e0)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return dict(nu=system.nu, nm=system.nm, first_s=times[0],
                step_ms=1e3 * float(np.median(times[1:])), drift=drift,
                rss_mb=rss_mb)


def main():
    mesh = tag_boundary(build_structured_cube(1), "all-dirichlet")
    disc = Discretization(mesh, 1)

    print("energy-rate identities on a random state:")
    rng = np.random.default_rng(7)
    material = variable_preset()
    for flux in FLUXES:
        system = SemidiscreteSystem(disc, material, flux)
        m = None if flux == "conservative" else rng.standard_normal(system.nm)
        state = TimeState(0.0, rng.standard_normal(system.nu),
                          rng.standard_normal(system.nu), m)
        rate = system.energy_rate(state)
        if flux == "conservative":
            print(f"  {flux:12s}: dE/dt = {rate:+.6e} "
                  "(traces slaved, mismatch 0 by construction)")
        else:
            mism = system.velocity_mismatch(state)
            print(f"  {flux:12s}: dE/dt = {rate:+.6e}, "
                  f"|P_M v - m_dot|_tau^2 = {mism:.6e}")
    print("expected: 0 for conservative, +mismatch / -mismatch otherwise\n")

    system = SemidiscreteSystem(disc, isotropic(1.0, 1.0, 1.0),
                                "conservative")
    state0 = initial_state(system, u0, v0)
    e0 = system.energy(state0)
    print(f"Newmark stepping, conservative flux, E(0) = {e0:.6f}")
    print(f"{'dt':>6} {'steps':>6} {'max |E - E0| / E0':>18} {'ratio':>6}")
    prev = None
    for dt, steps in ((0.04, 100), (0.02, 200), (0.01, 400), (0.005, 800)):
        state, drift = state0, 0.0
        for _ in range(steps):
            state = system.step(state, dt)
            drift = max(drift, abs(system.energy(state) - e0))
        drift /= e0
        ratio = "" if prev is None else f"{prev / drift:6.2f}"
        print(f"{dt:6.3f} {steps:6d} {drift:18.3e} {ratio:>6}")
        prev = drift
    print("expected ratio -> 4 (second-order energy drift)\n")

    print("skeleton step cost, all-Dirichlet, dt=0.02, 100 steps (20 for "
          "accumulating, whose energy grows exponentially); the first step "
          "factors:")
    print(f"{'n':>2} {'k':>2} {'flux':>12} {'nu':>6} {'nm':>6} {'first step s':>12} "
          f"{'step ms':>8} {'max rel drift':>13} {'peak RSS MB':>11}")
    # one fresh process per case: the RSS high-water mark is per process
    ctx = multiprocessing.get_context("spawn")
    for n, k in ((1, 1), (2, 1), (3, 1), (4, 1), (5, 1), (6, 1), (3, 2)):
        for flux in FLUXES:
            steps = 20 if flux == "accumulating" else 100
            with ctx.Pool(1) as pool:
                r = pool.apply(transient_cost, (n, k, flux, 0.02, steps))
            print(f"{n:2d} {k:2d} {flux:>12} {r['nu']:6d} {r['nm']:6d} "
                  f"{r['first_s']:12.3f} {r['step_ms']:8.2f} "
                  f"{r['drift']:13.3e} {r['rss_mb']:11.0f}")


if __name__ == "__main__":
    main()
