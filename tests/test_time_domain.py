"""Transient semidiscretization: energy laws, slaving, stepping, traces."""

import csv
from dataclasses import replace

import numpy as np
import pytest

from hdg_elastic import global_system
from hdg_elastic import (FLUXES, VARIANTS, Discretization, SemidiscreteSystem,
                         SingularSystemError, TimeState, assemble_monolithic, build_structured_cube,
                         isotropic, load_mesh, make_case, tag_boundary, variable_preset,
                         write_energy_trace)
from hdg_elastic.global_system import ProblemData
from hdg_elastic.mesh import BoundaryTag


@pytest.fixture(scope="module")
def systems():
    mesh = tag_boundary(build_structured_cube(1), "all-dirichlet")
    disc = Discretization(mesh, 1)
    mat = variable_preset()
    return disc, mat, {flux: SemidiscreteSystem(disc, mat, flux)
                       for flux in FLUXES}


@pytest.fixture(scope="module")
def tetrahedron(tmp_path_factory):
    """One all-Dirichlet tetrahedron: no skeleton unknowns at all."""
    path = tmp_path_factory.mktemp("mesh") / "tet.txt"
    path.write_text("4 1\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n0 1 2 3\n")
    return Discretization(tag_boundary(load_mesh(path), "all-dirichlet"), 1)


def random_state(system, seed):
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(system.nu)
    v = rng.standard_normal(system.nu)
    m = None if system.flux == "conservative" \
        else rng.standard_normal(system.nm)
    return TimeState(0.0, u, v, m)


def test_rejects_unknown_flux(systems):
    disc, mat, _ = systems
    with pytest.raises(ValueError):
        SemidiscreteSystem(disc, mat, "reflecting")


@pytest.mark.parametrize("flux", FLUXES)
def test_rejects_impedance_faces(flux):
    # the time domain has no absorbing condition; an impedance face must not
    # run as a traction-free one
    disc = Discretization(tag_boundary(build_structured_cube(1), "impedance"), 1)
    with pytest.raises(ValueError, match="IMPEDANCE"):
        SemidiscreteSystem(disc, variable_preset(), flux)


def test_rejects_nonpositive_dt(systems):
    _, _, sys_map = systems
    state = random_state(sys_map["conservative"], 0)
    with pytest.raises(ValueError):
        sys_map["conservative"].step(state, 0.0)
    for flux in ("conservative", "dissipative"):
        state = random_state(sys_map[flux], 0)
        for dt in (np.nan, np.inf):
            with pytest.raises(ValueError):
                sys_map[flux].step(state, dt)


def test_zero_state_stays_zero(systems):
    _, _, sys_map = systems
    for flux, system in sys_map.items():
        m = None if flux == "conservative" else np.zeros(system.nm)
        state = TimeState(0.0, np.zeros(system.nu), np.zeros(system.nu), m)
        for _ in range(5):
            state = system.step(state, 0.05)
        assert np.abs(state.u).max() == 0
        assert np.abs(state.v).max() == 0


def test_energy_zero_and_scaling(systems):
    _, _, sys_map = systems
    for flux, system in sys_map.items():
        m = None if flux == "conservative" else np.zeros(system.nm)
        zero = TimeState(0.0, np.zeros(system.nu), np.zeros(system.nu), m)
        assert system.energy(zero) == 0.0
        st = random_state(system, 1)
        st3 = TimeState(0.0, 3 * st.u, 3 * st.v,
                        None if st.m is None else 3 * st.m)
        assert abs(system.energy(st3) - 9 * system.energy(st)) \
            < 1e-10 * system.energy(st3)


def test_energy_matches_quadrature(systems):
    # E = 1/2 int A sigma:sigma + 1/2 int rho |v|^2 (+ interface term)
    disc, mat, sys_map = systems
    from hdg_elastic.materials import FROBENIUS_WEIGHTS
    system = sys_map["conservative"]
    st = random_state(system, 2)
    s, m = system.slave_conservative(st.u)
    mesh = disc.mesh
    nS, nW3 = 6 * disc.nV, 3 * disc.nW
    # interface term separately, then compare the bulk part to quadrature
    interface = 0.5 * system._tau_form(st.u, m)
    bulk = system.energy(st) - interface
    e_bulk = 0.0
    for e in range(mesh.num_elements):
        pts, wts = disc.element_points(e), disc.element_weights(e)
        sc = s[e * nS:(e + 1) * nS].reshape(6, disc.nV)
        vc = st.v[e * nW3:(e + 1) * nW3].reshape(3, disc.nW)
        sig = disc.eval_v_packed(e, sc, pts)
        comp = mat.compliance_packed(pts)
        asig = np.einsum("qab,qb->qa", comp, sig)
        e_bulk += 0.5 * np.einsum("q,a,qa,qa->", wts, FROBENIUS_WEIGHTS,
                                  asig, sig).real
        vv = disc.eval_w(e, vc, pts)
        e_bulk += 0.5 * np.einsum("q,q,qd->", wts, mat.rho(pts),
                                  np.abs(vv) ** 2)
    assert abs(bulk - e_bulk) < 1e-12 * max(abs(bulk), 1.0)
    # interface term by face quadrature, summed over element-face pairs
    e_int = 0.0
    for e in range(mesh.num_elements):
        uc = st.u[e * nW3:(e + 1) * nW3].reshape(3, disc.nW)
        for lf in range(4):
            fi = mesh.element_faces[e, lf]
            if mesh.face_tags[fi] == BoundaryTag.DIRICHLET:
                mhat = np.zeros(3 * disc.nF)
            else:
                position = np.flatnonzero(system.skeleton.active == fi)[0]
                mhat = m.reshape(-1, 3 * disc.nF)[position]
            tru = disc.eval_w(e, uc, disc.face_points[fi])
            pmu = np.einsum("q,qd,ql->dl", disc.face_weights[fi], tru, disc.face_chi[fi]).ravel()
            diff = pmu - mhat
            e_int += 0.5 * disc.tau(e) * diff @ diff
    assert abs(interface - e_int) < 1e-12 * max(abs(interface), 1.0)


def test_conservative_slaving_residual(systems):
    _, _, sys_map = systems
    system = sys_map["conservative"]
    st = random_state(system, 3)
    s, m = system.slave_conservative(st.u)
    r1 = system.A @ s + system.D.T @ st.u - system.N.T @ m
    r2 = system.N @ s - system.T12.T @ st.u + system.t22 * m
    scale = max(np.abs(s).max(), np.abs(st.u).max())
    assert np.abs(r1).max() < 1e-11 * scale
    assert np.abs(r2).max() < 1e-11 * scale


def _monolithic_blocks(disc, mat, kappa, variant, system):
    """Extract global blocks of the frequency-domain system restricted to
    non-Dirichlet skeleton dofs, for comparison with the transient blocks."""
    data = ProblemData(kappa=kappa)
    mono, _, layout = assemble_monolithic(disc, mat, data, variant)
    nS, nW3, nFd, off_s, off_u, off_m, ndof = layout
    mono = mono.tocsr()
    idx_m = np.concatenate([off_m + fi * nFd + np.arange(nFd)
                            for fi in system.skeleton.active])
    idx_s = off_s + np.arange(system.ns)
    idx_u = off_u + np.arange(system.nu)
    return mono, idx_s, idx_u, idx_m


@pytest.mark.parametrize("flux,variant_name,kappa", [
    ("conservative", "conservative", 1.0),
    ("accumulating", "first_order", 0.8),
    ("dissipative", "time_reversed", 0.8),
])
def test_fourier_correspondence(systems, flux, variant_name, kappa):
    # harmonic ansatz in the transient blocks reproduces the alpha-family
    # frequency matrix of the matching variant
    disc, mat, sys_map = systems
    system = sys_map[flux]
    variant = VARIANTS[variant_name]
    alpha = variant.alpha(kappa)
    mono, idx_s, idx_u, idx_m = _monolithic_blocks(disc, mat, kappa,
                                                   variant, system)
    sub = lambda rows, cols: mono[np.ix_(rows, cols)].toarray()
    tol = 1e-12
    norm = np.abs(system.A.toarray()).max()
    assert np.abs(sub(idx_s, idx_s) - system.A.toarray()).max() < tol * norm
    assert np.abs(sub(idx_s, idx_u) - system.D.T.toarray()).max() < tol * norm
    assert np.abs(sub(idx_s, idx_m) + system.N.T.toarray()).max() < tol * norm
    row_u = kappa ** 2 * system.M.toarray() - alpha * system.T11.toarray()
    assert np.abs(sub(idx_u, idx_u) - row_u).max() < tol * np.abs(row_u).max()
    assert np.abs(sub(idx_u, idx_m) - alpha * system.T12.toarray()).max() \
        < tol * np.abs(system.T12.toarray()).max()
    assert np.abs(sub(idx_m, idx_s) - system.N.toarray()).max() < tol
    assert np.abs(sub(idx_m, idx_u) + alpha * system.T12.T.toarray()).max() \
        < tol * np.abs(system.T12.toarray()).max()
    assert np.abs(sub(idx_m, idx_m) - alpha * np.diag(system.t22)).max() \
        < tol * system.t22.max()


def test_energy_rate_identities(systems):
    _, _, sys_map = systems
    for flux, system in sys_map.items():
        for seed in range(5):
            st = random_state(system, 100 + seed)
            rate = system.energy_rate(st)
            if flux == "conservative":
                assert abs(rate) <= 1e-10 * system.energy(st)
            else:
                expected = system.velocity_mismatch(st)
                if flux == "dissipative":
                    expected = -expected
                assert abs(rate - expected) <= 1e-10 * max(abs(expected), 1.0)


def test_effective_stiffness_spd(systems):
    _, _, sys_map = systems
    K = sys_map["conservative"].effective_stiffness()
    assert np.abs(K - K.T).max() < 1e-12 * np.abs(K).max()
    assert np.linalg.eigvalsh(K).min() > -1e-10 * np.abs(K).max()


def test_dissipative_nonincreasing(systems, tetrahedron):
    _, mat, sys_map = systems
    for system in (sys_map["dissipative"], SemidiscreteSystem(tetrahedron, mat, "dissipative")):
        state = random_state(system, 9)
        prev = system.energy(state)
        for _ in range(50):
            state = system.step(state, 0.02)
            cur = system.energy(state)
            assert cur <= prev + 1e-10 * max(prev, 1.0)
            prev = cur


def test_conservative_bounded_drift(systems, tetrahedron):
    _, mat, sys_map = systems
    for system in (sys_map["conservative"], SemidiscreteSystem(tetrahedron, mat, "conservative")):
        state = random_state(system, 10)
        e0 = system.energy(state)
        energies = [e0]
        for _ in range(100):
            state = system.step(state, 0.01)
            energies.append(system.energy(state))
        drift = (max(energies) - min(energies)) / e0
        assert drift < 0.05


def test_accumulating_nondecreasing_exact_flow(systems):
    # the exact semidiscrete flow has nonnegative energy rate everywhere
    _, _, sys_map = systems
    system = sys_map["accumulating"]
    for seed in range(5):
        st = random_state(system, 40 + seed)
        assert system.energy_rate(st) >= 0.0


def test_initial_state_projects(systems):
    disc, _, sys_map = systems
    from hdg_elastic.time_domain import initial_state
    u0 = lambda p: np.stack([p[:, 0] * p[:, 1], p[:, 2] ** 2,
                             1 + 0 * p[:, 0]], axis=1)
    v0 = lambda p: np.stack([0 * p[:, 0], p[:, 0], -p[:, 1]], axis=1)
    st = initial_state(sys_map["dissipative"], u0, v0)
    ref_u = disc.project_w(0, u0).ravel()
    assert np.abs(st.u[:len(ref_u)] - ref_u).max() < 1e-13
    ref_v = disc.project_w(0, v0).ravel()
    assert np.abs(st.v[:len(ref_v)] - ref_v).max() < 1e-13
    assert st.t == 0.0


def test_energy_trace_csv(tmp_path, systems):
    _, _, sys_map = systems
    system = sys_map["dissipative"]
    state = random_state(system, 11)
    states = [state]
    for _ in range(3):
        states.append(system.step(states[-1], 0.05))
    path = tmp_path / "trace.csv"
    write_energy_trace(path, system, states)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "energy", "rate", "flux"]
    assert len(rows) == 5
    assert rows[1][3] == "dissipative"
    assert abs(float(rows[1][1]) - system.energy(states[0])) < 1e-12


def _dense_newmark(system, state, dt, beta=1.0 / 3.0):
    """Newmark step on the dense condensed stiffness K."""
    K, M = system.effective_stiffness(), system.M.toarray()
    a0 = np.linalg.solve(M, -(K @ state.u))
    u_pred = state.u + dt * state.v + dt * dt * (0.5 - beta) * a0
    a1 = np.linalg.solve(M + beta * dt * dt * K, -(K @ u_pred))
    return TimeState(state.t + dt, u_pred + beta * dt * dt * a1,
                     state.v + 0.5 * dt * (a0 + a1))


def _dense_first_order(system):
    """Dense B with z' = B z, z = (u, v, m), for the rate fluxes."""
    sign = 1.0 if system.flux == "accumulating" else -1.0
    nu, nm = system.nu, system.nm
    A, D, N = system.A.toarray(), system.D.toarray(), system.N.toarray()
    T11, T12 = system.T11.toarray(), system.T12.toarray()
    t22 = system.t22[:, None]
    s_u = -np.linalg.solve(A, D.T)     # s = A^-1 (N^T m - D^T u)
    s_m = np.linalg.solve(A, N.T)
    dm_u, dm_v, dm_m = sign * N @ s_u / t22, T12.T / t22, sign * N @ s_m / t22
    B = np.zeros((2 * nu + nm, 2 * nu + nm))
    B[:nu, nu:2 * nu] = np.eye(nu)
    dv = np.hstack([D @ s_u - sign * T12 @ dm_u,
                    sign * (T11 - T12 @ dm_v),
                    D @ s_m - sign * T12 @ dm_m])
    B[nu:2 * nu] = np.linalg.solve(system.M.toarray(), dv)
    B[2 * nu:] = np.hstack([dm_u, dm_v, dm_m])
    return B


def _dense_trapezoid(B, state, dt):
    z = np.concatenate([state.u, state.v, state.m])
    z1 = np.linalg.solve(np.eye(len(z)) - 0.5 * dt * B, z + 0.5 * dt * (B @ z))
    nu = len(state.u)
    return TimeState(state.t + dt, z1[:nu], z1[nu:2 * nu], z1[2 * nu:])


# dt = 2e-4 holds both integrators' digits: a step that forms its new state
# from a difference of old and new states divided by a power of dt misses 1e-11
@pytest.mark.parametrize("config,dt", [
    pytest.param("all-dirichlet", 0.02, id="all-dirichlet"),
    pytest.param("mixed", 0.02, id="mixed"),
    pytest.param("all-dirichlet", 2e-4, id="all-dirichlet-dt2e-4"),
    pytest.param("mixed", 2e-4, id="mixed-dt2e-4")])
def test_sparse_steps_match_dense_reference(config, dt):
    # 20 sparse block-system steps against dense condensed steps: Newmark on
    # K for the conservative flux, the trapezoidal rule on B for the others
    mesh = tag_boundary(build_structured_cube(1), config)
    disc = Discretization(mesh, 1)
    mat = variable_preset()
    for flux in FLUXES:
        system = SemidiscreteSystem(disc, mat, flux)
        sparse = dense = random_state(system, 12)
        if flux != "conservative":
            B = _dense_first_order(system)
        for _ in range(20):
            sparse = system.step(sparse, dt)
            dense = (_dense_newmark(system, dense, dt) if flux == "conservative"
                     else _dense_trapezoid(B, dense, dt))
        for a, b in ((sparse.u, dense.u), (sparse.v, dense.v),
                     (sparse.m, dense.m)):
            if b is not None:
                assert np.abs(a - b).max() <= 1e-11 * np.abs(b).max(), flux


def test_newmark_carried_acceleration_matches_recomputed(systems):
    # a state without an acceleration gets it from a mass solve on K u
    system = systems[2]["conservative"]
    carried = recomputed = random_state(system, 13)
    for _ in range(50):
        carried = system.step(carried, 0.02)
        recomputed = replace(system.step(recomputed, 0.02), a=None)
    assert carried.a is not None
    for a, b in ((carried.u, recomputed.u), (carried.v, recomputed.v)):
        assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()


def test_newmark_step_with_carried_acceleration_needs_no_slaving(systems, monkeypatch):
    # one solve of the step matrix per step; only a state without an
    # acceleration costs a slaving solve, for its initial acceleration
    system = systems[2]["conservative"]
    state = system.step(random_state(system, 14), 0.02)
    calls = []
    slave = system.slave_conservative
    monkeypatch.setattr(system, "slave_conservative",
                        lambda w: calls.append(1) or slave(w))
    system.step(state, 0.02)
    assert calls == []
    system.step(replace(state, a=None), 0.02)
    assert calls == [1]


@pytest.mark.parametrize("flux", ["conservative", "dissipative"])
def test_steps_factor_one_skeleton_matrix_per_dt(monkeypatch, flux):
    # a step factors its skeleton matrix only, once per step size
    mesh = tag_boundary(build_structured_cube(1), "mixed")
    system = SemidiscreteSystem(Discretization(mesh, 1), variable_preset(), flux)
    shapes, splu = [], global_system.spla.splu
    monkeypatch.setattr(global_system.spla, "splu",
                        lambda A, *args, **kwargs: shapes.append(A.shape)
                        or splu(A, *args, **kwargs))
    state = random_state(system, 15)
    for dt in (0.02, 0.02, 0.03):
        state = system.step(state, dt)
    assert shapes == [(system.nm, system.nm)] * 2


@pytest.mark.parametrize("flux", FLUXES)
def test_every_factor_keeps_the_natural_order(monkeypatch, flux):
    # the static slaving and step matrices are factored by factor_skeleton,
    # in the order they are numbered in; M and A are inverted per element
    specs, splu = [], global_system.spla.splu
    monkeypatch.setattr(global_system.spla, "splu",
                        lambda A, *args, **kwargs: specs.append(kwargs.get("permc_spec"))
                        or splu(A, *args, **kwargs))
    mesh = tag_boundary(build_structured_cube(1), "mixed")
    system = SemidiscreteSystem(Discretization(mesh, 1), variable_preset(), flux)
    system.step(random_state(system, 18), 0.02)
    assert specs == ["NATURAL"] * (2 if flux == "conservative" else 1)


def test_accumulating_step_fills_as_the_dissipative_step():
    # alpha = -sign/h makes the accumulating step matrix indefinite; with
    # diagonal pivots its factor keeps the dissection order and its fill
    disc = Discretization(tag_boundary(build_structured_cube(2), "all-dirichlet"), 1)
    fill = {}
    for flux in ("accumulating", "dissipative"):
        system = SemidiscreteSystem(disc, variable_preset(), flux)
        system.step(random_state(system, 17), 0.02)
        fill[flux] = system._steps[0.02][0].nnz
    assert fill["accumulating"] == fill["dissipative"]


@pytest.mark.parametrize("flux", ["conservative", "dissipative"])
def test_failed_skeleton_factor_raises_singular_system_error(monkeypatch, flux):
    # a step factor that fails names the flux and dt; so does the static
    # slaving factor of the conservative flux, which is made at construction
    disc = Discretization(tag_boundary(build_structured_cube(1), "mixed"), 1)
    system = SemidiscreteSystem(disc, variable_preset(), flux)
    state = random_state(system, 16)

    splu = global_system.spla.splu

    def singular(matrix, *args, **kwargs):
        if matrix.shape == (system.nm, system.nm):   # the skeleton factors only
            raise RuntimeError("Factor is exactly singular")
        return splu(matrix, *args, **kwargs)

    monkeypatch.setattr(global_system.spla, "splu", singular)
    with pytest.raises(SingularSystemError,
                       match=rf"{flux} flux: step \(dt=0\.02\) factor failed"):
        system.step(state, 0.02)
    if flux == "conservative":
        with pytest.raises(SingularSystemError,
                           match="conservative flux: static slaving factor failed"):
            SemidiscreteSystem(disc, variable_preset(), flux)


# measured at n = 1, 2, 3, k = 1: Newmark 0.503, 0.173, 0.0690 (rates 1.54,
# 2.26), trapezoid 0.245, 0.0715, 0.0245 (rates 1.78, 2.64); k = 2: Newmark
# 0.259, 0.0252, 0.00622 (rates 3.36, 3.45), trapezoid 0.126, 0.00847, 0.00175
# (rates 3.90, 3.89); the same to 3 digits at dt = 1e-3, so the error is spatial
@pytest.mark.parametrize("flux,k,windows", [
    pytest.param("conservative", 1, ((1.3, 1.8), (2.0, 2.5)), id="newmark"),
    pytest.param("dissipative", 1, ((1.5, 2.0), (2.4, 2.9)), id="trapezoid"),
    pytest.param("conservative", 2, ((3.1, 3.6), (3.2, 3.7)), id="newmark-k2"),
    pytest.param("dissipative", 2, ((3.65, 4.15), (3.65, 4.15)), id="trapezoid-k2")])
def test_standing_wave_error_falls_with_refinement(flux, k, windows):
    # lambda = 0, mu = rho = 1 on the mixed boundary: u = cos(omega t) (0, 0,
    # sin pi z), omega = pi sqrt(2), is exact; from u = P_W u0 and v = 0 the
    # error max_t ||u_h - cos(omega t) P_W u0||_M / ||P_W u0||_M over t in
    # [0, 0.5] falls at each refinement at a rate within its window
    from hdg_elastic.time_domain import initial_state
    omega, dt, ns = np.pi * np.sqrt(2.0), 5e-3, np.array([1, 2, 3])
    u0 = lambda p: np.stack([0 * p[:, 0], 0 * p[:, 0], np.sin(np.pi * p[:, 2])], axis=1)
    errors = []
    for n in ns:
        disc = Discretization(tag_boundary(build_structured_cube(n), "mixed"), k)
        system = SemidiscreteSystem(disc, isotropic(0, 1, 1), flux)
        state = initial_state(system, u0, lambda p: np.zeros_like(p))
        pu = state.u
        norm = lambda x: np.sqrt(x @ (system.M @ x))
        error = 0.0
        for i in range(1, 101):
            state = system.step(state, dt)
            if i % 10 == 0:
                error = max(error, norm(state.u - np.cos(omega * state.t) * pu) / norm(pu))
        errors.append(error)
    rates = np.log(np.divide(errors[:-1], errors[1:])) / np.log(ns[1:] / ns[:-1])
    lo, hi = np.transpose(windows)
    assert np.all((lo <= rates) & (rates <= hi)), (errors, rates)
