"""Elemental blocks, local factorization, condensation and recovery."""

import numpy as np
import pytest
from scipy.linalg import lu_solve

from hdg_elastic import (FROBENIUS_WEIGHTS, SYM_MATS, VARIANTS, Discretization,
                         build_structured_cube, isotropic, pack_sym, tag_boundary,
                         variable_preset)
from hdg_elastic.local_ops import (_coupling, assemble_local_blocks, condense,
                                   factorize_local, local_matrix, recover,
                                   resolution_flags)


@pytest.fixture(scope="module")
def setup():
    mesh = tag_boundary(build_structured_cube(2), "mixed")
    disc = Discretization(mesh, 1)
    mat = variable_preset()
    return disc, mat


def test_alpha_values():
    kappa = 1.7
    assert VARIANTS["first_order"].alpha(kappa) == 1j * kappa
    assert VARIANTS["time_reversed"].alpha(kappa) == -1j * kappa
    assert VARIANTS["kappa_scaled"].alpha(kappa) == 1j * kappa ** 2
    assert VARIANTS["conservative"].alpha(kappa) == 1.0


def test_block_symmetry_and_definiteness(setup):
    disc, mat = setup
    for e in (0, 7, 33):
        b = assemble_local_blocks(disc, mat, e)
        for blk in (b.A, b.M, b.T11):
            assert np.abs(blk - blk.T).max() < 1e-13 * max(np.abs(blk).max(), 1)
        assert np.linalg.eigvalsh(b.A).min() > 0
        assert np.linalg.eigvalsh(b.M).min() > 0
        assert np.linalg.eigvalsh(b.T11).min() > -1e-12 * np.abs(b.T11).max()


def test_divergence_block_kills_constants():
    # constant stress basis against constant displacement: zero divergence
    mesh = tag_boundary(build_structured_cube(1), "mixed")
    disc = Discretization(mesh, 0)
    b = assemble_local_blocks(disc, isotropic(1, 1, 1), 0)
    assert np.abs(b.D).max() < 1e-14


def test_compliance_mass_k0_oracle():
    # k=0: A equals element volume times the weighted compliance pairing
    mesh = tag_boundary(build_structured_cube(1), "mixed")
    disc = Discretization(mesh, 0)
    mat = isotropic(1.0, 1.0, 1.0)
    b = assemble_local_blocks(disc, mat, 0)
    vol = np.sum(disc.element_weights(0))
    comp = mat.compliance_packed(np.zeros((1, 3)))[0]
    # orthonormal k=0 basis value is 1/sqrt(vol), so the mass is the pairing
    oracle = np.diag(FROBENIUS_WEIGHTS) @ comp
    assert np.abs(b.A - oracle).max() < 1e-13


def test_green_identity_closure(setup):
    # (div Phi, psi) + (Phi, grad psi) = sum_F <Phi n, psi> for all basis pairs
    disc, mat = setup
    mesh = disc.mesh
    for e in (0, 19):
        b = assemble_local_blocks(disc, mat, e)
        wts = disc.element_weights(e)
        phi = disc.scalar_basis(e, "V")
        dpsi_ref = disc.tet_basis_w.eval(disc.vol_rule.points)[1]
        dpsi = (dpsi_ref @ disc.jac_inv[e]) / np.sqrt(disc.det_jac[e])
        grad_term = np.einsum("q,qi,ade,qje->djai", wts, phi, SYM_MATS, dpsi)
        grad_term = grad_term.reshape(b.nW3, b.nS)
        surf = np.zeros((b.nW3, b.nS))
        for lf in range(4):
            fi = mesh.element_faces[e, lf]
            pts = disc.face_points[fi]
            n = mesh.element_face_signs[e, lf] * mesh.face_normals[fi]
            en = np.einsum("ade,e->ad", SYM_MATS, n)
            pf = disc.scalar_basis_at(e, pts, "V")
            sf = disc.scalar_basis_at(e, pts, "W")
            surf += np.einsum("q,ad,qi,qj->djai", disc.face_weights[fi], en, pf,
                              sf).reshape(b.nW3, b.nS)
        assert np.abs(b.D + grad_term - surf).max() < 1e-12


def test_tau_scaling(setup):
    disc, _ = setup
    for e in (0, 11):
        assert abs(disc.tau(e) - 1.0 / disc.h[e]) < 1e-15


def test_stabilization_quadratic_form(setup):
    # <tau mu, mu> = h^-1 |mu|^2 exactly for facewise polynomial mu
    disc, mat = setup
    e = 5
    b = assemble_local_blocks(disc, mat, e)
    rng = np.random.default_rng(3)
    for lf in range(4):
        mu = rng.standard_normal(b.nFd)
        # T22 contribution of this element-face is tau * identity
        quad = b.tau * mu @ mu
        fi = disc.mesh.element_faces[e, lf]
        vals = np.einsum("dl,ql->qd", mu.reshape(3, disc.nF), disc.face_chi[fi])
        direct = b.tau * np.einsum("q,qd->", disc.face_weights[fi], vals ** 2)
        assert abs(quad - direct) < 1e-12 * max(abs(quad), 1)


def test_factorization_inverts_block(setup):
    disc, mat = setup
    b = assemble_local_blocks(disc, mat, 4)
    fact = factorize_local(b, 1.0, VARIANTS["first_order"])
    C = local_matrix(b, 1.0, VARIANTS["first_order"])
    rng = np.random.default_rng(11)
    x = rng.standard_normal(C.shape[0]) + 1j * rng.standard_normal(C.shape[0])
    y = lu_solve(fact.lu, C @ x)
    assert np.abs(y - x).max() < 1e-11 * np.abs(x).max()


def test_local_solve_vs_dense_oracle(setup):
    disc, mat = setup
    b = assemble_local_blocks(disc, mat, 9)
    fact = factorize_local(b, 1.0, VARIANTS["first_order"])
    rng = np.random.default_rng(5)
    m = rng.standard_normal(4 * b.nFd) + 1j * rng.standard_normal(4 * b.nFd)
    f = rng.standard_normal(b.nW3) + 1j * rng.standard_normal(b.nW3)
    s, u = recover(fact, m, f)
    C = local_matrix(b, 1.0, VARIANTS["first_order"])
    B_in, _ = _coupling(fact)
    rhs = B_in @ m
    rhs[b.nS:] += f
    x = np.linalg.solve(C, rhs)
    assert np.abs(s.ravel() - x[:b.nS]).max() < 1e-11 * np.abs(x).max()
    assert np.abs(u.ravel() - x[b.nS:]).max() < 1e-11 * np.abs(x).max()


def test_zero_data_zero_solution(setup):
    disc, mat = setup
    b = assemble_local_blocks(disc, mat, 2)
    fact = factorize_local(b, 1.0, VARIANTS["first_order"])
    s, u = recover(fact, np.zeros(4 * b.nFd), np.zeros(b.nW3))
    assert np.abs(s).max() <= 1e-12
    assert np.abs(u).max() <= 1e-12


def test_kappa_zero_conservative_regular(setup):
    disc, mat = setup
    for e in range(disc.mesh.num_elements):
        b = assemble_local_blocks(disc, mat, e)
        fact = factorize_local(b, 0.0, VARIANTS["conservative"])
        assert np.isfinite(fact.condition_estimate)


def test_kappa_zero_conservative_condensed_real(setup):
    disc, mat = setup
    b = assemble_local_blocks(disc, mat, 14)
    fact = factorize_local(b, 0.0, VARIANTS["conservative"])
    S, _ = condense(fact)
    assert np.abs(S.imag).max() < 1e-13 * np.abs(S.real).max()


def test_condense_matches_schur_formula(setup):
    disc, mat = setup
    b = assemble_local_blocks(disc, mat, 21)
    variant = VARIANTS["kappa_scaled"]
    kappa = 1.3
    fact = factorize_local(b, kappa, variant)
    S, load_map = condense(fact)
    alpha = variant.alpha(kappa)
    C = local_matrix(b, kappa, variant)
    B_in, B_out = _coupling(fact)
    S_ref = B_out @ np.linalg.solve(C, B_in) \
        + alpha * b.tau * np.eye(4 * b.nFd)
    assert np.abs(S - S_ref).max() < 1e-11 * np.abs(S_ref).max()
    # load map sends interior moments to -B_out C^-1 [0; f]
    rng = np.random.default_rng(8)
    f = rng.standard_normal(b.nW3)
    rhs = np.zeros(b.nS + b.nW3, dtype=complex)
    rhs[b.nS:] = f
    ref = -B_out @ np.linalg.solve(C, rhs)
    assert np.abs(load_map @ f - ref).max() < 1e-11 * max(np.abs(ref).max(), 1)


def test_recover_linear_exactness():
    # exact traces of a linear displacement reproduce u and sigma = C eps(u)
    mesh = tag_boundary(build_structured_cube(1), "mixed")
    disc = Discretization(mesh, 1)
    mat = isotropic(1.0, 1.0, 1.0)
    e = 3
    grad = np.array([[0.3, -0.1, 0.2], [0.0, 0.5, -0.4], [0.7, 0.1, -0.2]])
    u_exact = lambda p: p @ grad.T + np.array([1.0, -2.0, 0.5])
    eps = 0.5 * (grad + grad.T)
    sig = 2 * eps + np.trace(eps) * np.eye(3)
    b = assemble_local_blocks(disc, mat, e)
    fact = factorize_local(b, 1.0, VARIANTS["first_order"])
    m = np.concatenate([disc.project_face(mesh.element_faces[e, lf],
                                          u_exact).ravel()
                        for lf in range(4)])
    # interior load for the harmonic problem: f = kappa^2 rho u (div sig = 0)
    from hdg_elastic.global_system import load_moments
    f = load_moments(disc, e, lambda p: 1.0 * u_exact(p))
    s, u = recover(fact, m, f)
    pts = disc.element_points(e)[:6]
    assert np.abs(disc.eval_w(e, u, pts) - u_exact(pts)).max() < 1e-11
    got = disc.eval_v_packed(e, s, pts)
    assert np.abs(got - pack_sym(np.tile(sig, (6, 1, 1)))).max() < 1e-11


def test_recover_satisfies_local_equations(setup):
    disc, mat = setup
    b = assemble_local_blocks(disc, mat, 30)
    variant = VARIANTS["time_reversed"]
    fact = factorize_local(b, 0.9, variant)
    rng = np.random.default_rng(17)
    m = rng.standard_normal(4 * b.nFd) + 1j * rng.standard_normal(4 * b.nFd)
    f = rng.standard_normal(b.nW3) + 1j * rng.standard_normal(b.nW3)
    s, u = recover(fact, m, f)
    C = local_matrix(b, 0.9, variant)
    B_in, _ = _coupling(fact)
    x = np.concatenate([s.ravel(), u.ravel()])
    rhs = B_in @ m
    rhs[b.nS:] += f
    resid = C @ x - rhs
    assert np.abs(resid).max() < 1e-10 * max(np.abs(rhs).max(), 1)


def test_resolution_flag(setup):
    disc, mat = setup
    b = assemble_local_blocks(disc, mat, 0)
    assert not resolution_flags(0.01, b.h, b.wave_bound)
    assert resolution_flags(50.0, b.h, b.wave_bound)
