"""Isotropic stiffness/compliance, spectral bound, wavespeeds, presets."""

import numpy as np
import pytest
import sympy as sp

from hdg_elastic import (FROBENIUS_WEIGHTS, SYM_MATS, apply_compliance,
                         apply_stiffness, isotropic, pack_sym, unpack_sym,
                         variable_preset)
from hdg_elastic.materials import X1, X2, X3, lambdify_field


RNG = np.random.default_rng(42)


def random_sym(n):
    a = RNG.standard_normal((n, 3, 3))
    return 0.5 * (a + a.transpose(0, 2, 1))


def test_stiffness_identity_input():
    mat = isotropic(1.0, 1.0, 1.0)
    out = apply_stiffness(mat, np.zeros((1, 3)), np.eye(3)[None])
    assert np.abs(out - 5.0 * np.eye(3)).max() < 1e-14


def test_stiffness_tracefree_offdiagonal():
    mat = isotropic(1.0, 1.0, 1.0)
    xi = np.zeros((1, 3, 3))
    xi[0, 0, 1] = xi[0, 1, 0] = 1.0
    out = apply_stiffness(mat, np.zeros((1, 3)), xi)
    assert np.abs(out - 2.0 * xi).max() < 1e-14


def test_variable_preset_point_values():
    mat = variable_preset()
    x = np.array([[1.0, 1.0, 1.0]])
    assert abs(mat.mu(x)[0] - 3.53) < 1e-12
    assert abs(mat.lam(x)[0] - 2.54) < 1e-12
    out = apply_stiffness(mat, x, np.eye(3)[None])
    assert np.abs(out - 14.68 * np.eye(3)).max() < 1e-12


def test_compliance_identity_input():
    mat = isotropic(1.0, 1.0, 1.0)
    out = apply_compliance(mat, np.zeros((1, 3)), np.eye(3)[None])
    assert np.abs(out - np.eye(3) / 5.0).max() < 1e-14


def test_compliance_vs_numeric_inverse():
    mat = isotropic(1.3, 0.7, 1.0)
    x = np.zeros((1, 3))
    C = mat.stiffness_packed(x)[0]
    A = mat.compliance_packed(x)[0]
    # invert the Frobenius-weighted pairing form of C numerically
    W = np.diag(FROBENIUS_WEIGHTS)
    assert np.abs(A - np.linalg.inv(W @ C) @ W).max() < 1e-13


def test_compliance_deviatoric():
    mat = isotropic(1.0, 1.0, 1.0)
    xi = random_sym(5)
    xi -= np.trace(xi, axis1=1, axis2=2)[:, None, None] * np.eye(3) / 3.0
    out = apply_compliance(mat, np.zeros((5, 3)), xi)
    assert np.abs(out - xi / 2.0).max() < 1e-13


def test_roundtrip_variable_preset():
    mat = variable_preset()
    pts = RNG.uniform(0.0, 1.0, (100, 3))
    xi = random_sym(100)
    back = apply_compliance(mat, pts, apply_stiffness(mat, pts, xi))
    assert np.abs(back - xi).max() < 1e-12 * np.abs(xi).max()


def test_stiffness_self_adjoint():
    mat = variable_preset()
    pts = RNG.uniform(0.0, 1.0, (20, 3))
    xi, chi = random_sym(20), random_sym(20)
    cxi = apply_stiffness(mat, pts, xi)
    cchi = apply_stiffness(mat, pts, chi)
    lhs = np.einsum("qab,qab->q", cxi, chi)
    rhs = np.einsum("qab,qab->q", xi, cchi)
    assert np.abs(lhs - rhs).max() < 1e-11


def test_positivity_bounds():
    mat = variable_preset()
    pts = RNG.uniform(0.0, 1.0, (50, 3))
    xi = random_sym(50)
    norm2 = np.einsum("qab,qab->q", xi, xi)
    cxi = apply_stiffness(mat, pts, xi)
    assert np.all(np.einsum("qab,qab->q", cxi, xi) >= 2 * 3.0 * norm2 - 1e-10)
    axi = apply_compliance(mat, pts, xi)
    ca = mat.compliance_bound(pts)
    assert np.all(np.einsum("qab,qab->q", axi, xi) <= ca * norm2 + 1e-12)


def test_compliance_bound_is_spectral():
    # c_A equals the top eigenvalue of the Frobenius-consistent 6x6 form
    mat = variable_preset()
    pts = RNG.uniform(0.0, 1.0, (10, 3))
    A = mat.compliance_packed(pts)
    W = np.diag(FROBENIUS_WEIGHTS)
    half = np.diag(np.sqrt(FROBENIUS_WEIGHTS))
    for q in range(10):
        sym = half @ A[q] @ np.linalg.inv(half)
        top = np.linalg.eigvalsh(0.5 * (sym + sym.T)).max()
        assert abs(top - mat.compliance_bound(pts[q:q + 1])[0]) < 1e-12


def test_wavespeeds():
    x = np.zeros((1, 3))
    cp, cs = isotropic(1.0, 1.0, 1.0).wavespeeds(x)
    assert abs(cp[0] - np.sqrt(3)) < 1e-14 and abs(cs[0] - 1.0) < 1e-14
    cp, cs = isotropic(1.0, 1.0, 4.0).wavespeeds(x)
    assert abs(cp[0] - np.sqrt(3) / 2) < 1e-14 and abs(cs[0] - 0.5) < 1e-14
    cp, cs = variable_preset().wavespeeds(x)
    assert abs(cp[0] - np.sqrt(8)) < 1e-14 and abs(cs[0] - np.sqrt(3)) < 1e-14


def test_variable_preset_density_bounds():
    mat = variable_preset()
    pts = RNG.uniform(0.0, 1.0, (200, 3))
    rho = mat.rho(pts)
    assert np.all(rho >= 1.0 - 1e-14) and np.all(rho <= 4.0 + 1e-14)
    assert abs(mat.rho(np.array([[1.0, 1.0, 1.0]]))[0] - 4.0) < 1e-14


def test_pack_rejects_asymmetric():
    bad = np.zeros((1, 3, 3))
    bad[0, 0, 1] = 1.0
    with pytest.raises(ValueError):
        pack_sym(bad)


def test_degenerate_moduli_rejected():
    with pytest.raises(ValueError):
        isotropic(1.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        isotropic(-1.0, 0.5, 1.0)  # 2mu + 3lam = -2 < 0
    with pytest.raises(ValueError):
        isotropic(1.0, 1.0, 0.0)


def test_sym_packing_convention():
    # order (11, 22, 33, 23, 13, 12), off-diagonals stored unscaled
    m = np.array([[[1.0, 6.0, 5.0], [6.0, 2.0, 4.0], [5.0, 4.0, 3.0]]])
    assert np.allclose(pack_sym(m)[0], [1, 2, 3, 4, 5, 6])
    assert np.allclose(unpack_sym(pack_sym(m)), m)
    assert np.allclose(FROBENIUS_WEIGHTS, [1, 1, 1, 2, 2, 2])
    recon = np.einsum("a,aij->ij", pack_sym(m)[0] * 0 + 1, SYM_MATS * 0) \
        + np.einsum("a,aij->ij", pack_sym(m)[0], SYM_MATS)
    assert np.allclose(recon, m[0])


def test_lambdify_field_shapes_and_values():
    pts = np.random.default_rng(7).uniform(0.0, 1.0, (2, 5, 3))
    fields = [X1 * X2 + sp.sin(X3),
              [X1, X2 ** 2, sp.Integer(7)],
              [[X1 + i * X2 * X3 ** j for j in range(3)] for i in range(3)],
              sp.Float(2.5)]
    for exprs, shape in zip(fields, [(), (3,), (3, 3), ()]):
        values = lambdify_field(exprs)(pts)
        assert values.shape == (2, 5) + shape and values.dtype == float
        exprs = np.array(exprs, dtype=object)
        for p in np.ndindex(2, 5):
            at = dict(zip((X1, X2, X3), pts[p]))
            ref = np.array([float(e.subs(at)) for e in exprs.ravel()]).reshape(shape)
            assert np.allclose(values[p], ref, rtol=1e-14, atol=0)


def test_lambdified_constants_are_exact_doubles():
    # lambdify prints a double-precision Float with 15 digits unless raised
    x = np.zeros((1, 3))
    assert isotropic(1 / 3, 1, 1).lam(x)[0] == 1 / 3
    v = 1 / 3 + 1 / np.sqrt(3)
    assert lambdify_field(sp.Float(v))(x)[0] == v


def test_invalid_material_field_fails_loudly():
    # mu = 1 - 2 x1 turns negative inside the cube, for x1 > 1/2
    from hdg_elastic import (VARIANTS, Discretization, Material, ProblemData,
                             SemidiscreteSystem, build_structured_cube,
                             solve_time_harmonic, tag_boundary)
    mat = Material(sp.Integer(1), sp.Integer(1), 1 - 2 * X1)
    disc = Discretization(tag_boundary(build_structured_cube(1), "all-dirichlet"), 1)
    with pytest.raises(ValueError, match="mu > 0"):
        solve_time_harmonic(disc, mat, ProblemData(kappa=1.0),
                            VARIANTS["first_order"])
    with pytest.raises(ValueError, match="mu > 0"):
        SemidiscreteSystem(disc, mat, "conservative")
