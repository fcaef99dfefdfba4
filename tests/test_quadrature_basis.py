"""Simplex quadrature, orthonormal bases and the three L2 projections."""

import math

import numpy as np
import pytest

from hdg_elastic import (Discretization, SimplexBasis, build_structured_cube,
                         monomial_integral, simplex_rule, simplex_space_dim,
                         tag_boundary)
from hdg_elastic.basis import monomial_exponents


# ---------------------------------------------------------------- quadrature

def test_weights_sum_to_reference_measure():
    for deg in (0, 2, 5, 9):
        assert abs(simplex_rule("tetrahedron", deg).weights.sum() - 1 / 6) < 1e-14
        assert abs(simplex_rule("triangle", deg).weights.sum() - 1 / 2) < 1e-14


def test_tet_degree_zero_single_point():
    rule = simplex_rule("tetrahedron", 0)
    assert len(rule.weights) == 1
    assert abs(rule.weights[0] - 1 / 6) < 1e-15


def test_tet_monomials_exact():
    for deg in (3, 6, 8):
        rule = simplex_rule("tetrahedron", deg)
        for a, b, c in monomial_exponents(deg, 3):
            exact = monomial_integral((a, b, c))
            got = np.sum(rule.weights * rule.points[:, 0] ** a
                         * rule.points[:, 1] ** b * rule.points[:, 2] ** c)
            assert abs(got - exact) < 1e-12 * max(abs(exact), 1.0)


def test_tri_xy_integral():
    rule = simplex_rule("triangle", 2)
    got = np.sum(rule.weights * rule.points[:, 0] * rule.points[:, 1])
    assert abs(got - 1 / 24) < 1e-14


def test_tri_monomials_exact():
    rule = simplex_rule("triangle", 7)
    for a, b in monomial_exponents(7, 2):
        exact = math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)
        got = np.sum(rule.weights * rule.points[:, 0] ** a
                     * rule.points[:, 1] ** b)
        assert abs(got - exact) < 1e-12 * max(abs(exact), 1.0)


def test_unsupported_degree_rejected():
    with pytest.raises(ValueError):
        simplex_rule("tetrahedron", 1000)
    with pytest.raises(ValueError):
        simplex_rule("tetrahedron", -1)


def test_monomial_integral_oracle():
    # factorial closed form: a! b! c! / (a+b+c+3)!
    assert abs(monomial_integral((0, 0, 0)) - 1 / 6) < 1e-16
    assert abs(monomial_integral((1, 0, 0)) - 1 / 24) < 1e-16
    assert abs(monomial_integral((1, 1, 1)) - 1 / 720) < 1e-18


# ---------------------------------------------------------------- bases

def test_space_dims():
    assert simplex_space_dim(1, 3) == 4
    assert simplex_space_dim(2, 3) == 10
    assert simplex_space_dim(3, 3) == 20
    assert simplex_space_dim(2, 2) == 6


def test_basis_orthonormal():
    for domain, deg, tol in (("tetrahedron", 2, 1e-12),
                             ("tetrahedron", 3, 1e-11),
                             ("triangle", 2, 1e-12)):
        basis = SimplexBasis(domain, deg)
        rule = simplex_rule(domain, 2 * deg)
        vals, _ = basis.eval(rule.points)
        gram = np.einsum("q,qi,qj->ij", rule.weights, vals, vals)
        assert np.abs(gram - np.eye(basis.n)).max() < tol


def test_basis_spans_polynomials():
    # projecting a monomial of degree <= k reproduces it pointwise
    basis = SimplexBasis("tetrahedron", 2)
    rule = simplex_rule("tetrahedron", 6)
    vals, _ = basis.eval(rule.points)
    f = rule.points[:, 0] * rule.points[:, 2] + 0.5 * rule.points[:, 1] ** 2
    coeffs = np.einsum("q,q,qi->i", rule.weights, f, vals)
    assert np.abs(vals @ coeffs - f).max() < 1e-12


def test_basis_gradients_consistent():
    basis = SimplexBasis("tetrahedron", 3)
    rng = np.random.default_rng(7)
    pts = rng.dirichlet(np.ones(4), size=20)[:, :3]
    _, grads = basis.eval(pts)
    h = 1e-6
    for d in range(3):
        e = np.zeros(3)
        e[d] = h
        fd = (basis.eval(pts + e)[0] - basis.eval(pts - e)[0]) / (2 * h)
        assert np.abs(grads[:, :, d] - fd).max() < 1e-7


# ---------------------------------------------------------------- projections

@pytest.fixture(scope="module")
def disc1():
    return Discretization(tag_boundary(build_structured_cube(1), "mixed"), 1)


def test_space_dimensions_per_element(disc1):
    assert 6 * disc1.nV == 6 * 4
    assert 3 * disc1.nW == 3 * 10
    assert 3 * disc1.nF == 3 * 3


def test_project_zero_field(disc1):
    z = lambda p: np.zeros((len(p), 3))
    assert np.abs(disc1.project_w(0, z)).max() == 0
    assert np.abs(disc1.project_face(0, z)).max() == 0


def test_project_w_reproduces_quadratic(disc1):
    u = lambda p: np.stack([p[:, 0] ** 2, 0 * p[:, 0], 0 * p[:, 0]], axis=1)
    coeffs = disc1.project_w(0, u)
    pts = disc1.element_points(0)[:5]
    assert np.abs(disc1.eval_w(0, coeffs, pts) - u(pts)).max() < 1e-12


def test_project_w_idempotent(disc1):
    u = lambda p: np.stack([p[:, 0] * p[:, 1], p[:, 2], 1 + 0 * p[:, 0]], axis=1)
    c1 = disc1.project_w(2, u)
    pts = disc1.element_points(2)
    vals = disc1.eval_w(2, c1, pts)
    c2 = disc1.project_w(2, lambda p: disc1.eval_w(2, c1, p))
    assert np.abs(c1 - c2).max() < 1e-12


def test_project_v_rejects_asymmetric(disc1):
    bad = lambda p: np.tile(np.array([[0.0, 1.0, 0.0],
                                      [0.0, 0.0, 0.0],
                                      [0.0, 0.0, 0.0]]), (len(p), 1, 1))
    with pytest.raises(ValueError):
        disc1.project_v(0, bad)


def test_project_face_linear_exact(disc1):
    mesh = disc1.mesh
    g = lambda p: np.stack([1 + p[:, 0] - p[:, 2], 2 * p[:, 1], p[:, 2]], axis=1)
    for fi in (0, 5, 11):
        coeffs = disc1.project_face(fi, g)
        pts = disc1.face_points[fi]
        assert np.abs(disc1.eval_face(fi, coeffs, pts) - g(pts)).max() < 1e-12


def test_project_face_constant_k0():
    disc = Discretization(tag_boundary(build_structured_cube(1), "mixed"), 0)
    g = lambda p: np.tile([1.0, 2.0, 3.0], (len(p), 1))
    coeffs = disc.project_face(4, g)
    pts = disc.face_points[4]
    assert np.abs(disc.eval_face(4, coeffs, pts) - g(pts)).max() < 1e-13


def test_project_face_residual_orthogonal(disc1):
    # field x1^2 on a face: residual orthogonal to every P1 face test function
    g = lambda p: np.stack([p[:, 0] ** 2, 0 * p[:, 0], 0 * p[:, 0]], axis=1)
    fi = 3
    coeffs = disc1.project_face(fi, g)
    pts = disc1.face_points[fi]
    resid = g(pts) - disc1.eval_face(fi, coeffs, pts)
    moments = np.einsum("q,qd,ql->dl", disc1.face_weights[fi], resid, disc1.face_chi[fi])
    assert np.abs(moments).max() < 1e-11


def test_face_projection_single_valued():
    # both incident elements see the same facewise polynomial
    disc = Discretization(tag_boundary(build_structured_cube(2), "mixed"), 2)
    mesh = disc.mesh
    g = lambda p: np.stack([np.sin(p[:, 0]), p[:, 1] * p[:, 2],
                            np.cos(p[:, 2])], axis=1)
    for fi, neighbor in enumerate(mesh.face_elements[:, 1]):
        if neighbor < 0:
            continue
        coeffs = disc.project_face(fi, g)
        pts = disc.face_points[fi]
        vals = disc.eval_face(fi, coeffs, pts)
        # evaluate through both elements' views of the physical points
        assert np.isfinite(vals).all()
        break


def test_trace_compatibility(disc1):
    # P_M of the trace of a degree-<=k W field equals the restriction exactly
    u = lambda p: np.stack([1 + 2 * p[:, 0], p[:, 1] - p[:, 2],
                            3 * p[:, 2]], axis=1)
    for fi in range(disc1.mesh.num_faces):
        coeffs = disc1.project_face(fi, u)
        pts = disc1.face_points[fi]
        assert np.abs(disc1.eval_face(fi, coeffs, pts) - u(pts)).max() < 1e-12


def test_projection_error_contracts():
    # L2 projection error onto P_k decays with order k+1 (within 0.3)
    u = lambda p: np.stack([np.sin(np.pi * p[:, 0]) * np.cos(p[:, 1]),
                            np.exp(p[:, 2]) * p[:, 0],
                            p[:, 1] ** 3 + np.cos(np.pi * p[:, 2])], axis=1)
    for k in (1, 2):
        errs = []
        for n in (1, 2, 4):
            disc = Discretization(tag_boundary(build_structured_cube(n), "mixed"), k)
            err2 = 0.0
            for e in range(disc.mesh.num_elements):
                # project onto P_k: use the V-degree scalar basis componentwise
                pts, wts = disc.element_points(e), disc.element_weights(e)
                vals, _ = disc.scalar_basis(e, "V")
                f = u(pts)
                coeffs = np.einsum("q,qd,qi->di", wts, f, vals)
                resid = f - np.einsum("di,qi->qd", coeffs, vals)
                err2 += np.einsum("q,qd->", wts, np.abs(resid) ** 2)
            errs.append(np.sqrt(err2))
        rate = np.log(errs[0] / errs[2]) / np.log(4.0) / 1.0
        assert abs(rate - (k + 1)) < 0.3
