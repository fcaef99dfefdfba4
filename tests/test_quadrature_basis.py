"""Simplex quadrature, orthonormal bases and the three L2 projections."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import roots_jacobi

from hdg_elastic import (Discretization, SimplexBasis, build_structured_cube,
                         monomial_integral, simplex_rule, simplex_space_dim,
                         tag_boundary)
from hdg_elastic.basis import monomial_exponents
from hdg_elastic.quadrature import MAX_EXACTNESS, _gauss01

SRC = Path(__file__).resolve().parents[1] / "src"


# ---------------------------------------------------------------- quadrature

DOMAINS = (("triangle", 2), ("tetrahedron", 3))


def _monomial_moments(rule):
    """The rule applied to x^a for every a in {0, ..., exactness}^dim,
    indexed by a."""
    x = np.moveaxis(rule.points[:, :, None] ** np.arange(rule.exactness + 1), 1, 0)
    if len(x) == 2:
        return (rule.weights[:, None] * x[0]).T @ x[1]
    return np.stack([((rule.weights * x0)[:, None] * x[1]).T @ x[2] for x0 in x[0].T])


def _check_monomials_exact(domain, dim):
    for exactness in range(MAX_EXACTNESS + 1):
        rule = simplex_rule(domain, exactness)
        exps = monomial_exponents(exactness, dim)
        got = _monomial_moments(rule)[tuple(exps.T)]
        exact = np.array([monomial_integral(a) for a in exps])
        assert np.abs(got - exact).max() < 1e-12, (domain, exactness)


def test_weights_sum_to_reference_measure():
    for domain, dim in DOMAINS:
        for exactness in range(MAX_EXACTNESS + 1):
            weights = simplex_rule(domain, exactness).weights
            assert abs(weights.sum() - 1 / math.factorial(dim)) < 1e-14


def test_tet_degree_zero_single_point():
    rule = simplex_rule("tetrahedron", 0)
    assert len(rule.weights) == 1
    assert abs(rule.weights[0] - 1 / 6) < 1e-15


def test_tet_monomials_exact():
    _check_monomials_exact("tetrahedron", 3)


def test_tri_xy_integral():
    rule = simplex_rule("triangle", 2)
    got = np.sum(rule.weights * rule.points[:, 0] * rule.points[:, 1])
    assert abs(got - 1 / 24) < 1e-14


def test_tri_monomials_exact():
    _check_monomials_exact("triangle", 2)


@pytest.mark.parametrize("alpha", [0, 1, 2])
def test_gauss_jacobi_rule_matches_scipy(alpha):
    # every 1D rule the simplex rules use: n = exactness // 2 + 1 <= 21
    for n in range(1, MAX_EXACTNESS // 2 + 2):
        x, w = roots_jacobi(n, alpha, 0.0)
        t, v = _gauss01(n, alpha)
        assert np.abs(t - (x + 1.0) / 2.0).max() < 1e-13, n
        assert np.abs(v - w / 2.0 ** (alpha + 1)).max() < 1e-13, n


def test_package_import_leaves_scipy_special_out():
    script = ("import importlib, pkgutil, sys, hdg_elastic\n"
              "for m in pkgutil.iter_modules(hdg_elastic.__path__):\n"
              "    importlib.import_module('hdg_elastic.' + m.name)\n"
              "print(sorted(k for k in sys.modules if k.startswith('scipy.special')))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == ["[]"]


def test_unsupported_degree_rejected():
    with pytest.raises(ValueError):
        simplex_rule("tetrahedron", 1000)
    with pytest.raises(ValueError):
        simplex_rule("tetrahedron", -1)


def test_unknown_simplex_rejected():
    with pytest.raises(ValueError, match="domain"):
        simplex_rule("square", 2)
    with pytest.raises(ValueError, match="domain"):
        SimplexBasis("square", 1)
    with pytest.raises(ValueError, match="dimension"):
        simplex_space_dim(1, 4)


def test_monomial_integral_oracle():
    # factorial closed form: a! b! c! / (a+b+c+3)!
    assert abs(monomial_integral((0, 0, 0)) - 1 / 6) < 1e-16
    assert abs(monomial_integral((1, 0, 0)) - 1 / 24) < 1e-16
    assert abs(monomial_integral((1, 1, 1)) - 1 / 720) < 1e-18
    assert abs(monomial_integral((2, 1)) - 2 / 120) < 1e-16


# ---------------------------------------------------------------- bases

def test_space_dims():
    assert simplex_space_dim(1, 3) == 4
    assert simplex_space_dim(2, 3) == 10
    assert simplex_space_dim(3, 3) == 20
    assert simplex_space_dim(2, 2) == 6
    for domain, dim in DOMAINS:
        for k in range(7):
            assert (simplex_space_dim(k, dim) == len(monomial_exponents(k, dim))
                    == SimplexBasis(domain, k).n)


def test_monomial_exponent_order():
    # graded by total degree, then descending lexicographic: the coefficient
    # layout of every element block follows this order
    np.testing.assert_array_equal(monomial_exponents(2, 2),
                                  [[0, 0], [1, 0], [0, 1], [2, 0], [1, 1], [0, 2]])
    np.testing.assert_array_equal(monomial_exponents(1, 3),
                                  [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
    for _, dim in DOMAINS:
        for k in range(7):
            exps = [tuple(a) for a in monomial_exponents(k, dim)]
            assert exps == sorted(exps, key=lambda a: (sum(a), [-c for c in a]))
            assert len(set(exps)) == len(exps)


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


def _eval_by_monomial_loop(basis, pts):
    """Reference for SimplexBasis.eval: the Vandermonde matrix and its
    gradients one monomial and one factor at a time, in eval's order."""
    vander = np.ones((len(pts), basis.n))
    dvander = np.zeros((len(pts), basis.n, basis.dim))
    for m, exp in enumerate(basis.exponents):
        for d, a in enumerate(exp):
            vander[:, m] *= pts[:, d] ** a
            if a:
                g = np.full(len(pts), float(a))
                for e, b in enumerate(exp):
                    g *= pts[:, e] ** (b - (e == d))
                dvander[:, m, d] = g
    return vander @ basis.coeffs, np.einsum("qmd,mn->qnd", dvander, basis.coeffs)


def test_basis_eval_matches_monomial_loop():
    for domain, _ in DOMAINS:
        for k in range(5):
            basis = SimplexBasis(domain, k)
            pts = simplex_rule(domain, 2 * k + 2).points
            for got, ref in zip(basis.eval(pts), _eval_by_monomial_loop(basis, pts)):
                np.testing.assert_array_equal(got, ref)


def test_basis_gradients_consistent():
    for domain, dim in DOMAINS:
        rng = np.random.default_rng(7)
        basis = SimplexBasis(domain, 3)
        pts = rng.dirichlet(np.ones(dim + 1), size=20)[:, :dim]
        _, grads = basis.eval(pts)
        h = 1e-6
        for d in range(dim):
            e = np.zeros(dim)
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
                vals = disc.scalar_basis(e, "V")
                f = u(pts)
                coeffs = np.einsum("q,qd,qi->di", wts, f, vals)
                resid = f - np.einsum("di,qi->qd", coeffs, vals)
                err2 += np.einsum("q,qd->", wts, np.abs(resid) ** 2)
            errs.append(np.sqrt(err2))
        rate = np.log(errs[0] / errs[2]) / np.log(4.0) / 1.0
        assert abs(rate - (k + 1)) < 0.3
