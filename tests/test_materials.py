"""Isotropic stiffness/compliance, spectral bound, wavespeeds, presets, the
forward-mode Jet, and a symbolic oracle for the manufactured data."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import sympy as sp

import hdg_elastic
from hdg_elastic import (FROBENIUS_WEIGHTS, SYM_COMPONENTS, SYM_MATS, Jet, Material,
                         isotropic, make_case, pack_sym, unpack_sym, variable_preset)
from hdg_elastic import materials

from constitutive import compliance_bound, compliance_packed, stiffness_packed


RNG = np.random.default_rng(42)
X1, X2, X3 = sp.symbols("x1 x2 x3", real=True)


def apply_stiffness(material, points, xi):
    """C xi for a symmetric matrix field xi of shape (..., 3, 3)."""
    return unpack_sym(np.einsum("...cd,...d->...c", stiffness_packed(material, points),
                                pack_sym(xi)))


def apply_compliance(material, points, xi):
    """A xi = C^-1 xi for a symmetric matrix field xi of shape (..., 3, 3)."""
    return unpack_sym(np.einsum("...cd,...d->...c", compliance_packed(material, points),
                                pack_sym(xi)))


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
    C = stiffness_packed(mat, x)[0]
    A = compliance_packed(mat, x)[0]
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
    ca = compliance_bound(mat, pts)
    assert np.all(np.einsum("qab,qab->q", axi, xi) <= ca * norm2 + 1e-12)


def test_compliance_bound_is_spectral():
    # c_A equals the top eigenvalue of the Frobenius-consistent 6x6 form
    mat = variable_preset()
    pts = RNG.uniform(0.0, 1.0, (10, 3))
    A = compliance_packed(mat, pts)
    W = np.diag(FROBENIUS_WEIGHTS)
    half = np.diag(np.sqrt(FROBENIUS_WEIGHTS))
    for q in range(10):
        sym = half @ A[q] @ np.linalg.inv(half)
        top = np.linalg.eigvalsh(0.5 * (sym + sym.T)).max()
        assert abs(top - compliance_bound(mat, pts[q:q + 1])[0]) < 1e-12


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


# Each field is written once, for a module m that is either materials (on
# jets) or sympy (the reference derivatives).
JET_FIELDS = {
    "product-across": lambda m, x1, x2, x3: 3 * x1 ** 2 * x2 * m.sin(x3) - x2,
    "product-within": lambda m, x1, x2, x3: m.cos(2 * x2) * m.cos(3 * x2) * x2 ** 3,
    "first-power": lambda m, x1, x2, x3: x1 ** 1,
    "constant": lambda m, x1, x2, x3: 2.5,
    "complex-exp": lambda m, x1, x2, x3: 0.3 * m.exp(-0.7j * (0.6 * x1 + 0.8 * x3)),
    "quotient": lambda m, x1, x2, x3: x1 ** 2 * x3 / (2 + x2 * m.cos(x3)) - x2 / 2,
    "reciprocal": lambda m, x1, x2, x3: 1 / (1 + x1 ** 2),
}


def _jet(value):
    return value if isinstance(value, Jet) else Jet(value, {})


@pytest.mark.parametrize("name", JET_FIELDS)
def test_jet_matches_symbolic_derivatives(name):
    fn = JET_FIELDS[name]
    pts = np.random.default_rng(7).uniform(0.0, 1.0, (4, 3))
    jet = _jet(fn(materials, *Jet.seed(Jet.seed(pts.T))))
    value, first = _jet(jet.val), {i: _jet(v) for i, v in jet.d1.items()}
    expr = sp.sympify(fn(sp, X1, X2, X3))
    xs = (X1, X2, X3)
    grad = [sp.diff(expr, a) for a in xs]
    hess = {(i, j): sp.diff(expr, xs[i], xs[j]) for i in range(3) for j in range(3)}
    # absent entries at both levels are exactly the partials that vanish
    # identically; the inner level of the value is the gradient again
    nonzero = {i for i in range(3) if grad[i] != 0}
    assert set(jet.d1) == nonzero and set(value.d1) == nonzero
    assert {(i, j) for i in first for j in first[i].d1} == {ij for ij, e in hess.items() if e != 0}
    for p, x in enumerate(pts):
        at = dict(zip(xs, x))
        pairs = [(value.val, expr)]
        pairs += [(first[i].val, grad[i]) for i in first]
        pairs += [(value.d1[i], grad[i]) for i in value.d1]
        # d1[i].d1[j] is d_i d_j, read in both orders
        pairs += [(first[i].d1[j], hess[i, j]) for i in first for j in first[i].d1]
        for got, ref in pairs:
            ref = complex(ref.subs(at))
            assert abs(np.broadcast_to(got, len(pts))[p] - ref) <= 1e-14 * max(abs(ref), 1.0)


@pytest.mark.parametrize("name", JET_FIELDS)
def test_seeded_jet_outer_level_is_the_single_level_jet(name):
    fn = JET_FIELDS[name]
    pts = np.random.default_rng(8).uniform(0.0, 1.0, (5, 3))
    nested = _jet(fn(materials, *Jet.seed(Jet.seed(pts.T))))
    single = _jet(fn(materials, *Jet.seed(pts.T)))
    same = lambda a, b: np.array_equal(np.broadcast_to(a, 5), np.broadcast_to(b, 5))
    assert set(nested.d1) == set(single.d1)
    assert same(_jet(nested.val).val, single.val)
    assert same(single.val, fn(materials, *pts.T))
    for i, v in nested.d1.items():
        assert same(_jet(v).val, single.d1[i])


def _same_jet(a, b):
    """a and b equal bit for bit, at every level."""
    if not isinstance(a, Jet):
        return not isinstance(b, Jet) and np.array_equal(a, b)
    return (isinstance(b, Jet) and set(a.d1) == set(b.d1) and _same_jet(a.val, b.val)
            and all(_same_jet(a.d1[i], b.d1[i]) for i in a.d1))


@pytest.mark.parametrize("levels", [1, 2])
def test_number_minus_jet_is_the_negated_difference(levels):
    pts = np.random.default_rng(9).uniform(0.0, 1.0, (5, 3)).T
    for _ in range(levels):
        pts = Jet.seed(pts)
    x1, _, x3 = pts
    field = x1 ** 2 * materials.sin(x3)
    got = 0.7 - field
    assert isinstance(got, Jet) and set(got.d1) == {0, 2}
    assert _same_jet(got, -(field - 0.7))


def test_constant_fields_are_exact_doubles():
    x = np.zeros((1, 3))
    assert isotropic(1 / 3, 1, 1).lam(x)[0] == 1 / 3
    v = 1 / 3 + 1 / np.sqrt(3)
    values = Material(*3 * [lambda x1, x2, x3: v]).rho(np.zeros((2, 4, 3)))
    assert values.shape == (2, 4) and values.dtype == float and np.all(values == v)


def _symbolic_data(case):
    """u, the material and kappa of a case, written again in sympy; sigma and
    f derived from them symbolically."""
    x1, x2, x3 = xs = (X1, X2, X3)
    rho = lam = mu = sp.Integer(1)
    if case.tag == "varcoeff":
        u = [sp.cos(sp.pi * x1) * sp.sin(sp.pi * x2) * sp.cos(sp.pi * x3),
             5 * x1 ** 2 * x2 * x3 + 4 * x1 * x2 * x3 + 3 * x1 * x2 * x3 ** 2 + 17,
             sp.cos(2 * x2) * sp.cos(3 * x2) * sp.cos(x3)]
        rho = 1 + x1 ** 2 + x2 ** 2 + x3 ** 2
        lam = 2 + sp.Rational(2, 10) * x1 ** 2 + sp.Rational(3, 10) * x2 ** 2 \
            + sp.Rational(4, 100) * x3 ** 2
        mu = 3 + sp.Rational(5, 10) * x2 ** 2 + sp.Rational(3, 100) * x3 ** 2
    elif case.tag in ("pwave", "swave"):
        prm = case.params
        phase = sp.exp(-sp.I * sp.Float(case.kappa / prm["speed"], 17)
                       * sum(sp.Float(d, 17) * x for d, x in zip(prm["direction"], xs)))
        u = [sp.Float(prm["amplitude"] * e, 17) * phase for e in prm["polarization"]]
    else:
        k = case.params["degree"] - 1
        rng = np.random.default_rng(case.params["seed"])
        exps = [(a, b, c) for a in range(k + 2) for b in range(k + 2) for c in range(k + 2)
                if a + b + c <= k + 1]
        u = [sum(sp.Float(cc, 17) * x1 ** a * x2 ** b * x3 ** c
                 for cc, (a, b, c) in zip(rng.uniform(-1.0, 1.0, size=len(exps)), exps))
             for _ in range(3)]
    grad = [[sp.diff(u[i], xs[j]) for j in range(3)] for i in range(3)]
    div_u = sum(grad[i][i] for i in range(3))
    sigma = [[mu * (grad[i][j] + grad[j][i]) + (lam * div_u if i == j else 0)
              for j in range(3)] for i in range(3)]
    f = [sum(sp.diff(sigma[i][j], xs[j]) for j in range(3)) + case.kappa ** 2 * rho * u[i]
         for i in range(3)]
    return u, sigma, f


@pytest.mark.parametrize("tag, k", [("varcoeff", None), ("pwave", None), ("swave", None),
                                    ("polynomial", 1), ("polynomial", 2)])
def test_case_data_match_symbolic_derivation(tag, k):
    case = make_case(tag, kappa=1.3, k=k)
    pts = np.random.default_rng(11).uniform(0.0, 1.0, (40, 3))
    refs = {}
    for name, exprs in zip(("u", "sigma", "f"), _symbolic_data(case)):
        ref = refs[name] = np.array([[complex(e.evalf(20, subs=dict(zip((X1, X2, X3), x))))
                                      for e in np.ravel(np.array(exprs, dtype=object))]
                                     for x in pts])
        value = getattr(case, name)(pts).reshape(len(pts), -1)
        scale = np.abs(ref).max()
        if name == "f" and tag in ("pwave", "swave"):
            # the plane waves solve the homogeneous equation: f is roundoff
            assert scale < 1e-14 and np.abs(value).max() < 1e-14
        else:
            assert np.abs(value - ref).max() <= 1e-13 * scale, name
    # u_sigma gives sigma packed, in the order the solver stores it; sigma and
    # the first-order stress are read from those six components
    packed = case.u_sigma(pts)[1]
    ref = refs["sigma"].reshape(len(pts), 3, 3)
    ref = np.stack([ref[:, i, j] for i, j in SYM_COMPONENTS], axis=-1)
    assert packed.shape == (len(pts), 6)
    assert np.abs(packed - ref).max() <= 1e-13 * np.abs(ref).max()
    assert np.array_equal(unpack_sym(packed), case.sigma(pts))
    assert np.array_equal(case.first_order_fields(pts)[1], (1j / case.kappa) * packed)


def test_solve_path_does_not_import_sympy():
    script = """
import sys
import hdg_elastic as hdg
case = hdg.make_case("varcoeff")
disc = hdg.Discretization(hdg.tag_boundary(hdg.build_structured_cube(1), "mixed"), 1)
solution, info = hdg.solve_time_harmonic(disc, case.material, hdg.problem_data_from_case(case),
                                         hdg.VARIANTS["first_order"])
assert "sympy" not in sys.modules, "sympy was imported"
print("ok", hdg.compute_errors(disc, case.material, case, solution).rel_err_u)
"""
    src = str(Path(hdg_elastic.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.startswith("ok")


def _unit_cube_disc():
    from hdg_elastic import Discretization, build_structured_cube, tag_boundary
    return Discretization(tag_boundary(build_structured_cube(1), "all-dirichlet"), 1)


def _solve_and_step(disc, mat):
    from hdg_elastic import VARIANTS, ProblemData, SemidiscreteSystem, solve_time_harmonic
    yield lambda: solve_time_harmonic(disc, mat, ProblemData(kappa=1.0), VARIANTS["first_order"])
    yield lambda: SemidiscreteSystem(disc, mat, "conservative")


def test_invalid_material_field_fails_loudly():
    # mu = 1 - 2 x1 turns negative inside the cube, for x1 > 1/2
    mat = Material(lambda x1, x2, x3: 1.0, lambda x1, x2, x3: 1.0, lambda x1, x2, x3: 1 - 2 * x1)
    for call in _solve_and_step(_unit_cube_disc(), mat):
        with pytest.raises(ValueError, match="mu > 0"):
            call()


def test_nan_material_field_fails_loudly():
    # lam is NaN on half of the cube; NaN compares False, so no "<= 0" test catches it
    mat = Material(lambda x1, x2, x3: 1.0,
                   lambda x1, x2, x3: np.where(x1 > 0.5, np.nan, 1.0),
                   lambda x1, x2, x3: 1.0)
    for call in _solve_and_step(_unit_cube_disc(), mat):
        with pytest.raises(ValueError, match="material field lam violates"):
            call()


@pytest.mark.parametrize("field", ["lam", "mu", "rho"])
def test_nan_constant_moduli_rejected(field):
    moduli = {"lam": 1.0, "mu": 1.0, "rho": 1.0, field: np.nan}
    with pytest.raises(ValueError, match=f"material field {field} violates"):
        isotropic(**moduli)
