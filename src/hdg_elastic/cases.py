"""Manufactured exact solutions and their derived data.

Each case fixes a displacement field u, a material and a frequency. Every
field is a sympy expression: the stress sigma = 2 mu eps(u) + lam div(u) I
and the load f = div(sigma) + kappa^2 rho u are derived symbolically from u
and the material's expressions, and u, sigma and f are lambdified by the one
helper materials.lambdify_field, so the data satisfy the governing equations
exactly. Boundary data are traces of the exact fields: g_d = u, g_n = sigma n,
g_r = sigma n + i kappa u. The impedance sign is the one that matches the
first-order flux (alpha = i kappa): the impedance and stabilization terms then
enter the imaginary part of the discrete energy identity with the same sign.
"""

from dataclasses import dataclass

import numpy as np
import sympy as sp

from .materials import X1, X2, X3, isotropic, lambdify_field, variable_preset

_XS = (X1, X2, X3)
_UNIT_TOL = 1e-12


@dataclass(frozen=True)
class ExactCase:
    """Exact fields and data callables for one manufactured problem."""
    tag: str
    kappa: float
    material: object
    u: callable        # (..., 3)
    sigma: callable    # (..., 3, 3), the second-order stress variable
    f: callable        # (..., 3) volume load
    params: dict

    def g_d(self, x):
        return self.u(x)

    def g_n(self, x, n):
        return np.einsum("...ij,...j->...i", self.sigma(x), n)

    def g_r(self, x, n):
        return self.g_n(x, n) + 1j * self.kappa * self.u(x)

    def first_order_stress(self, x):
        if self.kappa == 0:
            raise ValueError("unscaled stress is undefined at kappa = 0")
        return (1j / self.kappa) * self.sigma(x)


def _build_case(tag, u_exprs, material, kappa, params):
    lam, mu, rho = material.lam_expr, material.mu_expr, material.rho_expr
    grad = [[sp.diff(u_exprs[i], _XS[j]) for j in range(3)] for i in range(3)]
    div_u = sum(grad[i][i] for i in range(3))
    sigma = [[mu * (grad[i][j] + grad[j][i]) + (lam * div_u if i == j else 0)
              for j in range(3)] for i in range(3)]
    f = [sum(sp.diff(sigma[i][j], _XS[j]) for j in range(3)) + kappa ** 2 * rho * u_exprs[i]
         for i in range(3)]
    return ExactCase(tag, float(kappa), material, lambdify_field(u_exprs),
                     lambdify_field(sigma), lambdify_field(f), params)


def _varcoeff_case(kappa):
    u = (sp.cos(sp.pi * X1) * sp.sin(sp.pi * X2) * sp.cos(sp.pi * X3),
         5 * X1 ** 2 * X2 * X3 + 4 * X1 * X2 * X3 + 3 * X1 * X2 * X3 ** 2 + 17,
         sp.cos(2 * X2) * sp.cos(3 * X2) * sp.cos(X3))
    return _build_case("varcoeff", u, variable_preset(), kappa, {})


def _plane_wave_case(tag, kappa, direction, polarization, amplitude):
    d = np.asarray(direction, dtype=float)
    e = np.asarray(polarization, dtype=float)
    if abs(np.linalg.norm(d) - 1) > 1e-9 or abs(np.linalg.norm(e) - 1) > 1e-9:
        raise ValueError("propagation and polarization directions must be unit vectors")
    material = isotropic(1.0, 1.0, 1.0)
    cp, cs = material.wavespeeds(np.zeros(3))
    if tag == "pwave":
        if np.linalg.norm(d - e) > _UNIT_TOL and np.linalg.norm(d + e) > _UNIT_TOL:
            raise ValueError("pressure wave requires polarization parallel to direction")
        c = float(cp)
    else:
        if abs(np.dot(d, e)) > 1e-9:
            raise ValueError("shear wave requires polarization orthogonal to direction")
        c = float(cs)
    phase = sp.exp(-sp.I * sp.Float(kappa / c) * (d[0] * X1 + d[1] * X2 + d[2] * X3))
    u = tuple(sp.Float(amplitude) * sp.Float(e[i]) * phase for i in range(3))
    params = {"direction": d.tolist(), "polarization": e.tolist(),
              "amplitude": amplitude, "speed": c}
    return _build_case(tag, u, material, kappa, params)


def _polynomial_case(kappa, k, seed):
    rng = np.random.default_rng(seed)
    material = isotropic(1.0, 1.0, 1.0)
    exps = [(a, b, c)
            for a in range(k + 2) for b in range(k + 2) for c in range(k + 2)
            if a + b + c <= k + 1]
    u = []
    for _ in range(3):
        coeffs = rng.uniform(-1.0, 1.0, size=len(exps))
        u.append(sum(sp.Float(cc) * X1 ** a * X2 ** b * X3 ** c
                     for cc, (a, b, c) in zip(coeffs, exps)))
    return _build_case("polynomial", tuple(u), material, kappa,
                       {"degree": k + 1, "seed": seed})


# Propagation along the main diagonal of the structured mesh reaches the
# asymptotic convergence regime on much coarser grids than oblique choices.
_DEFAULT_D = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
_DEFAULT_E_SHEAR = np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)


def make_case(tag, kappa=1.0, k=None, direction=None, polarization=None,
              amplitude=0.3, seed=20240901):
    """Build a named manufactured case.

    tags: 'varcoeff' (variable coefficients, trigonometric/polynomial u),
    'pwave'/'swave' (plane waves in a homogeneous medium, default amplitude
    0.3), 'polynomial' (seeded random vector field of degree k+1; requires k).
    """
    if tag == "varcoeff":
        return _varcoeff_case(kappa)
    if tag in ("pwave", "swave"):
        d = np.asarray(direction, dtype=float) if direction is not None else _DEFAULT_D
        if polarization is not None:
            e = np.asarray(polarization, dtype=float)
        else:
            e = d if tag == "pwave" else _DEFAULT_E_SHEAR
        return _plane_wave_case(tag, kappa, d, e, amplitude)
    if tag == "polynomial":
        if k is None:
            raise ValueError("polynomial case requires the degree parameter k")
        return _polynomial_case(kappa, int(k), seed)
    raise ValueError(f"unknown case tag {tag!r}")
