"""Manufactured exact solutions and their derived data.

Each case fixes a displacement field u, a material and a frequency. u is a
coordinate function of (x1, x2, x3), like the material's fields, written with
the cos, sin and exp of materials.py. The stress
sigma = mu (grad u + grad u^T) + lam div(u) I is written once, as a function
of coordinates that seeds u one materials.Jet level above them and takes
grad u from its partials. On arrays it gives sigma; on seeded coordinates it
gives sigma as jets, and the load f = div(sigma) + kappa^2 rho u is read from
their partials. Both are exact up to roundoff, so the data satisfy the
governing equations. Boundary
data are traces of the exact fields: g_d = u, g_n = sigma n,
g_r = sigma n + i kappa u. The impedance sign is the one that matches the
first-order flux (alpha = i kappa): the impedance and stabilization terms then
enter the imaginary part of the discrete energy identity with the same sign.
"""

from dataclasses import dataclass

import numpy as np

from .materials import Jet, cos, exp, isotropic, sin, variable_preset

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


def _lift(value):
    return value if isinstance(value, Jet) else Jet(value, {})


def _stack(components, batch):
    """A sequence of 3 or a 3x3 nested list of component values at a batch of
    points -> one array of shape batch + (3,) or batch + (3, 3), a constant
    component broadcast, real values as floats."""
    nested = isinstance(components[0], list)
    cols = [np.broadcast_to(c, batch)
            for c in ([c for row in components for c in row] if nested else components)]
    return np.stack(cols, axis=-1, dtype=np.result_type(float, *cols)).reshape(
        batch + ((3, 3) if nested else (3,)))


def _build_case(tag, u_fn, material, kappa, params):
    def fields(xs):
        """u and sigma = mu (grad u + grad u^T) + lam div(u) I at the
        coordinates xs (arrays, or jets), with u seeded one level above them."""
        u = [_lift(c) for c in u_fn(*Jet.seed(xs))]
        grad = [[c.d1.get(j, 0.0) for j in range(3)] for c in u]
        div = grad[0][0] + grad[1][1] + grad[2][2]
        lam, mu = material.lam_fn(*xs), material.mu_fn(*xs)
        return [c.val for c in u], [[mu * (grad[i][j] + grad[j][i]) + (lam * div if i == j else 0)
                                     for j in range(3)] for i in range(3)]

    def u(x):
        x = np.asarray(x)
        return _stack(u_fn(*np.moveaxis(x, -1, 0)), x.shape[:-1])

    def sigma(x):
        x = np.asarray(x)
        return _stack(fields(np.moveaxis(x, -1, 0))[1], x.shape[:-1])

    def f(x):
        x = np.asarray(x)
        uj, s = fields(Jet.seed(np.moveaxis(x, -1, 0)))
        rho = material.rho(x)
        return _stack([sum(_lift(s[i][j]).d1.get(j, 0.0) for j in range(3))
                       + kappa ** 2 * rho * _lift(uj[i]).val for i in range(3)], x.shape[:-1])

    return ExactCase(tag, float(kappa), material, u, sigma, f, params)


def _varcoeff_u(x1, x2, x3):
    return (cos(np.pi * x1) * sin(np.pi * x2) * cos(np.pi * x3),
            5 * x1 ** 2 * x2 * x3 + 4 * x1 * x2 * x3 + 3 * x1 * x2 * x3 ** 2 + 17,
            cos(2 * x2) * cos(3 * x2) * cos(x3))


def _varcoeff_case(kappa):
    return _build_case("varcoeff", _varcoeff_u, variable_preset(), kappa, {})


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

    def u_fn(x1, x2, x3):
        phase = exp(-1j * (kappa / c) * (d[0] * x1 + d[1] * x2 + d[2] * x3))
        return tuple(amplitude * e[i] * phase for i in range(3))

    params = {"direction": d.tolist(), "polarization": e.tolist(),
              "amplitude": amplitude, "speed": c}
    return _build_case(tag, u_fn, material, kappa, params)


def _polynomial_case(kappa, k, seed):
    rng = np.random.default_rng(seed)
    material = isotropic(1.0, 1.0, 1.0)
    exps = [(a, b, c)
            for a in range(k + 2) for b in range(k + 2) for c in range(k + 2)
            if a + b + c <= k + 1]
    coeffs = [rng.uniform(-1.0, 1.0, size=len(exps)) for _ in range(3)]

    def u_fn(x1, x2, x3):
        monomials = [x1 ** a * x2 ** b * x3 ** c for a, b, c in exps]
        return tuple(sum(cc * m for cc, m in zip(row, monomials)) for row in coeffs)

    return _build_case("polynomial", u_fn, material, kappa,
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
