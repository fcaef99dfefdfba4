"""Isotropic linear elastic material laws: stiffness, compliance, wavespeeds.

Symmetric 3x3 tensors are packed as 6-vectors of matrix entries in the order
(11, 22, 33, 23, 13, 12); off-diagonal entries are stored unscaled, and the
Frobenius pairing carries an explicit factor 2 on the off-diagonal slots.

Every field is a sympy expression in x1, x2, x3: the material coefficients
here and the manufactured data in cases.py. One helper, lambdify_field,
turns a scalar, vector or matrix expression into a vectorized callable of
points (..., 3), so the solver evaluates the same expressions from which the
data are derived.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import sympy as sp

SYM_COMPONENTS = ((0, 0), (1, 1), (2, 2), (1, 2), (0, 2), (0, 1))
FROBENIUS_WEIGHTS = np.array([1.0, 1.0, 1.0, 2.0, 2.0, 2.0])

# E_c: unit symmetric matrix for packed component c (both off-diagonal slots set)
SYM_MATS = np.zeros((6, 3, 3))
for _c, (_i, _j) in enumerate(SYM_COMPONENTS):
    SYM_MATS[_c, _i, _j] = 1.0
    SYM_MATS[_c, _j, _i] = 1.0

_SYM_TOL = 1e-12
_TRACE_PICK = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])

X1, X2, X3 = sp.symbols("x1 x2 x3", real=True)


def pack_sym(mat):
    """(..., 3, 3) symmetric matrices -> (..., 6) packed entries."""
    mat = np.asarray(mat)
    skew = np.abs(mat - np.swapaxes(mat, -1, -2)).max()
    scale = max(np.abs(mat).max(), 1.0)
    if skew > _SYM_TOL * scale:
        raise ValueError(f"matrix field is not symmetric (max asymmetry {skew:.3e})")
    return np.stack([mat[..., i, j] for i, j in SYM_COMPONENTS], axis=-1)


def unpack_sym(packed):
    """(..., 6) packed entries -> (..., 3, 3) symmetric matrices."""
    packed = np.asarray(packed)
    return np.einsum("...c,cij->...ij", packed, SYM_MATS.astype(packed.dtype, copy=False))


def lambdify_field(exprs):
    """Vectorized callable of a sympy field in x1, x2, x3: a scalar expression,
    a list of 3 or a 3x3 nested list. It maps points (..., 3) to values of
    shape (...,) + the field's shape, every component (a constant too) broadcast
    to the batch shape, and real values to floats.

    lambdify prints a Float with its own precision, 15 digits for a double,
    so every Float is raised to 17 digits first: the printed constants are
    then the doubles exactly."""
    exprs = np.array(exprs, dtype=object)
    flat = [e.xreplace({c: sp.Float(c, 17) for c in e.atoms(sp.Float)})
            for e in sp.sympify(exprs.ravel().tolist())]
    # docstring_limit=0: printing a docstring took a third of make_case
    fn = sp.lambdify((X1, X2, X3), flat, "numpy", docstring_limit=0)

    def field(x):
        x = np.asarray(x)
        cols = [np.broadcast_to(v, x.shape[:-1]) for v in fn(*np.moveaxis(x, -1, 0))]
        return np.stack(cols, axis=-1, dtype=np.result_type(float, *cols)).reshape(
            x.shape[:-1] + exprs.shape)

    return field


@dataclass(frozen=True)
class Material:
    """rho, lam and mu as sympy expressions in x1, x2, x3, with their callables
    of points (..., 3) lambdified once, at first use."""
    rho_expr: sp.Expr
    lam_expr: sp.Expr
    mu_expr: sp.Expr

    @cached_property
    def rho(self):
        return lambdify_field(self.rho_expr)

    @cached_property
    def lam(self):
        return lambdify_field(self.lam_expr)

    @cached_property
    def mu(self):
        return lambdify_field(self.mu_expr)

    def validate(self, points):
        lam, mu, rho = self.lam(points), self.mu(points), self.rho(points)
        if np.any(mu <= 0) or np.any(3 * lam + 2 * mu <= 0):
            raise ValueError("material moduli violate mu > 0, 3*lam + 2*mu > 0")
        if np.any(rho <= 0):
            raise ValueError("material density must be positive")

    def stiffness_packed(self, points):
        """(..., 6, 6) entry representation of C xi = 2 mu xi + lam tr(xi) I."""
        lam, mu = self.lam(points), self.mu(points)
        eye = np.eye(6)
        tr = np.outer(_TRACE_PICK, _TRACE_PICK)
        return 2.0 * mu[..., None, None] * eye + lam[..., None, None] * tr

    def compliance_packed(self, points):
        """(..., 6, 6) entry representation of the inverse law A = C^-1."""
        lam, mu = self.lam(points), self.mu(points)
        eye = np.eye(6)
        tr = np.outer(_TRACE_PICK, _TRACE_PICK)
        coef = lam / (2.0 * mu * (2.0 * mu + 3.0 * lam))
        return eye / (2.0 * mu[..., None, None]) - coef[..., None, None] * tr

    def compliance_bound(self, points):
        """Pointwise spectral norm of A: max(1/(2 mu), 1/(2 mu + 3 lam))."""
        lam, mu = self.lam(points), self.mu(points)
        return np.maximum(1.0 / (2.0 * mu), 1.0 / (2.0 * mu + 3.0 * lam))

    def wavespeeds(self, points):
        """(c_p, c_s) = (sqrt((lam + 2 mu)/rho), sqrt(mu/rho))."""
        lam, mu, rho = self.lam(points), self.mu(points), self.rho(points)
        return np.sqrt((lam + 2.0 * mu) / rho), np.sqrt(mu / rho)


def apply_stiffness(material, points, xi):
    """C xi for a symmetric matrix field xi of shape (..., 3, 3)."""
    packed = pack_sym(xi)
    return unpack_sym(np.einsum("...cd,...d->...c", material.stiffness_packed(points), packed))


def apply_compliance(material, points, xi):
    """A xi = C^-1 xi for a symmetric matrix field xi of shape (..., 3, 3)."""
    packed = pack_sym(xi)
    return unpack_sym(np.einsum("...cd,...d->...c", material.compliance_packed(points), packed))


def isotropic(lam, mu, rho):
    """Constant-coefficient isotropic material."""
    lam, mu, rho = float(lam), float(mu), float(rho)
    if mu <= 0 or 3 * lam + 2 * mu <= 0:
        raise ValueError("require mu > 0 and 3*lam + 2*mu > 0")
    if rho <= 0:
        raise ValueError("density must be positive")
    return Material(sp.Float(rho), sp.Float(lam), sp.Float(mu))


def variable_preset():
    """Smooth variable-coefficient preset on the unit cube."""
    return Material(1 + X1 ** 2 + X2 ** 2 + X3 ** 2,
                    2 + sp.Rational(2, 10) * X1 ** 2 + sp.Rational(3, 10) * X2 ** 2
                    + sp.Rational(4, 100) * X3 ** 2,
                    3 + sp.Rational(5, 10) * X2 ** 2 + sp.Rational(3, 100) * X3 ** 2)
