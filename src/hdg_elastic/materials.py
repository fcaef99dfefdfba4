"""Isotropic linear elastic material laws: compliance, wavespeeds, presets.

Symmetric 3x3 tensors are packed as 6-vectors of matrix entries in the order
(11, 22, 33, 23, 13, 12); off-diagonal entries are stored unscaled, and the
Frobenius pairing carries an explicit factor 2 on the off-diagonal slots.

A material field is a coordinate function of (x1, x2, x3) written with
ordinary arithmetic and this module's cos, sin and exp. Called on arrays it
gives the field's values; called on Jet coordinates it gives the values with
their first and second partial derivatives, exactly as the chain rule of each
operation carries them (forward-mode differentiation, Griewank & Walther,
Evaluating Derivatives, SIAM 2008). cases.py derives the manufactured stress
and load from these partials, so the solver evaluates the same functions from
which the data are derived.
"""

from dataclasses import dataclass

import numpy as np

SYM_COMPONENTS = ((0, 0), (1, 1), (2, 2), (1, 2), (0, 2), (0, 1))
FROBENIUS_WEIGHTS = np.array([1.0, 1.0, 1.0, 2.0, 2.0, 2.0])

# E_c: unit symmetric matrix for packed component c (both off-diagonal slots set)
SYM_MATS = np.zeros((6, 3, 3))
for _c, (_i, _j) in enumerate(SYM_COMPONENTS):
    SYM_MATS[_c, _i, _j] = 1.0
    SYM_MATS[_c, _j, _i] = 1.0

_SYM_TOL = 1e-12
_TRACE_PICK = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])


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


def _add_into(terms, key, value):
    terms[key] = terms[key] + value if key in terms else value


def _merged(a, b):
    """The sum of two sparse partial dicts."""
    out = dict(a)
    for key, value in b.items():
        _add_into(out, key, value)
    return out


class Jet:
    """A scalar field and its partial derivatives in x1, x2, x3 at a batch of
    points: the value val, the first partials d1 {axis: array} and the second
    partials d2 {(i, j), i <= j: array}, or d2 = None for a jet truncated after
    the first order. Absent entries are exact zeros; every operation keeps
    them absent, so a field that does not depend on x3 carries no x3 entry.
    Entries broadcast against val and are never modified in place."""
    __slots__ = ("val", "d1", "d2")
    __array_ufunc__ = None       # numpy operands defer to the reflected operators

    def __init__(self, val, d1, d2=None):
        self.val, self.d1, self.d2 = val, d1, d2

    @classmethod
    def coordinates(cls, x, order):
        """The jets of x1, x2, x3 at points x (..., 3), of order 1 or 2."""
        x = np.asarray(x)
        return tuple(cls(x[..., a], {a: 1.0}, {} if order == 2 else None) for a in range(3))

    def partial(self, axis):
        """The first-order jet of the partial derivative along axis."""
        d1 = {}
        for (i, j), v in self.d2.items():
            if axis in (i, j):
                d1[j if i == axis else i] = v
        return Jet(self.d1.get(axis, 0.0), d1)

    def _chain(self, f0, f1, f2):
        """g(self) from g, g' and g'' evaluated at self.val."""
        d1 = {i: f1 * a for i, a in self.d1.items()}
        d2 = None
        if self.d2 is not None:
            d2 = {ij: f1 * a for ij, a in self.d2.items()}
            for i, a in self.d1.items():
                for j, b in self.d1.items():
                    if i <= j:
                        _add_into(d2, (i, j), f2 * a * b)
        return Jet(f0, d1, d2)

    def __add__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.val + other, self.d1, self.d2)
        d2 = None if self.d2 is None or other.d2 is None else _merged(self.d2, other.d2)
        return Jet(self.val + other.val, _merged(self.d1, other.d1), d2)

    __radd__ = __add__

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.val * other, {i: a * other for i, a in self.d1.items()},
                       None if self.d2 is None
                       else {ij: a * other for ij, a in self.d2.items()})
        a, b = self, other
        d1 = _merged({i: v * b.val for i, v in a.d1.items()},
                     {i: a.val * v for i, v in b.d1.items()})
        d2 = None
        if a.d2 is not None and b.d2 is not None:
            d2 = _merged({ij: v * b.val for ij, v in a.d2.items()},
                         {ij: a.val * v for ij, v in b.d2.items()})
            for i, ai in a.d1.items():
                for j, bj in b.d1.items():
                    _add_into(d2, (min(i, j), max(i, j)), (2 if i == j else 1) * ai * bj)
        return Jet(a.val * b.val, d1, d2)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, (int, np.integer)):
            return NotImplemented
        if n == 0:
            return 1.0
        if n == 1:
            return self
        v = self.val
        return self._chain(v ** n, n * v ** (n - 1), n * (n - 1) * v ** (n - 2))


# cos, sin and exp of a number, an array or a Jet, for coordinate functions
def cos(x):
    if isinstance(x, Jet):
        c = np.cos(x.val)
        return x._chain(c, -np.sin(x.val), -c)
    return np.cos(x)


def sin(x):
    if isinstance(x, Jet):
        s = np.sin(x.val)
        return x._chain(s, np.cos(x.val), -s)
    return np.sin(x)


def exp(x):
    if isinstance(x, Jet):
        e = np.exp(x.val)
        return x._chain(e, e, e)
    return np.exp(x)


def _values(fn, points):
    """Values of a coordinate function at points (..., 3), broadcast to the
    batch shape (a constant too), real values as floats."""
    points = np.asarray(points)
    v = fn(*np.moveaxis(points, -1, 0))
    return np.array(np.broadcast_to(v, points.shape[:-1]), dtype=np.result_type(float, v))


def _check_moduli(lam, mu, rho):
    # each check reads "all hold", so that a NaN fails it
    for name, rule, holds in (("mu", "mu > 0", mu > 0),
                              ("lam", "3*lam + 2*mu > 0", 3 * lam + 2 * mu > 0),
                              ("rho", "rho > 0", rho > 0)):
        if not np.all(holds):
            raise ValueError(f"material field {name} violates {rule}")


@dataclass(frozen=True)
class Material:
    """rho, lam and mu as coordinate functions of (x1, x2, x3), each returning
    a number, an array or a Jet; rho(points), lam(points) and mu(points) are
    their values at points (..., 3)."""
    rho_fn: callable
    lam_fn: callable
    mu_fn: callable

    def rho(self, points):
        return _values(self.rho_fn, points)

    def lam(self, points):
        return _values(self.lam_fn, points)

    def mu(self, points):
        return _values(self.mu_fn, points)

    def validate(self, points):
        """Raise ValueError, naming the field, unless mu > 0, 3*lam + 2*mu > 0
        and rho > 0 at every point; a NaN fails."""
        _check_moduli(self.lam(points), self.mu(points), self.rho(points))

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


def _constant(value):
    return lambda x1, x2, x3: value


def isotropic(lam, mu, rho):
    """Constant-coefficient isotropic material."""
    lam, mu, rho = float(lam), float(mu), float(rho)
    _check_moduli(lam, mu, rho)
    return Material(_constant(rho), _constant(lam), _constant(mu))


def variable_preset():
    """Smooth variable-coefficient preset on the unit cube."""
    return Material(lambda x1, x2, x3: 1 + x1 ** 2 + x2 ** 2 + x3 ** 2,
                    lambda x1, x2, x3: 2 + 0.2 * x1 ** 2 + 0.3 * x2 ** 2 + 0.04 * x3 ** 2,
                    lambda x1, x2, x3: 3 + 0.5 * x2 ** 2 + 0.03 * x3 ** 2)
