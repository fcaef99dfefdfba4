"""Isotropic linear elastic materials: moduli fields, wavespeeds, presets.

Symmetric 3x3 tensors are packed as 6-vectors of matrix entries in the order
(11, 22, 33, 23, 13, 12); off-diagonal entries are stored unscaled, and the
Frobenius pairing carries an explicit factor 2 on the off-diagonal slots.

A material field is a coordinate function of (x1, x2, x3) written with
ordinary arithmetic (+ - * /, integer powers) and this module's cos, sin and
exp. Called on arrays it gives the field's values; called on Jet coordinates
it gives the values with their first partial derivatives, exactly as the
chain rule of each operation carries them (forward-mode differentiation,
Griewank & Walther, Evaluating Derivatives, SIAM 2008). Coordinates seeded
twice give jets whose values and partials are jets, and so the second
partials (Siskind & Pearlmutter, HOSC 21, 2008). cases.py derives the
manufactured stress and load from these partials, so the solver evaluates
the same functions from which the data are derived.
"""

from dataclasses import dataclass

import numpy as np

SYM_COMPONENTS = ((0, 0), (1, 1), (2, 2), (1, 2), (0, 2), (0, 1))
FROBENIUS_WEIGHTS = np.array([1.0, 1.0, 1.0, 2.0, 2.0, 2.0])

# E_c: unit symmetric matrix for packed component c (both off-diagonal slots set);
# SYM_INDEX[i, j]: the packed component that holds entry (i, j)
SYM_MATS = np.zeros((6, 3, 3))
SYM_INDEX = np.zeros((3, 3), dtype=int)
for _c, (_i, _j) in enumerate(SYM_COMPONENTS):
    SYM_MATS[_c, _i, _j] = 1.0
    SYM_MATS[_c, _j, _i] = 1.0
    SYM_INDEX[_i, _j] = SYM_INDEX[_j, _i] = _c

_SYM_TOL = 1e-12


def pack_sym(mat):
    """(..., 3, 3) symmetric matrices -> (..., 6) packed entries. The symmetry
    check guards fields from outside the package (Discretization.project_v)."""
    mat = np.asarray(mat)
    skew = np.abs(mat - np.swapaxes(mat, -1, -2)).max(initial=0.0)
    scale = max(np.abs(mat).max(initial=0.0), 1.0)
    if skew > _SYM_TOL * scale:
        raise ValueError(f"matrix field is not symmetric (max asymmetry {skew:.3e})")
    return np.stack([mat[..., i, j] for i, j in SYM_COMPONENTS], axis=-1)


def unpack_sym(packed):
    """(..., 6) packed entries -> (..., 3, 3) symmetric matrices, a contiguous
    exact copy of the entries."""
    return np.take(packed, SYM_INDEX, axis=-1)


def _merged(a, b):
    """The sum of two sparse partial dicts."""
    out = dict(a)
    for key, value in b.items():
        out[key] = out[key] + value if key in out else value
    return out


class Jet:
    """A scalar field and its first partial derivatives in x1, x2, x3 at a
    batch of points: the value val and the partials d1 {axis: entry}. Absent
    entries are exact zeros; every operation keeps them absent, so a field
    that does not depend on x3 carries no x3 entry. Entries broadcast against
    val and are never modified in place.

    val and the entries may themselves be jets one level down, seeded in the
    same coordinates: then the x_j-partial of d1[i] is the second partial
    d_i d_j of the field. Jets of different levels are never combined."""
    __slots__ = ("val", "d1")
    __array_ufunc__ = None       # numpy operands defer to the reflected operators

    def __init__(self, val, d1):
        self.val, self.d1 = val, d1

    @classmethod
    def seed(cls, xs):
        """The coordinates xs (three arrays, or three jets) lifted one level."""
        return tuple(cls(x, {a: 1.0}) for a, x in enumerate(xs))

    def _chain(self, f0, f1):
        """g(self) from g and g' evaluated at self.val."""
        return Jet(f0, {i: f1 * a for i, a in self.d1.items()})

    def __add__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.val + other, self.d1)
        return Jet(self.val + other.val, _merged(self.d1, other.d1))

    __radd__ = __add__

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.val * other, {i: a * other for i, a in self.d1.items()})
        return Jet(self.val * other.val,
                   _merged({i: a * other.val for i, a in self.d1.items()},
                           {i: self.val * b for i, b in other.d1.items()}))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * other ** -1

    def __rtruediv__(self, other):
        return other * self ** -1

    def __pow__(self, n):
        if not isinstance(n, (int, np.integer)):
            return NotImplemented
        if n == 0:
            return 1.0
        if n == 1:
            return self
        return self._chain(self.val ** n, n * self.val ** (n - 1))


# cos, sin and exp of a number, an array or a Jet, for coordinate functions
def cos(x):
    if isinstance(x, Jet):
        return x._chain(cos(x.val), -sin(x.val))
    return np.cos(x)


def sin(x):
    if isinstance(x, Jet):
        return x._chain(sin(x.val), cos(x.val))
    return np.sin(x)


def exp(x):
    if isinstance(x, Jet):
        e = exp(x.val)
        return x._chain(e, e)
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
    return lam, mu, rho


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
        """(lam, mu, rho) at points; raises ValueError, naming the field,
        unless mu > 0, 3*lam + 2*mu > 0 and rho > 0 at every point (a NaN fails)."""
        return _check_moduli(self.lam(points), self.mu(points), self.rho(points))

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
