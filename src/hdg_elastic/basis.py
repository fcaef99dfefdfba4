"""Orthonormal polynomial bases on the reference triangle and tetrahedron.

Bases are monomials orthonormalized against the exact reference mass matrix
(closed-form simplex monomial integrals), with one refinement pass so the
Gram matrix is the identity to machine precision.
"""

from math import factorial

import numpy as np

_DIM = {"triangle": 2, "tetrahedron": 3}


def simplex_space_dim(degree, dim):
    """dim P_degree on a dim-simplex."""
    if degree < 0:
        raise ValueError(f"polynomial degree must be >= 0, got {degree}")
    if dim == 2:
        return (degree + 1) * (degree + 2) // 2
    if dim == 3:
        return (degree + 1) * (degree + 2) * (degree + 3) // 6
    raise ValueError(f"unsupported simplex dimension {dim}")


def monomial_exponents(degree, dim):
    """All exponent multi-indices of total degree <= degree, graded lexicographic."""
    exps = []
    if dim == 2:
        for d in range(degree + 1):
            for a in range(d, -1, -1):
                exps.append((a, d - a))
    else:
        for d in range(degree + 1):
            for a in range(d, -1, -1):
                for b in range(d - a, -1, -1):
                    exps.append((a, b, d - a - b))
    return np.array(exps, dtype=int)


def monomial_integral(exponent):
    """Exact integral of the monomial over the unit simplex.

    For the tetrahedron: int x^a y^b z^c = a! b! c! / (a+b+c+3)!.
    For the triangle:    int x^a y^b     = a! b!    / (a+b+2)!.
    """
    num = 1
    for a in exponent:
        num *= factorial(int(a))
    return num / factorial(int(sum(exponent)) + len(exponent))


def _exact_mass(exps):
    n = len(exps)
    m = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            m[i, j] = m[j, i] = monomial_integral(exps[i] + exps[j])
    return m


class SimplexBasis:
    """L2-orthonormal polynomial basis of P_degree on a reference simplex."""

    def __init__(self, domain, degree):
        if domain not in _DIM:
            raise ValueError(f"unknown simplex domain {domain!r}")
        self.domain = domain
        self.dim = _DIM[domain]
        self.degree = int(degree)
        self.exponents = monomial_exponents(self.degree, self.dim)
        self.n = len(self.exponents)
        mass = _exact_mass(self.exponents)
        coeffs = np.linalg.inv(np.linalg.cholesky(mass).T)
        # refinement passes to remove arithmetic error of the factorization
        for _ in range(3):
            gram = coeffs.T @ mass @ coeffs
            defect = np.abs(gram - np.eye(self.n)).max()
            coeffs = coeffs @ np.linalg.inv(np.linalg.cholesky(gram).T)
            if defect < 1e-14:
                break
        self.coeffs = coeffs  # columns: basis functions in the monomial basis

    def eval(self, points):
        """Values and gradients at reference points.

        Returns (vals, grads) with shapes (nq, n) and (nq, n, dim).
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.dim:
            raise ValueError(f"points must have shape (nq, {self.dim})")
        nq = pts.shape[0]
        nm = len(self.exponents)
        vander = np.ones((nq, nm))
        dvander = np.zeros((nq, nm, self.dim))
        for m, exp in enumerate(self.exponents):
            for d, a in enumerate(exp):
                if a:
                    vander[:, m] *= pts[:, d] ** a
        for m, exp in enumerate(self.exponents):
            for d, a in enumerate(exp):
                if a == 0:
                    continue
                g = np.full(nq, float(a))
                for dd, aa in enumerate(exp):
                    p = aa - 1 if dd == d else aa
                    if p:
                        g *= pts[:, dd] ** p
                dvander[:, m, d] = g
        vals = vander @ self.coeffs
        grads = np.einsum("qmd,mn->qnd", dvander, self.coeffs)
        return vals, grads
