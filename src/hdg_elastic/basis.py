"""Orthonormal polynomial bases on the reference triangle and tetrahedron.

Bases are monomials orthonormalized against the exact reference mass matrix
(closed-form simplex monomial integrals), with refinement passes so the Gram
matrix is the identity to machine precision. One construction serves both
dimensions: the monomials and their gradients are products of scalar powers.
"""

import itertools
from functools import reduce
from math import comb, factorial, prod

import numpy as np

from .quadrature import SIMPLEX_DIM


def simplex_space_dim(degree, dim):
    """dim P_degree on a dim-simplex."""
    if degree < 0:
        raise ValueError(f"polynomial degree must be >= 0, got {degree}")
    if dim not in SIMPLEX_DIM.values():
        raise ValueError(f"unsupported simplex dimension {dim}")
    return comb(degree + dim, dim)


def monomial_exponents(degree, dim):
    """All exponent multi-indices of total degree <= degree, (n, dim): graded
    by total degree, then descending lexicographic within a degree."""
    descending = itertools.product(range(degree, -1, -1), repeat=dim)
    exps = sorted((a for a in descending if sum(a) <= degree), key=sum)
    return np.array(exps, dtype=int)


def monomial_integral(exponent):
    """Exact integral of x^a over the unit simplex of dimension len(a),
    a_1! ... a_dim! / (|a| + dim)!; a! b! c! / (a+b+c+3)! on the tetrahedron."""
    num = prod(factorial(int(a)) for a in exponent)
    return num / factorial(int(sum(exponent)) + len(exponent))


class SimplexBasis:
    """L2-orthonormal polynomial basis of P_degree on a reference simplex."""

    def __init__(self, domain, degree):
        if domain not in SIMPLEX_DIM:
            raise ValueError(f"unknown simplex domain {domain!r}")
        self.domain = domain
        self.dim = SIMPLEX_DIM[domain]
        self.degree = int(degree)
        self.exponents = monomial_exponents(self.degree, self.dim)
        self.n = len(self.exponents)
        mass = np.array([[monomial_integral(a + b) for b in self.exponents]
                         for a in self.exponents])
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
        exps, axes = self.exponents, np.arange(self.dim)
        powers = np.stack([pts ** p for p in range(self.degree + 1)], axis=-1)  # x_d^p
        # monomial m is x^a = prod_d x_d^(a_d); its x_d-derivative is a_d times
        # the product over e of x_e^(a_e - [e = d]), clipped at 0 where a_d = 0
        lowered = np.maximum(exps[:, None, :] - np.eye(self.dim, dtype=int), 0)
        # factors multiply left to right, the derivative's a_d first
        vander = reduce(np.multiply, np.moveaxis(powers[:, axes, exps], -1, 0))
        dvander = reduce(np.multiply, np.moveaxis(powers[:, axes, lowered], -1, 0),
                         exps.astype(float))
        # a C-contiguous vander gives the @ product its usual summation order
        vals = np.ascontiguousarray(vander) @ self.coeffs
        grads = np.einsum("qmd,mn->qnd", dvander, self.coeffs)
        return vals, grads
