"""Conical-product Gauss quadrature on the reference simplices.

The reference triangle and tetrahedron are {x : x_d >= 0, sum_d x_d <= 1} in
dimension 2 and 3. One construction serves both: coordinate d of the cube
[0, 1]^dim takes the Gauss rule with Jacobi weight (1 - t)^d, which absorbs
the Jacobian of the collapse x_d = t_d prod_{e>d} (1 - t_e) onto the simplex,
so the weights are the outer product of the 1D weights. m = exactness // 2 + 1
points per coordinate integrate total degree <= exactness <= MAX_EXACTNESS.
The 1D rules come from the three-term recurrence of the Jacobi polynomials
by Golub & Welsch (Math. Comp. 23, 1969), with numpy alone.
"""

from dataclasses import dataclass
from functools import reduce

import numpy as np

MAX_EXACTNESS = 40
SIMPLEX_DIM = {"triangle": 2, "tetrahedron": 3}


@dataclass(frozen=True)
class QuadratureRule:
    domain: str
    exactness: int
    points: np.ndarray   # (nq, dim)
    weights: np.ndarray  # (nq,)


def _gauss01(n, alpha):
    """n-point Gauss rule on [0,1] with weight (1-t)^alpha: the nodes are the
    eigenvalues of the Jacobi matrix of the monic orthogonal polynomials, and
    the weights the squared first components of its unit eigenvectors times
    the weight's mass 1/(alpha+1). The matrix is that of the Jacobi
    polynomials P^(alpha, 0) on [-1,1], mapped by t = (x + 1)/2."""
    j = np.arange(1, n)
    s = 2.0 * j + alpha
    diag = np.concatenate([[-alpha / (alpha + 2.0)], -alpha ** 2 / (s * (s + 2.0))])
    off = 2.0 * j * (j + alpha) / (s * np.sqrt(s * s - 1.0))
    t, vecs = np.linalg.eigh((np.diag(diag) + np.diag(off, 1) + np.diag(off, -1) + np.eye(n)) / 2.0)
    return t, vecs[0] ** 2 / (alpha + 1.0)


def simplex_rule(domain, exactness):
    """Rule on the reference simplex `domain` ('triangle' or 'tetrahedron'),
    exact for polynomials of total degree <= exactness."""
    if domain not in SIMPLEX_DIM:
        raise ValueError(f"unknown quadrature domain {domain!r}")
    if not isinstance(exactness, (int, np.integer)) or not 0 <= exactness <= MAX_EXACTNESS:
        raise ValueError(f"quadrature exactness must be an int in [0, {MAX_EXACTNESS}], "
                         f"got {exactness!r}")
    dim = SIMPLEX_DIM[domain]
    t, w = zip(*(_gauss01(exactness // 2 + 1, d) for d in range(dim)))
    cube = np.meshgrid(*t, indexing="ij")
    pts = [reduce(lambda x, te: x * (1.0 - te), cube[d + 1:], cube[d]).ravel()
           for d in range(dim)]
    return QuadratureRule(domain, exactness, np.column_stack(pts),
                          reduce(np.multiply.outer, w).ravel())
