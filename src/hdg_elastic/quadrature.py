"""Conical-product Gauss quadrature on the reference simplices.

The reference triangle and tetrahedron are {x : x_d >= 0, sum_d x_d <= 1} in
dimension 2 and 3. One construction serves both: coordinate d of the cube
[0, 1]^dim takes the Gauss rule with Jacobi weight (1 - t)^d, which absorbs
the Jacobian of the collapse x_d = t_d prod_{e>d} (1 - t_e) onto the simplex,
so the weights are the outer product of the 1D weights. m = exactness // 2 + 1
points per coordinate integrate total degree <= exactness <= MAX_EXACTNESS.
"""

from dataclasses import dataclass
from functools import reduce

import numpy as np
from scipy.special import roots_jacobi

MAX_EXACTNESS = 40
SIMPLEX_DIM = {"triangle": 2, "tetrahedron": 3}


@dataclass(frozen=True)
class QuadratureRule:
    domain: str
    exactness: int
    points: np.ndarray   # (nq, dim)
    weights: np.ndarray  # (nq,)


def _gauss01(n, alpha):
    """n-point Gauss rule on [0,1] with weight (1-t)^alpha."""
    x, w = roots_jacobi(n, alpha, 0.0)
    # map [-1,1] -> [0,1]; weight picks up a 1/2^(alpha+1) factor
    return (x + 1.0) / 2.0, w / 2.0 ** (alpha + 1)


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
