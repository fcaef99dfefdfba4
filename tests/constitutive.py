"""Dense packed forms of the isotropic law, for the tests' oracles.

The solver never forms these: it applies the compliance through the two
scalar masses of each element and bounds it through element_blocks'
wave_bound. The tests build the pointwise 6x6 matrices of the stiffness C
and the compliance A = C^-1 in the packed order of materials.SYM_COMPONENTS
to check those kernels against.
"""

import numpy as np

TRACE_PICK = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])


def stiffness_packed(material, points):
    """(..., 6, 6) entry representation of C xi = 2 mu xi + lam tr(xi) I."""
    lam, mu = material.lam(points), material.mu(points)
    tr = np.outer(TRACE_PICK, TRACE_PICK)
    return 2.0 * mu[..., None, None] * np.eye(6) + lam[..., None, None] * tr


def compliance_packed(material, points):
    """(..., 6, 6) entry representation of the inverse law A = C^-1."""
    lam, mu = material.lam(points), material.mu(points)
    tr = np.outer(TRACE_PICK, TRACE_PICK)
    coef = lam / (2.0 * mu * (2.0 * mu + 3.0 * lam))
    return np.eye(6) / (2.0 * mu[..., None, None]) - coef[..., None, None] * tr


def compliance_bound(material, points):
    """Pointwise spectral norm of A: max(1/(2 mu), 1/(2 mu + 3 lam))."""
    lam, mu = material.lam(points), material.mu(points)
    return np.maximum(1.0 / (2.0 * mu), 1.0 / (2.0 * mu + 3.0 * lam))
