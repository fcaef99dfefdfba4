"""Element-local blocks, flux variants, local factorization and condensation.

Unknown layout per element K (all coefficient vectors real or complex):
  stress  s: packed components, index c*nV + i          (size 6*nV)
  displacement u: index d*nW + j                        (size 3*nW)
  traces  m: local faces 0..3 stacked, each d*nF + l    (size 12*nF)

With the numerical flux  sigma_hat n = sigma n - alpha * tau * (P_M u - u_hat),
the local equations for given trace m and load moments f are

  [ A    D^T          ] [s]   [ N^T m              ]
  [ D    k^2 M - a T11] [u] = [ f - a T12 m        ]

and the condensed transmission row reads

  ( B_out C^-1 B_in + a tau I ) m = rhs - B_out C^-1 [0; f],
  B_out = [N, -a tau G],  B_in = [N^T; -a tau G^T].

All blocks except those multiplied by alpha are real.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .materials import FROBENIUS_WEIGHTS, SYM_MATS

_COND_LIMIT = 1e13


class SingularLocalSolverError(RuntimeError):
    pass


@dataclass(frozen=True)
class FluxVariant:
    """Stabilization prefactor family: sigma_hat n = sigma n - alpha tau (P_M u - u_hat)."""
    tag: str

    def alpha(self, kappa):
        if self.tag == "first_order":
            return 1j * kappa
        if self.tag == "time_reversed":
            return -1j * kappa
        if self.tag == "kappa_scaled":
            return 1j * kappa ** 2
        if self.tag == "conservative":
            return 1.0 + 0.0j
        raise ValueError(f"unknown flux variant {self.tag!r}")


FIRST_ORDER = FluxVariant("first_order")
TIME_REVERSED = FluxVariant("time_reversed")
KAPPA_SCALED = FluxVariant("kappa_scaled")
CONSERVATIVE = FluxVariant("conservative")

VARIANTS = {v.tag: v for v in (FIRST_ORDER, TIME_REVERSED, KAPPA_SCALED, CONSERVATIVE)}


@dataclass
class LocalBlocks:
    element: int
    A: np.ndarray          # (6nV, 6nV) compliance mass
    D: np.ndarray          # (3nW, 6nV) divergence coupling
    M: np.ndarray          # (3nW, 3nW) density mass
    T11: np.ndarray        # (3nW, 3nW) tau <P_M u, P_M w>
    N: np.ndarray          # (4, 3nF, 6nV) normal trace per local face
    G: np.ndarray          # (4, 3nF, 3nW) face projection of the W trace
    tau: float
    h: float
    face_ids: np.ndarray   # (4,)
    nS: int
    nW3: int
    nFd: int               # 3*nF per face

    @property
    def nM(self):
        return 4 * self.nFd


def assemble_local_blocks(disc, material, e):
    """Quadrature assembly of all real elemental blocks.

    Raises ValueError when the material violates mu > 0, 3 lam + 2 mu > 0 or
    rho > 0 at a quadrature point of the element."""
    mesh = disc.mesh
    pts, wts = disc.element_points(e), disc.element_weights(e)
    material.validate(pts)
    phi, dphi = disc.scalar_basis(e, "V")
    psi, _ = disc.scalar_basis(e, "W")
    nV, nW, nF = disc.nV, disc.nW, disc.nF
    nS, nW3, nFd = 6 * nV, 3 * nW, 3 * nF

    a6 = material.compliance_packed(pts)                       # (nq, 6, 6)
    wa6 = FROBENIUS_WEIGHTS[None, :, None] * a6                # symmetric pairing weights
    A = np.einsum("q,qab,qi,qj->aibj", wts, wa6, phi, phi,
                  optimize=True).reshape(nS, nS)

    ecg = np.einsum("cde,qie->qcdi", SYM_MATS, dphi)            # (E_c grad phi_i)_d
    D = np.einsum("q,qj,qcdi->djci", wts, psi, ecg,
                  optimize=True).reshape(nW3, nS)

    rho = material.rho(pts)
    M = np.kron(np.eye(3), np.einsum("q,qi,qj->ij", wts * rho, psi, psi))

    tau = disc.tau(e)
    N = np.zeros((4, nFd, nS))
    G = np.zeros((4, nFd, nW3))
    T11 = np.zeros((nW3, nW3))
    for lf in range(4):
        fi = mesh.element_faces[e, lf]
        sign = mesh.element_face_signs[e, lf]
        fd = disc.face_data(fi)
        n = sign * mesh.faces[fi].normal
        en = np.einsum("cde,e->cd", SYM_MATS, n)                 # (E_c n)_d
        phi_f = disc.scalar_basis_at(e, fd.points, "V")
        psi_f = disc.scalar_basis_at(e, fd.points, "W")
        nquad = np.einsum("q,ql,qi->li", fd.weights, fd.chi, phi_f)
        g = np.einsum("q,ql,qj->lj", fd.weights, fd.chi, psi_f)
        N[lf] = np.einsum("cd,li->dlci", en, nquad).reshape(nFd, nS)
        G[lf] = np.kron(np.eye(3), g)
        T11 += tau * G[lf].T @ G[lf]

    return LocalBlocks(e, A, D, M, T11, N, G, tau, disc.h[e],
                       mesh.element_faces[e].copy(), nS, nW3, nFd)


def local_matrix(blocks, kappa, variant):
    """Local interior matrix C for the given frequency and flux variant."""
    alpha = variant.alpha(kappa)
    nS, nW3 = blocks.nS, blocks.nW3
    C = np.zeros((nS + nW3, nS + nW3), dtype=complex)
    C[:nS, :nS] = blocks.A
    C[:nS, nS:] = blocks.D.T
    C[nS:, :nS] = blocks.D
    C[nS:, nS:] = kappa ** 2 * blocks.M - alpha * blocks.T11
    return C


@dataclass
class LocalFactorization:
    blocks: LocalBlocks
    kappa: float
    variant: FluxVariant
    alpha: complex
    lu: tuple
    condition_estimate: float
    resolution_flag: bool   # True when kappa * h_K is outside the small-frequency regime


def factorize_local(blocks, kappa, variant, material=None, disc=None):
    """LU-factorize the local interior matrix; estimate its conditioning.

    The resolution flag marks elements with kappa*h_K >= 1/sqrt(|c_A| |rho|),
    the regime where local well-posedness is no longer guaranteed a priori.
    """
    C = local_matrix(blocks, kappa, variant)
    cond = np.linalg.cond(C, 1)
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise SingularLocalSolverError(
            f"local solver is singular on element {blocks.element} "
            f"(kappa={kappa}, variant={variant.tag}, cond={cond:.3e})")
    flag = False
    if material is not None and disc is not None:
        pts = disc.element_points(blocks.element)
        bound = float(np.max(material.compliance_bound(pts) * material.rho(pts)))
        flag = bool(kappa * blocks.h >= 1.0 / np.sqrt(bound))
    return LocalFactorization(blocks, kappa, variant, variant.alpha(kappa),
                              lu_factor(C), cond, flag)


def _coupling(fact):
    """B_in ((nS+nW3) x nM) and B_out (nM x (nS+nW3))."""
    b = fact.blocks
    n_all = b.nS + b.nW3
    B_in = np.zeros((n_all, b.nM), dtype=complex)
    B_out = np.zeros((b.nM, n_all), dtype=complex)
    at = fact.alpha * b.tau
    for lf in range(4):
        cols = slice(lf * b.nFd, (lf + 1) * b.nFd)
        B_in[:b.nS, cols] = b.N[lf].T
        B_in[b.nS:, cols] = -at * b.G[lf].T
        B_out[cols, :b.nS] = b.N[lf]
        B_out[cols, b.nS:] = -at * b.G[lf]
    return B_in, B_out


def condense(fact):
    """Schur complement onto the element's trace unknowns.

    Returns (S, load_map): S is the (nM, nM) condensed block and load_map is
    the (nM, 3nW) matrix sending interior load moments f to their skeleton
    right-hand-side contribution  -B_out C^-1 [0; f].
    """
    b = fact.blocks
    B_in, B_out = _coupling(fact)
    X = lu_solve(fact.lu, B_in)                 # C^-1 B_in
    S = B_out @ X + fact.alpha * b.tau * np.eye(b.nM)
    Y = lu_solve(fact.lu, np.vstack([np.zeros((b.nS, b.nW3)),
                                     np.eye(b.nW3)]).astype(complex))
    load_map = -B_out @ Y
    return S, load_map


def recover(fact, m_local, f_moments):
    """Interior solve for (s, u) given stacked local traces and load moments.

    Returns (s, u) with shapes (6, nV) and (3, nW)."""
    b = fact.blocks
    B_in, _ = _coupling(fact)
    rhs = B_in @ np.asarray(m_local, dtype=complex)
    rhs[b.nS:] += np.asarray(f_moments, dtype=complex).ravel()
    sol = lu_solve(fact.lu, rhs)
    nV = b.nS // 6
    nW = b.nW3 // 3
    return sol[:b.nS].reshape(6, nV), sol[b.nS:].reshape(3, nW)
