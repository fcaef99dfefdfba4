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

All blocks except those multiplied by alpha are real, so for a real alpha
(the conservative variant) every block of C and of the condensed system is
real.

element_blocks and condense_batch do this work for batches of elements with
stacked array operations; the hybrid solve uses them, and its local
diagnostics (the exact cond(C, 1) and resolution_flags) come from them alone.
factorize_local, condense and recover treat one element through the LU
factors of C; only tests call them, as the reference for the batched path.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .discretization import _rmul
from .materials import SYM_MATS

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
            return 1.0
        raise ValueError(f"unknown flux variant {self.tag!r}")


FIRST_ORDER = FluxVariant("first_order")
TIME_REVERSED = FluxVariant("time_reversed")
KAPPA_SCALED = FluxVariant("kappa_scaled")
CONSERVATIVE = FluxVariant("conservative")

VARIANTS = {v.tag: v for v in (FIRST_ORDER, TIME_REVERSED, KAPPA_SCALED, CONSERVATIVE)}


# Working memory of one element batch. Batches bound the peak memory of the
# element kernels; the kernels' results do not depend on the batch size.
_BATCH_BYTES = 16 * 2 ** 20


def element_batches(ne, bytes_per_element):
    """Consecutive index arrays covering range(ne), each within _BATCH_BYTES."""
    size = max(1, _BATCH_BYTES // max(int(bytes_per_element), 1))
    return [np.arange(start, min(start + size, ne)) for start in range(0, ne, size)]


def block_bytes(disc):
    """Upper estimate of the working memory per element of the block
    quadrature and condense_batch: the real blocks, the dense A^-1 of the norm,
    P_D and P_N, and, counted complex, Sigma, its inverse and the larger set of
    the norm (Y, Y^T, Q, A^-1 + Q) or of the solvers (R and two temporaries, X,
    P_D X_u, S). At a high quadrature exactness the points bound it instead:
    144 doubles per volume point cover the load moments, whose jets of the load
    keep about 100, and the block quadrature, about 35."""
    nS, nW3, nM = 6 * disc.nV, 3 * disc.nW, 12 * disc.nF
    real = 2 * nS * (nS + nW3 + nM) + 2 * nW3 * (nW3 + nM)
    cplx = 2 * nW3 * nW3 + max(2 * nS * (nS + nW3), (2 * nS + 4 * nW3 + nM) * nM)
    return 8 * max(144 * len(disc.vol_rule.weights), real + 2 * cplx)


@dataclass
class LocalBlocks:
    """Real blocks of one element, or of a batch of elements with a leading
    element axis on every array field (element, tau, h and wave_bound too)."""
    element: int
    A: np.ndarray          # (6nV, 6nV) compliance mass, laid out from A_masses
    A_masses: np.ndarray   # (2, nV, nV) M[1/(2 mu)] and M[1/(2 mu + 3 lam)], which fix A
    D: np.ndarray          # (3nW, 6nV) divergence coupling
    M: np.ndarray          # (3nW, 3nW) density mass
    T11: np.ndarray        # (3nW, 3nW) tau <P_M u, P_M w>
    N: np.ndarray          # (4, 3nF, 6nV) normal trace per local face
    G: np.ndarray          # (4, 3nF, 3nW) face projection of the W trace
    tau: float
    h: float
    nS: int
    nW3: int
    nFd: int               # 3*nF per face
    wave_bound: float      # max of |c_A| rho over the element's quadrature points

    @property
    def nM(self):
        return 4 * self.nFd


def _kron3(blocks):
    """kron(I_3, b) for every b of a stack (..., r, c)."""
    *lead, r, c = blocks.shape
    out = np.zeros((*lead, 3, r, 3, c))
    for d in range(3):
        out[..., d, :, d, :] = blocks
    return out.reshape(*lead, 3 * r, 3 * c)


def _isotropic_layout(masses, shear):
    """The (nb, 6nV, 6nV) matrix of an isotropic law on packed stresses from
    the scalar masses (X_dev, X_vol) = masses[:, 0], masses[:, 1] (nb, nV, nV):
    I_3 (x) X_dev + 1/3 11^T (x) (X_vol - X_dev) on the normal components and
    shear * X_dev on each shear one. The compliance mass A is the layout of
    (M_dev, M_vol) with shear 2, the Frobenius weight; A^-1 is the layout of
    their inverses with shear 1/2."""
    nb, nV = masses.shape[0], masses.shape[-1]
    x_dev = masses[:, 0]
    out = np.zeros((nb, 6, nV, 6, nV))
    out[:, :3, :, :3] = ((masses[:, 1] - x_dev) / 3.0)[:, None, :, None]
    for c in range(6):
        out[:, c, :, c] += x_dev if c < 3 else shear * x_dev
    return out.reshape(nb, 6 * nV, 6 * nV)


def compliance_rsolve(A_inv_masses, B):
    """B A^-1 for a stack B (nb, r, 6nV), from the inverse masses (X_dev, X_vol)
    (nb, 2, nV, nV): X_dev on every component, plus (X_vol - X_dev)/3 times the
    sum of the normal components, halved on the shear ones. A is symmetric, so
    the transpose of the result is A^-1 B^T."""
    nb, nV = A_inv_masses.shape[0], A_inv_masses.shape[-1]
    x_dev = A_inv_masses[:, 0]
    B4 = np.ascontiguousarray(B).reshape(nb, -1, 6, nV)
    out = (B4.reshape(nb, -1, nV) @ x_dev).reshape(B4.shape)
    out[:, :, 3:] *= 0.5
    out[:, :, :3] += (B4[:, :, :3].sum(axis=2) @ ((A_inv_masses[:, 1] - x_dev) / 3.0))[:, :, None]
    return out.reshape(B.shape)


def element_blocks(disc, material, elements):
    """Quadrature assembly of all real blocks for an array of elements.

    Every reduction over quadrature points is a matrix product per element
    (stacked matmul), so an element's blocks are the same bits whatever batch
    it is assembled in. The volume blocks use the reference rule: the
    physical weights w det J_K and the basis scaling 1/sqrt(det J_K) cancel.

    The law is isotropic, 1/(2 mu) on the deviator and 1/(2 mu + 3 lam) on the
    trace (Arnold & Winther, Numer. Math. 92, 2002), so the compliance mass A
    is fixed by two scalar-weighted mass matrices per element, A_masses =
    (M[1/(2 mu)], M[1/(2 mu + 3 lam)]), one (nb, 2, nq) @ (nq, nV^2) product;
    A is their layout (_isotropic_layout) and A^-1 that of their inverses.

    Raises ValueError when the material violates mu > 0, 3 lam + 2 mu > 0 or
    rho > 0 at a quadrature point of an element."""
    mesh = disc.mesh
    elements = np.asarray(elements)
    nb = len(elements)
    nV, nW, nF = disc.nV, disc.nW, disc.nF
    nS, nW3, nFd = 6 * nV, 3 * nW, 3 * nF
    wq = disc.vol_rule.weights
    pts = disc.element_points(elements)                          # (nb, nq, 3)
    lam, mu, rho = material.validate(pts)      # each field evaluated once

    # M[c][i, j] = sum_q w_q c(x_q) phi_i phi_j for c = 1/(2 mu), 1/(2 mu + 3 lam)
    coef = np.stack([1.0 / (2.0 * mu), 1.0 / (2.0 * mu + 3.0 * lam)], axis=1)
    phiphi = (wq[:, None, None] * disc.phi_ref[:, :, None]
              * disc.phi_ref[:, None, :]).reshape(len(wq), nV * nV)
    A_masses = (coef @ phiphi).reshape(nb, 2, nV, nV)
    A = _isotropic_layout(A_masses, 2.0)

    # D[d j, c i] = sum_r (E_c J^-T)_{d r} sum_q w_q psi_j d_r phi_i
    ecj = SYM_MATS.reshape(18, 3) @ np.swapaxes(disc.jac_inv[elements], 1, 2)
    D = ecj @ disc.psi_dphi.reshape(3, nW * nV)                  # (nb, 18, nW nV)
    D = D.reshape(nb, 6, 3, nW, nV).transpose(0, 2, 3, 1, 4).reshape(nb, nW3, nS)

    psipsi = (wq[:, None, None] * disc.psi_ref[:, :, None]
              * disc.psi_ref[:, None, :]).reshape(len(wq), nW * nW)
    M = _kron3((rho[:, None, :] @ psipsi).reshape(nb, nW, nW))

    faces = mesh.element_faces[elements]                         # (nb, 4)
    phi_f, psi_f, normals = disc.element_face_tables(elements[:, None], np.arange(4))
    wchi = np.swapaxes(disc.face_weights[faces][..., None] * disc.face_chi[faces], 2, 3)
    nquad = wchi @ phi_f                                         # (nb, 4, nF, nV)
    g = wchi @ psi_f                                             # (nb, 4, nF, nW)
    en = (SYM_MATS.reshape(18, 3) @ normals[..., None]).reshape(nb, 4, 6, 3)
    N = np.einsum("bfcd,bfli->bfdlci", en, nquad).reshape(nb, 4, nFd, nS)
    G = _kron3(g)
    tau = disc.tau(elements)
    T11 = tau[:, None, None] * _kron3((np.swapaxes(g, 2, 3) @ g).sum(axis=1))

    wave_bound = np.max(coef.max(axis=1) * rho, axis=-1)   # |A| = max of the two coefficients
    return LocalBlocks(elements, A, A_masses, D, M, T11, N, G, tau, disc.h[elements],
                       nS, nW3, nFd, wave_bound)


def element_block_batches(disc, material):
    """element_blocks of all elements, in the batches of element_batches."""
    return [element_blocks(disc, material, batch)
            for batch in element_batches(disc.mesh.num_elements, block_bytes(disc))]


def assemble_local_blocks(disc, material, e):
    """Quadrature assembly of all real elemental blocks: a batch of one.

    Raises ValueError when the material violates mu > 0, 3 lam + 2 mu > 0 or
    rho > 0 at a quadrature point of the element."""
    b = element_blocks(disc, material, [e])
    return LocalBlocks(e, b.A[0], b.A_masses[0], b.D[0], b.M[0], b.T11[0], b.N[0], b.G[0],
                       float(b.tau[0]), float(b.h[0]), b.nS, b.nW3, b.nFd, float(b.wave_bound[0]))


def local_matrix(blocks, kappa, variant):
    """Local interior matrix C for the given frequency and flux variant;
    stacked (nb, n, n) for a batch of blocks."""
    alpha = variant.alpha(kappa)
    nS, n = blocks.nS, blocks.nS + blocks.nW3
    C = np.zeros(blocks.A.shape[:-2] + (n, n), dtype=complex)
    C[..., :nS, :nS] = blocks.A
    C[..., :nS, nS:] = np.swapaxes(blocks.D, -1, -2)
    C[..., nS:, :nS] = blocks.D
    C[..., nS:, nS:] = kappa ** 2 * blocks.M - alpha * blocks.T11
    return C


@dataclass
class LocalFactorization:
    blocks: LocalBlocks
    alpha: complex
    lu: tuple
    condition_estimate: float


def factorize_local(blocks, kappa, variant):
    """LU-factorize one element's interior matrix C; exact cond(C, 1).

    A test reference for condense_batch, which computes the same cond(C, 1)
    on the solve path; the resolution flag comes from resolution_flags."""
    C = local_matrix(blocks, kappa, variant)
    cond = np.linalg.cond(C, 1)
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise SingularLocalSolverError(
            f"local solver is singular on element {blocks.element} "
            f"(kappa={kappa}, variant={variant.tag}, cond={cond:.3e})")
    return LocalFactorization(blocks, variant.alpha(kappa), lu_factor(C), cond)


def _coupling(fact):
    """B_in = [N^T; -alpha tau G^T] ((nS+nW3) x nM) and B_out = B_in^T."""
    b = fact.blocks
    B_in = np.vstack([b.N.reshape(b.nM, b.nS).T,
                      -fact.alpha * b.tau * b.G.reshape(b.nM, b.nW3).T])
    return B_in, B_in.T


def _inverse_norm1(Ainv, P_D, Sinv):
    """||C^-1||_1 per element from the block inverse [[A^-1 + P_D Sigma^-1 P_D^T,
    -Y], [-Y^T, Sigma^-1]] with Y = P_D Sigma^-1 (Sigma is complex symmetric)."""
    colsum = lambda mats: np.abs(mats).sum(axis=1)
    Y = _rmul(P_D, Sinv)
    Yt = np.ascontiguousarray(np.swapaxes(Y, 1, 2))
    return np.maximum((colsum(Ainv + _rmul(P_D, Yt)) + colsum(Yt)).max(axis=1),
                      (colsum(Y) + colsum(Sinv)).max(axis=1))


def condense_batch(blocks, kappa2, alpha, f):
    """Static condensation of an element batch at (kappa^2, alpha), keeping
    its local solvers; kappa2 < 0 is an implicit time step (time_domain).

    blocks carry a leading element axis. f holds the load moments (nb, 3nW),
    or r loads per element (nb, 3nW, r), which add a trailing axis r to z and
    the loads. A is real, SPD and independent of (kappa2, alpha), so it is
    eliminated first, in real arithmetic (P_D = A^-1 D^T, P_N = A^-1 N^T):
    its inverse is applied block by block from the inverses of the two nV x nV
    masses of A_masses (compliance_rsolve), and the dense A^-1 is laid out
    only for the exact norm. Only the Schur complement Sigma = k^2 M - a T11 -
    D P_D (size 3nW) is inverted whole, and no real block is promoted to
    complex. Sigma, R, X, S and cond take the dtype of alpha: float64 for a
    real alpha, which halves the memory and flops of the inverse and the
    products; z and the loads take the dtype of f and Sigma together. With
    R = -a tau G^T - D P_N, X_u = Sigma^-1 R and z_u = Sigma^-1 f:

      S     (nb, nM, nM)  B_out X + a tau I = N P_N + R^T X_u + a tau I
      loads (nb, nM)      -B_out z = -R^T z_u
      X     (nb, n, nM)   C^-1 B_in = [P_N - P_D X_u; X_u]
      z     (nb, n)       C^-1 [0; f] = [-P_D z_u; z_u]; interior unknowns are X m + z
      cond  (nb,)         exactly np.linalg.cond(C, 1), from the blocks of C and C^-1

    Raises SingularLocalSolverError as factorize_local does."""
    nb, nS, nM = len(blocks.element), blocks.nS, blocks.nM
    N = blocks.N.reshape(nb, nM, nS)
    B = kappa2 * blocks.M - alpha * blocks.T11
    A_inv_masses = np.linalg.inv(blocks.A_masses)
    P_D = np.swapaxes(compliance_rsolve(A_inv_masses, blocks.D), 1, 2)
    P_N = np.swapaxes(compliance_rsolve(A_inv_masses, N), 1, 2)
    try:
        Sinv = np.linalg.inv(B - blocks.D @ P_D)
    except np.linalg.LinAlgError:
        Sinv = np.full_like(B, np.nan)
    absD = np.abs(blocks.D)
    norm_C = np.maximum((np.abs(blocks.A).sum(axis=1) + absD.sum(axis=1)).max(axis=1),
                        (absD.sum(axis=2) + np.abs(B).sum(axis=1)).max(axis=1))
    cond = norm_C * _inverse_norm1(_isotropic_layout(A_inv_masses, 0.5), P_D, Sinv)
    bad = ~np.isfinite(cond) | (cond > _COND_LIMIT)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise SingularLocalSolverError(
            f"local solver is singular on element {blocks.element[i]} "
            f"(kappa^2={kappa2}, alpha={alpha}, cond={cond[i]:.3e})")
    R = -(blocks.D @ P_N) - (alpha * blocks.tau[:, None, None]
                              * np.swapaxes(blocks.G.reshape(nb, nM, -1), 1, 2))
    X = np.empty((nb, nS + blocks.nW3, nM), dtype=R.dtype)
    X_u = np.matmul(Sinv, R, out=X[:, nS:])
    X[:, :nS] = P_N - _rmul(P_D, X_u)
    F = np.asarray(f)
    z_u = _rmul(Sinv, F[:, :, None] if F.ndim == 2 else F)
    z = np.concatenate([-_rmul(P_D, z_u), z_u], axis=1)
    Rt = np.swapaxes(R, 1, 2)
    S = Rt @ X_u + N @ P_N
    S.reshape(nb, -1)[:, ::nM + 1] += alpha * blocks.tau[:, None]   # the diagonals
    loads = -_rmul(Rt, z_u)
    if F.ndim == 2:
        loads, z = loads[:, :, 0], z[:, :, 0]
    return S, loads, X, z, cond


def resolution_flags(kappa, h, wave_bound):
    """True where kappa h_K >= 1/sqrt(max |c_A| rho), the regime where local
    well-posedness is no longer guaranteed a priori."""
    return kappa * np.asarray(h) >= 1.0 / np.sqrt(wave_bound)


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
    return sol[:b.nS].reshape(6, -1), sol[b.nS:].reshape(3, -1)
