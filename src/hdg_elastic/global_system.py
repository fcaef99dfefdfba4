"""Global trace numbering and operators, skeleton solve, reconstruction, oracles.

Every global path shares one numbering and one set of operators:

- Trace dofs cover all faces: face fi owns dofs fi*3nF .. (fi+1)*3nF - 1,
  component-major within the face, faces in the mesh's nested-dissection
  order. `trace_dofs` maps each element's local faces to them.
- `global_operators` scatters the real element blocks A, D, M, T11, N and G
  (as T12 = sum tau_K G_K^T and t22 = sum tau_K) over stress, displacement
  and trace dofs; `boundary_data` reads the Neumann and impedance data.
- The skeleton unknowns of the hybridized (condensed) system are the trace
  dofs of the non-Dirichlet faces, in face order (`SkeletonMap`). Dirichlet
  faces carry known coefficients, the face-wise L2 projection of the
  boundary datum, and SkeletonMap sends their dofs to a sink that it drops.

The hybrid path keeps the condensed element blocks S_K whole, with their
Dirichlet rows and columns, which only SkeletonMap drops, and solves the
skeleton system sum_K S_K x = b by a multifrontal LU (FrontFactor) over
the mesh's dissection tree: dense fronts assembled straight from the blocks,
factored by LAPACK in single precision, with no sparse skeleton matrix and
no SuperLU. The tree's subtrees are contiguous ranges of the face numbering,
so a node's own faces are one range of skeleton dofs. The factor keeps one
record per front (own dofs, update dofs, LU and W) for both solve sweeps,
and passes the children's updates to their parent on a stack in postorder
(Liu 1992). Its solve refines the answer to double precision with residuals
summed element by element, and refactors in double precision where
refinement stalls.

The uncondensed systems - the second-order form in (stress, displacement,
traces) and the first-order form in the unscaled stress - are block matrices
over the same operators; as oracles they differ from the hybrid path in
their uncondensed solve, by direct_solve: factor_skeleton (SuperLU) with
diagonal pivots, in the order the system is assembled in (element by
element, then the traces face by face in the nested-dissection order), and
one relative residual check. The flux residual and the transient system
(time_domain) use the same operators; the transient skeleton factors, solved
on every step, also stay on factor_skeleton, whose solve runs in C.
"""

import json
import time
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sps
import scipy.sparse.linalg as spla
from scipy.linalg import get_blas_funcs, get_lapack_funcs

from .local_ops import (FluxVariant, block_bytes, condense_batch,
                        element_batches, element_block_batches, element_blocks,
                        resolution_flags)
# The per-element reference path; perfbench/tracing.py wraps these names
# through this module's bindings.
from .local_ops import assemble_local_blocks, condense, factorize_local, recover  # noqa: F401
from .mesh import BoundaryTag

_RESIDUAL_TOL = 1e-8
# FrontFactor's refinement (see its docstring). Refined residuals settle at
# 0.08-0.2 eps (sum_K ||S_K||_F^2 ||x_K||^2)^(1/2) on the varcoeff ladders,
# hk-const and swave near resonance; on the last two that is 2e-14 to
# 8e-14 ||b||, above _REFINE_TOL.
_REFINE_TOL = 1e-14
_REFINE_RATIO = 0.1
# SuperLU's diagonal pivot threshold in factor_skeleton. At its default 1.0,
# 2% of the rows of the n=4 k=2 first-order skeleton matrix pivot off the
# diagonal. At 1e-2 the n=2 k=2 varcoeff monolithic factor still does (11.8 M
# fill against 1.36 M), and at 1e-3 the accumulating flux's n=5 k=1 step
# (5.27 M against 4.40 M).
_DIAG_PIVOT_THRESH = 1e-4


class SingularSystemError(RuntimeError):
    pass


def _zero_vector_field(x, n=None):
    x = np.asarray(x)
    return np.zeros(x.shape[:-1] + (3,))


@dataclass(frozen=True)
class ProblemData:
    """Frequency, volume load and boundary data (second-order scaling).

    f is the volume load of the second-order equation; g_d, g_n, g_r are the
    Dirichlet, traction and impedance data, the last for the condition
    sigma n + i kappa u = g_r. Omitted fields default to zero.
    f and g_d are callables of points (..., 3). g_n and g_r are called as
    g(x, n) with points x of shape (P, 3) and the outward unit normals n of
    shape (P, 3), one per point, and return (P, 3).

    Raises ValueError for a kappa that is NaN, infinite or negative.
    """
    kappa: float
    f: callable = _zero_vector_field
    g_d: callable = _zero_vector_field
    g_n: callable = _zero_vector_field
    g_r: callable = _zero_vector_field

    def __post_init__(self):
        if not np.isfinite(self.kappa) or self.kappa < 0:
            raise ValueError(f"kappa must be finite and nonnegative, got {self.kappa!r}")


def trace_dofs(mesh, nFd):
    """Global trace numbering: (ne, 4, nFd) dofs of each element's local faces."""
    return mesh.element_faces[:, :, None] * nFd + np.arange(nFd)


def _scatter(row_dofs, col_dofs, blocks, shape, kind=sps.csr_matrix):
    """Sum element blocks (ne, r, c) into CSR (or kind) at rows row_dofs (ne, r)
    and columns col_dofs (ne, c). Exact zeros are not stored: they would cost
    memory and sparse LU fill in every product and factor downstream. The
    copy drops the slack that summing and zero removal leave in the arrays."""
    rows = np.broadcast_to(row_dofs[:, :, None], blocks.shape)
    cols = np.broadcast_to(col_dofs[:, None, :], blocks.shape)
    mat = kind((blocks.ravel(), (rows.ravel(), cols.ravel())), shape=shape)
    mat.eliminate_zeros()
    return mat.copy()


class SkeletonMap:
    """The one numbering of the skeleton unknowns, assembled and factored in
    it: the trace dofs of the non-Dirichlet faces (active) in face order, the
    mesh's nested-dissection order; skeleton dof i is the trace dof dofs[i].
    element_dofs (ne, 4 nFd) maps element-local trace dofs to skeleton dofs
    and element_faces (ne, 4) local faces to skeleton faces, the known
    Dirichlet ones to the sinks ndof and len(active); scatter and matrix drop
    the sink and gather reads it as 0, so ndof = 0 is an ordinary case."""

    def __init__(self, mesh, nFd):
        self.active = np.flatnonzero(mesh.face_tags != BoundaryTag.DIRICHLET)
        self.nFd = nFd
        self.ndof = len(self.active) * nFd
        self.dofs = (self.active[:, None] * nFd + np.arange(nFd)).ravel()
        skeleton_dof = np.full(mesh.num_faces * nFd, self.ndof)
        skeleton_dof[self.dofs] = np.arange(self.ndof)
        self.element_dofs = skeleton_dof[trace_dofs(mesh, nFd).reshape(mesh.num_elements, -1)]
        self.element_faces = self.element_dofs[:, ::nFd] // nFd

    def matrix(self, S):
        """CSC skeleton matrix of the element blocks S (ne, 4 nFd, 4 nFd),
        without their Dirichlet rows and columns."""
        mat = _scatter(self.element_dofs, self.element_dofs, S, (self.ndof + 1,) * 2, sps.csc_matrix)
        mat.resize(self.ndof, self.ndof)
        return mat

    def scatter(self, y):
        """Sum of element-local skeleton vectors y (ne, 4 nFd), Dirichlet entries dropped."""
        sums = lambda part: np.bincount(self.element_dofs.ravel(), part.ravel(), self.ndof + 1)
        return (sums(y.real) + 1j * sums(y.imag) if np.iscomplexobj(y) else sums(y))[:-1]

    def gather(self, x):
        """Element-local skeleton vectors (ne, 4 nFd) of x (ndof,), 0 on Dirichlet traces."""
        return np.append(x, 0)[self.element_dofs]


def factor_skeleton(matrix, name):
    """Sparse LU of a matrix as it is numbered: a transient skeleton or an
    uncondensed system in the mesh's nested-dissection face order, or a
    skeleton matrix as a test reference.

    SymmetricMode with the pivot threshold _DIAG_PIVOT_THRESH takes the
    diagonal entry as pivot unless it is smaller than that fraction of the
    largest entry left in its column, so the factor keeps the order and its
    fill is the order's, also for an indefinite matrix. A failed factor
    raises SingularSystemError, naming what failed (name). An exactly
    singular matrix may instead factor with a tiny pivot: direct_solve's
    residual check refuses its solution, while the time-domain factors
    (static slaving and step) are solved unchecked."""
    try:
        return spla.splu(matrix, permc_spec="NATURAL", diag_pivot_thresh=_DIAG_PIVOT_THRESH,
                         options=dict(SymmetricMode=True))
    except RuntimeError as exc:
        raise SingularSystemError(f"{name} failed: {exc}") from exc


def direct_solve(matrix, rhs, name):
    """Solve matrix x = rhs by factor_skeleton, as numbered. Returns x and
    {factor_s, lu_fill, residual}: the factor time, the nonzeros of L and U
    and ||matrix x - rhs|| / ||rhs||. Raises SingularSystemError naming the
    solve when the factor fails or the residual exceeds _RESIDUAL_TOL."""
    t0 = time.perf_counter()
    lu = factor_skeleton(matrix, name)
    factor_s = time.perf_counter() - t0
    x = lu.solve(rhs)
    residual = float(np.linalg.norm(matrix @ x - rhs) / max(np.linalg.norm(rhs), 1e-300))
    _checked_residual(x, residual, name)
    return x, {"factor_s": factor_s, "lu_fill": int(lu.nnz), "residual": residual}


def _checked_residual(x, residual, name):
    """Raise SingularSystemError naming the solve when its solution x is not
    finite or its relative residual is not at most _RESIDUAL_TOL (NaN included)."""
    if not np.isfinite(x).all() or not residual <= _RESIDUAL_TOL:
        raise SingularSystemError(f"{name} did not converge (relative residual {residual:.3e})")


def _extend_add(F4, slot, faces, U):
    """F[P, P] += U through the (nFd, nf, nFd, nf) view F4 of a front F, with
    P the dofs of the faces, at the front positions slot[faces]: one add by
    position, as the faces are distinct."""
    nFd, m, p = len(F4), len(faces), slot[faces]
    F4[:, p[:, None], :, p] += U.reshape((nFd, m, nFd, m), order="F").transpose(1, 3, 0, 2)


class FrontFactor:
    """Multifrontal LU of the skeleton matrix sum_K S_K over the mesh's
    DissectionTree, assembled straight from the element blocks S (ne, 4 nFd,
    4 nFd) in single precision (float32, complex64 for complex S) and refined
    in S's. Only the blocks of pairs of skeleton faces (skel.element_faces)
    are read; the Dirichlet rows and columns of S may hold anything finite.

    fronts holds one record (own, update, lu, piv, W) per node with own dofs,
    in postorder: node i eliminates the skeleton dofs own (a slice), those of
    the faces face_bounds[i]:face_bounds[i + 1] of skel.active, and its dense
    front also spans update, the dofs of its update faces, which are sorted
    and all after its own. The factor maps faces to front positions at face
    granularity and builds the update dofs once; both solve sweeps read
    them. A leaf's front starts from its elements' blocks, cast to the
    working precision as they are gathered, and every node's takes the
    extend-add of its children's updates: in postorder these are the top
    entries of a stack (Liu, SIAM Rev. 34, 1992), left child first, each
    freed once added. With F11 the own rows and columns, getrf factors F11,
    getri inverts it from its LU and one gemm forms W = F11^-1 F12, and
    another the update F22 - F21 W that the node pushes; the root has no
    update and inverts nothing. On these shapes OpenBLAS runs getrs and trsm
    at a fraction of gemm's rate, and the inverse from the LU factors is as
    stable as the triangular solves in practice (Du Croz & Higham, IMA J.
    Numer. Anal. 12, 1992). Of each front only LU(F11), its pivots and W are
    kept (fill counts their entries, whatever their precision); the sweeps
    use LU(F11) through getrs. The matrix is (complex) symmetric, so F21 =
    W^T F11 and the forward sweep applies W^T. Fronts are Fortran-ordered
    and go to BLAS and LAPACK as they are: numpy products on strided views of
    C-ordered fronts took the n=4 k=2 factor from 0.2 to 2.6 s at two BLAS
    threads.

    solve refines the single-precision solution in dtype, S's precision
    (Langou et al., SC'06; Carson & Higham, SIAM J. Sci. Comput. 40, 2018):
    x <- x + F^-1 r, with the residual r = b - sum_K S_K x_K summed from the
    element products in dtype. It stops once ||r|| <= _REFINE_TOL ||b||, the
    level of a double-precision factor's residual, or once ||r|| <= eps
    (sum_K ||S_K||_F^2 ||x_K||^2)^(1/2), the rounding level of the residual
    itself (||S_K||_F over the blocks of skeleton face pairs), a backward
    error of about eps in the blocks; for some problems that lies above the
    first. Refinement goes on while each step cuts ||r|| by _REFINE_RATIO or
    more, so a solve ends within 1 + log10(||r_0|| / (_REFINE_TOL ||b||))
    steps. Where a step cuts it by less, or ||r|| is not finite, the
    single-precision factor is too poor for the matrix: the fronts are
    factored again in dtype, factor_dtype records it, and that solve and
    every later one are one direct sweep. A zero pivot in single precision
    does the same at once; one in dtype raises SingularSystemError. steps
    and ratio hold the last solve's refinement steps and its last
    ||r_{i+1}|| / ||r_i|| (0.0 before the first step), about cond(S) times
    the single-precision unit roundoff, and residual the ||r|| / ||b|| of
    the x it returned."""

    def __init__(self, mesh, skel, S):
        self._tree, self._skel, self._S = mesh.dissection, skel, S
        self.dtype = S.dtype
        # ||S_K||_F: the squares summed over each face pair's block, then over
        # the skeleton face pairs, with no masked copy of S
        R = S.view(S.real.dtype).reshape(len(S), 4, skel.nFd, 4, -1)
        free = skel.element_faces < len(skel.active)
        pairs = np.where(free[:, :, None] & free[:, None, :], np.einsum("efagb,efagb->efg", R, R), 0)
        self._block_norms = np.sqrt(pairs.sum(axis=(1, 2)))
        try:
            self._factor(np.complex64 if S.dtype.kind == "c" else np.float32)
        except SingularSystemError:
            self._factor(S.dtype)

    def _factor(self, dtype):
        tree, skel, S = self._tree, self._skel, self._S
        nFd, sink = skel.nFd, len(skel.active)
        bounds = np.searchsorted(skel.active, tree.face_bounds)
        kids = np.bincount(tree.parent[tree.parent >= 0], minlength=len(tree.parent))
        slot = np.empty(sink, int)   # front position at the current node
        self.factor_dtype = np.dtype(dtype)
        getrf, getri, self._getrs = get_lapack_funcs(("getrf", "getri", "getrs"), dtype=dtype)
        gemm, self._gemv = get_blas_funcs(("gemm", "gemv"), dtype=dtype)
        # S4[e, f, g] is the (nFd, nFd) block of local faces f and g of element e
        S4 = S.reshape(len(S), 4, nFd, 4, nFd).transpose(0, 1, 3, 2, 4)
        self.fronts, self.fill, stack = [], 0, []
        for i in range(len(tree.parent)):
            elements = tree.elements[tree.element_bounds[i]:tree.element_bounds[i + 1]]
            faces = skel.element_faces[elements]
            first = len(stack) - kids[i]         # the children's entries
            reach = np.concatenate([faces.ravel()] + [u for u, _ in stack[first:]])
            update = np.unique(reach[(reach >= bounds[i + 1]) & (reach < sink)])
            n_own = bounds[i + 1] - bounds[i]
            nf = n_own + len(update)
            n1, n = n_own * nFd, nf * nFd
            slot[bounds[i]:bounds[i + 1]] = np.arange(n_own)
            slot[update] = np.arange(n_own, nf)
            F = np.zeros((n, n), dtype, order="F")
            # F4[a, p, b, q] is F[p nFd + a, q nFd + b]; a leaf's blocks, pair by pair
            # of skeleton faces, are added by np.add.at, as its elements share
            # faces, and cast before the add, as a casting np.add.at is twice as slow
            F4 = F.reshape((nFd, nf, nFd, nf), order="F")
            free = faces < sink
            e, f, g = np.nonzero(free[:, :, None] & free[:, None, :])
            np.add.at(F4, (slice(None), slot[faces[e, f]], slice(None), slot[faces[e, g]]),
                      S4[elements[e], f, g].astype(dtype))
            for _ in range(kids[i]):
                _extend_add(F4, slot, *stack.pop(first))
            if n1 > 0:
                lu, piv, info = getrf(F[:n1, :n1], overwrite_a=True)
                if info > 0:
                    raise SingularSystemError(f"skeleton solve failed: zero pivot in the "
                                              f"front of dissection node {i}")
                # BLAS refuses empty operands
                if n > n1:
                    W = gemm(1.0, getri(lu, piv)[0], F[:n1, n1:])
                    F = gemm(-1.0, F[n1:, :n1], W, 1.0, F[n1:, n1:], overwrite_c=True)
                else:
                    W, F = F[:n1, n1:], F[n1:, n1:]
                self.fronts.append((slice(bounds[i] * nFd, bounds[i + 1] * nFd),
                                    (update[:, None] * nFd + np.arange(nFd)).ravel(),
                                    lu, piv, W))
                self.fill += lu.size + W.size
            stack.append((update, F))   # F is now the Schur complement over update

    def _sweep(self, b):
        """F^-1 b in factor_dtype, by a forward sweep over the fronts in
        postorder and a backward one in reverse. A real factor solves the
        real and imaginary parts of a complex b apart."""
        if np.iscomplexobj(b) and self.factor_dtype.kind != "c":
            return self._sweep(b.real) + 1j * self._sweep(b.imag)
        x = np.array(b, dtype=self.factor_dtype)
        for own, update, lu, piv, W in self.fronts:
            if W.size:
                x[update] -= self._gemv(1.0, W, x[own], trans=1)
        for own, update, lu, piv, W in reversed(self.fronts):
            x1 = self._getrs(lu, piv, x[own])[0]
            if W.size:
                x1 = self._gemv(-1.0, W, x[update], 1.0, x1, overwrite_y=True)
            x[own] = x1
        return x

    def _residual(self, b, x):
        """b - sum_K S_K x_K in dtype, x_K gathered and the products scattered
        by skel, and its rounding level eps (sum_K ||S_K||_F^2 ||x_K||^2)^(1/2)."""
        xK = self._skel.gather(x)
        floor = np.finfo(self.dtype).eps * np.linalg.norm(
            self._block_norms * np.linalg.norm(xK, axis=1))
        return b - self._skel.scatter(self._S @ xK[:, :, None]), floor

    def solve(self, b):
        """x with sum_K S_K x_K = b, in np.result_type(b, dtype): the sweeps
        of the single-precision factor, refined (see the class). residual
        holds ||sum_K S_K x_K - b|| / ||b|| of the x returned."""
        b = np.asarray(b)
        self.steps, self.ratio = 0, 0.0
        norm_b, norm_r = np.linalg.norm(b), np.inf
        refine = self.factor_dtype != self.dtype and norm_b > 0
        # F^-1 r of r scaled to unit norm, so that single precision neither
        # overflows nor underflows on it
        correction = lambda r, norm: norm * self._sweep(r / norm)
        x = (correction(b, norm_b) if refine else self._sweep(b)).astype(
            np.result_type(b, self.dtype), copy=False)
        while True:
            r, floor = self._residual(b, x)
            last, norm_r = norm_r, np.linalg.norm(r)
            if not refine:
                break
            self.ratio = float(norm_r / last)
            if norm_r <= max(_REFINE_TOL * norm_b, floor):
                break
            if self.ratio <= _REFINE_RATIO:
                x += correction(r, norm_r)
                self.steps += 1
            else:   # stalled, or r is not finite
                self._factor(self.dtype)
                x, refine = self._sweep(b), False
        self.residual = float(norm_r / max(norm_b, 1e-300))
        return x


@dataclass(frozen=True)
class GlobalOperators:
    """Real element blocks in global form.

    Stress dofs s and displacement dofs u run element by element in the local
    layouts of local_ops; trace dofs m follow `trace_dofs` over all faces.
    Rows and columns of m sum over the elements that share a face."""
    A: sps.csr_matrix     # (ns, ns) compliance mass
    D: sps.csr_matrix     # (nu, ns) divergence coupling
    M: sps.csr_matrix     # (nu, nu) density mass
    T11: sps.csr_matrix   # (nu, nu) sum tau_K <P_M u, P_M w>
    N: sps.csr_matrix     # (nm, ns) normal stress traces
    T12: sps.csr_matrix   # (nu, nm) sum tau_K G_K^T
    t22: np.ndarray       # (nm,) sum tau_K


def global_operators(disc, blocks):
    """Scatter the real blocks of all elements, the batches of
    element_block_batches, into GlobalOperators."""
    mesh = disc.mesh
    ne, nm = mesh.num_elements, mesh.num_faces * 3 * disc.nF
    stack = lambda name: np.concatenate([getattr(b, name) for b in blocks])
    tau = stack("tau")
    s = np.arange(ne * 6 * disc.nV).reshape(ne, -1)
    u = np.arange(ne * 3 * disc.nW).reshape(ne, -1)
    m = trace_dofs(mesh, 3 * disc.nF).reshape(ne, -1)
    ns, nu = s.size, u.size
    G = stack("G").reshape(ne, m.shape[1], -1)
    return GlobalOperators(
        A=_scatter(s, s, stack("A"), (ns, ns)),
        D=_scatter(u, s, stack("D"), (nu, ns)),
        M=_scatter(u, u, stack("M"), (nu, nu)),
        T11=_scatter(u, u, stack("T11"), (nu, nu)),
        N=_scatter(m, s, stack("N").reshape(ne, m.shape[1], -1), (nm, ns)),
        T12=_scatter(u, m, tau[:, None, None] * G.transpose(0, 2, 1), (nu, nm)),
        t22=np.bincount(m.ravel(), np.repeat(tau, m.shape[1]), nm))


def solve_dirichlet_trace(disc, g_d):
    """Face-wise projection of the Dirichlet datum, in its dtype; zeros elsewhere."""
    fixed = np.flatnonzero(disc.mesh.face_tags == BoundaryTag.DIRICHLET)
    projected = disc.project_face(fixed, g_d)
    values = np.zeros((disc.mesh.num_faces, 3, disc.nF), dtype=projected.dtype)
    values[fixed] = projected
    return values


def load_moments(disc, e, f):
    """Moments (f, w) against the element W basis, flattened (3*nW,);
    (len(e), 3*nW) for an integer array e of elements."""
    return disc.project_w(e, f).reshape(np.shape(e) + (-1,))


def boundary_data(disc, data):
    """Neumann and impedance data over all trace dofs.

    Returns (g, imp): g holds the moments <g_n(x, n), mu> on Neumann faces and
    <g_r(x, n), mu> on impedance faces, with n the outward unit normal; imp is
    the diagonal i kappa of the impedance condition sigma n + i kappa u = g_r
    on impedance faces, complex only if one exists. Both are zero on all other
    faces; g takes the moments' dtype. Each datum is called once, on all faces
    with its tag."""
    mesh = disc.mesh
    tags = mesh.face_tags
    g = np.zeros((mesh.num_faces, 3 * disc.nF))
    for tag, datum in ((BoundaryTag.NEUMANN, data.g_n), (BoundaryTag.IMPEDANCE, data.g_r)):
        faces = np.flatnonzero(tags == tag)
        if faces.size:
            owner = mesh.face_elements[faces, 0]             # a boundary face's one element
            lf = np.argmax(mesh.element_faces[owner] == faces[:, None], axis=1)
            normals = mesh.element_face_signs[owner, lf][:, None] * mesh.face_normals[faces]
            n = np.repeat(normals, disc.face_weights.shape[1], axis=0)
            values = disc.project_face(faces, lambda x: datum(x, n)).reshape(len(faces), -1)
            g = g.astype(np.result_type(g, values), copy=False)
            g[faces] = values
    impedance = np.repeat(tags == BoundaryTag.IMPEDANCE, 3 * disc.nF)
    imp = impedance * (1j * data.kappa) if impedance.any() else np.zeros(impedance.size)
    return g.ravel(), imp


@dataclass
class HybridSystem:
    """Condensed skeleton system together with the local solvers that
    recover the interior unknowns from its solution.

    The skeleton matrix is the sum of the element blocks; matrix scatters it
    (CSC, numbered by skeleton) when first read, and no solve reads it.
    blocks, rhs and interior take the problem's dtype (assemble_hybrid):
    float64 for a real alpha, no impedance face and real data, complex
    otherwise; solvers take the dtype of alpha."""
    blocks: np.ndarray            # (ne, 4 nFd, 4 nFd) S_K, Dirichlet rows and columns included
    rhs: np.ndarray
    skeleton: SkeletonMap
    dirichlet_values: np.ndarray  # (nfaces, 3, nF), zero off Dirichlet faces
    kappa: float
    variant: FluxVariant
    disc: object                  # the Discretization assembled on
    solvers: np.ndarray           # (ne, nS+nW3, nM) C^-1 B_in per element
    interior: np.ndarray          # (ne, nS+nW3) C^-1 [0; f] per element
    diagnostics: dict             # plain numbers, completed by solve_skeleton

    @cached_property
    def matrix(self):
        return self.skeleton.matrix(self.blocks)


def assemble_hybrid(disc, material, data, variant):
    """Condensed skeleton system for the trace unknowns, scattered once into
    the skeleton numbering: the known Dirichlet traces are lifted into the
    loads (loads -= S_K m_D,K); S_K keeps their rows and columns, which the
    skeleton map drops.
    Its dtype is np.result_type(alpha, impedance term, data), with the load
    moments, the Dirichlet projection and the boundary moments as data.

    Impedance faces impose sigma_hat n + i kappa u_hat = g_r. Tested with the
    discrete solution, the imaginary part of the energy identity is then
    -kappa ||u_hat||^2 on the impedance boundary plus Im(conj(alpha)) tau
    ||P_M u - u_hat||^2, which is sign-definite when Im(alpha) >= 0. A variant
    with Im(alpha) < 0 on impedance faces makes it indefinite and draws a
    RuntimeWarning."""
    mesh = disc.mesh
    alpha = variant.alpha(data.kappa)
    if np.imag(alpha) < 0 and np.any(mesh.face_tags == BoundaryTag.IMPEDANCE):
        warnings.warn(
            f"flux variant {variant.tag!r} has Im(alpha) < 0 on impedance "
            "faces: its stabilization and the impedance term enter the "
            "discrete energy identity with opposite signs",
            RuntimeWarning, stacklevel=2)
    ne, nFd = mesh.num_elements, 3 * disc.nF
    nM, n = 4 * nFd, 6 * disc.nV + 3 * disc.nW
    skel = SkeletonMap(mesh, nFd)
    dir_values = solve_dirichlet_trace(disc, data.g_d)
    g, imp = boundary_data(disc, data)
    # f is called on one element batch at a time, so its points fit the batch memory
    batches = element_batches(ne, block_bytes(disc))
    f = np.concatenate([load_moments(disc, batch, data.f) for batch in batches])
    dtype = np.result_type(alpha, imp, f, dir_values, g)
    S = np.empty((ne, nM, nM), dtype)
    loads = np.empty((ne, nM), dtype)
    X = np.empty((ne, n, nM), np.result_type(alpha, float))
    z = np.empty((ne, n), dtype)
    cond = np.empty(ne)
    flags = np.empty(ne, dtype=bool)
    condense_s = 0.0
    for batch in batches:
        blocks = element_blocks(disc, material, batch)
        t0 = time.perf_counter()
        S[batch], loads[batch], X[batch], z[batch], cond[batch] = \
            condense_batch(blocks, data.kappa ** 2, alpha, f[batch])
        condense_s += time.perf_counter() - t0
        flags[batch] = resolution_flags(data.kappa, blocks.h, blocks.wave_bound)

    traces = trace_dofs(mesh, nFd).reshape(ne, -1)
    loads -= (S @ dir_values.ravel()[traces][:, :, None])[:, :, 0]
    S.reshape(ne, -1)[:, ::nM + 1] += imp[traces]   # one element per impedance face
    rhs = g[skel.dofs] + skel.scatter(loads)
    # face pairs of the pattern: each face with itself, and two faces of an
    # element, which share no other element
    free_faces = (skel.element_faces < len(skel.active)).sum(axis=1)
    pattern = len(skel.active) + int((free_faces * (free_faces - 1)).sum())
    diagnostics = {"condense_s": condense_s, "skeleton_nnz": pattern * nFd ** 2,
                   "local_cond_min": float(cond.min()),
                   "local_cond_median": float(np.median(cond)),
                   "local_cond_max": float(cond.max()),
                   "flagged_elements": int(flags.sum())}
    return HybridSystem(S, rhs, skel, dir_values, data.kappa, variant,
                        disc, X, z, diagnostics)


def solve_skeleton(system):
    """Multifrontal direct solve of the condensed system from its element
    blocks (FrontFactor); returns (nfaces, 3, nF).

    The fronts are factored in single precision and the solution refined to
    the system's dtype (see FrontFactor). Adds to system.diagnostics the
    front factor's time (factor_s, the first factor only), its stored
    entries (lu_fill, a count whatever their precision), the relative
    residual ||sum_K S_K x_K - b|| / ||b|| of the solution, as the
    refinement last measured it (skeleton_residual), the precision the
    fronts ended in (factor_dtype: float32 or complex64, or the system's
    dtype after a fallback), the refinement steps (refine_steps) and the
    last step's residual ratio (refine_ratio, about cond times the float32
    unit roundoff; 0.0 without a step). Raises SingularSystemError naming the skeleton solve on a zero
    pivot in the double-precision factor, a solution that is not finite or a
    residual that is not at most _RESIDUAL_TOL."""
    t0 = time.perf_counter()
    fronts = FrontFactor(system.disc.mesh, system.skeleton, system.blocks)
    factor_s = time.perf_counter() - t0
    x = fronts.solve(system.rhs)
    _checked_residual(x, fronts.residual, "skeleton solve")
    system.diagnostics.update(factor_s=factor_s, lu_fill=int(fronts.fill),
                              skeleton_residual=fronts.residual,
                              factor_dtype=fronts.factor_dtype.name,
                              refine_steps=fronts.steps, refine_ratio=fronts.ratio)
    uhat = system.dirichlet_values.astype(x.dtype)
    uhat[system.skeleton.active] = x.reshape(-1, *uhat.shape[1:])
    return uhat


@dataclass
class SolutionFields:
    """Element-wise coefficients of the discrete solution, in the system's dtype.

    sigma holds the second-order stress variable (sigma-tilde); for the
    first-order variant the unscaled stress is (i/kappa) * sigma."""
    kappa: float
    variant_tag: str
    k: int
    sigma: np.ndarray   # (ne, 6, nV) packed stress coefficients
    u: np.ndarray       # (ne, 3, nW)
    uhat: np.ndarray    # (nfaces, 3, nF)
    meta: dict = field(default_factory=dict)

    def first_order_stress(self):
        if self.kappa == 0:
            raise ValueError("unscaled stress is undefined at kappa = 0")
        return (1j / self.kappa) * self.sigma


def reconstruct(system, uhat):
    """Recovery of (stress, displacement) from the traces uhat through the
    local solvers of the system: X m + z on every element."""
    disc = system.disc
    mesh = disc.mesh
    ne, nS = mesh.num_elements, 6 * disc.nV
    m = uhat.reshape(mesh.num_faces, -1)[mesh.element_faces].reshape(ne, -1)
    x = (system.solvers @ m[:, :, None])[:, :, 0] + system.interior
    return SolutionFields(system.kappa, system.variant.tag, disc.k,
                          x[:, :nS].reshape(ne, 6, disc.nV),
                          x[:, nS:].reshape(ne, 3, disc.nW), uhat)


def _check_solvable(mesh, kappa):
    """Reject static pure traction: at kappa = 0 with no Dirichlet face
    (impedance faces are traction faces there) the displacement is
    determined only up to a rigid motion."""
    if kappa == 0 and not np.any(mesh.face_tags == BoundaryTag.DIRICHLET):
        raise ValueError("static pure-traction problem (kappa = 0, no Dirichlet face): "
                         "the displacement is determined only up to a rigid motion")


def solve_time_harmonic(disc, material, data, variant):
    """Assemble, solve and reconstruct. Returns (solution, info dict).

    info holds the sizes, phase times (condense_s: local condensation),
    skeleton_nnz (the face-block pattern: nFd^2 entries per pair of skeleton
    faces on a common element, each face with itself included), the range
    of cond(C, 1), the number of flagged elements and the skeleton solve's
    diagnostics (see solve_skeleton). Raises ValueError for a static
    pure-traction problem."""
    _check_solvable(disc.mesh, data.kappa)
    t0 = time.perf_counter()
    system = assemble_hybrid(disc, material, data, variant)
    t1 = time.perf_counter()
    uhat = solve_skeleton(system)
    solution = reconstruct(system, uhat)
    t2 = time.perf_counter()
    ne = disc.mesh.num_elements
    info = {
        "dofs_skeleton": system.skeleton.ndof,
        "dofs_total": ne * (6 * disc.nV + 3 * disc.nW)
        + disc.mesh.num_faces * 3 * disc.nF,
        "assemble_s": t1 - t0,
        "solve_s": t2 - t1,
        **system.diagnostics,
    }
    solution.meta.update(info)
    return solution, info


# ---- uncondensed oracles ----


def assemble_monolithic(disc, material, data, variant, form="second"):
    """Full sparse system over (stress, displacement, all traces).

    form='second': the alpha-family system in the second-order stress.
    form='first':  the first-order system in the unscaled stress (load and
    traction data divided by -i*kappa accordingly).
    Trace rows of Dirichlet faces fix the projected Dirichlet datum. The
    matrix and rhs take the problem's dtype, as in assemble_hybrid: float64
    for a real alpha, no impedance face and real data, complex otherwise.
    Returns (matrix, rhs, layout) with layout = (nS, nW3, nFd, offsets...)."""
    mesh = disc.mesh
    kappa = data.kappa
    if form == "first":
        if kappa == 0:
            raise ValueError("first-order form requires kappa != 0")
        if np.any(mesh.face_tags == BoundaryTag.IMPEDANCE):
            raise ValueError("impedance oracle implemented for the second-order form")
    else:
        alpha = variant.alpha(kappa)
    ops = global_operators(disc, element_block_batches(disc, material))
    g, imp = boundary_data(disc, data)
    fixed = solve_dirichlet_trace(disc, data.g_d)
    nS, nW3, nFd = 6 * disc.nV, 3 * disc.nW, 3 * disc.nF
    is_fixed = np.repeat(mesh.face_tags == BoundaryTag.DIRICHLET, nFd)
    keep, fix = sps.diags((~is_fixed).astype(float)), sps.diags(is_fixed.astype(float))
    T22 = sps.diags(ops.t22)
    batches = element_batches(mesh.num_elements, block_bytes(disc))
    loads = np.concatenate([load_moments(disc, batch, data.f) for batch in batches]).ravel()
    if form == "second":
        data_scale, g_scale = 1.0, 1.0
        blocks = [[ops.A, ops.D.T, -ops.N.T],
                  [ops.D, kappa ** 2 * ops.M - alpha * ops.T11, alpha * ops.T12],
                  [keep @ ops.N, keep @ (-alpha * ops.T12.T),
                   keep @ (alpha * T22) + fix + sps.diags(imp)]]
    else:
        data_scale = 1j / kappa
        g_scale = -data_scale
        blocks = [[1j * kappa * ops.A, -ops.D.T, ops.N.T],
                  [ops.D, 1j * kappa * ops.M + ops.T11, -ops.T12],
                  [keep @ -ops.N, keep @ -ops.T12.T, keep @ T22 + fix]]
    mat = sps.bmat(blocks, format="csr")
    mat.eliminate_zeros()
    ns, nu = ops.A.shape[0], ops.M.shape[0]
    rhs = np.concatenate([np.zeros(ns), data_scale * loads, g_scale * g + fixed.ravel()])
    mat = mat.astype(np.result_type(mat.dtype, rhs), copy=False)
    return mat, rhs, (nS, nW3, nFd, 0, ns, ns + nu, len(rhs))


def solve_monolithic(disc, material, data, variant, form="second"):
    """Direct solve of the uncondensed system; returns SolutionFields whose
    meta holds the factor time (factor_s), LU fill (lu_fill) and residual.

    The matrix is solved in the problem's dtype by direct_solve, as it is
    assembled: element by element, then face by face in the mesh's
    nested-dissection order.
    Raises ValueError for a static pure-traction problem and
    SingularSystemError when the factor fails or the solve does not converge."""
    _check_solvable(disc.mesh, data.kappa)
    if form == "second" and data.kappa == 0 and variant.alpha(data.kappa) == 0:
        # kappa^2 M - alpha T11 = 0: u is tested only against div V_K in
        # P_{k-1}, so the rest of W_K is in the kernel. The factor is not
        # attempted: it would finish on a pivot of about 4e-45, which only
        # the residual check refuses.
        raise SingularSystemError(f"monolithic system is singular: flux variant "
                                  f"{variant.tag!r} has alpha = 0 at kappa = 0")
    mat, rhs, layout = assemble_monolithic(disc, material, data, variant, form)
    nS, nW3, nFd, off_s, off_u, off_m, ndof = layout
    x, meta = direct_solve(mat.tocsc(), rhs, "monolithic solve")
    ne = disc.mesh.num_elements
    sigma = x[off_s:off_s + ne * nS].reshape(ne, 6, disc.nV)
    u = x[off_u:off_u + ne * nW3].reshape(ne, 3, disc.nW)
    uhat = x[off_m:].reshape(disc.mesh.num_faces, 3, disc.nF)
    tag = "first_order_unscaled" if form == "first" else variant.tag
    return SolutionFields(data.kappa, tag, disc.k, sigma, u, uhat, meta)


# ---- transmission residual and export ----


def flux_residual(disc, material, data, variant, solution):
    """Max skeleton-equation residual of a reconstructed solution.

    Interior faces: single-valuedness of the numerical flux moments.
    Neumann/impedance faces: the corresponding boundary condition."""
    ops = global_operators(disc, element_block_batches(disc, material))
    g, imp = boundary_data(disc, data)
    alpha = variant.alpha(data.kappa)
    s, u, m = solution.sigma.ravel(), solution.u.ravel(), solution.uhat.ravel()
    residual = ops.N @ s - alpha * (ops.T12.T @ u - ops.t22 * m) - g + imp * m
    return float(np.abs(residual[SkeletonMap(disc.mesh, 3 * disc.nF).dofs]).max(initial=0.0))


def save_solution(path, solution, header=None):
    """Binary export: coefficient arrays plus a JSON header."""
    meta = {"kappa": solution.kappa, "variant": solution.variant_tag,
            "k": solution.k}
    meta.update(solution.meta)
    if header:
        meta.update(header)
    np.savez(path, header=json.dumps(meta, sort_keys=True),
             sigma=solution.sigma, u=solution.u, uhat=solution.uhat)


def load_solution(path):
    with np.load(path, allow_pickle=False) as data:
        meta = json.loads(str(data["header"]))
        sol = SolutionFields(meta["kappa"], meta["variant"], meta["k"],
                             data["sigma"], data["u"], data["uhat"], meta)
    return sol
