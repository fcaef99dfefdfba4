"""Element and face discretization data for the hybrid method.

Per element K of degree k:
  V: symmetric-matrix-valued P_k   (6 packed components, layout c*nV + i)
  W: vector-valued P_{k+1}         (3 components, layout d*nW + j)
Per face F:
  M: vector-valued P_k on the face (3 components, layout d*nF + l)

Scalar bases are the reference orthonormal bases scaled to be L2-orthonormal
on the physical element/face, so mass matrices are identities and L2
projections are plain quadrature moments. Face bases are single-valued: they
are defined through the face chart induced by the sorted global vertex triple
and both incident elements evaluate the same functions.
"""

import itertools

import numpy as np

from .basis import SimplexBasis
from .materials import pack_sym
from .mesh import row_dot
from .quadrature import simplex_rule

_EDGES = np.triu_indices(4, 1)   # the six vertex pairs of a tetrahedron


def _evaluate(field, pts):
    """Evaluate a field callable on points (..., 3), passed as one (n, 3)
    array, so that callables written for a list of points serve batches."""
    vals = np.asarray(field(pts.reshape(-1, 3)))
    return vals.reshape(pts.shape[:-1] + vals.shape[1:])


def _rmul(R, Z):
    """R @ Z without promoting a real R: a real R multiplies a complex Z in real
    arithmetic on Z's interleaved parts."""
    if np.iscomplexobj(R) or np.isrealobj(Z):
        return R @ Z
    return (R @ np.ascontiguousarray(Z).view(np.float64)).view(np.complex128)


def moments(wts, vals, table):
    """Quadrature moments sum_q w_q table_qi vals_qd of point values vals
    (..., nq, d) against a real basis table (..., nq, n), as (..., n, d): one
    stacked matmul, in real arithmetic also for complex values."""
    return _rmul(np.swapaxes(table, -1, -2), wts[..., None] * vals)


class Discretization:
    """Bases, quadrature and geometry caches for a given mesh and degree k."""

    def __init__(self, mesh, k, exactness=None):
        if k < 0:
            raise ValueError(f"polynomial degree k must be >= 0, got {k}")
        self.mesh = mesh
        self.k = int(k)
        self.exactness = int(exactness) if exactness is not None else 2 * (k + 1) + 2
        if self.exactness < 2 * (k + 1):
            raise ValueError("quadrature exactness too low for the mass matrices")

        self.tet_basis_v = SimplexBasis("tetrahedron", k)       # V scalar factor
        self.tet_basis_w = SimplexBasis("tetrahedron", k + 1)   # W scalar factor
        self.tri_basis = SimplexBasis("triangle", k)            # skeleton scalar factor
        self.nV = self.tet_basis_v.n
        self.nW = self.tet_basis_w.n
        self.nF = self.tri_basis.n

        self.vol_rule = simplex_rule("tetrahedron", self.exactness)
        self.face_rule = simplex_rule("triangle", self.exactness)
        self.phi_ref, self.dphi_ref = self.tet_basis_v.eval(self.vol_rule.points)
        self.psi_ref = self.tet_basis_w.eval(self.vol_rule.points)[0]
        self.chi_ref, _ = self.tri_basis.eval(self.face_rule.points)
        # (3, nW, nV) sum_q w_q psi_j d_r phi_i, for the divergence blocks D
        self.psi_dphi = np.einsum("q,qj,qir->rji", self.vol_rule.weights, self.psi_ref,
                                  self.dphi_ref)

        verts = mesh.vertices[mesh.elements]                                   # (ne, 4, 3)
        self.v0 = verts[:, 0]
        self.jac = np.ascontiguousarray(np.swapaxes(verts[:, 1:] - verts[:, :1], 1, 2))
        self.det_jac = np.linalg.det(self.jac)
        if np.any(self.det_jac <= 0):
            raise ValueError("mesh contains non-positively oriented elements")
        self.jac_inv = np.linalg.inv(self.jac)
        edges = verts[:, _EDGES[0]] - verts[:, _EDGES[1]]
        self.h = np.sqrt(row_dot(edges, edges)).max(axis=1)                # diameters

        # Faces: chart x = va + J (s, t) over the sorted vertex triple (va, vb, vc).
        va, vb, vc = np.moveaxis(mesh.vertices[mesh.face_vertices], 1, 0)
        self.face_origin = va
        self.face_jac = np.stack([vb - va, vc - va], axis=-1)                 # (nf, 3, 2)
        self.face_points = va[:, None] + self.face_rule.points @ np.swapaxes(self.face_jac, 1, 2)
        self.face_weights = self.face_rule.weights * (2.0 * mesh.face_areas)[:, None]  # (nf, nq)
        self.face_scale = 1.0 / np.sqrt(2.0 * mesh.face_areas)
        self.face_chi = self.chi_ref * self.face_scale[:, None, None]         # (nf, nq, nF)

        # The element reference coordinates of a face's quadrature points
        # depend only on where the face's sorted vertex triple sits among the
        # element's vertices: placement 16 p0 + 4 p1 + p2 for local vertex
        # positions p. The element bases are tabulated for all 64 placements.
        triples = mesh.face_vertices[mesh.element_faces]                       # (ne, 4, 3)
        pos = np.argmax(mesh.elements[:, None, None, :] == triples[..., None], axis=-1)
        self.face_placement = pos @ np.array([16, 4, 1])                       # (ne, 4)
        corners = np.vstack([np.zeros(3), np.eye(3)])[
            np.array(list(itertools.product(range(4), repeat=3)))]            # (64, 3, 3)
        st = self.face_rule.points
        ref = corners[:, None, 0] + st @ (corners[:, 1:] - corners[:, :1])     # (64, nq, 3)
        nqf = len(st)
        self.face_phi_ref = self.tet_basis_v.eval(ref.reshape(-1, 3))[0].reshape(64, nqf, -1)
        self.face_psi_ref = self.tet_basis_w.eval(ref.reshape(-1, 3))[0].reshape(64, nqf, -1)

    # ---- faces ----

    def face_basis_at(self, fi, phys_points):
        """Orthonormal face basis values at physical points on face fi."""
        # least-squares chart inversion (points assumed on the face plane)
        ref = np.linalg.lstsq(self.face_jac[fi], (phys_points - self.face_origin[fi]).T,
                              rcond=None)[0].T
        return self.tri_basis.eval(ref)[0] * self.face_scale[fi]

    def element_face_tables(self, e, lf):
        """Element V and W basis values at the quadrature points of local
        face lf of element e, (..., nq, nV) and (..., nq, nW), and the outward
        unit normal there, (..., 3). e and lf are index arrays that broadcast
        together; the values come from the placement tables."""
        place = self.face_placement[e, lf]
        scale = 1.0 / np.sqrt(self.det_jac[e])[..., None, None]
        normals = (self.mesh.element_face_signs[e, lf][..., None]
                   * self.mesh.face_normals[self.mesh.element_faces[e, lf]])
        return self.face_phi_ref[place] * scale, self.face_psi_ref[place] * scale, normals

    # ---- elements ----
    # element_points, element_weights, scalar_basis, tau and the projections
    # take one element index or an integer array of them; an array adds a
    # leading element axis to every argument and result.

    def element_points(self, e):
        """Physical volume quadrature points, (nq, 3)."""
        return self.v0[e][..., None, :] + self.vol_rule.points @ np.swapaxes(self.jac[e], -1, -2)

    def element_weights(self, e):
        return self.vol_rule.weights * self.det_jac[e][..., None]

    def scalar_basis(self, e, which):
        """Values of the element scalar basis at the volume quadrature points:
        the reference values over sqrt(det J), (nq, nV) for which='V' (degree
        k) and (nq, nW) for 'W' (degree k+1). Values only, no gradients."""
        vals_ref = self.phi_ref if which == "V" else self.psi_ref
        return vals_ref * (1.0 / np.sqrt(self.det_jac[e])[..., None, None])

    def scalar_basis_at(self, e, phys_points, which):
        """Element scalar basis values at arbitrary physical points."""
        basis = self.tet_basis_v if which == "V" else self.tet_basis_w
        ref = (np.asarray(phys_points) - self.v0[e]) @ self.jac_inv[e].T
        return basis.eval(ref)[0] / np.sqrt(self.det_jac[e])

    def tau(self, e):
        """Stabilization weight: inverse element diameter."""
        return 1.0 / self.h[e]

    # ---- projections ----

    def project_w(self, e, field):
        """L2 projection of a vector field (callable x -> (..., 3)) onto W|_K.

        Returns coefficients of shape (3, nW)."""
        vals = _evaluate(field, self.element_points(e))
        return np.swapaxes(moments(self.element_weights(e), vals, self.scalar_basis(e, "W")),
                           -1, -2)

    def project_v(self, e, field):
        """L2 projection of a symmetric matrix field (x -> (..., 3, 3)) onto V|_K.

        Returns packed coefficients of shape (6, nV). Raises on asymmetric input."""
        packed = pack_sym(_evaluate(field, self.element_points(e)))
        return np.swapaxes(moments(self.element_weights(e), packed, self.scalar_basis(e, "V")),
                           -1, -2)

    def project_face(self, fi, field):
        """L2 projection of a vector field onto the face space M|_F, (3, nF).

        fi is one face index or an integer array of them."""
        vals = _evaluate(field, self.face_points[fi])
        return np.swapaxes(moments(self.face_weights[fi], vals, self.face_chi[fi]), -1, -2)

    def eval_w(self, e, coeffs, phys_points):
        """Evaluate a W field from coefficients (3, nW) at physical points."""
        psi = self.scalar_basis_at(e, phys_points, "W")
        return np.einsum("dj,qj->qd", coeffs, psi)

    def eval_v_packed(self, e, coeffs, phys_points):
        """Evaluate a V field (packed entries, (6, nV)) at physical points."""
        phi = self.scalar_basis_at(e, phys_points, "V")
        return np.einsum("ci,qi->qc", coeffs, phi)

    def eval_face(self, fi, coeffs, phys_points):
        """Evaluate a face field from coefficients (3, nF) at physical points."""
        chi = self.face_basis_at(fi, phys_points)
        return np.einsum("dl,ql->qd", coeffs, chi)
