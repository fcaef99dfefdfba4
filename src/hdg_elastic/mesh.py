"""Structured tetrahedral meshes of the unit cube and the face skeleton.

The unit cube is split into n^3 congruent subcubes, each subdivided into six
tetrahedra sharing the subcube's main diagonal (Kuhn split), which makes the
family nested under refinement. Faces are keyed by their sorted global vertex
triple; the stored unit normal is the one induced by the sorted vertex order
and each incident element records a +/-1 orientation sign relative to it.
"""

from dataclasses import dataclass, replace
from enum import IntEnum

import numpy as np

_GEOM_TOL = 1e-12

# corner ids of a subcube: bit0 = x, bit1 = y, bit2 = z.
# Six paths 0 -> 7 along coordinate increments; all tets share edge (0,7).
_KUHN_PERMS = [(1, 2, 4), (1, 4, 2), (2, 1, 4), (2, 4, 1), (4, 1, 2), (4, 2, 1)]

# local face f is opposite local vertex f
LOCAL_FACES = ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))


class BoundaryTag(IntEnum):
    INTERIOR = 0
    DIRICHLET = 1
    NEUMANN = 2
    IMPEDANCE = 3


@dataclass(frozen=True)
class Face:
    vertices: tuple        # sorted global vertex triple
    normal: np.ndarray     # unit normal induced by sorted vertex order
    area: float
    owner: int
    neighbor: int          # -1 on the boundary
    tag: BoundaryTag = BoundaryTag.INTERIOR


@dataclass(frozen=True)
class Mesh:
    vertices: np.ndarray          # (nv, 3)
    elements: np.ndarray          # (ne, 4), positively oriented
    faces: tuple                  # tuple[Face], sorted by vertex triple
    element_faces: np.ndarray     # (ne, 4) global face index per local face
    element_face_signs: np.ndarray  # (ne, 4) +/-1 vs stored face normal

    @property
    def num_elements(self):
        return len(self.elements)

    @property
    def num_faces(self):
        return len(self.faces)

    def element_vertices(self, e):
        return self.vertices[self.elements[e]]

    def element_volume(self, e):
        v = self.element_vertices(e)
        return np.linalg.det(v[1:] - v[0]) / 6.0

    def element_diameter(self, e):
        v = self.element_vertices(e)
        return max(np.linalg.norm(v[i] - v[j]) for i in range(4) for j in range(i + 1, 4))


def _face_normal_area(va, vb, vc):
    cr = np.cross(vb - va, vc - va)
    area = 0.5 * np.linalg.norm(cr)
    return cr / np.linalg.norm(cr), area


def outward_normal(mesh, e, local_face):
    """Unit outward normal of element e on its local face, from geometry."""
    if not 0 <= e < mesh.num_elements:
        raise IndexError(f"element index {e} out of range")
    if not 0 <= local_face < 4:
        raise IndexError(f"local face index {local_face} out of range")
    verts = mesh.elements[e]
    tri = [verts[i] for i in LOCAL_FACES[local_face]]
    va, vb, vc = (mesh.vertices[v] for v in tri)
    n, _ = _face_normal_area(va, vb, vc)
    opp = mesh.vertices[verts[local_face]]
    if np.dot(n, opp - va) > 0:
        n = -n
    return n


def _build_faces(vertices, elements):
    incidence = {}
    for e, verts in enumerate(elements):
        for lf, idx in enumerate(LOCAL_FACES):
            key = tuple(sorted(int(verts[i]) for i in idx))
            incidence.setdefault(key, []).append((e, lf))
    keys = sorted(incidence)
    faces = []
    ne = len(elements)
    element_faces = np.full((ne, 4), -1, dtype=int)
    element_face_signs = np.zeros((ne, 4), dtype=int)
    for fi, key in enumerate(keys):
        inc = incidence[key]
        if len(inc) > 2:
            raise ValueError(f"face {key} shared by more than two elements")
        va, vb, vc = (vertices[v] for v in key)
        normal, area = _face_normal_area(va, vb, vc)
        owner, neighbor = inc[0][0], (inc[1][0] if len(inc) == 2 else -1)
        faces.append(Face(key, normal, area, owner, neighbor))
        for e, lf in inc:
            element_faces[e, lf] = fi
    mesh_stub = Mesh(vertices, elements, tuple(faces), element_faces, element_face_signs)
    for e in range(ne):
        for lf in range(4):
            fi = element_faces[e, lf]
            n_out = outward_normal(mesh_stub, e, lf)
            element_face_signs[e, lf] = 1 if np.dot(n_out, faces[fi].normal) > 0 else -1
    return tuple(faces), element_faces, element_face_signs


def _finish_mesh(vertices, elements):
    elements = np.asarray(elements, dtype=int)
    vertices = np.asarray(vertices, dtype=float)
    # enforce positive orientation
    for e in range(len(elements)):
        v = vertices[elements[e]]
        if np.linalg.det(v[1:] - v[0]) < 0:
            elements[e, [2, 3]] = elements[e, [3, 2]]
    faces, element_faces, signs = _build_faces(vertices, elements)
    return Mesh(vertices, elements, faces, element_faces, signs)


def build_structured_cube(n):
    """Kuhn-split mesh of [0,1]^3 with n subdivisions per direction."""
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"subdivision count n must be a positive integer, got {n!r}")
    nv1 = n + 1
    grid = np.arange(nv1) / n
    vid = lambda i, j, k: i + nv1 * j + nv1 * nv1 * k
    vertices = np.empty((nv1 ** 3, 3))
    for k in range(nv1):
        for j in range(nv1):
            for i in range(nv1):
                vertices[vid(i, j, k)] = (grid[i], grid[j], grid[k])
    elements = []
    for k in range(n):
        for j in range(n):
            for i in range(n):
                corner = {c: vid(i + (c & 1), j + ((c >> 1) & 1), k + ((c >> 2) & 1))
                          for c in range(8)}
                for p1, p2, p3 in _KUHN_PERMS:
                    elements.append((corner[0], corner[p1], corner[p1 + p2], corner[7]))
    return _finish_mesh(vertices, np.array(elements, dtype=int))


def _boundary_plane(mesh, face):
    """Return (axis, value) if all face vertices lie on a cube wall, else None."""
    pts = mesh.vertices[list(face.vertices)]
    for axis in range(3):
        for value in (0.0, 1.0):
            if np.all(np.abs(pts[:, axis] - value) < _GEOM_TOL):
                return axis, value
    return None


def tag_boundary(mesh, config):
    """Return a mesh with boundary faces tagged per configuration.

    config: 'all-dirichlet', 'all-neumann', 'impedance', or 'mixed'
    (mixed: z = 0 and z = 1 walls Dirichlet, the four side walls Neumann).
    """
    if config not in ("all-dirichlet", "all-neumann", "impedance", "mixed"):
        raise ValueError(f"unknown boundary configuration {config!r}")
    new_faces = []
    for face in mesh.faces:
        if face.neighbor >= 0:
            new_faces.append(replace(face, tag=BoundaryTag.INTERIOR))
            continue
        if config == "all-dirichlet":
            tag = BoundaryTag.DIRICHLET
        elif config == "all-neumann":
            tag = BoundaryTag.NEUMANN
        elif config == "impedance":
            tag = BoundaryTag.IMPEDANCE
        else:
            plane = _boundary_plane(mesh, face)
            if plane is None:
                raise ValueError(f"boundary face {face.vertices} not on a unit-cube wall")
            axis, _ = plane
            tag = BoundaryTag.DIRICHLET if axis == 2 else BoundaryTag.NEUMANN
        new_faces.append(replace(face, tag=tag))
    return replace(mesh, faces=tuple(new_faces))


def save_mesh(path, mesh):
    """Write the 'NV NE / vertex lines / element lines' text format."""
    with open(path, "w") as fh:
        fh.write(f"{len(mesh.vertices)} {len(mesh.elements)}\n")
        for v in mesh.vertices:
            fh.write(f"{v[0]:.17g} {v[1]:.17g} {v[2]:.17g}\n")
        for el in mesh.elements:
            fh.write(f"{el[0]} {el[1]} {el[2]} {el[3]}\n")


def load_mesh(path):
    """Read the text mesh format written by save_mesh."""
    with open(path) as fh:
        tokens = fh.read().split()
    if len(tokens) < 2:
        raise ValueError(f"mesh file {path} is empty or truncated")
    nv, ne = int(tokens[0]), int(tokens[1])
    need = 2 + 3 * nv + 4 * ne
    if len(tokens) != need:
        raise ValueError(f"mesh file {path}: expected {need} tokens, found {len(tokens)}")
    vals = tokens[2:]
    vertices = np.array(vals[: 3 * nv], dtype=float).reshape(nv, 3)
    elements = np.array(vals[3 * nv:], dtype=int).reshape(ne, 4)
    if elements.min() < 0 or elements.max() >= nv:
        raise ValueError(f"mesh file {path}: element vertex index out of range")
    return _finish_mesh(vertices, elements)
