"""Structured tetrahedral meshes of the unit cube and the face skeleton.

The unit cube is split into n^3 congruent subcubes, each subdivided into six
tetrahedra sharing the subcube's main diagonal (Kuhn split), which makes the
family nested under refinement. The skeleton is one table of face arrays on
the Mesh, a row per sorted global vertex triple, numbered at build in the
order of dissection_order that every global system is factored in; the stored
unit normal is the one induced by that vertex order, and each element records
in element_face_signs a +/-1 orientation of its faces relative to it.
"""

from dataclasses import dataclass, replace
from enum import IntEnum

import numpy as np

_GEOM_TOL = 1e-12

# corner ids of a subcube: bit0 = x, bit1 = y, bit2 = z.
# Six paths 0 -> 7 along coordinate increments; all tets share edge (0,7).
_KUHN_PERMS = [(1, 2, 4), (1, 4, 2), (2, 1, 4), (2, 4, 1), (4, 1, 2), (4, 2, 1)]
_KUHN_TETS = np.array([(0, p1, p1 + p2, 7) for p1, p2, _ in _KUHN_PERMS])

# local face f is opposite local vertex f
LOCAL_FACES = np.array([(1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2)])


class BoundaryTag(IntEnum):
    INTERIOR = 0
    DIRICHLET = 1
    NEUMANN = 2
    IMPEDANCE = 3


@dataclass(frozen=True)
class Mesh:
    vertices: np.ndarray            # (nv, 3)
    elements: np.ndarray            # (ne, 4), positively oriented
    element_faces: np.ndarray       # (ne, 4) global face index per local face
    element_face_signs: np.ndarray  # (ne, 4) +/-1 vs the stored face normal
    face_vertices: np.ndarray       # (nf, 3) sorted vertex triples, in dissection order
    face_elements: np.ndarray       # (nf, 2) owner and neighbour, -1 on the boundary
    face_normals: np.ndarray        # (nf, 3) unit normals of the sorted vertex order
    face_areas: np.ndarray          # (nf,)
    face_tags: np.ndarray           # (nf,) BoundaryTag values

    @property
    def num_elements(self):
        return len(self.elements)

    @property
    def num_faces(self):
        return len(self.face_vertices)


def row_dot(a, b):
    """Dot products of the rows of a and b (..., 3), summed as np.dot sums."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def face_normal_area(va, vb, vc):
    """Unit normals and areas of triangles with vertex arrays (..., 3); the
    normal follows the vertex order."""
    cr = np.cross(vb - va, vc - va)
    norm = np.sqrt(row_dot(cr, cr))
    return cr / norm[..., None], 0.5 * norm


def _outward_normals(vertices, elements):
    """Unit outward normals (..., 4, 3) of elements (..., 4) on their local
    faces, from geometry."""
    tri = vertices[elements[..., LOCAL_FACES]]                    # (..., 4, 3, 3)
    n, _ = face_normal_area(tri[..., 0, :], tri[..., 1, :], tri[..., 2, :])
    inward = row_dot(n, vertices[elements] - tri[..., 0, :]) > 0
    return np.where(inward[..., None], -n, n)


def outward_normal(mesh, e, local_face):
    """Unit outward normal of element e on its local face, from geometry."""
    if not 0 <= e < mesh.num_elements:
        raise IndexError(f"element index {e} out of range")
    if not 0 <= local_face < 4:
        raise IndexError(f"local face index {local_face} out of range")
    return _outward_normals(mesh.vertices, mesh.elements[e])[local_face]


def _build_faces(vertices, elements):
    """The face table of a mesh, as keyword arguments of Mesh: every field
    from element_faces on, all faces tagged INTERIOR."""
    keys = np.sort(elements[:, LOCAL_FACES], axis=-1).reshape(-1, 3)  # slot 4 e + lf
    triples, first, slots, counts = np.unique(
        keys, axis=0, return_index=True, return_inverse=True, return_counts=True)
    if counts.max() > 2:
        raise ValueError(f"face {tuple(triples[counts.argmax()].tolist())} "
                         "shared by more than two elements")
    last = len(keys) - 1 - np.unique(keys[::-1], axis=0, return_index=True)[1]
    normals, areas = face_normal_area(*np.moveaxis(vertices[triples], 1, 0))
    element_faces = slots.reshape(-1, 4)
    signs = np.where(row_dot(_outward_normals(vertices, elements),
                               normals[element_faces]) > 0, 1, -1)
    return dict(element_faces=element_faces, element_face_signs=signs, face_vertices=triples,
                face_elements=np.stack([first // 4, np.where(counts == 2, last // 4, -1)], 1),
                face_normals=normals, face_areas=areas, face_tags=np.zeros(len(triples), int))


def _finish_mesh(vertices, elements):
    elements = np.array(elements, dtype=int)
    vertices = np.asarray(vertices, dtype=float)
    # enforce positive orientation
    v = vertices[elements]
    flip = np.linalg.det(v[:, 1:] - v[:, :1]) < 0
    elements[flip, 2:] = elements[flip, 2:][:, ::-1]
    mesh = Mesh(vertices, elements, **_build_faces(vertices, elements))
    order = dissection_order(mesh)   # the faces are numbered in it from here on
    return replace(mesh, element_faces=np.argsort(order)[mesh.element_faces], **{
        name: getattr(mesh, name)[order] for name in vars(mesh) if name.startswith("face_")})


def build_structured_cube(n):
    """Kuhn-split mesh of [0,1]^3 with n subdivisions per direction."""
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"subdivision count n must be a positive integer, got {n!r}")
    nv1 = n + 1
    grid = np.arange(nv1) / n
    z, y, x = np.meshgrid(grid, grid, grid, indexing="ij")
    vertices = np.column_stack([x.ravel(), y.ravel(), z.ravel()])
    ids = np.arange(nv1 ** 3).reshape(nv1, nv1, nv1)           # vertex id at [k, j, i]
    corners = ids[:2, :2, :2].ravel()                            # offsets of corners 0..7
    elements = ids[:n, :n, :n].reshape(-1, 1, 1) + corners[_KUHN_TETS]
    return _finish_mesh(vertices, elements.reshape(-1, 4))


_UNIFORM_TAGS = {"all-dirichlet": BoundaryTag.DIRICHLET, "all-neumann": BoundaryTag.NEUMANN,
                 "impedance": BoundaryTag.IMPEDANCE}


def tag_boundary(mesh, config):
    """Return a mesh with boundary faces tagged per configuration.

    config: 'all-dirichlet', 'all-neumann', 'impedance', or 'mixed'
    (mixed: z = 0 and z = 1 walls Dirichlet, the four side walls Neumann;
    a boundary face on no unit-cube wall raises ValueError).
    """
    if config not in (*_UNIFORM_TAGS, "mixed"):
        raise ValueError(f"unknown boundary configuration {config!r}")
    boundary = np.flatnonzero(mesh.face_elements[:, 1] < 0)
    tags = np.full(mesh.num_faces, BoundaryTag.INTERIOR, dtype=int)
    if config == "mixed":
        pts = mesh.vertices[mesh.face_vertices[boundary]]            # (nb, 3, 3)
        # on_wall[f, axis]: all three vertices at 0, or all at 1, along axis
        on_wall = np.any(np.all(np.abs(pts[..., None] - [0.0, 1.0]) < _GEOM_TOL, axis=1), axis=-1)
        off = ~on_wall.any(axis=1)
        if off.any():
            triple = tuple(mesh.face_vertices[boundary[off.argmax()]].tolist())
            raise ValueError(f"boundary face {triple} not on a unit-cube wall")
        tags[boundary] = np.where(on_wall.argmax(axis=1) == 2,
                                  BoundaryTag.DIRICHLET, BoundaryTag.NEUMANN)
    else:
        tags[boundary] = _UNIFORM_TAGS[config]
    return replace(mesh, face_tags=tags)


def dissection_order(mesh):
    """Nested-dissection order of the faces, each face index exactly once.

    Bisects the elements recursively down to leaves of at most two, at the
    cut rank t in [0.3 n, 0.7 n] of the centroid ranking along an axis that
    minimizes (faces crossing the cut) n / min(t, n - t). The faces shared
    by the two halves follow both halves. Uses only the element centroids
    and face_elements; on a built mesh, already numbered so, it is arange."""
    ne = mesh.num_elements
    centroids = mesh.vertices[mesh.elements].mean(axis=1)
    # the two elements of each face; a boundary face names its owner twice
    face_elements = np.where(mesh.face_elements < 0, mesh.face_elements[:, :1], mesh.face_elements)
    rank, axes, order = np.empty((3, ne), dtype=int), np.arange(3)[:, None], []

    def dissect(elements, faces):
        n = len(elements)
        if n <= 2:
            return order.append(faces)
        fe = face_elements[faces]
        ranked = elements[np.argsort(centroids[elements], axis=0, kind="stable")].T
        rank[axes, ranked] = np.arange(n)
        # a face crosses cut t when min(rank) < t <= max(rank); n bins per axis
        r = rank[:, fe] + n * axes[:, :, None]
        crossing = np.cumsum((np.bincount(r.min(axis=2).ravel(), minlength=3 * n)
                              - np.bincount(r.max(axis=2).ravel(), minlength=3 * n)
                              ).reshape(3, n), axis=1)
        ts = np.arange((3 * n + 9) // 10, 7 * n // 10 + 1)
        score = crossing[:, ts - 1] * n / np.minimum(ts, n - ts)
        axis, t = np.unravel_index(np.argmin(score), score.shape)
        side = rank[axis, fe] < ts[t]
        dissect(ranked[axis, :ts[t]], faces[side.all(axis=1)])
        dissect(ranked[axis, ts[t]:], faces[~side.any(axis=1)])
        order.append(faces[side[:, 0] != side[:, 1]])

    dissect(np.arange(ne), np.arange(mesh.num_faces))
    return np.concatenate(order)


def save_mesh(path, mesh):
    """Write the 'NV NE / vertex lines / element lines' text format."""
    with open(path, "w") as fh:
        fh.write(f"{len(mesh.vertices)} {len(mesh.elements)}\n")
        for v in mesh.vertices:
            fh.write(f"{v[0]:.17g} {v[1]:.17g} {v[2]:.17g}\n")
        for el in mesh.elements:
            fh.write(f"{el[0]} {el[1]} {el[2]} {el[3]}\n")


def _numbers(path, tokens, dtype):
    try:
        return np.array(tokens, dtype=dtype)
    except ValueError as err:
        raise ValueError(f"mesh file {path}: non-numeric token ({err})") from None


def load_mesh(path):
    """Read the text mesh format written by save_mesh."""
    with open(path) as fh:
        tokens = fh.read().split()
    if len(tokens) < 2:
        raise ValueError(f"mesh file {path} is empty or truncated")
    nv, ne = _numbers(path, tokens[:2], int)
    if nv < 1 or ne < 1:
        raise ValueError(f"mesh file {path}: no vertices or no elements (header {nv} {ne})")
    need = 2 + 3 * nv + 4 * ne
    if len(tokens) != need:
        raise ValueError(f"mesh file {path}: expected {need} tokens, found {len(tokens)}")
    vertices = _numbers(path, tokens[2:2 + 3 * nv], float).reshape(nv, 3)
    elements = _numbers(path, tokens[2 + 3 * nv:], int).reshape(ne, 4)
    if not np.all(np.isfinite(vertices)):
        raise ValueError(f"mesh file {path}: non-finite vertex coordinate")
    if elements.min() < 0 or elements.max() >= nv:
        raise ValueError(f"mesh file {path}: element vertex index out of range")
    if np.any(np.diff(np.sort(elements, axis=1), axis=1) == 0):
        raise ValueError(f"mesh file {path}: element names a vertex twice")
    # zero volume: |det| of the edges at roundoff of its bound, the product of their lengths
    edges = vertices[elements[:, 1:]] - vertices[elements[:, :1]]
    flat = np.abs(np.linalg.det(edges)) <= _GEOM_TOL * np.linalg.norm(edges, axis=-1).prod(-1)
    if flat.any():
        raise ValueError(f"mesh file {path}: element {flat.argmax()} has zero volume")
    return _finish_mesh(vertices, elements)
