"""Tour of the structured cube meshes and the discrete spaces.

Builds the 6n^3-tetrahedra Kuhn subdivision of the unit cube for a few n,
prints entity counts and boundary tagging, and verifies that L2 projection
onto the piecewise polynomial spaces converges at the expected order k+1
(stress space, degree k) and k+2 (displacement space, degree k+1).

Usage::

    python demos/mesh_and_spaces.py
"""

import numpy as np

from hdg_elastic import Discretization, build_structured_cube, tag_boundary
from hdg_elastic.errors import eoc
from hdg_elastic.mesh import BoundaryTag


def smooth_field(x):
    out = np.zeros(x.shape, dtype=float)
    out[..., 0] = np.sin(np.pi * x[..., 0]) * np.cos(x[..., 1])
    out[..., 1] = np.exp(x[..., 2]) * x[..., 0]
    out[..., 2] = np.cos(2 * x[..., 1])
    return out


def main():
    print("mesh counts (n, elements, vertices, faces, boundary faces)")
    for n in (1, 2, 3, 4):
        mesh = build_structured_cube(n)
        nb = np.sum(mesh.face_elements[:, 1] < 0)
        print(f"  n={n}: {mesh.num_elements:5d} elements, "
              f"{len(mesh.vertices):5d} vertices, {mesh.num_faces:6d} faces, "
              f"{nb:5d} on the boundary, h = sqrt(3)/{n}")

    mesh = tag_boundary(build_structured_cube(2), "mixed")
    tags = mesh.face_tags.tolist()
    print("\nmixed tagging at n=2:",
          f"{tags.count(BoundaryTag.DIRICHLET)} Dirichlet (z=0, z=1),",
          f"{tags.count(BoundaryTag.NEUMANN)} Neumann (side walls),",
          f"{tags.count(BoundaryTag.INTERIOR)} interior")

    print("\ndisplacement-space projection error (degree k+1, expect EOC k+2)")
    for k in (1, 2):
        errs, hs = [], []
        for n in (1, 2, 4):
            disc = Discretization(tag_boundary(build_structured_cube(n),
                                               "mixed"), k)
            tot = 0.0
            for e in range(disc.mesh.num_elements):
                pts = disc.element_points(e)
                w = disc.element_weights(e)
                diff = disc.eval_w(e, disc.project_w(e, smooth_field), pts) \
                    - smooth_field(pts)
                tot += (w[:, None] * np.abs(diff) ** 2).sum()
            errs.append(np.sqrt(tot))
            hs.append(disc.h[0])
        rates = ["  --  "] + [f"{r:.3f}" for r in eoc(errs, hs)[1:]]
        table = "  ".join(f"{e:.3e} ({r})" for e, r in zip(errs, rates))
        print(f"  k={k}: {table}")


if __name__ == "__main__":
    main()
