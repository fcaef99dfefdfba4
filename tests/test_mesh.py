"""Structured cube meshes: counts, orientation, tagging, nestedness, io."""

import re
from dataclasses import replace

import numpy as np
import pytest

from hdg_elastic import (BoundaryTag, build_structured_cube, load_mesh,
                         outward_normal, save_mesh, tag_boundary)
from hdg_elastic.mesh import dissection_order


def element_volume(mesh, e):
    v = mesh.vertices[mesh.elements[e]]
    return abs(np.linalg.det(v[1:] - v[0])) / 6.0


def test_counts_n1():
    mesh = build_structured_cube(1)
    assert mesh.num_elements == 6
    assert len(mesh.vertices) == 8
    assert mesh.num_faces == 18
    assert np.sum(mesh.face_elements[:, 1] < 0) == 12


def test_counts_n2():
    mesh = build_structured_cube(2)
    assert mesh.num_elements == 48
    assert mesh.num_faces == 120
    assert np.sum(mesh.face_elements[:, 1] < 0) == 48


def test_rejects_invalid_n():
    with pytest.raises(ValueError):
        build_structured_cube(0)


def test_volumes_cover_cube():
    for n in (1, 2, 3):
        mesh = build_structured_cube(n)
        total = sum(element_volume(mesh, e) for e in range(mesh.num_elements))
        assert abs(total - 1.0) < 1e-13


def test_h_is_main_diagonal():
    for n in (1, 2):
        mesh = build_structured_cube(n)
        for e in range(mesh.num_elements):
            v = mesh.vertices[mesh.elements[e]]
            h = max(np.linalg.norm(v[i] - v[j])
                    for i in range(4) for j in range(i))
            assert abs(h - np.sqrt(3) / n) < 1e-13


def test_tag_mixed_n1():
    mesh = tag_boundary(build_structured_cube(1), "mixed")
    tags = mesh.face_tags.tolist()
    assert tags.count(BoundaryTag.DIRICHLET) == 4
    assert tags.count(BoundaryTag.NEUMANN) == 8
    assert tags.count(BoundaryTag.INTERIOR) == 6


def test_tag_all_dirichlet_n2():
    mesh = tag_boundary(build_structured_cube(2), "all-dirichlet")
    assert np.sum(mesh.face_tags == BoundaryTag.DIRICHLET) == 48


def test_tag_impedance_n1():
    mesh = tag_boundary(build_structured_cube(1), "impedance")
    tags = mesh.face_tags.tolist()
    assert tags.count(BoundaryTag.IMPEDANCE) == 12
    assert tags.count(BoundaryTag.DIRICHLET) == 0


def test_tag_rejects_unknown_config():
    with pytest.raises(ValueError):
        tag_boundary(build_structured_cube(1), "periodic")


def test_outward_normal_bottom_faces():
    mesh = build_structured_cube(1)
    for e in range(mesh.num_elements):
        for lf in range(4):
            fi = mesh.element_faces[e, lf]
            verts = mesh.vertices[mesh.face_vertices[fi]]
            if np.all(np.abs(verts[:, 2]) < 1e-12):
                n = outward_normal(mesh, e, lf)
                assert np.allclose(n, [0, 0, -1], atol=1e-13)


def test_outward_normal_geometric_predicate():
    mesh = build_structured_cube(2)
    for e in range(mesh.num_elements):
        v = mesh.vertices[mesh.elements[e]]
        cen = v.mean(axis=0)
        for lf in range(4):
            fi = mesh.element_faces[e, lf]
            fc = mesh.vertices[mesh.face_vertices[fi]].mean(axis=0)
            n = outward_normal(mesh, e, lf)
            assert abs(np.linalg.norm(n) - 1.0) < 1e-13
            assert np.dot(n, fc - cen) > 0


def test_face_handshake():
    for n in (1, 2):
        mesh = build_structured_cube(n)
        interior = np.sum(mesh.face_elements[:, 1] >= 0)
        boundary = mesh.num_faces - interior
        assert 4 * mesh.num_elements == 2 * interior + boundary


def test_interior_normals_opposite():
    mesh = build_structured_cube(2)
    # collect (element, local face) pairs per face
    incident = {fi: [] for fi in range(mesh.num_faces)}
    for e in range(mesh.num_elements):
        for lf in range(4):
            incident[mesh.element_faces[e, lf]].append((e, lf))
    for fi, neighbor in enumerate(mesh.face_elements[:, 1]):
        if neighbor < 0:
            continue
        (e1, lf1), (e2, lf2) = incident[fi]
        n1 = outward_normal(mesh, e1, lf1)
        n2 = outward_normal(mesh, e2, lf2)
        assert np.linalg.norm(n1 + n2) < 1e-14


def test_element_closure():
    mesh = build_structured_cube(2)
    for e in range(mesh.num_elements):
        acc = np.zeros(3)
        for lf in range(4):
            fi = mesh.element_faces[e, lf]
            acc += mesh.face_areas[fi] * outward_normal(mesh, e, lf)
        assert np.linalg.norm(acc) < 1e-13


def test_face_signs_match_outward_normal():
    mesh = build_structured_cube(2)
    for e in range(mesh.num_elements):
        for lf in range(4):
            fi = mesh.element_faces[e, lf]
            n = mesh.element_face_signs[e, lf] * mesh.face_normals[fi]
            assert np.allclose(n, outward_normal(mesh, e, lf), atol=1e-13)


def test_nested_refinement_volumes():
    coarse = build_structured_cube(1)
    fine = build_structured_cube(2)
    fine_cen = np.array([fine.vertices[fine.elements[e]].mean(axis=0)
                         for e in range(fine.num_elements)])
    fine_vol = np.array([element_volume(fine, e)
                         for e in range(fine.num_elements)])
    for e in range(coarse.num_elements):
        v = coarse.vertices[coarse.elements[e]]
        # barycentric membership of fine centroids in the coarse element
        T = (v[1:] - v[0]).T
        lam = np.linalg.solve(T, (fine_cen - v[0]).T)
        inside = np.all(lam > -1e-12, axis=0) & (lam.sum(axis=0) < 1 + 1e-12)
        assert inside.sum() == 8
        assert abs(fine_vol[inside].sum() - element_volume(coarse, e)) < 1e-13


def test_mesh_io_roundtrip(tmp_path):
    mesh = build_structured_cube(2)
    path = tmp_path / "cube.txt"
    save_mesh(path, mesh)
    again = load_mesh(path)
    assert np.allclose(again.vertices, mesh.vertices)
    assert np.array_equal(again.elements, mesh.elements)
    assert again.num_faces == mesh.num_faces
    tagged = tag_boundary(again, "mixed")
    assert np.sum(tagged.face_tags == BoundaryTag.DIRICHLET) == 16


@pytest.mark.parametrize("text, reason", [
    ("2 1\n0 0 0\n1 0 0\n0 1 2 3\n", "out of range"),
    ("4 1\n0 0 0\n1 0 0\nnan 1 0\n0 0 1\n0 1 2 3\n", "non-finite"),
    ("4 1\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n0 1 1 3\n", "names a vertex twice"),
    ("4 x\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n0 1 2 3\n", "non-numeric token"),
    ("4 1\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n0 1 2 x\n", "non-numeric token"),
    ("0 0\n", "no vertices or no elements"),
    ("4 1\n0 0 0\n1 0 0\n2 0 0\n0 0 1\n0 1 2 3\n", "element 0 has zero volume"),
    ("4 1\n0 0 0\n1 0 0\n0 1 0\n1 1 0\n0 1 2 3\n", "element 0 has zero volume"),
], ids=["index-out-of-range", "non-finite", "repeated-vertex", "non-numeric-header",
        "non-numeric-body", "no-elements", "collinear", "coplanar"])
def test_load_mesh_rejects_garbage(tmp_path, text, reason):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}: .*{reason}"):
        load_mesh(path)


def jittered_cube(path, n=3):
    """A structured cube with its interior vertices jittered, so no centroid
    coordinates tie, written with save_mesh and read back."""
    cube = build_structured_cube(n)
    rng = np.random.default_rng(5)
    inner = np.all((cube.vertices > 0) & (cube.vertices < 1), axis=1)
    vertices = cube.vertices.copy()
    vertices[inner] += rng.uniform(-0.05, 0.05, (inner.sum(), 3))
    save_mesh(path, replace(cube, vertices=vertices))
    return load_mesh(path)


def test_dissection_order_names_each_face_once(tmp_path):
    for mesh in (build_structured_cube(3), jittered_cube(tmp_path / "jittered.txt")):
        order = dissection_order(mesh)
        assert np.array_equal(np.sort(order), np.arange(mesh.num_faces))
        # the mesh is numbered in this order at build, so it is idempotent
        assert np.array_equal(order, np.arange(mesh.num_faces))


def wall_axis(mesh, fi):
    """The axis of the unit-cube wall that face fi lies on, or None."""
    pts = mesh.vertices[mesh.face_vertices[fi]]
    for axis in range(3):
        if any(np.all(np.abs(pts[:, axis] - value) < 1e-12) for value in (0.0, 1.0)):
            return axis
    return None


def reference_tag(mesh, fi, config):
    """The tag of face fi, one face at a time, from its vertices."""
    if mesh.face_elements[fi, 1] >= 0:
        return BoundaryTag.INTERIOR
    if config != "mixed":
        return {"all-dirichlet": BoundaryTag.DIRICHLET, "all-neumann": BoundaryTag.NEUMANN,
                "impedance": BoundaryTag.IMPEDANCE}[config]
    return BoundaryTag.DIRICHLET if wall_axis(mesh, fi) == 2 else BoundaryTag.NEUMANN


@pytest.mark.parametrize("kind", ["structured", "jittered"])
def test_face_table_contract(tmp_path, kind):
    mesh = build_structured_cube(2) if kind == "structured" \
        else jittered_cube(tmp_path / "jittered.txt", n=2)
    assert mesh.face_vertices.shape == (mesh.num_faces, 3)
    assert mesh.face_elements.shape == (mesh.num_faces, 2)
    # sorted triples, one row each, numbered in the dissection order
    assert np.all(np.diff(mesh.face_vertices, axis=1) > 0)
    assert len({tuple(t) for t in mesh.face_vertices.tolist()}) == mesh.num_faces
    assert np.array_equal(dissection_order(mesh), np.arange(mesh.num_faces))
    for fi, (owner, neighbor) in enumerate(mesh.face_elements):
        for e in (owner, neighbor) if neighbor >= 0 else (owner,):
            assert fi in mesh.element_faces[e]
        if neighbor >= 0:
            assert owner < neighbor
        else:
            assert neighbor == -1
        lf = list(mesh.element_faces[owner]).index(fi)
        local = np.delete(mesh.elements[owner], lf)
        assert np.array_equal(mesh.face_vertices[fi], np.sort(local))
        va, vb, vc = mesh.vertices[mesh.face_vertices[fi]]
        cross = np.cross(vb - va, vc - va)
        assert abs(mesh.face_areas[fi] - 0.5 * np.linalg.norm(cross)) < 1e-15
        assert np.allclose(mesh.face_normals[fi], cross / np.linalg.norm(cross), atol=1e-15)
    # every (element, local face) slot names a face that names the element
    counts = np.bincount(mesh.element_faces.ravel(), minlength=mesh.num_faces)
    assert np.array_equal(counts, np.where(mesh.face_elements[:, 1] >= 0, 2, 1))
    assert np.all(mesh.face_tags == BoundaryTag.INTERIOR)
    for config in ("all-dirichlet", "all-neumann", "impedance", "mixed"):
        tagged = tag_boundary(mesh, config)
        ref = [reference_tag(mesh, fi, config) for fi in range(mesh.num_faces)]
        assert tagged.face_tags.tolist() == ref, config


def test_tag_mixed_rejects_face_off_the_unit_cube(tmp_path):
    cube = build_structured_cube(2)
    path = tmp_path / "doubled.txt"
    save_mesh(path, replace(cube, vertices=2 * cube.vertices))
    mesh = load_mesh(path)
    # reference: the first boundary face in face order on no unit-cube wall
    off = [fi for fi in range(mesh.num_faces)
           if mesh.face_elements[fi, 1] < 0 and wall_axis(mesh, fi) is None]
    triple = tuple(mesh.face_vertices[off[0]].tolist())
    with pytest.raises(ValueError, match=re.escape(f"boundary face {triple} not on a unit-cube wall")):
        tag_boundary(mesh, "mixed")
