"""Structured cube meshes: counts, orientation, tagging, nestedness, io."""

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
    assert sum(f.neighbor < 0 for f in mesh.faces) == 12


def test_counts_n2():
    mesh = build_structured_cube(2)
    assert mesh.num_elements == 48
    assert mesh.num_faces == 120
    assert sum(f.neighbor < 0 for f in mesh.faces) == 48


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
    tags = [f.tag for f in mesh.faces]
    assert tags.count(BoundaryTag.DIRICHLET) == 4
    assert tags.count(BoundaryTag.NEUMANN) == 8
    assert tags.count(BoundaryTag.INTERIOR) == 6


def test_tag_all_dirichlet_n2():
    mesh = tag_boundary(build_structured_cube(2), "all-dirichlet")
    assert sum(f.tag == BoundaryTag.DIRICHLET for f in mesh.faces) == 48


def test_tag_impedance_n1():
    mesh = tag_boundary(build_structured_cube(1), "impedance")
    tags = [f.tag for f in mesh.faces]
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
            verts = mesh.vertices[list(mesh.faces[fi].vertices)]
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
            fc = mesh.vertices[list(mesh.faces[fi].vertices)].mean(axis=0)
            n = outward_normal(mesh, e, lf)
            assert abs(np.linalg.norm(n) - 1.0) < 1e-13
            assert np.dot(n, fc - cen) > 0


def test_face_handshake():
    for n in (1, 2):
        mesh = build_structured_cube(n)
        interior = sum(f.neighbor >= 0 for f in mesh.faces)
        boundary = mesh.num_faces - interior
        assert 4 * mesh.num_elements == 2 * interior + boundary


def test_interior_normals_opposite():
    mesh = build_structured_cube(2)
    # collect (element, local face) pairs per face
    incident = {fi: [] for fi in range(mesh.num_faces)}
    for e in range(mesh.num_elements):
        for lf in range(4):
            incident[mesh.element_faces[e, lf]].append((e, lf))
    for fi, face in enumerate(mesh.faces):
        if face.neighbor < 0:
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
            acc += mesh.faces[fi].area * outward_normal(mesh, e, lf)
        assert np.linalg.norm(acc) < 1e-13


def test_face_signs_match_outward_normal():
    mesh = build_structured_cube(2)
    for e in range(mesh.num_elements):
        for lf in range(4):
            fi = mesh.element_faces[e, lf]
            n = mesh.element_face_signs[e, lf] * mesh.faces[fi].normal
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
    assert sum(f.tag == BoundaryTag.DIRICHLET for f in tagged.faces) == 16


def test_load_mesh_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 1\n0 0 0\n1 0 0\n0 1 2 3\n")
    with pytest.raises(ValueError):
        load_mesh(path)


def test_dissection_order_names_each_face_once(tmp_path):
    cube = build_structured_cube(3)
    # jitter the interior vertices, so no centroid coordinates tie
    rng = np.random.default_rng(5)
    inner = np.all((cube.vertices > 0) & (cube.vertices < 1), axis=1)
    vertices = cube.vertices.copy()
    vertices[inner] += rng.uniform(-0.05, 0.05, (inner.sum(), 3))
    path = tmp_path / "jittered.txt"
    save_mesh(path, replace(cube, vertices=vertices))
    for mesh in (cube, load_mesh(path)):
        order = dissection_order(mesh)
        assert np.array_equal(np.sort(order), np.arange(mesh.num_faces))
