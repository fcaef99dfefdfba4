"""The three L2 projections of Discretization against quadrature moments
written out with einsum, for real and complex fields, on one index, an index
array and an empty array."""

import numpy as np
import pytest

from hdg_elastic import Discretization, build_structured_cube, pack_sym, tag_boundary


def _vector(x):
    return np.stack([np.sin(x[:, 0]) + x[:, 1] * x[:, 2], np.exp(x[:, 1]), x[:, 0] ** 3], -1)


def _complex_vector(x):
    return (1.0 - 2.0j) * _vector(x) + 1j * x[:, ::-1] ** 2


def _symmetric(field):
    def matrix(x):
        v = field(x)
        return v[:, :, None] * v[:, None, :] + np.cos(x[:, 0])[:, None, None] * np.eye(3)
    return matrix


@pytest.fixture(scope="module")
def disc():
    return Discretization(tag_boundary(build_structured_cube(2), "mixed"), 2)


INDICES = {"one": 3, "array": np.array([0, 5, 2, 11]), "empty": np.array([], dtype=int)}


def _close(got, ref):
    assert got.shape == ref.shape and got.dtype == ref.dtype
    assert np.abs(got - ref).max(initial=0.0) <= 1e-14 * np.abs(ref).max(initial=0.0)


@pytest.mark.parametrize("which", INDICES)
@pytest.mark.parametrize("field", [_vector, _complex_vector], ids=["real", "complex"])
def test_project_w_matches_einsum(disc, field, which):
    e = INDICES[which]
    pts = disc.element_points(e)
    vals = field(pts.reshape(-1, 3)).reshape(pts.shape)
    ref = np.einsum("...q,...qd,...qj->...dj", disc.element_weights(e), vals,
                    disc.scalar_basis(e, "W"))
    _close(disc.project_w(e, field), ref)


@pytest.mark.parametrize("which", INDICES)
@pytest.mark.parametrize("field", [_vector, _complex_vector], ids=["real", "complex"])
def test_project_v_matches_einsum(disc, field, which):
    e = INDICES[which]
    pts = disc.element_points(e)
    matrix = _symmetric(field)
    vals = pack_sym(matrix(pts.reshape(-1, 3))).reshape(pts.shape[:-1] + (6,))
    ref = np.einsum("...q,...qc,...qi->...ci", disc.element_weights(e), vals,
                    disc.scalar_basis(e, "V"))
    _close(disc.project_v(e, matrix), ref)


@pytest.mark.parametrize("which", INDICES)
@pytest.mark.parametrize("field", [_vector, _complex_vector], ids=["real", "complex"])
def test_project_face_matches_einsum(disc, field, which):
    fi = INDICES[which]
    pts = disc.face_points[fi]
    vals = field(pts.reshape(-1, 3)).reshape(pts.shape)
    ref = np.einsum("...q,...qd,...ql->...dl", disc.face_weights[fi], vals,
                    disc.face_chi[fi])
    _close(disc.project_face(fi, field), ref)
