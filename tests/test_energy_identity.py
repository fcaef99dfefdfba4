"""The discrete error energy identity on every boundary configuration, its
independence of the element batch size, and its point-value forms against
the element blocks."""

import numpy as np
import pytest

from hdg_elastic import (VARIANTS, Discretization, build_structured_cube,
                         energy_identity_sides, isotropic, make_case,
                         solve_time_harmonic, tag_boundary, variable_preset)
from hdg_elastic import local_ops
from hdg_elastic.discretization import moments
from hdg_elastic.errors import compliance_dual, problem_data_from_case
from hdg_elastic.local_ops import element_blocks


def _sides(bc, k, kappa=1.3):
    case = make_case("varcoeff", kappa=kappa)
    disc = Discretization(tag_boundary(build_structured_cube(1), bc), k, exactness=20)
    material = variable_preset()
    solution, _ = solve_time_harmonic(disc, material, problem_data_from_case(case),
                                      VARIANTS["first_order"])
    return disc, material, case, solution


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("bc", ["mixed", "all-dirichlet", "all-neumann", "impedance"])
def test_identity_closes(bc, k):
    # on impedance faces the left side carries ||P_M u - u_hat||^2; without
    # it the sides differ by that term (relative 2e-2 to 1e-1)
    lhs, rhs = energy_identity_sides(*_sides(bc, k))
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))
    assert abs(lhs) > 1e-8


def test_identity_independent_of_batches(monkeypatch):
    args = _sides("impedance", 1)
    lhs, rhs = energy_identity_sides(*args)
    calls = []
    element_points = args[0].element_points   # called once per batch

    def counting(e):
        calls.append(len(e))
        return element_points(e)

    monkeypatch.setattr(args[0], "element_points", counting)
    monkeypatch.setattr(local_ops, "_BATCH_BYTES", local_ops._BATCH_BYTES // 3)
    lhs_b, rhs_b = energy_identity_sides(*args)
    assert len(calls) >= 3 and sum(calls) == args[0].mesh.num_elements
    assert abs(lhs_b - lhs) <= 1e-13 * abs(lhs)
    assert abs(rhs_b - rhs) <= 1e-13 * abs(rhs)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("material", [variable_preset(), isotropic(-0.6, 1, 1)],
                         ids=["variable", "isotropic"])
def test_point_forms_match_element_blocks(material, k):
    # the oracle's ||e_s||_A^2, ||e_u||_rho^2 and P_M e_u come from point
    # values; for any coefficients they equal the element blocks' forms
    disc = Discretization(tag_boundary(build_structured_cube(1), "mixed"), k)
    batch = np.arange(disc.mesh.num_elements)
    nb, nV, nW, nF = len(batch), disc.nV, disc.nW, disc.nF
    b = element_blocks(disc, material, batch)
    rng = np.random.default_rng(k)
    es = rng.standard_normal((nb, 6 * nV)) + 1j * rng.standard_normal((nb, 6 * nV))
    eu = rng.standard_normal((nb, 3 * nW)) + 1j * rng.standard_normal((nb, 3 * nW))
    block_a = np.sum(np.conj(es) * (b.A @ es[..., None])[..., 0], axis=1)
    block_rho = np.sum(np.conj(eu) * (b.M @ eu[..., None])[..., 0], axis=1)
    block_pm = (b.G @ eu[:, None, :, None])[..., 0]                 # (nb, 4, 3 nF)

    pts, wts = disc.element_points(batch), disc.element_weights(batch)
    es_pts = disc.scalar_basis(batch, "V") @ np.swapaxes(es.reshape(nb, 6, nV), 1, 2)
    eu_pts = disc.scalar_basis(batch, "W") @ np.swapaxes(eu.reshape(nb, 3, nW), 1, 2)
    a_es = compliance_dual(material.lam(pts), material.mu(pts), wts[..., None] * es_pts)
    point_a = np.sum(np.conj(a_es) * es_pts, axis=(1, 2))
    point_rho = np.sum(wts * material.rho(pts) * np.sum(np.abs(eu_pts) ** 2, axis=-1), axis=1)
    _, psi_f, _ = disc.element_face_tables(batch[:, None], np.arange(4))
    faces = disc.mesh.element_faces[batch]
    eu_f = psi_f @ np.swapaxes(eu.reshape(nb, 3, nW), 1, 2)[:, None]
    point_pm = moments(disc.face_weights[faces], eu_f, disc.face_chi[faces])
    point_pm = np.swapaxes(point_pm, 2, 3).reshape(nb, 4, 3 * nF)

    assert np.all(np.abs(point_a - block_a) <= 1e-13 * np.abs(block_a))
    assert np.all(np.abs(point_rho - block_rho) <= 1e-13 * np.abs(block_rho))
    assert np.abs(point_pm - block_pm).max() <= 1e-13 * np.abs(block_pm).max()
