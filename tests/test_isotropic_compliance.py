"""The compliance mass of the isotropic law in closed form: A laid out from its
two scalar masses M[1/(2 mu)] and M[1/(2 mu + 3 lam)], and A^-1 applied block
by block from their inverses, against the pointwise 6x6 law and dense solves."""

import numpy as np
import pytest

from hdg_elastic import (FROBENIUS_WEIGHTS, VARIANTS, Discretization, build_structured_cube,
                         isotropic, tag_boundary, variable_preset)
from hdg_elastic.local_ops import (_isotropic_layout, assemble_local_blocks,
                                   compliance_rsolve, condense, condense_batch,
                                   element_blocks, factorize_local)
from hdg_elastic.time_domain import SemidiscreteSystem

from constitutive import compliance_packed

MATERIALS = {"variable": variable_preset(), "negative_lam": isotropic(-0.6, 1.0, 1.0)}


def rel(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


@pytest.fixture(scope="module", params=[1, 2, 3])
def disc(request):
    return Discretization(tag_boundary(build_structured_cube(1), "mixed"), request.param)


def dense_compliance_mass(disc, material, elements):
    """A[a i, b j] = sum_q w_q W_a A_ab(x_q) phi_i phi_j from the pointwise law."""
    wa = FROBENIUS_WEIGHTS[:, None] * compliance_packed(material, disc.element_points(elements))
    phi = disc.phi_ref
    A = np.einsum("q,bqcd,qi,qj->bcidj", disc.vol_rule.weights, wa, phi, phi)
    return A.reshape(len(elements), 6 * disc.nV, 6 * disc.nV)


@pytest.mark.parametrize("name", sorted(MATERIALS))
def test_compliance_mass_matches_pointwise_law(disc, name):
    elements = np.arange(disc.mesh.num_elements)
    b = element_blocks(disc, MATERIALS[name], elements)
    assert rel(b.A, dense_compliance_mass(disc, MATERIALS[name], elements)) < 1e-14


@pytest.mark.parametrize("name", sorted(MATERIALS))
def test_inverse_layout_inverts_compliance_mass(disc, name):
    b = element_blocks(disc, MATERIALS[name], np.arange(disc.mesh.num_elements))
    A_inv = _isotropic_layout(np.linalg.inv(b.A_masses), 0.5)
    assert np.abs(A_inv @ b.A - np.eye(b.nS)).max() < 1e-12
    assert rel(A_inv, np.linalg.inv(b.A)) < 1e-12


@pytest.mark.parametrize("name", sorted(MATERIALS))
def test_blockwise_solve_matches_dense_solve(disc, name):
    b = element_blocks(disc, MATERIALS[name], np.arange(disc.mesh.num_elements))
    A_inv_masses = np.linalg.inv(b.A_masses)
    N = b.N.reshape(len(b.element), b.nM, b.nS)
    for B in (b.D, N):   # P_D = A^-1 D^T and P_N = A^-1 N^T
        P = np.swapaxes(compliance_rsolve(A_inv_masses, B), 1, 2)
        assert rel(P, np.linalg.solve(b.A, np.swapaxes(B, 1, 2))) < 1e-12


@pytest.mark.parametrize("tag", ["conservative", "first_order"])
def test_condensation_with_negative_lam_matches_dense_factor(disc, tag):
    material, variant, kappa = MATERIALS["negative_lam"], VARIANTS[tag], 1.3
    elements = np.arange(disc.mesh.num_elements)
    b = element_blocks(disc, material, elements)
    f = np.random.default_rng(5).standard_normal((len(elements), b.nW3))
    S, loads, _, _, cond = condense_batch(b, kappa ** 2, variant.alpha(kappa), f)
    for e in elements:
        fact = factorize_local(assemble_local_blocks(disc, material, e), kappa, variant)
        S_ref, load_map = condense(fact)
        assert rel(S[e], S_ref) < 1e-12
        assert rel(loads[e], load_map @ f[e]) < 1e-12
        assert abs(cond[e] - fact.condition_estimate) < 1e-10 * fact.condition_estimate


@pytest.mark.parametrize("name", sorted(MATERIALS))
def test_static_slaving_factor_matches_dense_form(name):
    # sum_K (N_K A_K^-1 N_K^T + tau_K I) over the trace dofs of the free faces
    disc = Discretization(tag_boundary(build_structured_cube(2), "mixed"), 1)
    system = SemidiscreteSystem(disc, MATERIALS[name], "conservative")
    N = system.N.toarray()
    dense = N @ np.linalg.solve(system.A.toarray(), N.T) + np.diag(system.t22)
    b = np.random.default_rng(7).standard_normal(system.nm)
    x = system._slave_lu.solve(b)
    assert np.linalg.norm(dense @ x - b) < 1e-12 * np.linalg.norm(b)
