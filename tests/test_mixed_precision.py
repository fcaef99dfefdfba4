"""The single-precision front factor, refined in double precision, and its
fallback to a double-precision factor."""

import numpy as np
import pytest

from hdg_elastic import (VARIANTS, Discretization, SingularSystemError, assemble_hybrid,
                         build_structured_cube, make_case, solve_skeleton, tag_boundary)
from hdg_elastic.errors import problem_data_from_case
from hdg_elastic.global_system import SkeletonMap, factor_skeleton


def _skeleton_reference(system):
    return factor_skeleton(system.matrix, "skeleton solve").solve(system.rhs)


def _varcoeff_system(variant, kappa=1.0):
    case = make_case("varcoeff", kappa=kappa)
    disc = Discretization(tag_boundary(build_structured_cube(2), "mixed"), 1)
    return assemble_hybrid(disc, case.material, problem_data_from_case(case),
                           VARIANTS[variant])


def _decoupled_face_system(variant, delta):
    """The n=2 k=1 varcoeff system with one interior face decoupled, as in
    test_zero_face_is_refused, carrying s I with the block
    s [[1, 1], [1, 1 + delta]] on two of its dofs, s a power of two near the
    largest block entry. Its pivots are s and s delta, exact in double
    precision. Returns the system and the mask of the face's skeleton dofs."""
    system = _varcoeff_system(variant, kappa=1.3)
    mesh, skel, nFd = system.disc.mesh, system.skeleton, system.skeleton.nFd
    face = np.flatnonzero(mesh.face_elements[:, 1] >= 0)[7]
    hit = (mesh.element_faces == face).repeat(nFd, axis=1)
    system.blocks *= ~(hit[:, :, None] | hit[:, None, :])
    s = 2.0 ** np.round(np.log2(np.abs(system.blocks).max()))
    block = s * np.eye(nFd)
    block[:2, :2] = s * np.array([[1, 1], [1, 1 + delta]])
    owner = mesh.face_elements[face, 0]
    local = np.flatnonzero(hit[owner])
    system.blocks[owner][np.ix_(local, local)] = block
    on = np.zeros(skel.ndof, bool)
    on[np.searchsorted(skel.active, face) * nFd + np.arange(nFd)] = True
    return system, on


@pytest.mark.parametrize("variant", ["conservative", "first_order"])
@pytest.mark.parametrize("delta,steps", [(5 * 2.0 ** -26, 1), (2.0 ** -26, 0)])
def test_ill_conditioned_block_set_falls_back_to_double(variant, delta, steps):
    # The condition number is about 1e8 (5e8 for the smaller delta). In
    # single precision 1 + 5 2^-26 rounds to 1 + 2^-23, so the refinement
    # stalls at a step ratio of about 0.3, and 1 + 2^-26 rounds to 1, a zero
    # pivot.
    system, on = _decoupled_face_system(variant, delta)
    skel = system.skeleton
    assert 5e7 < np.linalg.cond(system.matrix.toarray()) < 1e9

    x = solve_skeleton(system)[skel.active].ravel()
    info = system.diagnostics
    assert info["factor_dtype"] == system.blocks.dtype.name
    assert info["refine_steps"] == steps
    if steps:
        assert info["refine_ratio"] > 0.1
    ref = _skeleton_reference(system)
    for part in (on, ~on):
        assert np.abs(x[part] - ref[part]).max() <= 1e-12 * np.abs(ref[part]).max()


def test_slow_refinement_stays_in_single_precision():
    # At delta = 8.5 2^-23 (cond_2 7e6) each step cuts the residual by
    # about 0.06-0.09: refinement converges, only slowly, and needs 7 steps
    # to reach 1e-14 ||b||, with no second factor. The error on the face is
    # within cond_2 eps.
    system, on = _decoupled_face_system("first_order", 8.5 * 2.0 ** -23)
    x = solve_skeleton(system)[system.skeleton.active].ravel()
    info = system.diagnostics
    assert info["factor_dtype"] == "complex64"
    assert info["refine_steps"] >= 7
    ref = _skeleton_reference(system)
    for part, tol in ((on, 1e-9), (~on, 1e-12)):
        assert np.abs(x[part] - ref[part]).max() <= tol * np.abs(ref[part]).max()


@pytest.mark.parametrize("variant", ["conservative", "first_order"])
def test_skeleton_solve_forms_each_residual_once(variant, monkeypatch):
    # one scatter per residual: that of the first sweep and one per step;
    # skeleton_residual is the last of them, not formed again
    system = _varcoeff_system(variant)
    calls = []
    scatter = SkeletonMap.scatter
    monkeypatch.setattr(SkeletonMap, "scatter",
                        lambda self, y: calls.append(1) or scatter(self, y))
    solve_skeleton(system)
    assert len(calls) == system.diagnostics["refine_steps"] + 1


@pytest.mark.parametrize("variant", ["conservative", "first_order"])
def test_nan_block_entry_is_refused(variant):
    system = _varcoeff_system(variant)
    free = np.flatnonzero(system.skeleton.element_dofs[0] < system.skeleton.ndof)[0]
    system.blocks[0, free, free] = np.nan
    with pytest.raises(SingularSystemError, match="skeleton solve did not converge"):
        solve_skeleton(system)


# The skeleton's cond_2 is 8.4e5 at kappa = 6.275, 1.7e4 at 6.3 and 2e3 to
# 1e4 at the others. Refinement steps at each kappa, in order: 2, 2, 3, 2, 2.
@pytest.mark.parametrize("kappa", [6.25, 6.27, 6.275, 6.28, 6.3])
def test_near_resonance_refines_in_single_precision(kappa):
    case = make_case("swave", kappa=kappa)
    disc = Discretization(tag_boundary(build_structured_cube(2), "all-dirichlet"), 1)
    system = assemble_hybrid(disc, case.material, problem_data_from_case(case),
                             VARIANTS["conservative"])
    if kappa == 6.275:
        assert np.linalg.cond(system.matrix.toarray()) > 5e5
    x = solve_skeleton(system)[system.skeleton.active].ravel()
    info = system.diagnostics
    assert info["factor_dtype"] == "complex64"
    assert 1 <= info["refine_steps"] <= 3
    assert info["refine_ratio"] <= 0.1
    assert info["skeleton_residual"] <= 1e-12
    ref = _skeleton_reference(system)
    assert np.abs(x - ref).max() <= 1e-11 * np.abs(ref).max()


# varcoeff settles below 1e-14 ||b||; the hk-const problem (pwave, impedance
# faces, kappa h = 0.1732) at the rounding level of the residual, 1e-13 ||b||
@pytest.mark.parametrize("tag,kappa,bc,variant,dtype,residual", [
    ("varcoeff", 1.0, "mixed", "conservative", "float32", 1e-14),
    ("varcoeff", 1.0, "mixed", "first_order", "complex64", 1e-14),
    ("pwave", 0.3, "impedance", "first_order", "complex64", 1e-12),
])
def test_solves_refine_in_single_precision(tag, kappa, bc, variant, dtype, residual):
    case = make_case(tag, kappa=kappa)
    disc = Discretization(tag_boundary(build_structured_cube(3), bc), 2)
    system = assemble_hybrid(disc, case.material, problem_data_from_case(case),
                             VARIANTS[variant])
    x = solve_skeleton(system)[system.skeleton.active].ravel()
    info = system.diagnostics
    assert info["factor_dtype"] == dtype
    assert 1 <= info["refine_steps"] <= 3
    assert info["skeleton_residual"] <= residual
    ref = _skeleton_reference(system)
    assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()
