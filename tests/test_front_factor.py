"""The multifrontal skeleton factor against SuperLU on the scattered matrix."""

from dataclasses import replace

import numpy as np
import pytest

from hdg_elastic import (VARIANTS, Discretization, SingularSystemError, assemble_hybrid,
                         build_structured_cube, load_mesh, make_case, solve_skeleton,
                         tag_boundary)
from hdg_elastic import global_system
from hdg_elastic.errors import problem_data_from_case
from hdg_elastic.global_system import factor_skeleton
from hdg_elastic.local_ops import condense_batch, element_blocks


def varcoeff_system(n, k, bc, variant):
    case = make_case("varcoeff", kappa=1.3)
    disc = Discretization(tag_boundary(build_structured_cube(n), bc), k)
    return assemble_hybrid(disc, case.material, problem_data_from_case(case), VARIANTS[variant])


@pytest.mark.parametrize("variant", ["conservative", "first_order"])
@pytest.mark.parametrize("bc", ["mixed", "impedance", "all-dirichlet"])
@pytest.mark.parametrize("n,k", [(n, k) for n in (1, 2, 3) for k in (1, 2, 3)])
def test_front_factor_matches_sparse_factor(n, k, bc, variant, monkeypatch):
    system = varcoeff_system(n, k, bc, variant)

    def no_splu(*args, **kwargs):
        raise AssertionError("the hybrid solve called SuperLU")

    monkeypatch.setattr(global_system.spla, "splu", no_splu)
    uhat = solve_skeleton(system)
    assert "matrix" not in vars(system)   # built only when read
    monkeypatch.undo()
    x = uhat[system.skeleton.active].ravel()
    lu = factor_skeleton(system.matrix, "skeleton solve")
    ref = lu.solve(system.rhs)
    assert x.dtype == ref.dtype == system.rhs.dtype
    assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()
    info = system.diagnostics
    assert info["skeleton_residual"] < 1e-12
    # the face-block pattern is the scattered matrix's, without exact zeros
    assert info["skeleton_nnz"] == system.matrix.nnz
    assert info["skeleton_nnz"] <= info["lu_fill"]


def _dirichlet_entries(system):
    """Mask (ne, 4 nFd, 4 nFd) of the Dirichlet rows and columns of the blocks."""
    fixed = system.skeleton.element_dofs == system.skeleton.ndof
    return fixed[:, :, None] | fixed[:, None, :]


@pytest.mark.parametrize("variant", ["conservative", "first_order"])
def test_blocks_keep_dirichlet_rows_and_columns(variant):
    system = varcoeff_system(2, 1, "mixed", variant)
    disc, kappa = system.disc, system.kappa
    ne = disc.mesh.num_elements
    blocks = element_blocks(disc, make_case("varcoeff", kappa=kappa).material, np.arange(ne))
    S = condense_batch(blocks, kappa ** 2, system.variant.alpha(kappa),
                       np.zeros((ne, 3 * disc.nW)))[0]
    fixed = _dirichlet_entries(system)
    assert np.abs(S[fixed]).max() > 0
    assert np.array_equal(system.blocks[fixed], S[fixed])


@pytest.mark.parametrize("variant", ["conservative", "first_order"])
def test_solve_ignores_dirichlet_rows_and_columns(variant):
    # only SkeletonMap drops these entries: neither the fronts, the residual
    # nor its rounding level may read them
    system = varcoeff_system(2, 1, "mixed", variant)
    changed = replace(system, blocks=system.blocks.copy(), diagnostics=dict(system.diagnostics))
    fixed = _dirichlet_entries(system)
    rng = np.random.default_rng(29)
    noise = rng.uniform(-1, 1, (2, fixed.sum())) * 1e6 * np.abs(system.blocks).max()
    changed.blocks[fixed] = noise[0] + 1j * noise[1] if changed.blocks.dtype.kind == "c" else noise[0]
    x, y = solve_skeleton(system), solve_skeleton(changed)
    assert np.array_equal(x, y)
    for key in ("skeleton_residual", "refine_steps", "refine_ratio"):
        assert system.diagnostics[key] == changed.diagnostics[key], key


def test_singular_block_set_is_refused():
    system = varcoeff_system(2, 1, "mixed", "conservative")
    system.blocks[:] = 0
    with pytest.raises(SingularSystemError, match="skeleton solve failed: zero pivot"):
        solve_skeleton(system)


def test_zero_face_is_refused():
    # one interior face's rows and columns removed from every element block
    system = varcoeff_system(2, 2, "mixed", "first_order")
    mesh, nFd = system.disc.mesh, system.skeleton.nFd
    face = np.flatnonzero(mesh.face_elements[:, 1] >= 0)[7]
    hit = (mesh.element_faces == face).repeat(nFd, axis=1)
    system.blocks *= ~(hit[:, :, None] | hit[:, None, :])
    with pytest.raises(SingularSystemError, match="skeleton solve"):
        solve_skeleton(system)


def test_disconnected_mesh(tmp_path):
    # five separate tetrahedra: the root separator is empty, so the root has
    # no front of its own, and no child passes an update to it
    tet = 0.15 * np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
    vertices = np.concatenate([tet + [0.18 * i, 0, 0] for i in range(5)])
    path = tmp_path / "tets.txt"
    path.write_text(f"{len(vertices)} 5\n"
                    + "".join(f"{x!r} {y!r} {z!r}\n" for x, y, z in vertices.tolist())
                    + "".join(f"{4 * e} {4 * e + 1} {4 * e + 2} {4 * e + 3}\n"
                              for e in range(5)))
    mesh = tag_boundary(load_mesh(path), "all-neumann")
    tree = mesh.dissection
    assert tree.face_bounds[-1] == tree.face_bounds[-2]
    case = make_case("pwave", kappa=1.0)
    system = assemble_hybrid(Discretization(mesh, 1), case.material,
                             problem_data_from_case(case), VARIANTS["conservative"])
    x = solve_skeleton(system)[system.skeleton.active].ravel()
    ref = factor_skeleton(system.matrix, "skeleton solve").solve(system.rhs)
    assert system.diagnostics["skeleton_residual"] < 1e-12
    assert np.abs(x - ref).max() <= 1e-10 * np.abs(ref).max()
