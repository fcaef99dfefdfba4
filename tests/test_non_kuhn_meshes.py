"""Solves on meshes that are not Kuhn cubes.

Two meshes, each written with save_mesh and read back with load_mesh, the
path of any tetrahedral mesh: the unit cube under the smooth vertex map
x + 0.08 sin(pi x1) sin(pi x2) sin(pi x3) (1, 1, 1), which fixes its walls,
so its elements are no longer congruent; and the non-convex L-block, the cube
without the octant x, y, z > 1/2. On both, the hybrid solve matches the
monolithic oracle, satisfies the flux equations and the error energy
identity, and its front factor matches SuperLU. The mapped family keeps the
rate windows of criteria 2 and 4, with h = 1/n.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from hdg_elastic import (VARIANTS, Discretization, assemble_hybrid, build_structured_cube,
                         compute_errors, energy_identity_sides, eoc, flux_residual, load_mesh,
                         make_case, save_mesh, solve_monolithic, solve_skeleton,
                         solve_time_harmonic, tag_boundary)
from hdg_elastic.errors import problem_data_from_case
from hdg_elastic.global_system import factor_skeleton

from rate_windows import rate_windows_ok


def _round_trip(path, vertices, elements):
    save_mesh(path, SimpleNamespace(vertices=vertices, elements=elements))
    return load_mesh(path)


def mapped_cube(n, path):
    """build_structured_cube(n) with every vertex x moved to
    x + 0.08 sin(pi x1) sin(pi x2) sin(pi x3) (1, 1, 1)."""
    cube = build_structured_cube(n)
    bump = 0.08 * np.prod(np.sin(np.pi * cube.vertices), axis=1)
    return _round_trip(path, cube.vertices + bump[:, None], cube.elements)


def l_block(n, path):
    """build_structured_cube(n), n even, without the elements in x, y, z > 1/2."""
    cube = build_structured_cube(n)
    keep = ~np.all(cube.vertices[cube.elements].mean(axis=1) > 0.5, axis=1)
    used, elements = np.unique(cube.elements[keep], return_inverse=True)
    return _round_trip(path, cube.vertices[used], elements.reshape(-1, 4))


# mesh, boundary tags and case
CONFIGS = {"mapped-mixed": (mapped_cube, "mixed", "varcoeff"),
           "l-block-dirichlet": (l_block, "all-dirichlet", "varcoeff"),
           "l-block-impedance": (l_block, "impedance", "pwave")}


def discretized(config, k, path, **kwargs):
    """Discretization at n=2 and the exact case of a configuration."""
    build, bc, tag = CONFIGS[config]
    disc = Discretization(tag_boundary(build(2, path / "mesh.txt"), bc), k, **kwargs)
    return disc, make_case(tag, kappa=1.0)


def test_meshes_are_not_kuhn_cubes(tmp_path):
    mapped = mapped_cube(2, tmp_path / "mapped.txt")
    volumes = np.abs(np.linalg.det(mapped.vertices[mapped.elements[:, 1:]]
                                   - mapped.vertices[mapped.elements[:, :1]])) / 6
    assert volumes.min() > 0 and volumes.max() - volumes.min() > 1e-3
    assert abs(volumes.sum() - 1) < 1e-12
    block = l_block(2, tmp_path / "l.txt")
    assert block.num_elements == 42
    centroids = block.vertices[block.elements].mean(axis=1)
    assert not np.any(np.all(centroids > 0.5, axis=1))


@pytest.mark.parametrize("variant", ["first_order", "conservative"])
@pytest.mark.parametrize("config", CONFIGS)
def test_hybrid_matches_monolithic(config, variant, tmp_path):
    disc, case = discretized(config, 1, tmp_path)
    data, flux = problem_data_from_case(case), VARIANTS[variant]
    sol, _ = solve_time_harmonic(disc, case.material, data, flux)
    ref = solve_monolithic(disc, case.material, data, flux)
    for name in ("u", "sigma", "uhat"):
        a, b = getattr(sol, name), getattr(ref, name)
        assert np.abs(a - b).max() <= 1e-9 * np.abs(b).max(), name
    assert flux_residual(disc, case.material, data, flux, sol) <= 1e-10


@pytest.mark.parametrize("config", CONFIGS)
def test_energy_identity(config, tmp_path):
    # criterion 5's exactness and tolerance
    disc, case = discretized(config, 1, tmp_path, exactness=20)
    sol, _ = solve_time_harmonic(disc, case.material, problem_data_from_case(case),
                                 VARIANTS["first_order"])
    lhs, rhs = energy_identity_sides(disc, case.material, case, sol)
    assert abs(lhs - rhs) <= 1e-8 * max(abs(lhs), abs(rhs))


@pytest.mark.parametrize("variant", ["first_order", "conservative"])
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("config", CONFIGS)
def test_front_factor_matches_sparse_factor(config, k, variant, tmp_path):
    disc, case = discretized(config, k, tmp_path)
    system = assemble_hybrid(disc, case.material, problem_data_from_case(case),
                             VARIANTS[variant])
    x = solve_skeleton(system)[system.skeleton.active].ravel()
    ref = factor_skeleton(system.matrix, "skeleton solve").solve(system.rhs)
    assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()
    assert system.diagnostics["skeleton_nnz"] == system.matrix.nnz


@pytest.mark.parametrize("variant", ["first_order", "conservative"])
@pytest.mark.parametrize("k", [1, 2])
def test_mapped_cube_rates(k, variant, tmp_path):
    # criterion 2 (first order) and criterion 4 (conservative) on the finest pair
    ns = [1, 2, 3, 4]
    case = make_case("varcoeff", kappa=1.0)
    reports = []
    for n in ns:
        disc = Discretization(tag_boundary(mapped_cube(n, tmp_path / f"{n}.txt"), "mixed"), k)
        sol, _ = solve_time_harmonic(disc, case.material, problem_data_from_case(case),
                                     VARIANTS[variant])
        reports.append(compute_errors(disc, case.material, case, sol))
    hs = [1 / n for n in ns]
    eoc_u = eoc([r.err_u for r in reports], hs)[-1]
    eoc_s = eoc([r.err_sigma for r in reports], hs)[-1]
    ok_u, ok_s = rate_windows_ok(eoc_u, eoc_s, k)
    assert ok_u and ok_s, f"EOC(u)={eoc_u:.2f} (target {k + 2}), EOC(sigma)={eoc_s:.2f}"
