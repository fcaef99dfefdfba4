"""Element-batched block, condensation and recovery kernels against the
per-element reference path (factorize_local, condense, recover)."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from hdg_elastic import (VARIANTS, Discretization, Material, ProblemData,
                         SingularLocalSolverError, assemble_hybrid,
                         build_structured_cube, make_case, reconstruct,
                         solve_skeleton, solve_time_harmonic, tag_boundary,
                         variable_preset)
from hdg_elastic import local_ops
from hdg_elastic.errors import problem_data_from_case
from hdg_elastic.global_system import factor_skeleton, load_moments
from hdg_elastic.local_ops import (assemble_local_blocks, block_bytes, condense,
                                   condense_batch, element_batches, element_blocks,
                                   factorize_local, local_matrix, recover,
                                   resolution_flags)

TOL = 1e-12


def rel(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


@pytest.fixture(scope="module", params=[1, 2])
def mixed2(request):
    mesh = tag_boundary(build_structured_cube(2), "mixed")
    case = make_case("varcoeff", kappa=1.3)
    return Discretization(mesh, request.param), case, problem_data_from_case(case)


@pytest.fixture
def small_batches(monkeypatch):
    """Budget of five elements per batch, so that batch boundaries (and a
    last, shorter batch of the 48 elements) fall inside every assembly."""
    def patch(disc):
        monkeypatch.setattr(local_ops, "_BATCH_BYTES", 5 * block_bytes(disc))
        batches = element_batches(disc.mesh.num_elements, block_bytes(disc))
        assert len(batches) == 10 and len(batches[-1]) == 3
        return batches
    return patch


@pytest.mark.parametrize("tag", sorted(VARIANTS))
def test_batched_condensation_matches_per_element(mixed2, small_batches, tag):
    disc, case, data = mixed2
    variant, kappa = VARIANTS[tag], data.kappa
    for batch in small_batches(disc):
        f = load_moments(disc, batch, data.f)
        S, loads, _, _, cond = condense_batch(
            element_blocks(disc, case.material, batch), kappa ** 2, variant.alpha(kappa), f)
        for i, e in enumerate(batch):
            fact = factorize_local(assemble_local_blocks(disc, case.material, e),
                                   kappa, variant)
            S_ref, load_map = condense(fact)
            assert rel(S[i], S_ref) < TOL
            assert rel(loads[i], load_map @ f[i]) < TOL
            assert abs(cond[i] - fact.condition_estimate) < 1e-10 * fact.condition_estimate


def test_hybrid_system_independent_of_batch_size(mixed2, small_batches):
    disc, case, data = mixed2
    variant = VARIANTS["first_order"]
    whole = assemble_hybrid(disc, case.material, data, variant)
    small_batches(disc)
    parts = assemble_hybrid(disc, case.material, data, variant)
    assert parts.matrix.nnz == whole.matrix.nnz
    assert rel(parts.matrix.toarray(), whole.matrix.toarray()) < TOL
    assert rel(parts.rhs, whole.rhs) < TOL
    assert rel(parts.solvers, whole.solvers) < TOL
    assert rel(parts.interior, whole.interior) < TOL


def test_load_is_evaluated_one_element_batch_at_a_time():
    # at exactness 20 each element has 1,331 volume points; the load is
    # called on one batch of them at a time, never on all elements at once
    mesh = tag_boundary(build_structured_cube(2), "mixed")
    disc = Discretization(mesh, 1, exactness=20)
    batches = element_batches(mesh.num_elements, block_bytes(disc))
    nq = len(disc.vol_rule.weights)
    data = problem_data_from_case(make_case("varcoeff", kappa=1.3))
    calls = []
    counted = ProblemData(data.kappa, lambda x: calls.append(np.shape(x)[:-1]) or data.f(x),
                          data.g_d, data.g_n, data.g_r)
    assemble_hybrid(disc, variable_preset(), counted, VARIANTS["first_order"])
    assert len(batches) > 1
    assert [np.prod(c) for c in calls] == [len(b) * nq for b in batches]


def test_element_blocks_evaluate_each_material_field_once():
    # lam, mu and rho are each called once per batch, on all its points
    disc = Discretization(tag_boundary(build_structured_cube(1), "mixed"), 1)
    base, calls = variable_preset(), []
    count = lambda name, fn: lambda *x: calls.append((name, np.shape(x[0]))) or fn(*x)
    material = Material(count("rho", base.rho_fn), count("lam", base.lam_fn),
                        count("mu", base.mu_fn))
    batch = np.arange(3)
    blocks, ref = element_blocks(disc, material, batch), element_blocks(disc, base, batch)
    points = disc.element_points(batch).shape[:-1]
    assert sorted(calls) == [("lam", points), ("mu", points), ("rho", points)]
    for name in ("A", "M", "wave_bound"):
        assert np.array_equal(getattr(blocks, name), getattr(ref, name))


def test_recovery_from_kept_solvers_matches_recover(mixed2):
    disc, case, data = mixed2
    mesh = disc.mesh
    variant = VARIANTS["kappa_scaled"]
    system = assemble_hybrid(disc, case.material, data, variant)
    rng = np.random.default_rng(4)
    shape = (mesh.num_faces, 3, disc.nF)
    uhat = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    sol = reconstruct(system, uhat)
    for e in range(mesh.num_elements):
        fact = factorize_local(assemble_local_blocks(disc, case.material, e),
                               data.kappa, variant)
        m_local = uhat[mesh.element_faces[e]].ravel()
        s, u = recover(fact, m_local, load_moments(disc, e, data.f))
        assert rel(sol.sigma[e], s) < TOL
        assert rel(sol.u[e], u) < TOL


def test_resolution_flag_on_main_path():
    mesh = tag_boundary(build_structured_cube(2), "mixed")
    disc = Discretization(mesh, 1)
    material = variable_preset()
    ne = mesh.num_elements
    # kappa h_K >= 1/sqrt(max |c_A| rho), the bound taken at the quadrature points
    pts = disc.element_points(np.arange(ne))
    bound = np.max(material.compliance_bound(pts) * material.rho(pts), axis=-1)
    for kappa, expected in ((0.5, 0), (50.0, ne)):
        system = assemble_hybrid(disc, material, ProblemData(kappa=kappa),
                                 VARIANTS["first_order"])
        flags = kappa * disc.h >= 1.0 / np.sqrt(bound)
        assert system.diagnostics["flagged_elements"] == flags.sum() == expected


# a real and a complex frequency problem, a Newmark and a trapezoidal step
@pytest.mark.parametrize("kappa2,alpha", [(1.69, 1.0), (1.69, 1.3j),
                                          (-7500.0, 1.0), (-1e4, 100.0)])
def test_load_matrix_condenses_column_by_column(kappa2, alpha):
    mesh = tag_boundary(build_structured_cube(1), "mixed")
    disc = Discretization(mesh, 2)
    ne = mesh.num_elements
    blocks = element_blocks(disc, variable_preset(), np.arange(ne))
    F = np.random.default_rng(6).standard_normal((ne, blocks.nW3, 3))
    S, loads, X, z, cond = condense_batch(blocks, kappa2, alpha, F)
    assert loads.shape == (ne, blocks.nM, 3) and z.shape == (ne, X.shape[1], 3)
    for j in range(F.shape[2]):
        S_j, loads_j, X_j, z_j, cond_j = condense_batch(blocks, kappa2, alpha, F[:, :, j])
        assert np.array_equal(S, S_j) and np.array_equal(X, X_j)
        assert np.array_equal(cond, cond_j)
        assert rel(loads[:, :, j], loads_j) < TOL
        assert rel(z[:, :, j], z_j) < TOL


@pytest.mark.parametrize("k", [1, 2])
def test_condition_number_is_exact(k):
    # resolved at kappa = 0.5, every element flagged at kappa = 50
    mesh = tag_boundary(build_structured_cube(1), "mixed")
    disc = Discretization(mesh, k)
    material = variable_preset()
    ne = mesh.num_elements
    blocks = element_blocks(disc, material, np.arange(ne))
    for kappa, flagged in ((0.5, 0), (50.0, ne)):
        assert resolution_flags(kappa, blocks.h, blocks.wave_bound).sum() == flagged
        for variant in VARIANTS.values():
            cond = condense_batch(blocks, kappa ** 2, variant.alpha(kappa),
                                  np.zeros((ne, blocks.nW3)))[4]
            for e in range(ne):
                C = local_matrix(assemble_local_blocks(disc, material, e), kappa, variant)
                ref = np.linalg.cond(C, 1)
                assert abs(cond[e] - ref) < 1e-10 * ref, (variant.tag, kappa, e)


def test_static_first_order_local_solver_is_singular():
    mesh = tag_boundary(build_structured_cube(1), "mixed")
    disc = Discretization(mesh, 1)
    blocks = element_blocks(disc, variable_preset(), np.arange(mesh.num_elements))
    with pytest.raises(SingularLocalSolverError, match="singular"):
        condense_batch(blocks, 0.0, VARIANTS["first_order"].alpha(0.0),
                       np.zeros((mesh.num_elements, blocks.nW3)))


def test_symmetric_ordering_matches_colamd(mixed2):
    disc, case, data = mixed2
    system = assemble_hybrid(disc, case.material, data, VARIANTS["first_order"])
    uhat = solve_skeleton(system)
    colamd = spla.splu(system.matrix.tocsc(), permc_spec="COLAMD")
    x = colamd.solve(system.rhs)
    assert rel(uhat[system.skeleton.active].ravel(), x) < TOL
    # the dissection order's sparse fill; the front factor keeps fewer entries
    fill = factor_skeleton(system.matrix, "skeleton solve").nnz
    assert fill < colamd.nnz
    assert system.diagnostics["lu_fill"] < fill
    assert system.diagnostics["skeleton_residual"] < 1e-12


def test_dissection_order_fills_less_than_mmd():
    mesh = tag_boundary(build_structured_cube(4), "mixed")
    disc = Discretization(mesh, 1)
    case = make_case("varcoeff", kappa=1.3)
    system = assemble_hybrid(disc, case.material, problem_data_from_case(case),
                             VARIANTS["first_order"])
    uhat = solve_skeleton(system)
    mmd = spla.splu(system.matrix.tocsc(), permc_spec="MMD_AT_PLUS_A",
                    options=dict(SymmetricMode=True))
    x = mmd.solve(system.rhs)
    assert rel(uhat[system.skeleton.active].ravel(), x) < TOL
    fill = factor_skeleton(system.matrix, "skeleton solve").nnz
    assert fill < mmd.nnz
    assert system.diagnostics["lu_fill"] < fill
    assert system.diagnostics["skeleton_residual"] < 1e-12


def test_solve_report_holds_plain_numbers():
    case = make_case("varcoeff", kappa=1.0)
    mesh = tag_boundary(build_structured_cube(1), "mixed")
    disc = Discretization(mesh, 1)
    _, info = solve_time_harmonic(disc, case.material, problem_data_from_case(case),
                                  VARIANTS["first_order"])
    kinds = {"skeleton_residual": float, "lu_fill": int, "local_cond_min": float,
             "local_cond_median": float, "local_cond_max": float,
             "flagged_elements": int, "condense_s": float, "factor_s": float,
             "skeleton_nnz": int, "factor_dtype": str, "refine_steps": int,
             "refine_ratio": float}
    for key, kind in kinds.items():
        assert type(info[key]) is kind, key
    assert 1 <= info["local_cond_min"] <= info["local_cond_median"] <= info["local_cond_max"]
    assert info["lu_fill"] >= info["skeleton_nnz"] >= info["dofs_skeleton"]
