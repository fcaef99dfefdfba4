"""Skeleton system assembly/solve, monolithic oracles, reconstruction."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sps
import scipy.sparse.linalg as spla
from scipy.linalg import block_diag

from hdg_elastic import (VARIANTS, BoundaryTag, Discretization, ProblemData,
                         SingularSystemError, assemble_hybrid, build_structured_cube,
                         flux_residual, load_mesh, load_solution, make_case, outward_normal,
                         save_solution, solve_monolithic, solve_skeleton,
                         solve_time_harmonic, tag_boundary)
from hdg_elastic import global_system
from hdg_elastic import mesh as mesh_module
from hdg_elastic.errors import problem_data_from_case
from hdg_elastic.global_system import (SkeletonMap, boundary_data, global_operators,
                                       load_moments, solve_dirichlet_trace, trace_dofs)
from hdg_elastic.local_ops import (assemble_local_blocks, block_bytes, condense_batch,
                                   element_batches, element_block_batches,
                                   element_blocks)
from hdg_elastic.mesh import dissection

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="module")
def poly_setup():
    case = make_case("polynomial", kappa=1.0, k=1)
    mesh = tag_boundary(build_structured_cube(1), "mixed")
    disc = Discretization(mesh, 1)
    return disc, case, problem_data_from_case(case)


def test_skeleton_dimension(poly_setup):
    disc, case, data = poly_setup
    system = assemble_hybrid(disc, case.material, data, VARIANTS["first_order"])
    # 18 faces, 4 Dirichlet, 3 components x 3 basis functions per face
    assert system.matrix.shape == (126, 126)


def test_global_operators_match_local_blocks(poly_setup):
    # the shared global operators against an element-by-element scatter
    disc, case, _ = poly_setup
    mesh = disc.mesh
    ops = global_operators(disc, element_block_batches(disc, case.material))
    blocks = [assemble_local_blocks(disc, case.material, e)
              for e in range(mesh.num_elements)]
    for name in ("A", "D", "M", "T11"):
        ref = block_diag(*[getattr(b, name) for b in blocks])
        assert np.array_equal(getattr(ops, name).toarray(), ref), name
    nS, nW3, nFd = 6 * disc.nV, 3 * disc.nW, 3 * disc.nF
    nm = mesh.num_faces * nFd
    N = np.zeros((nm, len(blocks) * nS))
    T12 = np.zeros((len(blocks) * nW3, nm))
    t22 = np.zeros(nm)
    for e, b in enumerate(blocks):
        s = slice(e * nS, (e + 1) * nS)
        u = slice(e * nW3, (e + 1) * nW3)
        for lf, fi in enumerate(mesh.element_faces[e]):
            m = slice(fi * nFd, (fi + 1) * nFd)
            N[m, s] += b.N[lf]
            T12[u, m] += b.tau * b.G[lf].T
            t22[m] += b.tau
    assert np.array_equal(ops.N.toarray(), N)
    assert np.array_equal(ops.T12.toarray(), T12)
    assert np.array_equal(ops.t22, t22)
    for op in (ops.A, ops.D, ops.M, ops.T11, ops.N, ops.T12):
        assert np.all(op.data != 0)


def test_homogeneous_data_zero_solution(poly_setup):
    disc, case, _ = poly_setup
    data = ProblemData(kappa=1.0)
    for variant in VARIANTS.values():
        system = assemble_hybrid(disc, case.material, data, variant)
        assert np.abs(system.rhs).max() == 0
        uhat = solve_skeleton(system)
        assert np.abs(uhat).max() <= 1e-14


def test_dirichlet_trace_projection(poly_setup):
    disc, _, _ = poly_setup
    g = lambda p: np.stack([1 + p[:, 0], p[:, 1] - 2 * p[:, 2], p[:, 2]], axis=1)
    vals = solve_dirichlet_trace(disc, g)
    for fi, tag in enumerate(disc.mesh.face_tags):
        pts = disc.face_points[fi]
        if tag == BoundaryTag.DIRICHLET:
            assert np.abs(disc.eval_face(fi, vals[fi], pts) - g(pts)).max() < 1e-12
        else:
            assert np.abs(vals[fi]).max() == 0


def test_dirichlet_trace_residual_orthogonal(poly_setup):
    disc, _, _ = poly_setup
    case = make_case("pwave", kappa=1.0)
    vals = solve_dirichlet_trace(disc, case.g_d)
    for fi, tag in enumerate(disc.mesh.face_tags):
        if tag != BoundaryTag.DIRICHLET:
            continue
        pts = disc.face_points[fi]
        resid = case.g_d(pts) - disc.eval_face(fi, vals[fi], pts)
        moments = np.einsum("q,qd,ql->dl", disc.face_weights[fi], resid, disc.face_chi[fi])
        assert np.abs(moments).max() < 1e-11


def test_hybrid_matches_monolithic_all_variants(poly_setup):
    disc, case, data = poly_setup
    for variant in VARIANTS.values():
        sol, _ = solve_time_harmonic(disc, case.material, data, variant)
        ref = solve_monolithic(disc, case.material, data, variant, form="second")
        scale = np.abs(ref.u).max()
        assert np.abs(sol.u - ref.u).max() < 1e-9 * scale
        assert np.abs(sol.sigma - ref.sigma).max() < 1e-9 * np.abs(ref.sigma).max()
        assert np.abs(sol.uhat - ref.uhat).max() < 1e-9 * scale


def test_first_order_form_equivalence(poly_setup):
    # first-order system in sigma = (i/kappa) sigma_tilde gives the same fields
    disc, case, data = poly_setup
    sol, _ = solve_time_harmonic(disc, case.material, data,
                                 VARIANTS["first_order"])
    ref = solve_monolithic(disc, case.material, data, VARIANTS["first_order"],
                           form="first")
    assert np.abs(ref.u - sol.u).max() < 1e-10 * np.abs(sol.u).max()
    scaled = sol.first_order_stress()
    assert np.abs(ref.sigma - scaled).max() < 1e-10 * np.abs(scaled).max()


@pytest.mark.parametrize("tag", ["first_order", "conservative"])
def test_mesh_without_skeleton_unknowns(tmp_path, tag):
    # one all-Dirichlet tetrahedron: every trace is known data, the skeleton
    # system is empty and the hybrid solve is the local solve alone
    path = tmp_path / "tet.txt"
    path.write_text("4 1\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n0 1 2 3\n")
    disc = Discretization(tag_boundary(load_mesh(path), "all-dirichlet"), 1)
    case = make_case("varcoeff", kappa=1.3)
    data = problem_data_from_case(case)
    sol, info = solve_time_harmonic(disc, case.material, data, VARIANTS[tag])
    ref = solve_monolithic(disc, case.material, data, VARIANTS[tag])
    assert info["dofs_skeleton"] == 0
    for a, b in ((sol.u, ref.u), (sol.sigma, ref.sigma), (sol.uhat, ref.uhat)):
        assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()


def test_flux_single_valued_varcoeff():
    case = make_case("varcoeff", kappa=1.0)
    mesh = tag_boundary(build_structured_cube(2), "mixed")
    disc = Discretization(mesh, 1)
    data = problem_data_from_case(case)
    sol, _ = solve_time_harmonic(disc, case.material, data,
                                 VARIANTS["first_order"])
    assert flux_residual(disc, case.material, data, VARIANTS["first_order"],
                         sol) < 1e-9


def test_flux_residual_needs_no_skeleton_order(monkeypatch):
    # the faces are numbered in the dissection order once, at mesh build; the
    # residual and both direct solves read that numbering and order nothing
    case = make_case("varcoeff", kappa=1.0)
    disc = Discretization(tag_boundary(build_structured_cube(2), "mixed"), 1)
    data = problem_data_from_case(case)
    variant = VARIANTS["first_order"]
    sol, _ = solve_time_harmonic(disc, case.material, data, variant)
    expected = flux_residual(disc, case.material, data, variant, sol)

    def no_order(mesh):
        raise AssertionError("the skeleton was ordered after mesh build")

    assert not hasattr(global_system, "dissection")
    monkeypatch.setattr(mesh_module, "dissection", no_order)
    assert flux_residual(disc, case.material, data, variant, sol) == expected
    hybrid, _ = solve_time_harmonic(disc, case.material, data, variant)
    monolithic = solve_monolithic(disc, case.material, data, variant)
    assert np.array_equal(hybrid.u, sol.u)
    assert np.abs(monolithic.u - sol.u).max() < 1e-10 * np.abs(sol.u).max()


def test_skeleton_residual_varcoeff():
    case = make_case("varcoeff", kappa=1.0)
    mesh = tag_boundary(build_structured_cube(2), "mixed")
    disc = Discretization(mesh, 1)
    data = problem_data_from_case(case)
    system = assemble_hybrid(disc, case.material, data, VARIANTS["first_order"])
    uhat = solve_skeleton(system)
    x = uhat[system.skeleton.active].reshape(-1)
    resid = np.linalg.norm(system.matrix @ x - system.rhs)
    assert resid <= 1e-10 * max(np.linalg.norm(system.rhs), 1.0)


def test_impedance_kappa_zero_is_neumann_matrix():
    mesh_imp = tag_boundary(build_structured_cube(1), "impedance")
    mesh_neu = tag_boundary(build_structured_cube(1), "all-neumann")
    mat = make_case("polynomial", kappa=1.0, k=1).material
    data = ProblemData(kappa=0.0)
    variant = VARIANTS["conservative"]
    a = assemble_hybrid(Discretization(mesh_imp, 1), mat, data, variant)
    b = assemble_hybrid(Discretization(mesh_neu, 1), mat, data, variant)
    diff = (a.matrix - b.matrix).toarray()
    assert np.abs(diff).max() < 1e-13 * np.abs(b.matrix.toarray()).max()


def test_impedance_boundary_condition_satisfied():
    # reconstructed flux satisfies sigma_n + i kappa uhat = g_R moments
    case = make_case("pwave", kappa=1.0)
    mesh = tag_boundary(build_structured_cube(2), "impedance")
    disc = Discretization(mesh, 1)
    data = problem_data_from_case(case)
    sol, _ = solve_time_harmonic(disc, case.material, data,
                                 VARIANTS["first_order"])
    assert flux_residual(disc, case.material, data, VARIANTS["first_order"],
                         sol) < 1e-9


def test_hybrid_matches_monolithic_impedance():
    # the condensed and the uncondensed systems impose the impedance
    # condition independently; they must agree on an all-impedance mesh
    case = make_case("pwave", kappa=1.0)
    mesh = tag_boundary(build_structured_cube(1), "impedance")
    disc = Discretization(mesh, 1)
    data = problem_data_from_case(case)
    variant = VARIANTS["first_order"]
    sol, _ = solve_time_harmonic(disc, case.material, data, variant)
    ref = solve_monolithic(disc, case.material, data, variant, form="second")
    scale = np.abs(ref.u).max()
    assert np.abs(sol.u - ref.u).max() < 1e-9 * scale
    assert np.abs(sol.sigma - ref.sigma).max() < 1e-9 * np.abs(ref.sigma).max()
    assert np.abs(sol.uhat - ref.uhat).max() < 1e-9 * scale


def test_impedance_sign_warning():
    # Im(alpha) < 0 against the impedance term: indefinite energy identity
    mesh = tag_boundary(build_structured_cube(1), "impedance")
    disc = Discretization(mesh, 1)
    mat = make_case("pwave", kappa=1.0).material
    data = ProblemData(kappa=1.0)
    with pytest.warns(RuntimeWarning, match="time_reversed"):
        assemble_hybrid(disc, mat, data, VARIANTS["time_reversed"])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for tag in ("first_order", "kappa_scaled", "conservative"):
            assemble_hybrid(disc, mat, data, VARIANTS[tag])


def test_neumann_boundary_condition_satisfied(poly_setup):
    disc, case, data = poly_setup
    sol, _ = solve_time_harmonic(disc, case.material, data,
                                 VARIANTS["first_order"])
    assert flux_residual(disc, case.material, data, VARIANTS["first_order"],
                         sol) < 1e-9


def test_polynomial_exactness_k2():
    from hdg_elastic import compute_errors
    case = make_case("polynomial", kappa=1.0, k=2)
    mesh = tag_boundary(build_structured_cube(1), "all-dirichlet")
    disc = Discretization(mesh, 2)
    sol, _ = solve_time_harmonic(disc, case.material,
                                 problem_data_from_case(case),
                                 VARIANTS["first_order"])
    rep = compute_errors(disc, case.material, case, sol)
    assert rep.rel_err_u < 1e-10
    assert rep.rel_err_sigma < 1e-10


def test_skeleton_dof_advantage_k2():
    mesh = tag_boundary(build_structured_cube(2), "mixed")
    disc = Discretization(mesh, 2)
    case = make_case("polynomial", kappa=1.0, k=2)
    _, info = solve_time_harmonic(disc, case.material,
                                  problem_data_from_case(case),
                                  VARIANTS["first_order"])
    interior = mesh.num_elements * (6 * disc.nV + 3 * disc.nW)
    assert info["dofs_skeleton"] < interior
    all_traces = mesh.num_faces * 3 * disc.nF
    assert info["dofs_total"] == all_traces + interior


def test_solution_io_roundtrip(tmp_path, poly_setup):
    disc, case, data = poly_setup
    sol, _ = solve_time_harmonic(disc, case.material, data,
                                 VARIANTS["first_order"])
    path = tmp_path / "sol.npz"
    save_solution(path, sol, header={"n": 1})
    again = load_solution(path)
    assert np.abs(again.sigma - sol.sigma).max() == 0
    assert np.abs(again.u - sol.u).max() == 0
    assert np.abs(again.uhat - sol.uhat).max() == 0
    assert again.kappa == sol.kappa
    assert again.variant_tag == sol.variant_tag
    assert again.meta["n"] == 1


def test_dirichlet_trace_equals_projected_data(poly_setup):
    disc, case, data = poly_setup
    sol, _ = solve_time_harmonic(disc, case.material, data,
                                 VARIANTS["first_order"])
    for fi, tag in enumerate(disc.mesh.face_tags):
        if tag != BoundaryTag.DIRICHLET:
            continue
        ref = disc.project_face(fi, data.g_d)
        assert np.abs(sol.uhat[fi] - ref).max() < 1e-12 * max(np.abs(ref).max(), 1)


@pytest.mark.parametrize("bc", ["all-neumann", "impedance"])
def test_boundary_data_matches_per_face_quadrature(bc):
    # reference: one face at a time, with the outward normal of the owning
    # element taken from geometry rather than from the stored face signs
    mesh = tag_boundary(build_structured_cube(2), bc)
    disc = Discretization(mesh, 1)
    case = make_case("varcoeff", kappa=1.3)
    data = problem_data_from_case(case)
    g, imp = boundary_data(disc, data)
    g, imp = g.reshape(mesh.num_faces, 3, disc.nF), imp.reshape(mesh.num_faces, -1)
    datum = data.g_n if bc == "all-neumann" else data.g_r
    for fi, (owner, neighbor) in enumerate(mesh.face_elements):
        if neighbor >= 0:
            assert not g[fi].any() and not imp[fi].any()
            continue
        pts = disc.face_points[fi]
        lf = list(mesh.element_faces[owner]).index(fi)
        n = np.broadcast_to(outward_normal(mesh, owner, lf), pts.shape)
        ref = np.einsum("q,qd,ql->dl", disc.face_weights[fi], datum(pts, n), disc.face_chi[fi])
        assert np.abs(g[fi] - ref).max() <= 1e-13 * np.abs(ref).max()
        assert np.all(imp[fi] == (1.3j if bc == "impedance" else 0))


@pytest.mark.parametrize("kappa", [float("nan"), float("inf"), -1.0])
def test_problem_data_rejects_invalid_kappa(kappa):
    with pytest.raises(ValueError, match="kappa"):
        ProblemData(kappa=kappa)


@pytest.mark.parametrize("bc", ["all-neumann", "impedance"])
def test_static_pure_traction_is_rejected(bc):
    # kappa = 0 without a Dirichlet face fixes the displacement only up to a
    # rigid motion; impedance faces are traction faces at kappa = 0
    case = make_case("polynomial", kappa=0.0, k=1)
    disc = Discretization(tag_boundary(build_structured_cube(1), bc), 1)
    data = problem_data_from_case(case)
    with pytest.raises(ValueError, match="pure-traction"):
        solve_time_harmonic(disc, case.material, data, VARIANTS["conservative"])
    with pytest.raises(ValueError, match="pure-traction"):
        solve_monolithic(disc, case.material, data, VARIANTS["conservative"])


@pytest.mark.parametrize("tag", ["first_order", "time_reversed", "kappa_scaled"])
def test_singular_monolithic_system_is_reported(tag):
    # alpha(0) = 0 for these variants: at kappa = 0 the uncondensed matrix is
    # exactly singular, as the local solvers of the skeleton solve are
    case = make_case("polynomial", kappa=0.0, k=1)
    disc = Discretization(tag_boundary(build_structured_cube(1), "mixed"), 1)
    data = problem_data_from_case(case)
    with pytest.raises(SingularSystemError, match="singular"):
        solve_monolithic(disc, case.material, data, VARIANTS[tag])


def test_monolithic_factor_failure_is_reported(poly_setup, monkeypatch):
    def singular_factor(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    disc, case, data = poly_setup
    monkeypatch.setattr(global_system.spla, "splu", singular_factor)
    with pytest.raises(SingularSystemError, match="monolithic solve failed"):
        solve_monolithic(disc, case.material, data, VARIANTS["conservative"])


def test_monolithic_factor_reports_less_fill_than_colamd():
    # the oracle's factor, in its element-then-dissection order, against
    # COLAMD with partial pivoting on the same matrix
    case = make_case("polynomial", kappa=1.0, k=2)
    disc = Discretization(tag_boundary(build_structured_cube(2), "mixed"), 2)
    data = problem_data_from_case(case)
    variant = VARIANTS["conservative"]
    sol = solve_monolithic(disc, case.material, data, variant)
    mat, rhs, layout = global_system.assemble_monolithic(disc, case.material, data, variant)
    colamd = spla.splu(mat.tocsc(), permc_spec="COLAMD")
    x = colamd.solve(rhs)
    assert isinstance(sol.meta["factor_s"], float)
    assert sol.meta["lu_fill"] < colamd.nnz
    assert sol.meta["residual"] < 1e-12
    nS, nW3, nFd, off_s, off_u, off_m, ndof = layout
    for field, ref in ((sol.sigma, x[off_s:off_u]), (sol.u, x[off_u:off_m]),
                       (sol.uhat, x[off_m:])):
        assert np.abs(field.ravel() - ref).max() < 1e-10 * np.abs(ref).max()


# factors and solves the exactly singular kappa = 0 first_order matrix
# through the oracle's factor path, bypassing solve_monolithic's pre-check
SINGULAR_SCRIPT = r"""
from hdg_elastic import (VARIANTS, Discretization, SingularSystemError,
                         build_structured_cube, make_case, tag_boundary)
from hdg_elastic import global_system
from hdg_elastic.errors import problem_data_from_case

case = make_case("polynomial", kappa=0.0, k=1)
disc = Discretization(tag_boundary(build_structured_cube(1), "mixed"), 1)
mat, rhs, _ = global_system.assemble_monolithic(
    disc, case.material, problem_data_from_case(case), VARIANTS["first_order"])
refused = 0
for _ in range(50):
    try:
        global_system.direct_solve(mat.tocsc(), rhs, "monolithic solve")
    except SingularSystemError:
        refused += 1
print(refused)
"""


def test_singular_monolithic_factor_is_refused_without_crashing():
    # SuperLU's COLAMD factor of this matrix corrupted the heap within a few
    # calls; the diagonal-pivot factor finishes on a tiny pivot and the
    # residual check refuses every solve, in a process that exits cleanly
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", SINGULAR_SCRIPT],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == ["50"]


def test_skeleton_map_follows_dissection_order():
    mesh = tag_boundary(build_structured_cube(2), "mixed")
    skel = SkeletonMap(mesh, 9)
    rank = np.argsort(dissection(mesh)[0])
    assert np.all(np.diff(rank[skel.active]) > 0)
    free = np.flatnonzero(mesh.face_tags != BoundaryTag.DIRICHLET)
    np.testing.assert_array_equal(np.sort(skel.active), free)
    np.testing.assert_array_equal(skel.dofs.reshape(-1, 9) // 9,
                                  np.repeat(skel.active[:, None], 9, axis=1))


def _all_faces_skeleton_system(disc, material, data, variant):
    """The skeleton system built over all trace dofs: scatter every element's
    condensed block, lift the Dirichlet traces through the global matrix,
    restrict to the non-Dirichlet faces in ascending order, then permute
    those faces into the dissection order."""
    mesh = disc.mesh
    ne, nFd = mesh.num_elements, 3 * disc.nF
    S, loads = [], []
    for batch in element_batches(ne, block_bytes(disc)):
        f = load_moments(disc, batch, data.f)
        Sb, lb = condense_batch(element_blocks(disc, material, batch), data.kappa ** 2,
                                variant.alpha(data.kappa), f)[:2]
        S.append(Sb)
        loads.append(lb)
    S, loads = np.concatenate(S), np.concatenate(loads)
    g, imp = boundary_data(disc, data)
    dofs = trace_dofs(mesh, nFd).reshape(ne, -1)
    rows = np.broadcast_to(dofs[:, :, None], S.shape).ravel()
    cols = np.broadcast_to(dofs[:, None, :], S.shape).ravel()
    full = sps.csr_matrix((S.ravel(), (rows, cols)), shape=(g.size, g.size))
    if np.any(mesh.face_tags == BoundaryTag.IMPEDANCE):
        full = full + sps.diags(imp)
    rhs = g - full @ solve_dirichlet_trace(disc, data.g_d).ravel()
    np.add.at(rhs, dofs, loads)
    active = np.flatnonzero(mesh.face_tags != BoundaryTag.DIRICHLET)
    kept = (active[:, None] * nFd + np.arange(nFd)).ravel()
    order = dissection(mesh)[0]
    faces = np.searchsorted(active, order[np.isin(order, active)])
    perm = (faces[:, None] * nFd + np.arange(nFd)).ravel()
    return full[kept][:, kept][perm][:, perm], rhs[kept][perm]


@pytest.mark.parametrize("name,bc,variant", [
    ("varcoeff", "mixed", "conservative"),
    ("varcoeff", "mixed", "first_order"),
    ("pwave", "impedance", "conservative"),
])
def test_skeleton_system_matches_all_faces_construction(name, bc, variant):
    case = make_case(name, kappa=1.3)
    disc = Discretization(tag_boundary(build_structured_cube(2), bc), 1)
    data = problem_data_from_case(case)
    system = assemble_hybrid(disc, case.material, data, VARIANTS[variant])
    matrix, rhs = _all_faces_skeleton_system(disc, case.material, data, VARIANTS[variant])
    assert system.matrix.format == "csc"
    assert system.matrix.dtype == matrix.dtype
    assert system.matrix.nnz == matrix.nnz
    assert (system.matrix != matrix).nnz == 0
    assert np.abs(system.rhs - rhs).max() <= 1e-13 * np.abs(rhs).max()


def test_real_front_factor_solves_complex_right_side():
    # the real and imaginary parts are solved apart; none is dropped
    case = make_case("varcoeff", kappa=1.3)
    disc = Discretization(tag_boundary(build_structured_cube(2), "mixed"), 1)
    system = assemble_hybrid(disc, case.material, problem_data_from_case(case),
                             VARIANTS["conservative"])
    lu = global_system.FrontFactor(disc.mesh, system.skeleton, system.blocks)
    assert lu.dtype == np.float64
    rng = np.random.default_rng(3)
    b = rng.standard_normal(system.skeleton.ndof) + 1j * rng.standard_normal(system.skeleton.ndof)
    x = lu.solve(b)
    assert x.dtype == np.complex128
    assert np.linalg.norm(system.matrix @ x - b) < 1e-12 * np.linalg.norm(b)
