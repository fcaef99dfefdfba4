"""A problem takes one dtype, np.result_type(alpha, impedance term, data):
the conservative flux (alpha = 1) at real kappa without impedance faces and
with real data runs in real arithmetic from the data to the solution
(float64 local solvers, skeleton matrix, right side and fields), and any
complex datum makes the system and solution complex. Checked against the
monolithic solve and against the complex per-element LU reference
(factorize_local, condense, recover)."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sps
import scipy.sparse.linalg as spla

from hdg_elastic import (VARIANTS, Discretization, assemble_hybrid, assemble_monolithic,
                         build_structured_cube, make_case, solve_monolithic,
                         solve_time_harmonic, tag_boundary)
from hdg_elastic.errors import problem_data_from_case
from hdg_elastic.global_system import (SkeletonMap, boundary_data, flux_residual,
                                       load_moments, solve_dirichlet_trace, trace_dofs)
from hdg_elastic.local_ops import assemble_local_blocks, condense, factorize_local, recover

CONSERVATIVE = VARIANTS["conservative"]


def rel(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


@pytest.fixture(scope="module", params=[1, 2])
def mixed2(request):
    mesh = tag_boundary(build_structured_cube(2), "mixed")
    case = make_case("varcoeff", kappa=1.3)
    return Discretization(mesh, request.param), case, problem_data_from_case(case)


def per_element_solve(disc, material, data, variant):
    """Hybrid solve through the complex LU factors of each local matrix C:
    condense per element, a complex sparse skeleton solve, recover per element.
    Returns (sigma, u, uhat) shaped as in SolutionFields."""
    mesh = disc.mesh
    ne, nFd = mesh.num_elements, 3 * disc.nF
    facts = [factorize_local(assemble_local_blocks(disc, material, e), data.kappa, variant)
             for e in range(ne)]
    f = load_moments(disc, np.arange(ne), data.f)
    condensed = [condense(fact) for fact in facts]
    S = np.array([s for s, _ in condensed])
    dofs = trace_dofs(mesh, nFd).reshape(ne, -1)
    rows = np.broadcast_to(dofs[:, :, None], S.shape).ravel()
    cols = np.broadcast_to(dofs[:, None, :], S.shape).ravel()
    g, imp = boundary_data(disc, data)
    full = sps.coo_matrix((S.ravel(), (rows, cols)), shape=(g.size, g.size)).tocsr()
    full = full + sps.diags(imp)
    fixed = solve_dirichlet_trace(disc, data.g_d).ravel()
    rhs = g - full @ fixed
    np.add.at(rhs, dofs, [load_map @ fe for (_, load_map), fe in zip(condensed, f)])
    active = SkeletonMap(mesh, nFd).dofs
    m = fixed.astype(complex)   # the reference solves in complex arithmetic
    m[active] = spla.spsolve(full[active][:, active].tocsc(), rhs[active])
    m = m.reshape(mesh.num_faces, -1)
    parts = [recover(fact, m[mesh.element_faces[e]].ravel(), f[e])
             for e, fact in enumerate(facts)]
    return (np.array([s for s, _ in parts]), np.array([u for _, u in parts]),
            m.reshape(mesh.num_faces, 3, disc.nF))


def assert_matches_monolithic(disc, case, data, tol=1e-9):
    """Returns the hybrid solution after comparing it with the monolithic one."""
    sol, _ = solve_time_harmonic(disc, case.material, data, CONSERVATIVE)
    ref = solve_monolithic(disc, case.material, data, CONSERVATIVE, form="second")
    for name in ("sigma", "u", "uhat"):
        assert getattr(sol, name).dtype == getattr(ref, name).dtype, name
        assert rel(getattr(sol, name), getattr(ref, name)) < tol, name
    return sol


def test_conservative_system_is_real(mixed2):
    disc, case, data = mixed2
    system = assemble_hybrid(disc, case.material, data, CONSERVATIVE)
    assert system.matrix.dtype == np.float64
    assert system.solvers.dtype == np.float64
    assert system.rhs.dtype == system.interior.dtype == np.float64
    assert system.dirichlet_values.dtype == np.float64
    first = assemble_hybrid(disc, case.material, data, VARIANTS["first_order"])
    assert first.matrix.dtype == first.solvers.dtype == np.complex128


def test_real_path_matches_monolithic(mixed2):
    assert_matches_monolithic(*mixed2)


def test_real_path_matches_complex_per_element_reference(mixed2):
    disc, case, data = mixed2
    sol, _ = solve_time_harmonic(disc, case.material, data, CONSERVATIVE)
    assert sol.sigma.dtype == sol.u.dtype == sol.uhat.dtype == np.float64
    sigma, u, uhat = per_element_solve(disc, case.material, data, CONSERVATIVE)
    assert rel(sol.sigma, sigma) < 1e-12
    assert rel(sol.u, u) < 1e-12
    assert rel(sol.uhat, uhat) < 1e-12


def test_plane_wave_complex_data_make_the_system_complex():
    # real alpha, no impedance face, genuinely complex data: the skeleton
    # matrix, its right side and the solution are complex
    case = make_case("pwave", kappa=1.0)
    disc = Discretization(tag_boundary(build_structured_cube(2), "mixed"), 1)
    data = problem_data_from_case(case)
    system = assemble_hybrid(disc, case.material, data, CONSERVATIVE)
    assert system.matrix.dtype == system.rhs.dtype == np.complex128
    assert system.solvers.dtype == np.float64
    assert np.abs(system.rhs.imag).max() > 0.1 * np.abs(system.rhs.real).max()
    sol = assert_matches_monolithic(disc, case, data)
    assert sol.sigma.dtype == sol.u.dtype == sol.uhat.dtype == np.complex128


@pytest.mark.parametrize("datum", ["f", "g_d", "g_n"])
def test_one_complex_datum_makes_the_problem_complex(datum):
    # the real varcoeff data with one datum made complex; the others stay real
    case = make_case("varcoeff", kappa=1.3)
    disc = Discretization(tag_boundary(build_structured_cube(2), "mixed"), 1)
    data = problem_data_from_case(case)
    real = getattr(data, datum)
    data = replace(data, **{datum: lambda *args: (1 + 0.5j) * real(*args)})
    system = assemble_hybrid(disc, case.material, data, CONSERVATIVE)
    assert system.matrix.dtype == system.rhs.dtype == np.complex128
    sol = assert_matches_monolithic(disc, case, data)
    assert sol.sigma.dtype == sol.u.dtype == sol.uhat.dtype == np.complex128
    assert np.abs(sol.u.imag).max() > 1e-3 * np.abs(sol.u.real).max()


def test_real_data_keep_the_flux_residual_real(mixed2):
    disc, case, data = mixed2
    g, imp = boundary_data(disc, data)
    assert g.dtype == imp.dtype == np.float64
    sol, _ = solve_time_harmonic(disc, case.material, data, CONSERVATIVE)
    assert sol.sigma.dtype == sol.u.dtype == sol.uhat.dtype == np.float64
    assert flux_residual(disc, case.material, data, CONSERVATIVE, sol) < 1e-9


def test_impedance_faces_make_the_matrix_complex():
    case = make_case("pwave", kappa=1.0)
    disc = Discretization(tag_boundary(build_structured_cube(2), "impedance"), 1)
    data = problem_data_from_case(case)
    system = assemble_hybrid(disc, case.material, data, CONSERVATIVE)
    assert system.matrix.dtype == np.complex128
    assert system.solvers.dtype == np.float64
    assert_matches_monolithic(disc, case, data)


def test_conservative_monolithic_oracle_is_real():
    # the uncondensed oracle takes the dtype the hybrid system takes: float64
    # for the real varcoeff data, complex for the plane wave's data
    disc = Discretization(tag_boundary(build_structured_cube(2), "mixed"), 1)
    for name, dtype in (("varcoeff", np.float64), ("pwave", np.complex128)):
        case = make_case(name, kappa=1.0)
        data = problem_data_from_case(case)
        mat, rhs, _ = assemble_monolithic(disc, case.material, data, CONSERVATIVE)
        assert mat.dtype == rhs.dtype == dtype
        x = spla.spsolve(mat.tocsc(), rhs)
        sol = solve_monolithic(disc, case.material, data, CONSERVATIVE)
        fields = np.concatenate([sol.sigma.ravel(), sol.u.ravel(), sol.uhat.ravel()])
        assert fields.dtype == dtype
        assert rel(fields, x) < 1e-12
    for variant, form in ((VARIANTS["first_order"], "second"), (None, "first")):
        assert assemble_monolithic(disc, case.material, data, variant,
                                   form)[0].dtype == np.complex128
    impedance = Discretization(tag_boundary(build_structured_cube(1), "impedance"), 1)
    assert assemble_monolithic(impedance, case.material, data,
                               CONSERVATIVE)[0].dtype == np.complex128
