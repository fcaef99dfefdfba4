"""L2 error norms, convergence orders and the error energy identity.

Errors are integrated with the quadrature of the solve's own
Discretization, whose default exactness is 2(k+1)+2 = 2(k+2).
"""

import math
from dataclasses import dataclass

import numpy as np

from .discretization import Discretization
from .global_system import ProblemData, solve_time_harmonic
from .local_ops import VARIANTS, block_bytes, element_batches, element_blocks
# unused here; perfbench/tracing.py wraps it through this module's binding
from .local_ops import assemble_local_blocks  # noqa: F401
from .materials import FROBENIUS_WEIGHTS, SYM_MATS, pack_sym
from .mesh import BoundaryTag, build_structured_cube, tag_boundary


@dataclass(frozen=True)
class ErrorReport:
    k: int
    h: float
    kappa: float
    err_u: float
    err_sigma: float
    rel_err_u: float
    rel_err_sigma: float
    err_trace: float   # tau-weighted skeleton error ||P_M u - u_hat||_tau


def compute_errors(disc, material, case, solution):
    """L2 errors of displacement and stress plus the skeleton trace error."""
    mesh = disc.mesh
    # about 80 doubles per quadrature point: exact and discrete fields, their
    # differences and the basis values
    point_bytes = 8 * (80 + disc.nV + disc.nW)
    sums = np.zeros(4)   # squared err_u, norm_u, err_sigma, norm_sigma
    for batch in element_batches(mesh.num_elements,
                                 point_bytes * len(disc.vol_rule.weights)):
        pts, wts = disc.element_points(batch), disc.element_weights(batch)
        phi, psi = disc.scalar_basis(batch, "V"), disc.scalar_basis(batch, "W")
        u_ex = case.u(pts)
        u_h = np.einsum("bdj,bqj->bqd", solution.u[batch], psi)
        s_ex = pack_sym(case.sigma(pts))
        s_h = np.einsum("bci,bqi->bqc", solution.sigma[batch], phi)
        sums += [np.sum(wts * np.sum(np.abs(u_ex - u_h) ** 2, axis=-1)),
                 np.sum(wts * np.sum(np.abs(u_ex) ** 2, axis=-1)),
                 np.sum(wts * (np.abs(s_ex - s_h) ** 2 @ FROBENIUS_WEIGHTS)),
                 np.sum(wts * (np.abs(s_ex) ** 2 @ FROBENIUS_WEIGHTS))]
    # every face is projected once; each element weights its four faces by tau_K
    pm = disc.project_face(np.arange(mesh.num_faces), case.u)
    face_err = np.sum(np.abs(pm - solution.uhat) ** 2, axis=(1, 2))
    tau = disc.tau(np.arange(mesh.num_elements))
    err_tr = np.sum(tau * face_err[mesh.element_faces].sum(axis=1))
    err_u, norm_u, err_s, norm_s = np.sqrt(sums)
    return ErrorReport(disc.k, float(disc.h.max()), case.kappa, float(err_u),
                       float(err_s), float(err_u / norm_u), float(err_s / norm_s),
                       math.sqrt(err_tr))


def eoc(errors, hs):
    """Per-level estimated orders log(e_c/e_f)/log(h_c/h_f); first entry None.

    Levels with a vanishing fine-level error are flagged as saturated (nan);
    any other level whose mesh size equals the previous one raises ValueError."""
    if len(errors) != len(hs):
        raise ValueError("errors and mesh sizes must have equal length")
    out = [None]
    for i in range(1, len(errors)):
        if errors[i] <= 0 or errors[i - 1] <= 0:
            out.append(float("nan"))
        elif hs[i] == hs[i - 1]:
            raise ValueError(f"levels {i - 1} and {i} have the same mesh size {hs[i]}")
        else:
            out.append(math.log(errors[i - 1] / errors[i]) / math.log(hs[i - 1] / hs[i]))
    return out


# ---- error energy identity (first-order variables) ----


def energy_identity_sides(disc, material, case, solution):
    """Both sides of the discrete error energy identity.

    Stated for the first-order stress sigma = (i/kappa) sigma-tilde: with
    projection errors eps = (projection - exact) and discrete errors
    e = (projection - discrete),

      LHS = i k (||e_s||_A^2 - ||e_u||_rho^2) + ||P_M e_u - e_mhat||_tau^2
            + ||e_mhat||^2 on the impedance boundary
      RHS = i k ((A eps_s, conj e_s) - (rho conj eps_u, e_u))
            + <conj(eps_s) n, e_u - e_mhat> + <tau conj(eps_u), P_M e_u - e_mhat>

    All terms are evaluated with the quadrature of the discretization used
    for the solve, so the identity holds to roundoff once the quadrature
    resolves the exact fields. A, M, G and tau come from element_blocks."""
    mesh = disc.mesh
    kappa, sigma_fo = case.kappa, case.first_order_stress
    at = lambda coeffs, table: np.einsum("bci,b...i->b...c", coeffs, table)
    # exact traces at the face quadrature points and e_mhat, once per face
    u_face = case.u(disc.face_points)
    s_face = pack_sym(sigma_fo(disc.face_points))
    e_mhat = np.einsum("fq,fqd,fql->fdl", disc.face_weights, u_face, disc.face_chi) \
        - solution.uhat
    lhs = np.sum(np.abs(e_mhat[mesh.face_tags == BoundaryTag.IMPEDANCE]) ** 2) + 0.0j
    rhs = 0.0
    # doubles per volume and face point: exact, projected and discrete fields
    # with their errors, the pointwise compliance, temporaries, basis values
    point_bytes = 8 * (len(disc.vol_rule.weights) * (250 + disc.nV + disc.nW)
                       + 4 * disc.face_weights.shape[1] * (100 + disc.nV + disc.nW + disc.nF))
    for batch in element_batches(mesh.num_elements, point_bytes + block_bytes(disc)):
        b = element_blocks(disc, material, batch)
        pts, wts = disc.element_points(batch), disc.element_weights(batch)
        phi, psi = disc.scalar_basis(batch, "V"), disc.scalar_basis(batch, "W")
        s_ex, u_ex = pack_sym(sigma_fo(pts)), case.u(pts)
        proj_s = np.einsum("bq,bqc,bqi->bci", wts, s_ex, phi)
        proj_u = np.einsum("bq,bqd,bqj->bdj", wts, u_ex, psi)
        e_s = proj_s - (1j / kappa) * solution.sigma[batch]
        e_u = proj_u - solution.u[batch]
        es, eu = e_s.reshape(len(batch), -1, 1), e_u.reshape(len(batch), -1, 1)
        lhs += 1j * kappa * (np.vdot(es, b.A @ es) - np.vdot(eu, b.M @ eu))
        rhs += 1j * kappa * (
            np.einsum("bq,c,bqcd,bqd,bqc->", wts, FROBENIUS_WEIGHTS,
                      material.compliance_packed(pts), at(proj_s, phi) - s_ex,
                      np.conj(at(e_s, phi)), optimize=True)
            - np.einsum("bq,bqd,bqd->", wts * material.rho(pts),
                        np.conj(at(proj_u, psi) - u_ex), at(e_u, psi)))

        faces = mesh.element_faces[batch]                           # (nb, 4)
        phi_f, psi_f, normals = disc.element_face_tables(batch[:, None], np.arange(4))
        wf, chi_f = disc.face_weights[faces], disc.face_chi[faces]
        face_at = lambda coeffs: np.einsum("bfdl,bfql->bfqd", coeffs, chi_f)
        jump = (b.G @ eu[:, None]).reshape(len(batch), 4, 3, -1) - e_mhat[faces]
        lhs += np.sum(b.tau * np.sum(np.abs(jump) ** 2, axis=(1, 2, 3)))
        trac = np.einsum("bfqc,cde,bfe->bfqd", np.conj(at(proj_s, phi_f) - s_face[faces]),
                         SYM_MATS, normals)
        rhs += np.einsum("bfq,bfqd,bfqd->", wf, trac, at(e_u, psi_f) - face_at(e_mhat[faces]))
        rhs += np.einsum("b,bfq,bfqd,bfqd->", b.tau, wf,
                         np.conj(at(proj_u, psi_f) - u_face[faces]), face_at(jump))
    return lhs, rhs


def problem_data_from_case(case):
    """ProblemData drawing all load and boundary data from an exact case."""
    return ProblemData(kappa=case.kappa, f=case.f, g_d=case.g_d,
                       g_n=case.g_n, g_r=case.g_r)


def run_energy_identity_check(n=2, k=1, kappa=1.0, exactness=20):
    """Solve the variable-coefficient case and evaluate the identity.

    Returns (lhs, rhs, relative difference). The elevated quadrature
    exactness makes the integration of the smooth exact fields effectively
    exact, which the identity requires."""
    from .cases import make_case
    from .materials import variable_preset
    case = make_case("varcoeff", kappa=kappa)
    mesh = tag_boundary(build_structured_cube(n), "mixed")
    disc = Discretization(mesh, k, exactness=exactness)
    material = variable_preset()
    solution, _ = solve_time_harmonic(disc, material, problem_data_from_case(case),
                                      VARIANTS["first_order"])
    lhs, rhs = energy_identity_sides(disc, material, case, solution)
    return lhs, rhs, abs(lhs - rhs) / max(abs(lhs), abs(rhs))
