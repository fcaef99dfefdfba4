"""L2 error norms, convergence orders and the error energy identity.

Error integration uses a quadrature rule of exactness at least 2(k+2),
one degree family above the assembly default, so measured orders are not
polluted by the error quadrature itself.
"""

import math
from dataclasses import dataclass

import numpy as np

from .discretization import Discretization
from .global_system import ProblemData, solve_time_harmonic
from .local_ops import VARIANTS, assemble_local_blocks, element_batches
from .materials import FROBENIUS_WEIGHTS, SYM_MATS, pack_sym
from .mesh import build_structured_cube, tag_boundary


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


def _error_disc(disc):
    exact = max(2 * (disc.k + 2), disc.exactness)
    if exact == disc.exactness:
        return disc
    return Discretization(disc.mesh, disc.k, exactness=exact)


def compute_errors(disc, material, case, solution):
    """L2 errors of displacement and stress plus the skeleton trace error."""
    edisc = _error_disc(disc)
    mesh = disc.mesh
    # about 80 doubles per quadrature point: exact and discrete fields, their
    # differences and the basis values
    point_bytes = 8 * (80 + edisc.nV + edisc.nW)
    sums = np.zeros(4)   # squared err_u, norm_u, err_sigma, norm_sigma
    for batch in element_batches(mesh.num_elements,
                                 point_bytes * len(edisc.vol_rule.weights)):
        pts, wts = edisc.element_points(batch), edisc.element_weights(batch)
        phi, _ = edisc.scalar_basis(batch, "V")
        psi, _ = edisc.scalar_basis(batch, "W")
        u_ex = case.u(pts)
        u_h = np.einsum("bdj,bqj->bqd", solution.u[batch], psi)
        s_ex = pack_sym(case.sigma(pts))
        s_h = np.einsum("bci,bqi->bqc", solution.sigma[batch], phi)
        sums += [np.sum(wts * np.sum(np.abs(u_ex - u_h) ** 2, axis=-1)),
                 np.sum(wts * np.sum(np.abs(u_ex) ** 2, axis=-1)),
                 np.sum(wts * (np.abs(s_ex - s_h) ** 2 @ FROBENIUS_WEIGHTS)),
                 np.sum(wts * (np.abs(s_ex) ** 2 @ FROBENIUS_WEIGHTS))]
    # every face is projected once; each element weights its four faces by tau_K
    pm = edisc.project_face(np.arange(mesh.num_faces), case.u)
    face_err = np.sum(np.abs(pm - solution.uhat) ** 2, axis=(1, 2))
    tau = edisc.tau(np.arange(mesh.num_elements))
    err_tr = np.sum(tau * face_err[mesh.element_faces].sum(axis=1))
    err_u, norm_u, err_s, norm_s = np.sqrt(sums)
    return ErrorReport(disc.k, float(disc.h.max()), case.kappa, float(err_u),
                       float(err_s), float(err_u / norm_u), float(err_s / norm_s),
                       math.sqrt(err_tr))


def eoc(errors, hs):
    """Per-level estimated orders log(e_c/e_f)/log(h_c/h_f); first entry None.

    Levels with a vanishing fine-level error are flagged as saturated (nan)."""
    if len(errors) != len(hs):
        raise ValueError("errors and mesh sizes must have equal length")
    out = [None]
    for i in range(1, len(errors)):
        if errors[i] <= 0 or errors[i - 1] <= 0:
            out.append(float("nan"))
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
      RHS = i k ((A eps_s, conj e_s) - (rho conj eps_u, e_u))
            + <conj(eps_s) n, e_u - e_mhat> + <tau conj(eps_u), P_M e_u - e_mhat>

    All terms are evaluated with the quadrature of the discretization used
    for the solve, so the identity holds to roundoff once the quadrature
    resolves the exact fields."""
    mesh = disc.mesh
    kappa = case.kappa
    sigma_fo = case.first_order_stress
    lhs = 0.0 + 0.0j
    rhs = 0.0 + 0.0j
    for e in range(mesh.num_elements):
        b = assemble_local_blocks(disc, material, e)
        proj_s = disc.project_v(e, sigma_fo)
        proj_u = disc.project_w(e, case.u)
        e_s = proj_s - (1j / kappa) * solution.sigma[e]
        e_u = proj_u - solution.u[e]
        lhs += 1j * kappa * (np.vdot(e_s.ravel(), b.A @ e_s.ravel())
                             - np.vdot(e_u.ravel(), b.M @ e_u.ravel()))
        pts, wts = disc.element_points(e), disc.element_weights(e)
        eps_s = disc.eval_v_packed(e, proj_s, pts) - pack_sym(sigma_fo(pts))
        eps_u = disc.eval_w(e, proj_u, pts) - case.u(pts)
        e_s_val = disc.eval_v_packed(e, e_s, pts)
        e_u_val = disc.eval_w(e, e_u, pts)
        a6 = material.compliance_packed(pts)
        rho = material.rho(pts)
        rhs += 1j * kappa * (
            np.sum(wts * np.einsum("c,qcd,qd,qc->q", FROBENIUS_WEIGHTS, a6,
                                   eps_s, np.conj(e_s_val), optimize=True))
            - np.sum(wts * rho * np.sum(np.conj(eps_u) * e_u_val, axis=-1)))
        tau = disc.tau(e)
        for lf in range(4):
            fi = mesh.element_faces[e, lf]
            fd = disc.face_data(fi)
            n = mesh.element_face_signs[e, lf] * mesh.faces[fi].normal
            en = np.einsum("cde,e->cd", SYM_MATS, n)
            pm_u = disc.project_face(fi, case.u)
            e_mhat = pm_u - solution.uhat[fi]
            lhs += tau * np.sum(np.abs(b.G[lf] @ e_u.ravel() - e_mhat.ravel()) ** 2)
            eps_s_f = disc.eval_v_packed(e, proj_s, fd.points) \
                - pack_sym(sigma_fo(fd.points))
            eps_u_f = disc.eval_w(e, proj_u, fd.points) - case.u(fd.points)
            e_u_f = disc.eval_w(e, e_u, fd.points)
            e_mhat_f = disc.eval_face(fi, e_mhat, fd.points)
            pm_e_u_f = disc.eval_face(fi, (b.G[lf] @ e_u.ravel()).reshape(3, -1),
                                      fd.points)
            trac = np.conj(eps_s_f) @ en    # (nq, 3): conj(eps_s) n
            rhs += np.sum(fd.weights * np.sum(trac * (e_u_f - e_mhat_f), axis=-1))
            rhs += tau * np.sum(fd.weights *
                                np.sum(np.conj(eps_u_f) * (pm_e_u_f - e_mhat_f),
                                       axis=-1))
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
