"""L2 error norms, convergence orders and the error energy identity.

Errors are integrated with the quadrature of the solve's own
Discretization, whose default exactness is 2(k+1)+2 = 2(k+2).
"""

import math
from dataclasses import dataclass

import numpy as np

from .discretization import Discretization, _rmul, moments
from .global_system import ProblemData, solve_time_harmonic
from .local_ops import VARIANTS, element_batches
# unused here; perfbench/tracing.py wraps it through this module's binding
from .local_ops import assemble_local_blocks  # noqa: F401
from .materials import FROBENIUS_WEIGHTS, SYM_MATS
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
    """L2 errors of displacement and packed stress plus the skeleton trace error."""
    mesh = disc.mesh
    # about 80 doubles per quadrature point: exact and discrete fields, their
    # differences and the basis values
    point_bytes = 8 * (80 + disc.nV + disc.nW)
    sums = np.zeros(4)   # squared err_u, norm_u, err_sigma, norm_sigma
    for batch in element_batches(mesh.num_elements,
                                 point_bytes * len(disc.vol_rule.weights)):
        pts, wts = disc.element_points(batch), disc.element_weights(batch)
        phi, psi = disc.scalar_basis(batch, "V"), disc.scalar_basis(batch, "W")
        u_ex, s_ex = case.u_sigma(pts)
        u_h = _rmul(psi, np.swapaxes(solution.u[batch], 1, 2))
        s_h = _rmul(phi, np.swapaxes(solution.sigma[batch], 1, 2))
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


def compliance_dual(lam, mu, w):
    """The packed a with (A v, w)_F = v . a at each point, for packed values w
    (..., 6) of a symmetric field and the Lame moduli there: the isotropic
    (A v, w)_F = (v, w)_F / (2 mu) + (1/(2 mu + 3 lam) - 1/(2 mu)) tr v tr w / 3."""
    inv_2mu = 1.0 / (2.0 * mu)
    a = w * FROBENIUS_WEIGHTS * inv_2mu[..., None]
    vol = (1.0 / (2.0 * mu + 3.0 * lam) - inv_2mu) / 3.0
    a[..., :3] += (vol * w[..., :3].sum(axis=-1))[..., None]
    return a


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
    resolves the exact fields. Every term comes from the fields' values at the
    quadrature points, with no element block: the A-forms through compliance_dual
    and P_M e_u as the face moments of e_u; the exact stress comes packed. Coefficients
    are kept basis index first, (..., n, components), so that point values and
    moments are stacked matmuls with the real basis tables."""
    mesh = disc.mesh
    kappa, fields = case.kappa, case.first_order_fields
    # exact traces at the face quadrature points and e_mhat, once per face
    u_face, s_face = fields(disc.face_points)
    e_mhat = moments(disc.face_weights, u_face, disc.face_chi) - np.swapaxes(solution.uhat, 1, 2)
    # ||e_mhat||^2 on the impedance boundary, a term of the left side only
    boundary = np.array([np.sum(np.abs(e_mhat[mesh.face_tags == BoundaryTag.IMPEDANCE]) ** 2), 0])
    # doubles per volume and face point: exact, projected and discrete fields
    # with their errors, the moduli, temporaries, basis values
    point_bytes = 8 * (len(disc.vol_rule.weights) * (250 + disc.nV + disc.nW)
                       + 4 * disc.face_weights.shape[1] * (100 + disc.nV + disc.nW + disc.nF))

    def batch_sides(batch):
        # a function, so that a batch's point values are freed before the next
        pts, wts = disc.element_points(batch), disc.element_weights(batch)
        phi, psi = disc.scalar_basis(batch, "V"), disc.scalar_basis(batch, "W")
        u_ex, s_ex = fields(pts)
        proj_s, proj_u = moments(wts, s_ex, phi), moments(wts, u_ex, psi)
        e_s = proj_s - (1j / kappa) * np.swapaxes(solution.sigma[batch], 1, 2)
        e_u = proj_u - np.swapaxes(solution.u[batch], 1, 2)
        # eps and e at the volume points, (nb, nq, 6) and (nb, nq, 3)
        u_coeffs = np.stack([proj_u, e_u])
        eps_s, es = _rmul(phi, np.stack([proj_s, e_s]))
        eps_u, eu = _rmul(psi, u_coeffs)
        eps_s -= s_ex
        eps_u -= u_ex
        a_es = compliance_dual(material.lam(pts), material.mu(pts), wts[..., None] * es)
        rho_eu = (wts * material.rho(pts))[..., None] * eu
        lhs = 1j * kappa * (np.vdot(a_es, es) - np.vdot(rho_eu, eu))
        rhs = 1j * kappa * (np.vdot(a_es, eps_s) - np.vdot(eps_u, rho_eu))

        # the same at the face points, (nb, 4, nqf, 3); face moments (nb, 4, nF, 3)
        faces, tau = mesh.element_faces[batch], disc.tau(batch)
        phi_f, psi_f, normals = disc.element_face_tables(batch[:, None], np.arange(4))
        wf, chi_f = disc.face_weights[faces], disc.face_chi[faces]
        eps_uf, euf = _rmul(psi_f, u_coeffs[:, :, None])
        eps_uf -= u_face[faces]
        jump = moments(wf, euf, chi_f) - e_mhat[faces]             # P_M e_u - e_mhat
        lhs += np.sum(tau * np.sum(np.abs(jump) ** 2, axis=(1, 2, 3)))
        mhat_f, jump_f = _rmul(chi_f, np.stack([e_mhat[faces], jump]))
        # eps_s n, with E_c n for each packed component c: (nb, 4, 6, 3)
        en = (SYM_MATS.reshape(18, 3) @ normals[..., None]).reshape(len(batch), 4, 6, 3)
        eps_sn = (_rmul(phi_f, proj_s[:, None]) - s_face[faces]) @ en
        rhs += np.vdot(eps_sn, wf[..., None] * (euf - mhat_f))
        rhs += np.vdot(eps_uf, (tau[:, None, None] * wf)[..., None] * jump_f)
        return np.array([lhs, rhs])

    lhs, rhs = boundary + sum(batch_sides(batch)
                              for batch in element_batches(mesh.num_elements, point_bytes))
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
