"""Semidiscrete transient elastodynamics on the hybrid spaces.

Global unknowns (homogeneous Dirichlet data, unforced): stress coefficients
s, displacement u with velocity v = u', and skeleton traces m on
non-Dirichlet faces. The stress is slaved at all times, A s = N^T m - D^T u,
and with the numerical fluxes
  conservative:  sigma_hat n = sigma n - tau (P_M u - u_hat)
  accumulating:  sigma_hat n = sigma n + tau (P_M u' - u_hat')   (sign = +1)
  dissipative:   sigma_hat n = sigma n - tau (P_M u' - u_hat')   (sign = -1)
the dynamics are
  conservative:  M u'' = D s - T11 u + T12 m,  T12^T u - N s - T22 m = 0,
                 so (s, m) are slaved to u and M u'' = -K u;
  rate fluxes:   M v' = D s + sign (T11 v - T12 m'),
                 T22 m' = T12^T v + sign N s.

The discrete energy is E = 1/2 ||sigma||_A^2 + 1/2 ||v||_rho^2, plus the
interface term 1/2 ||P_M u - u_hat||_tau^2 for the conservative flux; it is
exactly conserved, nondecreasing or nonincreasing respectively. The
accumulating flux keeps its law but is no usable integrator: its flow grows
violently, faster on finer meshes (energy x1e55 at n = 1 and x1e98 at n = 2
over 20 steps of dt = 0.02 from a random state).

Every implicit step is the hybrid system of the frequency-domain solver at a
real (kappa^2, alpha) with an element load linear in the old state, condensed
onto the skeleton traces by local_ops.condense_batch. It solves for a change
over the step, so its roundoff scales with the change, not with the state:
  Newmark (conservative, c = BETA dt^2, K u0 = -M a0): the system at
    (kappa^2, alpha) = (-1/c, 1) in the increment du = u1 - u0, with element
    load f = -M (du_pred / c + a0), du_pred = dt v0 + dt^2 (1/2 - BETA) a0;
    then u1 = u0 + du and a1 = (du - du_pred) / c.
  trapezoidal rule (rate fluxes, h = dt/2, s0 = A^-1 (N^T m0 - D^T u0)): the
    system at (-1/h^2, -sign/h) in the midpoint rates (w_v, w_m'), with
    element load f = -M v0 / h^2 - D s0 / h and skeleton right side
    -N s0 / h; then u1 = u0 + dt w_v, v1 = 2 w_v - v0 and m1 = m0 + dt w_m'.
The slaved (s, m) of the conservative flux solve the static skeleton system
  sum_K (N_K A_K^-1 N_K^T + tau_K I) m = (N A^-1 D^T + T12^T) u,
  s = A^-1 (N^T m - D^T u).
Each skeleton matrix is factored once per step size by factor_skeleton, and
the block-diagonal M and A are inverted element by element; a step is one
batched element load (with s0 for the trapezoidal rule), one skeleton solve
and one batched displacement recovery. IMPEDANCE faces are refused.

The real blocks are the global operators of the frequency-domain solver
(global_system.global_operators), restricted to the trace dofs of the
non-Dirichlet faces, so the harmonic ansatz in them reproduces the
alpha-family system of the matching flux variant.
"""

import csv
from dataclasses import dataclass

import numpy as np

from .global_system import SkeletonMap, factor_skeleton, global_operators
from .mesh import BoundaryTag
# unused here; perfbench/tracing.py wraps it through this module's binding
from .local_ops import assemble_local_blocks  # noqa: F401
from .local_ops import compliance_rsolve, condense_batch, element_block_batches

FLUXES = ("conservative", "accumulating", "dissipative")
BETA = 1.0 / 3.0   # Newmark beta (gamma = 1/2); beta >= 1/4 is unconditionally stable


@dataclass
class TimeState:
    t: float
    u: np.ndarray
    v: np.ndarray
    m: np.ndarray = None   # traces; None for the conservative flux (slaved)
    a: np.ndarray = None   # Newmark acceleration M^-1 (-K u); None until a step sets it


def initial_state(system, u0, v0):
    """Project initial displacement and velocity; traces start at P_M u0, P_M v0."""
    disc = system.disc
    u, v = (disc.project_w(np.arange(disc.mesh.num_elements), f).ravel() for f in (u0, v0))
    if system.flux == "conservative":
        return TimeState(0.0, u, v)
    return TimeState(0.0, u, v, disc.project_face(system.skeleton.active, u0).ravel())


class SemidiscreteSystem:
    """Assembled global real blocks, flux-specific dynamics and the condensed
    step operators, built once per step size."""

    def __init__(self, disc, material, flux):
        if flux not in FLUXES:
            raise ValueError(f"unknown flux {flux!r}; expected one of {FLUXES}")
        if np.any(disc.mesh.face_tags == BoundaryTag.IMPEDANCE):
            raise ValueError("IMPEDANCE face: the time domain has no impedance condition")
        self.disc = disc
        self.flux = flux
        self._blocks = element_block_batches(disc, material)
        ops = global_operators(disc, self._blocks)
        self.skeleton = SkeletonMap(disc.mesh, 3 * disc.nF)
        active = self.skeleton.dofs
        self.ns, self.nu, self.nm = ops.A.shape[0], ops.M.shape[0], self.skeleton.ndof
        self.A, self.D, self.M, self.T11 = ops.A, ops.D, ops.M, ops.T11
        self.N = ops.N[active]
        self.T12 = ops.T12[:, active]
        # transposes built once: making the .T view costs more than its product
        self._Dt, self._Nt, self._T12t = (op.T.tocsr() for op in (self.D, self.N, self.T12))
        self.t22 = ops.t22[active]

        self._sign = {"accumulating": 1.0, "dissipative": -1.0}.get(flux)
        # inverses of the blocks of M (I_3 (x) m_K) and of A (its two scalar masses)
        stack = lambda name: np.concatenate([getattr(b, name) for b in self._blocks])
        self._A_inv_masses = np.linalg.inv(stack("A_masses"))
        self._m_inv = np.linalg.inv(stack("M")[:, :disc.nW, :disc.nW])
        if flux == "conservative":   # sum_K N_K A_K^-1 N_K^T + tau_K I
            N = np.concatenate([b.N.reshape(len(b.element), b.nM, b.nS) for b in self._blocks])
            S = compliance_rsolve(self._A_inv_masses, N) @ np.swapaxes(N, 1, 2)
            S.reshape(len(S), -1)[:, ::S.shape[1] + 1] += stack("tau")[:, None]
            self._slave_lu = factor_skeleton(self.skeleton.matrix(S),
                                             f"{flux} flux: static slaving factor")
        self._steps = {}

    def _compliance_solve(self, r):
        """A^-1 r element by element, for r (ns,) or a matrix of columns r (ns, k)."""
        B = np.swapaxes(r.reshape(len(self._A_inv_masses), -1, r[0].size), 1, 2)
        return np.swapaxes(compliance_rsolve(self._A_inv_masses, B), 1, 2).reshape(r.shape)

    # ---- slaved variables ----

    def slave_conservative(self, w):
        """(s, m) solving the stress and transmission constraints for u = w
        (a vector, or a matrix of columns) on the static skeleton factor."""
        m = self._slave_lu.solve(self.N @ self._compliance_solve(self._Dt @ w) + self._T12t @ w)
        return self.stress_from(w, m), m

    def _stiffness(self, w):
        """(K w, s, m) for the conservative flux: K w = T11 w - D s - T12 m."""
        s, m = self.slave_conservative(w)
        return self.T11 @ w - self.D @ s - self.T12 @ m, s, m

    def stress_from(self, u, m):
        """s = A^-1 (N^T m - D^T u)."""
        return self._compliance_solve(self._Nt @ m - self._Dt @ u)

    def trace_rate(self, v, s):
        return (self._T12t @ v + self._sign * (self.N @ s)) / self.t22

    # ---- energy ----

    def energy(self, state):
        if self.flux == "conservative":
            s, m = self.slave_conservative(state.u)
        else:
            s, m = self.stress_from(state.u, state.m), state.m
        e = 0.5 * s @ (self.A @ s) + 0.5 * state.v @ (self.M @ state.v)
        if self.flux == "conservative":
            e += 0.5 * self._tau_form(state.u, m)
        return float(e)

    def _tau_form(self, u, m, w=None, n=None):
        """(P_M u - u_hat, P_M w - w_hat)_tau as a bilinear form in the
        coefficients (u, m) and (w, n); ||P_M u - u_hat||_tau^2 without (w, n)."""
        if w is None:
            w, n = u, m
        return float(u @ (self.T11 @ w) - u @ (self.T12 @ n) - w @ (self.T12 @ m)
                     + m @ (self.t22 * n))

    def energy_rate(self, state):
        """dE/dt along the semidiscrete vector field (chain rule, analytic; no mass solve)."""
        if self.flux == "conservative":
            ku, s, m = self._stiffness(state.u)
            ds, dm = self.slave_conservative(state.v)
            return float(s @ (self.A @ ds) - state.v @ ku + self._tau_form(state.u, m, state.v, dm))
        s = self.stress_from(state.u, state.m)
        dm = self.trace_rate(state.v, s)
        ds = self.stress_from(state.v, dm)
        r = self.D @ s + self._sign * (self.T11 @ state.v - self.T12 @ dm)   # M v'
        return float(s @ (self.A @ ds) + state.v @ r)

    def velocity_mismatch(self, state):
        """||P_M v - u_hat'||_tau^2 for the rate fluxes."""
        s = self.stress_from(state.u, state.m)
        return self._tau_form(state.v, self.trace_rate(state.v, s))

    # ---- condensed operators ----

    def effective_stiffness(self):
        """Dense K with M u'' = -K u for the conservative flux (reference only)."""
        K = self._stiffness(np.eye(self.nu))[0]
        return 0.5 * (K + K.T)

    def _condense(self, kappa2, alpha, dt):
        """The hybrid system at (kappa2, alpha) of step size dt, condensed for
        every load: its skeleton factor and, per element, the maps L_K of the
        load moments f_K to the skeleton loads and X_K, Z_K to the displacement
        X_K m_K + Z_K f_K; the skeleton map drops the Dirichlet traces, and
        gather reads them as 0. Raises as condense_batch and factor_skeleton do."""
        parts = []
        for b in self._blocks:
            eye = np.broadcast_to(np.eye(b.nW3), (len(b.element), b.nW3, b.nW3))
            S, L, X, Z, _ = condense_batch(b, kappa2, alpha, eye)
            parts.append((S, L, X[:, b.nS:], Z[:, b.nS:]))
        S, L, X, Z = (np.concatenate(p) for p in zip(*parts))
        lu = factor_skeleton(self.skeleton.matrix(S), f"{self.flux} flux: step (dt={dt}) factor")
        return lu, L, X, Z

    def _solve(self, step, f, rhs):
        """Trace and displacement unknowns (m, u) of a condensed step with load
        moments f (nu,) and skeleton right side rhs besides the loads."""
        skel, (lu, L, X, Z) = self.skeleton, step
        f = f.reshape(len(Z), -1, 1)
        m = lu.solve(rhs + skel.scatter(L @ f))
        return m, (X @ skel.gather(m)[:, :, None] + Z @ f).ravel()

    def _first_order_operator(self, dt):
        """Condensed trapezoidal step: the hybrid system at (kappa^2, alpha) =
        (-1/h^2, -sign/h), h = dt/2."""
        h = 0.5 * dt
        return self._condense(-1.0 / h ** 2, -self._sign / h, dt)

    # ---- time stepping ----

    def step(self, state, dt):
        """Advance one step of size dt.

        Conservative flux: implicit Newmark (gamma = 1/2, beta = BETA) on the
        condensed second-order ODE, one skeleton solve per step. States carry
        the acceleration a = M^-1 (-K u) on to the next step.
        Rate fluxes: trapezoidal rule on the first-order system in (u, v, m).
        Each step's skeleton matrix is factored once per dt.
        """
        if not np.isfinite(dt) or dt <= 0:
            raise ValueError("time step must be positive")
        if self.flux == "conservative":
            return self._newmark_step(state, dt)
        return self._trapezoidal_step(state, dt)

    def _newmark_step(self, state, dt):
        c = BETA * dt * dt
        if dt not in self._steps:
            self._steps[dt] = self._condense(-1.0 / c, 1.0, dt)
        a0 = state.a   # or M^-1 (-K u), element by element
        if a0 is None:
            a0 = -(self._stiffness(state.u)[0].reshape(-1, 3, self.disc.nW) @ self._m_inv).ravel()
        du_pred = dt * state.v + dt * dt * (0.5 - BETA) * a0
        du = self._solve(self._steps[dt], -(self.M @ (du_pred / c + a0)), 0.0)[1]
        a1 = (du - du_pred) / c
        return TimeState(state.t + dt, state.u + du, state.v + 0.5 * dt * (a0 + a1), a=a1)

    def _trapezoidal_step(self, state, dt):
        if dt not in self._steps:
            self._steps[dt] = self._first_order_operator(dt)
        h = 0.5 * dt
        u, v, m = state.u, state.v, state.m
        s = self.stress_from(u, m)
        wm, wv = self._solve(self._steps[dt], -(self.M @ v) / h ** 2 - (self.D @ s) / h,
                             -(self.N @ s) / h)
        return TimeState(state.t + dt, u + dt * wv, 2.0 * wv - v, m + dt * wm)

def write_energy_trace(path, system, states):
    """CSV energy trace: t, energy, rate, flux."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "energy", "rate", "flux"])
        for st in states:
            writer.writerow([f"{st.t:.17g}", f"{system.energy(st):.17g}",
                             f"{system.energy_rate(st):.17g}", system.flux])
