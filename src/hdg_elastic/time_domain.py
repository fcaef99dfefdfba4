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

Each step solves a real sparse block system, factored once per step size.
Newmark (conservative, c = BETA dt^2) solves (M + c K) u1 = M u_pred in (u1, s, m):
  [[M + c T11, -c D, -c T12], [D^T, A, -N^T], [T12^T, -N, -T22]] (u1, s, m)
    = (M u_pred, 0, 0),
with (s, m) slaved to u1, and takes a1 = (u1 - u_pred) / c: (M + c K) a1 = -K u_pred.
The trapezoidal rule (rate fluxes, h = dt/2) solves for the step midpoint
w = (z0 + z1)/2 of z = (u, v, m):
  [[M - h sign T11, -h D, sign T12], [h D^T, A, -N^T],
   [-h T12^T, -h sign N, T22]] (w_v, s, w_m)
    = (M v0 + sign T12 m0, -D^T u0, T22 m0),
then u1 = u0 + dt w_v, v1 = 2 w_v - v0 and m1 = 2 w_m - m0.

The real blocks are the global operators of the frequency-domain solver
(global_system.global_operators), restricted to the trace dofs of the
non-Dirichlet faces, so the harmonic ansatz in them reproduces the
alpha-family system of the matching flux variant.
"""

import csv
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sps
import scipy.sparse.linalg as spla

from .global_system import SkeletonMap, global_operators
# unused here; perfbench/tracing.py wraps it through this module's binding
from .local_ops import assemble_local_blocks  # noqa: F401

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
    elements = np.arange(disc.mesh.num_elements)
    u = disc.project_w(elements, u0).ravel()
    v = disc.project_w(elements, v0).ravel()
    if system.flux == "conservative":
        return TimeState(0.0, u, v)
    m = disc.project_face(system.skeleton.active, u0).ravel().real
    return TimeState(0.0, u, v, m)


class SemidiscreteSystem:
    """Assembled global real blocks and flux-specific dynamics."""

    def __init__(self, disc, material, flux):
        if flux not in FLUXES:
            raise ValueError(f"unknown flux {flux!r}; expected one of {FLUXES}")
        self.disc = disc
        self.material = material
        self.flux = flux
        ops = global_operators(disc, material)
        self.skeleton = SkeletonMap(disc.mesh, 3 * disc.nF)
        active = self.skeleton.dofs
        self.ns, self.nu, self.nm = ops.A.shape[0], ops.M.shape[0], self.skeleton.ndof
        self.A = ops.A.tocsc()
        self.D = ops.D
        self.M = ops.M.tocsc()
        self.T11 = ops.T11
        self.N = ops.N[active]
        self.T12 = ops.T12[:, active]
        self.t22 = ops.t22[active]

        self._sign = {"accumulating": 1.0, "dissipative": -1.0}.get(flux)
        self._M_lu = spla.splu(self.M)
        if flux == "conservative":
            # slaving block [[A, -N^T], [-N, -T22]], symmetric
            self._slave_lu = spla.splu(sps.bmat(
                [[self.A, -self.N.T], [-self.N, -sps.diags(self.t22)]], format="csc"))
        else:
            self._A_lu = spla.splu(self.A)
        self._keff = None
        self._step_lu = {}

    # ---- slaved variables ----

    def slave_conservative(self, w):
        """(s, m) solving the stress and transmission constraints for u = w."""
        rhs = np.concatenate([-(self.D.T @ w), -(self.T12.T @ w)])
        sol = self._slave_lu.solve(rhs)
        return sol[:self.ns], sol[self.ns:]

    def _stiffness(self, w):
        """(K w, s, m) for the conservative flux: K w = T11 w - D s - T12 m."""
        s, m = self.slave_conservative(w)
        return self.T11 @ w - self.D @ s - self.T12 @ m, s, m

    def stress_from(self, u, m):
        """s = A^-1 (N^T m - D^T u)."""
        return self._A_lu.solve(self.N.T @ m - self.D.T @ u)

    def trace_rate(self, v, s):
        return (self.T12.T @ v + self._sign * (self.N @ s)) / self.t22

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

    def _tau_form(self, u, m):
        """||P_M u - u_hat||_tau^2 as a quadratic form in coefficients."""
        return float(u @ (self.T11 @ u) - 2.0 * u @ (self.T12 @ m)
                     + m @ (self.t22 * m))

    def energy_rate(self, state):
        """dE/dt along the semidiscrete vector field (chain rule, analytic)."""
        if self.flux == "conservative":
            ku, s, m = self._stiffness(state.u)
            ds, dm = self.slave_conservative(state.v)
            dv = self._M_lu.solve(-ku)
            rate = s @ (self.A @ ds) + state.v @ (self.M @ dv)
            rate += (state.u @ (self.T11 @ state.v) - state.v @ (self.T12 @ m)
                     - state.u @ (self.T12 @ dm) + dm @ (self.t22 * m))
            return float(rate)
        s = self.stress_from(state.u, state.m)
        dm = self.trace_rate(state.v, s)
        ds = self._A_lu.solve(self.N.T @ dm - self.D.T @ state.v)
        dv = self._M_lu.solve(self.D @ s
                              + self._sign * (self.T11 @ state.v - self.T12 @ dm))
        return float(s @ (self.A @ ds) + state.v @ (self.M @ dv))

    def velocity_mismatch(self, state):
        """||P_M v - u_hat'||_tau^2 for the rate fluxes."""
        s = self.stress_from(state.u, state.m)
        dm = self.trace_rate(state.v, s)
        return float(state.v @ (self.T11 @ state.v)
                     - 2.0 * state.v @ (self.T12 @ dm) + dm @ (self.t22 * dm))

    # ---- condensed operators ----

    def effective_stiffness(self):
        """Dense K with M u'' = -K u for the conservative flux (reference only)."""
        if self._keff is None:
            R = sps.hstack([self.D, self.T12]).tocsr()
            X = self._slave_lu.solve(np.asarray(R.T.toarray()))
            self._keff = np.asarray(R @ X) + np.asarray(self.T11.toarray())
            self._keff = 0.5 * (self._keff + self._keff.T)
        return self._keff

    def _first_order_operator(self, dt):
        """Sparse trapezoidal step matrix in the midpoint unknowns (w_v, s, w_m)."""
        h, sign = 0.5 * dt, self._sign
        return sps.bmat([[self.M - h * sign * self.T11, -h * self.D, sign * self.T12],
                         [h * self.D.T, self.A, -self.N.T],
                         [-h * self.T12.T, -h * sign * self.N, sps.diags(self.t22)]],
                        format="csc")

    # ---- time stepping ----

    def step(self, state, dt):
        """Advance one step of size dt.

        Conservative flux: implicit Newmark (gamma = 1/2, beta = BETA) on the
        condensed second-order ODE, one solve per step. States carry the
        acceleration a = M^-1 (-K u) on to the next step.
        Rate fluxes: trapezoidal rule on the first-order system in (u, v, m).
        Each step matrix is factored once per dt.
        """
        if not np.isfinite(dt) or dt <= 0:
            raise ValueError("time step must be positive")
        if self.flux == "conservative":
            return self._newmark_step(state, dt)
        return self._trapezoidal_step(state, dt)

    def _newmark_step(self, state, dt):
        c = BETA * dt * dt
        if dt not in self._step_lu:
            self._step_lu[dt] = spla.splu(sps.bmat(
                [[self.M + c * self.T11, -c * self.D, -c * self.T12],
                 [self.D.T, self.A, -self.N.T],
                 [self.T12.T, -self.N, -sps.diags(self.t22)]], format="csc"))
        a0 = (state.a if state.a is not None
              else self._M_lu.solve(-self._stiffness(state.u)[0]))
        u_pred = state.u + dt * state.v + dt * dt * (0.5 - BETA) * a0
        rhs = np.concatenate([self.M @ u_pred, np.zeros(self.ns + self.nm)])
        u1 = self._step_lu[dt].solve(rhs)[:self.nu].copy()
        a1 = (u1 - u_pred) / c
        return TimeState(state.t + dt, u1, state.v + 0.5 * dt * (a0 + a1), a=a1)

    def _trapezoidal_step(self, state, dt):
        if dt not in self._step_lu:
            self._step_lu[dt] = spla.splu(self._first_order_operator(dt))
        rhs = np.concatenate([self.M @ state.v + self._sign * (self.T12 @ state.m),
                              -(self.D.T @ state.u), self.t22 * state.m])
        w = self._step_lu[dt].solve(rhs)
        wv, wm = w[:self.nu], w[self.nu + self.ns:]
        return TimeState(state.t + dt, state.u + dt * wv,
                         2.0 * wv - state.v, 2.0 * wm - state.m)


def write_energy_trace(path, system, states):
    """CSV energy trace: t, energy, rate, flux."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "energy", "rate", "flux"])
        for st in states:
            writer.writerow([f"{st.t:.17g}", f"{system.energy(st):.17g}",
                             f"{system.energy_rate(st):.17g}", system.flux])
