"""Semidiscrete transient elastodynamics on the hybrid spaces.

Global unknowns (homogeneous Dirichlet data, unforced): stress coefficients
s, displacement u with velocity v, and skeleton traces m on non-Dirichlet
faces. The semidiscrete equations are

  A s' = N^T m' - D^T u'                  (holds at all times; A s = N^T m - D^T u)
  M u'' = D s - T11 u + T12 m             conservative flux
  M u'' = D s +/- T11 u' -/+ T12 u-hat''... (see below) for the rate fluxes

with the numerical fluxes
  conservative:  sigma_hat n = sigma n - tau (P_M u - u_hat)
  accumulating:  sigma_hat n = sigma n + tau (P_M u' - u_hat')
  dissipative:   sigma_hat n = sigma n - tau (P_M u' - u_hat')

For the conservative flux (s, m) are algebraic (slaved to u) and the dynamics
reduce to the condensed linear second-order ODE  M u'' = -K u; the rate
fluxes carry m as a differential variable with  T22 m' = T12^T v +/- N s.

The discrete energy is E = 1/2 ||sigma||_A^2 + 1/2 ||v||_rho^2, plus the
interface term 1/2 ||P_M u - u_hat||_tau^2 for the conservative flux; it is
exactly conserved, nondecreasing or nonincreasing respectively.

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


@dataclass
class TimeState:
    t: float
    u: np.ndarray
    v: np.ndarray
    m: np.ndarray = None   # traces; None for the conservative flux (slaved)


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

        self._A_lu = spla.splu(self.A)
        self._M_lu = spla.splu(self.M)
        # conservative slaving block [[A, -N^T], [-N, -T22]], symmetric
        slave = sps.bmat([[self.A, -self.N.T],
                          [-self.N, -sps.diags(self.t22)]]).tocsc()
        self._slave_lu = spla.splu(slave)
        self._keff = None
        self._newmark_cache = {}
        self._trap_cache = {}

    # ---- slaved variables ----

    def slave_conservative(self, w):
        """(s, m) solving the stress and transmission constraints for u = w."""
        rhs = np.concatenate([-(self.D.T @ w), -(self.T12.T @ w)])
        sol = self._slave_lu.solve(rhs)
        return sol[:self.ns], sol[self.ns:]

    def stress_from(self, u, m):
        """s = A^-1 (N^T m - D^T u)."""
        return self._A_lu.solve(self.N.T @ m - self.D.T @ u)

    def trace_rate(self, v, s):
        sign = 1.0 if self.flux == "accumulating" else -1.0
        return (self.T12.T @ v + sign * (self.N @ s)) / self.t22

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
            s, m = self.slave_conservative(state.u)
            ds, dm = self.slave_conservative(state.v)
            dv = self._M_lu.solve(self.D @ s - self.T11 @ state.u + self.T12 @ m)
            rate = s @ (self.A @ ds) + state.v @ (self.M @ dv)
            rate += (state.u @ (self.T11 @ state.v) - state.v @ (self.T12 @ m)
                     - state.u @ (self.T12 @ dm) + dm @ (self.t22 * m))
            return float(rate)
        sign = 1.0 if self.flux == "accumulating" else -1.0
        s = self.stress_from(state.u, state.m)
        dm = self.trace_rate(state.v, s)
        ds = self._A_lu.solve(self.N.T @ dm - self.D.T @ state.v)
        dv = self._M_lu.solve(self.D @ s
                              + sign * (self.T11 @ state.v - self.T12 @ dm))
        return float(s @ (self.A @ ds) + state.v @ (self.M @ dv))

    def velocity_mismatch(self, state):
        """||P_M v - u_hat'||_tau^2 for the rate fluxes."""
        s = self.stress_from(state.u, state.m)
        dm = self.trace_rate(state.v, s)
        return float(state.v @ (self.T11 @ state.v)
                     - 2.0 * state.v @ (self.T12 @ dm) + dm @ (self.t22 * dm))

    # ---- condensed operators ----

    def effective_stiffness(self):
        """Dense K with M u'' = -K u for the conservative flux."""
        if self._keff is None:
            R = sps.hstack([self.D, self.T12]).tocsr()
            X = self._slave_lu.solve(np.asarray(R.T.toarray()))
            self._keff = np.asarray(R @ X) + np.asarray(self.T11.toarray())
            self._keff = 0.5 * (self._keff + self._keff.T)
        return self._keff

    def _first_order_operator(self):
        """Dense B with z' = B z, z = (u, v, m), for the rate fluxes."""
        sign = 1.0 if self.flux == "accumulating" else -1.0
        n = 2 * self.nu + self.nm
        B = np.zeros((n, n))
        eye_u = np.eye(self.nu)
        eye_m = np.eye(self.nm)
        B[:self.nu, self.nu:2 * self.nu] = eye_u
        # columns from u: s = -A^-1 D^T u
        s_u = -self._A_lu.solve(np.asarray(self.D.T.toarray()))
        # columns from m: s = A^-1 N^T m
        s_m = self._A_lu.solve(np.asarray(self.N.T.toarray()))
        dm_v = self.T12.T.toarray() / self.t22[:, None]
        dm_su = sign * (self.N @ s_u) / self.t22[:, None]
        dm_sm = sign * (self.N @ s_m) / self.t22[:, None]
        dv = np.zeros((self.nu, n))
        dv[:, :self.nu] = self.D @ s_u - sign * (self.T12 @ dm_su)
        dv[:, self.nu:2 * self.nu] = sign * (self.T11.toarray() - self.T12 @ dm_v)
        dv[:, 2 * self.nu:] = self.D @ s_m - sign * (self.T12 @ dm_sm)
        B[self.nu:2 * self.nu] = self._M_lu.solve(dv)
        B[2 * self.nu:, :self.nu] = dm_su
        B[2 * self.nu:, self.nu:2 * self.nu] = dm_v
        B[2 * self.nu:, 2 * self.nu:] = dm_sm
        return B

    # ---- time stepping ----

    def step(self, state, dt, beta=1.0 / 3.0):
        """Advance one step of size dt.

        Conservative flux: implicit Newmark (gamma = 1/2) on the condensed
        second-order ODE; beta >= 1/4 keeps it unconditionally stable.
        Rate fluxes: trapezoidal rule on the first-order system in (u, v, m).
        """
        if dt <= 0:
            raise ValueError("time step must be positive")
        if self.flux == "conservative":
            return self._newmark_step(state, dt, beta)
        return self._trapezoidal_step(state, dt)

    def _newmark_step(self, state, dt, beta):
        K = self.effective_stiffness()
        key = (dt, beta)
        if key not in self._newmark_cache:
            from scipy.linalg import cho_factor
            Md = np.asarray(self.M.toarray())
            self._newmark_cache[key] = (cho_factor(Md + beta * dt * dt * K),
                                        cho_factor(Md))
        from scipy.linalg import cho_solve
        step_f, mass_f = self._newmark_cache[key]
        a0 = cho_solve(mass_f, -(K @ state.u))
        u_pred = state.u + dt * state.v + dt * dt * (0.5 - beta) * a0
        a1 = cho_solve(step_f, -(K @ u_pred))
        u1 = u_pred + beta * dt * dt * a1
        v1 = state.v + 0.5 * dt * (a0 + a1)
        return TimeState(state.t + dt, u1, v1)

    def _trapezoidal_step(self, state, dt):
        if dt not in self._trap_cache:
            from scipy.linalg import lu_factor
            B = self._first_order_operator()
            eye = np.eye(B.shape[0])
            self._trap_cache[dt] = (lu_factor(eye - 0.5 * dt * B), B)
        from scipy.linalg import lu_solve
        lu, B = self._trap_cache[dt]
        z = np.concatenate([state.u, state.v, state.m])
        z1 = lu_solve(lu, z + 0.5 * dt * (B @ z))
        return TimeState(state.t + dt, z1[:self.nu],
                         z1[self.nu:2 * self.nu], z1[2 * self.nu:])


def write_energy_trace(path, system, states):
    """CSV energy trace: t, energy, rate, flux."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "energy", "rate", "flux"])
        for st in states:
            writer.writerow([f"{st.t:.17g}", f"{system.energy(st):.17g}",
                             f"{system.energy_rate(st):.17g}", system.flux])
