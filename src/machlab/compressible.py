"""Explicit staggered finite-volume solver for the scaled compressible system.

The system is integrated in the fixed frame, where the obstacle is static
and transport happens with the relative velocity u - m'(t): mass and
momentum fluxes are Rusanov-stabilized first-order upwind, the pressure
gradient (carrying the 1/eps^2 stiffness) and viscous terms are centered,
and a cosine-ramped sponge layer relaxes the rim toward the far-field
state to emulate radiation to infinity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .constitutive import (
    PressureLaw,
    ViscosityPair,
    pressure,
    pressure_slope,
    relative_entropy,
    stress,
)
from .errors import CflViolation, NanDetected, VacuumState
from .geometry import Grid, MotionPath, build_lifting, enforce_bc, eval_motion
from .operators import component_masks, face_to_center, mirror_laplacian, upwind_transport
from .spectral import lifting_time_derivative, velocity_gradient


@dataclass(frozen=True)
class FluidState:
    """Density at centers, velocity components at faces, in the fixed frame.

    sponge_mass is the mass the sponge added in the step that produced
    this state (zero for initial states).
    """

    rho: np.ndarray  # (nx, ny)
    u: np.ndarray  # (nx+1, ny)
    v: np.ndarray  # (nx, ny+1)
    t: float
    eps: float
    sponge_mass: float = 0.0


@dataclass(frozen=True)
class IllPreparedData:
    """O(1) density perturbation and initial velocity exciting acoustics."""

    rho1: np.ndarray
    u0: np.ndarray
    v0: np.ndarray
    eps: float
    bound: float = 100.0


@dataclass(frozen=True)
class SolverOptions:
    cfl: float = 0.4
    sponge_width: float = 0.0
    lifting_radius: float | None = None
    tol_energy: float = 1e-3


@dataclass
class EnergyLedger:
    """Running totals needed by the two sides of the energy inequality."""

    initial_energy: float
    initial_v_coupling: float
    dissipation: float = 0.0
    v_work: float = 0.0


@dataclass(frozen=True)
class EnergyRecord:
    t: float
    eps: float
    lhs: float
    rhs: float
    flag: bool


@dataclass
class Trajectory:
    times: np.ndarray
    states: list
    eps: float
    energy: list = field(default_factory=list)
    total_mass: list = field(default_factory=list)
    sponge_mass: list = field(default_factory=list)


def instant_energy(grid: Grid, law: PressureLaw, state: FluidState) -> float:
    """Kinetic plus scaled internal (relative-entropy) energy of a state."""
    uc, vc = face_to_center(state.u, state.v)
    kinetic = 0.5 * state.rho * (uc**2 + vc**2)
    internal = relative_entropy(law, state.rho) / state.eps**2
    total = np.where(grid.active, kinetic + internal, 0.0)
    return float(np.sum(total)) * grid.h**2


def _mass_flux(rho, wn, c_cell, interior):
    """Rusanov mass flux on x-faces (the y-faces arrive transposed).

    Only interior faces carry flux; boundary faces carry zero relative flux.
    """
    f = np.zeros_like(wn)
    lam = np.abs(wn[1:-1, :]) + np.maximum(c_cell[1:, :], c_cell[:-1, :])
    f[1:-1, :] = 0.5 * wn[1:-1, :] * (rho[1:, :] + rho[:-1, :]) - 0.5 * lam * (
        rho[1:, :] - rho[:-1, :]
    )
    f[~interior] = 0.0
    return f


class CompressibleSolver:
    """Owns the discretization of one (grid, law, viscosity, path) setup."""

    def __init__(
        self,
        grid: Grid,
        law: PressureLaw,
        visc: ViscosityPair,
        path: MotionPath,
        options: SolverOptions | None = None,
    ):
        self.grid = grid
        self.law = law
        self.visc = visc
        self.path = path
        self.options = options or SolverOptions()
        self._build_sponge()
        self.lifting = build_lifting(
            grid, path, self.options.lifting_radius, self.options.sponge_width
        )

    def _build_sponge(self):
        g = self.grid
        w = self.options.sponge_width
        if w <= 0.0:
            self.sponge_cell = np.zeros((g.nx, g.ny))
            self.sponge_u = np.zeros((g.nx + 1, g.ny))
            self.sponge_v = np.zeros((g.nx, g.ny + 1))
            return

        def profile(x, y):
            d = np.minimum.reduce([x - g.x0, g.x1 - x, y - g.y0, g.y1 - y])
            s = np.clip((w - d) / w, 0.0, 1.0)
            return np.sin(0.5 * math.pi * s) ** 2

        xc, yc = g.cell_centers()
        self.sponge_cell = profile(xc, yc)
        xu, yu = g.xface_coords()
        self.sponge_u = profile(xu, yu)
        xv, yv = g.yface_coords()
        self.sponge_v = profile(xv, yv)

    # -- state construction -------------------------------------------------

    def init_state(self, data: IllPreparedData) -> FluidState:
        """Initial state rho_ref + eps*rho1, u0, with boundary projection."""
        g = self.grid
        norm_l2 = g.l2norm(data.rho1)
        norm_linf = g.lq_norm(data.rho1, np.inf)
        if norm_l2 + norm_linf > data.bound:
            raise ValueError(
                f"ill-prepared data norms {norm_l2 + norm_linf:.3g} exceed "
                f"the configured bound {data.bound:.3g}"
            )
        rho = np.where(g.active, self.law.rho_ref + data.eps * data.rho1, self.law.rho_ref)
        if np.any(rho[g.active] <= 0.0):
            raise VacuumState("initial density is not positive everywhere")
        return enforce_bc(g, self.path, FluidState(rho, data.u0, data.v0, 0.0, data.eps))

    # -- stability ----------------------------------------------------------

    def cfl_limit(self, state: FluidState) -> float:
        """Largest stable dt at the configured CFL factor.

        The acoustic and advective bounds carry the directional-sum factor
        1/d: explicit 2D stability needs dt * (lam_x + lam_y) / h below the
        CFL number, which is stricter than the per-direction bound.
        """
        g = self.grid
        law = self.law
        d = float(g.dimension)
        rho_max = float(state.rho[g.active].max())
        c_sup = math.sqrt(float(pressure_slope(law, rho_max))) / state.eps
        _, mp, _ = eval_motion(self.path, state.t)
        umax = max(
            float(np.abs(state.u[g.uface_interior]).max(initial=0.0)),
            float(np.abs(state.v[g.vface_interior]).max(initial=0.0)),
        ) + float(np.linalg.norm(mp))
        bounds = [g.h / (d * c_sup), g.h**2 * law.rho_ref / (4.0 * self.visc.shear)]
        if umax > 0.0:
            bounds.append(g.h / (d * umax))
        return self.options.cfl * min(bounds)

    # -- single step ----------------------------------------------------------

    def step(self, state: FluidState, dt: float) -> FluidState:
        """One conservative explicit update; raises on CFL, vacuum, or NaN."""
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        if dt > self.cfl_limit(state) * (1.0 + 1e-9):
            raise CflViolation(
                f"dt = {dt:.3e} exceeds the stability bound {self.cfl_limit(state):.3e}"
            )
        g = self.grid
        h = g.h
        law = self.law
        eps = state.eps
        _, mp, _ = eval_motion(self.path, state.t)

        rho, u, v = state.rho, state.u, state.v
        wu = u - mp[0]
        wv = v - mp[1]
        c_cell = np.sqrt(pressure_slope(law, np.maximum(rho, 1e-300))) / eps

        fmx = _mass_flux(rho, wu, c_cell, g.uface_interior)
        fmy = _mass_flux(rho.T, wv.T, c_cell.T, g.vface_interior.T).T

        rho_new = rho - (dt / h) * (
            fmx[1:, :] - fmx[:-1, :] + fmy[:, 1:] - fmy[:, :-1]
        )
        rho_new[~g.active] = law.rho_ref
        if np.any(rho_new[g.active] <= 0.0):
            raise VacuumState(f"density lost positivity at t = {state.t:.6g}")

        p_cell = pressure(law, rho)
        div_full = g.ops.div(u, v, include_boundary_faces=True)

        x_masks, y_masks = component_masks(g)
        u_new = self._momentum_update(
            rho, rho_new, u, wu, wv, p_cell, div_full, eps, dt, *x_masks
        )
        v_new = self._momentum_update(
            rho.T, rho_new.T, v.T, wv.T, wu.T, p_cell.T, div_full.T, eps, dt,
            *y_masks,
        ).T

        # sponge relaxation toward the far-field rest state, mass change logged
        sponge_mass = 0.0
        if self.options.sponge_width > 0.0:
            before = float(np.sum(rho_new[g.active]))
            rho_new = law.rho_ref + (rho_new - law.rho_ref) * (1.0 - self.sponge_cell)
            rho_new[~g.active] = law.rho_ref
            sponge_mass = (float(np.sum(rho_new[g.active])) - before) * h**2
            u_new = u_new * (1.0 - self.sponge_u)
            v_new = v_new * (1.0 - self.sponge_v)

        out = enforce_bc(
            g, self.path, FluidState(rho_new, u_new, v_new, state.t + dt, eps, sponge_mass)
        )
        if not (
            np.all(np.isfinite(out.rho))
            and np.all(np.isfinite(out.u))
            and np.all(np.isfinite(out.v))
        ):
            raise NanDetected(f"non-finite field value at t = {out.t:.6g}")
        return out

    def _momentum_update(
        self, rho, rho_new, un, wn, wt, p_cell, div_full, eps, dt,
        interior, boundary, other_ok, cell_act,
    ):
        """Update one velocity component (oriented as u on x-faces).

        un is the component being updated, wn its frame-relative version,
        wt the relative transverse component on the other face family; the
        y-component call arrives transposed so both share this code path.
        """
        h = self.grid.h

        rho_f = np.zeros_like(un)
        rho_f[1:-1, :] = 0.5 * (rho[1:, :] + rho[:-1, :])
        rho_f[0, :] = rho[0, :]
        rho_f[-1, :] = rho[-1, :]
        q = rho_f * un

        # upwind momentum transport on the advective scale |w| (the
        # acoustic-scale stabilization lives in the mass flux), which keeps
        # the effective viscosity Mach-uniform instead of O(h/eps)
        dq = upwind_transport(q, wn, wt, interior, other_ok, cell_act, h)

        # centered pressure gradient carrying the 1/eps^2 stiffness
        dq[1:-1, :] += (p_cell[1:, :] - p_cell[:-1, :]) / (h * eps**2)

        # viscous mu*(lap u + (1/3) grad div u) + eta*grad div u
        mu, eta = self.visc.shear, self.visc.bulk
        lap_u = mirror_laplacian(un, interior | boundary, h)
        ddiv = np.zeros_like(un)
        ddiv[1:-1, :] = (div_full[1:, :] - div_full[:-1, :]) / h
        dq[1:-1, :] -= mu * lap_u[1:-1, :] + (mu / 3.0 + eta) * ddiv[1:-1, :]

        q_new = q - dt * dq
        rho_f_new = np.zeros_like(un)
        rho_f_new[1:-1, :] = 0.5 * (rho_new[1:, :] + rho_new[:-1, :])
        return np.where(interior, q_new / np.where(rho_f_new > 0, rho_f_new, 1.0), un)

    # -- trajectory ----------------------------------------------------------

    def run(
        self,
        state0: FluidState,
        sample_times: Sequence[float],
        dt_policy="adaptive",
    ) -> Trajectory:
        """Advance from state0 hitting each sample time exactly.

        dt_policy 'adaptive' recomputes the CFL bound each step; a float
        requests that fixed step (capped by the CFL bound and snapshot
        alignment). Energy records, total mass, and the cumulative sponge
        mass flux are logged at every sample time.
        """
        times = [float(s) for s in sample_times]
        if times != sorted(times) or times[0] < state0.t - 1e-12:
            raise ValueError("sample times must be increasing and start at t0")

        ledger = self._open_ledger(state0)
        traj = Trajectory(np.array(times), [], state0.eps)
        state = state0
        sponge_total = 0.0
        for target in times:
            while state.t < target - 1e-12:
                limit = self.cfl_limit(state)
                dt = limit if dt_policy == "adaptive" else min(float(dt_policy), limit)
                dt = min(dt, target - state.t)
                new_state = self.step(state, dt)
                sponge_total += new_state.sponge_mass
                self._accumulate(ledger, state, dt)
                state = new_state
            traj.states.append(state)
            traj.energy.append(self.energy_report(state, ledger))
            traj.total_mass.append(self._total_mass(state))
            traj.sponge_mass.append(sponge_total)
        return traj

    def _total_mass(self, state: FluidState) -> float:
        return float(np.sum(state.rho[self.grid.active])) * self.grid.h**2

    # -- energy inequality monitor -------------------------------------------

    def _v_coupling(self, state: FluidState) -> float:
        if self.lifting is None:
            return 0.0
        g = self.grid
        ext = self.lifting.sample(state.t)
        uc, vc = face_to_center(state.u, state.v)
        ecu, ecv = face_to_center(ext.u, ext.v)
        val = state.rho * (uc * ecu + vc * ecv)
        return float(np.sum(val[g.active])) * g.h**2

    def _open_ledger(self, state0: FluidState) -> EnergyLedger:
        return EnergyLedger(
            initial_energy=instant_energy(self.grid, self.law, state0),
            initial_v_coupling=self._v_coupling(state0),
        )

    def _accumulate(self, ledger: EnergyLedger, state: FluidState, dt: float):
        g = self.grid
        grad_u = velocity_gradient(g, state.u, state.v)
        s_tensor = stress(self.visc, grad_u)
        diss = np.einsum("xyij,xyij->xy", s_tensor, grad_u)
        ledger.dissipation += dt * float(np.sum(diss[g.active])) * g.h**2
        if self.lifting is None:
            return
        _, mp, _ = eval_motion(self.path, state.t)
        ext = self.lifting.sample(state.t)
        ext_dt = self.lifting.sample_dt(state.t)
        grad_v = velocity_gradient(g, ext.u, ext.v)
        vel = np.stack(face_to_center(state.u, state.v), axis=-1)
        uu = state.rho[..., None, None] * vel[..., :, None] * vel[..., None, :]
        dv_moving = lifting_time_derivative(grad_v, ext_dt, mp)
        integrand = (
            np.einsum("xyij,xyij->xy", s_tensor, grad_v)
            - np.einsum("xyij,xyij->xy", uu, grad_v)
            - state.rho * np.einsum("xyi,xyi->xy", vel, dv_moving)
        )
        ledger.v_work += dt * float(np.sum(integrand[g.active])) * g.h**2

    def energy_report(self, state: FluidState, ledger: EnergyLedger) -> EnergyRecord:
        """Both sides of the discrete energy inequality and the verdict flag.

        The tolerance is options.tol_energy times the initial energy; runs
        started from rest with a moving obstacle fall back to the kinetic
        scale of the lifting field so the comparison has a usable yardstick.
        """
        lhs = instant_energy(self.grid, self.law, state) + ledger.dissipation
        rhs = (
            ledger.initial_energy
            + self._v_coupling(state)
            - ledger.initial_v_coupling
            + ledger.v_work
        )
        scale = ledger.initial_energy
        if scale <= 0.0 and self.lifting is not None:
            ext = self.lifting.sample(state.t)
            scale = 0.5 * self.law.rho_ref * self.grid.ops.face_l2norm(ext.u, ext.v) ** 2
        tol = self.options.tol_energy * scale
        return EnergyRecord(state.t, state.eps, lhs, rhs, bool(lhs <= rhs + tol))
