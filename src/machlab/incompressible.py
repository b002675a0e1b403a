"""Chorin-projection solver for the incompressible target system.

Shares the staggered grid, upwind transport, and Neumann Poisson solver
with the compressible solver so the two trajectories carry the same
discretization bias; the fixed frame again makes the obstacle static with
relative transport velocity U - m'(t). Kinematic form: the constant
reference density is divided out.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import CflViolation, NanDetected
from .geometry import Grid, MotionPath, enforce_bc, eval_motion
from .operators import component_masks, mirror_laplacian, upwind_transport
from .spectral import helmholtz_project


@dataclass(frozen=True)
class IncompressibleState:
    u: np.ndarray  # (nx+1, ny)
    v: np.ndarray  # (nx, ny+1)
    pressure: np.ndarray  # (nx, ny), kinematic
    t: float


@dataclass
class IncompressibleTrajectory:
    times: np.ndarray
    states: list


def project_initial(u0, v0, grid: Grid):
    """Initial data for the target system: the solenoidal part of u0."""
    (hu, hv), _ = helmholtz_project(grid, u0, v0)
    return hu, hv


class IncompressibleSolver:
    def __init__(self, grid: Grid, kinematic_viscosity: float, path: MotionPath,
                 cfl: float = 0.4):
        if kinematic_viscosity <= 0.0:
            raise ValueError("kinematic viscosity must be positive")
        self.grid = grid
        self.nu = float(kinematic_viscosity)
        self.path = path
        self.cfl = float(cfl)

    def init_state(self, u0, v0) -> IncompressibleState:
        """Solenoidal projection of u0, made compatible with the moving BC.

        Pinning the obstacle-face normal velocity to m'(0) reintroduces
        cell divergence next to the boundary, so one pressure projection
        follows; for a static obstacle it is an exact no-op.
        """
        g = self.grid
        hu, hv = project_initial(u0, v0, g)
        state = enforce_bc(
            g, self.path, IncompressibleState(hu, hv, np.zeros((g.nx, g.ny)), 0.0)
        )
        rhs = -g.ops.pack(g.ops.div(state.u, state.v, include_boundary_faces=True))
        theta = g.ops.unpack(g.ops.poisson_solve(rhs))
        gu, gv = g.ops.grad(theta)
        return enforce_bc(g, self.path, replace(state, u=state.u - gu, v=state.v - gv))

    def cfl_limit(self, state: IncompressibleState) -> float:
        g = self.grid
        _, mp, _ = eval_motion(self.path, state.t)
        umax = max(
            float(np.abs(state.u).max(initial=0.0)),
            float(np.abs(state.v).max(initial=0.0)),
        ) + float(np.linalg.norm(mp))
        bounds = [g.h**2 / (4.0 * self.nu)]
        if umax > 0.0:
            bounds.append(g.h / umax)
        return self.cfl * min(bounds)

    def step(self, state: IncompressibleState, dt: float) -> IncompressibleState:
        """Explicit upwind advection-diffusion, then exact discrete projection."""
        if dt > self.cfl_limit(state) * (1.0 + 1e-9):
            raise CflViolation(
                f"dt = {dt:.3e} exceeds the stability bound {self.cfl_limit(state):.3e}"
            )
        g = self.grid
        _, mp, _ = eval_motion(self.path, state.t)
        wu = state.u - mp[0]
        wv = state.v - mp[1]

        x_masks, y_masks = component_masks(g)
        u_star = self._transport(state.u, wu, wv, dt, *x_masks)
        v_star = self._transport(state.v.T, wv.T, wu.T, dt, *y_masks).T

        # the projection must see the obstacle velocity of the new time
        t_new = state.t + dt
        star = enforce_bc(g, self.path, replace(state, u=u_star, v=v_star, t=t_new))
        rhs = -g.ops.pack(g.ops.div(star.u, star.v, include_boundary_faces=True))
        theta = g.ops.unpack(g.ops.poisson_solve(rhs))
        gu, gv = g.ops.grad(theta)
        u_new = star.u - gu
        v_new = star.v - gv
        out = enforce_bc(
            g, self.path, IncompressibleState(u_new, v_new, theta / dt, t_new)
        )
        if not (np.all(np.isfinite(out.u)) and np.all(np.isfinite(out.v))):
            raise NanDetected(f"non-finite velocity at t = {out.t:.6g}")
        return out

    def _transport(self, un, wn, wt, dt, interior, boundary, other_ok, cell_act):
        """Upwind advection and explicit diffusion of one component."""
        h = self.grid.h
        du = upwind_transport(un, wn, wt, interior, other_ok, cell_act, h)
        lap = mirror_laplacian(un, interior | boundary, h)
        du[1:-1, :] -= self.nu * lap[1:-1, :]
        return np.where(interior, un - dt * du, un)

    def run(
        self,
        state0: IncompressibleState,
        sample_times: Sequence[float],
        dt_policy="adaptive",
    ) -> IncompressibleTrajectory:
        times = [float(s) for s in sample_times]
        if times != sorted(times) or times[0] < state0.t - 1e-12:
            raise ValueError("sample times must be increasing and start at t0")
        traj = IncompressibleTrajectory(np.array(times), [])
        state = state0
        for target in times:
            while state.t < target - 1e-12:
                limit = self.cfl_limit(state)
                dt = limit if dt_policy == "adaptive" else min(float(dt_policy), limit)
                dt = min(dt, target - state.t)
                state = self.step(state, dt)
            traj.states.append(state)
        return traj
