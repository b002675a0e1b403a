"""Chorin-projection solver for the incompressible target system.

Shares the staggered grid and upwind transport with the compressible
solver so the two trajectories carry the same discretization bias, and
projects through DiscreteOperators.helmholtz, the one projection; the
fixed frame again makes the obstacle static with relative transport
velocity U - m'(t). Kinematic form: the constant reference density is
divided out.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import NanDetected
from .geometry import CFL, ExplicitStepper, Grid, MotionPath, enforce_bc, eval_motion
from .operators import mirror_laplacian, upwind_transport


@dataclass(frozen=True)
class IncompressibleState:
    u: np.ndarray  # (nx+1, ny) face views in the grid's padded layout
    v: np.ndarray  # (nx, ny+1)
    t: float


@dataclass
class IncompressibleTrajectory:
    times: np.ndarray
    states: list


class IncompressibleSolver(ExplicitStepper):
    def __init__(self, grid: Grid, kinematic_viscosity: float, path: MotionPath):
        if kinematic_viscosity <= 0.0:
            raise ValueError("kinematic viscosity must be positive")
        self.grid = grid
        self.nu = float(kinematic_viscosity)
        self.path = path

    def init_state(self, u0, v0) -> IncompressibleState:
        """Solenoidal projection of the face arrays u0, v0, copied into the
        padded layout, made compatible with the moving BC.

        Pinning the obstacle-face normal velocity to m'(0) reintroduces
        cell divergence next to the boundary, so one pressure projection
        follows; for a static obstacle it is an exact no-op.
        """
        g = self.grid
        hu, hv, _ = g.ops.helmholtz(g.layout.enter(u0), g.layout.enter(v0))
        return self._project(
            enforce_bc(g, self.path, IncompressibleState(hu, hv, 0.0))
        )

    def _project(self, state: IncompressibleState) -> IncompressibleState:
        """Pressure projection of a state whose boundary faces hold their
        prescribed values: the boundary flux enters the divergence, and
        the boundary condition is imposed again on the result."""
        hu, hv, _ = self.grid.ops.helmholtz(state.u, state.v, include_boundary_faces=True)
        return enforce_bc(self.grid, self.path, replace(state, u=hu, v=hv))

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
        return CFL * min(bounds)

    def step(self, state: IncompressibleState, dt: float) -> IncompressibleState:
        """Explicit upwind advection-diffusion, then exact discrete projection."""
        self._check_step(state, dt)
        g = self.grid
        _, mp, _ = eval_motion(self.path, state.t)
        lay = g.layout
        u, v = lay.flat(state.u), lay.flat(state.v)
        wu = u - mp[0]
        wv = v - mp[1]

        xm, ym = g.component_masks
        u_star = lay.xfaces(self._transport(u, wu, wv, dt, xm))
        v_star = lay.yfaces(self._transport(v, wv, wu, dt, ym))

        # the projection must see the obstacle velocity of the new time
        t_new = state.t + dt
        out = self._project(
            enforce_bc(g, self.path, replace(state, u=u_star, v=v_star, t=t_new))
        )
        if not (np.all(np.isfinite(out.u)) and np.all(np.isfinite(out.v))):
            raise NanDetected(f"non-finite velocity at t = {out.t:.6g}")
        return out

    def _transport(self, un, wn, wt, dt, masks):
        """Upwind advection and explicit diffusion of one component, flat
        in the padded layout like its inputs; faces outside the unknowns
        keep their values."""
        h = self.grid.h
        du = upwind_transport(un, wn, wt, masks, h)
        lap = mirror_laplacian(un, masks, h)
        lap *= self.nu
        du -= lap
        du *= dt
        np.subtract(un, du, out=du)
        du[masks.exterior_faces] = un[masks.exterior_faces]
        return du

    def run(self, state0: IncompressibleState,
            sample_times: Sequence[float]) -> IncompressibleTrajectory:
        """Advance from state0 hitting each sample time exactly, each step
        the CFL bound of its state shortened to land on the next sample
        time; a fixed step is `step(state, dt)` in a loop."""
        times = [float(s) for s in sample_times]
        if not times or times != sorted(times) or times[0] < state0.t - 1e-12:
            raise ValueError("sample times must be nonempty, increasing and start at t0")
        traj = IncompressibleTrajectory(np.array(times), [])
        state = state0
        for target in times:
            while state.t < target - 1e-12:
                dt = min(self._stable_dt(state), target - state.t)
                state = self.step(state, dt)
            traj.states.append(state)
        return traj
