"""Explicit staggered finite-volume solver for the scaled compressible system.

The system is integrated in the fixed frame, where the obstacle is static
and transport happens with the relative velocity u - m'(t): mass and
momentum fluxes are Rusanov-stabilized first-order upwind, the pressure
gradient (carrying the 1/eps^2 stiffness) and viscous terms are centered,
and a cosine-ramped sponge layer relaxes the rim toward the far-field
state to emulate radiation to infinity. The energy ledger books as
dissipation the work -<u, F_visc> of the viscous force each step applies,
which the step reduces on the faces where it applies it (the face-based
kinetic-energy balance of staggered schemes), and as lifting work the
integral of S:grad V - rho (u x u):grad V - rho u.dV/dt, read from the
lifting field itself on its support box; without a lifting the ledger
forms no velocity gradient.

The step re-checks no invariant it keeps: active density is positive
(init_state, the vacuum check) and other cells hold rho_ref (a fresh
state's ghosts 0, read by exterior faces only), so pressure and sound
speed skip the sign scan and the face density needs no positivity mask.
The lifting work reads active cells only, and the known faces its step
built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .constitutive import PressureLaw, ViscosityPair, pressure_slope, relative_entropy
from .errors import ConfigValidationError, NanDetected, VacuumState
from .geometry import (
    CFL,
    ExplicitStepper,
    ExtensionFieldSample,
    Grid,
    MotionPath,
    build_lifting,
    enforce_bc,
    eval_motion,
    lifting_sample,
)
from .operators import average_to_face, face_divergence, known_faces, known_gradient
from .operators import mirror_laplacian, upwind_transport


@dataclass(frozen=True)
class FluidState:
    """Density at centers, velocity components at faces, in the fixed frame.

    The fields are cell and face views of flat buffers in the grid's
    padded layout, which the next step reads without a copy. sponge_mass
    is the mass the sponge added in the step that produced this state,
    viscous_work the energy its viscous force dissipated there,
    -dt h^2 <u, F_visc> over the interior faces of both components (both
    zero for initial states).
    """

    rho: np.ndarray  # (nx, ny)
    u: np.ndarray  # (nx+1, ny)
    v: np.ndarray  # (nx, ny+1)
    t: float
    eps: float
    sponge_mass: float = 0.0
    viscous_work: float = 0.0


DATA_BOUND = 100.0  # init_state refuses rho1 with L2 + Linf norms above this
TOL_ENERGY = 1e-3  # energy flag slack, a share of the initial energy


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


class RunSample(NamedTuple):
    """What `CompressibleSolver.run` yields at one sample time: the state,
    a copy of the energy ledger there, the total mass and the sponge's
    cumulative mass flux. The state and the ledger give the energy record
    (energy_report); the state alone gives everything else a sample is
    read for, so a stored snapshot can stand in for it."""

    state: FluidState
    ledger: EnergyLedger
    total_mass: float
    sponge_mass: float


def instant_energy(grid: Grid, law: PressureLaw, state: FluidState) -> float:
    """Kinetic plus scaled internal (relative-entropy) energy of a state."""
    lay = grid.layout
    uc, vc = map(lay.cells, lay.centers(state.u, state.v))
    kinetic = 0.5 * state.rho * (uc**2 + vc**2)
    internal = relative_entropy(law, state.rho) / state.eps**2
    total = np.where(grid.active, kinetic + internal, 0.0)
    return float(np.sum(total)) * grid.h**2


def _mass_flux(rho, wn, c_cell, masks):
    """Rusanov mass flux on one face family, all arrays flat in the padded
    layout: (w/2) (rho+ + rho-) - (lam/2) (rho+ - rho-) with
    lam = |w| + max(c+, c-), face k between cells k - normal and k.

    Only interior faces carry flux; boundary and edge faces carry zero
    relative flux.
    """
    s = masks.normal
    f = np.empty_like(wn)  # the first s entries are exterior, zeroed last
    mid = np.add(rho[s:], rho[:-s], out=f[s:])
    half_w = np.multiply(wn[s:], 0.5)
    mid *= half_w
    half_lam = np.abs(wn[s:], out=half_w)
    jump = np.maximum(c_cell[s:], c_cell[:-s])
    half_lam += jump
    half_lam *= 0.5
    np.subtract(rho[s:], rho[:-s], out=jump)
    jump *= half_lam
    mid -= jump
    f[masks.exterior_faces] = 0.0
    return f


class CompressibleSolver(ExplicitStepper):
    """Owns the discretization of one (grid, law, viscosity, path) setup;
    a sponge_width of 0 turns the sponge off."""

    def __init__(
        self,
        grid: Grid,
        law: PressureLaw,
        visc: ViscosityPair,
        path: MotionPath,
        sponge_width: float = 0.0,
    ):
        self.grid = grid
        self.law = law
        self.visc = visc
        self.path = path
        self.sponge_width = sponge_width
        self._keep = self._sponge_keep()
        self.lifting = build_lifting(grid, path, sponge_width)
        self._known_of = (None, None, None)  # the last step's state and known_faces

    def _sponge_keep(self):
        """The share 1 - s of the cell, x-face and y-face fields that the
        sponge keeps in one step, s its sin^2 ramp over the rim layer, flat
        in the padded layout; None without a sponge."""
        g = self.grid
        w = self.sponge_width
        if w <= 0.0:
            return None

        def keep(x, y):
            d = np.minimum.reduce([x - g.x0, g.x1 - x, y - g.y0, g.y1 - y])
            s = np.clip((w - d) / w, 0.0, 1.0)
            return 1.0 - np.sin(0.5 * math.pi * s) ** 2

        pad = g.layout.padded
        return (pad(keep(*g.cell_centers())), pad(keep(*g.xface_coords())),
                pad(keep(*g.yface_coords())))

    # -- state construction -------------------------------------------------

    def init_state(self, rho1, u0, v0, eps: float) -> FluidState:
        """Ill-prepared initial state rho_ref + eps*rho1, (u0, v0), with
        boundary projection; the caller's arrays enter the padded layout
        here, as copies."""
        g = self.grid
        lay = g.layout
        norm_l2 = g.l2norm(rho1)
        norm_linf = g.lq_norm(rho1, np.inf)
        if norm_l2 + norm_linf > DATA_BOUND:
            raise ConfigValidationError([
                f"ill-prepared data norms {norm_l2 + norm_linf:.3g} exceed "
                f"the bound {DATA_BOUND:.3g}"
            ])
        rho = np.where(g.active, self.law.rho_ref + eps * rho1, self.law.rho_ref)
        if np.any(rho[g.active] <= 0.0):
            raise VacuumState("initial density is not positive everywhere")
        return enforce_bc(g, self.path, FluidState(
            lay.enter(rho), lay.enter(u0), lay.enter(v0), 0.0, eps))

    # -- stability ----------------------------------------------------------

    def cfl_limit(self, state: FluidState) -> float:
        """Largest stable dt: CFL times the state's stability bound.

        The acoustic and advective bounds carry the directional-sum factor
        1/d: explicit 2D stability needs dt * (lam_x + lam_y) / h below the
        CFL number, which is stricter than the per-direction bound.
        """
        g = self.grid
        law = self.law
        lay = g.layout
        xm, ym = g.component_masks
        d = float(g.dimension)
        rho = lay.flat(state.rho).copy()  # plain maxima after indexed writes
        rho[xm.inactive_cells] = -np.inf
        c_sup = math.sqrt(float(pressure_slope(law, float(rho.max())))) / state.eps
        _, mp, _ = eval_motion(self.path, state.t)
        speed = [np.abs(lay.flat(state.u)), np.abs(lay.flat(state.v))]
        speed[0][xm.exterior_faces] = 0.0
        speed[1][ym.exterior_faces] = 0.0
        umax = max(float(speed[0].max()), float(speed[1].max())) + float(np.linalg.norm(mp))
        bounds = [g.h / (d * c_sup), g.h**2 * law.rho_ref / (4.0 * self.visc.shear)]
        if umax > 0.0:
            bounds.append(g.h / (d * umax))
        return CFL * min(bounds)

    # -- single step ----------------------------------------------------------

    def step(self, state: FluidState, dt: float) -> FluidState:
        """One conservative explicit update; raises on CFL, vacuum, or NaN.

        Every field is flat in the grid's padded layout, and both velocity
        components run the same kernels with their strides swapped.
        """
        self._check_step(state, dt)
        g = self.grid
        lay = g.layout
        h = g.h
        law = self.law
        eps = state.eps
        _, mp, _ = eval_motion(self.path, state.t)

        rho, u, v = lay.flat(state.rho), lay.flat(state.u), lay.flat(state.v)
        # f - 0.0 is f bit for bit (f - -0.0 is not): a body at rest needs no copy
        wu, wv = (f - m if m or math.copysign(1.0, m) < 0.0 else f for f, m in zip((u, v), mp))
        # sqrt(p'(rho)) / eps and p(rho) as constitutive forms them, unchecked
        c_cell = law.coeff * law.gamma * rho ** (law.gamma - 1.0)
        np.sqrt(c_cell, out=c_cell)
        c_cell /= eps

        xm, ym = g.component_masks
        fmx = _mass_flux(rho, wu, c_cell, xm)
        fmy = _mass_flux(rho, wv, c_cell, ym)

        # rho - (dt/h) (flux differences), accumulated in place; cell k
        # lies between x-faces k, k + s and y-faces k, k + 1, and the last
        # row is ghosts
        s = lay.row
        rho_new = np.empty_like(rho)
        mid = np.subtract(fmx[s:], fmx[:-s], out=rho_new[:-s])
        mid += fmy[1:1 - s]
        mid -= fmy[:-s]
        mid *= dt / h
        np.subtract(rho[:-s], mid, out=mid)
        rho_new[xm.inactive_cells] = law.rho_ref
        # rho_ref > 0 off the active cells; fmin skips NaN as `<=` does
        if np.fmin.reduce(rho_new) <= 0.0:
            raise VacuumState(f"density lost positivity at t = {state.t:.6g}")

        p_cell = law.coeff * rho**law.gamma
        um, vm = known_faces(g, u, v)
        self._known_of = (state, um, vm)
        div_full = face_divergence(g, um, vm)

        u_new, work_u = self._momentum_update(
            rho, rho_new, u, um, wu, wv, p_cell, div_full, eps, dt, xm
        )
        v_new, work_v = self._momentum_update(
            rho, rho_new, v, vm, wv, wu, p_cell, div_full, eps, dt, ym
        )
        viscous_work = -dt * h**2 * (work_u + work_v)

        # sponge relaxation toward the far-field rest state, mass change logged
        sponge_mass = 0.0
        if self._keep is not None:
            keep_cell, keep_u, keep_v = self._keep
            before = float(np.sum(rho_new[xm.active]))
            rho_new -= law.rho_ref  # a cell at rho_ref stays there, bit for bit
            rho_new *= keep_cell
            rho_new += law.rho_ref
            sponge_mass = (float(np.sum(rho_new[xm.active])) - before) * h**2
            u_new *= keep_u
            v_new *= keep_v

        # enforce_bc writes u_new and v_new in place, ghosts included
        out = enforce_bc(g, self.path, FluidState(
            lay.cells(rho_new), lay.xfaces(u_new), lay.yfaces(v_new), state.t + dt, eps,
            sponge_mass, viscous_work))
        if not all(np.isfinite(f).all() for f in (rho_new, u_new, v_new)):
            raise NanDetected(f"non-finite field value at t = {out.t:.6g}")
        return out

    def _momentum_update(
        self, rho, rho_new, un, um, wn, wt, p_cell, div_full, eps, dt, masks,
    ):
        """Update one velocity component; every array is flat in the padded
        layout. Returns the new component and <um, F_visc>, the sum over
        its interior faces of the velocity times the viscous force applied.

        un is the component being updated, um its copy with the unknown
        faces zeroed, wn its frame-relative version, wt the relative
        transverse component on the other face family, masks its
        ComponentMasks, whose strides orient every stencil, so both
        components share this code path. Face k lies between cells
        k - masks.normal and k.
        """
        h = self.grid.h
        s = masks.normal

        # the edge faces are rim faces at rest: a zero density there is exact
        q = average_to_face(rho, s, masks.layout)
        q *= un

        # upwind momentum transport on the advective scale |w| (the
        # acoustic-scale stabilization lives in the mass flux), which keeps
        # the effective viscosity Mach-uniform instead of O(h/eps). The
        # update below also reaches the edge faces and ghosts, which the
        # last line overwrites
        dq = upwind_transport(q, wn, wt, masks, h)
        inner = dq[s:]

        # centered pressure gradient carrying the 1/eps^2 stiffness
        diff = np.subtract(p_cell[s:], p_cell[:-s])
        diff /= h * eps**2
        inner += diff

        # viscous mu*(lap u + (1/3) grad div u) + eta*grad div u, then zero
        # off the interior faces (the first s faces too, which visc skips):
        # the last line resets q there
        mu, eta = self.visc.shear, self.visc.bulk
        force = mirror_laplacian(un, masks, h)
        visc = force[s:]
        visc *= mu
        np.subtract(div_full[s:], div_full[:-s], out=diff)
        diff /= h
        diff *= mu / 3.0 + eta
        visc += diff
        force[masks.exterior_faces] = 0.0
        inner -= visc
        # its work on the known faces: a plain pairwise sum, whose bits do
        # not depend on a BLAS thread count as np.dot's may
        force *= um
        work = float(np.sum(force))

        # q - dt dq over the new face density; its edges hold 1, reset below
        dq *= dt
        q -= dq
        q /= average_to_face(rho_new, s, masks.layout, fill=1.0)
        q[masks.exterior_faces] = un[masks.exterior_faces]
        return q, work

    # -- trajectory ----------------------------------------------------------

    def run(self, state: FluidState, sample_times: Sequence[float]) -> Iterator[RunSample]:
        """Advance from the initial state hitting each sample time exactly,
        yielding a RunSample there.

        Each step is the CFL bound of its state, shortened to land on the
        next sample time; a fixed step is `step(state, dt)` in a loop. As a
        generator, run checks the schedule at the first `next()` and holds
        a sampled state, the initial one too, only until the step that
        follows it. It samples the lifting field once, at the initial
        state, for the ledger's initial coupling.
        """
        times = [float(s) for s in sample_times]
        if not times or times != sorted(times) or times[0] < state.t - 1e-12:
            raise ValueError("sample times must be nonempty, increasing and start at t0")

        ledger = self._open_ledger(state)
        sponge_total = 0.0
        for target in times:
            while state.t < target - 1e-12:
                dt = min(self._stable_dt(state), target - state.t)
                new_state = self.step(state, dt)
                sponge_total += new_state.sponge_mass
                ledger.dissipation += new_state.viscous_work
                self._accumulate(ledger, state, dt)
                state = new_state
            yield RunSample(state, replace(ledger), self._total_mass(state), sponge_total)

    def _total_mass(self, state: FluidState) -> float:
        return float(np.sum(state.rho[self.grid.active])) * self.grid.h**2

    # -- energy inequality monitor -------------------------------------------

    def _v_coupling(self, state: FluidState, ext: ExtensionFieldSample) -> float:
        if self.lifting is None:
            return 0.0
        g = self.grid
        lay = g.layout
        uc, vc = map(lay.cells, lay.centers(state.u, state.v))
        ecu, ecv = map(lay.cells, lay.centers(ext.u, ext.v))
        val = state.rho * (uc * ecu + vc * ecv)
        return float(np.sum(val[g.active])) * g.h**2

    def _open_ledger(self, state0: FluidState) -> EnergyLedger:
        return EnergyLedger(
            initial_energy=instant_energy(self.grid, self.law, state0),
            initial_v_coupling=self._v_coupling(
                state0, lifting_sample(self.lifting, self.grid, state0.t)),
        )

    def _accumulate(self, ledger: EnergyLedger, state: FluidState, dt: float):
        """Add one step of lifting work S:grad V - rho (u x u):grad V -
        rho u.dV/dt, integrated on the lifting's support box only, from its
        box fields and the velocity gradient formed on the lifting's block
        around the box; the step books the dissipation. Without a lifting
        it forms nothing.
        """
        lifting = self.lifting
        if lifting is None:
            return
        g = self.grid
        mu, eta = self.visc.shear, self.visc.bulk
        um, vm = (self._known_of[1:] if self._known_of[0] is state
                  else known_faces(g, state.u, state.v))
        block, blay = lifting.block, lifting.block_layout
        um, vm = (f.reshape(g.layout.shape)[block].ravel() for f in (um, vm))
        (gxx, gxy, gyx, gyy), avgs = known_gradient(g, um, vm, blay)

        def box(f):  # the box cells of a flat block field
            return blay.cells(f)[1:-1, 1:-1]

        div_box = box(gxx + gyy)
        gv, dv, shear_v = lifting.box_terms(state.t)
        rho = state.rho[lifting.box]
        uc, vc = map(box, avgs)
        lam = eta - (2.0 / 3.0) * mu
        sxx = 2.0 * mu * box(gxx) + lam * div_box
        syy = 2.0 * mu * box(gyy) + lam * div_box
        sxy = mu * box(gxy + gyx)
        integrand = (
            (sxx - rho * uc * uc) * gv[..., 0, 0]
            + (sxy - rho * uc * vc) * shear_v
            + (syy - rho * vc * vc) * gv[..., 1, 1]
            - rho * (uc * dv[..., 0] + vc * dv[..., 1])
        )
        ledger.v_work += dt * float(np.sum(integrand[lifting.box_active])) * g.h**2

    def energy_report(self, state: FluidState, ledger: EnergyLedger,
                      ext: ExtensionFieldSample) -> EnergyRecord:
        """Both sides of the discrete energy inequality and the verdict flag;
        ext is the lifting field V at state.t.

        The tolerance is TOL_ENERGY times the initial energy; runs
        started from rest with a moving obstacle fall back to the kinetic
        scale of the lifting field so the comparison has a usable yardstick.
        """
        lhs = instant_energy(self.grid, self.law, state) + ledger.dissipation
        rhs = (
            ledger.initial_energy
            + self._v_coupling(state, ext)
            - ledger.initial_v_coupling
            + ledger.v_work
        )
        scale = ledger.initial_energy
        if scale <= 0.0 and self.lifting is not None:
            scale = 0.5 * self.law.rho_ref * self.grid.ops.face_l2norm(ext.u, ext.v) ** 2
        tol = TOL_ENERGY * scale
        return EnergyRecord(state.t, state.eps, lhs, rhs, bool(lhs <= rhs + tol))
