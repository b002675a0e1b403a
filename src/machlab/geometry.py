"""Fixed exterior domain, obstacle motion, and the divergence-free lifting.

The computational domain is a truncated box around a disk obstacle centered
at the origin of the fixed frame. Scalars live at cell centers, velocity
components at faces (MAC staggering). Cells inside the disk are inactive.
Each velocity component's faces are classified once, in the padded layout
and from the padded active mask (operators.ComponentMasks): interior
(carrying an unknown), obstacle stair faces, or outer-rim faces; every
stencil reads these masks. The lifting field owns
everything derived from it: its face samples, its two unit fields cut to
its support box, and its velocity gradient and moving-frame derivative
there, which the energy ledger and the wave forcing both read. Beside
enforce_bc, the boundary condition of either solver's state, sit the CFL
number and the step policy both explicit solvers share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import CflViolation, GeometryTooCoarse, OutOfHorizon
from .operators import (
    ComponentMasks,
    DiscreteOperators,
    PaddedLayout,
    nodal_curl,
    smoothstep,
    velocity_gradient_components,
)


class Grid:
    """Staggered Cartesian grid on [x0, x0 + nx*h] x [y0, y0 + ny*h].

    Immutable after construction; derived discrete operators are cached
    lazily by the operators module.
    """

    def __init__(self, x0, y0, nx, ny, h, obstacle_radius=0.0, dimension=2):
        if dimension != 2:
            raise NotImplementedError("desk-scale build is two-dimensional")
        self.dimension = dimension
        self.x0 = float(x0)
        self.y0 = float(y0)
        self.nx = int(nx)
        self.ny = int(ny)
        self.h = float(h)
        self.obstacle_radius = float(obstacle_radius)
        self.x1 = self.x0 + self.nx * self.h
        self.y1 = self.y0 + self.ny * self.h
        self._classify()
        self._ops = None

    # -- geometry helpers -------------------------------------------------

    def _mesh(self, x_shift, y_shift):
        """Meshgrid of the points (x0 + (i + x_shift) h, y0 + (j + y_shift) h);
        an axis with zero shift runs over the cell edges, one point more."""
        x = self.x0 + (np.arange(self.nx + (x_shift == 0)) + x_shift) * self.h
        y = self.y0 + (np.arange(self.ny + (y_shift == 0)) + y_shift) * self.h
        return np.meshgrid(x, y, indexing="ij")

    def cell_centers(self):
        """Meshgrid (X, Y) of cell-center coordinates, shape (nx, ny)."""
        return self._mesh(0.5, 0.5)

    def nodes(self):
        """Meshgrid of node coordinates, shape (nx+1, ny+1)."""
        return self._mesh(0, 0)

    def xface_coords(self):
        return self._mesh(0, 0.5)

    def yface_coords(self):
        return self._mesh(0.5, 0)

    def _classify(self):
        xc, yc = self.cell_centers()
        a = self.obstacle_radius
        act = np.ones((self.nx, self.ny), dtype=bool)
        if a > 0.0:
            act = xc**2 + yc**2 >= a**2
        self.active = act

        # the padded layout of every cell and face field, the face classes
        # of each component read off its padded active mask, and the active
        # cells around each interior node
        self.layout = PaddedLayout(self.nx, self.ny)
        active = self.layout.padded(act, False)
        self.component_masks = (ComponentMasks(self.layout, self.layout.row, active),
                                ComponentMasks(self.layout, 1, active))
        a = act.astype(float)
        self.corner_cells = np.zeros(self.layout.size)
        self.corner_cells.reshape(self.layout.shape)[1:-1, 1:-1] = (
            a[1:, 1:] + a[:-1, 1:] + a[1:, :-1] + a[:-1, :-1])

        self.n_active = int(np.count_nonzero(act))
        # outermost ring of active cells, where the far field is checked
        self.cell_rim = act.copy()
        self.cell_rim[1:-1, 1:-1] = False

    # -- cached discrete operators ----------------------------------------

    @property
    def ops(self):
        if self._ops is None:
            self._ops = DiscreteOperators(self)
        return self._ops

    def l2norm(self, cell_field):
        """Grid L2 norm of a cell field, restricted to active cells."""
        return self.h * math.sqrt(float(np.sum(cell_field[self.active] ** 2)))

    def lq_norm(self, cell_field, q):
        """Grid Lq norm over active cells; q = inf gives the max norm."""
        vals = np.abs(cell_field[self.active])
        if np.isinf(q):
            return float(vals.max(initial=0.0))
        return float((self.h**2 * np.sum(vals**q)) ** (1.0 / q))


def build_grid(dimension: int, extent: float, obstacle_radius: float, cell_size: float) -> Grid:
    """Classified staggered grid on [-extent, extent]^2 around a disk.

    Raises GeometryTooCoarse when fewer than 4 cells span the obstacle
    diameter, and rejects geometries violating the basic invariants
    (cell_size divides 2*extent, obstacle strictly interior with room for
    a window and a sponge layer).
    """
    L, a, h = float(extent), float(obstacle_radius), float(cell_size)
    if h <= 0.0 or L <= 0.0:
        raise ValueError("extent and cell_size must be positive")
    n = 2.0 * L / h
    if abs(n - round(n)) > 1e-9 * max(1.0, n):
        raise ValueError(f"cell_size {h} does not divide the box side {2 * L}")
    if 2.0 * a / h < 4.0:
        raise GeometryTooCoarse(
            f"obstacle diameter {2 * a} spans {2 * a / h:.2f} < 4 cells"
        )
    if not a > 2.0 * h:
        raise ValueError("obstacle radius must exceed 2 cells")
    if not L > 4.0 * a:
        raise ValueError("domain must satisfy extent > 4 * obstacle_radius")
    n = int(round(n))
    return Grid(-L, -L, n, n, h, obstacle_radius=a, dimension=dimension)


# -- obstacle motion -------------------------------------------------------


@dataclass(frozen=True)
class MotionPath:
    """Obstacle translation m(t) with first and second derivatives.

    m(0) must vanish; the three callables return length-2 vectors.
    """

    m: Callable[[float], np.ndarray]
    m_prime: Callable[[float], np.ndarray]
    m_double: Callable[[float], np.ndarray]
    horizon: float
    kind: str = "custom"

    def __post_init__(self):
        if self.horizon < 0.0:
            raise ValueError("horizon must be nonnegative")
        if np.linalg.norm(np.asarray(self.m(0.0), dtype=float)) > 1e-12:
            raise ValueError("motion path must satisfy m(0) = 0")


def static_path(horizon: float) -> MotionPath:
    zero = lambda t: np.zeros(2)
    return MotionPath(zero, zero, zero, horizon, kind="static")


def linear_path(velocity, horizon: float) -> MotionPath:
    v = np.asarray(velocity, dtype=float)
    return MotionPath(
        lambda t: v * t,
        lambda t: v.copy(),
        lambda t: np.zeros(2),
        horizon,
        kind="linear",
    )


def sinusoidal_path(amplitude, frequency: float, horizon: float) -> MotionPath:
    """m(t) = A * sin(omega t) with omega = frequency."""
    amp = np.asarray(amplitude, dtype=float)
    w = float(frequency)
    return MotionPath(
        lambda t: amp * math.sin(w * t),
        lambda t: amp * w * math.cos(w * t),
        lambda t: -amp * w * w * math.sin(w * t),
        horizon,
        kind="sinusoidal",
    )


def eval_motion(path: MotionPath, t: float):
    """Evaluate (m, m', m'') at time t within the horizon."""
    if t < -1e-12 or t > path.horizon + 1e-12:
        raise OutOfHorizon(f"t = {t} outside [0, {path.horizon}]")
    return (
        np.asarray(path.m(t), dtype=float),
        np.asarray(path.m_prime(t), dtype=float),
        np.asarray(path.m_double(t), dtype=float),
    )


def enforce_bc(grid: Grid, path: MotionPath, state):
    """Move the obstacle faces of a fluid state (any dataclass with u, v,
    t) with the body and put its truncation rim at rest: the buffers of
    its u and v views, ghosts included, are written. Returns the state."""
    _, mp, _ = eval_motion(path, state.t)
    xm, ym = grid.component_masks
    u, v = grid.layout.flat(state.u), grid.layout.flat(state.v)
    u[xm.exterior_faces] = mp[0]
    v[ym.exterior_faces] = mp[1]
    u[xm.rim_faces] = 0.0
    v[ym.rim_faces] = 0.0
    return state


CFL = 0.4  # share of its state's stability bound that an explicit step takes


class ExplicitStepper:
    """The step policy both explicit solvers share. A subclass defines
    cfl_limit(state), CFL times its stability bound; a step must be
    positive and may exceed that limit by a 1e-9 relative slack only."""

    _limit_of = None  # (state, cfl_limit(state)) of the last step

    def _stable_dt(self, state) -> float:
        """cfl_limit(state), evaluated once per state: run sizes the step
        with it and step's guard reads the same value."""
        if self._limit_of is None or self._limit_of[0] is not state:
            self._limit_of = (state, self.cfl_limit(state))
        return self._limit_of[1]

    def _check_step(self, state, dt: float):
        """Raise unless 0 < dt <= the limit of state."""
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        limit = self._stable_dt(state)
        if dt > limit * (1.0 + 1e-9):
            raise CflViolation(f"dt = {dt:.3e} exceeds the stability bound {limit:.3e}")


# -- divergence-free extension field ---------------------------------------


@dataclass(frozen=True)
class ExtensionFieldSample:
    """One time slice of the lifting field V: its face components (views)."""

    u: np.ndarray
    v: np.ndarray


def lifting_collar(obstacle_radius, cell_size, support_radius):
    """Inner radius of the lifting's taper, inside which V = m'.

    The stream function must die one cell before the support radius so
    every face beyond it has all its nodes in the zero region; a support
    radius leaving no room for that raises ValueError.
    """
    a, h, R = obstacle_radius, cell_size, support_radius
    collar = a + max(4.0 * h, 0.15 * (R - a))
    if collar >= R - h:
        raise ValueError("support radius leaves no room for the taper")
    return collar


class ExtensionField:
    """Compactly supported divergence-free lifting of the obstacle velocity.

    Built as the exact discrete curl of a nodal stream function
    psi = taper(|y|) * (vx*y - vy*x), so the discrete divergence vanishes
    identically, V equals m'(t) in a collar around the obstacle (hence
    matches the boundary normal velocity exactly), and V = 0 beyond the
    support radius. The nodes and the taper are computed once; a sample
    only scales them by the obstacle velocity.

    The constructor also cuts the liftings of e_x and e_y (V = m'_x V_x +
    m'_y V_y) to `box`, the bounding box of the active cells where either,
    or its velocity gradient, is nonzero: `box_fields` forms grad V and the
    moving-frame derivative from them there, and both vanish outside it.
    `sample` and `sample_dt` keep their own arithmetic on the full grid.
    """

    _box_terms_of = (None, None)  # the bits of (m', m'') and box_terms there

    def __init__(self, grid: Grid, path: MotionPath, support_radius: float):
        g, R = grid, support_radius
        if not g.obstacle_radius < R:
            raise ValueError("support radius must exceed the obstacle radius")
        if R >= min(g.x1, g.y1, -g.x0, -g.y0):
            raise ValueError("support radius must stay inside the box")
        self.grid = grid
        self.path = path
        self.collar = lifting_collar(g.obstacle_radius, g.h, R)
        self._xn, self._yn = g.nodes()
        r = np.sqrt(self._xn**2 + self._yn**2)
        self._taper = 1.0 - smoothstep((r - self.collar) / (R - g.h - self.collar))

        # each unit field's cell values (nx, ny, 2) and gradient (nx, ny, 4)
        fields = []
        for e in ((1.0, 0.0), (0.0, 1.0)):
            comps, avgs = velocity_gradient_components(g, *self._curl_of(e))
            fields += [np.stack([g.layout.cells(c) for c in part], axis=-1)
                       for part in (avgs, comps)]
        nonzero = g.active & np.any([np.any(f != 0.0, axis=-1) for f in fields], axis=0)
        rows = np.flatnonzero(nonzero.any(axis=1))
        cols = np.flatnonzero(nonzero.any(axis=0))
        if min(rows[0], cols[0]) < 1 or rows[-1] > g.nx - 2 or cols[-1] > g.ny - 2:
            raise ValueError("support box must keep one cell from the grid's edge")
        self.box = (slice(rows[0], rows[-1] + 1), slice(cols[0], cols[-1] + 1))
        self.box_active = g.active[self.box].copy()
        # the box with one padded entry before it and two after it on each
        # axis: known_gradient on this block, in block_layout, forms the
        # box cells' entries of the full grid's gradient
        self.block = (slice(rows[0] - 1, rows[-1] + 3), slice(cols[0] - 1, cols[-1] + 3))
        self.block_layout = PaddedLayout(rows[-1] - rows[0] + 3, cols[-1] - cols[0] + 3)
        # cell-centred values (bx, by, 2) and gradients (bx, by, 2, 2)
        self._centers = [f[self.box].copy() for f in fields[::2]]
        self._grads = [f[self.box].copy().reshape(*self.box_active.shape, 2, 2)
                       for f in fields[1::2]]

    def _curl_of(self, velocity):
        vx, vy = float(velocity[0]), float(velocity[1])
        psi = self._taper * (vx * self._yn - vy * self._xn)
        return nodal_curl(self.grid, psi)

    def sample(self, t: float) -> ExtensionFieldSample:
        """V(t, .) on faces."""
        _, mp, _ = eval_motion(self.path, t)
        return ExtensionFieldSample(*self._curl_of(mp))

    def sample_dt(self, t: float) -> ExtensionFieldSample:
        """Fixed-frame time derivative d/dt V(t, y); linear in m''."""
        _, _, mpp = eval_motion(self.path, t)
        return ExtensionFieldSample(*self._curl_of(mpp))

    def box_fields(self, t: float):
        """(grad V, dV/dt) at cell centres on `box`, shapes (bx, by, 2, 2)
        and (bx, by, 2)."""
        return self.box_terms(t)[:2]

    def box_terms(self, t: float):
        """box_fields(t) and the shear dV_x/dy + dV_y/dx, shape (bx, by).

        The lifting lives on the fixed frame, so its physical time
        derivative picks up the advective correction:
        dV/dt = m''_x V_x + m''_y V_y - (grad V) m'. The last terms are kept,
        keyed on the bits of (m', m''), and shared: no caller writes them.
        """
        _, mp, mpp = eval_motion(self.path, t)
        key = (mp.tobytes(), mpp.tobytes())
        if self._box_terms_of[0] != key:
            (gx, gy), (cx, cy) = self._grads, self._centers
            gv = mp[0] * gx + mp[1] * gy
            dv = mpp[0] * cx + mpp[1] * cy
            dv -= gv[..., 0] * mp[0] + gv[..., 1] * mp[1]
            self._box_terms_of = (key, (gv, dv, gv[..., 0, 1] + gv[..., 1, 0]))
        return self._box_terms_of[1]


def lifting_sample(lifting, grid: Grid, t: float) -> ExtensionFieldSample:
    """V(t) of a lifting field; zero when there is none."""
    if lifting is None:
        lay = grid.layout
        return ExtensionFieldSample(lay.xfaces(np.zeros(lay.size)),
                                    lay.yfaces(np.zeros(lay.size)))
    return lifting.sample(t)


def default_lifting_radius(obstacle_radius, half_width, sponge_width):
    """Support radius of the lifting: three obstacle radii, kept inside the
    sponge-free part of a box of the given half-width."""
    return min(3.0 * obstacle_radius, 0.9 * (half_width - sponge_width))


def build_lifting(grid: Grid, path: MotionPath, sponge_width: float):
    """The lifting field of a moving obstacle at the default radius, or None
    when there is no obstacle or it does not move."""
    if grid.obstacle_radius <= 0.0 or path.kind == "static":
        return None
    half_width = min(grid.x1, -grid.x0, grid.y1, -grid.y0)
    radius = default_lifting_radius(grid.obstacle_radius, half_width, sponge_width)
    return ExtensionField(grid, path, radius)
