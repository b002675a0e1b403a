"""Fixed exterior domain, obstacle motion, and the divergence-free lifting.

The computational domain is a truncated box around a disk obstacle centered
at the origin of the fixed frame. Scalars live at cell centers, velocity
components at faces (MAC staggering). Cells inside the disk are inactive;
faces are classified as interior (carrying an unknown), obstacle stair
faces, or outer-rim faces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import GeometryTooCoarse, OutOfHorizon
from .operators import nodal_curl


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

    def cell_centers(self):
        """Meshgrid (X, Y) of cell-center coordinates, shape (nx, ny)."""
        x = self.x0 + (np.arange(self.nx) + 0.5) * self.h
        y = self.y0 + (np.arange(self.ny) + 0.5) * self.h
        return np.meshgrid(x, y, indexing="ij")

    def nodes(self):
        """Meshgrid of node coordinates, shape (nx+1, ny+1)."""
        x = self.x0 + np.arange(self.nx + 1) * self.h
        y = self.y0 + np.arange(self.ny + 1) * self.h
        return np.meshgrid(x, y, indexing="ij")

    def xface_coords(self):
        x = self.x0 + np.arange(self.nx + 1) * self.h
        y = self.y0 + (np.arange(self.ny) + 0.5) * self.h
        return np.meshgrid(x, y, indexing="ij")

    def yface_coords(self):
        x = self.x0 + (np.arange(self.nx) + 0.5) * self.h
        y = self.y0 + np.arange(self.ny + 1) * self.h
        return np.meshgrid(x, y, indexing="ij")

    def _classify(self):
        xc, yc = self.cell_centers()
        a = self.obstacle_radius
        act = np.ones((self.nx, self.ny), dtype=bool)
        if a > 0.0:
            act = xc**2 + yc**2 >= a**2
        self.active = act

        # interior faces: unknown-carrying, both neighbor cells active
        self.uface_interior = np.zeros((self.nx + 1, self.ny), dtype=bool)
        self.uface_interior[1:-1, :] = act[:-1, :] & act[1:, :]
        self.vface_interior = np.zeros((self.nx, self.ny + 1), dtype=bool)
        self.vface_interior[:, 1:-1] = act[:, :-1] & act[:, 1:]

        # boundary faces split by what prescribes them: obstacle stair faces
        # carry the body's normal velocity, outer-rim faces the far-field
        # rest state
        uo = np.zeros((self.nx + 1, self.ny), dtype=bool)
        uo[1:-1, :] = act[:-1, :] ^ act[1:, :]
        self.uface_obstacle = uo
        ur = np.zeros((self.nx + 1, self.ny), dtype=bool)
        ur[0, :] = act[0, :]
        ur[-1, :] = act[-1, :]
        self.uface_rim = ur
        self.uface_boundary = uo | ur
        vo = np.zeros((self.nx, self.ny + 1), dtype=bool)
        vo[:, 1:-1] = act[:, :-1] ^ act[:, 1:]
        self.vface_obstacle = vo
        vr = np.zeros((self.nx, self.ny + 1), dtype=bool)
        vr[:, 0] = act[:, 0]
        vr[:, -1] = act[:, -1]
        self.vface_rim = vr
        self.vface_boundary = vo | vr

        self.n_active = int(np.count_nonzero(act))
        # outermost ring of active cells, where the far field is checked
        self.cell_rim = act.copy()
        self.cell_rim[1:-1, 1:-1] = False

    # -- cached discrete operators ----------------------------------------

    @property
    def ops(self):
        if self._ops is None:
            from .operators import DiscreteOperators

            self._ops = DiscreteOperators(self)
        return self._ops

    def l2norm(self, cell_field, mask=None):
        """Grid L2 norm of a cell field, restricted to active cells."""
        m = self.active if mask is None else (self.active & mask)
        return self.h * math.sqrt(float(np.sum(cell_field[m] ** 2)))

    def lq_norm(self, cell_field, q, mask=None):
        """Grid Lq norm over active cells; q = inf gives the max norm."""
        m = self.active if mask is None else (self.active & mask)
        vals = np.abs(cell_field[m])
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


def build_rectangle_grid(x0, x1, y0, y1, cell_size) -> Grid:
    """Obstacle-free box grid, used by spectral validation studies."""
    h = float(cell_size)
    nx = (x1 - x0) / h
    ny = (y1 - y0) / h
    for n, name in ((nx, "x"), (ny, "y")):
        if abs(n - round(n)) > 1e-9 * max(1.0, n):
            raise ValueError(f"cell_size does not divide the {name} side")
    return Grid(x0, y0, int(round(nx)), int(round(ny)), h, obstacle_radius=0.0)


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
    """Copy of a fluid state (any dataclass with u, v, t) whose obstacle
    faces move with the body and whose truncation rim is at rest."""
    _, mp, _ = eval_motion(path, state.t)
    u = state.u.copy()
    v = state.v.copy()
    u[~grid.uface_interior] = mp[0]
    v[~grid.vface_interior] = mp[1]
    u[grid.uface_rim] = 0.0
    v[grid.vface_rim] = 0.0
    return replace(state, u=u, v=v)


# -- divergence-free extension field ---------------------------------------


def _taper(r, r_inner, r_outer):
    """Quintic C2 cutoff: 1 for r <= r_inner, 0 for r >= r_outer."""
    s = np.clip((r - r_inner) / (r_outer - r_inner), 0.0, 1.0)
    return 1.0 - s**3 * (10.0 - 15.0 * s + 6.0 * s * s)


@dataclass(frozen=True)
class ExtensionFieldSample:
    """One time slice of the lifting field V: its face components."""

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
    """

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
        self._taper = _taper(r, self.collar, R - g.h)

    def _curl_of(self, velocity):
        vx, vy = float(velocity[0]), float(velocity[1])
        psi = self._taper * (vx * self._yn - vy * self._xn)
        return nodal_curl(psi, self.grid.h)

    def sample(self, t: float) -> ExtensionFieldSample:
        """V(t, .) on faces."""
        _, mp, _ = eval_motion(self.path, t)
        return ExtensionFieldSample(*self._curl_of(mp))

    def sample_dt(self, t: float) -> ExtensionFieldSample:
        """Fixed-frame time derivative d/dt V(t, y); linear in m''."""
        _, _, mpp = eval_motion(self.path, t)
        return ExtensionFieldSample(*self._curl_of(mpp))


def lifting_sample(lifting, grid: Grid, t: float) -> ExtensionFieldSample:
    """V(t) of a lifting field; zero when there is none."""
    if lifting is None:
        zu, zv = np.zeros((grid.nx + 1, grid.ny)), np.zeros((grid.nx, grid.ny + 1))
        return ExtensionFieldSample(zu, zv)
    return lifting.sample(t)


def default_lifting_radius(obstacle_radius, half_width, sponge_width):
    """Support radius of the lifting: three obstacle radii, kept inside the
    sponge-free part of a box of the given half-width."""
    return min(3.0 * obstacle_radius, 0.9 * (half_width - sponge_width))


def build_lifting(grid: Grid, path: MotionPath, radius=None, sponge_width=0.0):
    """The lifting field of a moving obstacle, or None when there is no
    obstacle or it does not move; radius None takes the default."""
    if grid.obstacle_radius <= 0.0 or path.kind == "static":
        return None
    if radius is None:
        half_width = min(grid.x1, -grid.x0, grid.y1, -grid.y0)
        radius = default_lifting_radius(grid.obstacle_radius, half_width, sponge_width)
    return ExtensionField(grid, path, radius)
