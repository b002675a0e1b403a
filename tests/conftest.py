"""Shared fixtures: small grids for unit tests, shipped-scenario runs for
the acceptance suite (executed once per session); the helpers that pad a
plain array into a grid's layout and give the 2-D views of its face
classes, and the 2-D oracles of the staggered averages and the velocity
gradient."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from machlab.config import parse_config
from machlab.geometry import Grid, build_grid, static_path
from machlab.sweep import run_sweep

REPO = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="session")
def unit_square_grid():
    return Grid(0.0, 0.0, 32, 32, np.pi / 32)


@pytest.fixture(scope="session")
def obstacle_grid():
    return build_grid(2, 1.0, 0.15, 1.0 / 32.0)


@pytest.fixture(scope="session")
def default_cfg():
    return parse_config((REPO / "configs" / "default.cfg").read_text())


@pytest.fixture(scope="session")
def spectral_cfg():
    return parse_config((REPO / "configs" / "spectral.cfg").read_text())


@pytest.fixture(scope="session")
def default_run(default_cfg, tmp_path_factory):
    """The shipped default sweep, run once; feeds acceptance criteria."""
    out = tmp_path_factory.mktemp("default-run")
    return run_sweep(default_cfg, out)


@pytest.fixture(scope="session")
def spectral_run(spectral_cfg, tmp_path_factory):
    out = tmp_path_factory.mktemp("spectral-run")
    return run_sweep(spectral_cfg, out)


MINI_CFG = """
[geometry]
extent = 1.0
obstacle_radius = 0.15
cell_size = 0.03125

[numerics]
modes = 50
sponge_width = 0.25

[initial]
pulse_center_x = 0.45
pulse_width = 0.12

[sweep]
eps = 0.2, 0.1

[schedule]
horizon = 0.08
snapshots = 5

[run]
label = mini
"""


@pytest.fixture(scope="session")
def mini_cfg():
    return parse_config(MINI_CFG)


@pytest.fixture(scope="session")
def mini_run(mini_cfg, tmp_path_factory):
    """A seconds-scale sweep for harness and verify tests."""
    out = tmp_path_factory.mktemp("mini-run")
    return run_sweep(mini_cfg, out)


# the mini sweep with an accelerating obstacle (m'' != 0), so the lifting's
# time derivative enters the forcing and the energy ledger
SINUSOIDAL_MINI_CFG = MINI_CFG + """
[motion]
kind = sinusoidal
amplitude_x = 0.02
amplitude_y = 0.01
frequency = 8.0
"""


@pytest.fixture(scope="session")
def sinusoidal_mini_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("sinusoidal-mini-run")
    return run_sweep(parse_config(SINUSOIDAL_MINI_CFG), out)


# the stiff-static benchmark workload's shape on the mini grid: the disk at
# rest, a seeded random velocity
STATIC_MINI_CFG = MINI_CFG + """
[motion]
kind = static

[initial]
velocity_kind = random
"""


@pytest.fixture(scope="session")
def static_mini_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("static-mini-run")
    return run_sweep(parse_config(STATIC_MINI_CFG), out)


def rest_motion():
    return static_path(1.0)


def fixed_step(solver, state, dt, horizon, *ledger):
    """The state after round(horizon / dt) steps of dt, each handed the
    ledger the compressible step books into; a solver's run always steps
    at its CFL bound."""
    for _ in range(round(horizon / dt)):
        state = solver.step(state, dt, *ledger)
    return state


def in_layout(grid, a):
    """A copy of a (a cell, x-face or y-face array of grid) in the grid's
    padded layout, as the 2-D view every machlab function takes."""
    return grid.layout.enter(np.asarray(a, dtype=float))


def face_masks(grid, kind):
    """The x-face and y-face views, (nx+1, ny) and (nx, ny+1), of one face
    class of grid: a ComponentMasks mask ("interior", "obstacle", "rim",
    ...) or "known", the interior and prescribed faces."""
    lay = grid.layout
    return tuple(view(~m.unknown if kind == "known" else getattr(m, kind))
                 for view, m in zip((lay.xfaces, lay.yfaces), grid.component_masks))


# -- 2-D oracles of the staggered averages and the velocity gradient ---------


def oracle_face_to_center(u, v):
    return 0.5 * (u[1:, :] + u[:-1, :]), 0.5 * (v[:, 1:] + v[:, :-1])


def oracle_center_to_xface(c):
    out = np.zeros((c.shape[0] + 1, c.shape[1]))
    out[1:-1, :] = 0.5 * (c[1:, :] + c[:-1, :])
    return out


def oracle_center_to_yface(c):
    return oracle_center_to_xface(c.T).T


def oracle_gradient(grid, u, v):
    """The (nx, ny, 2, 2) field d u_i / d x_j, unknown faces read as zero."""
    g = grid
    h = g.h
    gu = np.zeros((g.nx, g.ny, 2, 2))
    ku, kv = face_masks(g, "known")
    um = np.where(ku, u, 0.0)
    vm = np.where(kv, v, 0.0)
    gu[:, :, 0, 0] = (um[1:, :] - um[:-1, :]) / h
    gu[:, :, 1, 1] = (vm[:, 1:] - vm[:, :-1]) / h
    uc = 0.5 * (um[1:, :] + um[:-1, :])
    vc = 0.5 * (vm[:, 1:] + vm[:, :-1])
    gu[1:-1, :, 1, 0] = (vc[2:, :] - vc[:-2, :]) / (2 * h)
    gu[:, 1:-1, 0, 1] = (uc[:, 2:] - uc[:, :-2]) / (2 * h)
    gu[~g.active] = 0.0
    return gu
