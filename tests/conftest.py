"""Shared fixtures: small grids for unit tests, shipped-scenario runs for
the acceptance suite (executed once per session)."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from machlab.config import parse_config
from machlab.geometry import build_grid, build_rectangle_grid, static_path
from machlab.sweep import run_sweep

REPO = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="session")
def unit_square_grid():
    return build_rectangle_grid(0.0, np.pi, 0.0, np.pi, np.pi / 32)


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


def rest_motion():
    return static_path(1.0)
