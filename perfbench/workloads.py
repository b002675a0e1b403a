"""The benchmark's workloads, each a shipped config plus overrides.

A full run of a shipped config takes about 55 s (spectral.cfg) or 120 s
(default.cfg) on a 2-vCPU VM, too long to repeat inside one benchmark run
of about 45 s, so every workload shortens its shipped config
(horizon, snapshot count, retained modes) while keeping the stages it is
meant to exercise. The physics, geometry, grid and eps values are the
shipped ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

REPO = Path(__file__).resolve().parents[1]
CONFIGS = REPO / "configs"
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


@dataclass(frozen=True)
class Workload:
    name: str
    base: str  # shipped config under configs/
    overrides: Callable[[int], dict]  # seed -> {section: {key: value}}
    seeded: bool  # whether the inputs depend on the seed

    def config_text(self, seed: int) -> str:
        text = (CONFIGS / self.base).read_text()
        for section, entries in self.overrides(seed).items():
            text += f"\n[{section}]\n"
            text += "".join(f"{key} = {value}\n" for key, value in entries.items())
        return text

    @property
    def reference(self) -> Path | None:
        """Reference summary.csv; seeded workloads have none."""
        return None if self.seeded else REFERENCE_DIR / f"{self.name}.summary.csv"


WORKLOADS = {
    w.name: w
    for w in (
        # moving disk, eps 0.2 -> 0.025: every stage runs (ledger with lifting,
        # step, forcing, extraction, snapshot I/O, eigensolve, D(eps))
        Workload(
            "sweep-default",
            "default.cfg",
            lambda seed: {
                "schedule": {"horizon": 0.04, "snapshots": 5},
                "numerics": {"modes": 60},
            },
            seeded=False,
        ),
        # no time stepping and no snapshots: eigensolve and D(eps) only
        Workload(
            "spectral-decay",
            "spectral.cfg",
            lambda seed: {"numerics": {"modes": 120}},
            seeded=False,
        ),
        # static disk, random velocity: step and the dissipation ledger dominate,
        # the lifting is bypassed, and both ends of the Mach range run
        Workload(
            "stiff-static",
            "default.cfg",
            lambda seed: {
                "motion": {"kind": "static"},
                "initial": {"velocity_kind": "random"},
                "run": {"seed": seed},
                "sweep": {"eps": "0.2, 0.025"},
                "schedule": {"snapshots": 3, "horizon": 0.1},
                "numerics": {"modes": 50},
            },
            seeded=True,
        ),
    )
}

# eps values of the per-eps metrics: the union over all workloads
EPS_KEYS = ("0.2", "0.1", "0.05", "0.025")
