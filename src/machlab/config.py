"""Experiment configuration: flat sectioned key/value text with exact round-trip.

The format is line-based: `[section]` headers, `key = value` entries, `#`
comments. Parsing reports the first structural defect with line/column,
a number that is nan or inf included; validation runs afterward and reports every violated invariant at once.
Canonical serialization fixes section order, key order, and float
formatting, so `parse -> canonical_text` is idempotent byte-for-byte.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

from .errors import ConfigParseError, ConfigValidationError
from .geometry import build_grid, default_lifting_radius, lifting_collar
from .spectral import DESK_CELL_CAP, DESK_MODE_CAP

# (type, default); defaults of None are derived during validation
SCHEMA = {
    "geometry": {
        "dimension": ("int", 2),
        "extent": ("float", 2.0),
        "obstacle_radius": ("float", 0.25),
        "cell_size": ("float", 1.0 / 32.0),
    },
    "physics": {
        "pressure_coeff": ("float", 1.0),
        "gamma": ("float", 2.0),
        "shear_viscosity": ("float", 0.01),
        "bulk_viscosity": ("float", 0.0),
        "reference_density": ("float", 1.0),
    },
    "motion": {
        "kind": ("str", "linear"),
        "velocity_x": ("float", 0.1),
        "velocity_y": ("float", 0.0),
        "amplitude_x": ("float", 0.0),
        "amplitude_y": ("float", 0.0),
        "frequency": ("float", 0.0),
    },
    "initial": {
        "pulse_amplitude": ("float", 1.0),
        "pulse_width": ("float", 0.2),
        "pulse_center_x": ("float", 0.75),
        "pulse_center_y": ("float", 0.0),
        "velocity_kind": ("str", "vortex+gradient"),
        "vortex_amplitude": ("float", 0.3),
        "gradient_amplitude": ("float", 0.3),
    },
    "numerics": {
        "sponge_width": ("float", None),
        "modes": ("int", 350),
    },
    "sweep": {
        "eps": ("floats", (0.2, 0.1, 0.05, 0.025)),
    },
    "schedule": {
        "horizon": ("float", 0.5),
        "snapshots": ("int", 51),
    },
    "spectral": {
        "source_center_x": ("float", None),
        "source_center_y": ("float", 0.0),
        "source_width": ("float", None),
        "cutoff_one": ("float", None),
        "cutoff_zero": ("float", None),
    },
    "run": {
        "seed": ("int", 0),
        "scenario": ("str", "sweep"),
        "label": ("str", "run"),
    },
}

MOTION_KINDS = ("static", "linear", "sinusoidal")
VELOCITY_KINDS = ("zero", "vortex+gradient", "random")
SCENARIOS = ("sweep", "spectral")


@dataclass
class ExperimentConfig:
    sections: dict = field(default_factory=dict)

    def __getitem__(self, section):
        return self.sections[section]

    def get(self, section, key):
        return self.sections[section][key]

    def digest(self) -> str:
        """Stable hash of the canonical text; names the run."""
        return hashlib.sha256(canonical_text(self).encode()).hexdigest()[:12]


def _parse_value(kind, raw, line_no, col):
    raw = raw.strip()
    try:
        if kind == "int":
            return int(raw)
        if kind not in ("float", "floats"):
            return raw
        # every comma-separated item of a list, none empty
        items = raw.split(",") if kind == "floats" else [raw]
        values = tuple(float(p) for p in items)
    except ValueError:
        raise ConfigParseError(
            f"cannot read {kind} value {raw!r}", line_no, col
        ) from None
    for p, x in zip(items, values):
        if not math.isfinite(x):  # nan or inf would crash, hang or run
            raise ConfigParseError(f"{kind} item {p.strip()!r} is not finite", line_no, col)
    return values if kind == "floats" else values[0]


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate config text; fills defaults for missing keys."""
    sections = {s: dict() for s in SCHEMA}
    current = None
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        col = raw_line.index(stripped[0]) + 1
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise ConfigParseError("unterminated section header", line_no, col)
            name = stripped[1:-1].strip()
            if name not in SCHEMA:
                raise ConfigParseError(f"unknown section {name!r}", line_no, col)
            current = name
            continue
        if "=" not in stripped:
            raise ConfigParseError("expected 'key = value'", line_no, col)
        if current is None:
            raise ConfigParseError("entry before any section header", line_no, col)
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in SCHEMA[current]:
            raise ConfigParseError(
                f"unknown key {key!r} in section [{current}]", line_no, col
            )
        kind, _ = SCHEMA[current][key]
        vcol = raw_line.index("=") + 2
        sections[current][key] = _parse_value(kind, value, line_no, vcol)

    for sec, keys in SCHEMA.items():
        for key, (kind, default) in keys.items():
            sections[sec].setdefault(key, default)

    cfg = ExperimentConfig(sections)
    _derive_defaults(cfg)
    violations = validate(cfg)
    if violations:
        raise ConfigValidationError(violations)
    return cfg


def _derive_defaults(cfg: ExperimentConfig):
    g = cfg["geometry"]
    n = cfg["numerics"]
    s = cfg["spectral"]
    a = g["obstacle_radius"]
    if n["sponge_width"] is None:
        n["sponge_width"] = g["extent"] / 4.0
    if s["source_center_x"] is None:
        s["source_center_x"] = 1.8 * a
    if s["source_width"] is None:
        s["source_width"] = 0.8 * a
    if s["cutoff_one"] is None:
        s["cutoff_one"] = 2.0 * a
    if s["cutoff_zero"] is None:
        s["cutoff_zero"] = 3.0 * a


def validate(cfg: ExperimentConfig):
    """All violated invariants, empty when the config is usable."""
    v = []
    g, p, m = cfg["geometry"], cfg["physics"], cfg["motion"]
    ini, n, sw = cfg["initial"], cfg["numerics"], cfg["sweep"]
    sch, run, s = cfg["schedule"], cfg["run"], cfg["spectral"]

    if g["dimension"] != 2:
        v.append("dimension must be 2 for the desk-scale build")
    L, a, h = g["extent"], g["obstacle_radius"], g["cell_size"]
    if L <= 0 or h <= 0:
        v.append("extent and cell_size must be positive")
    else:
        cells = 2.0 * L / h
        if abs(cells - round(cells)) > 1e-9 * max(1.0, cells):
            v.append(f"cell_size {h} does not divide the box side {2 * L}")
        if 2.0 * a / h < 4.0:
            v.append("fewer than 4 cells across the obstacle diameter")
        if not a > 2.0 * h:
            v.append("obstacle_radius must exceed 2 * cell_size")
        if not L > 4.0 * a:
            v.append("extent must exceed 4 * obstacle_radius")
        # the eigensolve's cap on active cells; the disk covers under 5 % of
        # the box (extent > 4 radius), so a box over 4x the cap is refused
        # without building the grid to count them
        side = round(cells)
        if v or side * side <= DESK_CELL_CAP:
            pass
        elif side * side > 4 * DESK_CELL_CAP:
            v.append(f"grid has {side}x{side} cells, beyond the desk-scale cap "
                     f"of {DESK_CELL_CAP} active cells")
        elif (active := build_grid(2, L, a, h).n_active) > DESK_CELL_CAP:
            v.append(f"grid has {active} active cells, beyond the desk-scale cap "
                     f"of {DESK_CELL_CAP}")

    if not p["gamma"] > 1.5:
        v.append(f"gamma must exceed 3/2, got {p['gamma']}")
    if p["pressure_coeff"] <= 0:
        v.append("pressure_coeff must be positive")
    if p["shear_viscosity"] <= 0:
        v.append("shear_viscosity must be positive")
    if p["bulk_viscosity"] < 0:
        v.append("bulk_viscosity must be nonnegative")
    if p["reference_density"] <= 0:
        v.append("reference_density must be positive")

    if m["kind"] not in MOTION_KINDS:
        v.append(f"motion kind must be one of {MOTION_KINDS}")
    if ini["velocity_kind"] not in VELOCITY_KINDS:
        v.append(f"velocity_kind must be one of {VELOCITY_KINDS}")
    if run["scenario"] not in SCENARIOS:
        v.append(f"scenario must be one of {SCENARIOS}")

    eps = sw["eps"]
    if any(e <= 0 for e in eps):
        v.append("eps values must be positive")
    if any(b >= a_ for a_, b in zip(eps, eps[1:])):
        v.append("eps list must be strictly decreasing")

    if sch["horizon"] < 0:
        v.append("schedule horizon must be nonnegative")
    if sch["snapshots"] < 1:
        v.append("snapshots must be at least 1")

    if n["sponge_width"] < 0:
        v.append("sponge_width must be nonnegative")
    if not 1 <= n["modes"] <= DESK_MODE_CAP:
        v.append(f"modes must lie in [1, {DESK_MODE_CAP}], got {n['modes']}")
    if not 0.0 < s["cutoff_one"] < s["cutoff_zero"] < L:
        v.append("spectral cutoffs must satisfy 0 < cutoff_one < cutoff_zero < extent, "
                 f"got {s['cutoff_one']:g}, {s['cutoff_zero']:g}, {L:g}")
    if m["kind"] != "static" and a > 0 and h > 0:
        # the moving obstacle's lifting, whose radius the sponge width sets
        w = n["sponge_width"]
        R = default_lifting_radius(a, L, w)
        if not a < R:
            v.append(f"sponge_width {w} leaves the lifting a radius {R:g}, "
                     "not above obstacle_radius")
        else:
            try:
                lifting_collar(a, h, R)
            except ValueError as exc:
                v.append(f"sponge_width {w}: lifting radius {R:g}: {exc}")
    if run["seed"] < 0:
        v.append("seed must be nonnegative")
    if ini["pulse_width"] <= 0:
        v.append("pulse_width must be positive")
    if s["source_width"] <= 0:
        v.append("source_width must be positive: a zero-width probe is identically zero")
    return v


def _format_value(kind, value):
    if kind == "float":
        return repr(float(value))
    if kind == "floats":
        return ", ".join(repr(float(x)) for x in value)
    return str(value)


def canonical_text(cfg: ExperimentConfig) -> str:
    """Serialize with fixed section/key order and exact float formatting."""
    lines = []
    for sec, keys in SCHEMA.items():
        lines.append(f"[{sec}]")
        for key, (kind, _) in keys.items():
            lines.append(f"{key} = {_format_value(kind, cfg.get(sec, key))}")
        lines.append("")
    return "\n".join(lines)
