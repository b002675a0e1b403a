"""Re-evaluation of a stored run directory: its invariants and, on demand,
the acoustic pair of one of its snapshots."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import spectral as sp
from .compressible import TOL_ENERGY, FluidState, instant_energy
from .config import parse_config
from .errors import SnapshotFormatError
from .geometry import eval_motion, lifting_sample
from .storage import (
    changed_artifacts, check_artifacts, read_csv, read_manifest, read_snapshot,
)
from .sweep import _eps_dirname, build_scenario

TOL_DIV = 1e-8  # bound on the reference snapshots' discrete divergence


@dataclass
class CheckResult:
    name: str
    context: str
    value: float
    tolerance: float
    passed: bool


def _snapshot_files(run_dir: Path, sub: str):
    d = run_dir / sub
    return sorted(d.glob("snap_*.dat")) if d.exists() else []


def _snapshot_fields(path, grid, names):
    """The time and the named fields (rho, u or v) of a stored snapshot,
    padded into the grid's layout; a field that is missing or not of its
    grid shape raises SnapshotFormatError naming the path and the field."""
    meta, fields = read_snapshot(path)
    lay = grid.layout
    out = []
    for name in names:
        shape = lay.parts[("rho", "u", "v").index(name)]  # cell, x-face, y-face
        if np.shape(fields.get(name)) != shape:
            raise SnapshotFormatError(
                f"{path}: field {name!r} is missing or not of shape {shape}")
        out.append(lay.enter(fields[name]))
    return meta["time"], out


def verify_run(run_dir) -> dict:
    """Machine-readable report over every stored invariant; refuses
    incomplete directories and names missing artifacts. The check
    `artifact_digests` fails on every file whose sha256 digest differs
    from the manifest's and names them in its context."""
    run_dir = Path(run_dir)
    manifest = read_manifest(run_dir)
    check_artifacts(run_dir, manifest)
    changed = changed_artifacts(run_dir, manifest)

    cfg = parse_config((run_dir / "config.txt").read_text())
    checks = [
        CheckResult(
            "config_digest", "run", 0.0, 0.0, cfg.digest() == manifest["config_digest"]
        ),
        CheckResult("artifact_digests", ", ".join(changed) or "all",
                    float(len(changed)), 0.0, not changed),
    ]
    if cfg["run"]["scenario"] == "spectral":
        checks.extend(_check_rage_table(run_dir))
        return _report(checks)

    scenario = build_scenario(cfg)
    grid = scenario.grid
    law = scenario.law
    eps_list = list(cfg["sweep"]["eps"])

    # energy table indexed by (eps, t) for snapshot cross-checks
    _, energy_rows = read_csv(run_dir / "energy.csv")
    energy = {(float(r[1]), round(float(r[0]), 10)): (float(r[2]), float(r[3]), int(r[4]))
              for r in energy_rows}
    flags_ok = all(int(r[4]) == 1 for r in energy_rows)
    checks.append(CheckResult("energy_flags", "all", float(not flags_ok), 0.0, flags_ok))

    sponge_w = cfg["numerics"]["sponge_width"]
    amp = cfg["initial"]["pulse_amplitude"]
    for eps in eps_list:
        files = _snapshot_files(run_dir, _eps_dirname(eps))
        if not files:
            continue
        min_rho = np.inf
        far_field = 0.0
        slip = 0.0
        energy_gap = -np.inf
        start = energy.get((eps, 0.0))
        unbooked = []  # times of snapshots without an energy.csv row
        for path in files:
            t, (rho, u, v) = _snapshot_fields(path, grid, ("rho", "u", "v"))
            min_rho = min(min_rho, float(rho[grid.active].min()))
            # far field: density fluctuation on the outermost active ring
            far_field = max(
                far_field, float(np.abs(rho[grid.cell_rim] - law.rho_ref).max())
            )
            # relative normal velocity on obstacle boundary faces
            _, mp, _ = eval_motion(scenario.path, t)
            for f, m, w in zip((u, v), grid.component_masks, mp):
                gap = np.abs(grid.layout.flat(f)[m.obstacle] - w)
                slip = max(slip, float(gap.max(initial=0.0)))
            # recomputed instantaneous energy must stay below the stored rhs
            key = (eps, round(t, 10))
            if key not in energy:
                unbooked.append(f"{t:g}")
            elif start is not None:
                e_inst = instant_energy(grid, law, FluidState(rho, u, v, t, eps))
                _, rhs, _ = energy[key]
                energy_gap = max(energy_gap, e_inst - rhs - TOL_ENERGY * max(start[0], 1e-12))
        ctx = f"eps={eps:g}"
        checks.append(CheckResult("density_positive", ctx, min_rho, 0.0, min_rho > 0.0))
        tol_far = 0.5 * eps * max(amp, 1.0)
        checks.append(
            CheckResult("far_field_quiet", ctx, far_field, tol_far,
                        sponge_w <= 0.0 or far_field <= tol_far)
        )
        checks.append(CheckResult("obstacle_slip", ctx, slip, 1e-9, slip <= 1e-9))
        if start is None:  # no E(0) to scale the tolerance: fail, naming the row
            ctx, energy_gap = f"{ctx}: energy.csv has no t = 0 row", np.inf
        elif unbooked:  # a stored snapshot the ledger never booked
            ctx = f"{ctx}: energy.csv has no row at t = {', '.join(unbooked)}"
            energy_gap = np.inf
        checks.append(
            CheckResult("energy_snapshot_consistent", ctx, energy_gap, 0.0,
                        energy_gap <= 0.0)
        )

    # mass accounting: total change equals the logged sponge flux
    _, mass_rows = read_csv(run_dir / "mass.csv")
    by_eps = {}
    for r in mass_rows:
        by_eps.setdefault(float(r[1]), []).append((float(r[0]), float(r[2]), float(r[3])))
    for eps, rows in by_eps.items():
        rows.sort()
        drift = abs((rows[-1][1] - rows[0][1]) - rows[-1][2])
        tol = 1e-8 * max(rows[0][1], 1.0)
        checks.append(
            CheckResult("mass_accounting", f"eps={eps:g}", drift, tol, drift <= tol)
        )

    # reference snapshots stay divergence-free
    max_div = 0.0
    for path in _snapshot_files(run_dir, "reference"):
        _, (u, v) = _snapshot_fields(path, grid, ("u", "v"))
        div = grid.ops.div(u, v, include_boundary_faces=True)
        max_div = max(max_div, float(np.abs(div[grid.active]).max()))
    checks.append(
        CheckResult("reference_divergence", "all", max_div, TOL_DIV, max_div <= TOL_DIV)
    )

    # headline sweep behavior recorded in the summary table
    header, summary = read_csv(run_dir / "summary.csv")
    if len(summary) >= 2:
        gaps = [float(r[header.index("velocity_gap")]) for r in summary]
        mono = all(a > b for a, b in zip(gaps, gaps[1:]))
        checks.append(
            CheckResult("velocity_gap_decreasing", "sweep", float(not mono), 0.0, mono)
        )
    checks.extend(_check_rage_table(run_dir))
    return _report(checks)


def stored_acoustic_pair(run_dir, eps: float, index: int) -> sp.AcousticState:
    """The acoustic pair (r, psi) of stored fluid snapshot `index` at `eps`,
    rebuilt from its rho, u, v and time and the run's config."""
    run_dir = Path(run_dir)
    sc = build_scenario(parse_config((run_dir / "config.txt").read_text()))
    t, (rho, u, v) = _snapshot_fields(
        run_dir / _eps_dirname(eps) / f"snap_{index:03d}.dat", sc.grid, ("rho", "u", "v"))
    state = FluidState(rho, u, v, t, eps)
    ext = lifting_sample(sc.solver.lifting, sc.grid, state.t)
    return sp.extract_acoustic_potential(state, sc.grid, sc.path, sc.law, ext)


def _check_rage_table(run_dir: Path):
    """D strictly decreasing over the rows of a non-empty rage.csv; an
    all-zero D column is right only on an empty horizon (every T = 0)."""
    path = run_dir / "rage.csv"
    rows = read_csv(path)[1] if path.exists() else []
    if not rows:
        return []
    ds = [float(r[1]) for r in rows]
    silent = all(d == 0.0 for d in ds)
    empty = all(float(r[2]) == 0.0 for r in rows)
    mono = empty if silent else all(a > b for a, b in zip(ds, ds[1:]))
    ctx = "sweep: D = 0 at every eps while T > 0" if silent and not empty else "sweep"
    return [CheckResult("rage_decay_decreasing", ctx, float(not mono), 0.0, mono)]


def _report(checks):
    ok = all(c.passed for c in checks)
    return {"ok": ok, "checks": [asdict(c) for c in checks]}


def format_report(report: dict) -> str:
    lines = []
    for c in report["checks"]:
        status = "PASS" if c["passed"] else "FAIL"
        lines.append(
            f"[{status}] {c['name']} ({c['context']}): value={c['value']:.6g} "
            f"tol={c['tolerance']:.6g}"
        )
    lines.append("verify: " + ("all-pass" if report["ok"] else "FAILURES PRESENT"))
    return "\n".join(lines)


def verify_to_json(report: dict) -> str:
    return json.dumps(report, indent=1, sort_keys=True)
