"""Re-evaluation of the invariant suites against a stored run directory."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .compressible import FluidState, instant_energy
from .config import parse_config
from .geometry import eval_motion
from .storage import check_artifacts, read_csv, read_manifest, read_snapshot
from .sweep import _eps_dirname, build_scenario


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


def verify_run(run_dir) -> dict:
    """Machine-readable report over every stored invariant; refuses
    incomplete directories and names missing artifacts."""
    run_dir = Path(run_dir)
    manifest = read_manifest(run_dir)
    check_artifacts(run_dir, manifest)

    cfg = parse_config((run_dir / "config.txt").read_text())
    checks = [
        CheckResult(
            "config_digest", "run", 0.0, 0.0, cfg.digest() == manifest["config_digest"]
        )
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
    tol_energy = cfg["numerics"]["tol_energy"]
    amp = cfg["initial"]["pulse_amplitude"]
    for eps in eps_list:
        files = _snapshot_files(run_dir, _eps_dirname(eps))
        if not files:
            continue
        min_rho = np.inf
        far_field = 0.0
        slip = 0.0
        energy_gap = -np.inf
        for path in files:
            meta, fields = read_snapshot(path)
            rho, u, v = fields["rho"], fields["u"], fields["v"]
            min_rho = min(min_rho, float(rho[grid.active].min()))
            # far field: density fluctuation on the outermost active ring
            far_field = max(
                far_field, float(np.abs(rho[grid.cell_rim] - law.rho_ref).max())
            )
            # relative normal velocity on obstacle boundary faces
            _, mp, _ = eval_motion(scenario.path, meta["time"])
            ub = grid.uface_obstacle
            vb = grid.vface_obstacle
            if ub.any():
                slip = max(slip, float(np.abs(u[ub] - mp[0]).max()))
            if vb.any():
                slip = max(slip, float(np.abs(v[vb] - mp[1]).max()))
            # recomputed instantaneous energy must stay below the stored rhs
            key = (eps, round(meta["time"], 10))
            if key in energy:
                e_inst = instant_energy(
                    grid, law, FluidState(rho, u, v, meta["time"], eps)
                )
                _, rhs, _ = energy[key]
                e0 = energy[(eps, 0.0)][0]
                energy_gap = max(energy_gap, e_inst - rhs - tol_energy * max(e0, 1e-12))
        ctx = f"eps={eps:g}"
        checks.append(CheckResult("density_positive", ctx, min_rho, 0.0, min_rho > 0.0))
        tol_far = 0.5 * eps * max(amp, 1.0)
        checks.append(
            CheckResult("far_field_quiet", ctx, far_field, tol_far,
                        sponge_w <= 0.0 or far_field <= tol_far)
        )
        checks.append(CheckResult("obstacle_slip", ctx, slip, 1e-9, slip <= 1e-9))
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
    tol_div = cfg["numerics"]["tol_div"]
    max_div = 0.0
    for path in _snapshot_files(run_dir, "reference"):
        _, fields = read_snapshot(path)
        div = grid.ops.div(fields["u"], fields["v"], include_boundary_faces=True)
        max_div = max(max_div, float(np.abs(div[grid.active]).max()))
    checks.append(
        CheckResult("reference_divergence", "all", max_div, tol_div, max_div <= tol_div)
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


def _check_rage_table(run_dir: Path):
    checks = []
    path = run_dir / "rage.csv"
    if not path.exists():
        return checks
    _, rows = read_csv(path)
    if len(rows) >= 2:
        ds = [float(r[1]) for r in rows]
        mono = all(a > b for a, b in zip(ds, ds[1:])) or all(d == 0.0 for d in ds)
        checks.append(
            CheckResult("rage_decay_decreasing", "sweep", float(not mono), 0.0, mono)
        )
    return checks


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
