"""Scenario assembly and the eps-sweep pipeline behind the CLI.

run_sweep drives, per Mach number: the compressible run, acoustic
extraction, forcing channels, the local-decay functional, and the
diagnostics records, plus one incompressible reference run; everything is
written to a run directory closed by a manifest. At a fixed BLAS thread
count all outputs are a pure function of (config, seed); the eigenpair
residuals in eigenvalues.csv move at rounding level with the thread count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import spectral as sp
from .compressible import CompressibleSolver, IllPreparedData, SolverOptions
from .config import ExperimentConfig, canonical_text
from .constitutive import PressureLaw, ViscosityPair, pressure_slope
from .diagnostics import MetricsRecord, convergence_metrics, uniform_estimate_report
from .geometry import (
    Grid,
    build_grid,
    lifting_sample,
    linear_path,
    sinusoidal_path,
    static_path,
)
from .incompressible import IncompressibleSolver
from .storage import write_csv, write_manifest, write_snapshot

CHANNEL_NAMES = tuple(f"forcing_channel_{i + 1}" for i in range(5))
RAGE_HEADER = ["eps", "D", "T", "K", "truncation_remainder"]
SUMMARY_HEADER = ["eps", "density_scale", "velocity_gap", "solenoidal_pairing_gap",
                  "rage_d", "forcing_channel_sum", "res_indicator_l1", "energy_ok"]


@dataclass
class Scenario:
    """The configured setup and its one eps-independent compressible solver,
    which owns the sponge profiles and the lifting field."""

    grid: Grid
    law: PressureLaw
    visc: ViscosityPair
    path: object
    cfg: ExperimentConfig
    solver: CompressibleSolver


def build_scenario(cfg: ExperimentConfig) -> Scenario:
    g = cfg["geometry"]
    p = cfg["physics"]
    m = cfg["motion"]
    n = cfg["numerics"]
    grid = build_grid(g["dimension"], g["extent"], g["obstacle_radius"], g["cell_size"])
    law = PressureLaw(p["pressure_coeff"], p["gamma"], p["reference_density"])
    visc = ViscosityPair(p["shear_viscosity"], p["bulk_viscosity"])
    if m["kind"] == "static":
        path = static_path(m["horizon"])
    elif m["kind"] == "linear":
        path = linear_path((m["velocity_x"], m["velocity_y"]), m["horizon"])
    else:
        path = sinusoidal_path(
            (m["amplitude_x"], m["amplitude_y"]), m["frequency"], m["horizon"]
        )
    options = SolverOptions(
        cfl=n["cfl"],
        sponge_width=n["sponge_width"],
        lifting_radius=n["lifting_radius"],
        tol_energy=n["tol_energy"],
    )
    solver = CompressibleSolver(grid, law, visc, path, options)
    return Scenario(grid, law, visc, path, cfg, solver)


def _cell_bump(grid: Grid, center, width, amplitude):
    xc, yc = grid.cell_centers()
    r2 = (xc - center[0]) ** 2 + (yc - center[1]) ** 2
    w2 = width**2
    out = np.where(r2 < w2, amplitude * (1.0 - r2 / w2) ** 3, 0.0)
    out[~grid.active] = 0.0
    return out


def _node_bump(grid: Grid, center, width):
    xn, yn = grid.nodes()
    r2 = (xn - center[0]) ** 2 + (yn - center[1]) ** 2
    w2 = width**2
    return np.where(r2 < w2, (1.0 - r2 / w2) ** 3, 0.0)


def initial_velocity(cfg: ExperimentConfig, grid: Grid, rng: np.random.Generator):
    """Solenoidal vortex patch plus a gradient component (or zero / random).

    Both pieces are compactly supported away from the obstacle and the
    sponge rim; amplitudes are normalized to the configured maxima.
    """
    ini = cfg["initial"]
    kind = ini["velocity_kind"]
    u = np.zeros((grid.nx + 1, grid.ny))
    v = np.zeros((grid.nx, grid.ny + 1))
    if kind == "zero":
        return u, v
    L = cfg["geometry"]["extent"]
    if kind == "random":
        from scipy.ndimage import gaussian_filter

        psi = gaussian_filter(rng.standard_normal((grid.nx + 1, grid.ny + 1)), 4.0)
        taper = _node_bump(grid, (0.0, 0.0), 0.7 * L)
        cu, cv = grid.ops.curl(psi * taper)
        q = gaussian_filter(rng.standard_normal((grid.nx, grid.ny)), 4.0)
        q *= _cell_bump(grid, (0.0, 0.0), 0.7 * L, 1.0)
        gq = grid.ops.grad(q)
    else:
        psi = _node_bump(grid, (-0.3 * L, -0.175 * L), 0.15 * L)
        cu, cv = grid.ops.curl(psi)
        q = _cell_bump(
            grid,
            (ini["pulse_center_x"], ini["pulse_center_y"]),
            1.5 * ini["pulse_width"],
            1.0,
        )
        gq = grid.ops.grad(q)

    scale_v = max(np.abs(cu).max(), np.abs(cv).max())
    if scale_v > 0:
        u += ini["vortex_amplitude"] / scale_v * cu
        v += ini["vortex_amplitude"] / scale_v * cv
    scale_g = max(np.abs(gq[0]).max(), np.abs(gq[1]).max())
    if scale_g > 0:
        u += ini["gradient_amplitude"] / scale_g * gq[0]
        v += ini["gradient_amplitude"] / scale_g * gq[1]
    return u, v


def initial_data(cfg: ExperimentConfig, grid: Grid, eps: float,
                 rng: np.random.Generator) -> IllPreparedData:
    ini = cfg["initial"]
    rho1 = _cell_bump(
        grid,
        (ini["pulse_center_x"], ini["pulse_center_y"]),
        ini["pulse_width"],
        ini["pulse_amplitude"],
    )
    u0, v0 = initial_velocity(cfg, grid, rng)
    return IllPreparedData(rho1, u0, v0, eps, bound=ini["data_bound"])


def sample_schedule(cfg: ExperimentConfig) -> np.ndarray:
    sch = cfg["schedule"]
    if sch["snapshots"] == 1 or sch["horizon"] == 0.0:
        return np.array([0.0])
    return np.linspace(0.0, sch["horizon"], sch["snapshots"])


def rage_horizon(cfg: ExperimentConfig, law: PressureLaw) -> float:
    """Observation horizon capped below the reflection-return time.

    Waves must leave the cutoff support and not re-enter it within the
    horizon; the cap uses the smallest Mach number of the sweep, whose
    sound speed is fastest.
    """
    s = cfg["spectral"]
    L = cfg["geometry"]["extent"]
    pp = float(pressure_slope(law, law.rho_ref))
    eps_min = min(cfg["sweep"]["eps"])
    cap = s["reflection_safety"] * 2.0 * (L - s["cutoff_zero"]) * eps_min / math.sqrt(pp)
    return min(cfg["schedule"]["horizon"], cap)


def rage_probe(cfg: ExperimentConfig, grid: Grid, dec: sp.SpectralDecomposition):
    s = cfg["spectral"]
    x_field = _cell_bump(
        grid, (s["source_center_x"], s["source_center_y"]), s["source_width"], 1.0
    )
    chi = sp.make_spatial_cutoff(grid, s["cutoff_one"], s["cutoff_zero"])
    window = sp.make_spectral_window(dec)
    return x_field, chi, window


def rage_row(cfg: ExperimentConfig, dec, law: PressureLaw, eps: float, probe, horizon):
    """One rage.csv row: D(eps) over [0, horizon]; zero for an empty horizon."""
    x_field, chi, window = probe
    if horizon <= 0.0:
        return (eps, 0.0, 0.0, dec.modes, dec.truncation_remainder(x_field))
    res = sp.rage_decay(
        dec, law, eps, x_field, chi, window, horizon,
        quadrature_factor=cfg["spectral"]["quadrature_factor"],
    )
    return (eps, res.value, res.horizon, res.modes, res.truncation_remainder)


def decompose(cfg: ExperimentConfig, grid: Grid) -> sp.SpectralDecomposition:
    """The configured number of Neumann eigenpairs, capped by the cell count."""
    return sp.spectral_decompose(grid, min(cfg["numerics"]["modes"], grid.n_active))


def write_eigenvalues(path, dec: sp.SpectralDecomposition):
    """The eigenvalue table k, lambda, residual as CSV."""
    write_csv(
        path,
        ["k", "lambda", "residual"],
        [(k + 1, float(l), float(r)) for k, (l, r) in
         enumerate(zip(dec.eigenvalues, dec.residuals))],
    )


# -- per-eps job ------------------------------------------------------------


def run_one_eps(scenario: Scenario, dec, eps: float, times, rng_seed: int,
                out_dir: Path):
    """Compressible run plus all per-eps analysis; returns record rows.

    One pass over the snapshots writes each with its acoustic pair and
    assembles its forcing; one lifting sample per snapshot feeds both.
    """
    cfg = scenario.cfg
    grid, solver, lifting = scenario.grid, scenario.solver, scenario.solver.lifting
    rng = np.random.default_rng(rng_seed)
    data = initial_data(cfg, grid, eps, rng)
    traj = solver.run(solver.init_state(data), times)

    out_dir.mkdir(parents=True, exist_ok=True)
    vals = []
    for i, state in enumerate(traj.states):
        ext = lifting_sample(lifting, grid, state.t)
        ext_dt = ext if lifting is None else lifting.sample_dt(state.t)
        ac = sp.extract_acoustic_potential(state, grid, scenario.path, scenario.law, ext)
        write_snapshot(
            out_dir / f"snap_{i:03d}.dat", grid, state.t,
            {"rho": state.rho, "u": state.u, "v": state.v, "r": ac.r, "psi": ac.psi},
        )
        assembly = sp.assemble_forcing(
            state, grid, scenario.law, scenario.visc, scenario.path, ext, ext_dt
        )
        vals.append(sp.forcing_channel_norms(assembly, dec))
    # per-channel L2((0,T) x Omega) norms of the snapshot series
    vals = np.array(vals)
    if len(traj.times) == 1:
        channels = np.zeros(vals.shape[1])
    else:
        channels = np.sqrt(np.trapezoid(vals**2, traj.times, axis=0))

    probe = rage_probe(cfg, grid, dec)
    row = rage_row(cfg, dec, scenario.law, eps, probe, rage_horizon(cfg, scenario.law))
    return traj, channels, row


def _eps_dirname(eps: float) -> str:
    return f"eps_{eps:g}".replace(".", "p")


def run_sweep(cfg: ExperimentConfig, out_dir) -> dict:
    """Full pipeline for the configured scenario; returns the summary table.

    The spectral scenario only tabulates D(eps); the fluid scenario runs
    the whole sweep. Both write config.txt, rage.csv, eigenvalues.csv,
    summary.csv and the manifest the same way.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.txt").write_text(canonical_text(cfg))
    run_id = cfg.digest()

    scenario = build_scenario(cfg)
    dec = decompose(cfg, scenario.grid)
    if cfg["run"]["scenario"] == "spectral":
        probe = rage_probe(cfg, scenario.grid, dec)
        horizon = rage_horizon(cfg, scenario.law)
        rage_rows = [
            rage_row(cfg, dec, scenario.law, eps, probe, horizon)
            for eps in cfg["sweep"]["eps"]
        ]
        header = ["eps", "rage_d"]
        summary_rows = [(row[0], row[1]) for row in rage_rows]
    else:
        rage_rows, summary_rows = _fluid_sweep(scenario, dec, run_id, out_dir)
        header = SUMMARY_HEADER

    write_csv(out_dir / "rage.csv", RAGE_HEADER, rage_rows)
    write_eigenvalues(out_dir / "eigenvalues.csv", dec)
    write_csv(out_dir / "summary.csv", header, summary_rows)
    write_manifest(out_dir, run_id)
    return {"run_id": run_id, "summary": summary_rows, "header": header,
            "out_dir": str(out_dir)}


def _fluid_sweep(scenario: Scenario, dec, run_id: str, out_dir: Path):
    """Reference run, eps members and their tables; returns the rage.csv
    and summary.csv rows."""
    cfg = scenario.cfg
    grid = scenario.grid
    times = sample_schedule(cfg)
    eps_list = list(cfg["sweep"]["eps"])
    seed = cfg["run"]["seed"]

    # incompressible reference run (eps-independent)
    rng = np.random.default_rng(seed)
    u0, v0 = initial_velocity(cfg, grid, rng)
    nu = cfg["physics"]["shear_viscosity"] / cfg["physics"]["reference_density"]
    inc = IncompressibleSolver(grid, nu, scenario.path, cfl=cfg["numerics"]["cfl"])
    inc_traj = inc.run(inc.init_state(u0, v0), times)
    ref_dir = out_dir / "reference"
    ref_dir.mkdir(exist_ok=True)
    for i, st in enumerate(inc_traj.states):
        write_snapshot(
            ref_dir / f"snap_{i:03d}.dat", grid, st.t,
            {"u": st.u, "v": st.v, "pressure": st.pressure},
        )

    workers = int(os.environ.get("MACHLAB_WORKERS", "1"))
    jobs = {}
    if workers > 1:
        text = canonical_text(cfg)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {
                eps: pool.submit(_run_one_eps_job, text, eps, str(out_dir))
                for eps in eps_list
            }
            for eps, fut in futures.items():
                jobs[eps] = fut.result()
    else:
        for eps in eps_list:
            jobs[eps] = run_one_eps(
                scenario, dec, eps, times, seed, out_dir / _eps_dirname(eps)
            )

    energy_rows = []
    metric_records = []
    mass_rows = []
    rage_rows = []
    summary_rows = []
    for eps in eps_list:
        traj, channels, decay = jobs[eps]
        for rec in traj.energy:
            energy_rows.append((rec.t, rec.eps, rec.lhs, rec.rhs, int(rec.flag)))
        for t, m, s in zip(traj.times, traj.total_mass, traj.sponge_mass):
            mass_rows.append((float(t), eps, m, s))
        records = uniform_estimate_report(traj, grid, scenario.law, eps, run_id=run_id)
        records += convergence_metrics(
            traj, inc_traj, grid, scenario.law, scenario.path, scenario.solver.lifting,
            run_id=run_id,
        )
        records += [_metric(run_id, eps, name, value)
                    for name, value in zip(CHANNEL_NAMES, channels)]
        channel_sum = float(np.sum(channels))
        records.append(_metric(run_id, eps, "forcing_channel_sum", channel_sum))
        metric_records.extend(records)
        rage_rows.append(decay)
        by_name = {r.metric_name: r.value for r in records}
        summary_rows.append(
            (
                eps,
                by_name["density_scale"],
                by_name["velocity_gap"],
                by_name["solenoidal_pairing_gap"],
                decay[1],
                channel_sum,
                by_name["res_indicator_l1"],
                int(all(rec.flag for rec in traj.energy)),
            )
        )

    write_csv(out_dir / "energy.csv", ["t", "eps", "lhs", "rhs", "flag"], energy_rows)
    write_csv(out_dir / "mass.csv", ["t", "eps", "total_mass", "sponge_cumulative"],
              mass_rows)
    write_csv(
        out_dir / "metrics.csv",
        ["run_id", "eps", "metric_name", "q", "window", "t_or_sup", "value"],
        [
            (r.run_id, r.eps, r.metric_name, r.q, r.window, r.t_or_sup, r.value)
            for r in metric_records
        ],
    )
    return rage_rows, summary_rows


def _metric(run_id, eps, name, value):
    return MetricsRecord(run_id, eps, name, 2.0, "full", "integral_t", value)


def _run_one_eps_job(cfg_text: str, eps: float, out_dir: str):
    """Worker-pool entry: rebuilds the scenario from the canonical text."""
    from .config import parse_config

    cfg = parse_config(cfg_text)
    scenario = build_scenario(cfg)
    dec = decompose(cfg, scenario.grid)
    times = sample_schedule(cfg)
    return run_one_eps(
        scenario, dec, eps, times, cfg["run"]["seed"],
        Path(out_dir) / _eps_dirname(eps),
    )
