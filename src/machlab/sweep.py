"""Scenario assembly and the eps-sweep pipeline behind the CLI.

The Scenario holds what all Mach members share: the solver and the data
rho1, (u0, v0), built once, from the seed. run_sweep builds each fluid
member's initial state rho_ref + eps*rho1, (u0, v0) before it makes the
run directory. It then starts the members stepping: run_one_eps runs one
member over the sample schedule, writes each sampled snapshot and
returns only what a snapshot cannot give, its mass rows and its energy
ledger at each sample time. Meanwhile the parent solves the Neumann
eigenproblem once, tabulates the local-decay functional D(eps) from one
probe and one horizon for every Mach number and runs one incompressible
reference from (u0, v0). As each member returns, member_records reads
its snapshots back one at a time and takes each one's energy record,
forcing channels and diagnostics, reduced in time to the member's table
rows; a snapshot stores its fields exactly, so these equal the rows of
the in-memory samples. Everything is written to a run directory closed
by a manifest. A member holds one sampled state at a time (plus the one
its loop is still on).

The members run in a process pool of one worker per member, up to the
usable CPUs; MACHLAB_WORKERS, when set, gives the pool size instead,
capped at the member count (read before anything is written; a value
that is not an integer >= 1 is a config error), and a size of 1 runs the
members in this process, with no pool, each when the parent reaches it.
Each worker receives only the canonical config text and the run
directory, once, at its start; the eigenpairs and the reference stay in
the parent, so the sweep makes one eigensolve and one reference run, and
its files equal the sequential run's byte for byte. A failure in the
parent or in any member fails the sweep: the members still running are
stopped and the error is raised. At a fixed BLAS thread count all
outputs are a pure function of (config, seed); the eigenpair residuals in
eigenvalues.csv (%.3e) move at rounding level with it.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from . import spectral as sp
from .compressible import CompressibleSolver, FluidState
from .config import ExperimentConfig, canonical_text, parse_config
from .constitutive import PressureLaw, ViscosityPair, pressure_slope
from .diagnostics import convergence_metrics, integral_t, member_metrics, observation_probes
from .diagnostics import uniform_estimate_report
from .errors import ConfigValidationError
from .geometry import (
    Grid,
    build_grid,
    lifting_sample,
    linear_path,
    sinusoidal_path,
    static_path,
)
from .incompressible import IncompressibleSolver
from .storage import read_snapshot, write_csv, write_manifest, write_snapshot

CHANNEL_NAMES = tuple(f"forcing_channel_{i + 1}" for i in range(5))
RAGE_HEADER = ["eps", "D", "T", "K", "truncation_remainder"]
EIGENVALUE_HEADER = ["k", "lambda", "residual"]
REFLECTION_SAFETY = 0.9  # share of the reflection-return time D(eps) observes
SUMMARY_HEADER = ["eps", "density_scale", "velocity_gap", "solenoidal_pairing_gap",
                  "rage_d", "forcing_channel_sum", "res_indicator_l1", "energy_ok"]


@dataclass
class Scenario:
    """The configured setup and what all its Mach members share: the one
    eps-independent compressible solver, which owns the sponge profiles and
    the lifting field, and the ill-prepared data in initial_fields."""

    grid: Grid
    law: PressureLaw
    visc: ViscosityPair
    path: object
    cfg: ExperimentConfig
    solver: CompressibleSolver

    @cached_property
    def initial_fields(self):
        """rho1, u0, v0 from the seed, built on first use: verify never reads them."""
        ini = self.cfg["initial"]
        rho1 = _cell_bump(self.grid, (ini["pulse_center_x"], ini["pulse_center_y"]),
                          ini["pulse_width"], ini["pulse_amplitude"])
        rng = np.random.default_rng(self.cfg["run"]["seed"])
        return (rho1, *initial_velocity(self.cfg, self.grid, rng))


def build_scenario(cfg: ExperimentConfig) -> Scenario:
    g = cfg["geometry"]
    p = cfg["physics"]
    m = cfg["motion"]
    horizon = cfg["schedule"]["horizon"]
    grid = build_grid(g["dimension"], g["extent"], g["obstacle_radius"], g["cell_size"])
    law = PressureLaw(p["pressure_coeff"], p["gamma"], p["reference_density"])
    visc = ViscosityPair(p["shear_viscosity"], p["bulk_viscosity"])
    if m["kind"] == "static":
        path = static_path(horizon)
    elif m["kind"] == "linear":
        path = linear_path((m["velocity_x"], m["velocity_y"]), horizon)
    else:
        path = sinusoidal_path(
            (m["amplitude_x"], m["amplitude_y"]), m["frequency"], horizon
        )
    solver = CompressibleSolver(grid, law, visc, path, cfg["numerics"]["sponge_width"])
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


def gaussian_smooth(x, sigma):
    """scipy.ndimage.gaussian_filter(x, sigma) of a 2-D array, bit for bit,
    without importing scipy.ndimage: the normalized Gaussian weights of
    radius int(4 sigma + 0.5), reversed, correlated along axis 0 and then
    axis 1 over the array's mirror image ("reflect", numpy's "symmetric"),
    each entry summed in ndimage's symmetric-kernel order."""
    r = int(4.0 * sigma + 0.5)
    w = np.exp(-0.5 / (sigma * sigma) * np.arange(-r, r + 1) ** 2)
    w = (w / w.sum())[::-1]
    for axis in (0, 1):
        p = np.moveaxis(np.pad(x, [(r, r) if a == axis else (0, 0) for a in (0, 1)],
                               "symmetric"), axis, 0)
        n = x.shape[axis]
        out = p[r:r + n] * w[r]
        for j in range(r, 0, -1):
            out += (p[r - j:r - j + n] + p[r + j:r + j + n]) * w[r + j]
        x = np.moveaxis(out, 0, axis)
    return x


def initial_velocity(cfg: ExperimentConfig, grid: Grid, rng: np.random.Generator):
    """Solenoidal vortex patch plus a gradient component (or zero / random).

    Both pieces are compactly supported away from the obstacle and the
    sponge rim; amplitudes are normalized to the configured maxima.
    """
    ini = cfg["initial"]
    kind = ini["velocity_kind"]
    lay = grid.layout
    u, v = lay.xfaces(np.zeros(lay.size)), lay.yfaces(np.zeros(lay.size))
    if kind == "zero":
        return u, v
    L = cfg["geometry"]["extent"]
    if kind == "random":
        psi = gaussian_smooth(rng.standard_normal((grid.nx + 1, grid.ny + 1)), 4.0)
        taper = _node_bump(grid, (0.0, 0.0), 0.7 * L)
        cu, cv = grid.ops.curl(psi * taper)
        q = gaussian_smooth(rng.standard_normal((grid.nx, grid.ny)), 4.0)
        q *= _cell_bump(grid, (0.0, 0.0), 0.7 * L, 1.0)
    else:
        psi = _node_bump(grid, (-0.3 * L, -0.175 * L), 0.15 * L)
        cu, cv = grid.ops.curl(psi)
        q = _cell_bump(
            grid,
            (ini["pulse_center_x"], ini["pulse_center_y"]),
            1.5 * ini["pulse_width"],
            1.0,
        )
    gq = grid.ops.grad(lay.padded(q))

    scale_v = max(np.abs(cu).max(), np.abs(cv).max())
    if scale_v > 0:
        u += ini["vortex_amplitude"] / scale_v * cu
        v += ini["vortex_amplitude"] / scale_v * cv
    scale_g = max(np.abs(gq[0]).max(), np.abs(gq[1]).max())
    if scale_g > 0:
        u += ini["gradient_amplitude"] / scale_g * gq[0]
        v += ini["gradient_amplitude"] / scale_g * gq[1]
    return u, v


def sample_schedule(cfg: ExperimentConfig) -> np.ndarray:
    sch = cfg["schedule"]
    if sch["snapshots"] == 1 or sch["horizon"] == 0.0:
        return np.array([0.0])
    return np.linspace(0.0, sch["horizon"], sch["snapshots"])


def probe_field(cfg: ExperimentConfig, grid: Grid) -> np.ndarray:
    """The probe of D(eps), a cell bump; one that is zero on every active
    cell is a config error, since D = 0 would measure no decay. It needs no
    eigenpair, so run_sweep builds it before the eigensolve."""
    s = cfg["spectral"]
    x_field = _cell_bump(grid, (s["source_center_x"], s["source_center_y"]),
                         s["source_width"], 1.0)
    if not np.any(x_field):
        raise ConfigValidationError([
            f"the probe at ({s['source_center_x']:g}, {s['source_center_y']:g}) with "
            f"width {s['source_width']:g} misses every active cell of the grid"
        ])
    return x_field


def _check_window_modes(cfg: ExperimentConfig, grid: Grid):
    """Refuse a mode count K below 8: D(eps)'s spectral window rises up to
    mode 5 and falls from mode K/2, so with K/2 < 4 its fall would begin
    before its rise ends (make_spectral_window refused every such K on
    the shipped grids, which have no double fifth eigenvalue). It needs no
    eigenpair, so run_sweep checks it before the eigensolve and the run
    directory; make_spectral_window checks the eigenvalues of larger K."""
    k = min(cfg["numerics"]["modes"], grid.n_active)
    if k < 8:
        raise ConfigValidationError(
            [f"modes = {k} leaves the spectral window no increasing positive breakpoints"])


def rage_table(cfg: ExperimentConfig, scenario: Scenario, dec, x_field) -> list:
    """The rage.csv rows of every eps of the sweep: D(eps) of the probe
    x_field over one horizon, zero for an empty horizon.

    The horizon is capped below the reflection-return time: waves must
    leave the cutoff support and not re-enter it within the horizon; the
    cap uses the smallest Mach number of the sweep, whose sound speed is
    fastest. The probe's Gram matrix is built once, each eps's kernel alone.
    """
    s = cfg["spectral"]
    law = scenario.law
    chi = sp.make_spatial_cutoff(scenario.grid, s["cutoff_one"], s["cutoff_zero"])
    window = sp.make_spectral_window(dec)
    L = cfg["geometry"]["extent"]
    pp = float(pressure_slope(law, law.rho_ref))
    eps_min = min(cfg["sweep"]["eps"])
    cap = REFLECTION_SAFETY * 2.0 * (L - s["cutoff_zero"]) * eps_min / math.sqrt(pp)
    horizon = min(cfg["schedule"]["horizon"], cap)
    remainder = dec.truncation_remainder(x_field)  # independent of eps
    if horizon <= 0.0:
        return [(eps, 0.0, 0.0, dec.modes, remainder) for eps in cfg["sweep"]["eps"]]
    gram = sp.decay_gram(dec, x_field, chi, window)  # independent of eps
    rows = []
    for eps in cfg["sweep"]["eps"]:
        res = sp.rage_decay(dec, law, eps, gram, horizon)
        rows.append((eps, res.value, res.horizon, res.modes, remainder))
    return rows


def decompose(cfg: ExperimentConfig, grid: Grid) -> sp.SpectralDecomposition:
    """The configured number of Neumann eigenpairs, capped by the cell count."""
    return sp.spectral_decompose(grid, min(cfg["numerics"]["modes"], grid.n_active))


def eigenvalue_rows(dec: sp.SpectralDecomposition) -> list:
    """Rows k, lambda, residual of the eigenvalue table, formatted: lambda to
    12 significant digits, the rounding-level residual as %.3e."""
    return [(k, f"{lam:.12g}", f"{res:.3e}")
            for k, (lam, res) in enumerate(zip(dec.eigenvalues, dec.residuals), start=1)]


def write_eigenvalues(path, dec: sp.SpectralDecomposition):
    """The eigenvalue table as CSV."""
    write_csv(path, EIGENVALUE_HEADER, eigenvalue_rows(dec))


# -- per-eps job ------------------------------------------------------------


def run_one_eps(scenario: Scenario, out_dir: Path, eps: float):
    """Step one sweep member: the job a pool worker runs.

    Runs the compressible member from its initial data to each time of the
    sample schedule and writes the sampled rho, u, v under
    out_dir/eps_<eps>. Returns only what a snapshot cannot give: the
    member's mass.csv rows and its energy ledger at each sample time
    (which also carries the initial energy and lifting coupling);
    member_records derives everything else from the stored snapshots.
    """
    solver = scenario.solver
    member_dir = out_dir / _eps_dirname(eps)
    member_dir.mkdir(parents=True, exist_ok=True)
    times = sample_schedule(scenario.cfg)
    samples = solver.run(solver.init_state(*scenario.initial_fields, eps), times)
    mass_rows, ledgers = [], []
    for i, (state, ledger, total_mass, sponge_mass) in enumerate(samples):
        write_snapshot(member_dir / f"snap_{i:03d}.dat", state.t,
                       {"rho": state.rho, "u": state.u, "v": state.v})
        mass_rows.append((float(times[i]), eps, total_mass, sponge_mass))
        ledgers.append(ledger)
    return mass_rows, ledgers


def stored_state(out_dir: Path, eps: float, index: int, grid: Grid) -> FluidState:
    """Snapshot `index` of the eps member under out_dir as the state it
    stores, its fields entered in the grid's padded layout."""
    meta, fields = read_snapshot(out_dir / _eps_dirname(eps) / f"snap_{index:03d}.dat")
    lay = grid.layout
    return FluidState(*(lay.enter(fields[name]) for name in ("rho", "u", "v")),
                      meta["time"], eps)


def snapshot_terms(scenario: Scenario, dec, state, ledger, reference_state, probes):
    """One sample's energy record and metric terms, from the state, the
    member's ledger at its time and the reference state there, all from
    the sample's one lifting field: the energy report, then the forcing
    channels, the uniform estimates and the limit metrics, the terms in
    the order member_metrics reduces them. probes are the grid's
    observation_probes."""
    grid, solver, law, path = scenario.grid, scenario.solver, scenario.law, scenario.path
    ext = lifting_sample(solver.lifting, grid, state.t)
    energy = solver.energy_report(state, ledger, ext)
    densities = sp.assemble_forcing(state, grid, law, scenario.visc, path, ext, solver.lifting)
    channel_sq = sp.forcing_channel_norms(densities, dec) ** 2
    terms = (uniform_estimate_report(state, grid, law)
             + convergence_metrics(state, reference_state, grid, law, path, ext, probes)
             + [integral_t(state.eps, "forcing_channels", channel_sq)])
    return energy, terms


def member_records(scenario: Scenario, dec, reference, eps: float, stepped, out_dir: Path):
    """A stepped member's energy.csv rows, mass.csv rows and metric
    records (uniform estimates, limit metrics, forcing channels).

    `stepped` is what run_one_eps returned for the member. The snapshots
    are read back from out_dir one at a time, each with its ledger and
    the `reference` trajectory's state at its index, and member_metrics
    reduces their terms in time. A snapshot stores its fields exactly, so
    the rows equal those of the in-memory samples.
    """
    mass_rows, ledgers = stepped
    probes = observation_probes(scenario.grid)
    energy_rows, terms = [], []
    for i, ledger in enumerate(ledgers):
        state = stored_state(out_dir, eps, i, scenario.grid)
        rec, snapshot = snapshot_terms(scenario, dec, state, ledger, reference.states[i],
                                       probes)
        energy_rows.append((rec.t, rec.eps, rec.lhs, rec.rhs, int(rec.flag)))
        terms.append(snapshot)

    records = member_metrics(terms, reference.times)
    # per-channel L2((0,T) x Omega) norms of the snapshot series
    channels = records.pop().value
    records += [integral_t(eps, name, value) for name, value in zip(CHANNEL_NAMES, channels)]
    records.append(integral_t(eps, "forcing_channel_sum", float(np.sum(channels))))
    return energy_rows, mass_rows, records


def _worker_count(members: int) -> int:
    """The process-pool size for `members` sweep members: MACHLAB_WORKERS
    when set, where anything but an integer >= 1 is a config error, else
    one worker per member up to the CPUs this process may run on; never
    more workers than members, since the pool starts every worker."""
    text = os.environ.get("MACHLAB_WORKERS")
    if text is None:
        try:
            cpus = len(os.sched_getaffinity(0))
        except AttributeError:  # no affinity mask on this platform
            cpus = os.cpu_count() or 1
        return min(members, cpus)
    try:
        workers = int(text)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ConfigValidationError(
            [f"MACHLAB_WORKERS must be an integer >= 1, got {text!r}"]
        )
    return min(members, workers)


def _eps_dirname(eps: float) -> str:
    return f"eps_{eps:g}".replace(".", "p")


def _check_members(scenario: Scenario):
    """Refuse a fluid sweep that a member would fail before its first step:
    eps values that share a snapshot directory (a config error), or an
    initial state that init_state refuses (with that member's own error)."""
    eps_list = scenario.cfg["sweep"]["eps"]
    names = [_eps_dirname(eps) for eps in eps_list]
    if len(set(names)) < len(names):
        raise ConfigValidationError([
            f"eps values {', '.join(map(repr, eps_list))} name the snapshot "
            f"directories {', '.join(names)}: two members would share one"])
    for eps in eps_list:
        scenario.solver.init_state(*scenario.initial_fields, eps)


def run_sweep(cfg: ExperimentConfig, out_dir) -> dict:
    """Full pipeline for the configured scenario; returns the summary table.

    A config that the worker count, the probe, the mode count or a fluid
    member's initial data refuse leaves no run directory: all four are
    checked first. The spectral scenario then solves the eigenproblem and
    tabulates D(eps) before it makes the run directory. The fluid
    scenario makes it at once and starts its members stepping, in a pool
    when it has one; meanwhile it solves the eigenproblem, tabulates
    D(eps) and runs the reference, then derives each member's rows from
    its snapshots as the member returns. Its eigensolve or reference
    failing fails the started run as a failing member does, with no
    manifest. Both scenarios write config.txt, rage.csv, eigenvalues.csv,
    summary.csv and the manifest the same way.
    """
    workers = _worker_count(len(cfg["sweep"]["eps"]))
    scenario = build_scenario(cfg)
    x_field = probe_field(cfg, scenario.grid)
    _check_window_modes(cfg, scenario.grid)
    out_dir = Path(out_dir)
    run_id = cfg.digest()
    if cfg["run"]["scenario"] == "spectral":
        dec = decompose(cfg, scenario.grid)
        rage_rows = rage_table(cfg, scenario, dec, x_field)
        _open_run_dir(out_dir, cfg)
        header = ["eps", "rage_d"]
        summary_rows = [(row[0], row[1]) for row in rage_rows]
    else:
        _check_members(scenario)
        _open_run_dir(out_dir, cfg)
        dec, rage_rows, summary_rows = _fluid_sweep(scenario, x_field, out_dir, workers)
        header = SUMMARY_HEADER

    write_csv(out_dir / "rage.csv", RAGE_HEADER, rage_rows)
    write_eigenvalues(out_dir / "eigenvalues.csv", dec)
    write_csv(out_dir / "summary.csv", header, summary_rows)
    write_manifest(out_dir, run_id)
    return {"run_id": run_id, "summary": summary_rows, "header": header,
            "out_dir": str(out_dir)}


def _open_run_dir(out_dir: Path, cfg: ExperimentConfig):
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.txt").write_text(canonical_text(cfg))


def reference_run(scenario: Scenario):
    """The incompressible reference trajectory on the sample schedule,
    from the members' u0 (eps-independent)."""
    cfg = scenario.cfg
    nu = cfg["physics"]["shear_viscosity"] / cfg["physics"]["reference_density"]
    inc = IncompressibleSolver(scenario.grid, nu, scenario.path)
    _, u0, v0 = scenario.initial_fields
    return inc.run(inc.init_state(u0, v0), sample_schedule(cfg))


def _fluid_sweep(scenario: Scenario, x_field, out_dir: Path, workers: int):
    """The fluid members, stepped while this process solves the
    eigenproblem, tabulates D(eps) for the probe x_field and runs the
    reference, then each member's rows, derived as it returns; writes
    energy.csv, mass.csv and metrics.csv and returns the decomposition,
    the rage.csv rows and the summary.csv rows, in eps order."""
    cfg = scenario.cfg
    eps_list = cfg["sweep"]["eps"]
    members = {}
    with _stepped_members(scenario, out_dir, workers) as stepped:
        dec = decompose(cfg, scenario.grid)
        rage_rows = rage_table(cfg, scenario, dec, x_field)
        reference = reference_run(scenario)
        ref_dir = out_dir / "reference"
        ref_dir.mkdir(exist_ok=True)
        for i, st in enumerate(reference.states):
            write_snapshot(ref_dir / f"snap_{i:03d}.dat", st.t, {"u": st.u, "v": st.v})
        for eps, run in stepped:
            members[eps] = member_records(scenario, dec, reference, eps, run, out_dir)

    energy_rows, mass_rows, metric_records, summary_rows = [], [], [], []
    for eps, rage_row in zip(eps_list, rage_rows):
        energy, mass, records = members[eps]
        energy_rows += energy
        mass_rows += mass
        metric_records += records
        by_name = {r.metric_name: r.value for r in records}
        summary_rows.append(
            (
                eps,
                by_name["density_scale"],
                by_name["velocity_gap"],
                by_name["solenoidal_pairing_gap"],
                rage_row[1],
                by_name["forcing_channel_sum"],
                by_name["res_indicator_l1"],
                int(all(row[4] for row in energy)),
            )
        )

    write_csv(out_dir / "energy.csv", ["t", "eps", "lhs", "rhs", "flag"], energy_rows)
    write_csv(out_dir / "mass.csv", ["t", "eps", "total_mass", "sponge_cumulative"],
              mass_rows)
    run_id = cfg.digest()
    write_csv(
        out_dir / "metrics.csv",
        ["run_id", "eps", "metric_name", "q", "window", "t_or_sup", "value"],
        [
            (run_id, r.eps, r.metric_name, r.q, r.window, r.t_or_sup, r.value)
            for r in metric_records
        ],
    )
    return dec, rage_rows, summary_rows


@contextmanager
def _stepped_members(scenario: Scenario, out_dir: Path, workers: int):
    """Step every fluid member with run_one_eps beside the body of the
    with-block, which iterates the yielded (eps, stepped member) pairs.

    With one worker each member steps in this process when the iteration
    reaches it, in eps order. Otherwise a pool of `workers` starts here,
    each worker given only the canonical config text and the run
    directory, the smallest eps, the longest member, first; the pairs come
    as the members finish. Any failure in the block, a member's own error
    included, terminates the running members with their workers, drops
    the members not started and reaps the workers before it propagates.
    """
    eps_list = scenario.cfg["sweep"]["eps"]
    if workers == 1:
        yield ((eps, run_one_eps(scenario, out_dir, eps)) for eps in eps_list)
        return
    pool = ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                               initargs=(canonical_text(scenario.cfg), out_dir))
    try:
        jobs = {pool.submit(_run_one_eps_job, eps): eps for eps in eps_list[::-1]}
        yield ((jobs[job], job.result()) for job in as_completed(jobs))
    except BaseException:
        # the executor offers no public call that stops running jobs
        # before Python 3.14
        for proc in list(pool._processes.values()):
            proc.terminate()
        pool.shutdown(wait=True, cancel_futures=True)
        raise
    pool.shutdown()


# the scenario and run directory of a pool worker, set once by _init_worker
_worker_setup = None


def _init_worker(cfg_text: str, out_dir: Path):
    """Worker-pool initializer: rebuilds the scenario from the canonical
    text once per worker, so each job carries only its eps."""
    global _worker_setup
    _worker_setup = (build_scenario(parse_config(cfg_text)), out_dir)


def _run_one_eps_job(eps: float):
    """Worker-pool entry: one member stepped on the worker's setup."""
    scenario, out_dir = _worker_setup
    return run_one_eps(scenario, out_dir, eps)
