"""Essential/residual splitting, uniform-estimate monitors, and convergence metrics.

These are pure readers of immutable snapshots: given compressible and
incompressible trajectories on matched schedules, they produce the
append-only records written to the metrics CSV.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constitutive import PressureLaw
from .errors import ScheduleMismatch
from .geometry import Grid, MotionPath, lifting_sample
from .operators import face_to_center
from .spectral import helmholtz_project, shifted_momentum


@dataclass(frozen=True)
class EssResSplit:
    """Exact partition of a field by the density indicator 1_{r/2 < rho < 2r}."""

    essential: np.ndarray
    residual: np.ndarray
    indicator: np.ndarray


def split_ess_res(rho: np.ndarray, f: np.ndarray, rho_ref: float) -> EssResSplit:
    if rho.shape != np.asarray(f).shape:
        raise ValueError("rho and f must share a grid")
    ind = ((0.5 * rho_ref < rho) & (rho < 2.0 * rho_ref)).astype(float)
    ess = np.asarray(f) * ind
    return EssResSplit(ess, np.asarray(f) - ess, ind)


@dataclass(frozen=True)
class MetricsRecord:
    run_id: str
    eps: float
    metric_name: str
    q: float
    window: str
    t_or_sup: str
    value: float


def window_annulus(grid: Grid, r_inner: float, r_outer: float) -> np.ndarray:
    """Compact observation window: annulus around the obstacle, active cells."""
    xc, yc = grid.cell_centers()
    r = np.sqrt(xc**2 + yc**2)
    return grid.active & (r >= r_inner) & (r <= r_outer)


def default_window(grid: Grid) -> np.ndarray:
    a = grid.obstacle_radius
    return window_annulus(grid, 1.2 * a, 3.0 * a)


def solenoidal_test_function(grid: Grid, r_inner: float, r_outer: float):
    """Fixed divergence-free C2 vortex patch supported in the annulus window.

    Built as the discrete curl of a nodal stream function, so the discrete
    divergence vanishes identically and the field is tangent at (indeed,
    zero near) all boundaries.
    """
    xn, yn = grid.nodes()
    r = np.sqrt(xn**2 + yn**2)
    mid = 0.5 * (r_inner + r_outer)
    wid = 0.5 * (r_outer - r_inner)
    s = np.clip((r - mid) / wid, -1.0, 1.0)
    psi = (1.0 - s**2) ** 3 * wid  # C2 bump, scaled to O(wid) amplitude
    return grid.ops.curl(psi)


def _check_schedules(times_a, times_b):
    ta = np.asarray(times_a, dtype=float)
    tb = np.asarray(times_b, dtype=float)
    if ta.shape != tb.shape or np.max(np.abs(ta - tb), initial=0.0) > 1e-10:
        raise ScheduleMismatch("snapshot schedules do not match")
    return ta


def uniform_estimate_report(
    traj, grid: Grid, law: PressureLaw, eps: float, run_id: str = ""
):
    """Sup-in-time uniform-estimate monitors of one compressible trajectory.

    Covers the essential L2 bound on (rho - rho_ref)/eps, the residual
    L^gamma and indicator-L^1 smallness, the L^1 bound on the residual part
    of (rho - rho_ref)/eps, the dissipation
    norm of u, and the sup-in-time L2 bound on sqrt(rho) u.
    """
    rbar = law.rho_ref
    sup = {
        "ess_density_l2": 0.0,
        "res_density_lgamma": 0.0,
        "res_indicator_l1": 0.0,
        "res_density_lq": 0.0,
        "sqrt_rho_u_l2": 0.0,
    }
    grad_sq_time = []
    for state in traj.states:
        rho = state.rho
        scaled = (rho - rbar) / eps
        split_scaled = split_ess_res(rho, scaled, rbar)
        split_rho = split_ess_res(rho, rho, rbar)
        split_one = split_ess_res(rho, np.ones_like(rho), rbar)
        sup["ess_density_l2"] = max(
            sup["ess_density_l2"], grid.l2norm(split_scaled.essential)
        )
        sup["res_density_lgamma"] = max(
            sup["res_density_lgamma"], grid.lq_norm(split_rho.residual, law.gamma)
        )
        sup["res_indicator_l1"] = max(
            sup["res_indicator_l1"], grid.lq_norm(split_one.residual, 1.0)
        )
        sup["res_density_lq"] = max(
            sup["res_density_lq"], grid.lq_norm(split_scaled.residual, 1.0)
        )
        uc, vc = face_to_center(state.u, state.v)
        speed_sq = np.where(grid.active, rho * (uc**2 + vc**2), 0.0)
        sup["sqrt_rho_u_l2"] = max(
            sup["sqrt_rho_u_l2"], float(np.sqrt(np.sum(speed_sq)) * grid.h)
        )
        gu = grid.ops.grad(uc)
        gv = grid.ops.grad(vc)
        grad_sq = (
            grid.ops.face_l2norm(*gu) ** 2
            + grid.ops.face_l2norm(*gv) ** 2
            + grid.l2norm(uc) ** 2
            + grid.l2norm(vc) ** 2
        )
        grad_sq_time.append(grad_sq)

    records = [
        MetricsRecord(run_id, eps, name, {"res_density_lgamma": law.gamma,
                                          "res_indicator_l1": 1.0,
                                          "res_density_lq": 1.0,
                                          }.get(name, 2.0),
                      "full", "sup_t", value)
        for name, value in sup.items()
    ]
    w12 = float(np.sqrt(np.trapezoid(grad_sq_time, traj.times)))
    records.append(
        MetricsRecord(run_id, eps, "u_l2w12", 2.0, "full", "integral_t", w12)
    )
    return records


def convergence_metrics(
    comp_traj,
    inc_traj,
    grid: Grid,
    law: PressureLaw,
    path: MotionPath,
    lifting,
    run_id: str = "",
):
    """The three limit metrics: density scale, velocity gap, solenoidal pairing.

    (i)  max over snapshots of ||rho - rho_ref||_L2 / eps;
    (ii) space-time L2 distance of the velocities over the annulus window;
    (iii) L2(0,T) distance of the shifted-momentum pairings with a fixed
          solenoidal test function supported in that annulus, using the
          Helmholtz-projected pairing on the compressible side.
    """
    times = _check_schedules(comp_traj.times, inc_traj.times)
    window = default_window(grid)
    a = grid.obstacle_radius
    phi = solenoidal_test_function(grid, 1.2 * a, 3.0 * a)
    eps = comp_traj.eps
    rbar = law.rho_ref
    h2 = grid.h**2

    (phi_h_u, phi_h_v), _ = helmholtz_project(grid, phi[0], phi[1])

    density_scale = 0.0
    gap_sq = []
    pair_comp = []
    pair_inc = []
    for cstate, istate in zip(comp_traj.states, inc_traj.states):
        density_scale = max(density_scale, grid.l2norm(cstate.rho - rbar) / eps)
        cu, cv = face_to_center(cstate.u, cstate.v)
        iu, iv = face_to_center(istate.u, istate.v)
        diff = np.where(window, (cu - iu) ** 2 + (cv - iv) ** 2, 0.0)
        gap_sq.append(float(np.sum(diff)) * h2)

        ext = lifting_sample(lifting, grid, cstate.t)
        wu, wv = shifted_momentum(cstate, grid, path, law, ext)
        pair_comp.append(grid.ops.face_dot(wu, wv, phi_h_u, phi_h_v) * h2)
        swu = rbar * (istate.u - ext.u)
        swv = rbar * (istate.v - ext.v)
        swu[~grid.uface_interior] = 0.0
        swv[~grid.vface_interior] = 0.0
        pair_inc.append(grid.ops.face_dot(swu, swv, phi[0], phi[1]) * h2)

    velocity_gap = float(np.sqrt(np.trapezoid(gap_sq, times)))
    pair_diff = (np.array(pair_comp) - np.array(pair_inc)) ** 2
    pairing_gap = float(np.sqrt(np.trapezoid(pair_diff, times)))
    return [
        MetricsRecord(run_id, eps, "density_scale", 2.0, "full", "sup_t", density_scale),
        MetricsRecord(run_id, eps, "velocity_gap", 2.0, "annulus", "integral_t", velocity_gap),
        MetricsRecord(run_id, eps, "solenoidal_pairing_gap", 2.0, "full", "integral_t", pairing_gap),
    ]


def assembly_identity_residual(grid: Grid, wu, wv, psi, phi_u, phi_v) -> float:
    """Residual of the discrete splitting identity used by the final assembly.

    <W, phi> = <W, H(phi)> - <psi, div H_perp(phi)> holds exactly for the
    discrete Helmholtz splitting (the sign differs from the formal
    integration-by-parts sketch; the discrete duality fixes it).
    """
    h2 = grid.h**2
    (phu, phv), theta = helmholtz_project(grid, phi_u, phi_v)
    gpu, gpv = grid.ops.grad(theta)
    div_perp = grid.ops.div(gpu, gpv)
    lhs = grid.ops.face_dot(wu, wv, phi_u, phi_v) * h2
    rhs = grid.ops.face_dot(wu, wv, phu, phv) * h2
    rhs -= float(np.sum(np.where(grid.active, psi * div_perp, 0.0))) * h2
    return abs(lhs - rhs)
