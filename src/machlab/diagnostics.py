"""Essential/residual splitting, uniform-estimate monitors, and convergence metrics.

These are pure readers of immutable snapshots: given one compressible
snapshot and the incompressible one at its time, they produce that
snapshot's terms, as records; member_metrics reduces a member's terms, in
time, to the append-only records written to the metrics CSV. The sweep
holds one sampled state at a time, plus the one its loop is still on.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .constitutive import PressureLaw, essential_indicator
from .errors import ScheduleMismatch
from .geometry import ExtensionFieldSample, Grid, MotionPath
from .spectral import shifted_momentum


@dataclass(frozen=True)
class EssResSplit:
    """Exact partition of a field by the density indicator 1_{r/2 < rho < 2r}."""

    essential: np.ndarray
    residual: np.ndarray
    indicator: np.ndarray


def split_ess_res(rho: np.ndarray, f: np.ndarray, rho_ref: float) -> EssResSplit:
    if rho.shape != np.asarray(f).shape:
        raise ValueError("rho and f must share a grid")
    ind = essential_indicator(rho, rho_ref)
    ess = np.asarray(f) * ind
    return EssResSplit(ess, np.asarray(f) - ess, ind)


@dataclass(frozen=True)
class MetricsRecord:
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


def annulus_radii(grid: Grid):
    """Inner and outer radius of the observation annulus, which holds the
    velocity-gap window and the solenoidal test function."""
    a = grid.obstacle_radius
    return 1.2 * a, 3.0 * a


def default_window(grid: Grid) -> np.ndarray:
    return window_annulus(grid, *annulus_radii(grid))


def observation_probes(grid: Grid):
    return default_window(grid), solenoidal_test_function(grid, *annulus_radii(grid))


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


def sup_t(eps, name, value, q=2.0):
    """A sup_t record on the full domain: member_metrics keeps the largest
    of a member's terms."""
    return MetricsRecord(eps, name, q, "full", "sup_t", value)


def integral_t(eps, name, value, window="full"):
    """An integral_t record, an L2(0,T) norm: member_metrics integrates a
    member's terms, which are squares."""
    return MetricsRecord(eps, name, 2.0, window, "integral_t", value)


def uniform_estimate_report(state, grid: Grid, law: PressureLaw):
    """One compressible snapshot's terms of the uniform-estimate monitors.

    Covers the essential L2 bound on (rho - rho_ref)/eps, the residual
    L^gamma and indicator-L^1 smallness, the L^1 bound on the residual part
    of (rho - rho_ref)/eps, the dissipation
    norm of u (its term squared), and the sup-in-time L2 bound on sqrt(rho) u.
    """
    rbar = law.rho_ref
    lay = grid.layout
    rho, eps = state.rho, state.eps
    scaled = (rho - rbar) / eps
    split_scaled = split_ess_res(rho, scaled, rbar)
    split_rho = split_ess_res(rho, rho, rbar)
    uc, vc = map(lay.cells, lay.centers(state.u, state.v))
    speed_sq = np.where(grid.active, rho * (uc**2 + vc**2), 0.0)
    gu = grid.ops.grad(uc)
    gv = grid.ops.grad(vc)
    grad_sq = (
        grid.ops.face_l2norm(*gu) ** 2
        + grid.ops.face_l2norm(*gv) ** 2
        + grid.l2norm(uc) ** 2
        + grid.l2norm(vc) ** 2
    )
    return [
        sup_t(eps, "ess_density_l2", grid.l2norm(split_scaled.essential)),
        sup_t(eps, "res_density_lgamma", grid.lq_norm(split_rho.residual, law.gamma),
              law.gamma),
        sup_t(eps, "res_indicator_l1", grid.lq_norm(1.0 - split_scaled.indicator, 1.0), 1.0),
        sup_t(eps, "res_density_lq", grid.lq_norm(split_scaled.residual, 1.0), 1.0),
        sup_t(eps, "sqrt_rho_u_l2", float(np.sqrt(np.sum(speed_sq)) * grid.h)),
        integral_t(eps, "u_l2w12", grad_sq),
    ]


def convergence_metrics(cstate, istate, grid: Grid, law: PressureLaw, path: MotionPath,
                        ext: ExtensionFieldSample, probes=None):
    """One snapshot's terms of the three limit metrics: density scale,
    velocity gap, solenoidal pairing; ext is the lifting field V at cstate.t
    and probes the grid's observation_probes, built here when not given.

    (i)  ||rho - rho_ref||_L2 / eps, whose max over snapshots is the metric;
    (ii) the squared L2 distance of the velocities over the annulus window;
    (iii) the squared distance of the shifted-momentum pairings with a fixed
          solenoidal test function supported in that annulus. The test
          function is a discrete curl, so it is its own Helmholtz
          projection (to rounding) and both sides pair with it directly.
    A reference snapshot more than 1e-10 away in time raises ScheduleMismatch.
    """
    if abs(cstate.t - istate.t) > 1e-10:
        raise ScheduleMismatch(f"snapshot at t = {cstate.t!r} paired with the "
                               f"reference at t = {istate.t!r}")
    window, phi = probes or observation_probes(grid)
    eps = cstate.eps
    rbar = law.rho_ref
    h2 = grid.h**2
    lay = grid.layout

    cu, cv = map(lay.cells, lay.centers(cstate.u, cstate.v))
    iu, iv = map(lay.cells, lay.centers(istate.u, istate.v))
    diff = np.where(window, (cu - iu) ** 2 + (cv - iv) ** 2, 0.0)

    wu, wv = shifted_momentum(cstate, grid, path, law, ext)
    pair_comp = grid.ops.face_dot(wu, wv, phi[0], phi[1]) * h2
    # face_dot reads the interior faces only
    swu = rbar * (istate.u - ext.u)
    swv = rbar * (istate.v - ext.v)
    pair_inc = grid.ops.face_dot(swu, swv, phi[0], phi[1]) * h2
    return [
        sup_t(eps, "density_scale", grid.l2norm(cstate.rho - rbar) / eps),
        integral_t(eps, "velocity_gap", float(np.sum(diff)) * h2, "annulus"),
        integral_t(eps, "solenoidal_pairing_gap", np.square(pair_comp - pair_inc)),
    ]


def member_metrics(terms, times):
    """A member's metric records, reduced in time from its snapshots' terms.

    `terms` holds one list of records per snapshot of `times`, all in one
    order, each record's value that snapshot's term. A sup_t metric is the
    largest of its terms, and 0 at least; an integral_t metric is the
    square root of the trapezoid integral of its terms, which are squares,
    taken component by component when the terms are arrays.
    """
    records = []
    for series in zip(*terms):
        values = [r.value for r in series]
        if series[0].t_or_sup == "sup_t":
            value = max([0.0, *values])
        else:
            value = np.sqrt(np.trapezoid(np.array(values), times, axis=0))
        records.append(replace(series[0], value=value))
    return records
