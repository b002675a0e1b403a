"""Acceptance suite: one test per headline criterion, each printing a
PASS/FAIL line with the measured values at the pinned tolerance.

Criteria over the shipped sweep use the session-scoped default run
(budget: the full sweep in minutes on a laptop); the spectral-decay
criterion uses the shipped large-extent spectral scenario.
"""

import math
from pathlib import Path

import numpy as np
from scipy.integrate import quad

from machlab import spectral as sp
from machlab.compressible import CompressibleSolver
from machlab.constitutive import (
    PressureLaw,
    ViscosityPair,
    pressure,
    pressure_potential,
)
from machlab.geometry import Grid, build_grid, static_path
from machlab.incompressible import IncompressibleSolver
from machlab.storage import read_csv

from conftest import face_masks, fixed_step, in_layout

LAW = PressureLaw(1.0, 2.0, 1.0)


def _verdict(criterion, passed, detail):
    line = f"[criterion {criterion}] {'PASS' if passed else 'FAIL'}: {detail}"
    print(line)
    return line


def _summary_column(run, name):
    idx = run["header"].index(name)
    return [float(row[idx]) for row in run["summary"]]


def test_criterion_1_density_scale_uniform(default_run):
    """max_t ||rho - rho_ref||_L2 / eps within a factor 2 of its eps=0.2 value."""
    eps = _summary_column(default_run, "eps")
    scale = _summary_column(default_run, "density_scale")
    base = scale[eps.index(0.2)]
    ratios = [s / base for s in scale]
    ok = all(0.5 <= r <= 2.0 for r in ratios)
    line = _verdict(1, ok, f"density-scale ratios vs eps=0.2: "
                           f"{[f'{r:.3f}' for r in ratios]}")
    assert ok, line


def test_criterion_2_velocity_convergence(default_run):
    """Windowed space-time velocity gap strictly decreasing, halved at the end."""
    gaps = _summary_column(default_run, "velocity_gap")
    decreasing = all(a > b for a, b in zip(gaps, gaps[1:]))
    halved = gaps[-1] <= 0.5 * gaps[0]
    ok = decreasing and halved
    line = _verdict(2, ok, f"gaps={[f'{g:.5f}' for g in gaps]} "
                           f"final/first={gaps[-1] / gaps[0]:.3f}")
    assert ok, line


def test_criterion_3_acoustic_local_decay(spectral_run):
    """D(eps) strictly decreasing with D(0.025) <= 0.5 D(0.2)."""
    _, rows = read_csv(Path(spectral_run["out_dir"]) / "rage.csv")
    ds = [float(r[1]) for r in rows]
    decreasing = all(a > b for a, b in zip(ds, ds[1:]))
    halved = ds[-1] <= 0.5 * ds[0]
    ok = decreasing and halved
    line = _verdict(3, ok, f"D={[f'{d:.4e}' for d in ds]} "
                           f"final/first={ds[-1] / ds[0]:.3f}")
    assert ok, line


def test_criterion_4_propagator_unitarity():
    """Energy drift <= 1e-10 relative for 100 random retained-span states."""
    grid = Grid(0.0, 0.0, 48, 48, math.pi / 48)
    dec = sp.spectral_decompose(grid, 80)
    rng = np.random.default_rng(2024)
    horizon = 0.5
    worst = 0.0
    for _ in range(100):
        rc = rng.standard_normal(dec.modes)
        pc = rng.standard_normal(dec.modes)
        pc[0] = 0.0
        state = sp.AcousticState(dec.reconstruct(rc), dec.reconstruct(pc),
                                 0.025, 0.0)
        e0 = sp.acoustic_energy(dec, LAW, state)
        moved = sp.wave_propagate(dec, LAW, 0.025, state, horizon)
        worst = max(worst, abs(sp.acoustic_energy(dec, LAW, moved) - e0) / e0)
    ok = worst <= 1e-10
    line = _verdict(4, ok, f"worst relative energy drift {worst:.3e} (tol 1e-10)")
    assert ok, line


def test_criterion_5_helmholtz_correctness():
    """Idempotence/orthogonality 1e-8 on 100 random fields; exact cases 1e-10."""
    grid = build_grid(2, 1.0, 0.15, 1.0 / 32.0)
    iu, iv = face_masks(grid, "interior")
    rng = np.random.default_rng(7)
    worst_idem = worst_orth = worst_pyth = 0.0
    for _ in range(100):
        u = in_layout(grid, rng.standard_normal((grid.nx + 1, grid.ny)))
        v = in_layout(grid, rng.standard_normal((grid.nx, grid.ny + 1)))
        hu, hv, theta = grid.ops.helmholtz(u, v)
        hu2, hv2, _ = grid.ops.helmholtz(hu, hv)
        gt = grid.ops.grad(theta)
        um = np.where(iu, u, 0.0)
        vm = np.where(iv, v, 0.0)
        nrm2 = grid.ops.face_dot(um, vm, um, vm)
        worst_idem = max(
            worst_idem,
            grid.ops.face_l2norm(hu2 - hu, hv2 - hv)
            / max(grid.ops.face_l2norm(hu, hv), 1e-30),
        )
        worst_orth = max(
            worst_orth, abs(grid.ops.face_dot(hu, hv, gt[0], gt[1])) / nrm2
        )
        pyth = nrm2 - grid.ops.face_dot(hu, hv, hu, hv) - grid.ops.face_dot(
            gt[0], gt[1], gt[0], gt[1]
        )
        worst_pyth = max(worst_pyth, abs(pyth) / nrm2)

    # exact cases: gradients are killed, solenoidal-tangent fields are fixed
    xc, yc = grid.cell_centers()
    q = np.where(grid.active, np.exp(-((xc - 0.3) ** 2 + yc**2) / 0.05), 0.0)
    gq = grid.ops.grad(in_layout(grid, q))
    ku, kv, _ = grid.ops.helmholtz(gq[0], gq[1])
    kill = max(np.abs(ku).max(), np.abs(kv).max())
    xn, yn = grid.nodes()
    r2 = (xn + 0.55) ** 2 + yn**2
    psi = np.where(r2 < 0.0625, (1 - r2 / 0.0625) ** 3, 0.0)
    su = (psi[:, 1:] - psi[:, :-1]) / grid.h
    sv = -(psi[1:, :] - psi[:-1, :]) / grid.h
    su[~iu] = 0.0
    sv[~iv] = 0.0
    fu, fv, _ = grid.ops.helmholtz(in_layout(grid, su), in_layout(grid, sv))
    fix = max(np.abs(fu - su).max(), np.abs(fv - sv).max())

    ok = (worst_idem <= 1e-10 and worst_orth <= 1e-8 and worst_pyth <= 1e-8
          and kill <= 1e-10 and fix <= 1e-10)
    line = _verdict(
        5, ok,
        f"idem={worst_idem:.2e} orth={worst_orth:.2e} pyth={worst_pyth:.2e} "
        f"grad-kill={kill:.2e} sol-fix={fix:.2e}",
    )
    assert ok, line


def test_criterion_6_neumann_spectrum():
    """First 10 nonzero rectangle eigenvalues vs k^2 + l^2, rel err <= 5 h^2 / lambda.

    Known defect of the stated tolerance: a consistent second-order
    operator has eigenvalue error (k^4 + l^4) h^2 / 12 + O(h^4), which for
    lambda = 9 (modes (3,0)/(0,3)) is 6.75 h^2 > 5 h^2 at every grid
    spacing, so those two modes cannot meet the bound; the failure is
    reported honestly rather than loosened away.
    """
    grid = Grid(0.0, 0.0, 48, 48, math.pi / 48)
    dec = sp.spectral_decompose(grid, 12)
    h = grid.h
    analytic = sorted(k * k + l * l for k in range(6) for l in range(6))[1:11]
    kernel = dec.lift(np.eye(dec.modes)[0])
    kernel_exact = dec.eigenvalues[0] == 0.0 and np.allclose(
        kernel, kernel[0], rtol=0, atol=0
    )
    rows = []
    ok = kernel_exact
    for lam_a, lam_d in zip(analytic, dec.eigenvalues[1:11]):
        rel = abs(lam_d - lam_a) / lam_a
        tol = 5.0 * h**2 / lam_a
        rows.append(f"lam={lam_a}:{'ok' if rel <= tol else 'VIOLATION'}"
                    f"(rel={rel:.2e},tol={tol:.2e})")
        ok = ok and rel <= tol
    line = _verdict(6, ok, f"kernel_exact={kernel_exact} " + " ".join(rows))
    assert ok, line


def test_criterion_7_energy_inequality_monitor(default_run):
    """Energy flag true at every snapshot of the shipped sweep."""
    _, rows = read_csv(Path(default_run["out_dir"]) / "energy.csv")
    n_bad = sum(1 for r in rows if int(r[4]) != 1)
    ok = n_bad == 0 and len(rows) > 0
    line = _verdict(7, ok, f"{len(rows)} snapshots, {n_bad} flag violations "
                           f"(tol 1e-3 of initial energy)")
    assert ok, line


def test_criterion_8_residual_smallness(default_run):
    """||[1]_res||_L1 / eps^2 ratios in [1/4, 4] across halvings (or empty sets)."""
    eps = _summary_column(default_run, "eps")
    res = _summary_column(default_run, "res_indicator_l1")
    if all(v == 0.0 for v in res):
        ok = True
        detail = "residual set empty at every eps"
    else:
        scaled = [v / e**2 for v, e in zip(res, eps)]
        ratios = [b / a for a, b in zip(scaled, scaled[1:]) if a > 0]
        ok = all(0.25 <= r <= 4.0 for r in ratios)
        detail = f"scaled residuals {scaled}, halving ratios {ratios}"
    line = _verdict(8, ok, detail)
    assert ok, line


def test_criterion_9_forcing_channels_bounded(default_run):
    """Sum of channel norms varies by less than a factor 2 across the sweep."""
    sums = _summary_column(default_run, "forcing_channel_sum")
    spread = max(sums) / min(sums)
    ok = spread < 2.0
    line = _verdict(9, ok, f"channel sums {[f'{s:.4f}' for s in sums]} "
                           f"spread factor {spread:.3f}")
    assert ok, line


class TestCriterion10Oracles:
    def test_pressure_potential_vs_quadrature(self):
        worst = 0.0
        for gamma in (5.0 / 3.0, 2.0, 7.0 / 3.0):
            law = PressureLaw(1.0, gamma, 1.0)
            for rho in (0.4, 0.9, 1.7, 3.0):
                oracle, _ = quad(lambda z: pressure(law, z) / z**2, 1.0, rho,
                                 epsabs=1e-14, epsrel=1e-13)
                oracle *= rho
                rel = abs(pressure_potential(law, rho) - oracle) / max(abs(oracle), 1e-30)
                worst = max(worst, rel)
        ok = worst <= 1e-10
        line = _verdict("10a", ok, f"pressure potential vs quadrature {worst:.2e}")
        assert ok, line

    def test_wave_propagator_vs_analytic_rotation(self):
        grid = Grid(0.0, 0.0, 32, 32, math.pi / 32)
        dec = sp.spectral_decompose(grid, 20)
        eps = 0.1
        worst = 0.0
        rng = np.random.default_rng(5)
        for k in (1, 4, 9, 15):
            lam = dec.eigenvalues[k]
            r0, p0 = rng.standard_normal(2)
            basis = np.eye(dec.modes)[k]
            state = sp.AcousticState(dec.reconstruct(r0 * basis),
                                     dec.reconstruct(p0 * basis), eps, 0.0)
            t = 0.37
            out = sp.wave_propagate(dec, LAW, eps, state, t)
            omega = math.sqrt(2.0 * lam) / eps
            r_exact = r0 * math.cos(omega * t) + p0 * math.sqrt(lam / 2.0) * math.sin(omega * t)
            p_exact = p0 * math.cos(omega * t) - r0 * math.sqrt(2.0 / lam) * math.sin(omega * t)
            worst = max(worst, abs(dec.coefficients(out.r)[k] - r_exact),
                        abs(dec.coefficients(out.psi)[k] - p_exact))
        ok = worst <= 1e-10
        line = _verdict("10b", ok, f"single-mode rotation error {worst:.2e}")
        assert ok, line

    def test_duhamel_vs_driven_oscillator(self):
        grid = Grid(0.0, 0.0, 32, 32, math.pi / 32)
        dec = sp.spectral_decompose(grid, 20)
        eps, k, hk = 0.1, 3, 0.9
        lam = dec.eigenvalues[k]
        basis = np.eye(dec.modes)[k]
        state = sp.AcousticState(
            dec.reconstruct(0.4 * basis),
            np.zeros((grid.nx, grid.ny)), eps, 0.0,
        )
        horizon = 0.25
        out = sp.duhamel_solve(dec, LAW, eps, state, lambda s: hk * basis,
                               horizon, dt=5e-5, sample_times=[horizon])[0]
        omega = math.sqrt(2.0 * lam) / eps
        rp = eps * hk / 2.0
        r_exact = (0.4 - rp) * math.cos(omega * horizon) + rp
        p_exact = -(0.4 - rp) * math.sqrt(2.0 / lam) * math.sin(omega * horizon)
        err = max(abs(dec.coefficients(out.r)[k] - r_exact),
                  abs(dec.coefficients(out.psi)[k] - p_exact))
        ok = err <= 1e-6
        line = _verdict("10c", ok, f"driven-oscillator error {err:.2e} (tol 1e-6)")
        assert ok, line

    def test_richardson_orders(self):
        # compressible
        grid = build_grid(2, 1.0, 0.15, 1.0 / 16.0)
        sol = CompressibleSolver(grid, LAW, ViscosityPair(0.01), static_path(1.0), 0.0)
        xc, yc = grid.cell_centers()
        r2 = (xc - 0.45) ** 2 + yc**2
        rho1 = np.where(r2 < 0.0256, (1 - r2 / 0.0256) ** 3, 0.0)
        rho1[~grid.active] = 0.0
        data = (rho1, np.zeros((grid.nx + 1, grid.ny)),
                np.zeros((grid.nx, grid.ny + 1)), 0.2)
        horizon = 0.02
        base = sol.cfl_limit(sol.init_state(*data)) * 0.8
        dt0 = horizon / np.ceil(horizon / base)
        finals = [
            fixed_step(sol, sol.init_state(*data), dt0 / 2**m, horizon).rho
            for m in range(3)
        ]
        order_c = np.log2(np.abs(finals[0] - finals[1]).sum()
                          / np.abs(finals[1] - finals[2]).sum())

        # incompressible
        inc = IncompressibleSolver(grid, 0.01, static_path(1.0))
        xn, yn = grid.nodes()
        rr = (xn + 0.55) ** 2 + yn**2
        psi = np.where(rr < 0.0625, 0.12 * (1 - rr / 0.0625) ** 3, 0.0)
        u0 = (psi[:, 1:] - psi[:, :-1]) / grid.h
        v0 = -(psi[1:, :] - psi[:-1, :]) / grid.h
        st0 = inc.init_state(u0, v0)
        base = inc.cfl_limit(st0) * 0.8
        horizon = 0.04
        dt0 = horizon / np.ceil(horizon / base)
        outs = []
        for m in range(3):
            st = fixed_step(inc, inc.init_state(u0, v0), dt0 / 2**m, horizon)
            outs.append(np.concatenate([st.u.ravel(), st.v.ravel()]))
        order_i = np.log2(np.linalg.norm(outs[0] - outs[1])
                          / np.linalg.norm(outs[1] - outs[2]))
        ok = order_c >= 0.8 and order_i >= 0.8
        line = _verdict("10d", ok, f"Richardson orders: compressible {order_c:.2f}, "
                                   f"incompressible {order_i:.2f} (tol 0.8)")
        assert ok, line
