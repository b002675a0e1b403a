from dataclasses import replace

import numpy as np
import pytest

from machlab.compressible import (
    CompressibleSolver,
    EnergyLedger,
    FluidState,
    IllPreparedData,
    SolverOptions,
)
from machlab.constitutive import PressureLaw, ViscosityPair
from machlab.errors import CflViolation, VacuumState
from machlab.geometry import (
    build_grid,
    build_rectangle_grid,
    linear_path,
    static_path,
)

LAW = PressureLaw(1.0, 2.0, 1.0)
VISC = ViscosityPair(0.01)


def make_solver(grid=None, path=None, sponge=True, visc=VISC, cfl=0.4):
    grid = grid or build_grid(2, 1.0, 0.15, 1.0 / 32.0)
    path = path or static_path(10.0)
    opts = SolverOptions(cfl=cfl, sponge_width=0.25 if sponge else 0.0)
    return CompressibleSolver(grid, LAW, visc, path, opts)


def rest_data(grid, eps=0.1):
    return IllPreparedData(
        np.zeros((grid.nx, grid.ny)),
        np.zeros((grid.nx + 1, grid.ny)),
        np.zeros((grid.nx, grid.ny + 1)),
        eps,
    )


def pulse_data(grid, eps=0.1, center=(0.45, 0.0), width=0.12, amp=1.0):
    xc, yc = grid.cell_centers()
    r2 = (xc - center[0]) ** 2 + (yc - center[1]) ** 2
    rho1 = np.where(r2 < width**2, amp * (1 - r2 / width**2) ** 3, 0.0)
    rho1[~grid.active] = 0.0
    return IllPreparedData(
        rho1,
        np.zeros((grid.nx + 1, grid.ny)),
        np.zeros((grid.nx, grid.ny + 1)),
        eps,
    )


class TestInitState:
    def test_rest_state(self):
        sol = make_solver()
        state = sol.init_state(rest_data(sol.grid))
        assert np.all(state.rho[sol.grid.active] == 1.0)
        assert np.abs(state.u).max() == 0.0

    def test_negative_bump_min_density(self):
        # perturbation dipping to -1 at eps = 0.1 gives min density 0.9;
        # the bump center sits on a cell center so the extremum is sampled
        sol = make_solver()
        g = sol.grid
        center = (g.x0 + 46.5 * g.h, g.y0 + 32.5 * g.h)
        data = pulse_data(g, eps=0.1, amp=-1.0, center=center)
        state = sol.init_state(data)
        assert state.rho[g.active].min() == pytest.approx(0.9, abs=1e-12)

    def test_vacuum_rejected(self):
        sol = make_solver()
        with pytest.raises(VacuumState):
            sol.init_state(pulse_data(sol.grid, eps=2.0, amp=-1.0))

    def test_data_bound_enforced(self):
        sol = make_solver()
        data = pulse_data(sol.grid, eps=0.01)
        small = IllPreparedData(data.rho1, data.u0, data.v0, data.eps, bound=1e-6)
        with pytest.raises(ValueError):
            sol.init_state(small)


class TestStep:
    def test_rest_state_is_fixed_point(self):
        sol = make_solver()
        s0 = sol.init_state(rest_data(sol.grid))
        s1 = sol.step(s0, sol.cfl_limit(s0))
        np.testing.assert_array_equal(s1.rho, s0.rho)
        np.testing.assert_array_equal(s1.u, s0.u)
        np.testing.assert_array_equal(s1.v, s0.v)

    def test_cfl_violation_raised(self):
        sol = make_solver()
        s0 = sol.init_state(pulse_data(sol.grid))
        with pytest.raises(CflViolation):
            sol.step(s0, 10.0 * sol.cfl_limit(s0))

    def test_mass_conserved_without_sponge(self):
        sol = make_solver(sponge=False)
        state = sol.init_state(pulse_data(sol.grid))
        m0 = sol._total_mass(state)
        state = sol.step(state, sol.cfl_limit(state))
        assert abs(sol._total_mass(state) - m0) <= 1e-12 * m0
        for _ in range(20):
            state = sol.step(state, sol.cfl_limit(state))
        assert abs(sol._total_mass(state) - m0) <= 1e-12 * m0

    def test_mass_conserved_moving_obstacle(self):
        sol = make_solver(path=linear_path((0.1, 0.0), 10.0), sponge=False)
        state = sol.init_state(rest_data(sol.grid))
        m0 = sol._total_mass(state)
        for _ in range(10):
            state = sol.step(state, sol.cfl_limit(state))
        assert abs(sol._total_mass(state) - m0) <= 1e-12 * m0

    def test_commutes_with_diagonal_reflection(self, obstacle_grid):
        # swapping x and y maps u-faces onto v-faces, so the transposed
        # y-component pass through the shared transport kernel must agree
        # with the x-component pass
        g = obstacle_grid
        sol = make_solver(grid=g)
        rng = np.random.default_rng(3)
        base = pulse_data(g, center=(0.4, -0.2))
        data = IllPreparedData(base.rho1, 0.05 * rng.standard_normal(base.u0.shape),
                               0.05 * rng.standard_normal(base.v0.shape), base.eps)
        s0 = sol.init_state(data)
        dt = 0.5 * sol.cfl_limit(s0)
        s1 = sol.step(s0, dt)
        r1 = sol.step(FluidState(s0.rho.T, s0.v.T, s0.u.T, s0.t, s0.eps), dt)
        assert np.abs(r1.rho - s1.rho.T).max() <= 1e-12
        assert np.abs(r1.u - s1.v.T).max() <= 1e-12
        assert np.abs(r1.v - s1.u.T).max() <= 1e-12

    def test_wavefront_speed(self):
        # pulse expands at the scaled sound speed sqrt(p'(1))/eps within 5%
        grid = build_rectangle_grid(-1.0, 1.0, -1.0, 1.0, 1.0 / 64.0)
        sol = CompressibleSolver(
            grid, LAW, ViscosityPair(1e-8), static_path(1.0),
            SolverOptions(sponge_width=0.0),
        )
        xc, yc = grid.cell_centers()
        rho1 = 0.5 * np.exp(-(xc**2 + yc**2) / 0.01)
        data = IllPreparedData(rho1, np.zeros((grid.nx + 1, grid.ny)),
                               np.zeros((grid.nx, grid.ny + 1)), 0.1)
        traj = sol.run(sol.init_state(data), [0.0, 0.02, 0.05])
        r = np.sqrt(xc**2 + yc**2)

        def front_radius(state):
            d = np.abs(state.rho - 1.0).ravel()
            bins = np.arange(0.0, 1.0, grid.h)
            prof = np.zeros(len(bins))
            idx = np.clip(np.digitize(r.ravel(), bins) - 1, 0, len(bins) - 1)
            np.maximum.at(prof, idx, d)
            k = int(prof.argmax())
            a, b, c = prof[k - 1], prof[k], prof[k + 1]
            shift = 0.5 * (a - c) / (a - 2 * b + c)
            return bins[k] + (shift + 0.5) * grid.h

        speed = (front_radius(traj.states[2]) - front_radius(traj.states[1])) / 0.03
        expected = np.sqrt(2.0) / 0.1
        assert abs(speed - expected) <= 0.05 * expected


class TestRun:
    def test_zero_horizon_returns_initial(self):
        sol = make_solver()
        s0 = sol.init_state(pulse_data(sol.grid))
        traj = sol.run(s0, [0.0])
        assert len(traj.states) == 1
        np.testing.assert_array_equal(traj.states[0].rho, s0.rho)

    def test_snapshot_times_exact(self):
        sol = make_solver()
        times = [0.0, 0.013, 0.0201, 0.05]
        traj = sol.run(sol.init_state(pulse_data(sol.grid)), times)
        np.testing.assert_allclose([s.t for s in traj.states], times, atol=1e-12)

    def test_determinism_bitwise(self):
        sol = make_solver()
        t1 = sol.run(sol.init_state(pulse_data(sol.grid)), [0.0, 0.02])
        t2 = sol.run(sol.init_state(pulse_data(sol.grid)), [0.0, 0.02])
        np.testing.assert_array_equal(t1.states[-1].rho, t2.states[-1].rho)
        np.testing.assert_array_equal(t1.states[-1].u, t2.states[-1].u)

    def test_dt_self_convergence_first_order(self):
        # Richardson: halving a fixed dt changes the final density at
        # first order, so consecutive differences shrink by about 2
        grid = build_grid(2, 1.0, 0.15, 1.0 / 16.0)
        sol = CompressibleSolver(
            grid, LAW, VISC, static_path(1.0),
            SolverOptions(sponge_width=0.0),
        )
        data = pulse_data(grid, eps=0.2, width=0.16)
        horizon = 0.02
        base = sol.cfl_limit(sol.init_state(data)) * 0.8
        dt0 = horizon / np.ceil(horizon / base)
        finals = []
        for level in range(3):
            dt = dt0 / 2**level
            traj = sol.run(sol.init_state(data), [0.0, horizon], dt_policy=dt)
            finals.append(traj.states[-1].rho)
        d1 = np.abs(finals[0] - finals[1]).sum()
        d2 = np.abs(finals[1] - finals[2]).sum()
        order = np.log2(d1 / d2)
        assert order >= 0.8


class TestEnergyInequality:
    def test_rest_static_both_sides_zero(self):
        sol = make_solver()
        traj = sol.run(sol.init_state(rest_data(sol.grid)), [0.0, 0.01])
        rec = traj.energy[-1]
        assert rec.lhs == 0.0 and rec.rhs == 0.0 and rec.flag

    def test_pulse_run_flags_true(self):
        sol = make_solver()
        traj = sol.run(sol.init_state(pulse_data(sol.grid)), np.linspace(0, 0.05, 6))
        e0 = traj.energy[0].lhs
        for rec in traj.energy:
            assert rec.lhs <= rec.rhs + 1e-3 * e0
            assert rec.flag

    def test_moving_obstacle_from_rest(self):
        # the lifting-field terms populate the right-hand side; the
        # inequality still holds
        sol = make_solver(path=linear_path((0.1, 0.0), 10.0))
        traj = sol.run(sol.init_state(rest_data(sol.grid)), np.linspace(0, 0.05, 6))
        assert any(rec.rhs != 0.0 for rec in traj.energy[1:])
        for rec in traj.energy:
            assert rec.flag

    def test_tol_energy_sets_flag_tolerance(self):
        # lhs exceeds rhs by 5e-4 of the initial energy: inside the default
        # 1e-3 tolerance, outside a tolerance of 1e-4
        sol = make_solver()
        strict = CompressibleSolver(sol.grid, LAW, VISC, sol.path,
                                    replace(sol.options, tol_energy=1e-4))
        state = sol.init_state(rest_data(sol.grid))
        ledger = EnergyLedger(initial_energy=1.0, initial_v_coupling=0.0,
                              dissipation=1.0005)
        assert sol.energy_report(state, ledger).flag
        assert not strict.energy_report(state, ledger).flag

    def test_sponge_mass_flux_logged(self):
        sol = make_solver()
        traj = sol.run(sol.init_state(pulse_data(sol.grid)), np.linspace(0, 0.05, 6))
        drift = traj.total_mass[-1] - traj.total_mass[0]
        assert drift == pytest.approx(traj.sponge_mass[-1], abs=1e-10)
