import numpy as np
import pytest

from machlab import compressible
from machlab.compressible import (
    DATA_BOUND,
    TOL_ENERGY,
    CompressibleSolver,
    EnergyLedger,
    FluidState,
)
from machlab.config import parse_config
from machlab.constitutive import PressureLaw, ViscosityPair, stress
from machlab.errors import CflViolation, NanDetected, VacuumState
from machlab.geometry import (
    Grid,
    build_grid,
    enforce_bc,
    eval_motion,
    lifting_sample,
    linear_path,
    sinusoidal_path,
    static_path,
)
from machlab.incompressible import IncompressibleSolver
from machlab import spectral
from machlab.constitutive import essential_indicator, pressure_entropy
from machlab.operators import known_faces, known_gradient
from machlab.spectral import assemble_forcing, forcing_channel_norms, spectral_decompose
from machlab.sweep import build_scenario

from conftest import (
    MINI_CFG,
    SINUSOIDAL_MINI_CFG,
    STATIC_MINI_CFG,
    face_masks,
    fixed_step,
    in_layout,
    oracle_center_to_xface,
    oracle_center_to_yface,
    oracle_face_to_center,
    oracle_gradient,
)

LAW = PressureLaw(1.0, 2.0, 1.0)
VISC = ViscosityPair(0.01)


def make_solver(grid=None, path=None, sponge=True, visc=VISC):
    grid = grid or build_grid(2, 1.0, 0.15, 1.0 / 32.0)
    path = path or static_path(10.0)
    return CompressibleSolver(grid, LAW, visc, path, 0.25 if sponge else 0.0)


def rest_data(grid, eps=0.1):
    """init_state's arguments rho1, u0, v0, eps of the state at rest."""
    return (
        np.zeros((grid.nx, grid.ny)),
        np.zeros((grid.nx + 1, grid.ny)),
        np.zeros((grid.nx, grid.ny + 1)),
        eps,
    )


def pulse_data(grid, eps=0.1, center=(0.45, 0.0), width=0.12, amp=1.0):
    """init_state's arguments rho1, u0, v0, eps of a density pulse at rest."""
    xc, yc = grid.cell_centers()
    r2 = (xc - center[0]) ** 2 + (yc - center[1]) ** 2
    rho1 = np.where(r2 < width**2, amp * (1 - r2 / width**2) ** 3, 0.0)
    rho1[~grid.active] = 0.0
    return (
        rho1,
        np.zeros((grid.nx + 1, grid.ny)),
        np.zeros((grid.nx, grid.ny + 1)),
        eps,
    )


class TestInitState:
    def test_rest_state(self):
        sol = make_solver()
        state = sol.init_state(*rest_data(sol.grid))
        assert np.all(state.rho[sol.grid.active] == 1.0)
        assert np.abs(state.u).max() == 0.0

    def test_negative_bump_min_density(self):
        # perturbation dipping to -1 at eps = 0.1 gives min density 0.9;
        # the bump center sits on a cell center so the extremum is sampled
        sol = make_solver()
        g = sol.grid
        center = (g.x0 + 46.5 * g.h, g.y0 + 32.5 * g.h)
        data = pulse_data(g, eps=0.1, amp=-1.0, center=center)
        state = sol.init_state(*data)
        assert state.rho[g.active].min() == pytest.approx(0.9, abs=1e-12)

    def test_vacuum_rejected(self):
        sol = make_solver()
        with pytest.raises(VacuumState):
            sol.init_state(*pulse_data(sol.grid, eps=2.0, amp=-1.0))

    def test_initial_data_left_unchanged(self):
        # init_state writes the boundary values into copies: the data's
        # arrays are the caller's, and every eps member reuses them
        sol = make_solver(path=linear_path((0.1, 0.05), 10.0))
        g = sol.grid
        rng = np.random.default_rng(4)
        u0, v0 = rng.random((g.nx + 1, g.ny)), rng.random((g.nx, g.ny + 1))
        data = (np.zeros((g.nx, g.ny)), u0.copy(), v0.copy(), 0.1)
        state = sol.init_state(*data)
        assert np.array_equal(data[1], u0) and np.array_equal(data[2], v0)
        assert not np.array_equal(state.u, u0) and not np.array_equal(state.v, v0)
        # the step hands enforce_bc arrays it owns: fresh ones, not the input's
        out = sol.step(state, 0.5 * sol.cfl_limit(state), EnergyLedger())
        assert not np.shares_memory(out.u, state.u)
        assert not np.shares_memory(out.v, state.v)

    def test_data_bound_enforced(self):
        sol = make_solver()
        rho1, u0, v0, eps = pulse_data(sol.grid, eps=0.01)
        g = sol.grid
        norms = g.l2norm(rho1) + g.lq_norm(rho1, np.inf)
        sol.init_state(rho1, u0, v0, eps)
        with pytest.raises(ValueError, match="exceed the bound"):
            sol.init_state(rho1 * (1.01 * DATA_BOUND / norms), u0, v0, eps)


class TestStep:
    def test_rest_state_is_fixed_point(self):
        sol = make_solver()
        s0 = sol.init_state(*rest_data(sol.grid))
        s1 = sol.step(s0, sol.cfl_limit(s0), EnergyLedger())
        np.testing.assert_array_equal(s1.rho, s0.rho)
        np.testing.assert_array_equal(s1.u, s0.u)
        np.testing.assert_array_equal(s1.v, s0.v)

    def test_cfl_violation_raised(self):
        sol = make_solver()
        s0 = sol.init_state(*pulse_data(sol.grid))
        with pytest.raises(CflViolation):
            sol.step(s0, 10.0 * sol.cfl_limit(s0), EnergyLedger())
        for dt in (0.0, -1e-3):
            with pytest.raises(ValueError, match="dt must be positive"):
                sol.step(s0, dt, EnergyLedger())

    def test_run_evaluates_cfl_limit_once_per_step(self, monkeypatch):
        calls = {"cfl_limit": 0, "step": 0}

        def counted(name):
            fn = getattr(CompressibleSolver, name)

            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        for name in calls:
            monkeypatch.setattr(CompressibleSolver, name, counted(name))
        sol = make_solver(path=linear_path((0.1, 0.0), 10.0))
        s0 = sol.init_state(*pulse_data(sol.grid))
        *_, (state, _) = sol.run(s0, [0.0, 0.005, 0.01])
        assert calls["step"] > 2
        assert calls["cfl_limit"] == calls["step"]
        # the first step from `state` stores its limit; the guard of the
        # second reads the stored value and must still refuse a too-large dt
        limit = sol.cfl_limit(state)
        sol.step(state, limit, EnergyLedger())
        with pytest.raises(CflViolation):
            sol.step(state, 1.01 * limit, EnergyLedger())

    def test_step_writes_no_solver_state(self):
        # a step books into the ledger it is handed and returns its state:
        # of both solvers, it leaves every attribute the object __init__
        # set, and writes only the step policy's cached CFL bound
        sol = make_solver(path=linear_path((0.1, 0.0), 10.0))
        assert sol.lifting is not None and sol.sponge_width > 0.0
        inc = IncompressibleSolver(sol.grid, 0.01, sol.path)
        rho1, u0, v0, eps = pulse_data(sol.grid)
        for solver, state, ledger in ((sol, sol.init_state(rho1, u0, v0, eps), (EnergyLedger(),)),
                                      (inc, inc.init_state(u0, v0), ())):
            built = dict(vars(solver))
            for _ in range(2):
                state = solver.step(state, solver.cfl_limit(state), *ledger)
            after = dict(vars(solver))
            assert after.pop("_limit_of")[0] is not None
            assert after.keys() == built.keys()
            assert all(after[name] is built[name] for name in built), type(solver).__name__

    def test_mass_conserved_without_sponge(self):
        sol = make_solver(sponge=False)
        state = sol.init_state(*pulse_data(sol.grid))
        m0 = total_mass(sol, state)
        state = sol.step(state, sol.cfl_limit(state), EnergyLedger())
        assert abs(total_mass(sol, state) - m0) <= 1e-12 * m0
        for _ in range(20):
            state = sol.step(state, sol.cfl_limit(state), EnergyLedger())
        assert abs(total_mass(sol, state) - m0) <= 1e-12 * m0

    def test_mass_conserved_moving_obstacle(self):
        sol = make_solver(path=linear_path((0.1, 0.0), 10.0), sponge=False)
        state = sol.init_state(*rest_data(sol.grid))
        m0 = total_mass(sol, state)
        for _ in range(10):
            state = sol.step(state, sol.cfl_limit(state), EnergyLedger())
        assert abs(total_mass(sol, state) - m0) <= 1e-12 * m0

    def test_commutes_with_diagonal_reflection(self, obstacle_grid):
        # swapping x and y maps u-faces onto v-faces, so the transposed
        # y-component pass through the shared transport kernel must agree
        # with the x-component pass
        g = obstacle_grid
        sol = make_solver(grid=g)
        rng = np.random.default_rng(3)
        rho1, u0, v0, eps = pulse_data(g, center=(0.4, -0.2))
        s0 = sol.init_state(rho1, 0.05 * rng.standard_normal(u0.shape),
                            0.05 * rng.standard_normal(v0.shape), eps)
        dt = 0.5 * sol.cfl_limit(s0)
        s1 = sol.step(s0, dt, EnergyLedger())
        r1 = sol.step(FluidState(*(in_layout(g, a.T) for a in (s0.rho, s0.v, s0.u)),
                                 s0.t, s0.eps), dt, EnergyLedger())
        assert np.abs(r1.rho - s1.rho.T).max() <= 1e-12
        assert np.abs(r1.u - s1.v.T).max() <= 1e-12
        assert np.abs(r1.v - s1.u.T).max() <= 1e-12

    def test_wavefront_speed(self):
        # pulse expands at the scaled sound speed sqrt(p'(1))/eps within 5%
        grid = Grid(-1.0, -1.0, 128, 128, 1.0 / 64.0)
        sol = CompressibleSolver(grid, LAW, ViscosityPair(1e-8), static_path(1.0), 0.0)
        xc, yc = grid.cell_centers()
        rho1 = 0.5 * np.exp(-(xc**2 + yc**2) / 0.01)
        states = [state for state, _ in sol.run(
            sol.init_state(rho1, np.zeros((grid.nx + 1, grid.ny)),
                           np.zeros((grid.nx, grid.ny + 1)), 0.1),
            [0.0, 0.02, 0.05])]
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

        speed = (front_radius(states[2]) - front_radius(states[1])) / 0.03
        expected = np.sqrt(2.0) / 0.1
        assert abs(speed - expected) <= 0.05 * expected


class TestStepRefusals:
    """The step re-checks none of the invariants it keeps (positive active
    density, rho_ref elsewhere), yet a state that breaks them is refused
    as it was when it checked them: with VacuumState where a density
    reaches zero, NaN or not, and with NanDetected where only NaN does."""

    U = 10.0  # the outflow speed, equal to the sound speed at rho = 1

    def _state(self, sol, drained, nan):
        """A static state at rho = 1, with the four neighbors of cell
        (12, 12) at 0.01 when `drained` and that cell's four faces blowing
        out at U, so the step empties it below zero; cell (50, 40) NaN
        when `nan`."""
        g = sol.grid
        rho = np.ones((g.nx, g.ny))
        u, v = np.zeros((g.nx + 1, g.ny)), np.zeros((g.nx, g.ny + 1))
        i, j = 12, 12
        if drained:
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                rho[i + di, j + dj] = 0.01
            u[i + 1, j], u[i, j], v[i, j + 1], v[i, j] = self.U, -self.U, self.U, -self.U
        if nan:
            rho[50, 40] = np.nan
        assert g.active[i, j] and g.active[50, 40]
        return enforce_bc(g, sol.path, FluidState(
            *(in_layout(g, a) for a in (rho, u, v)), 0.0, np.sqrt(2.0) / self.U))

    @pytest.mark.parametrize("drained, nan, error", [
        (True, False, VacuumState),
        (False, True, NanDetected),
        (True, True, VacuumState),
    ])
    def test_broken_state_refused(self, drained, nan, error):
        sol = make_solver(sponge=False)
        # the step of the finite state: a NaN state's CFL limit is NaN
        dt = sol.cfl_limit(self._state(sol, drained, False))
        with pytest.raises(error):
            sol.step(self._state(sol, drained, nan), dt, EnergyLedger())


class TestRun:
    def test_zero_horizon_returns_initial(self):
        sol = make_solver()
        s0 = sol.init_state(*pulse_data(sol.grid))
        samples = list(sol.run(s0, [0.0]))
        assert len(samples) == 1
        np.testing.assert_array_equal(samples[0][0].rho, s0.rho)

    def test_snapshot_times_exact(self):
        sol = make_solver()
        times = [0.0, 0.013, 0.0201, 0.05]
        samples = sol.run(sol.init_state(*pulse_data(sol.grid)), times)
        np.testing.assert_allclose([state.t for state, _ in samples], times, atol=1e-12)

    def test_determinism_bitwise(self):
        sol = make_solver()
        *_, (s1, _) = sol.run(sol.init_state(*pulse_data(sol.grid)), [0.0, 0.02])
        *_, (s2, _) = sol.run(sol.init_state(*pulse_data(sol.grid)), [0.0, 0.02])
        np.testing.assert_array_equal(s1.rho, s2.rho)
        np.testing.assert_array_equal(s1.u, s2.u)

    @pytest.mark.parametrize("times", [[0.0, 0.02, 0.01], [-0.01, 0.0], []])
    def test_schedule_refused(self, times):
        # a decreasing schedule, one that starts before the initial state's
        # time, or an empty one is refused by both solvers; the compressible
        # run is a generator, so its refusal comes at the first next()
        sol = make_solver()
        samples = sol.run(sol.init_state(*pulse_data(sol.grid)), times)
        with pytest.raises(ValueError, match="sample times"):
            next(samples)
        inc = IncompressibleSolver(sol.grid, 0.01, sol.path)
        _, u0, v0, _ = pulse_data(sol.grid)
        with pytest.raises(ValueError, match="sample times"):
            inc.run(inc.init_state(u0, v0), times)

    def test_dt_self_convergence_first_order(self):
        # Richardson: halving a fixed dt changes the final density at
        # first order, so consecutive differences shrink by about 2
        grid = build_grid(2, 1.0, 0.15, 1.0 / 16.0)
        sol = CompressibleSolver(grid, LAW, VISC, static_path(1.0), 0.0)
        data = pulse_data(grid, eps=0.2, width=0.16)
        horizon = 0.02
        base = sol.cfl_limit(sol.init_state(*data)) * 0.8
        dt0 = horizon / np.ceil(horizon / base)
        finals = []
        for level in range(3):
            dt = dt0 / 2**level
            finals.append(fixed_step(sol, sol.init_state(*data), dt, horizon, EnergyLedger()).rho)
        d1 = np.abs(finals[0] - finals[1]).sum()
        d2 = np.abs(finals[1] - finals[2]).sum()
        order = np.log2(d1 / d2)
        assert order >= 0.8


def total_mass(sol, state):
    return float(np.sum(state.rho[sol.grid.active])) * sol.grid.h**2


def energy_records(sol, samples):
    """The energy records of a run's samples, each state against its
    ledger and the first state's energy terms, with the lifting sampled at
    its time, as the sweep reads them from a member's snapshots."""
    records = []
    for state, ledger in samples:
        ext = lifting_sample(sol.lifting, sol.grid, state.t)
        if not records:
            initial = sol.energy_terms(state, ext)
        records.append(sol.energy_report(state, ledger, ext, initial))
    return records


class TestEnergyInequality:
    def test_rest_static_both_sides_zero(self):
        sol = make_solver()
        *_, rec = energy_records(sol, sol.run(sol.init_state(*rest_data(sol.grid)),
                                              [0.0, 0.01]))
        assert rec.lhs == 0.0 and rec.rhs == 0.0 and rec.flag

    def test_pulse_run_flags_true(self):
        sol = make_solver()
        energy = energy_records(sol, sol.run(sol.init_state(*pulse_data(sol.grid)),
                                             np.linspace(0, 0.05, 6)))
        e0 = energy[0].lhs
        for rec in energy:
            assert rec.lhs <= rec.rhs + 1e-3 * e0
            assert rec.flag

    def test_moving_obstacle_from_rest(self):
        # the lifting-field terms populate the right-hand side; the
        # inequality still holds
        sol = make_solver(path=linear_path((0.1, 0.0), 10.0))
        energy = energy_records(sol, sol.run(sol.init_state(*rest_data(sol.grid)),
                                             np.linspace(0, 0.05, 6)))
        assert any(rec.rhs != 0.0 for rec in energy[1:])
        for rec in energy:
            assert rec.flag

    def test_tol_energy_sets_flag_tolerance(self):
        # at rest without lifting, lhs is the dissipation and rhs = E0: the
        # flag holds within TOL_ENERGY * E0 of rhs and fails beyond it
        sol = make_solver()
        state = sol.init_state(*rest_data(sol.grid))
        e0 = 2.0
        for share, flag in ((0.5, True), (1.5, False)):
            ledger = EnergyLedger(dissipation=e0 + share * TOL_ENERGY * e0)
            ext = lifting_sample(sol.lifting, sol.grid, state.t)
            rec = sol.energy_report(state, ledger, ext, (e0, 0.0))
            assert rec.lhs == ledger.dissipation and rec.rhs == e0
            assert rec.flag is flag

    def test_sponge_mass_flux_logged(self):
        sol = make_solver()
        (first, _), *_, (last, ledger) = sol.run(sol.init_state(*pulse_data(sol.grid)),
                                                 np.linspace(0, 0.05, 6))
        drift = total_mass(sol, last) - total_mass(sol, first)
        assert drift == pytest.approx(ledger.sponge_mass, abs=1e-10)


def _moving_frame_derivative(grid, lifting, t):
    """grad V and the moving-frame dV/dt on the full grid, from the lifting's
    face samples: dV/dt|_x = dV~/dt|_y - (m'.grad) V~."""
    _, mp, _ = eval_motion(lifting.path, t)
    ext, ext_dt = lifting.sample(t), lifting.sample_dt(t)
    grad_v = oracle_gradient(grid, ext.u, ext.v)
    dv = np.stack(oracle_face_to_center(ext_dt.u, ext_dt.v), axis=-1)
    return grad_v, dv - np.einsum("xyij,j->xyi", grad_v, mp)


def _pair_terms(f, known, interior, axis):
    """Sum over the pairs of neighbouring known faces along one axis, one
    of them interior, of (a - b)^2 when both are, else a (a - b) with a the
    interior one: minus <f, L f> over the interior faces, times h^2, for
    the free-slip Laplacian L, summed by parts."""
    f, known, interior = (np.moveaxis(x, axis, 0) for x in (f, known, interior))
    a, b, ia, ib = f[:-1], f[1:], interior[:-1], interior[1:]
    term = np.where(ia & ib, (a - b) ** 2,
                    np.where(ia, a * (a - b), np.where(ib, b * (b - a), 0.0)))
    return float(np.sum(term[known[:-1] & known[1:]]))


def _booked_dissipation(sol, state, dt):
    """The viscous work a step books, -dt h^2 <u, mu L u + (mu/3 + eta)
    grad div u> over the interior faces, summed by parts: mu times the
    pair terms of each component and (mu/3 + eta) times the cell sum of
    the divergence of the known faces and that of the interior faces."""
    g = sol.grid
    mu, eta = sol.visc.shear, sol.visc.bulk
    (iu, iv), (ku, kv) = face_masks(g, "interior"), face_masks(g, "known")
    pairs = sum(_pair_terms(f, k, i, axis) for f, k, i in ((state.u, ku, iu), (state.v, kv, iv))
                for axis in (0, 1))
    div_known = g.ops.div(state.u, state.v, include_boundary_faces=True)
    div_interior = g.ops.div(state.u, state.v, include_boundary_faces=False)
    cells = float(np.sum((div_known * div_interior)[g.active]))
    return dt * g.h**2 * (mu * pairs / g.h**2 + (mu / 3.0 + eta) * cells)


def _tensor_ledger(sol, state, dt):
    """Lifting work of one step by the full-grid tensor formulation: the
    stress tensor field, the lifting samples and einsums."""
    g = sol.grid
    if sol.lifting is None:
        return 0.0
    grad_u = oracle_gradient(g, state.u, state.v)
    s_tensor = stress(sol.visc, grad_u)
    grad_v, dv_moving = _moving_frame_derivative(g, sol.lifting, state.t)
    vel = np.stack(oracle_face_to_center(state.u, state.v), axis=-1)
    uu = state.rho[..., None, None] * vel[..., :, None] * vel[..., None, :]
    integrand = (
        np.einsum("xyij,xyij->xy", s_tensor, grad_v)
        - np.einsum("xyij,xyij->xy", uu, grad_v)
        - state.rho * np.einsum("xyi,xyi->xy", vel, dv_moving)
    )
    return dt * float(np.sum(integrand[g.active])) * g.h**2


LEDGER_PATHS = {
    "static": static_path(1.0),
    "linear": linear_path((0.1, -0.05), 1.0),
    "sinusoidal": sinusoidal_path((0.02, 0.01), 8.0, 1.0),
}


def _random_state(sol):
    g = sol.grid
    rng = np.random.default_rng(7)
    rho = np.where(g.active, 1.0 + 0.1 * rng.standard_normal((g.nx, g.ny)), 1.0)
    return enforce_bc(g, sol.path, FluidState(
        in_layout(g, rho), in_layout(g, 0.3 * rng.standard_normal((g.nx + 1, g.ny))),
        in_layout(g, 0.3 * rng.standard_normal((g.nx, g.ny + 1))), 0.13, 0.1,
    ))


class TestLedgerOracle:
    @pytest.mark.parametrize("kind", sorted(LEDGER_PATHS))
    def test_accumulate_matches_tensor_formulation(self, obstacle_grid, kind):
        """The step books the viscous work summed by parts, and its
        lifting work is the tensor formulation's, with no dissipation."""
        g = obstacle_grid
        sol = CompressibleSolver(g, LAW, ViscosityPair(0.01, 0.004), LEDGER_PATHS[kind], 0.25)
        state = _random_state(sol)
        if kind == "sinusoidal":
            assert np.abs(eval_motion(sol.path, state.t)[2]).max() > 0.0
        dt = sol.cfl_limit(state)
        dissipation = _booked_dissipation(sol, state, dt)
        assert dissipation > 0.0
        ledger = EnergyLedger()
        sol.step(state, dt, ledger)
        assert ledger.dissipation == pytest.approx(dissipation, rel=1e-12)
        ledger = EnergyLedger()
        sol._accumulate(ledger, state, *known_faces(g, state.u, state.v), 1e-3)
        v_work = _tensor_ledger(sol, state, 1e-3)
        assert ledger.dissipation == 0.0
        if kind == "static":
            assert sol.lifting is None and ledger.v_work == 0.0
        else:
            assert v_work != 0.0
            assert ledger.v_work == pytest.approx(v_work, rel=1e-12)

    @pytest.mark.parametrize("kind", ["linear", "sinusoidal"])
    def test_forcing_matches_full_grid_formulation(self, obstacle_grid, kind):
        """extension_accel from the box fields equals div(-rho_ref dV/dt)
        with dV/dt formed on the full grid from the lifting's samples; the
        lifting changes no other term."""
        g = obstacle_grid
        sol = make_solver(grid=g, path=LEDGER_PATHS[kind])
        state = _random_state(sol)
        ext = sol.lifting.sample(state.t)
        args = (state, g, LAW, sol.visc, sol.path, ext)
        densities = assemble_forcing(*args, sol.lifting)
        without = assemble_forcing(*args, None)
        vec = -LAW.rho_ref * _moving_frame_derivative(g, sol.lifting, state.t)[1]
        oracle = g.ops.div(in_layout(g, oracle_center_to_xface(vec[..., 0])),
                           in_layout(g, oracle_center_to_yface(vec[..., 1])))
        assert np.abs(oracle).max() > 0.0
        assert list(densities) == list(without)
        for label, density in densities.items():
            expected = oracle if label == "extension_accel" else without[label]
            scale = np.abs(expected).max()
            np.testing.assert_allclose(density, expected, rtol=0.0,
                                       atol=1e-12 * scale, err_msg=label)

    def test_support_box_holds_every_nonzero_cell(self, obstacle_grid):
        g = obstacle_grid
        rows, cols = make_solver(grid=g, path=LEDGER_PATHS["linear"]).lifting.box
        inside = np.zeros((g.nx, g.ny), dtype=bool)
        inside[rows, cols] = True
        assert not inside.all()
        for e in ((1.0, 0.0), (0.0, 1.0)):
            # the lifting of a body moving at the unit velocity e
            unit = make_solver(grid=g, path=linear_path(e, 1.0)).lifting.sample(0.0)
            centers = np.stack(oracle_face_to_center(unit.u, unit.v), axis=-1)
            grads = oracle_gradient(g, unit.u, unit.v)
            nonzero = g.active & (
                np.any(centers != 0.0, axis=-1) | np.any(grads != 0.0, axis=(-2, -1))
            )
            assert nonzero.any()
            assert not (nonzero & ~inside).any()


class TestLedgerCost:
    """A step books its own viscous work, so the ledger forms the velocity
    gradient for the lifting work only: never without a lifting, once per
    step with one."""

    @staticmethod
    def _run(text, horizon=0.02):
        sc = build_scenario(parse_config(text))
        sol = sc.solver
        return sol, list(sol.run(sol.init_state(*sc.initial_fields, 0.1), [0.0, horizon]))

    def test_static_run_forms_no_gradient(self, monkeypatch):
        def refused(*args):
            raise AssertionError("a run without a lifting formed a velocity gradient")

        monkeypatch.setattr(compressible, "known_gradient", refused)
        sol, samples = self._run(STATIC_MINI_CFG)
        assert sol.lifting is None
        rec = energy_records(sol, samples)[-1]
        assert rec.flag and rec.lhs < rec.rhs

    def test_moving_run_forms_one_gradient_per_step(self, monkeypatch):
        steps, gradients = [], []
        step, gradient = CompressibleSolver.step, compressible.known_gradient

        def counted_step(self, state, dt, ledger):
            steps.append(dt)
            return step(self, state, dt, ledger)

        def counted_gradient(*args):
            gradients.append(args)
            return gradient(*args)

        monkeypatch.setattr(CompressibleSolver, "step", counted_step)
        monkeypatch.setattr(compressible, "known_gradient", counted_gradient)
        sol, _ = self._run(MINI_CFG)
        assert sol.lifting is not None
        assert len(steps) > 1 and len(gradients) == len(steps)

    @staticmethod
    def _full_grid_v_work(sol, state, dt):
        """One step's lifting work as the ledger formed it on the full grid:
        known_gradient over every face, then cut to the lifting's box."""
        g, lifting = sol.grid, sol.lifting
        lay = g.layout
        mu, eta = sol.visc.shear, sol.visc.bulk
        (gxx, gxy, gyx, gyy), avgs = known_gradient(g, *known_faces(g, state.u, state.v))
        div = gxx + gyy
        shear = gxy + gyx
        gv, dv, shear_v = lifting.box_terms(state.t)
        box = lifting.box
        rho = state.rho[box]
        uc, vc = (lay.cells(c)[box] for c in avgs)
        lam = eta - (2.0 / 3.0) * mu
        div_box = lay.cells(div)[box]
        sxx = 2.0 * mu * lay.cells(gxx)[box] + lam * div_box
        syy = 2.0 * mu * lay.cells(gyy)[box] + lam * div_box
        sxy = mu * lay.cells(shear)[box]
        integrand = (
            (sxx - rho * uc * uc) * gv[..., 0, 0]
            + (sxy - rho * uc * vc) * shear_v
            + (syy - rho * vc * vc) * gv[..., 1, 1]
            - rho * (uc * dv[..., 0] + vc * dv[..., 1])
        )
        return dt * float(np.sum(integrand[lifting.box_active])) * g.h**2

    @pytest.mark.parametrize("text", [MINI_CFG, SINUSOIDAL_MINI_CFG], ids=["linear", "sinusoidal"])
    def test_box_gradient_matches_full_grid_over_a_march(self, text):
        # the step forms the gradient on the lifting's block only; every
        # step's lifting work equals the full-grid formulation's, bit for bit
        sc = build_scenario(parse_config(text))
        sol = sc.solver
        state = sol.init_state(*sc.initial_fields, 0.1)
        works = []
        for _ in range(20):
            dt = sol.cfl_limit(state)
            ledger = EnergyLedger()
            new = sol.step(state, dt, ledger)
            works.append(ledger.v_work)
            assert ledger.v_work == self._full_grid_v_work(sol, state, dt), state.t
            state = new
        assert all(w != 0.0 for w in works)


def _full_forcing(state, g, law, visc, path, ext, lifting):
    """Every term of the wave source assembled, the ones that vanish
    identically included: the assembly before zero terms were skipped."""
    lay = g.layout
    eps = state.eps
    _, mp, mpp = eval_motion(path, state.t)
    rho = lay.flat(state.rho)
    rbar = law.rho_ref
    active = g.component_masks[0].active
    ess_mask = essential_indicator(rho, rbar) * active
    res_mask = active - ess_mask
    ess = ess_mask[..., None, None]
    res = res_mask[..., None, None]
    grads, centers = known_gradient(g, *known_faces(g, state.u, state.v))
    for comp in grads:  # zero off the active cells, which no density reads
        comp[g.component_masks[0].inactive_cells] = 0.0
    vel = np.stack(centers, axis=-1)
    uu = vel[..., :, None] * vel[..., None, :]
    vext = np.stack(lay.centers(ext.u, ext.v), axis=-1)
    mom = rho[..., None] * vel - rbar * vext
    r_cells = (rho - rbar) / eps
    wmom = mom - eps * r_cells[..., None] * mp
    outer_m = mom[..., :, None] * mp
    outer_w = eps * mp[:, None] * wmom[..., None, :]
    accel = -eps * r_cells[..., None] * mpp
    dv_moving = np.zeros((lay.size, 2))
    if lifting is not None:
        dv_moving.reshape(*lay.shape, 2)[lifting.box] = lifting.box_fields(state.t)[1]
    divdiv, vdiv = spectral.tensor_divdiv, spectral._vector_div
    return {
        "viscous": divdiv(g, stress(visc, np.stack(grads, -1).reshape(-1, 2, 2))),
        "convective_ess": divdiv(g, -(ess_mask * rho)[..., None, None] * uu),
        "convective_res": divdiv(g, -(res_mask * rho)[..., None, None] * uu),
        "pressure": lay.cells(pressure_entropy(law, rho) / eps**2),
        "extension_accel": vdiv(g, -rbar * dv_moving),
        "momentum_translation_ess": divdiv(g, ess * outer_m),
        "momentum_translation_res": divdiv(g, res * outer_m),
        "wave_translation_ess": divdiv(g, ess * outer_w),
        "wave_translation_res": divdiv(g, res * outer_w),
        "acceleration_coupling_ess": vdiv(g, ess_mask[..., None] * accel),
        "acceleration_coupling_res": vdiv(g, res_mask[..., None] * accel),
    }


class TestForcingZeroTerms:
    """assemble_forcing skips the terms that vanish identically: the
    residual parts without a residual set, the translation terms at
    m' = 0, the acceleration couplings at m'' = 0 and extension_accel
    without a lifting. Each skipped density is an exact zero array, so
    every density and every channel norm equals the full assembly's."""

    RESIDUAL = ("convective_res", "momentum_translation_res", "wave_translation_res",
                "acceleration_coupling_res")
    SKIPPED = {
        "static": {"extension_accel", "momentum_translation_ess", "momentum_translation_res",
                   "wave_translation_ess", "wave_translation_res",
                   "acceleration_coupling_ess", "acceleration_coupling_res"},
        "linear": {"acceleration_coupling_ess", "acceleration_coupling_res"},
        "sinusoidal": set(),
    }

    @pytest.fixture(scope="class")
    def dec(self, obstacle_grid):
        return spectral_decompose(obstacle_grid, 30)

    @pytest.mark.parametrize("residual", [False, True], ids=["essential", "residual"])
    @pytest.mark.parametrize("kind", sorted(LEDGER_PATHS))
    def test_matches_full_assembly(self, obstacle_grid, dec, kind, residual):
        g = obstacle_grid
        sol = make_solver(grid=g, path=LEDGER_PATHS[kind])
        state = _random_state(sol)
        if residual:
            # a few active cells above 2 rho_ref leave the essential range
            far = np.zeros((g.nx, g.ny), dtype=bool)
            far[g.nx // 8, ::7] = True
            state.rho[far & g.active] = 3.0
        ext = lifting_sample(sol.lifting, g, state.t)
        args = (state, g, LAW, sol.visc, sol.path, ext, sol.lifting)
        got, want = assemble_forcing(*args), _full_forcing(*args)
        assert list(got) == list(want)
        zero = {label for label, density in want.items() if not np.any(density)}
        skipped = self.SKIPPED[kind] | (set() if residual else set(self.RESIDUAL))
        assert zero == skipped, zero ^ skipped
        for label, density in want.items():
            np.testing.assert_array_equal(got[label], density, err_msg=label)
        np.testing.assert_array_equal(forcing_channel_norms(got, dec),
                                      forcing_channel_norms(want, dec))
