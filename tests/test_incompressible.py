import numpy as np
import pytest

from machlab.errors import CflViolation
from machlab.geometry import build_grid, linear_path, sinusoidal_path, static_path
from machlab.incompressible import IncompressibleSolver, IncompressibleState
from conftest import face_masks, fixed_step, in_layout, oracle_face_to_center


@pytest.fixture()
def grid():
    return build_grid(2, 1.0, 0.15, 1.0 / 32.0)


def vortex_field(grid, center=(-0.55, 0.0), radius=0.25, amp=0.3):
    xn, yn = grid.nodes()
    r2 = (xn - center[0]) ** 2 + (yn - center[1]) ** 2
    psi = np.where(r2 < radius**2, amp * radius * (1 - r2 / radius**2) ** 3, 0.0)
    u = (psi[:, 1:] - psi[:, :-1]) / grid.h
    v = -(psi[1:, :] - psi[:-1, :]) / grid.h
    iu, iv = face_masks(grid, "interior")
    u[~iu] = 0.0
    v[~iv] = 0.0
    return in_layout(grid, u), in_layout(grid, v)


def gradient_field(grid, center=(0.45, 0.1), width=0.2):
    xc, yc = grid.cell_centers()
    r2 = (xc - center[0]) ** 2 + (yc - center[1]) ** 2
    q = np.where(r2 < width**2, (1 - r2 / width**2) ** 3, 0.0)
    q[~grid.active] = 0.0
    return grid.ops.grad(in_layout(grid, q))


def kinetic_energy(grid, state):
    uc, vc = oracle_face_to_center(state.u, state.v)
    return float(np.sum((0.5 * (uc**2 + vc**2))[grid.active])) * grid.h**2


def max_divergence(grid, state):
    div = grid.ops.div(state.u, state.v, include_boundary_faces=True)
    return float(np.abs(div[grid.active]).max())


class TestProjectInitial:
    def test_solenoidal_tangent_field_fixed(self, grid):
        u, v = vortex_field(grid)
        hu, hv, _ = grid.ops.helmholtz(u, v)
        assert np.abs(hu - u).max() <= 1e-10
        assert np.abs(hv - v).max() <= 1e-10

    def test_init_state_leaves_input_unchanged(self, grid):
        u, v = vortex_field(grid)
        gu, gv = gradient_field(grid)
        u0, v0 = u + gu, v + gv
        u0[face_masks(grid, "rim")[0]] = 1.0
        before = u0.copy(), v0.copy()
        inc = IncompressibleSolver(grid, 0.01, linear_path((0.1, 0.0), 1.0))
        state = inc.init_state(u0, v0)
        assert np.array_equal(u0, before[0]) and np.array_equal(v0, before[1])
        assert not np.shares_memory(state.u, u0)

    def test_gradient_killed(self, grid):
        gu, gv = gradient_field(grid)
        hu, hv, _ = grid.ops.helmholtz(gu, gv)
        assert max(np.abs(hu).max(), np.abs(hv).max()) <= 1e-10

    def test_mixture_pythagoras(self, grid):
        u, v = vortex_field(grid)
        gu, gv = gradient_field(grid)
        mu, mv = in_layout(grid, u + gu), in_layout(grid, v + gv)
        hu, hv, theta = grid.ops.helmholtz(mu, mv)
        gt = grid.ops.grad(theta)
        total = grid.ops.face_dot(mu, mv, mu, mv)
        parts = grid.ops.face_dot(hu, hv, hu, hv) + grid.ops.face_dot(
            gt[0], gt[1], gt[0], gt[1]
        )
        assert abs(total - parts) <= 1e-8 * max(total, 1.0)


class TestStep:
    def test_rest_stays_rest_static(self, grid):
        sol = IncompressibleSolver(grid, 0.01, static_path(1.0))
        st = sol.init_state(np.zeros((grid.nx + 1, grid.ny)),
                            np.zeros((grid.nx, grid.ny + 1)))
        st = sol.step(st, sol.cfl_limit(st))
        assert np.abs(st.u).max() == 0.0
        assert np.abs(st.v).max() == 0.0

    def test_commutes_with_diagonal_reflection(self, obstacle_grid):
        # swapping x and y maps u-faces onto v-faces, so the transposed
        # y-component pass through the shared transport kernel must agree
        # with the x-component pass; the vortex reaches the obstacle, so the
        # wall closures take part
        g = obstacle_grid
        sol = IncompressibleSolver(g, 0.01, static_path(1.0))
        u0, v0 = vortex_field(g, center=(-0.25, 0.1))
        gu, gv = gradient_field(g)
        s0 = sol.init_state(u0 + gu, v0 + gv)
        dt = 0.5 * sol.cfl_limit(s0)
        s1 = sol.step(s0, dt)
        r1 = sol.step(IncompressibleState(in_layout(g, s0.v.T), in_layout(g, s0.u.T), s0.t),
                      dt)
        assert np.abs(r1.u - s1.v.T).max() <= 1e-12
        assert np.abs(r1.v - s1.u.T).max() <= 1e-12

    def test_cfl_guard(self, grid):
        sol = IncompressibleSolver(grid, 0.01, static_path(1.0))
        st = sol.init_state(*vortex_field(grid))
        with pytest.raises(CflViolation):
            sol.step(st, 100.0)
        for dt in (0.0, -1e-3):
            with pytest.raises(ValueError, match="dt must be positive"):
                sol.step(st, dt)

    def test_run_evaluates_cfl_limit_once_per_step(self, grid, monkeypatch):
        calls = {"cfl_limit": 0, "step": 0}

        def counted(name):
            fn = getattr(IncompressibleSolver, name)

            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        for name in calls:
            monkeypatch.setattr(IncompressibleSolver, name, counted(name))
        sol = IncompressibleSolver(grid, 0.01, linear_path((0.1, 0.0), 1.0))
        traj = sol.run(sol.init_state(*vortex_field(grid)), [0.0, 0.02, 0.04])
        assert calls["step"] > 2
        assert calls["cfl_limit"] == calls["step"]
        # the guard of a second step from the same state reads the stored
        # limit and must still refuse a too-large dt
        state = traj.states[-1]
        limit = sol.cfl_limit(state)
        sol.step(state, limit)
        with pytest.raises(CflViolation):
            sol.step(state, 1.01 * limit)

    def test_divergence_free_each_step(self, grid):
        sol = IncompressibleSolver(grid, 0.01, linear_path((0.1, 0.0), 10.0))
        st = sol.init_state(*vortex_field(grid))
        for _ in range(5):
            st = sol.step(st, sol.cfl_limit(st))
            div = grid.ops.div(st.u, st.v, include_boundary_faces=True)
            assert np.abs(div[grid.active]).max() <= 1e-8

    def test_kinetic_energy_non_increasing(self, grid):
        sol = IncompressibleSolver(grid, 0.01, static_path(10.0))
        traj = sol.run(sol.init_state(*vortex_field(grid)),
                       np.linspace(0.0, 0.5, 11))
        ke = [kinetic_energy(grid, st) for st in traj.states]
        assert all(a >= b - 1e-14 for a, b in zip(ke, ke[1:]))
        assert ke[-1] < ke[0]

    def test_projection_orthogonality(self, grid):
        # the projected velocity is l2-orthogonal to every discrete gradient,
        # so in particular to the pressure-gradient correction of the step
        sol = IncompressibleSolver(grid, 0.01, static_path(1.0))
        st = sol.init_state(*vortex_field(grid))
        new = sol.step(st, sol.cfl_limit(st))
        xc, yc = grid.cell_centers()
        rng = np.random.default_rng(3)
        for q in (np.sin(3.0 * xc) * np.cos(2.0 * yc), rng.standard_normal(xc.shape)):
            gu, gv = grid.ops.grad(in_layout(grid, np.where(grid.active, q, 0.0)))
            dot = grid.ops.face_dot(new.u, new.v, gu, gv)
            norms = np.sqrt(grid.ops.face_dot(new.u, new.v, new.u, new.v)
                            * grid.ops.face_dot(gu, gv, gu, gv))
            assert abs(dot) <= 1e-8 * norms


class TestRun:
    def test_dt_self_convergence_first_order(self, grid):
        sol = IncompressibleSolver(grid, 0.01, static_path(1.0))
        u0, v0 = vortex_field(grid, amp=0.5)
        horizon = 0.04
        st0 = sol.init_state(u0, v0)
        base = sol.cfl_limit(st0) * 0.8
        dt0 = horizon / np.ceil(horizon / base)
        finals = []
        for level in range(3):
            st = fixed_step(sol, sol.init_state(u0, v0), dt0 / 2**level, horizon)
            finals.append(np.concatenate([st.u.ravel(), st.v.ravel()]))
        d1 = np.linalg.norm(finals[0] - finals[1])
        d2 = np.linalg.norm(finals[1] - finals[2])
        assert np.log2(d1 / d2) >= 0.8

    @pytest.mark.parametrize(
        "path",
        [linear_path((0.1, 0.0), 10.0), sinusoidal_path((0.1, 0.0), 10.0, 10.0)],
        ids=["linear", "sinusoidal"],
    )
    def test_moving_obstacle_develops_flow(self, grid, path):
        # an accelerating obstacle changes m' within a step, so the
        # projection must impose the obstacle velocity of the new time
        sol = IncompressibleSolver(grid, 0.01, path)
        st0 = sol.init_state(np.zeros((grid.nx + 1, grid.ny)),
                             np.zeros((grid.nx, grid.ny + 1)))
        # the compatibility projection already installs the dipole flow
        assert np.abs(st0.u[face_masks(grid, "interior")[0]]).max() > 0.01
        traj = sol.run(st0, np.linspace(0.0, 0.1, 6))
        for st in traj.states:
            assert max_divergence(grid, st) <= 1e-8, st.t
