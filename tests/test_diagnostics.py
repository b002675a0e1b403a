from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from machlab.compressible import CompressibleSolver, FluidState
from machlab.constitutive import PressureLaw, ViscosityPair
from machlab.diagnostics import (
    convergence_metrics,
    default_window,
    integral_t,
    member_metrics,
    solenoidal_test_function,
    split_ess_res,
    sup_t,
    uniform_estimate_report,
    window_annulus,
)
from machlab.errors import ScheduleMismatch
from machlab.geometry import build_grid, lifting_sample, static_path
from machlab.incompressible import IncompressibleSolver

from conftest import face_masks, in_layout

LAW = PressureLaw(1.0, 2.0, 1.0)


class TestSplit:
    def test_reference_density_all_essential(self):
        rho = np.full((8, 8), 1.0)
        f = np.arange(64.0).reshape(8, 8)
        split = split_ess_res(rho, f, 1.0)
        np.testing.assert_array_equal(split.residual, 0.0)
        np.testing.assert_array_equal(split.essential, f)

    def test_high_density_all_residual(self):
        rho = np.full((8, 8), 3.0)
        f = np.arange(64.0).reshape(8, 8)
        split = split_ess_res(rho, f, 1.0)
        np.testing.assert_array_equal(split.essential, 0.0)
        np.testing.assert_array_equal(split.residual, f)

    def test_mixed_mask_oracle(self):
        rng = np.random.default_rng(0)
        rho = rng.uniform(0.1, 3.0, (16, 16))
        f = rng.standard_normal((16, 16))
        split = split_ess_res(rho, f, 1.0)
        mask = (0.5 < rho) & (rho < 2.0)
        np.testing.assert_array_equal(split.essential, np.where(mask, f, 0.0))
        np.testing.assert_array_equal(split.residual, np.where(mask, 0.0, f))
        np.testing.assert_array_equal(split.essential + split.residual, f)

    def test_strict_boundaries(self):
        rho = np.array([[0.5, 2.0]])
        f = np.ones((1, 2))
        split = split_ess_res(rho, f, 1.0)
        # the indicator is open: both endpoints are residual
        np.testing.assert_array_equal(split.indicator, 0.0)


@given(st.floats(min_value=-10.0, max_value=10.0).filter(lambda a: abs(a) > 1e-12),
       st.sampled_from([1.0, 1.5, 2.0, 3.0]))
@settings(deadline=None, max_examples=60)
def test_norm_homogeneity(alpha, q):
    grid = build_grid(2, 1.0, 0.15, 1.0 / 16.0)
    rng = np.random.default_rng(42)
    f = rng.standard_normal((grid.nx, grid.ny))
    scaled = grid.lq_norm(alpha * f, q)
    base = grid.lq_norm(f, q)
    assert scaled == pytest.approx(abs(alpha) * base, rel=1e-12)


class TestUniformEstimates:
    def test_rest_trajectory_all_zero(self):
        grid = build_grid(2, 1.0, 0.15, 1.0 / 32.0)
        sol = CompressibleSolver(grid, LAW, ViscosityPair(0.01), static_path(1.0), 0.25)
        times = [0.0, 0.01]
        samples = sol.run(sol.init_state(np.zeros((grid.nx, grid.ny)),
                                         np.zeros((grid.nx + 1, grid.ny)),
                                         np.zeros((grid.nx, grid.ny + 1)), 0.1), times)
        records = member_metrics(
            [uniform_estimate_report(s.state, grid, LAW) for s in samples], times)
        assert len(records) == 6
        for rec in records:
            assert rec.value == pytest.approx(0.0, abs=1e-14), rec.metric_name

    def test_manufactured_within_indicator(self):
        # rho = 1 + eps*s with |s| < 1/(2 eps): no residual set, and the
        # essential L2 monitor equals ||s||_L2
        grid = build_grid(2, 1.0, 0.15, 1.0 / 32.0)
        eps = 0.1
        xc, yc = grid.cell_centers()
        s = np.where(grid.active, 2.0 * np.cos(xc) * np.cos(yc), 0.0)
        state = FluidState(in_layout(grid, np.where(grid.active, 1.0 + eps * s, 1.0)),
                           in_layout(grid, np.zeros((grid.nx + 1, grid.ny))),
                           in_layout(grid, np.zeros((grid.nx, grid.ny + 1))), 0.0, eps)
        terms = [uniform_estimate_report(state, grid, LAW)]
        records = {r.metric_name: r.value for r in member_metrics(terms, [0.0])}
        assert records["res_indicator_l1"] == 0.0
        assert records["res_density_lq"] == 0.0
        assert records["ess_density_l2"] == pytest.approx(grid.l2norm(s), rel=1e-12)


class TestConvergenceMetrics:
    TIMES = np.linspace(0.0, 0.02, 3)

    def _pair(self, grid):
        """The compressible samples of a pulse and the incompressible
        reference at rest, on one schedule."""
        sol = CompressibleSolver(grid, LAW, ViscosityPair(0.01), static_path(1.0), 0.25)
        xc, yc = grid.cell_centers()
        r2 = (xc - 0.45) ** 2 + yc**2
        rho1 = np.where(r2 < 0.0144, (1 - r2 / 0.0144) ** 3, 0.0)
        comp = list(sol.run(sol.init_state(rho1, np.zeros((grid.nx + 1, grid.ny)),
                                           np.zeros((grid.nx, grid.ny + 1)), 0.1),
                            self.TIMES))
        inc = IncompressibleSolver(grid, 0.01, static_path(1.0))
        ref = inc.run(inc.init_state(np.zeros((grid.nx + 1, grid.ny)),
                                     np.zeros((grid.nx, grid.ny + 1))), self.TIMES)
        return comp, ref.states

    def _metrics(self, grid, comp, ref_states):
        # a body at rest has no lifting: V = 0
        terms = [convergence_metrics(s.state, ist, grid, LAW, static_path(1.0),
                                     lifting_sample(None, grid, s.state.t))
                 for s, ist in zip(comp, ref_states)]
        return {r.metric_name: r.value for r in member_metrics(terms, self.TIMES)}

    def test_identical_trajectories_zero_gap(self):
        grid = build_grid(2, 1.0, 0.15, 1.0 / 32.0)
        comp, _ = self._pair(grid)
        # the compressible states as their own reference
        by_name = self._metrics(grid, comp, [s.state for s in comp])
        assert by_name["velocity_gap"] == pytest.approx(0.0, abs=1e-14)

    def test_schedule_mismatch_rejected(self):
        grid = build_grid(2, 1.0, 0.15, 1.0 / 32.0)
        comp, ref = self._pair(grid)
        skewed = ref[:1] + [replace(ref[1], t=ref[1].t + 0.001)] + ref[2:]
        with pytest.raises(ScheduleMismatch):
            self._metrics(grid, comp, skewed)

    def test_density_scale_metric(self):
        grid = build_grid(2, 1.0, 0.15, 1.0 / 32.0)
        comp, ref = self._pair(grid)
        by_name = self._metrics(grid, comp, ref)
        expected = max(grid.l2norm(s.state.rho - 1.0) / 0.1 for s in comp)
        assert by_name["density_scale"] == pytest.approx(expected, rel=1e-12)


def test_member_metrics_reduces_each_series_in_order():
    # sup_t: the largest term, 0 at least; integral_t: the square root of
    # the trapezoid integral of the (squared) terms, per component of an array
    times = [0.0, 0.5, 2.0]
    terms = [[sup_t(0.1, "a", -1.0, 1.0), sup_t(0.1, "b", 3.0),
              integral_t(0.1, "c", 4.0, "annulus"), integral_t(0.1, "d", np.array([1.0, 0.0]))],
             [sup_t(0.1, "a", -2.0, 1.0), sup_t(0.1, "b", 5.0),
              integral_t(0.1, "c", 0.0, "annulus"), integral_t(0.1, "d", np.array([1.0, 2.0]))],
             [sup_t(0.1, "a", -3.0, 1.0), sup_t(0.1, "b", 4.0),
              integral_t(0.1, "c", 2.0, "annulus"), integral_t(0.1, "d", np.array([1.0, 2.0]))]]
    a, b, c, d = member_metrics(terms, times)
    assert (a.metric_name, a.q, a.t_or_sup, a.value) == ("a", 1.0, "sup_t", 0.0)
    assert (b.metric_name, b.value) == ("b", 5.0)
    assert (c.metric_name, c.window, c.t_or_sup) == ("c", "annulus", "integral_t")
    assert c.value == pytest.approx(np.sqrt(0.5 * 2.0 + 1.5 * 1.0))
    np.testing.assert_allclose(d.value, np.sqrt([2.0, 0.5 * 1.0 + 1.5 * 2.0]))


def assembly_identity_residual(grid, wu, wv, psi, phi_u, phi_v):
    """Residual of <W, phi> = <W, H(phi)> - <psi, div H_perp(phi)>, the
    splitting identity of the final assembly: exact for the discrete
    Helmholtz splitting (the sign differs from the formal
    integration-by-parts sketch; the discrete duality fixes it)."""
    h2 = grid.h**2
    phu, phv, theta = grid.ops.helmholtz(phi_u, phi_v)
    gpu, gpv = grid.ops.grad(theta)
    div_perp = grid.ops.div(gpu, gpv)
    lhs = grid.ops.face_dot(wu, wv, phi_u, phi_v) * h2
    rhs = grid.ops.face_dot(wu, wv, phu, phv) * h2
    rhs -= float(np.sum(np.where(grid.active, psi * div_perp, 0.0))) * h2
    return abs(lhs - rhs)


class TestAssemblyIdentity:
    def test_identity_holds_discretely(self):
        grid = build_grid(2, 1.0, 0.15, 1.0 / 32.0)
        rng = np.random.default_rng(3)
        wu = rng.standard_normal((grid.nx + 1, grid.ny))
        wv = rng.standard_normal((grid.nx, grid.ny + 1))
        iu, iv = face_masks(grid, "interior")
        wu[~iu] = 0.0
        wv[~iv] = 0.0
        hu, hv, psi = grid.ops.helmholtz(in_layout(grid, wu), in_layout(grid, wv))
        phi = solenoidal_test_function(grid, 0.18, 0.45)
        phi_g = grid.ops.grad(
            in_layout(grid, np.where(grid.active, np.cos(grid.cell_centers()[0]), 0.0))
        )
        resid = assembly_identity_residual(
            grid, wu, wv, psi, in_layout(grid, phi[0] + phi_g[0]),
            in_layout(grid, phi[1] + phi_g[1])
        )
        scale = grid.ops.face_l2norm(wu, wv)
        assert resid <= 1e-8 * max(scale, 1.0)


def test_window_and_test_function_geometry():
    grid = build_grid(2, 2.0, 0.25, 1.0 / 32.0)
    win = default_window(grid)
    np.testing.assert_array_equal(win, window_annulus(grid, 0.3, 0.75))
    xc, yc = grid.cell_centers()
    r = np.sqrt(xc**2 + yc**2)
    assert not np.any(win & (r < 1.2 * 0.25))
    assert not np.any(win & (r > 3.0 * 0.25 + 1e-12))
    assert win.sum() > 0
    fu, fv = solenoidal_test_function(grid, 0.3, 0.75)
    div = grid.ops.div(fu, fv, include_boundary_faces=True)
    assert np.abs(div[grid.active]).max() <= 1e-12
    # so it is its own Helmholtz projection, and convergence_metrics pairs
    # the compressible momentum with it unprojected
    hu, hv, _ = grid.ops.helmholtz(fu, fv)
    assert max(np.abs(hu - fu).max(), np.abs(hv - fv).max()) <= 1e-14
    # compact support inside the annulus closure
    xf, yf = grid.xface_coords()
    outside = xf**2 + yf**2 > 0.8**2
    assert np.abs(fu[outside]).max() == 0.0
