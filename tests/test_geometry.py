import numpy as np
import pytest

from machlab.errors import GeometryTooCoarse, OutOfHorizon
from machlab.geometry import (
    CUT,
    FLUID,
    SOLID,
    ExtensionField,
    build_grid,
    eval_motion,
    linear_path,
    sinusoidal_path,
    static_path,
)


def test_too_coarse_obstacle_rejected():
    with pytest.raises(GeometryTooCoarse):
        build_grid(2, 1.0, 0.2, 0.5)


def test_zero_radius_rejected():
    with pytest.raises((GeometryTooCoarse, ValueError)):
        build_grid(2, 2.0, 0.0, 1.0 / 64.0)


def test_solid_count_matches_enumeration():
    g = build_grid(2, 2.0, 0.25, 1.0 / 64.0)
    xc, yc = g.cell_centers()
    enumerated = int(np.count_nonzero(xc**2 + yc**2 < 0.25**2))
    assert g.n_solid == enumerated
    # pi a^2 / h^2 up to cut-cell rounding
    assert abs(g.n_solid - np.pi * 0.25**2 / g.h**2) < 0.1 * g.n_solid


def test_classification_is_partition_and_reproducible():
    g1 = build_grid(2, 1.0, 0.15, 1.0 / 32.0)
    g2 = build_grid(2, 1.0, 0.15, 1.0 / 32.0)
    np.testing.assert_array_equal(g1.cell_type, g2.cell_type)
    counts = [(g1.cell_type == kind).sum() for kind in (FLUID, SOLID, CUT)]
    assert sum(counts) == g1.nx * g1.ny
    assert g1.n_active == counts[0] + counts[2] > 0
    # cut cells carry unit normals
    nxa, nya = g1.cut_normal
    mags = np.sqrt(nxa**2 + nya**2)[g1.cell_type == CUT]
    np.testing.assert_allclose(mags, 1.0, rtol=1e-12)


def test_cell_size_must_divide_box():
    with pytest.raises(ValueError):
        build_grid(2, 1.0, 0.15, 0.3)


def test_eval_motion_linear():
    path = linear_path((0.7, 0.0), 1.0)
    m, mp, mpp = eval_motion(path, 0.0)
    np.testing.assert_allclose(m, 0.0)
    np.testing.assert_allclose(mp, [0.7, 0.0])
    np.testing.assert_allclose(mpp, 0.0)


def test_eval_motion_sinusoidal_quarter_period():
    path = sinusoidal_path((1.0, 0.0), 1.0, 2.0)
    m, mp, mpp = eval_motion(path, np.pi / 2.0)
    np.testing.assert_allclose(m, [1.0, 0.0], atol=1e-14)
    np.testing.assert_allclose(mp, [0.0, 0.0], atol=1e-14)
    np.testing.assert_allclose(mpp, [-1.0, 0.0], atol=1e-14)


def test_eval_motion_out_of_horizon():
    path = static_path(1.0)
    with pytest.raises(OutOfHorizon):
        eval_motion(path, 1.1)


def test_motion_requires_zero_start():
    with pytest.raises(ValueError):
        # m(0) != 0
        from machlab.geometry import MotionPath

        MotionPath(lambda t: np.array([1.0, 0.0]), lambda t: np.zeros(2),
                   lambda t: np.zeros(2), 1.0)


@pytest.mark.parametrize("t", [0.1, 0.45, 0.9])
def test_motion_finite_difference_consistency(t):
    path = sinusoidal_path((0.3, -0.2), 3.0, 1.0)
    delta = 1e-5
    m_m, _, _ = eval_motion(path, t - delta)
    m_p, _, _ = eval_motion(path, t + delta)
    _, mp, mpp = eval_motion(path, t)
    np.testing.assert_allclose((m_p - m_m) / (2 * delta), mp, atol=1e-8)
    m_0, _, _ = eval_motion(path, t)
    np.testing.assert_allclose((m_p - 2 * m_0 + m_m) / delta**2, mpp, atol=1e-4)


class TestExtensionField:
    def setup_method(self):
        self.grid = build_grid(2, 2.0, 0.25, 1.0 / 32.0)
        self.path = linear_path((1.0, 0.0), 1.0)

    def test_static_motion_gives_zero_field(self):
        ext = ExtensionField(self.grid, static_path(1.0), 0.75).sample(0.5)
        assert np.abs(ext.u).max() == 0.0
        assert np.abs(ext.v).max() == 0.0

    def test_divergence_within_tolerance(self):
        g = self.grid
        ext = ExtensionField(g, self.path, 0.75).sample(0.0)
        div = g.ops.div(ext.u, ext.v, include_boundary_faces=True)
        assert np.abs(div[g.active]).max() <= 10.0 * g.h**2

    def test_boundary_match(self):
        g = self.grid
        ext = ExtensionField(g, self.path, 0.75).sample(0.0)
        tol = 10.0 * g.h**2
        assert np.abs(ext.u[g.uface_obstacle] - 1.0).max() <= tol
        assert np.abs(ext.v[g.vface_obstacle]).max() <= tol

    def test_compact_support(self):
        g = self.grid
        ext = ExtensionField(g, self.path, 0.75).sample(0.0)
        xf, yf = g.xface_coords()
        assert np.abs(ext.u[xf**2 + yf**2 > 0.75**2 + 1e-12]).max() == 0.0
        xv, yv = g.yface_coords()
        assert np.abs(ext.v[xv**2 + yv**2 > 0.75**2 + 1e-12]).max() == 0.0

    def test_time_derivative_consistency(self):
        path = sinusoidal_path((0.2, 0.1), 2.0, 1.0)
        field = ExtensionField(self.grid, path, 0.75)
        t, delta = 0.4, 1e-6
        num_u = (field.sample(t + delta).u - field.sample(t - delta).u) / (2 * delta)
        np.testing.assert_allclose(num_u, field.sample_dt(t).u, atol=1e-7)

    def test_support_radius_validation(self):
        with pytest.raises(ValueError):
            ExtensionField(self.grid, self.path, 0.2)  # inside the obstacle
        with pytest.raises(ValueError):
            ExtensionField(self.grid, self.path, 2.5)  # outside the box

