import numpy as np
import pytest

from machlab.errors import GeometryTooCoarse, OutOfHorizon
from machlab.geometry import (
    ExtensionField,
    build_grid,
    eval_motion,
    lifting_collar,
    linear_path,
    sinusoidal_path,
    static_path,
)
from machlab.operators import smoothstep

from conftest import face_masks


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
    n_solid = g.nx * g.ny - g.n_active
    assert n_solid == enumerated
    assert np.count_nonzero(g.active) == g.n_active
    # pi a^2 / h^2 up to stair-step rounding
    assert abs(n_solid - np.pi * 0.25**2 / g.h**2) < 0.1 * n_solid


def behind_ahead(grid, axis):
    """Whether the cell behind and the cell ahead of each face of the
    family normal to axis is active, False beyond the box: the face
    classes' own construction, from the 2-D active mask."""
    act = np.pad(grid.active, [(1, 1) if ax == axis else (0, 0) for ax in (0, 1)])
    n = act.shape[axis]
    return np.take(act, np.arange(n - 1), axis=axis), np.take(act, np.arange(1, n), axis=axis)


def test_classification_is_partition_and_reproducible():
    g1 = build_grid(2, 1.0, 0.15, 1.0 / 32.0)
    g2 = build_grid(2, 1.0, 0.15, 1.0 / 32.0)
    np.testing.assert_array_equal(g1.active, g2.active)
    kinds = ("interior", "obstacle", "rim", "known")
    for k in kinds:
        for a, b in zip(face_masks(g1, k), face_masks(g2, k)):
            np.testing.assert_array_equal(a, b)
    # every face next to an active cell is exactly one of interior,
    # obstacle stair face or outer-rim face; the rest are dead. The rim
    # faces are the prescribed ones on the two box edges across the family
    for axis in (0, 1):
        behind, ahead = behind_ahead(g1, axis)
        interior, obstacle, rim, known = (face_masks(g1, k)[axis] for k in kinds)
        np.testing.assert_array_equal(interior.astype(int) + obstacle + rim, behind | ahead)
        np.testing.assert_array_equal(known, behind | ahead)
        edge = np.zeros_like(rim)
        np.moveaxis(edge, axis, 0)[[0, -1]] = True
        np.testing.assert_array_equal(rim, (behind ^ ahead) & edge)
        assert interior.any() and obstacle.any() and rim.any()
    # the far-field rim is the outermost ring of cells, all of them active
    assert g1.cell_rim.sum() == 2 * (g1.nx + g1.ny) - 4


def test_known_faces_are_interior_or_prescribed():
    # the flat padded masks, ghosts included, against their construction:
    # interior where both cells are active, prescribed where one is,
    # unknown (dead or ghost) where neither is
    g = build_grid(2, 1.0, 0.15, 1.0 / 32.0)
    lay = g.layout
    for axis, m in enumerate(g.component_masks):
        behind, ahead = behind_ahead(g, axis)
        assert behind.shape == lay.parts[1 + axis]
        np.testing.assert_array_equal(m.interior, lay.padded(behind & ahead, False))
        np.testing.assert_array_equal(m.obstacle | m.rim, lay.padded(behind ^ ahead, False))
        np.testing.assert_array_equal(m.unknown, ~lay.padded(behind | ahead, False))
        np.testing.assert_array_equal(m.exterior, ~m.interior)
        assert not np.any(m.obstacle & m.rim)
        # the disk's own faces are dead
        assert np.any(m.unknown & lay.padded(np.ones(behind.shape, dtype=bool), False))


def test_sparse_classes_as_index_sets():
    # each index set the kernels write through lists its class's entries
    g = build_grid(2, 1.0, 0.15, 1.0 / 32.0)
    for m in g.component_masks:
        for faces, mask in ((m.exterior_faces, m.exterior), (m.rim_faces, m.rim),
                            (m.unknown_faces, m.unknown), (m.inactive_cells, ~m.active)):
            np.testing.assert_array_equal(faces, np.flatnonzero(mask))
        # corner k, between faces k - transverse and k, is open when both
        # carry unknowns
        st = m.transverse
        corner_open = np.zeros(g.layout.size, dtype=bool)
        corner_open[st:] = m.interior[st:] & m.interior[:-st]
        np.testing.assert_array_equal(m.closed_corners, np.flatnonzero(~corner_open))


def test_smoothstep_is_a_symmetric_step():
    x = np.linspace(-0.5, 1.5, 2001)
    s = smoothstep(x)
    assert np.all(s[x <= 0.0] == 0.0)
    assert np.all(s[x >= 1.0] == 1.0)
    assert np.all(np.diff(s) >= 0.0)
    # dyadic points, so that 1 - x is exact and only the step itself rounds
    inner = np.arange(4097) / 4096.0
    np.testing.assert_allclose(smoothstep(1.0 - inner), 1.0 - smoothstep(inner),
                               rtol=0.0, atol=1e-15)


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
        ou, ov = face_masks(g, "obstacle")
        assert np.abs(ext.u[ou] - 1.0).max() <= tol
        assert np.abs(ext.v[ov]).max() <= tol

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
        with pytest.raises(ValueError, match="no room for the taper"):
            ExtensionField(self.grid, self.path, 0.4)  # collar 0.375 >= R - h

    def test_collar_rule(self):
        # collar = a + max(4h, 0.15 (R - a)), and it must end one cell
        # before the support radius
        assert lifting_collar(0.25, 1.0 / 32.0, 0.75) == 0.25 + 0.125
        assert lifting_collar(0.25, 1.0 / 32.0, 1.5) == 0.25 + 0.15 * 1.25
        with pytest.raises(ValueError):
            lifting_collar(0.15, 1.0 / 32.0, 0.2)
        assert ExtensionField(self.grid, self.path, 0.75).collar == 0.375

    @pytest.mark.parametrize("t", [0.3, 0.7])
    def test_samples_match_stream_function_oracle(self, t):
        # the cached nodes and taper reproduce the curl of the stream
        # function rebuilt from scratch, bit for bit
        g, R = self.grid, 0.75
        path = sinusoidal_path((0.2, 0.1), 2.0, 1.0)
        field = ExtensionField(g, path, R)
        collar = lifting_collar(g.obstacle_radius, g.h, R)
        _, mp, mpp = eval_motion(path, t)
        for sample, (vx, vy) in ((field.sample(t), mp), (field.sample_dt(t), mpp)):
            xn, yn = g.nodes()
            r = np.sqrt(xn**2 + yn**2)
            taper = 1.0 - smoothstep((r - collar) / (R - g.h - collar))
            psi = taper * (vx * yn - vy * xn)
            u, v = (psi[:, 1:] - psi[:, :-1]) / g.h, -(psi[1:, :] - psi[:-1, :]) / g.h
            np.testing.assert_array_equal(sample.u, u)
            np.testing.assert_array_equal(sample.v, v)

