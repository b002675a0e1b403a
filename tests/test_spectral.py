import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

from machlab.compressible import FluidState
from machlab.constitutive import PressureLaw, ViscosityPair
from machlab.errors import DisconnectedDomain, PoissonFailure
from machlab.geometry import (
    ExtensionField,
    Grid,
    build_grid,
    enforce_bc,
    linear_path,
    sinusoidal_path,
    static_path,
)
from machlab import spectral as sp
from machlab.incompressible import IncompressibleState
from machlab.operators import DiscreteOperators, spd_factor

from conftest import face_masks, in_layout

LAW = PressureLaw(1.0, 2.0, 1.0)


@pytest.fixture(scope="module")
def square_dec(unit_square_grid):
    return sp.spectral_decompose(unit_square_grid, 40)


class TestNeumannLaplacian:
    def test_constants_in_kernel_exactly(self, unit_square_grid):
        lap = unit_square_grid.ops.laplacian_matrix
        ones = np.ones(unit_square_grid.n_active)
        assert np.abs(lap @ ones).max() < 1e-13

    def test_symmetry_on_random_pairs(self, obstacle_grid):
        lap = obstacle_grid.ops.laplacian_matrix
        rng = np.random.default_rng(7)
        for _ in range(10):
            w = rng.standard_normal(obstacle_grid.n_active)
            v = rng.standard_normal(obstacle_grid.n_active)
            lhs = float((lap @ w) @ v)
            rhs = float(w @ (lap @ v))
            scale = np.linalg.norm(w) * np.linalg.norm(v) / obstacle_grid.h**2
            assert abs(lhs - rhs) <= 1e-12 * scale

    def test_nonnegative_quadratic_form(self, obstacle_grid):
        lap = obstacle_grid.ops.laplacian_matrix
        rng = np.random.default_rng(8)
        for _ in range(10):
            w = rng.standard_normal(obstacle_grid.n_active)
            assert float(w @ (lap @ w)) >= -1e-10

    def test_disconnected_domain_rejected(self):
        # a disk wider than the strip splits the fluid into two components
        grid = Grid(-1.0, -0.1, 40, 4, 0.05, obstacle_radius=0.18)
        with pytest.raises(DisconnectedDomain, match="has 2 components"):
            DiscreteOperators(grid)


class TestPoissonSolve:
    def test_incompatible_rhs_refused(self, obstacle_grid):
        # the grounded row absorbs the mean, so only the residual check sees it
        rng = np.random.default_rng(11)
        rhs = 1.0 + rng.standard_normal(obstacle_grid.n_active)
        with pytest.raises(PoissonFailure, match="residual"):
            obstacle_grid.ops.poisson_solve(rhs)

    def test_matches_dense_least_squares(self, obstacle_grid):
        # A + 11^T/n maps mean-zero vectors like A and keeps the constants, so
        # its dense Cholesky solve is the minimum-norm least-squares solution
        n = obstacle_grid.n_active
        rng = np.random.default_rng(12)
        rhs = rng.standard_normal(n)
        rhs -= rhs.mean()
        dense = obstacle_grid.ops.laplacian_matrix.toarray() + 1.0 / n
        oracle = scipy.linalg.solve(dense, rhs, assume_a="pos")
        x = obstacle_grid.ops.poisson_solve(rhs)
        assert np.linalg.norm(x - oracle) <= 1e-10 * np.linalg.norm(oracle)

    def test_grounded_matrix_symmetric(self, obstacle_grid):
        a = obstacle_grid.ops.grounded_matrix()
        assert (a != a.T).nnz == 0
        lap = obstacle_grid.ops.laplacian_matrix
        assert a[0, 0] == 1.0 and a[0].nnz == 1
        assert (a[1:, 1:] != lap[1:, 1:]).nnz == 0

    def test_fill_below_colamd(self):
        # the default grid's 16,176 cells: COLAMD without symmetric mode
        # fills L + U with 1,151,704 entries
        grid = build_grid(2, 2.0, 0.25, 1.0 / 32.0)
        assert grid.n_active == 16176
        lu = grid.ops._factorization()
        assert lu.L.nnz + lu.U.nnz < 1_151_704


class TestSectorFactor:
    def test_shift_invert_fill_below_colamd(self, spectral_cfg):
        # the x-even, y-odd block of the spectral grid (4,065 cells), shifted
        # as the eigensolver shifts it: COLAMD without symmetric mode fills
        # L + U with 218,436 entries, the symmetric-mode factor with 124,630
        g = spectral_cfg["geometry"]
        grid = build_grid(g["dimension"], g["extent"], g["obstacle_radius"],
                          g["cell_size"])
        sectors = sp._sector_bases(grid)
        b = sectors[2][0]
        assert b.shape[1] == 4065 and sectors[3][1] == 2
        block = b.T @ (grid.ops.laplacian_matrix @ b)
        sigma = -1e-3 * (4.0 / grid.h**2)
        shifted = (block - sigma * sparse.identity(b.shape[1], format="csr")).tocsc()
        bound = 150_000
        lu = spd_factor(shifted)
        assert lu.L.nnz + lu.U.nnz < bound
        colamd = spla.splu(shifted)
        assert colamd.L.nnz + colamd.U.nnz > bound


class TestSpectralDecomposition:
    def test_rectangle_eigenvalues_second_order(self, square_dec, unit_square_grid):
        # separation-of-variables table on [0, pi]^2: k^2 + l^2
        analytic = sorted(k * k + l * l for k in range(7) for l in range(7))[:15]
        h = unit_square_grid.h
        for lam_d, lam_a in zip(square_dec.eigenvalues, analytic):
            # second-order dispersion error (k^4 + l^4) h^2 / 12, with slack
            assert abs(lam_d - lam_a) <= max(0.5 * lam_a**2, 1.0) * h**2 / 4.0

    def test_kernel_pair_exact(self, square_dec, unit_square_grid):
        assert square_dec.eigenvalues[0] == 0.0
        n = unit_square_grid.n_active
        np.testing.assert_allclose(
            square_dec.lift(np.eye(square_dec.modes)[0]), 1.0 / math.sqrt(n), rtol=0, atol=0
        )

    def test_single_mode_request(self, unit_square_grid):
        dec = sp.spectral_decompose(unit_square_grid, 1)
        assert dec.eigenvalues[0] == 0.0

    def test_residuals_and_gram(self, square_dec):
        assert square_dec.residuals.max() <= 1e-8
        v = square_dec.lift(np.eye(square_dec.modes))
        gram = v.T @ v
        assert np.abs(gram - np.eye(square_dec.modes)).max() <= 1e-10

    def test_sorted_ascending(self, square_dec):
        assert np.all(np.diff(square_dec.eigenvalues) >= -1e-12)

    def test_desk_scale_caps(self):
        big = Grid(0.0, 0.0, 160, 160, 1.0 / 160.0)
        with pytest.raises(ValueError):
            sp.spectral_decompose(big, 10)

    def test_modes_bounds(self, unit_square_grid):
        with pytest.raises(ValueError):
            sp.spectral_decompose(unit_square_grid, 0)
        with pytest.raises(ValueError):
            sp.spectral_decompose(unit_square_grid, unit_square_grid.n_active + 1)


def _mirror_flags(grid):
    act = grid.active
    return np.array_equal(act, act[::-1, :]), np.array_equal(act, act[:, ::-1])


def _check_against_oracle(dec, w_oracle, v_oracle):
    """Eigenvalues within 1e-10 and the same retained subspace."""
    k = dec.modes
    np.testing.assert_allclose(dec.eigenvalues, w_oracle[:k], rtol=1e-10, atol=1e-10)
    sv = np.linalg.svd(v_oracle[:, :k].T @ dec.lift(np.eye(k)), compute_uv=False)
    assert sv.min() >= 1.0 - 1e-10
    assert dec.residuals.max() <= 1e-8


class TestSectorSolve:
    """spectral_decompose against eigensolves of the full operator, written
    here: the sector split must give the same pairs as no split at all."""

    @staticmethod
    def _dense_oracle(grid):
        return np.linalg.eigh(grid.ops.laplacian_matrix.toarray())

    @pytest.mark.parametrize(
        "grid, modes",
        [
            # centred disk: both mirrors, four sectors; 1008 keeps every
            # pair, so each sector takes the dense path
            (build_grid(2, 1.0, 0.15, 1.0 / 16.0), 1),
            (build_grid(2, 1.0, 0.15, 1.0 / 16.0), 40),
            (build_grid(2, 1.0, 0.15, 1.0 / 16.0), 600),
            (build_grid(2, 1.0, 0.15, 1.0 / 16.0), 1008),
            # odd cell count: the middle row and column are their own mirror
            (build_grid(2, 1.0, 0.15, 2.0 / 41.0), 30),
            # off-centre box: no mirror symmetry, one sector
            (Grid(-0.9, -1.1, 30, 34, 1.0 / 16.0, obstacle_radius=0.2), 25),
            # thin strip: the 40 lowest modes are all y-even, so the two
            # y-even sectors must be re-solved with larger counts
            (Grid(0.0, 0.0, 128, 2, 1.0 / 16.0), 40),
            # square box, disk off the diagonal: the x mirror only, no
            # transpose symmetry, two sectors
            (Grid(-1.0, -0.75, 32, 32, 1.0 / 16.0, obstacle_radius=0.2), 40),
            # square box, disk on the diagonal off the centre: the transpose
            # only, two diagonal-parity sectors
            (Grid(-0.9, -0.9, 30, 30, 1.0 / 16.0, obstacle_radius=0.2), 30),
        ],
        ids=["disk-1", "disk-40", "disk-600", "disk-all", "odd-30", "off-centre-25",
             "strip-40", "off-diagonal-40", "diagonal-30"],
    )
    def test_matches_dense_eigh(self, grid, modes):
        w, v = self._dense_oracle(grid)
        if modes < grid.n_active:
            # the cutoff falls in a spectral gap, so the subspace is unique
            assert w[modes] - w[modes - 1] > 1e-3 * w[modes]
        _check_against_oracle(sp.spectral_decompose(grid, modes), w, v)

    def test_grids_cover_the_sector_cases(self):
        assert _mirror_flags(build_grid(2, 1.0, 0.15, 1.0 / 16.0)) == (True, True)
        assert build_grid(2, 1.0, 0.15, 2.0 / 41.0).nx % 2 == 1
        off = Grid(-0.9, -1.1, 30, 34, 1.0 / 16.0, obstacle_radius=0.2)
        assert _mirror_flags(off) == (False, False)
        off_diagonal = Grid(-1.0, -0.75, 32, 32, 1.0 / 16.0, obstacle_radius=0.2)
        assert _mirror_flags(off_diagonal) == (True, False)
        assert not np.array_equal(off_diagonal.active, off_diagonal.active.T)
        assert [src for _, src in sp._sector_bases(off_diagonal)] == [None, None]
        diagonal = Grid(-0.9, -0.9, 30, 30, 1.0 / 16.0, obstacle_radius=0.2)
        assert _mirror_flags(diagonal) == (False, False)
        assert np.array_equal(diagonal.active, diagonal.active.T)
        assert len(sp._sector_bases(diagonal)) == 2
        # a centred disk: six sectors, the fourth the transpose of the third
        disk = build_grid(2, 1.0, 0.15, 1.0 / 16.0)
        assert [src for _, src in sp._sector_bases(disk)] == [None] * 3 + [2] + [None] * 2

    def test_matches_full_shift_invert_on_spectral_grid(self, spectral_cfg):
        # 16,260 cells: each of the four sectors holds over 3,000, so every
        # sector goes through ARPACK
        g = spectral_cfg["geometry"]
        grid = build_grid(g["dimension"], g["extent"], g["obstacle_radius"],
                          g["cell_size"])
        assert grid.n_active // 4 > 3000
        k = 120
        a = grid.ops.laplacian_matrix
        n = grid.n_active
        sigma = -1e-3 * (4.0 / grid.h**2)
        lu = spla.splu((a - sigma * sparse.identity(n, format="csr")).tocsc())
        opinv = spla.LinearOperator((n, n), matvec=lu.solve, dtype=float)
        v0 = np.cos(np.linspace(0.0, 13.0, n)) + 0.5
        w, v = spla.eigsh(a, k=k + 1, sigma=sigma, which="LM", OPinv=opinv, v0=v0)
        order = np.argsort(w)
        w, v = w[order], v[:, order]
        assert w[k] - w[k - 1] > 1e-3 * w[k]
        _check_against_oracle(sp.spectral_decompose(grid, k), w, v)

    def test_transposed_twins_are_exact(self, obstacle_grid):
        # every x-even, y-odd mode is followed by its transpose, the x-odd,
        # y-even mode, with the bit-equal eigenvalue
        dec = sp.spectral_decompose(obstacle_grid, 60)
        w = dec.eigenvalues
        fields = [obstacle_grid.ops.unpack(v) for v in dec.lift(np.eye(dec.modes)).T]
        sources = [j for j, f in enumerate(fields)
                   if np.array_equal(f[::-1], f) and np.array_equal(f[:, ::-1], -f)]
        assert len(sources) >= 8
        for j in (j for j in sources if j + 1 < dec.modes):
            assert w[j + 1] == w[j]
            np.testing.assert_array_equal(fields[j + 1], fields[j].T)

    def test_cutoff_in_twin_pair_keeps_x_even(self, obstacle_grid):
        # K = 50 splits a twin pair: the x-even, y-odd member is kept
        dec = sp.spectral_decompose(obstacle_grid, 50)
        f = obstacle_grid.ops.unpack(dec.lift(np.eye(dec.modes)[-1]))
        assert np.array_equal(f[::-1], f) and np.array_equal(f[:, ::-1], -f)
        full = sp.spectral_decompose(obstacle_grid, 51)
        assert full.eigenvalues[50] == full.eigenvalues[49]

    def test_split_degenerate_pair_is_deterministic(self, obstacle_grid):
        # K = 50 cuts through a pair that differs only at rounding level
        w = np.linalg.eigvalsh(obstacle_grid.ops.laplacian_matrix.toarray())
        assert w[50] - w[49] < 1e-9 * w[50]
        first = sp.spectral_decompose(obstacle_grid, 50)
        second = sp.spectral_decompose(obstacle_grid, 50)
        np.testing.assert_array_equal(first.eigenvalues, second.eigenvalues)
        np.testing.assert_array_equal(first.lift(np.eye(50)), second.lift(np.eye(50)))
        np.testing.assert_array_equal(first.residuals, second.residuals)


class TestSectorForm:
    """The modes stay in sector coordinates; project, lift and vectors
    against the dense eigenvector matrix assembled here from the sector
    entries."""

    @staticmethod
    def _dense(dec):
        v = np.zeros((dec.grid.n_active, dec.modes))
        for b, y, modes in dec.sectors:
            v[:, modes] = b.toarray() @ y[:, :len(modes)]
        return v

    @pytest.mark.parametrize("grid", [
        build_grid(2, 1.0, 0.15, 1.0 / 32.0),  # transpose symmetric: a twin
        Grid(-1.0, -0.75, 32, 32, 1.0 / 16.0, obstacle_radius=0.2),  # x mirror only
    ], ids=["transpose", "no-transpose"])
    def test_project_and_lift_match_dense(self, grid):
        dec = sp.spectral_decompose(grid, 60)
        twins = [id(y) for _, y, _ in dec.sectors]
        assert (len(set(twins)) < len(twins)) == np.array_equal(grid.active, grid.active.T)
        v = self._dense(dec)
        assert np.abs(v.T @ v - np.eye(dec.modes)).max() <= 1e-12
        rng = np.random.default_rng(25)
        x = rng.standard_normal((grid.n_active, 3))
        c = rng.standard_normal((dec.modes, 3))
        rows = np.flatnonzero(rng.random(grid.n_active) < 0.3)
        cols = np.flatnonzero(rng.random(dec.modes) < 0.5)

        def close(actual, desired):
            err = np.linalg.norm(actual - desired, axis=0)
            assert np.all(err <= 1e-13 * np.linalg.norm(desired, axis=0))

        close(dec.project(x), v.T @ x)
        close(dec.project(x[:, 0]), v.T @ x[:, 0])
        close(dec.lift(c), v @ c)
        close(dec.lift(c[:, 1]), v @ c[:, 1])
        close(dec.vectors(rows, cols), v[rows][:, cols])
        # a gather: each entry is the lift of a unit coefficient vector, exactly
        np.testing.assert_array_equal(dec.vectors(rows, cols),
                                      dec.lift(np.eye(dec.modes)[:, cols])[rows])

    def test_peak_memory_below_dense_eigenvectors(self, obstacle_grid):
        # the (n, K) eigenvector matrix alone would take n K 8 bytes
        k = 120
        sp.spectral_decompose(obstacle_grid, k)  # grid operators built and cached
        tracemalloc.start()
        try:
            sp.spectral_decompose(obstacle_grid, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < obstacle_grid.n_active * k * 8


def fractional_power(dec, s, cell_field):
    """Oracle: (-lap)^s on the retained span. s = 0 is the identity there,
    s > 0 annihilates the constant component like the direct operator,
    and s < 0 refuses a field with a component in the kernel."""
    c = dec.coefficients(cell_field)
    lam = dec.eigenvalues
    if s < 0.0:
        if abs(c[0]) > 1e-10 * max(np.linalg.norm(c), 1e-300):
            raise ValueError("negative power of a field with a kernel component")
        scale = np.zeros_like(lam)
        scale[1:] = lam[1:] ** s
    else:
        scale = lam**s if s > 0.0 else np.ones_like(lam)
    return dec.reconstruct(c * scale)


class TestFractionalPowers:
    def test_zero_power_is_identity_on_span(self, square_dec):
        rng = np.random.default_rng(0)
        coeffs = rng.standard_normal(square_dec.modes)
        field = square_dec.reconstruct(coeffs)
        out = fractional_power(square_dec, 0.0, field)
        np.testing.assert_allclose(out, field, atol=1e-12)

    def test_power_one_matches_operator(self, square_dec, unit_square_grid):
        ops = unit_square_grid.ops
        rng = np.random.default_rng(1)
        field = square_dec.reconstruct(rng.standard_normal(square_dec.modes))
        out = fractional_power(square_dec, 1.0, field)
        direct = ops.unpack(ops.laplacian_matrix @ ops.pack(field))
        scale = np.abs(direct).max()
        assert np.abs(out - direct).max() <= 1e-8 * max(scale, 1.0)

    def test_power_one_on_eigenvector(self, square_dec):
        k = 3
        e = square_dec.reconstruct(np.eye(square_dec.modes)[k])
        out = fractional_power(square_dec, 1.0, e)
        np.testing.assert_allclose(
            out, square_dec.eigenvalues[k] * e, atol=1e-10
        )

    def test_negative_power_kernel_guard(self, square_dec, unit_square_grid):
        ones = np.ones((unit_square_grid.nx, unit_square_grid.ny))
        with pytest.raises(ValueError, match="kernel component"):
            fractional_power(square_dec, -1.0, ones)
        # mean-zero input is fine
        e = square_dec.reconstruct(np.eye(square_dec.modes)[2])
        out = fractional_power(square_dec, -1.0, e)
        np.testing.assert_allclose(
            out, e / square_dec.eigenvalues[2], atol=1e-10
        )

    def test_gradient_norm_identity(self, unit_square_grid):
        # ||(-lap)^(1/2) w|| equals the discrete gradient norm on smooth
        # mean-zero fields, to the consistency order of the stencils
        g = unit_square_grid
        dec = sp.spectral_decompose(g, 60)
        xc, yc = g.cell_centers()
        w = np.cos(xc) * np.cos(2 * yc)
        out = fractional_power(dec, 0.5, w)
        lhs = g.l2norm(out)
        gu, gv = g.ops.grad(in_layout(g, w))
        rhs = g.ops.face_l2norm(gu, gv)
        assert abs(lhs - rhs) <= 5.0 * g.h * rhs


class TestHelmholtz:
    def test_gradient_killed(self, obstacle_grid):
        g = obstacle_grid
        xc, yc = g.cell_centers()
        q = np.where(g.active, np.exp(-((xc - 0.3) ** 2 + yc**2) / 0.05), 0.0)
        gq = g.ops.grad(in_layout(g, q))
        hu, hv, _ = g.ops.helmholtz(gq[0], gq[1])
        assert max(np.abs(hu).max(), np.abs(hv).max()) <= 1e-10

    def test_solenoidal_fixed(self, obstacle_grid):
        g = obstacle_grid
        xn, yn = g.nodes()
        r2 = (xn + 0.55) ** 2 + yn**2
        psi = np.where(r2 < 0.0625, (1 - r2 / 0.0625) ** 3, 0.0)
        u = (psi[:, 1:] - psi[:, :-1]) / g.h
        v = -(psi[1:, :] - psi[:-1, :]) / g.h
        iu, iv = face_masks(g, "interior")
        u[~iu] = 0.0
        v[~iv] = 0.0
        hu, hv, _ = g.ops.helmholtz(in_layout(g, u), in_layout(g, v))
        assert np.abs(hu - u).max() <= 1e-10
        assert np.abs(hv - v).max() <= 1e-10

    def test_constant_field_on_plain_square(self, unit_square_grid):
        g = unit_square_grid
        u = in_layout(g, np.ones((g.nx + 1, g.ny)))
        v = in_layout(g, np.zeros((g.nx, g.ny + 1)))
        hu, hv, _ = g.ops.helmholtz(u, v)
        assert g.ops.face_l2norm(hu, hv) <= 10.0 * g.h

    def test_idempotence_orthogonality_pythagoras(self, obstacle_grid):
        g = obstacle_grid
        iu, iv = face_masks(g, "interior")
        rng = np.random.default_rng(5)
        for _ in range(10):
            u = in_layout(g, rng.standard_normal((g.nx + 1, g.ny)))
            v = in_layout(g, rng.standard_normal((g.nx, g.ny + 1)))
            hu, hv, theta = g.ops.helmholtz(u, v)
            hu2, hv2, _ = g.ops.helmholtz(hu, hv)
            norm = g.ops.face_l2norm(hu, hv)
            assert g.ops.face_l2norm(hu2 - hu, hv2 - hv) <= 1e-10 * max(norm, 1.0)
            gt = g.ops.grad(theta)
            um = np.where(iu, u, 0.0)
            vm = np.where(iv, v, 0.0)
            inp = g.ops.face_dot(um, vm, um, vm)
            assert abs(g.ops.face_dot(hu, hv, gt[0], gt[1])) <= 1e-8 * max(inp, 1.0)
            pyth = inp - g.ops.face_dot(hu, hv, hu, hv) - g.ops.face_dot(
                gt[0], gt[1], gt[0], gt[1]
            )
            assert abs(pyth) <= 1e-8 * max(inp, 1.0)

    def test_divergence_free_output(self, obstacle_grid):
        g = obstacle_grid
        rng = np.random.default_rng(6)
        u = in_layout(g, rng.standard_normal((g.nx + 1, g.ny)))
        v = in_layout(g, rng.standard_normal((g.nx, g.ny + 1)))
        hu, hv, _ = g.ops.helmholtz(u, v)
        div = g.ops.div(hu, hv)
        assert np.abs(div[g.active]).max() <= 1e-8

    def test_boundary_inclusive_projection(self, obstacle_grid):
        # the incompressible solver's pressure projection: the obstacle
        # faces carry m' into the divergence and keep it
        g = obstacle_grid
        path = linear_path((0.3, -0.1), 1.0)
        rng = np.random.default_rng(8)
        u = in_layout(g, rng.standard_normal((g.nx + 1, g.ny)))
        v = in_layout(g, rng.standard_normal((g.nx, g.ny + 1)))
        state = enforce_bc(g, path, IncompressibleState(u, v, 0.2))
        hu, hv, _ = g.ops.helmholtz(state.u, state.v, include_boundary_faces=True)
        # div -> Poisson solve -> grad, written out
        rhs = -g.ops.pack(g.ops.div(state.u, state.v, include_boundary_faces=True))
        gu, gv = g.ops.grad(g.ops.unpack(g.ops.poisson_solve(rhs)))
        iu, iv = face_masks(g, "interior")
        np.testing.assert_array_equal(hu[iu], (state.u - gu)[iu])
        np.testing.assert_array_equal(hv[iv], (state.v - gv)[iv])
        out = enforce_bc(g, path, replace(state, u=hu, v=hv))
        div = g.ops.div(out.u, out.v, include_boundary_faces=True)
        assert np.abs(div[g.active]).max() <= 1e-10


class TestWavePropagator:
    def test_time_zero_identity(self, square_dec):
        rng = np.random.default_rng(2)
        r = square_dec.reconstruct(rng.standard_normal(square_dec.modes))
        psi = square_dec.reconstruct(rng.standard_normal(square_dec.modes))
        psi -= psi[square_dec.grid.active].mean()
        st0 = sp.AcousticState(r, psi, 0.1, 0.0)
        st1 = sp.wave_propagate(square_dec, LAW, 0.1, st0, 0.0)
        np.testing.assert_allclose(st1.r, st0.r, atol=1e-13)

    def test_single_mode_analytic_rotation(self, square_dec):
        # r cos-oscillates with frequency sqrt(p' lambda)/eps; at a half
        # period the coefficient is exactly -1
        k = 1
        lam = square_dec.eigenvalues[k]
        e_k = square_dec.reconstruct(np.eye(square_dec.modes)[k])
        st0 = sp.AcousticState(e_k, np.zeros_like(e_k), 0.1, 0.0)
        t_half = math.pi * 0.1 / math.sqrt(2.0 * lam)
        out = sp.wave_propagate(square_dec, LAW, 0.1, st0, t_half)
        coeff = square_dec.coefficients(out.r)
        assert abs(coeff[k] + 1.0) <= 1e-10
        assert np.abs(np.delete(coeff, k)).max() <= 1e-10
        # generic time: r(t) = cos(omega t)
        t = 0.0137
        out2 = sp.wave_propagate(square_dec, LAW, 0.1, st0, t)
        expected = math.cos(math.sqrt(2.0 * lam) * t / 0.1)
        assert abs(square_dec.coefficients(out2.r)[k] - expected) <= 1e-10

    def test_energy_conserved(self, square_dec):
        rng = np.random.default_rng(3)
        for _ in range(10):
            rc = rng.standard_normal(square_dec.modes)
            pc = rng.standard_normal(square_dec.modes)
            pc[0] = 0.0
            st0 = sp.AcousticState(
                square_dec.reconstruct(rc), square_dec.reconstruct(pc), 0.05, 0.0
            )
            e0 = sp.acoustic_energy(square_dec, LAW, st0)
            st1 = sp.wave_propagate(square_dec, LAW, 0.05, st0, 1.234)
            e1 = sp.acoustic_energy(square_dec, LAW, st1)
            assert abs(e1 - e0) <= 1e-10 * e0


class TestDuhamel:
    def test_zero_forcing_matches_propagator(self, square_dec):
        rng = np.random.default_rng(4)
        rc = rng.standard_normal(square_dec.modes)
        st0 = sp.AcousticState(
            square_dec.reconstruct(rc),
            np.zeros((square_dec.grid.nx, square_dec.grid.ny)),
            0.1,
            0.0,
        )
        t = 0.2
        ref = sp.wave_propagate(square_dec, LAW, 0.1, st0, t)
        out = sp.duhamel_solve(
            square_dec, LAW, 0.1, st0, lambda s: np.zeros(square_dec.modes),
            t, dt=1e-3, sample_times=[t],
        )[0]
        np.testing.assert_allclose(out.r, ref.r, atol=1e-12)
        np.testing.assert_allclose(out.psi, ref.psi, atol=1e-12)

    def test_constant_forcing_closed_form(self, square_dec):
        # driven oscillator: w(t) = R(t)(w0 - wp) + wp with the particular
        # solution wp = (eps h / p', 0)
        k, eps, hk = 2, 0.1, 0.7
        lam = square_dec.eigenvalues[k]
        pp = 2.0
        basis = np.eye(square_dec.modes)[k]
        st0 = sp.AcousticState(
            square_dec.reconstruct(basis),
            np.zeros((square_dec.grid.nx, square_dec.grid.ny)),
            eps,
            0.0,
        )
        horizon = 0.3
        out = sp.duhamel_solve(
            square_dec, LAW, eps, st0, lambda s: hk * basis, horizon,
            dt=5e-5, sample_times=[horizon],
        )[0]
        omega = math.sqrt(pp * lam) / eps
        rp = eps * hk / pp
        r_exact = (1.0 - rp) * math.cos(omega * horizon) + rp
        psi_exact = -(1.0 - rp) * math.sqrt(pp / lam) * math.sin(omega * horizon)
        assert abs(square_dec.coefficients(out.r)[k] - r_exact) <= 1e-6
        assert abs(square_dec.coefficients(out.psi)[k] - psi_exact) <= 1e-6

    def test_linearity(self, square_dec):
        zero = np.zeros((square_dec.grid.nx, square_dec.grid.ny))
        st0 = sp.AcousticState(zero, zero.copy(), 0.1, 0.0)
        rng = np.random.default_rng(9)
        h1 = rng.standard_normal(square_dec.modes)
        h2 = rng.standard_normal(square_dec.modes)
        T = 0.1

        def solve(fn):
            return sp.duhamel_solve(square_dec, LAW, 0.1, st0, fn, T, dt=1e-3,
                                    sample_times=[T])[0]

        mixed = solve(lambda s: 2.0 * h1 + 3.0 * h2)
        a = solve(lambda s: h1)
        b = solve(lambda s: h2)
        np.testing.assert_allclose(
            mixed.r, 2.0 * a.r + 3.0 * b.r, atol=1e-10
        )
        np.testing.assert_allclose(
            mixed.psi, 2.0 * a.psi + 3.0 * b.psi, atol=1e-10
        )

    def test_wave_system_residual_second_order(self, square_dec):
        # numeric time differentiation of the trajectory satisfies
        # eps dr/dt = lam psi and eps dpsi/dt + p' r = eps h to O(dt^2)
        dec = square_dec
        eps, k, hk = 0.2, 2, 0.5
        lam = dec.eigenvalues[k]
        basis = np.eye(dec.modes)[k]
        st0 = sp.AcousticState(dec.reconstruct(0.7 * basis),
                               dec.reconstruct(0.2 * basis), eps, 0.0)
        delta = 2e-4
        t = 0.05
        samples = sp.duhamel_solve(
            dec, LAW, eps, st0, lambda s: hk * basis, t + delta, dt=1e-5,
            sample_times=[t - delta, t, t + delta],
        )
        rdot = (dec.coefficients(samples[2].r)[k]
                - dec.coefficients(samples[0].r)[k]) / (2 * delta)
        pdot = (dec.coefficients(samples[2].psi)[k]
                - dec.coefficients(samples[0].psi)[k]) / (2 * delta)
        r_mid = dec.coefficients(samples[1].r)[k]
        p_mid = dec.coefficients(samples[1].psi)[k]
        res1 = eps * rdot - lam * p_mid
        res2 = eps * pdot + 2.0 * r_mid - eps * hk
        omega = np.sqrt(2.0 * lam) / eps
        scale = (omega * delta) ** 2 * max(abs(r_mid), abs(p_mid), 1.0) * omega
        assert abs(res1) <= 10.0 * scale + 1e-8
        assert abs(res2) <= 10.0 * scale + 1e-8


class TestForcing:
    def _rest_state(self, grid, eps=0.1):
        return FluidState(
            in_layout(grid, np.ones((grid.nx, grid.ny))),
            in_layout(grid, np.zeros((grid.nx + 1, grid.ny))),
            in_layout(grid, np.zeros((grid.nx, grid.ny + 1))),
            0.0,
            eps,
        )

    def _zero_ext(self, grid):
        return sp.ExtensionFieldSample(
            in_layout(grid, np.zeros((grid.nx + 1, grid.ny))),
            in_layout(grid, np.zeros((grid.nx, grid.ny + 1))),
        )

    def test_rest_state_zero_forcing(self, obstacle_grid):
        g = obstacle_grid
        visc = ViscosityPair(0.01)
        densities = sp.assemble_forcing(
            self._rest_state(g), g, LAW, visc, static_path(1.0),
            self._zero_ext(g), None,
        )
        for label, density in densities.items():
            assert np.abs(density).max() == 0.0, label

    def test_labels_follow_the_term_table(self, obstacle_grid):
        g = obstacle_grid
        densities = sp.assemble_forcing(
            self._rest_state(g), g, LAW, ViscosityPair(0.01), static_path(1.0),
            self._zero_ext(g), None,
        )
        assert list(densities) == list(sp.FORCING_TERMS)

    def test_reference_density_kills_pressure_term(self, obstacle_grid):
        g = obstacle_grid
        visc = ViscosityPair(0.01)
        rng = np.random.default_rng(11)
        state = FluidState(
            in_layout(g, np.ones((g.nx, g.ny))),
            in_layout(g, 0.1 * rng.standard_normal((g.nx + 1, g.ny))),
            in_layout(g, 0.1 * rng.standard_normal((g.nx, g.ny + 1))),
            0.0,
            0.1,
        )
        densities = sp.assemble_forcing(state, g, LAW, visc, static_path(1.0),
                                        self._zero_ext(g), None)
        assert np.abs(densities["pressure"]).max() == 0.0
        assert np.abs(densities["viscous"]).max() > 0.0
        assert np.abs(densities["convective_ess"]).max() > 0.0

    def test_quadratic_law_pressure_density(self, obstacle_grid):
        # for p = rho^2 the wave source is exactly ((rho - 1)/eps)^2
        g = obstacle_grid
        eps = 0.05
        xc, _ = g.cell_centers()
        rho = np.where(g.active, 1.0 + eps * 0.3 * np.cos(xc), 1.0)
        state = FluidState(in_layout(g, rho), in_layout(g, np.zeros((g.nx + 1, g.ny))),
                           in_layout(g, np.zeros((g.nx, g.ny + 1))), 0.0, eps)
        densities = sp.assemble_forcing(state, g, LAW, ViscosityPair(0.01),
                                        static_path(1.0), self._zero_ext(g), None)
        expected = np.where(g.active, ((rho - 1.0) / eps) ** 2, 0.0)
        np.testing.assert_allclose(densities["pressure"], expected, atol=1e-12)

    def test_zero_forcing_zero_channels(self, square_dec, obstacle_grid):
        g = obstacle_grid
        dec = sp.spectral_decompose(g, 20)
        densities = sp.assemble_forcing(
            self._rest_state(g), g, LAW, ViscosityPair(0.01), static_path(1.0),
            self._zero_ext(g), None,
        )
        np.testing.assert_allclose(sp.forcing_channel_norms(densities, dec), 0.0)

    def test_single_mode_synthetic_channel(self, square_dec, monkeypatch):
        # a scalar term with coefficient c at mode k routed to one channel
        # has norm |c| * lambda_k^(-power) by direct mode arithmetic
        dec = square_dec
        k, c = 4, 0.83
        lam = dec.eigenvalues[k]
        h = dec.grid.h
        density = dec.reconstruct(np.eye(dec.modes)[k]) * (c / h)
        for channel, power in ((0, -1.0), (2, 0.0), (4, 1.0)):
            monkeypatch.setitem(sp.FORCING_TERMS, "synthetic", (False, (channel,)))
            norms = sp.forcing_channel_norms({"synthetic": density}, dec)
            expected = abs(c) * lam ** (-power)
            assert norms[channel] == pytest.approx(expected, rel=1e-10)
            assert np.abs(np.delete(norms, channel)).max() == 0.0

    def test_channel_norms_match_per_term_projection(self, obstacle_grid):
        # oracle: one coefficient projection per term, weighted 1/lambda for
        # every term but the scalar pressure one, split per mode over the
        # term's channels with the routing written out here
        routing = {
            "viscous": (0, 2),
            "convective_ess": (0, 1, 2, 3),
            "convective_res": (0, 2, 4),
            "pressure": (2, 3, 4),
            "extension_accel": (3,),
            "momentum_translation_ess": (0, 2),
            "momentum_translation_res": (0, 2, 4),
            "wave_translation_ess": (0, 2),
            "wave_translation_res": (0, 2, 4),
            "acceleration_coupling_ess": (3,),
            "acceleration_coupling_res": (2, 4),
        }
        g = obstacle_grid
        dec = sp.spectral_decompose(g, 30)
        path = sinusoidal_path((0.02, 0.01), 8.0, 1.0)
        lifting = ExtensionField(g, path, 0.45)
        rng = np.random.default_rng(13)
        rho = np.where(g.active, 1.0 + 0.1 * rng.standard_normal((g.nx, g.ny)), 1.0)
        # densities outside [rho_ref/2, 2 rho_ref] feed the residual terms
        xc, yc = g.cell_centers()
        rho[(xc > 0.4) & (yc > 0.4)] = 2.5
        rho[(xc < -0.4) & (yc < -0.4)] = 0.3
        t = 0.13
        state = FluidState(in_layout(g, rho),
                           in_layout(g, 0.3 * rng.standard_normal((g.nx + 1, g.ny))),
                           in_layout(g, 0.3 * rng.standard_normal((g.nx, g.ny + 1))), t, 0.1)
        densities = sp.assemble_forcing(state, g, LAW, ViscosityPair(0.01), path,
                                        lifting.sample(t), lifting)
        assert list(densities) == list(routing)
        for label, density in densities.items():
            assert np.abs(density).max() > 0.0, label

        lam = dec.eigenvalues
        active = lam > 0.0
        lam_safe = np.where(active, lam, 1.0)
        expected = np.zeros(5)
        for label, density in densities.items():
            coeffs = dec.coefficients(density) * g.h
            if label != "pressure":
                coeffs = coeffs / lam_safe
            coeffs[~active] = 0.0
            powers = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])[list(routing[label])]
            lam_p = np.where(active[None, :], lam_safe[None, :] ** powers[:, None], 0.0)
            denom = np.sum(lam_p**2, axis=0)
            alloc = coeffs[None, :] * lam_p / np.where(denom > 0.0, denom, 1.0)
            for row, i in enumerate(routing[label]):
                expected[i] += float(np.sum(alloc[row] ** 2))
        expected = np.sqrt(expected)
        assert expected.min() > 0.0
        np.testing.assert_allclose(sp.forcing_channel_norms(densities, dec),
                                   expected, rtol=1e-13)


class TestRageDecay:
    def test_window_below_spectrum_annihilates(self, square_dec):
        lam1 = square_dec.eigenvalues[1]
        window = lambda x: np.where(np.asarray(x) < 0.5 * lam1, 1.0, 0.0)
        g = square_dec.grid
        x_field = square_dec.reconstruct(np.eye(square_dec.modes)[3])
        chi = np.ones((g.nx, g.ny))
        res = sp.rage_decay(square_dec, LAW, 0.1,
                            sp.decay_gram(square_dec, x_field, chi, window), 0.3)
        assert res.value <= 1e-20

    def test_full_cutoff_single_mode_no_decay(self, square_dec):
        g = square_dec.grid
        k = 5
        x_field = square_dec.reconstruct(np.eye(square_dec.modes)[k])
        chi = np.where(g.active, 1.0, 0.0)
        gval = 0.6
        window = lambda x: np.full_like(np.asarray(x, dtype=float), gval)
        horizon = 0.21
        res = sp.rage_decay(square_dec, LAW, 0.1,
                            sp.decay_gram(square_dec, x_field, chi, window), horizon)
        expected = horizon * gval**2 * g.l2norm(x_field) ** 2
        assert res.value == pytest.approx(expected, rel=1e-12)

    def test_trapezoid_matches_closed_form(self, square_dec):
        self._check_closed_form(square_dec)

    def test_trapezoid_matches_closed_form_on_obstacle_grid(self, obstacle_grid):
        # the cutoff's support is a strict subset of the active cells
        self._check_closed_form(sp.spectral_decompose(obstacle_grid, 40))

    @pytest.mark.parametrize("eps", [0.15, 0.01])
    def test_support_rows_match_all_cells(self, obstacle_grid, eps):
        # rage_decay keeps the cells where chi != 0 and the modes where
        # G c != 0; a direct sum over every trapezoid node and every active
        # cell, zeros included, gives the same trapezoid (848 nodes at
        # eps = 0.01)
        dec = sp.spectral_decompose(obstacle_grid, 40)
        g = dec.grid
        horizon = 0.12
        rng = np.random.default_rng(14)
        x_field = dec.reconstruct(rng.standard_normal(dec.modes))
        chi = sp.make_spatial_cutoff(g, 0.5, 0.9)
        chi_vec = g.ops.pack(chi)
        assert 0 < np.count_nonzero(chi_vec) < g.n_active
        window = sp.make_spectral_window(dec)
        # exactly tied eigenvalues in the window give theta = 0 off the diagonal
        lam_in = dec.eigenvalues[window(dec.eigenvalues) != 0.0]
        assert np.count_nonzero(lam_in[:, None] == lam_in[None, :]) > len(lam_in)
        res = sp.rage_decay(dec, LAW, eps, sp.decay_gram(dec, x_field, chi, window), horizon)

        omega = np.sqrt(2.0 * dec.eigenvalues) / eps
        coeffs = dec.coefficients(x_field) * window(dec.eigenvalues)
        times = np.linspace(0.0, horizon, max(2, math.ceil(horizon / res.quadrature_dt)) + 1)
        v = dec.lift(np.eye(dec.modes))
        vals = [
            g.h**2 * np.sum((chi_vec * np.abs(v @ (np.exp(1j * omega * t) * coeffs))) ** 2)
            for t in times
        ]
        assert res.value == pytest.approx(float(np.trapezoid(vals, times)), rel=1e-12)

    def _check_closed_form(self, dec):
        # independent oracle: expand the time integral per mode pair,
        # integral of cos((w_k - w_l) t) having an exact antiderivative
        g = dec.grid
        eps, horizon = 0.15, 0.12
        rng = np.random.default_rng(12)
        coeffs = rng.standard_normal(dec.modes)
        coeffs[0] = 0.0
        x_field = dec.reconstruct(coeffs)
        chi = sp.make_spatial_cutoff(g, 0.8, 1.4)
        window = sp.make_spectral_window(dec)
        res = sp.rage_decay(dec, LAW, eps, sp.decay_gram(dec, x_field, chi, window), horizon)

        gcoeff = window(dec.eigenvalues) * coeffs
        omega = np.sqrt(2.0 * dec.eigenvalues) / eps
        chi_vec = g.ops.pack(chi)
        v = dec.lift(np.eye(dec.modes))
        m = (v * chi_vec[:, None] ** 2).T @ v
        dw = omega[:, None] - omega[None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            s_int = np.where(np.abs(dw) < 1e-14, horizon,
                             np.sin(dw * horizon) / np.where(dw == 0, 1.0, dw))
        exact = g.h**2 * float(
            np.einsum("kl,k,l,kl->", m, gcoeff, gcoeff, s_int)
        )
        assert res.value == pytest.approx(exact, rel=1e-4)


class TestAcousticExtraction:
    def test_pure_lifting_state(self):
        g = build_grid(2, 1.0, 0.15, 1.0 / 32.0)
        path = linear_path((0.5, 0.0), 1.0)
        field = ExtensionField(g, path, 0.45)
        ext = field.sample(0.3)
        state = FluidState(in_layout(g, np.ones((g.nx, g.ny))), in_layout(g, ext.u),
                           in_layout(g, ext.v), 0.3, 0.1)
        ac = sp.extract_acoustic_potential(state, g, path, LAW, ext)
        assert np.abs(ac.r).max() == 0.0
        assert np.abs(ac.psi).max() <= 1e-12

    def test_solenoidal_tangent_velocity(self, obstacle_grid):
        g = obstacle_grid
        xn, yn = g.nodes()
        r2 = (xn + 0.55) ** 2 + yn**2
        psi = np.where(r2 < 0.0625, (1 - r2 / 0.0625) ** 3, 0.0)
        u = (psi[:, 1:] - psi[:, :-1]) / g.h
        v = -(psi[1:, :] - psi[:-1, :]) / g.h
        iu, iv = face_masks(g, "interior")
        u[~iu] = 0.0
        v[~iv] = 0.0
        state = FluidState(in_layout(g, np.ones((g.nx, g.ny))), in_layout(g, u),
                           in_layout(g, v), 0.0, 0.1)
        ext = sp.ExtensionFieldSample(in_layout(g, np.zeros_like(u)),
                                      in_layout(g, np.zeros_like(v)))
        ac = sp.extract_acoustic_potential(state, g, static_path(1.0), LAW, ext)
        assert np.abs(ac.psi).max() <= 1e-10
        wu, wv = sp.shifted_momentum(state, g, static_path(1.0), LAW, ext)
        hu, hv, _ = g.ops.helmholtz(wu, wv)
        np.testing.assert_allclose(hu, np.where(iu, u, 0.0), atol=1e-10)

    def test_reconstruction_and_pythagoras(self, obstacle_grid):
        g = obstacle_grid
        rng = np.random.default_rng(13)
        xc, _ = g.cell_centers()
        rho = np.where(g.active, 1.0 + 0.05 * np.cos(2 * xc), 1.0)
        state = FluidState(
            in_layout(g, rho),
            in_layout(g, 0.1 * rng.standard_normal((g.nx + 1, g.ny))),
            in_layout(g, 0.1 * rng.standard_normal((g.nx, g.ny + 1))),
            0.2,
            0.1,
        )
        path = linear_path((0.3, 0.0), 1.0)
        ext = ExtensionField(g, path, 0.45).sample(0.2)
        ac = sp.extract_acoustic_potential(state, g, path, LAW, ext)
        assert abs(float(ac.psi[g.active].mean())) <= 1e-12
        wu, wv = sp.shifted_momentum(state, g, path, LAW, ext)
        hu, hv, psi2 = g.ops.helmholtz(wu, wv)
        gp = g.ops.grad(ac.psi)
        resid = g.ops.face_l2norm(hu + gp[0] - wu, hv + gp[1] - wv)
        wnorm = g.ops.face_l2norm(wu, wv)
        assert resid <= 1e-8 * max(wnorm, 1.0)
        pyth = (
            g.ops.face_dot(wu, wv, wu, wv)
            - g.ops.face_dot(hu, hv, hu, hv)
            - g.ops.face_dot(gp[0], gp[1], gp[0], gp[1])
        )
        assert abs(pyth) <= 1e-8 * max(wnorm**2, 1.0)
