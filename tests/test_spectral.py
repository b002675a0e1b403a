import math

import numpy as np
import pytest

from machlab.compressible import FluidState
from machlab.constitutive import PressureLaw, ViscosityPair
from machlab.errors import (
    DisconnectedDomain,
    KernelSingularity,
    UnresolvedOscillation,
)
from machlab.geometry import (
    ExtensionField,
    Grid,
    build_grid,
    build_rectangle_grid,
    linear_path,
    static_path,
)
from machlab import spectral as sp
from machlab.operators import DiscreteOperators

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
        with pytest.raises(DisconnectedDomain):
            DiscreteOperators(grid)


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
            square_dec.eigenvectors[:, 0], 1.0 / math.sqrt(n), rtol=0, atol=0
        )

    def test_single_mode_request(self, unit_square_grid):
        dec = sp.spectral_decompose(unit_square_grid, 1)
        assert dec.eigenvalues[0] == 0.0

    def test_residuals_and_gram(self, square_dec):
        assert square_dec.residuals.max() <= 1e-8
        gram = square_dec.eigenvectors.T @ square_dec.eigenvectors
        assert np.abs(gram - np.eye(square_dec.modes)).max() <= 1e-10

    def test_sorted_ascending(self, square_dec):
        assert np.all(np.diff(square_dec.eigenvalues) >= -1e-12)

    def test_desk_scale_caps(self):
        big = build_rectangle_grid(0.0, 1.0, 0.0, 1.0, 1.0 / 160.0)
        with pytest.raises(ValueError):
            sp.spectral_decompose(big, 10)

    def test_modes_bounds(self, unit_square_grid):
        with pytest.raises(ValueError):
            sp.spectral_decompose(unit_square_grid, 0)
        with pytest.raises(ValueError):
            sp.spectral_decompose(unit_square_grid, unit_square_grid.n_active + 1)


class TestFractionalPowers:
    def test_zero_power_is_identity_on_span(self, square_dec):
        rng = np.random.default_rng(0)
        coeffs = rng.standard_normal(square_dec.modes)
        field = square_dec.reconstruct(coeffs)
        out, _ = sp.fractional_power_apply(square_dec, 0.0, field)
        np.testing.assert_allclose(out, field, atol=1e-12)

    def test_power_one_matches_operator(self, square_dec, unit_square_grid):
        ops = unit_square_grid.ops
        rng = np.random.default_rng(1)
        field = square_dec.reconstruct(rng.standard_normal(square_dec.modes))
        out, _ = sp.fractional_power_apply(square_dec, 1.0, field)
        direct = ops.unpack(ops.laplacian_matrix @ ops.pack(field))
        scale = np.abs(direct).max()
        assert np.abs(out - direct).max() <= 1e-8 * max(scale, 1.0)

    def test_power_one_on_eigenvector(self, square_dec):
        k = 3
        e = square_dec.reconstruct(np.eye(square_dec.modes)[k])
        out, _ = sp.fractional_power_apply(square_dec, 1.0, e)
        np.testing.assert_allclose(
            out, square_dec.eigenvalues[k] * e, atol=1e-10
        )

    def test_negative_power_kernel_guard(self, square_dec, unit_square_grid):
        ones = np.ones((unit_square_grid.nx, unit_square_grid.ny))
        with pytest.raises(KernelSingularity):
            sp.fractional_power_apply(square_dec, -1.0, ones)
        # mean-zero input is fine
        e = square_dec.reconstruct(np.eye(square_dec.modes)[2])
        out, _ = sp.fractional_power_apply(square_dec, -1.0, e)
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
        out, _ = sp.fractional_power_apply(dec, 0.5, w)
        lhs = g.l2norm(out)
        gu, gv = g.ops.grad(w)
        rhs = g.ops.face_l2norm(gu, gv)
        assert abs(lhs - rhs) <= 5.0 * g.h * rhs


class TestHelmholtz:
    def test_gradient_killed(self, obstacle_grid):
        g = obstacle_grid
        xc, yc = g.cell_centers()
        q = np.where(g.active, np.exp(-((xc - 0.3) ** 2 + yc**2) / 0.05), 0.0)
        gq = g.ops.grad(q)
        (hu, hv), _ = sp.helmholtz_project(g, gq[0], gq[1])
        assert max(np.abs(hu).max(), np.abs(hv).max()) <= 1e-10

    def test_solenoidal_fixed(self, obstacle_grid):
        g = obstacle_grid
        xn, yn = g.nodes()
        r2 = (xn + 0.55) ** 2 + yn**2
        psi = np.where(r2 < 0.0625, (1 - r2 / 0.0625) ** 3, 0.0)
        u = (psi[:, 1:] - psi[:, :-1]) / g.h
        v = -(psi[1:, :] - psi[:-1, :]) / g.h
        u[~g.uface_interior] = 0.0
        v[~g.vface_interior] = 0.0
        (hu, hv), _ = sp.helmholtz_project(g, u, v)
        assert np.abs(hu - u).max() <= 1e-10
        assert np.abs(hv - v).max() <= 1e-10

    def test_constant_field_on_plain_square(self, unit_square_grid):
        g = unit_square_grid
        u = np.ones((g.nx + 1, g.ny))
        v = np.zeros((g.nx, g.ny + 1))
        (hu, hv), _ = sp.helmholtz_project(g, u, v)
        assert g.ops.face_l2norm(hu, hv) <= 10.0 * g.h

    def test_idempotence_orthogonality_pythagoras(self, obstacle_grid):
        g = obstacle_grid
        rng = np.random.default_rng(5)
        for _ in range(10):
            u = rng.standard_normal((g.nx + 1, g.ny))
            v = rng.standard_normal((g.nx, g.ny + 1))
            (hu, hv), theta = sp.helmholtz_project(g, u, v)
            (hu2, hv2), _ = sp.helmholtz_project(g, hu, hv)
            norm = g.ops.face_l2norm(hu, hv)
            assert g.ops.face_l2norm(hu2 - hu, hv2 - hv) <= 1e-10 * max(norm, 1.0)
            gt = g.ops.grad(theta)
            um = np.where(g.uface_interior, u, 0.0)
            vm = np.where(g.vface_interior, v, 0.0)
            inp = g.ops.face_dot(um, vm, um, vm)
            assert abs(g.ops.face_dot(hu, hv, gt[0], gt[1])) <= 1e-8 * max(inp, 1.0)
            pyth = inp - g.ops.face_dot(hu, hv, hu, hv) - g.ops.face_dot(
                gt[0], gt[1], gt[0], gt[1]
            )
            assert abs(pyth) <= 1e-8 * max(inp, 1.0)

    def test_divergence_free_output(self, obstacle_grid):
        g = obstacle_grid
        rng = np.random.default_rng(6)
        u = rng.standard_normal((g.nx + 1, g.ny))
        v = rng.standard_normal((g.nx, g.ny + 1))
        (hu, hv), _ = sp.helmholtz_project(g, u, v)
        div = g.ops.div(hu, hv)
        assert np.abs(div[g.active]).max() <= 1e-8


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
            np.ones((grid.nx, grid.ny)),
            np.zeros((grid.nx + 1, grid.ny)),
            np.zeros((grid.nx, grid.ny + 1)),
            0.0,
            eps,
        )

    def _zero_ext(self, grid):
        return sp.ExtensionFieldSample(
            np.zeros((grid.nx + 1, grid.ny)), np.zeros((grid.nx, grid.ny + 1))
        )

    def test_rest_state_zero_forcing(self, obstacle_grid):
        g = obstacle_grid
        visc = ViscosityPair(0.01)
        asm = sp.assemble_forcing(
            self._rest_state(g), g, LAW, visc, static_path(1.0),
            self._zero_ext(g), self._zero_ext(g),
        )
        for term in asm.terms:
            assert np.abs(term.density).max() == 0.0, term.label

    def test_reference_density_kills_pressure_term(self, obstacle_grid):
        g = obstacle_grid
        visc = ViscosityPair(0.01)
        rng = np.random.default_rng(11)
        state = FluidState(
            np.ones((g.nx, g.ny)),
            0.1 * rng.standard_normal((g.nx + 1, g.ny)),
            0.1 * rng.standard_normal((g.nx, g.ny + 1)),
            0.0,
            0.1,
        )
        asm = sp.assemble_forcing(state, g, LAW, visc, static_path(1.0),
                                  self._zero_ext(g), self._zero_ext(g))
        by_label = {t.label: t for t in asm.terms}
        assert np.abs(by_label["pressure"].density).max() == 0.0
        assert np.abs(by_label["viscous"].density).max() > 0.0
        assert np.abs(by_label["convective_ess"].density).max() > 0.0

    def test_quadratic_law_pressure_density(self, obstacle_grid):
        # for p = rho^2 the wave source is exactly ((rho - 1)/eps)^2
        g = obstacle_grid
        eps = 0.05
        xc, _ = g.cell_centers()
        rho = np.where(g.active, 1.0 + eps * 0.3 * np.cos(xc), 1.0)
        state = FluidState(rho, np.zeros((g.nx + 1, g.ny)),
                           np.zeros((g.nx, g.ny + 1)), 0.0, eps)
        asm = sp.assemble_forcing(state, g, LAW, ViscosityPair(0.01),
                                  static_path(1.0), self._zero_ext(g),
                                  self._zero_ext(g))
        by_label = {t.label: t for t in asm.terms}
        expected = np.where(g.active, ((rho - 1.0) / eps) ** 2, 0.0)
        np.testing.assert_allclose(by_label["pressure"].density, expected,
                                   atol=1e-12)

    def test_zero_forcing_zero_channels(self, square_dec, obstacle_grid):
        g = obstacle_grid
        dec = sp.spectral_decompose(g, 20)
        asm = sp.assemble_forcing(
            self._rest_state(g), g, LAW, ViscosityPair(0.01), static_path(1.0),
            self._zero_ext(g), self._zero_ext(g),
        )
        np.testing.assert_allclose(sp.forcing_channel_norms(asm, dec), 0.0)

    def test_single_mode_synthetic_channel(self, square_dec):
        # a scalar term with coefficient c at mode k routed to one channel
        # has norm |c| * lambda_k^(-power) by direct mode arithmetic
        dec = square_dec
        k, c = 4, 0.83
        lam = dec.eigenvalues[k]
        h = dec.grid.h
        density = dec.reconstruct(np.eye(dec.modes)[k]) * (c / h)
        for channel, power in ((0, -1.0), (2, 0.0), (4, 1.0)):
            term = sp.ForcingTerm("synthetic", "scalar", density,
                                  channels=(channel,))
            asm = sp.ForcingAssembly((term,), 0.0, 0.1)
            norms = sp.forcing_channel_norms(asm, dec)
            expected = abs(c) * lam ** (-power)
            assert norms[channel] == pytest.approx(expected, rel=1e-10)
            assert np.abs(np.delete(norms, channel)).max() == 0.0


class TestRageDecay:
    def test_window_below_spectrum_annihilates(self, square_dec):
        lam1 = square_dec.eigenvalues[1]
        window = lambda x: np.where(np.asarray(x) < 0.5 * lam1, 1.0, 0.0)
        g = square_dec.grid
        x_field = square_dec.reconstruct(np.eye(square_dec.modes)[3])
        chi = np.ones((g.nx, g.ny))
        res = sp.rage_decay(square_dec, LAW, 0.1, x_field, chi, window, 0.3)
        assert res.value <= 1e-20

    def test_full_cutoff_single_mode_no_decay(self, square_dec):
        g = square_dec.grid
        k = 5
        x_field = square_dec.reconstruct(np.eye(square_dec.modes)[k])
        chi = np.where(g.active, 1.0, 0.0)
        gval = 0.6
        window = lambda x: np.full_like(np.asarray(x, dtype=float), gval)
        horizon = 0.21
        res = sp.rage_decay(square_dec, LAW, 0.1, x_field, chi, window, horizon)
        expected = horizon * gval**2 * g.l2norm(x_field) ** 2
        assert res.value == pytest.approx(expected, rel=1e-12)

    def test_quadrature_step_guard(self, square_dec):
        g = square_dec.grid
        x_field = square_dec.reconstruct(np.eye(square_dec.modes)[3])
        chi = np.ones((g.nx, g.ny))
        window = lambda x: np.ones_like(np.asarray(x, dtype=float))
        with pytest.raises(UnresolvedOscillation):
            sp.rage_decay(square_dec, LAW, 0.05, x_field, chi, window, 0.3,
                          dt=1.0)

    def test_trapezoid_matches_closed_form(self, square_dec):
        self._check_closed_form(square_dec)

    def test_trapezoid_matches_closed_form_over_row_blocks(self, obstacle_grid):
        # rage_decay multiplies the eigenvectors in blocks of 1,024 rows;
        # the obstacle grid's active cells span four of them
        self._check_closed_form(sp.spectral_decompose(obstacle_grid, 40))

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
        res = sp.rage_decay(dec, LAW, eps, x_field, chi, window, horizon,
                            quadrature_factor=0.05)

        gcoeff = window(dec.eigenvalues) * coeffs
        omega = np.sqrt(2.0 * dec.eigenvalues) / eps
        chi_vec = g.ops.pack(chi)
        m = (dec.eigenvectors * chi_vec[:, None] ** 2).T @ dec.eigenvectors
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
        state = FluidState(np.ones((g.nx, g.ny)), ext.u.copy(), ext.v.copy(),
                           0.3, 0.1)
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
        u[~g.uface_interior] = 0.0
        v[~g.vface_interior] = 0.0
        state = FluidState(np.ones((g.nx, g.ny)), u, v, 0.0, 0.1)
        ext = sp.ExtensionFieldSample(np.zeros_like(u), np.zeros_like(v))
        ac = sp.extract_acoustic_potential(state, g, static_path(1.0), LAW, ext)
        assert np.abs(ac.psi).max() <= 1e-10
        wu, wv = sp.shifted_momentum(state, g, static_path(1.0), LAW, ext)
        (hu, hv), _ = sp.helmholtz_project(g, wu, wv)
        np.testing.assert_allclose(hu, np.where(g.uface_interior, u, 0.0),
                                   atol=1e-10)

    def test_reconstruction_and_pythagoras(self, obstacle_grid):
        g = obstacle_grid
        rng = np.random.default_rng(13)
        xc, _ = g.cell_centers()
        rho = np.where(g.active, 1.0 + 0.05 * np.cos(2 * xc), 1.0)
        state = FluidState(
            rho,
            0.1 * rng.standard_normal((g.nx + 1, g.ny)),
            0.1 * rng.standard_normal((g.nx, g.ny + 1)),
            0.2,
            0.1,
        )
        path = linear_path((0.3, 0.0), 1.0)
        ext = ExtensionField(g, path, 0.45).sample(0.2)
        ac = sp.extract_acoustic_potential(state, g, path, LAW, ext)
        assert abs(float(ac.psi[g.active].mean())) <= 1e-12
        wu, wv = sp.shifted_momentum(state, g, path, LAW, ext)
        (hu, hv), psi2 = sp.helmholtz_project(g, wu, wv)
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
