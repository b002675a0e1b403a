"""Neumann Laplacian spectral calculus, acoustic propagator, and decay probes.

Everything here runs on the retained eigenspan of the discrete Neumann
Laplacian: fractional operator powers, the Helmholtz projection, the
two-component acoustic wave propagator with its Duhamel quadrature, the
forcing-channel bookkeeping of the wave source, and the time-averaged
local-decay functional measuring acoustic dispersion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .constitutive import (
    PressureLaw,
    ViscosityPair,
    pressure_entropy,
    pressure_slope,
    stress,
)
from .errors import (
    EigensolverFailure,
    KernelSingularity,
    UnresolvedOscillation,
)
from .geometry import ExtensionFieldSample, Grid, MotionPath, eval_motion
from .operators import center_to_xface, center_to_yface, face_to_center

DESK_CELL_CAP = 128 * 128
DESK_MODE_CAP = 2000
DENSE_FALLBACK = 3000


@dataclass(frozen=True)
class SpectralDecomposition:
    """Retained eigenpairs of the Neumann Laplacian, ascending, l2-orthonormal.

    The kernel pair is pinned exactly: lambda_1 = 0 with the constant
    eigenvector on the connected fluid region.
    """

    grid: Grid
    eigenvalues: np.ndarray  # (K,)
    eigenvectors: np.ndarray  # (n_active, K), columns l2-orthonormal
    residuals: np.ndarray  # (K,)

    @property
    def modes(self) -> int:
        return len(self.eigenvalues)

    def coefficients(self, cell_field) -> np.ndarray:
        """l2 coefficients of a cell field on the retained span."""
        return self.eigenvectors.T @ self.grid.ops.pack(cell_field)

    def reconstruct(self, coeffs) -> np.ndarray:
        return self.grid.ops.unpack(self.eigenvectors @ np.asarray(coeffs))

    def truncation_remainder(self, cell_field) -> float:
        """Grid L2 norm of the component outside the retained span."""
        vec = self.grid.ops.pack(cell_field)
        tail = vec - self.eigenvectors @ (self.eigenvectors.T @ vec)
        return self.grid.h * float(np.linalg.norm(tail))


def spectral_decompose(grid: Grid, modes: int) -> SpectralDecomposition:
    """Lowest `modes` eigenpairs of the grid's Neumann Laplacian G^T G.

    Uses shift-inverted ARPACK with a fixed start vector (deterministic),
    falling back to a dense solve on small grids. Grids beyond the desk
    cap are rejected: the eigensolve is the budget-limiting step.
    """
    n = grid.n_active
    k = int(modes)
    if k < 1 or k > n:
        raise ValueError(f"modes must lie in [1, {n}]")
    if n > DESK_CELL_CAP:
        raise ValueError(f"grid has {n} cells, beyond the desk-scale cap {DESK_CELL_CAP}")
    if k > DESK_MODE_CAP:
        raise ValueError(f"modes {k} beyond the desk-scale cap {DESK_MODE_CAP}")

    a = grid.ops.laplacian_matrix
    if n <= DENSE_FALLBACK or k > n - 2:
        w, v = np.linalg.eigh(a.toarray())
        w, v = w[:k], v[:, :k]
    else:
        sigma = -1e-3 * (4.0 / grid.h**2)
        shifted = (a - sigma * sp.identity(n, format="csr")).tocsc()
        lu = spla.splu(shifted)
        opinv = spla.LinearOperator((n, n), matvec=lu.solve, dtype=float)
        v0 = np.cos(np.linspace(0.0, 13.0, n)) + 0.5
        try:
            w, v = spla.eigsh(a, k=k, sigma=sigma, which="LM", OPinv=opinv, v0=v0)
        except spla.ArpackNoConvergence as exc:  # pragma: no cover
            raise EigensolverFailure(str(exc)) from exc
        order = np.argsort(w)
        w, v = w[order], v[:, order]

    # pin the kernel pair exactly and re-orthogonalize against it
    w[0] = 0.0
    v[:, 0] = 1.0 / math.sqrt(n)
    for j in range(1, k):
        v[:, j] -= v[:, 0] * (v[:, 0] @ v[:, j])
        v[:, j] /= np.linalg.norm(v[:, j])
    w = np.maximum(w, 0.0)

    resid = np.linalg.norm(a @ v - v * w[None, :], axis=0)
    dec = SpectralDecomposition(grid, w, v, resid)
    bad = resid > 1e-8 * np.maximum(1.0, np.linalg.norm(v, axis=0))
    if np.any(bad):
        raise EigensolverFailure(
            f"{int(bad.sum())} eigenpairs exceed the 1e-8 residual bound"
        )
    return dec


def fractional_power_apply(dec: SpectralDecomposition, s: float, cell_field):
    """Apply (-lap)^s on the retained span; returns (field, remainder).

    Convention on the kernel: s = 0 acts as the identity on the retained
    span, s > 0 annihilates the constant component (matching the direct
    operator), and s < 0 requires the field to be orthogonal to constants.
    """
    c = dec.coefficients(cell_field)
    lam = dec.eigenvalues
    norm = np.linalg.norm(c)
    if s < 0.0:
        if abs(c[0]) > 1e-10 * max(norm, 1e-300):
            raise KernelSingularity(
                "negative power applied to a field with nonzero mean component"
            )
        scale = np.zeros_like(lam)
        scale[1:] = lam[1:] ** s
    elif s == 0.0:
        scale = np.ones_like(lam)
    else:
        scale = lam**s
    remainder = dec.truncation_remainder(cell_field)
    return dec.reconstruct(c * scale), remainder


def helmholtz_project(grid: Grid, u, v):
    """Helmholtz split of a face field: (solenoidal (u, v), potential).

    The solenoidal part is exactly divergence-free, tangent at boundaries,
    and l2-orthogonal to all discrete gradients; potential is mean-zero.
    """
    hu, hv, theta = grid.ops.helmholtz(u, v)
    return (hu, hv), theta


# -- acoustic states and the wave propagator --------------------------------


@dataclass(frozen=True)
class AcousticState:
    """Rescaled density fluctuation and mean-zero acoustic potential."""

    r: np.ndarray  # cell scalars
    psi: np.ndarray  # cell scalars, zero mean on active cells
    eps: float
    t: float


def acoustic_energy(dec: SpectralDecomposition, law: PressureLaw, state: AcousticState):
    """p'(rho_ref) ||r||^2 + ||(-lap)^(1/2) psi||^2 on the retained span."""
    pp = float(pressure_slope(law, law.rho_ref))
    rc = dec.coefficients(state.r)
    pc = dec.coefficients(state.psi)
    h2 = dec.grid.h**2
    return h2 * float(pp * np.sum(rc**2) + np.sum(dec.eigenvalues * pc**2))


def _mode_rotation(lam, pp, eps, t):
    """Per-mode rotation coefficients for the homogeneous wave system.

    d/dt (r, psi) = (lam * psi / eps, -pp * r / eps); the kernel mode keeps
    r constant and leaves psi in the zero-mean gauge.
    """
    lam = np.asarray(lam)
    omega = np.sqrt(pp * lam) / eps
    cos = np.cos(omega * t)
    sin = np.sin(omega * t)
    with np.errstate(divide="ignore", invalid="ignore"):
        r_from_psi = np.where(lam > 0.0, np.sqrt(lam / pp) * sin, 0.0)
        psi_from_r = np.where(lam > 0.0, -np.sqrt(pp / lam) * sin, 0.0)
    return cos, r_from_psi, psi_from_r


def _gauge(dec: SpectralDecomposition, coeffs):
    out = np.array(coeffs, dtype=float)
    out[0] = 0.0
    return out


def wave_propagate(
    dec: SpectralDecomposition,
    law: PressureLaw,
    eps: float,
    state0: AcousticState,
    t: float,
) -> AcousticState:
    """Evolve the homogeneous acoustic system for time t (exact per mode).

    Each retained mode rotates with angular frequency
    sqrt(p'(rho_ref) * lambda_k) / eps; the acoustic energy is conserved to
    rounding because the rotation is evaluated at absolute time.
    """
    pp = float(pressure_slope(law, law.rho_ref))
    rc = dec.coefficients(state0.r)
    pc = _gauge(dec, dec.coefficients(state0.psi))
    cos, r_from_psi, psi_from_r = _mode_rotation(dec.eigenvalues, pp, eps, t)
    rn = cos * rc + r_from_psi * pc
    pn = cos * pc + psi_from_r * rc
    pn[0] = 0.0
    return AcousticState(dec.reconstruct(rn), dec.reconstruct(pn), eps, state0.t + t)


def duhamel_solve(
    dec: SpectralDecomposition,
    law: PressureLaw,
    eps: float,
    state0: AcousticState,
    forcing: Callable[[float], np.ndarray],
    horizon: float,
    dt: float,
    sample_times: Sequence[float] | None = None,
):
    """Variation-of-constants integration of the forced acoustic system.

    forcing(t) returns the mode coefficients of the potential-equation
    source on the retained span. The update applies the exact rotation over
    each step and a midpoint quadrature of the source, giving an O(dt^2)
    quadrature error. Returns the trajectory at sample_times (default: the
    quadrature grid endpoints t = 0 and t = horizon).
    """
    pp = float(pressure_slope(law, law.rho_ref))
    lam = dec.eigenvalues
    if sample_times is None:
        sample_times = [0.0, float(horizon)]
    sample_times = sorted(float(s) for s in sample_times)
    if sample_times[0] < 0.0 or sample_times[-1] > horizon + 1e-12:
        raise ValueError("sample times must lie within [0, horizon]")

    rc = dec.coefficients(state0.r)
    pc = _gauge(dec, dec.coefficients(state0.psi))
    out = []
    t = 0.0
    for target in sample_times:
        while t < target - 1e-13:
            step = min(dt, target - t)
            cos, rfp, pfr = _mode_rotation(lam, pp, eps, step)
            hmid = np.asarray(forcing(t + 0.5 * step), dtype=float)
            chalf = _mode_rotation(lam, pp, eps, 0.5 * step)
            # rotate the state by a full step, the midpoint source by a half
            rn = cos * rc + rfp * pc + step * chalf[1] * hmid
            pn = cos * pc + pfr * rc + step * chalf[0] * hmid
            rc, pc = rn, pn
            pc[0] = 0.0
            t += step
        out.append(
            AcousticState(dec.reconstruct(rc), dec.reconstruct(pc), eps, state0.t + t)
        )
    return out


# -- wave-source assembly and forcing channels -------------------------------

CHANNEL_POWERS = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])

# channel sets per source term, mirroring how the interpolation estimates
# route each term: powers are indices into CHANNEL_POWERS (0-based)
TERM_CHANNELS = {
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


@dataclass(frozen=True)
class ForcingTerm:
    """One named source term reduced to a scalar functional density.

    kind 'tensor' terms pair with the Hessian of the inverse Laplacian
    (weight 1/lambda after two integrations by parts), 'vector' terms with
    its gradient (weight 1/lambda after one), and 'scalar' terms pair with
    the test function directly. channels overrides the routing table.
    """

    label: str
    kind: str  # tensor | vector | scalar
    density: np.ndarray  # cell scalars: divdiv(A), div(B), or F3
    channels: tuple | None = None


@dataclass(frozen=True)
class ForcingAssembly:
    terms: tuple
    t: float
    eps: float


def velocity_gradient(grid: Grid, u, v):
    """Cell-centered velocity gradient tensor from face components."""
    g = grid
    h = g.h
    gu = np.zeros((g.nx, g.ny, 2, 2))
    um = np.where(g.uface_interior | g.uface_boundary, u, 0.0)
    vm = np.where(g.vface_interior | g.vface_boundary, v, 0.0)
    gu[:, :, 0, 0] = (um[1:, :] - um[:-1, :]) / h
    gu[:, :, 1, 1] = (vm[:, 1:] - vm[:, :-1]) / h
    uc, vc = face_to_center(um, vm)
    # tangential derivatives by central differences with mirrored edges
    gu[1:-1, :, 1, 0] = (vc[2:, :] - vc[:-2, :]) / (2 * h)
    gu[:, 1:-1, 0, 1] = (uc[:, 2:] - uc[:, :-2]) / (2 * h)
    inact = ~g.active
    gu[inact] = 0.0
    return gu


def tensor_divdiv(grid: Grid, tensor):
    """div div of a cell tensor field, with masked one-sided closures."""
    g = grid
    h = g.h
    act = g.active.astype(float)

    def ddx(f):
        face = np.zeros((g.nx + 1, g.ny))
        face[1:-1, :] = (f[1:, :] - f[:-1, :]) / h
        face[~g.uface_interior] = 0.0
        return (face[1:, :] - face[:-1, :]) / h

    def ddy(f):
        face = np.zeros((g.nx, g.ny + 1))
        face[:, 1:-1] = (f[:, 1:] - f[:, :-1]) / h
        face[~g.vface_interior] = 0.0
        return (face[:, 1:] - face[:, :-1]) / h

    def dxy(f):
        # corner-averaged cross difference restricted to active data
        fm = f * act
        w = act.copy()
        corner = np.zeros((g.nx + 1, g.ny + 1))
        den = np.zeros((g.nx + 1, g.ny + 1))
        corner[1:-1, 1:-1] = fm[1:, 1:] + fm[:-1, 1:] + fm[1:, :-1] + fm[:-1, :-1]
        den[1:-1, 1:-1] = w[1:, 1:] + w[:-1, 1:] + w[1:, :-1] + w[:-1, :-1]
        corner = np.where(den > 0, corner / np.maximum(den, 1.0), 0.0)
        return (
            corner[1:, 1:] - corner[:-1, 1:] - corner[1:, :-1] + corner[:-1, :-1]
        ) / h**2

    out = (
        ddx(tensor[:, :, 0, 0])
        + ddy(tensor[:, :, 1, 1])
        + dxy(tensor[:, :, 0, 1])
        + dxy(tensor[:, :, 1, 0])
    )
    out[~g.active] = 0.0
    return out


def lifting_time_derivative(grad_v, ext_dt, m_prime):
    """Moving-frame d/dt of the lifting field, at cell centers.

    The lifting lives on the fixed frame, so the physical time derivative
    picks up the advective correction: dV/dt|_x = dV~/dt|_y - (m'.grad) V~,
    with grad_v the lifting's velocity gradient.
    """
    dv = np.stack(face_to_center(ext_dt.u, ext_dt.v), axis=-1)
    return dv - np.einsum("xyij,j->xyi", grad_v, np.asarray(m_prime, dtype=float))


def assemble_forcing(
    state,
    grid: Grid,
    law: PressureLaw,
    visc: ViscosityPair,
    path: MotionPath,
    ext: ExtensionFieldSample,
    ext_dt: ExtensionFieldSample,
) -> ForcingAssembly:
    """Build the named wave-source terms from a fluid snapshot.

    Terms carry their functional density (scalar cell field) and are split
    into essential and residual parts wherever the routing distinguishes
    them. ext / ext_dt are the lifting field and its fixed-frame partial
    time derivative at state.t (the advective correction is applied here).
    """
    g = grid
    eps = state.eps
    _, mp, mpp = eval_motion(path, state.t)
    rho = state.rho
    rbar = law.rho_ref

    ess_mask = ((0.5 * rbar < rho) & (rho < 2.0 * rbar) & g.active).astype(float)
    res_mask = g.active.astype(float) - ess_mask

    vel = np.stack(
        face_to_center(
            np.where(g.uface_interior | g.uface_boundary, state.u, 0.0),
            np.where(g.vface_interior | g.vface_boundary, state.v, 0.0),
        ),
        axis=-1,
    )

    grad_u = velocity_gradient(g, state.u, state.v)
    s_tensor = stress(visc, grad_u)
    uu = vel[..., :, None] * vel[..., None, :]

    vext = np.stack(face_to_center(ext.u, ext.v), axis=-1)
    mom = rho[..., None] * vel - rbar * vext  # momentum relative to lifting
    r_cells = (rho - rbar) / eps
    wmom = mom - eps * r_cells[..., None] * mp[None, None, :]

    terms = []

    def add_tensor(label, tensor):
        terms.append(ForcingTerm(label, "tensor", tensor_divdiv(g, tensor)))

    def add_vector(label, vecfield):
        fu = center_to_xface(vecfield[..., 0])
        fv = center_to_yface(vecfield[..., 1])
        terms.append(ForcingTerm(label, "vector", g.ops.div(fu, fv)))

    add_tensor("viscous", s_tensor)
    add_tensor("convective_ess", -(ess_mask * rho)[..., None, None] * uu)
    add_tensor("convective_res", -(res_mask * rho)[..., None, None] * uu)
    terms.append(
        ForcingTerm("pressure", "scalar", pressure_entropy(law, rho) / eps**2)
    )

    grad_v = velocity_gradient(g, ext.u, ext.v)
    dv_moving = lifting_time_derivative(grad_v, ext_dt, mp)
    add_vector("extension_accel", -rbar * dv_moving)

    outer_m = mom[..., :, None] * mp[None, None, None, :]
    add_tensor("momentum_translation_ess", ess_mask[..., None, None] * outer_m)
    add_tensor("momentum_translation_res", res_mask[..., None, None] * outer_m)

    outer_w = eps * mp[None, None, :, None] * wmom[..., None, :]
    add_tensor("wave_translation_ess", ess_mask[..., None, None] * outer_w)
    add_tensor("wave_translation_res", res_mask[..., None, None] * outer_w)

    accel = -eps * r_cells[..., None] * mpp[None, None, :]
    add_vector("acceleration_coupling_ess", ess_mask[..., None] * accel)
    add_vector("acceleration_coupling_res", res_mask[..., None] * accel)

    return ForcingAssembly(tuple(terms), state.t, eps)


def forcing_channel_norms(assembly: ForcingAssembly, dec: SpectralDecomposition):
    """Instantaneous L2 norms of the five channel representatives.

    Each term's functional coefficients (its density projected on the
    retained span, weighted 1/lambda for tensor and vector kinds) are
    allocated across the term's channel set by the per-mode minimum-norm
    split; the constant mode is excluded, consistent with the zero-mean
    gauge. Returns an array of 5 nonnegative numbers.
    """
    lam = dec.eigenvalues
    h = dec.grid.h
    channel_sq = np.zeros(len(CHANNEL_POWERS))
    active = lam > 0.0
    inv_lam = np.where(active, 1.0 / np.where(active, lam, 1.0), 0.0)
    for term in assembly.terms:
        # L2-orthonormal-basis coefficients of the term's functional
        coeffs = dec.coefficients(term.density) * h
        if term.kind in ("tensor", "vector"):
            coeffs = coeffs * inv_lam
        coeffs[~active] = 0.0
        idxs = term.channels if term.channels is not None else TERM_CHANNELS[term.label]
        powers = CHANNEL_POWERS[list(idxs)]
        lam_safe = np.where(active, lam, 1.0)
        lam_p = np.where(active[None, :], lam_safe[None, :] ** powers[:, None], 0.0)
        denom = np.sum(lam_p**2, axis=0)
        denom = np.where(denom > 0.0, denom, 1.0)
        alloc = coeffs[None, :] * lam_p / denom
        for row, i in enumerate(idxs):
            channel_sq[i] += float(np.sum(alloc[row] ** 2))
    return np.sqrt(channel_sq)


def extract_acoustic_potential(
    state,
    grid: Grid,
    path: MotionPath,
    law: PressureLaw,
    ext: ExtensionFieldSample,
) -> AcousticState:
    """Acoustic pair (r, psi) of a fluid snapshot.

    r = (rho - rho_ref)/eps; psi is the mean-zero potential of the gradient
    part of the shifted momentum rho*u - rho_ref*V - eps*m'*r, which is
    tangent at boundaries by construction.
    """
    wu, wv = shifted_momentum(state, grid, path, law, ext)
    _, psi = helmholtz_project(grid, wu, wv)
    r_field = np.where(grid.active, (state.rho - law.rho_ref) / state.eps, 0.0)
    return AcousticState(r_field, psi, state.eps, state.t)


def shifted_momentum(state, grid: Grid, path: MotionPath, law: PressureLaw, ext):
    """Face components of the shifted momentum rho*u - rho_ref*V - eps*m'*r,
    zero off the interior faces."""
    eps = state.eps
    rbar = law.rho_ref
    _, mp, _ = eval_motion(path, state.t)
    r_cells = (state.rho - rbar) / eps
    wu = center_to_xface(state.rho) * state.u - rbar * ext.u - eps * mp[0] * center_to_xface(r_cells)
    wv = center_to_yface(state.rho) * state.v - rbar * ext.v - eps * mp[1] * center_to_yface(r_cells)
    wu[~grid.uface_interior] = 0.0
    wv[~grid.vface_interior] = 0.0
    return wu, wv


# -- spectral window, spatial cutoff, and the decay functional ---------------


def _smoothstep(x):
    s = np.clip(x, 0.0, 1.0)
    return s**3 * (10.0 - 15.0 * s + 6.0 * s * s)


def make_spectral_window(dec: SpectralDecomposition) -> Callable:
    """C2 bump G with 0 <= G <= 1 on the retained spectrum.

    G rises over [lambda_2, lambda_5] and falls over
    [lambda_{K/2}, min(lambda_K, 1.5 lambda_{K/2})]; its support avoids the
    kernel and the top of the retained span.
    """
    lam = dec.eigenvalues
    k = dec.modes
    lo_start = lam[1]
    lo_end = lam[min(4, k - 1)]
    hi_start = lam[k // 2]
    hi_end = min(lam[-1], 1.5 * lam[k // 2])
    if not (0.0 < lo_start < lo_end <= hi_start < hi_end):
        raise ValueError("window breakpoints must be increasing and positive")

    def window(x):
        x = np.asarray(x, dtype=float)
        rise = _smoothstep((x - lo_start) / (lo_end - lo_start))
        fall = 1.0 - _smoothstep((x - hi_start) / (hi_end - hi_start))
        return rise * fall

    return window


def make_spatial_cutoff(grid: Grid, r_one: float, r_zero: float) -> np.ndarray:
    """Radial C2 cutoff equal to 1 for |y| <= r_one, 0 for |y| >= r_zero."""
    if not 0.0 < r_one < r_zero:
        raise ValueError("need 0 < r_one < r_zero")
    xc, yc = grid.cell_centers()
    r = np.sqrt(xc**2 + yc**2)
    chi = 1.0 - _smoothstep((r - r_one) / (r_zero - r_one))
    chi[~grid.active] = 0.0
    return chi


@dataclass(frozen=True)
class RageResult:
    value: float
    horizon: float
    modes: int
    truncation_remainder: float
    quadrature_dt: float


def rage_decay(
    dec: SpectralDecomposition,
    law: PressureLaw,
    eps: float,
    x_field: np.ndarray,
    chi: np.ndarray,
    window: Callable,
    horizon: float,
    dt: float | None = None,
    quadrature_factor: float = 0.2,
) -> RageResult:
    """Time-averaged local acoustic energy D(eps) of the filtered propagator.

    D = integral_0^T || chi * G(-lap) e_+(t)[X] ||_L2^2 dt, by composite
    trapezoid with a step resolving the fastest retained oscillation
    (dt <= factor * eps / sqrt(p' * lambda_max)). Strictly decreasing in
    eps on exterior-domain scenarios capped below the reflection-return
    time: that is the dispersion mechanism this functional measures.
    """
    pp = float(pressure_slope(law, law.rho_ref))
    lam = dec.eigenvalues
    lam_max = float(lam[-1])
    bound = 0.5 * eps / math.sqrt(max(pp * lam_max, 1e-300))
    if dt is None:
        dt = quadrature_factor * eps / math.sqrt(max(pp * lam_max, 1e-300))
    if dt > bound + 1e-15:
        raise UnresolvedOscillation(
            f"quadrature step {dt:.3e} exceeds the oscillation bound {bound:.3e}"
        )
    nsteps = max(2, int(math.ceil(horizon / dt)))
    times = np.linspace(0.0, horizon, nsteps + 1)

    coeffs = dec.coefficients(x_field) * window(lam)
    omega = np.sqrt(pp * lam) / eps
    chi_vec = dec.grid.ops.pack(chi)
    ev = dec.eigenvectors
    h2 = dec.grid.h**2

    # ev @ phase copies ev to complex; row blocks keep that copy near 1 MB
    # instead of a full-size one per node
    blocks = [slice(i, i + 1024) for i in range(0, ev.shape[0], 1024)]
    vals = np.empty(len(times))
    for i, t in enumerate(times):
        phase = np.exp(1j * omega * t) * coeffs
        field = np.concatenate([ev[b] @ phase for b in blocks])
        vals[i] = h2 * float(np.sum((chi_vec * np.abs(field)) ** 2))
    value = float(np.trapezoid(vals, times))
    return RageResult(
        value, horizon, dec.modes, dec.truncation_remainder(x_field), float(dt)
    )
