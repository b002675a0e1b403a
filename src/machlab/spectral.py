"""Neumann Laplacian spectral calculus, acoustic propagator, and decay probes.

Everything here runs on the retained eigenspan of the discrete Neumann
Laplacian. The eigensolve splits the Laplacian into the sectors of the
mask's reflection symmetries (the mirrors and, on a mask equal to its
transpose, the diagonal), copies a transposed twin sector's pairs instead
of solving it, and factors each shift-invert block with
operators.spd_factor; the modes stay in sector coordinates, read through
project, lift and vectors. On the span live the two-component acoustic wave
propagator with its Duhamel quadrature, the forcing-channel bookkeeping
of the wave source, and the time-averaged local-decay functional
measuring acoustic dispersion, whose trapezoid step is QUADRATURE_FACTOR
times the period scale of the fastest retained mode and which is summed
in closed form: a Gram matrix of the filtered eigenvectors, built once
per probe, against the rule's exact kernel. One table, FORCING_TERMS,
names the wave source's terms with their inverse-Laplacian pairing and
channels; their densities are projected on the span in one product. The
wave source takes the lifting's moving-frame derivative from the lifting
field, on its support box. The Helmholtz projection
(DiscreteOperators.helmholtz), the staggered stencils and the C2 step of
the spectral window and the spatial cutoff come from operators.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .constitutive import (
    PressureLaw,
    ViscosityPair,
    essential_indicator,
    pressure_entropy,
    pressure_slope,
    stress,
)
from .errors import ConfigValidationError, EigensolverFailure
from .geometry import ExtensionField, ExtensionFieldSample, Grid, MotionPath, eval_motion
from .operators import (
    average_to_face, gradient_to_face, known_faces, known_gradient, smoothstep, spd_factor,
)

DESK_CELL_CAP = 128 * 128
DESK_MODE_CAP = 2000


@dataclass(frozen=True)
class SpectralDecomposition:
    """Retained eigenpairs of the Neumann Laplacian, ascending, l2-orthonormal.

    A sector with retained modes is one entry (B_s, Y_s, modes): sparse
    orthonormal basis (one entry per row), eigenvectors in sector
    coordinates (the first len(modes) columns; a twin has its own permuted
    basis and its source's Y_s), mode indices; V[:, modes] = B_s Y_s. The
    first entry pins the kernel pair exactly: lambda_1 = 0, B = constant.
    """

    grid: Grid
    eigenvalues: np.ndarray  # (K,)
    sectors: tuple  # ((B_s, Y_s, modes_s), ...), the kernel entry first
    residuals: np.ndarray  # (K,)

    @property
    def modes(self) -> int:
        return len(self.eigenvalues)

    def project(self, x) -> np.ndarray:
        """V^T x for packed cell vectors x of shape (n_active,) or (n_active, m)."""
        x = np.asarray(x)
        out = np.empty((self.modes,) + x.shape[1:])
        for b, y, modes in self.sectors:
            out[modes] = y[:, :len(modes)].T @ (b.T @ x)
        return out

    def lift(self, coeffs) -> np.ndarray:
        """V C for C of shape (K,) or (K, m)."""
        c = np.asarray(coeffs)
        out = 0.0
        for b, y, modes in self.sectors:
            out += b @ (y[:, :len(modes)] @ c[modes])
        return out

    def vectors(self, rows, cols) -> np.ndarray:
        """V[rows][:, cols], gathered per sector, for ascending mode indices cols."""
        out = np.empty((len(rows), len(cols)))
        for b, y, modes in self.sectors:
            hit = np.isin(modes, cols)
            if np.any(hit):
                out[:, np.searchsorted(cols, modes[hit])] = (b[rows] @ y[:, :len(modes)])[:, hit]
        return out

    def coefficients(self, cell_field) -> np.ndarray:
        """l2 coefficients of a cell field on the retained span."""
        return self.project(self.grid.ops.pack(cell_field))

    def reconstruct(self, coeffs) -> np.ndarray:
        return self.grid.ops.unpack(self.lift(coeffs))

    def truncation_remainder(self, cell_field) -> float:
        """Grid L2 norm of the component outside the retained span."""
        vec = self.grid.ops.pack(cell_field)
        tail = vec - self.lift(self.project(vec))
        return self.grid.h * float(np.linalg.norm(tail))


def _normalized(b):
    """b's nonzero columns, scaled to unit norm; None when all vanish."""
    norm = np.sqrt(np.asarray(b.multiply(b).sum(axis=0)).ravel())
    keep = norm > 0.0
    return b[:, keep] @ sp.diags(1.0 / norm[keep]) if np.any(keep) else None


def _mirror_sectors(grid: Grid) -> list:
    """(parity, basis) of the grid's mirror-parity sectors, all-even first.

    The Neumann Laplacian depends on the active mask only, so it commutes
    with every index reflection (i -> nx-1-i, j -> ny-1-j) the mask admits.
    Each sector is one choice of parity per admitted reflection; its basis
    has one column per orbit of active cells on which that parity does not
    cancel. Every cell lies in one orbit, so each basis row holds at most
    one entry. A mask without mirror symmetry is one sector, B = I.
    """
    act = grid.active
    n = grid.n_active
    flips = [ax for ax in (0, 1) if np.array_equal(act, np.flip(act, axis=ax))]
    idx = grid.ops.active_index
    # one representative per orbit: the cell in the lower half of each axis
    rep = act.copy()
    for ax in flips:
        low = np.arange(act.shape[ax]) <= (act.shape[ax] - 1) // 2
        rep &= low[:, None] if ax == 0 else low[None, :]
    ri, rj = np.nonzero(rep)
    images = []  # (which admitted flips apply, active indices of the images)
    for flipped in itertools.product((False, True), repeat=len(flips)):
        ij = [ri, rj]
        for ax, f in zip(flips, flipped):
            if f:
                ij[ax] = act.shape[ax] - 1 - ij[ax]
        images.append((flipped, idx[ij[0], ij[1]]))
    cols = np.tile(np.arange(len(ri)), len(images))
    rows = np.concatenate([cells for _, cells in images])
    sectors = []
    for parity in itertools.product((1.0, -1.0), repeat=len(flips)):
        vals = np.concatenate([
            np.full(len(ri), math.prod(p for p, f in zip(parity, flipped) if f))
            for flipped, _ in images
        ])
        b = _normalized(sp.csc_matrix((vals, (rows, cols)), shape=(n, len(ri))))
        if b is not None:
            sectors.append((parity, b))
    return sectors


def _diagonal_split(b, tp) -> list:
    """The diagonal-even and diagonal-odd parts of a sector that the
    transpose i <-> j maps onto itself, column c onto column partner[c]:
    normalized orbit sums e_c + e_p and e_c - e_p of its columns (a column
    on the diagonal is its own partner and is diagonal-even). Each row
    still holds at most one entry."""
    b = b.tocsc()
    m = b.shape[1]
    col_of_cell = np.full(b.shape[0], -1)
    col_of_cell[b.indices] = np.repeat(np.arange(m), np.diff(b.indptr))
    partner = col_of_cell[tp[b.indices[b.indptr[:-1]]]]
    reps = np.flatnonzero(np.arange(m) <= partner)
    rows = np.concatenate([reps, partner[reps]])
    cols = np.tile(np.arange(len(reps)), 2)
    halves = []
    for sign in (1.0, -1.0):
        vals = np.repeat([1.0, sign], len(reps))
        half = _normalized(b @ sp.csc_matrix((vals, (rows, cols)), shape=(m, len(reps))))
        if half is not None:
            halves.append(half)
    return halves


def _sector_bases(grid: Grid) -> list:
    """Orthonormal bases of the grid's reflection sectors, all-even first,
    each with the index of the earlier sector whose eigenpairs it shares,
    or None when it is solved itself.

    Without transpose symmetry these are the mirror-parity sectors. When
    the active mask equals its transpose (a centred disk in a square box),
    the sectors the transpose i <-> j maps onto themselves (equal parity
    under both mirrors) split again by diagonal parity, and the x-odd,
    y-even sector is the transpose of the x-even, y-odd one: its basis is
    that sector's basis with the rows permuted to the transposed cells, so
    the two blocks are equal and the twin takes its source's eigenpairs.
    """
    act = grid.active
    sectors = _mirror_sectors(grid)
    if act.shape[0] != act.shape[1] or not np.array_equal(act, act.T):
        return [(b, None) for _, b in sectors]
    tp = grid.ops.active_index.T[act]  # active index of each cell's transpose
    out = []
    for parity, b in sectors:
        if len(set(parity)) < 2:
            out.extend((half, None) for half in _diagonal_split(b, tp))
        elif parity[0] > 0.0:
            out.append((b, None))
            out.append((b[tp], len(out) - 1))
    return out


def _sector_eigenpairs(block, k: int, sigma: float):
    """Lowest k eigenpairs of one sector block, ascending, the vectors
    normalized in sector coordinates.

    Shift-inverted ARPACK with a fixed start vector (deterministic) on a
    symmetric-mode factor of block - sigma I, which is SPD for sigma < 0;
    the dense solve only where ARPACK cannot run (k > n_s - 2).
    """
    n_s = block.shape[0]
    if k > n_s - 2:
        w, v = np.linalg.eigh(block.toarray())
        w, v = w[:k], v[:, :k]
    else:
        lu = spd_factor(block - sigma * sp.identity(n_s, format="csr"))
        opinv = spla.LinearOperator((n_s, n_s), matvec=lu.solve, dtype=float)
        v0 = np.cos(np.linspace(0.0, 13.0, n_s)) + 0.5
        try:
            w, v = spla.eigsh(block, k=k, sigma=sigma, which="LM", OPinv=opinv, v0=v0)
        except spla.ArpackNoConvergence as exc:  # pragma: no cover
            raise EigensolverFailure(str(exc)) from exc
        order = np.argsort(w)
        w, v = w[order], v[:, order]
    return w, v / np.linalg.norm(v, axis=0)


def spectral_decompose(grid: Grid, modes: int) -> SpectralDecomposition:
    """Lowest `modes` eigenpairs of the grid's Neumann Laplacian G^T G.

    The operator splits into the reflection sectors the active mask admits
    (_sector_bases): six on a centred disk in a square box, five of them
    solved; four mirror sectors without transpose symmetry; one sector
    without any symmetry.
    Each solved sector block B_s^T A B_s is solved with shift-inverted
    ARPACK for ceil(K n_s / n) + 8 pairs, doubled while the sector's
    largest computed eigenvalue does not exceed the merged K-th one and
    the sector has more; a transposed twin copies its source's pairs. The
    K lowest pairs are merged by a stable sort (equal values keep sector
    order); each sector keeps its selected vectors in its own coordinates.
    A twin pair's eigenvalues are bit-equal, so a cutoff K that splits one
    keeps the x-even member; a cutoff K inside any other degenerate cluster
    keeps a deterministic, but arbitrary, part of it. Grids beyond the desk
    cap are rejected.
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
    sigma = -1e-3 * (4.0 / grid.h**2)
    sectors = _sector_bases(grid)
    blocks = [None if src is not None else (b.T @ (a @ b)).tocsr() for b, src in sectors]
    sizes = [b.shape[1] for b, _ in sectors]
    counts = [min(m, math.ceil(k * m / n) + 8) for m in sizes]
    solved = [None] * len(sectors)
    while True:
        for s, (_, src) in enumerate(sectors):
            if solved[s] is None:
                solved[s] = (solved[src] if src is not None
                             else _sector_eigenpairs(blocks[s], counts[s], sigma))
        lam = np.concatenate([ws for ws, _ in solved])
        order = np.argsort(lam, kind="stable")[:k]
        kth = lam[order[-1]]
        redo = [s for s, (ws, _) in enumerate(solved) if len(ws) < sizes[s] and ws[-1] <= kth]
        if not redo:
            break
        for s in redo:  # a twin is redone with its source
            counts[s] = min(sizes[s], 2 * counts[s])
            solved[s] = None

    # keep each sector's selected pairs, a prefix of its ascending pairs, in
    # sector coordinates; a twin shares its source's vectors
    sector = np.repeat(np.arange(len(solved)), [len(ws) for ws, _ in solved])[order]
    kept = [None] * len(sectors)
    entries = []
    for s, ((b, src), (_, vs)) in enumerate(zip(sectors, solved)):
        modes = np.flatnonzero(sector == s)
        if len(modes):
            kept[s] = kept[src] if src is not None else vs[:, :len(modes)].copy()
            entries.append((b, kept[s], modes))

    # pin the kernel pair exactly, as its own entry, and re-orthogonalize its
    # sector against it in sector coordinates: every other sector is
    # orthogonal to the constants by symmetry
    w = np.maximum(lam[order], 0.0)
    w[0] = 0.0
    b0, y0, modes0 = entries[0]
    const = np.full(n, 1.0 / math.sqrt(n))
    ones = b0.T @ const  # the constant in sector coordinates
    y = y0[:, 1:] - ones[:, None] * (ones @ y0[:, 1:])
    y /= np.linalg.norm(y, axis=0)
    kernel = (sp.csc_matrix(const[:, None]), np.ones((1, 1)), modes0[:1])
    entries = (kernel, (b0, y, modes0[1:]), *entries[1:])

    # full-space residuals and column norms of each sector's lifted vectors,
    # over blocks of 8 columns: no (n, K) temporaries
    resid = np.empty(k)
    scale = np.empty(k)
    for b, y, modes in entries:
        for j in range(0, len(modes), 8):
            cols = modes[j:j + 8]
            block = b @ y[:, j:j + len(cols)]
            resid[cols] = np.linalg.norm(a @ block - block * w[cols], axis=0)
            scale[cols] = np.linalg.norm(block, axis=0)
    bad = resid > 1e-8 * np.maximum(1.0, scale)
    if np.any(bad):
        raise EigensolverFailure(
            f"{int(bad.sum())} eigenpairs exceed the 1e-8 residual bound"
        )
    return SpectralDecomposition(grid, w, entries, resid)


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


def _gauge(coeffs):
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
    pc = _gauge(dec.coefficients(state0.psi))
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
    pc = _gauge(dec.coefficients(state0.psi))
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

# the wave source's terms in assembly order, each with whether it pairs
# with the inverse Laplacian (weight 1/lambda: tensor terms after two
# integrations by parts, vector terms after one; scalar terms pair with the
# test function directly) and its channel set, as indices into
# CHANNEL_POWERS, mirroring how the interpolation estimates route each term
FORCING_TERMS = {
    "viscous": (True, (0, 2)),
    "convective_ess": (True, (0, 1, 2, 3)),
    "convective_res": (True, (0, 2, 4)),
    "pressure": (False, (2, 3, 4)),
    "extension_accel": (True, (3,)),
    "momentum_translation_ess": (True, (0, 2)),
    "momentum_translation_res": (True, (0, 2, 4)),
    "wave_translation_ess": (True, (0, 2)),
    "wave_translation_res": (True, (0, 2, 4)),
    "acceleration_coupling_ess": (True, (3,)),
    "acceleration_coupling_res": (True, (2, 4)),
}


def tensor_divdiv(grid: Grid, tensor):
    """div div of a flat cell tensor field, with masked one-sided closures."""
    g = grid
    lay = g.layout
    d = lay.row + 1  # corner k joins cells k - d, k - row, k - 1 and k
    den = g.corner_cells

    def four_point(a, op):
        # op(op(a[k + d], a[k + 1]), a[k + row]) + a[k] for k < size - d
        out = op(a[d:], a[1:1 - d])
        op(out, a[d - 1:-1], out=out)
        out += a[:-d]
        return out

    def dxy(f):
        # corner-averaged cross difference restricted to active data
        corner = np.zeros(lay.size)
        corner[d:] = four_point(f * g.component_masks[0].active, np.add)
        corner = np.where(den > 0, corner / np.maximum(den, 1.0), 0.0)
        out = np.zeros(lay.size)
        out[:-d] = four_point(corner, np.subtract) / g.h**2
        return out

    gxx, gyy = (gradient_to_face(tensor[:, i, i], m, g.h) for i, m in enumerate(g.component_masks))
    out = lay.flat(g.ops.div(gxx, gyy)) + dxy(tensor[:, 0, 1]) + dxy(tensor[:, 1, 0])
    out[g.component_masks[0].inactive_cells] = 0.0
    return lay.cells(out)


def _vector_div(grid: Grid, field):
    """div of a flat cell vector field through its face averages."""
    lay = grid.layout
    return grid.ops.div(average_to_face(field[:, 0], lay.row, lay),
                        average_to_face(field[:, 1], 1, lay))


def assemble_forcing(
    state,
    grid: Grid,
    law: PressureLaw,
    visc: ViscosityPair,
    path: MotionPath,
    ext: ExtensionFieldSample,
    lifting: ExtensionField | None,
) -> dict:
    """The wave source's term densities (cell views) of a snapshot.

    Returns a dict from each FORCING_TERMS label to its density, in table
    order: divdiv of the tensor terms, div of the vector terms, the scalar
    pressure term itself. Terms are split into essential and residual parts
    by essential_indicator wherever the routing distinguishes them. ext is
    the lifting field V at state.t; the lifting (None when there is none)
    gives its moving-frame derivative on its support box, which is zero
    elsewhere.

    A term that vanishes identically is not assembled: its density is an
    exact zero array. These are the residual parts when no active cell
    leaves the essential range, the translation terms when m' = 0, the
    acceleration couplings when m'' = 0, and extension_accel without a
    lifting.
    """
    g = grid
    lay = g.layout
    eps = state.eps
    _, mp, mpp = eval_motion(path, state.t)
    rho = lay.flat(state.rho)
    rbar = law.rho_ref
    active = g.component_masks[0].active

    # every field is flat in the padded layout, vector and tensor axes last
    ess_mask = essential_indicator(rho, rbar) * active
    res_mask = active - ess_mask
    ess = ess_mask[..., None, None]
    res = res_mask[..., None, None]
    residual = bool(res_mask.any())

    grads, centers = known_gradient(g, *known_faces(g, state.u, state.v))
    vel = np.stack(centers, axis=-1)
    uu = vel[..., :, None] * vel[..., None, :]
    terms = {
        "viscous": tensor_divdiv(g, stress(visc, np.stack(grads, -1).reshape(-1, 2, 2))),
        "convective_ess": tensor_divdiv(g, -(ess_mask * rho)[..., None, None] * uu),
        "pressure": lay.cells(pressure_entropy(law, rho) / eps**2),
    }
    if residual:
        terms["convective_res"] = tensor_divdiv(g, -(res_mask * rho)[..., None, None] * uu)
    if lifting is not None:
        dv_moving = np.zeros((lay.size, 2))
        dv_moving.reshape(*lay.shape, 2)[lifting.box] = lifting.box_fields(state.t)[1]
        terms["extension_accel"] = _vector_div(g, -rbar * dv_moving)
    if mp.any() or mpp.any():
        r_cells = (rho - rbar) / eps
    if mp.any():
        vext = np.stack(lay.centers(ext.u, ext.v), axis=-1)
        mom = rho[..., None] * vel - rbar * vext  # momentum relative to lifting
        wmom = mom - eps * r_cells[..., None] * mp
        outer_m = mom[..., :, None] * mp
        outer_w = eps * mp[:, None] * wmom[..., None, :]
        terms["momentum_translation_ess"] = tensor_divdiv(g, ess * outer_m)
        terms["wave_translation_ess"] = tensor_divdiv(g, ess * outer_w)
        if residual:
            terms["momentum_translation_res"] = tensor_divdiv(g, res * outer_m)
            terms["wave_translation_res"] = tensor_divdiv(g, res * outer_w)
    if mpp.any():
        accel = -eps * r_cells[..., None] * mpp
        terms["acceleration_coupling_ess"] = _vector_div(g, ess_mask[..., None] * accel)
        if residual:
            terms["acceleration_coupling_res"] = _vector_div(g, res_mask[..., None] * accel)
    return {label: terms[label] if label in terms else lay.cells(np.zeros(lay.size))
            for label in FORCING_TERMS}


def forcing_channel_norms(densities: dict, dec: SpectralDecomposition):
    """Instantaneous L2 norms of the five channel representatives.

    All term densities are projected on the retained span in one product;
    each term's functional coefficients (weighted 1/lambda where
    FORCING_TERMS pairs it with the inverse Laplacian) are allocated across
    its channel set by the per-mode minimum-norm split. The constant mode
    is excluded, consistent with the zero-mean gauge. Returns an array of 5
    nonnegative numbers.
    """
    lam = dec.eigenvalues
    active = lam > 0.0
    inv_lam = np.where(active, 1.0 / np.where(active, lam, 1.0), 0.0)
    lam_safe = np.where(active, lam, 1.0)
    stack = np.stack([dec.grid.ops.pack(d) for d in densities.values()], axis=1)
    # L2-orthonormal-basis coefficients of every term's functional, (K, terms)
    coeffs = dec.project(stack) * dec.grid.h
    inverse = np.array([FORCING_TERMS[label][0] for label in densities])
    coeffs = np.where(inverse[None, :], coeffs * inv_lam[:, None], coeffs)
    coeffs[~active] = 0.0
    channel_sq = np.zeros(len(CHANNEL_POWERS))
    for label, c in zip(densities, coeffs.T):
        idxs = FORCING_TERMS[label][1]
        powers = CHANNEL_POWERS[list(idxs)]
        lam_p = np.where(active[None, :], lam_safe[None, :] ** powers[:, None], 0.0)
        denom = np.sum(lam_p**2, axis=0)
        denom = np.where(denom > 0.0, denom, 1.0)
        alloc = c[None, :] * lam_p / denom
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
    _, _, psi = grid.ops.helmholtz(wu, wv)
    r_field = grid.ops.unpack(grid.ops.pack((state.rho - law.rho_ref) / state.eps))
    return AcousticState(r_field, psi, state.eps, state.t)


def shifted_momentum(state, grid: Grid, path: MotionPath, law: PressureLaw, ext):
    """Face components of the shifted momentum rho*u - rho_ref*V - eps*m'*r,
    zero off the interior faces."""
    eps = state.eps
    rbar = law.rho_ref
    lay = grid.layout
    _, mp, _ = eval_motion(path, state.t)
    rho = lay.flat(state.rho)
    r_cells = (rho - rbar) / eps
    out = []
    for u, e, m, masks in zip((state.u, state.v), (ext.u, ext.v), mp, grid.component_masks):
        s = masks.normal
        w = (average_to_face(rho, s, lay) * lay.flat(u) - rbar * lay.flat(e)
             - eps * m * average_to_face(r_cells, s, lay))
        w[masks.exterior_faces] = 0.0
        out.append(w)
    return lay.xfaces(out[0]), lay.yfaces(out[1])


# -- spectral window, spatial cutoff, and the decay functional ---------------


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
        raise ConfigValidationError(
            [f"modes = {k} leaves the spectral window no increasing positive breakpoints"]
        )

    def window(x):
        x = np.asarray(x, dtype=float)
        rise = smoothstep((x - lo_start) / (lo_end - lo_start))
        fall = 1.0 - smoothstep((x - hi_start) / (hi_end - hi_start))
        return rise * fall

    return window


def make_spatial_cutoff(grid: Grid, r_one: float, r_zero: float) -> np.ndarray:
    """Radial C2 cutoff equal to 1 for |y| <= r_one, 0 for |y| >= r_zero."""
    if not 0.0 < r_one < r_zero:
        raise ValueError("need 0 < r_one < r_zero")
    xc, yc = grid.cell_centers()
    r = np.sqrt(xc**2 + yc**2)
    chi = 1.0 - smoothstep((r - r_one) / (r_zero - r_one))
    chi[~grid.active] = 0.0
    return chi


@dataclass(frozen=True)
class RageResult:
    value: float
    horizon: float
    modes: int
    quadrature_dt: float


QUADRATURE_FACTOR = 0.2  # trapezoid step in units of eps / sqrt(p' lambda_max)


def decay_gram(dec: SpectralDecomposition, x_field, chi, window: Callable):
    """The eps-independent part of D(eps): (a^T a, lambda[cols]), with
    a = diag(chi) V diag(G c) on the support rows of the cutoff chi and the
    support modes cols of the window G times the probe's coefficients c."""
    coeffs = dec.coefficients(x_field) * window(dec.eigenvalues)
    chi_vec = dec.grid.ops.pack(chi)
    rows, cols = np.flatnonzero(chi_vec), np.flatnonzero(coeffs)
    a = chi_vec[rows, None] * dec.vectors(rows, cols) * coeffs[cols]
    return a.T @ a, dec.eigenvalues[cols]


def rage_decay(
    dec: SpectralDecomposition,
    law: PressureLaw,
    eps: float,
    gram: tuple,
    horizon: float,
) -> RageResult:
    """Time-averaged local acoustic energy D(eps) of the filtered propagator.

    D = integral_0^T || chi * G(-lap) e_+(t)[X] ||_L2^2 dt by composite
    trapezoid on N = max(2, ceil(T / dt)) steps tau = T / N, where
    dt = QUADRATURE_FACTOR * eps / sqrt(p' * lambda_max) resolves the
    fastest retained mode. Strictly decreasing in eps on exterior-domain
    scenarios capped below the reflection-return time: that is the
    dispersion mechanism this functional measures. The rule is summed in
    closed form, h^2 sum(a^T a o K) with the eps-independent Gram matrix
    a^T a of decay_gram and the rule's exact kernel
    K = (tau / 2) sin(N theta) cot(theta / 2), theta = (w_k - w_l) tau,
    equal to T at theta = 0 (|theta| <= QUADRATURE_FACTOR: no other pole).
    """
    pp = float(pressure_slope(law, law.rho_ref))
    lam = dec.eigenvalues
    dt = QUADRATURE_FACTOR * eps / math.sqrt(max(pp * float(lam[-1]), 1e-300))
    nsteps = max(2, int(math.ceil(horizon / dt)))
    tau = horizon / nsteps

    omega = np.sqrt(pp * gram[1]) / eps
    theta = (omega[:, None] - omega[None, :]) * tau
    # tau sum_j w_j cos(j theta) over the nodes j = 0..N, end weights 1/2
    with np.errstate(divide="ignore", invalid="ignore"):
        kernel = 0.5 * tau * np.sin(nsteps * theta) / np.tan(0.5 * theta)
    kernel[theta == 0.0] = horizon
    value = dec.grid.h**2 * float(np.sum(gram[0] * kernel))
    return RageResult(value, horizon, dec.modes, float(dt))
