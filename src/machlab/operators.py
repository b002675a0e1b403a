"""Masked staggered-grid calculus shared by the solvers and spectral tools.

The discrete gradient G maps cell scalars to interior faces (zero on
boundary and dead faces, which encodes the homogeneous Neumann condition),
and the divergence is exactly -G^T, so the five-point Neumann Laplacian is
the Gram matrix G^T G. DiscreteOperators.helmholtz, built from these
operators, is an exact discrete orthogonal splitting and the one pressure
projection: the Helmholtz split and both projections of the incompressible
solver call it. Neumann Poisson solves ground unknown 0, reuse one
SuperLU factor per grid and hold their residual to POISSON_TOL.
spd_factor owns the settings of every SuperLU factor of a symmetric
positive definite matrix (the Poisson factor and the eigensolver's
shift-invert blocks): symmetric mode, minimum-degree ordering on A + A^T
and diagonal pivots. The module also holds the staggered stencils every
other module shares, all reading the grid's known-face masks:
face/center averages, the nodal curl, the cell-centred velocity
gradient, upwind transport, the free-slip face Laplacian and the quintic
C2 step.
The per-step kernels read the per-component masks (ComponentMasks) that
each grid builds once.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import DisconnectedDomain, PoissonFailure

POISSON_TOL = 1e-9  # relative residual bound of a Neumann Poisson solve


def spd_factor(matrix):
    """SuperLU factor of a symmetric positive definite sparse matrix.

    Symmetric mode with minimum-degree ordering on A + A^T and diagonal
    pivots: an SPD matrix needs no row interchange, and the symmetric
    ordering fills L + U far less than the default COLAMD.
    """
    return spla.splu(
        matrix.tocsc(), permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0, options={"SymmetricMode": True},
    )


class DiscreteOperators:
    """Per-grid cache of masks, sparse operators, and factorizations."""

    def __init__(self, grid):
        self.grid = grid
        self.h = grid.h
        act = grid.active
        self.active_index = -np.ones(act.shape, dtype=np.int64)
        self.active_index[act] = np.arange(grid.n_active)
        self._assemble()
        # the Laplacian's off-diagonal pattern is the cell adjacency
        ncomp = sp.csgraph.connected_components(self.laplacian_matrix, return_labels=False)
        if ncomp != 1:
            raise DisconnectedDomain(f"fluid region has {ncomp} components")
        self._lu = None

    # -- assembly ----------------------------------------------------------

    def _assemble(self):
        g = self.grid
        h = self.h
        idx = self.active_index
        # gradient incidence: one row per interior face, x-faces first,
        # -1/h on the cell behind it and +1/h on the cell ahead
        rows, cols, vals = [], [], []
        nface = 0
        for interior, (di, dj) in ((g.uface_interior, (1, 0)), (g.vface_interior, (0, 1))):
            fi, fj = np.nonzero(interior)
            for back, sgn in ((1, -1.0), (0, 1.0)):
                rows.append(nface + np.arange(len(fi)))
                cols.append(idx[fi - back * di, fj - back * dj])
                vals.append(np.full(len(fi), sgn / h))
            nface += len(fi)
        self.gradient_matrix = sp.csr_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(nface, g.n_active),
        )
        self.laplacian_matrix = (
            (self.gradient_matrix.T @ self.gradient_matrix).tocsr()
        )

    # -- field <-> vector packing ------------------------------------------

    def pack(self, cell_field):
        return np.asarray(cell_field)[self.grid.active]

    def unpack(self, vec):
        out = np.zeros((self.grid.nx, self.grid.ny))
        out[self.grid.active] = vec
        return out

    # -- differential operators on fields ------------------------------------

    def grad(self, cell_field):
        """Masked gradient to faces; zero on boundary and dead faces."""
        g = self.grid
        h = self.h
        u = np.zeros((g.nx + 1, g.ny))
        v = np.zeros((g.nx, g.ny + 1))
        u[1:-1, :] = (cell_field[1:, :] - cell_field[:-1, :]) / h
        v[:, 1:-1] = (cell_field[:, 1:] - cell_field[:, :-1]) / h
        u[~g.uface_interior] = 0.0
        v[~g.vface_interior] = 0.0
        return u, v

    def div(self, u, v, include_boundary_faces=False):
        """Face-flux divergence on active cells.

        With include_boundary_faces the prescribed values on boundary faces
        contribute; otherwise only interior faces are seen (the adjoint of
        grad, as used by the Neumann Laplacian and Helmholtz machinery).
        """
        g = self.grid
        if include_boundary_faces:
            um = np.where(g.uface_known, u, 0.0)
            vm = np.where(g.vface_known, v, 0.0)
        else:
            um = np.where(g.uface_interior, u, 0.0)
            vm = np.where(g.vface_interior, v, 0.0)
        out = np.subtract(um[1:, :], um[:-1, :])
        out += vm[:, 1:]
        out -= vm[:, :-1]
        out /= self.h
        np.copyto(out, 0.0, where=g.component_masks[0].inactive)
        return out

    def curl(self, psi):
        """Masked nodal curl to faces; zero on boundary and dead faces."""
        u, v = nodal_curl(psi, self.h)
        u[~self.grid.uface_interior] = 0.0
        v[~self.grid.vface_interior] = 0.0
        return u, v

    def face_dot(self, au, av, bu, bv):
        """l2 inner product over interior faces."""
        g = self.grid
        s = float(np.sum(au[g.uface_interior] * bu[g.uface_interior]))
        s += float(np.sum(av[g.vface_interior] * bv[g.vface_interior]))
        return s

    def face_l2norm(self, u, v):
        """Grid L2 norm of a face vector field over interior faces."""
        return self.h * np.sqrt(self.face_dot(u, v, u, v))

    # -- Neumann Poisson solves ---------------------------------------------

    def grounded_matrix(self):
        """The Laplacian with unknown 0 grounded: D A D + (I - D), where D
        is the identity with entry 0 zeroed. Symmetric positive definite on
        a connected domain; exact for compatible (mean-zero) data."""
        keep = np.ones(self.grid.n_active)
        keep[0] = 0.0
        d = sp.diags(keep)
        return (d @ self.laplacian_matrix @ d + sp.diags(1.0 - keep)).tocsc()

    def _factorization(self):
        if self._lu is None:
            self._lu = spd_factor(self.grounded_matrix())
        return self._lu

    def poisson_solve(self, rhs_vec):
        """Solve laplacian * x = rhs for mean-zero rhs; returns mean-zero x.

        Raises PoissonFailure when the residual exceeds POISSON_TOL times
        |rhs| + |x| + 1, which guards against incompatible right-hand sides.
        """
        rhs = np.asarray(rhs_vec, dtype=float)
        lu = self._factorization()
        b = rhs.copy()
        b[0] = 0.0
        x = lu.solve(b)
        x -= x.mean()
        resid = self.laplacian_matrix @ x - rhs
        scale = np.linalg.norm(rhs) + np.linalg.norm(x) + 1.0
        if not np.all(np.isfinite(x)) or np.linalg.norm(resid) > POISSON_TOL * scale:
            raise PoissonFailure(
                f"Neumann solve residual {np.linalg.norm(resid):.3e} "
                f"exceeds {POISSON_TOL:.1e} * {scale:.3e}"
            )
        return x

    def helmholtz(self, u, v, include_boundary_faces=False):
        """Split a face field into solenoidal-tangent and gradient parts.

        Returns (hu, hv, theta) with (hu, hv) = (u, v) - grad(theta): by
        default boundary-face components are treated as zero and (hu, hv)
        is exactly divergence-free, tangent and l2-orthogonal to every
        discrete gradient. With include_boundary_faces the prescribed
        boundary values enter the divergence, as in div, and pass through
        unchanged: the pressure projection of the incompressible solver.
        """
        g = self.grid
        if include_boundary_faces:
            um, vm = u, v
        else:
            um = np.where(g.uface_interior, u, 0.0)
            vm = np.where(g.vface_interior, v, 0.0)
        rhs = -self.pack(self.div(um, vm, include_boundary_faces))
        theta_vec = self.poisson_solve(rhs)
        theta = self.unpack(theta_vec)
        gu, gv = self.grad(theta)
        # sign: laplacian = G^T G and div = -G^T, so A theta = -div gives
        # theta with grad(theta) carrying the full divergence of (u, v)
        return um - gu, vm - gv, theta


# -- staggered-grid stencils shared by the solvers and the analysis ----------
#
# The per-step kernels run once per velocity component, the y-component on
# transposed (F-ordered) views. Every temporary is made with empty_like or
# copy(order="K"), so it follows its input's layout and both passes stream
# memory the same way; the ufuncs write in place.


def face_to_center(u, v):
    """Cell-center averages of x-face and y-face components."""
    uc = np.add(u[1:, :], u[:-1, :])
    uc *= 0.5
    vc = np.add(v[:, 1:], v[:, :-1])
    vc *= 0.5
    return uc, vc


def center_to_xface(c):
    """x-face averages of a cell field, laid out like it; the two edge
    columns stay zero."""
    out = np.empty_like(c, dtype=float, shape=(c.shape[0] + 1, c.shape[1]))
    out[0] = 0.0
    out[-1] = 0.0
    mid = np.add(c[1:], c[:-1], out=out[1:-1])
    mid *= 0.5
    return out


def center_to_yface(c):
    """y-face averages of a cell field; the two edge rows stay zero."""
    return center_to_xface(c.T).T


def velocity_gradient_components(grid, u, v):
    """Cell-centred velocity gradient d u_i / d x_j from face components,
    as four (nx, ny) arrays (gxx, gxy, gyx, gyy); zero on inactive cells.

    The tangential derivatives are central differences of the cell
    averages and stay zero on the edge rows (gyx) and columns (gxy).
    """
    g = grid
    h = g.h
    um = np.where(g.uface_known, u, 0.0)
    vm = np.where(g.vface_known, v, 0.0)
    gxx = np.subtract(um[1:, :], um[:-1, :])
    gxx /= h
    gyy = np.subtract(vm[:, 1:], vm[:, :-1])
    gyy /= h
    uc, vc = face_to_center(um, vm)
    gyx = np.zeros((g.nx, g.ny))
    mid = np.subtract(vc[2:, :], vc[:-2, :], out=gyx[1:-1, :])
    mid /= 2 * h
    gxy = np.zeros((g.nx, g.ny))
    mid = np.subtract(uc[:, 2:], uc[:, :-2], out=gxy[:, 1:-1])
    mid /= 2 * h
    inactive = g.component_masks[0].inactive
    for comp in (gxx, gxy, gyx, gyy):
        np.copyto(comp, 0.0, where=inactive)
    return gxx, gxy, gyx, gyy


def velocity_gradient(grid, u, v):
    """Cell-centered velocity gradient tensor (nx, ny, 2, 2) from face
    components, [..., i, j] = d u_i / d x_j; zero on inactive cells."""
    comps = velocity_gradient_components(grid, u, v)
    return np.stack(comps, axis=-1).reshape(grid.nx, grid.ny, 2, 2)


def smoothstep(x):
    """Quintic C2 step: 0 for x <= 0, 1 for x >= 1, s(1 - x) = 1 - s(x)."""
    s = np.clip(x, 0.0, 1.0)
    return s**3 * (10.0 - 15.0 * s + 6.0 * s * s)


def nodal_curl(psi, h):
    """Face velocity (d psi/dy, -d psi/dx) of a nodal stream function.

    The discrete divergence of the result vanishes identically.
    """
    return (psi[:, 1:] - psi[:, :-1]) / h, -(psi[1:, :] - psi[:-1, :]) / h


class ComponentMasks:
    """The masks of one velocity component's update, oriented as u on
    x-faces (the y-component's are transposed views), with the derived
    forms the per-step kernels read, built once per grid."""

    def __init__(self, interior, known, active):
        # faces the update leaves as they are: prescribed, dead, edge
        self.exterior = ~interior
        self.known = known
        # inner corners not between two unknown-carrying faces: no flux
        self.corner_closed = ~(interior[1:-1, :-1] & interior[1:-1, 1:])
        self.inactive = ~active


def component_masks(grid):
    """Masks for updating u on x-faces and, transposed, v on y-faces."""
    g = grid
    return (
        ComponentMasks(g.uface_interior, g.uface_known, g.active),
        ComponentMasks(g.vface_interior.T, g.vface_known.T, g.active.T),
    )


def upwind_transport(q, wn, wt, masks, h):
    """Divergence of the first-order upwind fluxes of one face component.

    q is the transported quantity on x-faces (the y-component arrives
    transposed), wn the frame-relative normal velocity on the same faces,
    wt the relative transverse velocity on the other face family, masks
    the component's ComponentMasks. The dissipation is on the advective
    scale |w|. Returns an array laid out like q that is zero on the two
    edge columns.
    """
    nx, ny = masks.inactive.shape

    # normal-direction flux, one value per cell column:
    # (w/2) (q+ + q-) - (|w|/2) (q+ - q-) with w the cell-averaged wn
    half_w = np.add(wn[1:, :], wn[:-1, :])
    half_w *= 0.5
    half_w *= 0.5
    half_lam = np.abs(half_w)
    flux_n = np.add(q[1:, :], q[:-1, :])
    flux_n *= half_w
    jump = np.subtract(q[1:, :], q[:-1, :])
    jump *= half_lam
    flux_n -= jump
    np.copyto(flux_n, 0.0, where=masks.inactive)

    # transverse flux at the inner corners between neighboring faces;
    # closures at walls reduce to zero flux (mirror state, zero normal w).
    # An open corner's four cells are active, so both transverse faces it
    # reads carry unknowns: wt needs no mask of its own
    half_w = np.add(wt[1:, 1:-1], wt[:-1, 1:-1])
    half_w *= 0.5
    half_w *= 0.5
    half_lam = np.abs(half_w)
    qa = q[1:-1, :-1]
    qb = q[1:-1, 1:]
    flux_t = np.empty_like(q, shape=(nx - 1, ny + 1))
    flux_t[:, 0] = 0.0
    flux_t[:, -1] = 0.0
    inner = np.add(qa, qb, out=flux_t[:, 1:-1])
    inner *= half_w
    jump = np.subtract(qb, qa)
    jump *= half_lam
    inner -= jump
    np.copyto(inner, 0.0, where=masks.corner_closed)

    dq = np.empty_like(q)
    dq[0] = 0.0
    dq[-1] = 0.0
    mid = np.subtract(flux_n[1:, :], flux_n[:-1, :], out=dq[1:-1])
    mid /= h
    dt_flux = np.subtract(flux_t[:, 1:], flux_t[:, :-1])
    dt_flux /= h
    mid += dt_flux
    return dq


def mirror_laplacian(f, good, h):
    """Five-point Laplacian of a face component, laid out like it;
    neighbors that are not `good` (dead faces, beyond the box) mirror the
    center value, which is the free-slip closure."""
    out = f.copy(order="K")
    np.copyto(out[:-1, :], f[1:, :], where=good[1:, :])
    nb = f.copy(order="K")
    np.copyto(nb[1:, :], f[:-1, :], where=good[:-1, :])
    out += nb
    np.copyto(nb, f)
    np.copyto(nb[:, :-1], f[:, 1:], where=good[:, 1:])
    out += nb
    np.copyto(nb, f)
    np.copyto(nb[:, 1:], f[:, :-1], where=good[:, :-1])
    out += nb
    np.multiply(f, 4.0, out=nb)
    out -= nb
    out /= h**2
    return out
