"""Masked staggered-grid calculus shared by the solvers and spectral tools.

The discrete gradient G maps cell scalars to interior faces (zero on
boundary and dead faces, which encodes the homogeneous Neumann condition),
and the divergence is exactly -G^T, so the five-point Neumann Laplacian is
the Gram matrix G^T G. Helmholtz projections and pressure projections built
from these operators are therefore exact discrete orthogonal splittings.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import DisconnectedDomain, PoissonFailure


class DiscreteOperators:
    """Per-grid cache of masks, sparse operators, and factorizations."""

    def __init__(self, grid):
        self.grid = grid
        self.h = grid.h
        act = grid.active
        self.active_index = -np.ones(act.shape, dtype=np.int64)
        self.active_index[act] = np.arange(grid.n_active)
        self._check_connected()
        self._assemble()
        self._lu = None

    # -- assembly ----------------------------------------------------------

    def _check_connected(self):
        g = self.grid
        n = g.n_active
        rows, cols = [], []
        idx = self.active_index
        act = g.active
        both = act[:-1, :] & act[1:, :]
        rows.append(idx[:-1, :][both])
        cols.append(idx[1:, :][both])
        both = act[:, :-1] & act[:, 1:]
        rows.append(idx[:, :-1][both])
        cols.append(idx[:, 1:][both])
        r = np.concatenate(rows)
        c = np.concatenate(cols)
        adj = sp.coo_matrix((np.ones(len(r)), (r, c)), shape=(n, n))
        ncomp = sp.csgraph.connected_components(adj, directed=False, return_labels=False)
        if ncomp != 1:
            raise DisconnectedDomain(f"fluid region has {ncomp} components")

    def _assemble(self):
        g = self.grid
        h = self.h
        idx = self.active_index
        # gradient incidence: one row per interior face, entries +-1/h
        rows, cols, vals = [], [], []
        iu, ju = np.nonzero(g.uface_interior)
        for s, sgn in ((0, -1.0), (1, 1.0)):
            rows.append(np.arange(len(iu)))
            cols.append(idx[iu - 1 + s, ju])
            vals.append(np.full(len(iu), sgn / h))
        nface = len(iu)
        iv, jv = np.nonzero(g.vface_interior)
        for s, sgn in ((0, -1.0), (1, 1.0)):
            rows.append(nface + np.arange(len(iv)))
            cols.append(idx[iv, jv - 1 + s])
            vals.append(np.full(len(iv), sgn / h))
        self.gradient_matrix = sp.csr_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(nface + len(iv), g.n_active),
        )
        self.laplacian_matrix = (
            (self.gradient_matrix.T @ self.gradient_matrix).tocsr()
        )

    # -- field <-> vector packing ------------------------------------------

    def pack(self, cell_field):
        return np.asarray(cell_field)[self.grid.active]

    def unpack(self, vec, fill=0.0):
        out = np.full((self.grid.nx, self.grid.ny), fill, dtype=float)
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
            um = np.where(g.uface_interior | g.uface_boundary, u, 0.0)
            vm = np.where(g.vface_interior | g.vface_boundary, v, 0.0)
        else:
            um = np.where(g.uface_interior, u, 0.0)
            vm = np.where(g.vface_interior, v, 0.0)
        out = (um[1:, :] - um[:-1, :] + vm[:, 1:] - vm[:, :-1]) / self.h
        out[~g.active] = 0.0
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

    def _factorization(self):
        if self._lu is None:
            a = self.laplacian_matrix.tolil(copy=True)
            # ground one unknown; exact for compatible (mean-zero) data
            gdof = 0
            a[gdof, :] = 0.0
            a[:, gdof] = 0.0
            a[gdof, gdof] = 1.0
            self._lu = spla.splu(a.tocsc())
        return self._lu

    def poisson_solve(self, rhs_vec, tol=1e-9):
        """Solve laplacian * x = rhs for mean-zero rhs; returns mean-zero x.

        Raises PoissonFailure when the residual check fails, which guards
        against incompatible right-hand sides.
        """
        rhs = np.asarray(rhs_vec, dtype=float)
        lu = self._factorization()
        b = rhs.copy()
        b[0] = 0.0
        x = lu.solve(b)
        x -= x.mean()
        resid = self.laplacian_matrix @ x - rhs
        scale = np.linalg.norm(rhs) + np.linalg.norm(x) + 1.0
        if not np.all(np.isfinite(x)) or np.linalg.norm(resid) > tol * scale:
            raise PoissonFailure(
                f"Neumann solve residual {np.linalg.norm(resid):.3e} "
                f"exceeds {tol:.1e} * {scale:.3e}"
            )
        return x

    def helmholtz(self, u, v):
        """Split a face field into solenoidal-tangent and gradient parts.

        Returns (hu, hv, theta) with (hu, hv) = (u, v) - grad(theta) on
        interior faces, exactly divergence-free and l2-orthogonal to every
        discrete gradient. Boundary-face components are treated as zero
        (fields fed to the projection satisfy the impermeability condition).
        """
        g = self.grid
        um = np.where(g.uface_interior, u, 0.0)
        vm = np.where(g.vface_interior, v, 0.0)
        rhs = -self.pack(self.div(um, vm))
        theta_vec = self.poisson_solve(rhs)
        theta = self.unpack(theta_vec)
        gu, gv = self.grad(theta)
        # sign: laplacian = G^T G and div = -G^T, so A theta = -div gives
        # theta with grad(theta) carrying the full divergence of (u, v)
        return um - gu, vm - gv, theta


# -- staggered-grid stencils shared by the solvers and the analysis ----------


def face_to_center(u, v):
    """Cell-center averages of x-face and y-face components."""
    return 0.5 * (u[1:, :] + u[:-1, :]), 0.5 * (v[:, 1:] + v[:, :-1])


def center_to_xface(c):
    """x-face averages of a cell field; the two edge columns stay zero."""
    out = np.zeros((c.shape[0] + 1, c.shape[1]))
    out[1:-1, :] = 0.5 * (c[1:, :] + c[:-1, :])
    return out


def center_to_yface(c):
    """y-face averages of a cell field; the two edge rows stay zero."""
    out = np.zeros((c.shape[0], c.shape[1] + 1))
    out[:, 1:-1] = 0.5 * (c[:, 1:] + c[:, :-1])
    return out


def nodal_curl(psi, h):
    """Face velocity (d psi/dy, -d psi/dx) of a nodal stream function.

    The discrete divergence of the result vanishes identically.
    """
    return (psi[:, 1:] - psi[:, :-1]) / h, -(psi[1:, :] - psi[:-1, :]) / h


def component_masks(grid):
    """Face masks for updating u on x-faces and, transposed, v on y-faces.

    Each entry is (interior, boundary, transverse_ok, active), oriented so
    that the y-component call reads exactly like the x-component one.
    """
    g = grid
    return (
        (g.uface_interior, g.uface_boundary,
         g.vface_interior | g.vface_boundary, g.active),
        (g.vface_interior.T, g.vface_boundary.T,
         (g.uface_interior | g.uface_boundary).T, g.active.T),
    )


def upwind_transport(q, wn, wt, interior, other_ok, cell_act, h):
    """Divergence of the first-order upwind fluxes of one face component.

    q is the transported quantity on x-faces (the y-component arrives
    transposed), wn the frame-relative normal velocity on the same faces,
    wt the relative transverse velocity on the other face family. The
    dissipation is on the advective scale |w|. Returns an array shaped like
    q that is zero on the two edge columns.
    """
    nx, ny = cell_act.shape

    # normal-direction flux, one value per cell column
    wc = 0.5 * (wn[1:, :] + wn[:-1, :])
    lam = np.abs(wc)
    flux_n = 0.5 * wc * (q[1:, :] + q[:-1, :]) - 0.5 * lam * (q[1:, :] - q[:-1, :])
    flux_n[~cell_act] = 0.0

    # transverse flux at corners between neighboring faces; closures at
    # walls reduce to zero flux (mirror state, zero normal w)
    wtm = np.where(other_ok, wt, 0.0)
    flux_t = np.zeros((nx + 1, ny + 1))
    wcorn = 0.5 * (wtm[1:, 1:-1] + wtm[:-1, 1:-1])
    qa = q[1:-1, :-1]
    qb = q[1:-1, 1:]
    lamc = np.abs(wcorn)
    flux_t[1:-1, 1:-1] = 0.5 * wcorn * (qa + qb) - 0.5 * lamc * (qb - qa)
    pair_ok = np.zeros((nx + 1, ny + 1), dtype=bool)
    pair_ok[1:-1, 1:-1] = interior[1:-1, :-1] & interior[1:-1, 1:]
    flux_t[~pair_ok] = 0.0

    dq = np.zeros_like(q)
    dq[1:-1, :] = (flux_n[1:, :] - flux_n[:-1, :]) / h
    dq[1:-1, :] += (flux_t[1:-1, 1:] - flux_t[1:-1, :-1]) / h
    return dq


def mirror_laplacian(f, good, h):
    """Five-point Laplacian of a face component; neighbors that are not
    `good` (dead faces, beyond the box) mirror the center value, which is
    the free-slip closure."""

    def neighbor(shift_axis, step):
        val = np.empty_like(f)
        ok = np.empty_like(good)
        if shift_axis == 0 and step == 1:
            val[:-1, :], val[-1, :] = f[1:, :], f[-1, :]
            ok[:-1, :], ok[-1, :] = good[1:, :], False
        elif shift_axis == 0:
            val[1:, :], val[0, :] = f[:-1, :], f[0, :]
            ok[1:, :], ok[0, :] = good[:-1, :], False
        elif step == 1:
            val[:, :-1], val[:, -1] = f[:, 1:], f[:, -1]
            ok[:, :-1], ok[:, -1] = good[:, 1:], False
        else:
            val[:, 1:], val[:, 0] = f[:, :-1], f[:, 0]
            ok[:, 1:], ok[:, 0] = good[:, :-1], False
        return np.where(ok, val, f)

    return (
        neighbor(0, 1) + neighbor(0, -1) + neighbor(1, 1) + neighbor(1, -1) - 4.0 * f
    ) / h**2
