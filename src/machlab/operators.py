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
other module shares, all reading the grid's face classes:
face/center averages, the nodal curl, the cell-centred velocity
gradient, upwind transport, the free-slip face Laplacian and the quintic
C2 step.

Every field lives in its grid's padded layout (PaddedLayout), passed as
2-D views: the cell, x-face and y-face arrays of an nx-by-ny grid all
live in a C-ordered (nx+1, ny+1) buffer, read flat, so a step along x is
the offset ny+1, a step along y the offset 1, and every stencil shift is
a contiguous 1-D slice. The y-component runs the x-component's code with
the two strides swapped, reading the flat per-component face classes
(ComponentMasks) that each grid derives once from its padded active
mask; nothing is transposed. Sparse classes are also index sets, as a
write through one costs a fraction of a masked write over the buffer.
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
        idx = g.layout.padded(self.active_index, -1)
        # gradient incidence: one row per interior face, x-faces first,
        # -1/h on the cell behind it and +1/h on the cell ahead
        rows, cols, vals = [], [], []
        nface = 0
        for m in g.component_masks:
            k = np.flatnonzero(m.interior)
            for back, sgn in ((m.normal, -1.0), (0, 1.0)):
                rows.append(nface + np.arange(len(k)))
                cols.append(idx[k - back])
                vals.append(np.full(len(k), sgn / h))
            nface += len(k)
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
        lay = self.grid.layout
        out = lay.cells(np.zeros(lay.size))
        out[self.grid.active] = vec
        return out

    # -- differential operators on fields ------------------------------------

    def grad(self, cell_field):
        """Masked gradient to faces; zero on boundary and dead faces."""
        lay = self.grid.layout
        c = lay.flat(cell_field)
        u, v = (gradient_to_face(c, m, self.h) for m in self.grid.component_masks)
        return lay.xfaces(u), lay.yfaces(v)

    def div(self, u, v, include_boundary_faces=False):
        """Face-flux divergence on active cells of face views (or flat
        arrays) u and v in the grid's padded layout, as a cell view in it.

        With include_boundary_faces the prescribed values on boundary faces
        contribute; otherwise only interior faces are seen (the adjoint of
        grad, as used by the Neumann Laplacian and Helmholtz machinery).
        """
        g = self.grid
        um, vm = (known_faces(g, u, v) if include_boundary_faces else
                  (zeroed(g.layout.flat(f), m.exterior_faces)
                   for f, m in zip((u, v), g.component_masks)))
        return g.layout.cells(face_divergence(g, um, vm))

    def curl(self, psi):
        """Masked nodal curl to faces; zero on boundary and dead faces."""
        u, v = nodal_curl(self.grid, psi)
        for f, m in zip((u, v), self.grid.component_masks):
            self.grid.layout.flat(f)[m.exterior_faces] = 0.0
        return u, v

    def face_dot(self, au, av, bu, bv):
        """l2 inner product over interior faces."""
        lay = self.grid.layout
        xm, ym = self.grid.component_masks
        iu, iv = lay.xfaces(xm.interior), lay.yfaces(ym.interior)
        return float(np.sum(au[iu] * bu[iu])) + float(np.sum(av[iv] * bv[iv]))

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
        lay = self.grid.layout
        um, vm = lay.flat(u), lay.flat(v)
        if not include_boundary_faces:
            um, vm = (zeroed(f, m.exterior_faces)
                      for f, m in zip((um, vm), self.grid.component_masks))
        rhs = -self.pack(self.div(um, vm, include_boundary_faces))
        theta = self.unpack(self.poisson_solve(rhs))
        gu, gv = self.grad(theta)
        # sign: laplacian = G^T G and div = -G^T, so A theta = -div gives
        # theta with grad(theta) carrying the full divergence of (u, v)
        return lay.xfaces(um - lay.flat(gu)), lay.yfaces(vm - lay.flat(gv)), theta


# -- staggered-grid stencils shared by the solvers and the analysis ----------
#
# Ghost entries of the padded layout may hold anything: the masks zero
# what reads them, or it lands on faces the caller overwrites.


class PaddedLayout:
    """One C-ordered (nx+1, ny+1) buffer, read flat, for the cell, x-face
    and y-face arrays of an nx-by-ny grid.

    Each array fills the buffer's top-left corner, (nx, ny), (nx+1, ny) or
    (nx, ny+1); the entries beyond it are ghosts. Entry (i, j) sits at flat
    index i * row + j with row = ny + 1, so a step along x is the offset
    `row` and a step along y the offset 1. Face (i, j) of either family
    lies between the cell at its own index and the cell one step back.
    """

    def __init__(self, nx, ny):
        self.nx = int(nx)
        self.ny = int(ny)
        self.row = self.ny + 1
        self.shape = (self.nx + 1, self.row)
        self.size = self.shape[0] * self.row
        self.parts = ((self.nx, self.ny), (self.nx + 1, self.ny), (self.nx, self.row))

    def padded(self, a, fill=0.0):
        """A new flat buffer holding a (a cell, x-face or y-face array) in
        its corner and `fill` elsewhere."""
        if a.shape not in self.parts:
            raise ValueError(f"shape {a.shape} is no cell, x-face or y-face array "
                             f"of a {self.nx} x {self.ny} grid")
        out = np.full(self.size, fill, dtype=a.dtype)
        out.reshape(self.shape)[:a.shape[0], :a.shape[1]] = a
        return out

    def enter(self, a, fill=0.0):
        """A padded copy of a, as the cell, x-face or y-face view its shape names."""
        f = self.padded(a, fill)
        return (self.cells, self.xfaces, self.yfaces)[self.parts.index(a.shape)](f)

    def flat(self, a):
        """The flat buffer of a: a itself when it is one, the buffer
        behind it when a is a cell, x-face or y-face view of one (no
        copy); anything else raises ValueError."""
        if a.shape == (self.size,):
            return a
        base = a.base
        # a view whose memory reaches the buffer's first entry starts there
        if (a.shape in self.parts and isinstance(base, np.ndarray) and base.shape == (self.size,)
                and base.dtype == a.dtype and a.strides == (self.row * a.itemsize, a.itemsize)
                and np.may_share_memory(a, base[:1])):
            return base
        raise ValueError(f"a {a.shape} array is no cell, x-face or y-face view of a "
                         f"padded buffer of a {self.nx} x {self.ny} grid")

    def centers(self, u, v):
        """The flat cell averages (uc, vc) of the face views u, v."""
        return average_to_center(self.flat(u), self.row), average_to_center(self.flat(v), 1)

    def cells(self, f):
        return f.reshape(self.shape)[:self.nx, :self.ny]

    def xfaces(self, f):
        return f.reshape(self.shape)[:, :self.ny]

    def yfaces(self, f):
        return f.reshape(self.shape)[:self.nx]

    def edges(self, f, s):
        """The two slices of flat f on the box edges across stride s: the
        first and last x-face rows for s = row, the first and last y-face
        columns for s = 1."""
        if s == 1:
            return f[::self.row], f[self.ny::self.row]
        return f[:self.row], f[-self.row:]


def zeroed(a, faces):
    """A copy of a that is zero on the index set `faces`: a plain copy and
    an indexed write, which cost less than np.where."""
    out = a.copy()
    out[faces] = 0.0
    return out


def known_faces(grid, u, v):
    """Flat copies of u and v with their unknown faces, dead or ghost, zeroed."""
    return tuple(zeroed(grid.layout.flat(f), m.unknown_faces)
                 for f, m in zip((u, v), grid.component_masks))


def face_divergence(grid, um, vm):
    """Flat divergence, zero off the active cells, of flat um, vm with hidden faces zero."""
    s = grid.layout.row
    # cell k lies between x-faces k, k + s and y-faces k, k + 1
    out = np.empty_like(um)
    mid = np.subtract(um[s:], um[:-s], out=out[:-s])
    mid += vm[1:1 - s]
    mid -= vm[:-s]
    mid /= grid.h
    out[grid.component_masks[0].inactive_cells] = 0.0
    return out


def average_to_center(f, s):
    """Cell averages (f[k+s] + f[k]) / 2 of a flat face component along
    stride s; the last s entries, all ghosts, are zero."""
    out = np.empty_like(f)
    mid = np.add(f[s:], f[:-s], out=out[:-s])
    mid *= 0.5
    out[-s:] = 0.0
    return out


def gradient_to_face(c, m, h):
    """(c[k] - c[k - m.normal]) / h of a flat cell field on the faces k of
    the family with ComponentMasks m, zero on its exterior faces."""
    f = np.zeros(c.shape)
    np.divide(c[m.normal:] - c[:-m.normal], h, out=f[m.normal:])
    f[m.exterior_faces] = 0.0
    return f


def average_to_face(c, s, layout, fill=0.0):
    """Face averages (c[k] + c[k-s]) / 2 of a flat cell field along stride
    s; the faces on the two box edges across s hold `fill`."""
    out = np.empty_like(c)
    mid = np.add(c[s:], c[:-s], out=out[s:])
    mid *= 0.5
    for edge in layout.edges(out, s):  # the first edge holds out[:s]
        edge[...] = fill
    return out


def velocity_gradient_components(grid, u, v):
    """Cell-centred velocity gradient d u_i / d x_j and velocity, ((gxx,
    gxy, gyx, gyy), (uc, vc)), flat in the grid's padded layout; the
    gradient is zero on inactive cells and ghosts, and uc, vc average u, v
    with their unknown faces zeroed (on active cells, plain averages)."""
    comps, avgs = known_gradient(grid, *known_faces(grid, u, v))
    for comp in comps:
        comp[grid.component_masks[0].inactive_cells] = 0.0
    return comps, avgs


def known_gradient(grid, um, vm, layout=None):
    """velocity_gradient_components of known_faces' um, vm, but finite,
    not zero, off the active cells, for readers of active cells only. The
    tangential derivatives are central differences of the cell averages
    and stay zero on the edge rows (gyx) and columns (gxy).

    um, vm are flat in `layout`, the grid's padded layout unless given: a
    block cut from it with a margin around the cells read (a lifting's
    `block`) gives those cells' entries of the full grid's result."""
    h = grid.h
    lay = layout or grid.layout
    s = lay.row
    gxx = np.empty_like(um)
    mid = np.subtract(um[s:], um[:-s], out=gxx[:-s])
    mid /= h
    gxx[-s:] = 0.0
    gyy = np.empty_like(vm)
    mid = np.subtract(vm[1:], vm[:-1], out=gyy[:-1])
    mid /= h
    gyy[-1] = 0.0
    uc = average_to_center(um, s)
    vc = average_to_center(vm, 1)
    gyx = np.empty_like(um)
    mid = np.subtract(vc[2 * s:], vc[:-2 * s], out=gyx[s:-s])
    mid /= 2 * h
    gyx[:s] = 0.0
    gyx[-2 * s:] = 0.0
    gxy = np.empty_like(um)
    mid = np.subtract(uc[2:], uc[:-2], out=gxy[1:-1])
    mid /= 2 * h
    gxy[::s] = 0.0
    gxy[lay.ny - 1::s] = 0.0
    gxy[-1] = 0.0
    return (gxx, gxy, gyx, gyy), (uc, vc)


def smoothstep(x):
    """Quintic C2 step: 0 for x <= 0, 1 for x >= 1, s(1 - x) = 1 - s(x)."""
    s = np.clip(x, 0.0, 1.0)
    return s**3 * (10.0 - 15.0 * s + 6.0 * s * s)


def nodal_curl(grid, psi):
    """Face velocity (d psi/dy, -d psi/dx) of a nodal stream function, as
    face views in the grid's padded layout.

    The discrete divergence of the result vanishes identically.
    """
    lay = grid.layout
    u, v = lay.xfaces(np.zeros(lay.size)), lay.yfaces(np.zeros(lay.size))
    u[...] = (psi[:, 1:] - psi[:, :-1]) / grid.h
    v[...] = -(psi[1:, :] - psi[:-1, :]) / grid.h
    return u, v


class ComponentMasks:
    """The flat padded face classes of one velocity component, with the
    strides of its stencils: `normal` along the component (row for u, 1
    for v) and `transverse` across it. Built once per grid from the
    padded active cell mask, whose ghosts are inactive; ghost faces are
    exterior, unknown and inactive.

    Face k lies between the cells behind it, k - normal, and ahead, k. It
    is interior (it carries an unknown) when both are active and
    prescribed when one is: a rim face on the two box edges across the
    component, where the truncation wall is at rest, an obstacle face
    elsewhere, where the body's normal velocity holds."""

    def __init__(self, layout, normal, active):
        self.layout = layout
        self.normal = normal
        self.transverse = layout.row if normal == 1 else 1
        behind = np.zeros(layout.size, dtype=bool)
        behind[normal:] = active[:-normal]
        self.interior = active & behind
        boundary = active ^ behind
        self.rim = np.zeros(layout.size, dtype=bool)
        for rim, edge in zip(layout.edges(self.rim, normal), layout.edges(boundary, normal)):
            rim[...] = edge
        self.rim_faces = np.flatnonzero(self.rim)
        self.obstacle = boundary & ~self.rim
        # faces the update leaves as they are: prescribed, dead, edge, ghost
        self.exterior = ~self.interior
        self.exterior_faces = np.flatnonzero(self.exterior)
        self.unknown = ~(self.interior | boundary)
        self.unknown_faces = np.flatnonzero(self.unknown)
        # corner k lies between faces k - transverse and k; it carries no
        # flux unless both carry unknowns
        st = self.transverse
        corner_open = np.zeros(layout.size, dtype=bool)
        np.logical_and(self.interior[st:], self.interior[:-st], out=corner_open[st:])
        self.closed_corners = np.flatnonzero(~corner_open)
        self.active = active
        self.inactive_cells = np.flatnonzero(~active)
        # the faces whose Laplacian mirrors a neighbor (not known, or beyond
        # the buffer) ahead or behind along the component, or across it,
        # with the four neighbors each selects, itself where it mirrors;
        # they include the first and last row, which the Laplacian's
        # shifted pass leaves out
        shifts = (normal, -normal, st, -st)
        mirrors = []
        for s in shifts:
            m = np.ones(layout.size, dtype=bool)
            if s > 0:
                m[:-s] = self.unknown[s:]
            else:
                m[-s:] = self.unknown[:s]
            mirrors.append(m)
        i = np.flatnonzero(np.logical_or.reduce(mirrors))
        self.mirror_faces = i
        self.mirror_neighbors = np.stack(
            [np.where(m[i], i, i + s) for m, s in zip(mirrors, shifts)])


def upwind_transport(q, wn, wt, masks, h):
    """Divergence of the first-order upwind fluxes of one face component.

    q is the transported quantity on the component's faces, wn the
    frame-relative normal velocity on the same faces, wt the relative
    transverse velocity on the other face family, masks the component's
    ComponentMasks; all arrays are flat in the padded layout. The
    dissipation is on the advective scale |w|. Returns a flat array that is
    zero on the two box edges across the component.
    """
    sn, st = masks.normal, masks.transverse
    n = q.size

    # normal-direction flux of cell k, between faces k and k + sn:
    # (w/2) (q+ + q-) - (|w|/2) (q+ - q-) with w the cell-averaged wn
    flux_n = np.empty_like(q)
    half_w = np.add(wn[sn:], wn[:-sn])
    half_w *= 0.25  # w / 2 with w = (wn+ + wn-) / 2, exactly
    half_lam = np.abs(half_w)
    mid = np.add(q[sn:], q[:-sn], out=flux_n[:-sn])
    mid *= half_w
    jump = np.subtract(q[sn:], q[:-sn])
    jump *= half_lam
    mid -= jump
    flux_n[masks.inactive_cells] = 0.0

    # transverse flux at corner k, between faces k - st and k, in the same
    # three temporaries; closures at walls reduce to zero flux (mirror
    # state, zero normal w). An open corner's four cells are active, so
    # both transverse faces it reads carry unknowns: wt needs no mask
    r = max(sn, st)  # the first corner with both faces and both wt in range
    flux_t = np.empty_like(q)
    half_w = np.add(wt[r:], wt[r - sn:n - sn], out=half_w[:n - r])
    half_w *= 0.25
    half_lam = np.abs(half_w, out=half_lam[:n - r])
    qa = q[r - st:n - st]
    qb = q[r:]
    inner = np.add(qa, qb, out=flux_t[r:])
    inner *= half_w
    jump = np.subtract(qb, qa, out=jump[:n - r])
    jump *= half_lam
    inner -= jump
    flux_t[masks.closed_corners] = 0.0

    # face k: flux_n[k] - flux_n[k - sn] + flux_t[k + st] - flux_t[k]
    dq = np.empty_like(q)
    mid = np.subtract(flux_n[sn:n - st], flux_n[:n - st - sn], out=dq[sn:n - st])
    mid /= h
    dt_flux = np.subtract(flux_t[sn + st:], flux_t[sn:n - st], out=flux_n[:n - st - sn])
    dt_flux /= h
    mid += dt_flux
    dq[:sn] = 0.0
    dq[n - st:] = 0.0
    for edge in masks.layout.edges(dq, sn):
        edge[...] = 0.0
    return dq


def mirror_laplacian(f, masks, h):
    """Five-point Laplacian of a flat face component; neighbors that are
    not known (dead faces, ghosts, beyond the box) mirror the center
    value, which is the free-slip closure. Exact on every face off the two
    box edges across the component; on those edges a v-neighbor may wrap
    to the next row, and the callers overwrite them.

    Every face reads its four shifted neighbors in one contiguous pass;
    the faces with a mirrored neighbor (masks.mirror_faces) are then
    redone from the neighbors they select, in the same order.
    """
    sn, st = masks.normal, masks.transverse
    n = f.size
    r = max(sn, st)  # every shift stays inside f on faces r .. n - r - 1
    out = np.empty_like(f)
    mid = np.add(f[r + sn:n - r + sn], f[r - sn:n - r - sn], out=out[r:n - r])
    mid += f[r + st:n - r + st]
    mid += f[r - st:n - r - st]
    mid -= np.multiply(f[r:n - r], 4.0)
    mid /= h**2
    nb = f[masks.mirror_neighbors]
    fix = np.add(nb[0], nb[1])
    fix += nb[2]
    fix += nb[3]
    fix -= np.multiply(f[masks.mirror_faces], 4.0)
    fix /= h**2
    out[masks.mirror_faces] = fix
    return out
