"""The per-step kernels against the formulation they replaced.

The oracles below, and the shared ones in conftest, are the earlier 2-D
kernels: one np.where or boolean-mask assignment per mask, the
y-component on transposed views, the velocity gradient as one
(nx, ny, 2, 2) field. The current kernels
run on flat arrays in the grid's padded layout, both components through
the same code with their strides swapped, and round every entry as the
oracles do, so every comparison is exact (assert_array_equal). Their
inputs carry NaN in every ghost entry of the layout, so a kernel that
read one would fail the comparison.
"""

import ast
import math
import pickle
from pathlib import Path

import numpy as np
import pytest

import machlab

from machlab.compressible import (
    CompressibleSolver,
    EnergyLedger,
    FluidState,
    _mass_flux,
)
from machlab.config import parse_config
from machlab.constitutive import PressureLaw, ViscosityPair, pressure, pressure_slope
from machlab.errors import VacuumState
from machlab.geometry import build_grid, enforce_bc, eval_motion, linear_path, static_path
from machlab.incompressible import IncompressibleSolver
from machlab.operators import (
    average_to_center,
    average_to_face,
    known_faces,
    known_gradient,
    mirror_laplacian,
    upwind_transport,
)
from machlab.sweep import build_scenario, initial_velocity

from conftest import (
    MINI_CFG,
    SINUSOIDAL_MINI_CFG,
    STATIC_MINI_CFG,
    face_masks,
    in_layout,
    oracle_center_to_xface,
    oracle_center_to_yface,
    oracle_face_to_center,
    oracle_gradient,
)

# -- oracles: the kernels as they were --------------------------------------


def oracle_masks(grid):
    g = grid
    (iu, iv), (ku, kv) = face_masks(g, "interior"), face_masks(g, "known")
    return (iu, ku, kv, g.active), (iv.T, kv.T, ku.T, g.active.T)


def oracle_transport(q, wn, wt, interior, other_ok, cell_act, h):
    nx, ny = cell_act.shape
    wc = 0.5 * (wn[1:, :] + wn[:-1, :])
    lam = np.abs(wc)
    flux_n = 0.5 * wc * (q[1:, :] + q[:-1, :]) - 0.5 * lam * (q[1:, :] - q[:-1, :])
    flux_n[~cell_act] = 0.0
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


def oracle_laplacian(f, good, h):
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


def oracle_mass_flux(rho, wn, c_cell, interior):
    f = np.zeros_like(wn)
    lam = np.abs(wn[1:-1, :]) + np.maximum(c_cell[1:, :], c_cell[:-1, :])
    f[1:-1, :] = 0.5 * wn[1:-1, :] * (rho[1:, :] + rho[:-1, :]) - 0.5 * lam * (
        rho[1:, :] - rho[:-1, :]
    )
    f[~interior] = 0.0
    return f


def oracle_momentum(sol, rho, rho_new, un, wn, wt, p_cell, div_full, eps, dt,
                    interior, known, other_known, cell_act):
    """The updated component, on its interior faces (its other faces hold
    un), and the viscous force applied to it, zero off the interior faces."""
    h = sol.grid.h
    q = oracle_center_to_xface(rho) * un
    dq = oracle_transport(q, wn, wt, interior, other_known, cell_act, h)
    dq[1:-1, :] += (p_cell[1:, :] - p_cell[:-1, :]) / (h * eps**2)
    mu, eta = sol.visc.shear, sol.visc.bulk
    lap_u = oracle_laplacian(un, known, h)
    ddiv = np.zeros_like(un)
    ddiv[1:-1, :] = (div_full[1:, :] - div_full[:-1, :]) / h
    force = np.zeros_like(un)
    force[1:-1, :] = mu * lap_u[1:-1, :] + (mu / 3.0 + eta) * ddiv[1:-1, :]
    force[~interior] = 0.0
    dq -= force
    q_new = q - dt * dq
    rho_f_new = oracle_center_to_xface(rho_new)
    return np.where(interior, q_new / np.where(rho_f_new > 0, rho_f_new, 1.0), un), force


def oracle_work(grid, force, um, axis):
    """<um, F> of one component as the step reduces it: the product of the
    force and the known-face velocity (oriented as the oracles read them)
    padded with zeros into the grid's layout, summed by np.sum."""
    work = force * um
    return float(np.sum(grid.layout.padded(work.T if axis else work)))


def oracle_div(grid, u, v, include_boundary_faces=True):
    g = grid
    mu, mv = face_masks(g, "known" if include_boundary_faces else "interior")
    um = np.where(mu, u, 0.0)
    vm = np.where(mv, v, 0.0)
    out = (um[1:, :] - um[:-1, :] + vm[:, 1:] - vm[:, :-1]) / g.h
    out[~g.active] = 0.0
    return out


def oracle_sponge(sol):
    """The sponge ramps s of the cell, x-face and y-face fields."""
    g = sol.grid
    w = sol.sponge_width

    def profile(x, y):
        d = np.minimum.reduce([x - g.x0, g.x1 - x, y - g.y0, g.y1 - y])
        s = np.clip((w - d) / w, 0.0, 1.0)
        return np.sin(0.5 * math.pi * s) ** 2

    return profile(*g.cell_centers()), profile(*g.xface_coords()), profile(*g.yface_coords())


def oracle_enforce_bc(grid, path, state):
    _, mp, _ = eval_motion(path, state.t)
    u = state.u.copy()
    v = state.v.copy()
    (iu, iv), (ru, rv) = face_masks(grid, "interior"), face_masks(grid, "rim")
    u[~iu] = mp[0]
    v[~iv] = mp[1]
    u[ru] = 0.0
    v[rv] = 0.0
    return FluidState(state.rho, u, v, state.t, state.eps)


def oracle_step(sol, state, dt, ledger):
    """The step composed of the 2-D oracles, booking its viscous work,
    lifting work and sponge mass into ledger."""
    g = sol.grid
    h = g.h
    law = sol.law
    eps = state.eps
    _, mp, _ = eval_motion(sol.path, state.t)
    rho, u, v = state.rho, state.u, state.v
    wu = u - mp[0]
    wv = v - mp[1]
    c_cell = np.sqrt(pressure_slope(law, np.maximum(rho, 1e-300))) / eps
    iu, iv = face_masks(g, "interior")
    fmx = oracle_mass_flux(rho, wu, c_cell, iu)
    fmy = oracle_mass_flux(rho.T, wv.T, c_cell.T, iv.T).T
    rho_new = rho - (dt / h) * (fmx[1:, :] - fmx[:-1, :] + fmy[:, 1:] - fmy[:, :-1])
    rho_new[~g.active] = law.rho_ref
    if np.any(rho_new[g.active] <= 0.0):
        raise VacuumState("oracle density lost positivity")
    p_cell = pressure(law, rho)
    div_full = oracle_div(g, u, v)
    x_masks, y_masks = oracle_masks(g)
    u_new, force_u = oracle_momentum(sol, rho, rho_new, u, wu, wv, p_cell, div_full, eps,
                                     dt, *x_masks)
    v_new, force_v = oracle_momentum(sol, rho.T, rho_new.T, v.T, wv.T, wu.T, p_cell.T,
                                     div_full.T, eps, dt, *y_masks)
    v_new = v_new.T
    ku, kv = face_masks(g, "known")
    work_u = oracle_work(g, force_u, np.where(ku, u, 0.0), 0)
    work_v = oracle_work(g, force_v, np.where(kv, v, 0.0).T, 1)
    ledger.dissipation += -dt * h**2 * (work_u + work_v)
    oracle_accumulate(sol, ledger, state, dt)
    if sol.sponge_width > 0.0:
        sponge_cell, sponge_u, sponge_v = oracle_sponge(sol)
        before = float(np.sum(rho_new[g.active]))
        rho_new = law.rho_ref + (rho_new - law.rho_ref) * (1.0 - sponge_cell)
        rho_new[~g.active] = law.rho_ref
        ledger.sponge_mass += (float(np.sum(rho_new[g.active])) - before) * h**2
        u_new = u_new * (1.0 - sponge_u)
        v_new = v_new * (1.0 - sponge_v)
    return oracle_enforce_bc(g, sol.path, FluidState(rho_new, u_new, v_new, state.t + dt, eps))


def oracle_accumulate(sol, ledger, state, dt):
    """The ledger's lifting work read from the (nx, ny, 2, 2) gradient
    field; the step books the dissipation."""
    lifting = sol.lifting
    if lifting is None:
        return
    g = sol.grid
    mu, eta = sol.visc.shear, sol.visc.bulk
    grad_u = oracle_gradient(g, state.u, state.v)
    gxx, gxy = grad_u[..., 0, 0], grad_u[..., 0, 1]
    gyx, gyy = grad_u[..., 1, 0], grad_u[..., 1, 1]
    div = gxx + gyy
    shear = gxy + gyx
    gv, dv = lifting.box_fields(state.t)
    box = lifting.box
    i, j = box
    rho = state.rho[box]
    uc = 0.5 * (state.u[i.start + 1:i.stop + 1, j] + state.u[i.start:i.stop, j])
    vc = 0.5 * (state.v[i, j.start + 1:j.stop + 1] + state.v[i, j.start:j.stop])
    lam = eta - (2.0 / 3.0) * mu
    sxx = 2.0 * mu * gxx[box] + lam * div[box]
    syy = 2.0 * mu * gyy[box] + lam * div[box]
    sxy = mu * shear[box]
    integrand = (
        (sxx - rho * uc * uc) * gv[..., 0, 0]
        + (sxy - rho * uc * vc) * (gv[..., 0, 1] + gv[..., 1, 0])
        + (syy - rho * vc * vc) * gv[..., 1, 1]
        - rho * (uc * dv[..., 0] + vc * dv[..., 1])
    )
    ledger.v_work += dt * float(np.sum(integrand[lifting.box_active])) * g.h**2


def oracle_transport_step(inc, un, wn, wt, dt, interior, known, other_known, cell_act):
    """The incompressible solver's advection-diffusion of one component."""
    h = inc.grid.h
    du = oracle_transport(un, wn, wt, interior, other_known, cell_act, h)
    lap = oracle_laplacian(un, known, h)
    du[1:-1, :] -= inc.nu * lap[1:-1, :]
    return np.where(interior, un - dt * du, un)


# -- random fields on two grids ---------------------------------------------

LAW = PressureLaw(1.0, 2.0, 1.0)
VISC = ViscosityPair(0.01, 0.004)  # a bulk viscosity, so every term counts

GRIDS = {
    "obstacle": lambda: build_grid(2, 1.0, 0.15, 1.0 / 32.0),
    "default": lambda: build_grid(2, 2.0, 0.25, 1.0 / 32.0),
}


@pytest.fixture(scope="module", params=sorted(GRIDS))
def grid(request):
    return GRIDS[request.param]()


def _fields(grid, seed, unknown=np.nan):
    """Random rho, u, v, p and div on the grid; u and v hold `unknown` on
    the faces whose value is not known (NaN: no kernel may read them),
    or random values there too when it is None."""
    g = grid
    rng = np.random.default_rng(seed)
    rho = 1.0 + 0.2 * rng.standard_normal((g.nx, g.ny))
    u = rng.standard_normal((g.nx + 1, g.ny))
    v = rng.standard_normal((g.nx, g.ny + 1))
    if unknown is not None:
        ku, kv = face_masks(g, "known")
        u = np.where(ku, u, unknown)
        v = np.where(kv, v, unknown)
    p = rng.standard_normal((g.nx, g.ny))
    div = rng.standard_normal((g.nx, g.ny))
    return rho, u, v, p, div


def _oriented(grid, seed, axis, unknown=np.nan):
    """One component's inputs (rho, rho_new, un, wn, wt, p, div), 2-D and
    oriented as the oracles read them: as x-face arrays, the y-component's
    transposed."""
    rho, u, v, p, div = _fields(grid, seed, unknown)
    rho_new = rho + 0.01 * np.random.default_rng(seed + 1).standard_normal(rho.shape)
    wu, wv = u - 0.1, v + 0.05
    if axis == 0:
        return rho, rho_new, u, wu, wv, p, div
    return rho.T, rho_new.T, v.T, wv.T, wu.T, p.T, div.T


def _flat(grid, a, axis):
    """An oriented 2-D array in the grid's padded layout, every ghost
    entry NaN."""
    return grid.layout.padded(a.T if axis else a, np.nan)


def _real(grid, f, axis):
    """The real entries of a flat face array of the component, oriented
    as the oracles'."""
    lay = grid.layout
    assert f.shape == (lay.size,) and f.flags.c_contiguous
    return lay.yfaces(f).T if axis else lay.xfaces(f)


# each case runs one per-component kernel on flat padded inputs with NaN
# ghosts and returns its real output entries and the oracle's, oriented alike


def _upwind_transport_case(grid, axis, unknown):
    rho, _, un, wn, wt, _, _ = _oriented(grid, 11, axis, unknown)
    interior, _, other_known, cell_act = oracle_masks(grid)[axis]
    q = oracle_center_to_xface(rho) * un
    got = upwind_transport(*(_flat(grid, a, axis) for a in (q, wn, wt)),
                           grid.component_masks[axis], grid.h)
    return _real(grid, got, axis), oracle_transport(q, wn, wt, interior, other_known,
                                                    cell_act, grid.h)


def _mirror_laplacian_case(grid, axis, unknown):
    # exact off the two edges across the component, which every caller
    # overwrites: there a v-neighbor wraps to the next row
    un = _oriented(grid, 12, axis, unknown)[2]
    known = oracle_masks(grid)[axis][1]
    got = mirror_laplacian(_flat(grid, un, axis), grid.component_masks[axis], grid.h)
    return _real(grid, got, axis)[1:-1], oracle_laplacian(un, known, grid.h)[1:-1]


def _mass_flux_case(grid, axis, unknown):
    rho, _, _, wn, _, p, _ = _oriented(grid, 13, axis, unknown)
    c_cell = np.abs(p) + 1.0
    got = _mass_flux(*(_flat(grid, a, axis) for a in (rho, wn, c_cell)),
                     grid.component_masks[axis])
    return _real(grid, got, axis), oracle_mass_flux(rho, wn, c_cell,
                                                    oracle_masks(grid)[axis][0])


def _momentum_update_case(grid, axis, unknown):
    # the known-face copy um holds zeros on its unknown faces and ghosts,
    # as the step builds it; the viscous work is compared here, exactly,
    # and the component on its interior faces, since the step's enforce_bc
    # sets every other face
    args = _oriented(grid, 14, axis, unknown)
    masks = oracle_masks(grid)[axis]
    um = np.where(masks[1], args[2], 0.0)
    sol = CompressibleSolver(grid, LAW, VISC, static_path(1.0))
    eps, dt = 0.025, 1e-4
    flat = [_flat(grid, a, axis) for a in args]
    flat.insert(3, grid.layout.padded(um.T if axis else um))
    got, got_work = sol._momentum_update(*flat, eps, dt, grid.component_masks[axis])
    want, force = oracle_momentum(sol, *args, eps, dt, *masks)
    assert np.isfinite(got_work) and got_work == oracle_work(grid, force, um, axis)
    interior = masks[0]
    return _real(grid, got, axis)[interior], want[interior]


def _incompressible_transport_case(grid, axis, unknown):
    _, _, un, wn, wt, _, _ = _oriented(grid, 15, axis, unknown)
    inc = IncompressibleSolver(grid, 0.01, static_path(1.0))
    got = inc._transport(*(_flat(grid, a, axis) for a in (un, wn, wt)), 1e-3,
                         grid.component_masks[axis])
    return _real(grid, got, axis), oracle_transport_step(inc, un, wn, wt, 1e-3,
                                                         *oracle_masks(grid)[axis])


def _center_to_face_case(grid, axis, unknown):
    rho = _oriented(grid, 16, axis, unknown)[0]
    got = average_to_face(_flat(grid, rho, axis), grid.component_masks[axis].normal,
                          grid.layout)
    return _real(grid, got, axis), oracle_center_to_xface(rho)


def _face_to_center_case(grid, axis, unknown):
    un = _oriented(grid, 17, axis, unknown)[2]
    got = grid.layout.cells(average_to_center(_flat(grid, un, axis),
                                              grid.component_masks[axis].normal))
    return (got.T if axis else got), 0.5 * (un[1:] + un[:-1])


COMPONENT_CASES = {
    "upwind_transport": _upwind_transport_case,
    "mirror_laplacian": _mirror_laplacian_case,
    "mass_flux": _mass_flux_case,
    "momentum_update": _momentum_update_case,
    "incompressible_transport": _incompressible_transport_case,
    "center_to_face": _center_to_face_case,
    "face_to_center": _face_to_center_case,
}


@pytest.mark.parametrize("axis", [0, 1])
class TestKernelOracles:
    """The flat kernels on inputs whose unknown faces and ghost entries are
    NaN, both components through the same code with swapped strides."""

    def test_upwind_transport(self, grid, axis):
        np.testing.assert_array_equal(*_upwind_transport_case(grid, axis, np.nan))

    def test_mirror_laplacian(self, grid, axis):
        np.testing.assert_array_equal(*_mirror_laplacian_case(grid, axis, np.nan))

    def test_mass_flux(self, grid, axis):
        np.testing.assert_array_equal(*_mass_flux_case(grid, axis, np.nan))

    def test_momentum_update(self, grid, axis):
        np.testing.assert_array_equal(*_momentum_update_case(grid, axis, np.nan))

    def test_incompressible_transport(self, grid, axis):
        np.testing.assert_array_equal(*_incompressible_transport_case(grid, axis, np.nan))


@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("case", sorted(COMPONENT_CASES))
def test_ghost_entries_never_leak(grid, case, axis):
    """With every real input finite and every ghost entry NaN, each
    per-component kernel's real output entries are finite and equal the
    oracle's."""
    got, want = COMPONENT_CASES[case](grid, axis, None)
    assert np.all(np.isfinite(got))
    np.testing.assert_array_equal(got, want)


def test_grid_kernels_ghost_entries_never_leak(grid):
    """Both divergences and the velocity gradient read no ghost entry of
    their flat inputs; the gradient is compared on the active cells, the
    only ones its readers read."""
    lay = grid.layout
    _, u, v, _, _ = _fields(grid, 19, None)
    uf, vf = lay.padded(u, np.nan), lay.padded(v, np.nan)
    for boundary in (True, False):
        got = grid.ops.div(uf, vf, include_boundary_faces=boundary)
        assert np.all(np.isfinite(got))
        np.testing.assert_array_equal(got, oracle_div(grid, u, v, boundary))
    comps, avgs = known_gradient(grid, *known_faces(grid, uf, vf))
    got = np.stack([lay.cells(c) for c in comps], axis=-1).reshape(grid.nx, grid.ny, 2, 2)
    assert all(c.shape == (lay.size,) for c in comps + avgs)
    assert np.all(np.isfinite(got))
    np.testing.assert_array_equal(got[grid.active], oracle_gradient(grid, u, v)[grid.active])
    # the averages read the unknown faces as zero
    ku, kv = face_masks(grid, "known")
    want = oracle_face_to_center(np.where(ku, u, 0.0), np.where(kv, v, 0.0))
    for c, w in zip(avgs, want):
        np.testing.assert_array_equal(lay.cells(c), w)


def test_flat_recovers_only_its_own_views(grid):
    """layout.flat hands back the buffer behind a cell, x-face or y-face
    view of it and refuses anything else: a plain array of a layout shape,
    a view that starts inside the buffer, another shape."""
    lay = grid.layout
    f = np.arange(float(lay.size))
    for view in (lay.cells(f), lay.xfaces(f), lay.yfaces(f)):
        assert lay.flat(view) is f
    shifted = lay.xfaces(f)[1:]  # cell-shaped, but one row into the buffer
    short = lay.cells(f)[:-1]  # starts at the buffer, but of no layout shape
    unpickled = pickle.loads(pickle.dumps(lay.cells(f)))  # its base is no array
    for other in (np.zeros((grid.nx, grid.ny)), shifted, short, unpickled):
        with pytest.raises(ValueError, match="no cell, x-face or y-face view"):
            lay.flat(other)
    with pytest.raises(ValueError, match="no cell, x-face or y-face array"):
        lay.padded(short)


def test_enter_pads_into_the_matching_view(grid):
    """layout.enter copies a cell, x-face or y-face array into a fresh
    buffer, ghosts set to its fill, and returns the view of that shape."""
    lay = grid.layout
    rng = np.random.default_rng(0)
    for shape in lay.parts:
        a = rng.standard_normal(shape)
        view = lay.enter(a, np.nan)
        np.testing.assert_array_equal(view, a)
        f = lay.flat(view)
        assert not np.shares_memory(f, a)
        assert np.isnan(f).sum() == lay.size - a.size
    with pytest.raises(ValueError, match="no cell, x-face or y-face array"):
        lay.enter(np.zeros(lay.shape))


def test_one_layout_owner():
    """Only geometry builds a PaddedLayout, one per grid, and the 2-D
    wrappers around the layout's kernels are defined nowhere in machlab."""
    gone = {"face_to_center", "center_to_xface", "center_to_yface", "velocity_gradient",
            "velocity_gradient_components"}
    for path in sorted(Path(machlab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        builds = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
                  and "PaddedLayout" in (getattr(node.func, "id", None),
                                         getattr(node.func, "attr", None))]
        assert not builds or path.stem == "geometry", path.name
        defined = {node.name for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        defined |= {target.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
                    for target in node.targets if isinstance(target, ast.Name)}
        assert not defined & gone, (path.name, defined & gone)


def test_step_ghost_entries_never_leak(grid):
    """One step, its CFL limit, its viscous work and its ledger on a state
    whose ghost entries are NaN agree bit for bit with the oracle step and
    ledger on plain 2-D arrays; every real output entry is finite."""
    lay = grid.layout
    path = linear_path((0.1, -0.05), 1.0)
    sol = CompressibleSolver(grid, LAW, VISC, path, 0.25)
    rho, u, v, _, _ = _fields(grid, 20, None)
    plain = oracle_enforce_bc(grid, path, FluidState(rho, u, v, 0.13, 0.1))
    ghosted = FluidState(*(lay.enter(a, np.nan) for a in (plain.rho, plain.u, plain.v)),
                         plain.t, plain.eps)
    dt = sol.cfl_limit(ghosted)
    zero_ghosts = FluidState(*(in_layout(grid, a) for a in (plain.rho, plain.u, plain.v)),
                             plain.t, plain.eps)
    assert dt == sol.cfl_limit(zero_ghosts)
    got, want = EnergyLedger(), EnergyLedger()
    new, old = sol.step(ghosted, dt, got), oracle_step(sol, plain, dt, want)
    for name in ("rho", "u", "v"):
        assert np.all(np.isfinite(getattr(new, name)))
        np.testing.assert_array_equal(getattr(new, name), getattr(old, name))
    assert got.sponge_mass == want.sponge_mass != 0.0
    assert np.isfinite(got.dissipation) and np.isfinite(got.v_work) and got.v_work != 0.0
    assert got == want


def test_velocity_gradient_and_dissipation(grid):
    """The four 2-D gradient components stack to the old (nx, ny, 2, 2)
    field on the active cells, and a step books the oracle step's viscous
    work and the lifting work read from that field, bit for bit."""
    lay = grid.layout
    _, u, v, _, _ = _fields(grid, 16)
    u, v = in_layout(grid, u), in_layout(grid, v)
    comps, _ = known_gradient(grid, *known_faces(grid, u, v))
    got = np.stack([lay.cells(c) for c in comps], axis=-1).reshape(grid.nx, grid.ny, 2, 2)
    np.testing.assert_array_equal(got[grid.active], oracle_gradient(grid, u, v)[grid.active])
    for path in (static_path(1.0), linear_path((0.1, -0.05), 1.0)):
        sol = CompressibleSolver(grid, LAW, VISC, path)
        rho, _, _, _, _ = _fields(grid, 17)
        state = enforce_bc(grid, path, FluidState(
            *(in_layout(grid, a) for a in (rho, u, v)), 0.13, 0.1))
        dt = sol.cfl_limit(state)
        got, want = EnergyLedger(), EnergyLedger()
        sol.step(state, dt, got)
        oracle_step(sol, state, dt, want)
        assert got.dissipation > 0.0 and got == want
        assert (got.v_work == 0.0) == (sol.lifting is None)


def _march_against_oracle(text, eps, steps):
    """`steps` steps of a config through the solver and the oracle step,
    each booking into a ledger of its own: fields and ledgers equal bit for
    bit after every step. Returns the state each step started from with the
    solver's ledger of that step."""
    cfg = parse_config(text)
    scenario = build_scenario(cfg)
    sol = scenario.solver
    state = sol.init_state(*scenario.initial_fields, eps)
    new, old = state, state
    booked = []
    for _ in range(steps):
        dt = sol.cfl_limit(new)
        got, want = EnergyLedger(), EnergyLedger()
        new_next, old_next = sol.step(new, dt, got), oracle_step(sol, old, dt, want)
        assert got == want, new.t
        booked.append((new, got))
        new, old = new_next, old_next
        for name in ("rho", "u", "v"):
            np.testing.assert_array_equal(getattr(new, name), getattr(old, name))
    return booked


@pytest.mark.parametrize("text", [MINI_CFG, SINUSOIDAL_MINI_CFG], ids=["mini", "sinusoidal"])
@pytest.mark.parametrize("eps", [0.2, 0.1])
def test_twenty_steps_match_oracle(text, eps):
    """Twenty steps of the mini config, the solver against the oracle step,
    fields and each step's ledger equal bit for bit."""
    booked = _march_against_oracle(text, eps, 20)
    assert all(ledger.dissipation > 0.0 and ledger.v_work != 0.0 for _, ledger in booked)


def test_thirty_stiff_steps_match_oracle():
    """Thirty steps of the mini config at eps = 0.025 with its sponge on,
    the production step against the step composed of the 2-D oracles:
    rho, u, v and each step's ledger equal bit for bit after every step."""
    assert parse_config(MINI_CFG)["numerics"]["sponge_width"] > 0.0
    booked = _march_against_oracle(MINI_CFG, 0.025, 30)
    assert any(ledger.sponge_mass != 0.0 for _, ledger in booked)


def _work_by_face(sol, state):
    """-u F_visc on each interior face of both components of a state, the
    terms of the viscous work a step books (over dt h^2), as (component,
    i, j, term) sorted by term, most negative first."""
    g = sol.grid
    h = g.h
    mu, eta = sol.visc.shear, sol.visc.bulk
    div_full = oracle_div(g, state.u, state.v)
    terms = []
    for axis, (un, dv) in enumerate(((state.u, div_full), (state.v.T, div_full.T))):
        interior, known = oracle_masks(g)[axis][:2]
        force = mu * oracle_laplacian(un, known, h)
        force[1:-1] += (mu / 3.0 + eta) * (dv[1:] - dv[:-1]) / h
        term = np.where(interior, -un * force, 0.0)
        term = term.T if axis else term
        terms += [("uv"[axis], int(i), int(j), float(term[i, j]))
                  for i, j in zip(*np.nonzero(term))]
    return sorted(terms, key=lambda t: t[3])


def test_thirty_static_steps_match_oracle():
    """Thirty steps of the static mini config at eps = 0.025 with its
    sponge on: with the body at rest the step transports with u and v
    themselves, and still matches the oracle, which subtracts m' = 0,
    fields and each step's ledger bit for bit. Every step's viscous work is
    nonnegative: with every prescribed face at rest the free-slip
    Laplacian and grad div are symmetric negative semidefinite on the
    interior faces."""
    cfg = parse_config(STATIC_MINI_CFG)
    assert cfg["motion"]["kind"] == "static" and cfg["numerics"]["sponge_width"] > 0.0
    booked = _march_against_oracle(STATIC_MINI_CFG, 0.025, 30)
    assert sum(ledger.dissipation for _, ledger in booked) > 0.0
    for state, ledger in booked:
        work = ledger.dissipation
        assert work >= 0.0, (state.t, work, _work_by_face(build_scenario(cfg).solver,
                                                          state)[:10])


def test_incompressible_steps_match_oracle():
    """Ten incompressible steps of the mini config against the oracle
    advection-diffusion followed by the solver's own projection."""
    cfg = parse_config(SINUSOIDAL_MINI_CFG)
    scenario = build_scenario(cfg)
    g = scenario.grid
    inc = IncompressibleSolver(g, 0.01, scenario.path)
    u0, v0 = initial_velocity(cfg, g, np.random.default_rng(0))
    state = inc.init_state(u0, v0)
    old = state
    for _ in range(10):
        dt = 0.25 * inc.cfl_limit(state)  # ten steps stay inside the horizon
        _, mp, _ = eval_motion(inc.path, old.t)
        wu, wv = old.u - mp[0], old.v - mp[1]
        x_masks, y_masks = oracle_masks(g)
        u_star = oracle_transport_step(inc, old.u, wu, wv, dt, *x_masks)
        v_star = oracle_transport_step(inc, old.v.T, wv.T, wu.T, dt, *y_masks).T
        star = type(old)(in_layout(g, u_star), in_layout(g, v_star), old.t + dt)
        old = inc._project(enforce_bc(g, inc.path, star))
        state = inc.step(state, dt)
        np.testing.assert_array_equal(state.u, old.u)
        np.testing.assert_array_equal(state.v, old.v)


def test_face_averages_match_oracle(grid):
    lay = grid.layout
    rho, u, v, _, _ = _fields(grid, 18)
    rho, u, v = (in_layout(grid, a) for a in (rho, u, v))
    got = (average_to_center(lay.flat(u), lay.row), average_to_center(lay.flat(v), 1))
    for c, want in zip(got, oracle_face_to_center(u, v)):
        np.testing.assert_array_equal(lay.cells(c), want)
    np.testing.assert_array_equal(lay.xfaces(average_to_face(lay.flat(rho), lay.row, lay)),
                                  oracle_center_to_xface(rho))
    np.testing.assert_array_equal(lay.yfaces(average_to_face(lay.flat(rho), 1, lay)),
                                  oracle_center_to_yface(rho))
    np.testing.assert_array_equal(grid.ops.div(u, v, include_boundary_faces=True),
                                  oracle_div(grid, u, v))
