"""Discrete operator tests.

The scheme must reproduce even quadratics exactly (flux faces and cut
rows are both exact there), show second order on a manufactured quartic,
keep the weighted symmetry of the continuous operator on interior nodes,
and agree with an independently assembled full-plane discretization at
a = 0, where the axis fold is nothing but even reflection.
"""

import gc
import re
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from weinstein import (
    Ball,
    Box,
    Ellipsoid,
    GridTooCoarse,
    MissingBoundaryData,
    PolyField,
    ScalarField,
    StaggeredGrid,
    StencilLeavesDomain,
    UnsupportedShape,
    WeinsteinParams,
    apply_operator,
    assemble_torsion_system,
    boundary_normal_gradient,
    boundary_samples,
    field_from_csv,
    field_to_csv,
    grid_geometry,
    normal_derivative_at_axis,
    solve,
)
from weinstein.gamma import BesselWeights, bessel_sum_apply
from weinstein.measure import r_cell_measure


def _torsion(domain, params, h, tol=1e-12):
    grid = StaggeredGrid.from_domain(domain, h)
    system = assemble_torsion_system(domain, grid, params)
    u, report = solve(system, tol=tol)
    return u, report


# -- exact reproduction of even quadratics ------------------------------------


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
def test_ball_torsion_solution_is_nodal_exact(a):
    params = WeinsteinParams(a=a, k=1)
    dom = Ball(1.0)
    u, report = _torsion(dom, params, 1.0 / 16)
    assert report.converged
    pts = u.grid.node_points()[u.geometry.inside]
    exact = (1.0 - pts[:, 0] ** 2 - pts[:, 1] ** 2) / (2.0 * params.dim_eff)
    err = np.max(np.abs(u.active_values() - exact))
    assert err <= 1e-9


def test_shifted_ellipsoid_torsion_solution_is_nodal_exact():
    # the torsion solution on an axis-aligned ellipsoid is still an even
    # quadratic, so the scheme has no discretization error there either
    params = WeinsteinParams(a=1.0, k=1)
    A, B, c = 1.0, 2.0, 0.4
    dom = Ellipsoid(semi_axes=(A, B), center=(c,))
    C = 1.0 / (2.0 * (1.0 + params.a) / A**2 + 2.0 / B**2)
    u, report = _torsion(dom, params, 1.0 / 16)
    assert report.converged
    pts = u.grid.node_points()[u.geometry.inside]
    exact = C * (1.0 - pts[:, 0] ** 2 / A**2 - (pts[:, 1] - c) ** 2 / B**2)
    assert np.max(np.abs(u.active_values() - exact)) <= 1e-9


def test_apply_operator_on_exact_quadratic_gives_minus_one_everywhere():
    params = WeinsteinParams(a=1.0, k=1)
    dom = Ball(1.0)
    grid = StaggeredGrid.from_domain(dom, 1.0 / 16)
    N = params.dim_eff
    fn = lambda p: (1.0 - np.sum(p**2, axis=-1)) / (2.0 * N)
    u = ScalarField.from_function(dom, grid, fn)
    Lu = apply_operator(u, params)
    vals = Lu.active_values()
    assert np.max(np.abs(vals + 1.0)) <= 1e-9


def test_apply_operator_on_constant_is_zero():
    params = WeinsteinParams(a=2.0, k=1)
    dom = Ball(1.0)
    grid = StaggeredGrid.from_domain(dom, 1.0 / 16)
    u = ScalarField.from_function(dom, grid, lambda p: np.full(p.shape[:-1], 3.0))
    Lu = apply_operator(u, params)
    assert np.max(np.abs(Lu.active_values())) <= 1e-10


def test_apply_operator_rows_mask_skips_boundary_data():
    params = WeinsteinParams(a=1.0, k=1)
    dom = Ball(1.0)
    grid = StaggeredGrid.from_domain(dom, 1.0 / 16)
    geo = grid_geometry(dom, grid)
    vec = np.linspace(0.0, 1.0, int(np.count_nonzero(geo.inside)))
    u = ScalarField.from_active_vector(grid, dom, vec)  # no Dirichlet data
    with pytest.raises(MissingBoundaryData):
        apply_operator(u, params)
    pts = grid.node_points()
    deep = geo.inside & (dom.signed_distance(pts.reshape(-1, 2)).reshape(grid.shape) <= -4 * grid.h_r)
    Lu = apply_operator(u, params, rows_mask=deep)
    vals = Lu.values[deep]
    assert np.all(np.isfinite(vals))
    assert np.all(np.isnan(Lu.values[~deep]))


# -- manufactured quartic: genuine second order --------------------------------


def _quartic_errors(hs):
    params = WeinsteinParams(a=1.0, k=1)
    c = 0.4
    dom = Ball(1.0, center=(c,))
    r, y = PolyField.variable(0, 2), PolyField.variable(1, 2)
    rho2 = r * r + (y - c) * (y - c)
    v = rho2 * rho2 + rho2
    rhs_poly = bessel_sum_apply(v, BesselWeights.weinstein(params))
    errs = []
    for h in hs:
        grid = StaggeredGrid.from_domain(dom, h)
        system = assemble_torsion_system(
            dom, grid, params,
            rhs=lambda p: rhs_poly.eval_float(p),
            dirichlet=lambda p: v.eval_float(p),
        )
        u, _ = solve(system, tol=1e-12)
        pts = grid.node_points()[u.geometry.inside]
        errs.append(np.max(np.abs(u.active_values() - v.eval_float(pts))))
    return errs


def test_manufactured_quartic_converges_at_second_order():
    errs = _quartic_errors([1.0 / 8, 1.0 / 16, 1.0 / 32])
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert errs[0] > 1e-6  # a quartic is not in the exactness class
    assert all(o >= 1.9 for o in orders), (errs, orders)


# -- weighted symmetry ----------------------------------------------------------


def test_operator_is_self_adjoint_in_weighted_inner_product_on_interior():
    params = WeinsteinParams(a=1.5, k=1)
    dom = Ball(1.0)
    grid = StaggeredGrid.from_domain(dom, 1.0 / 16)
    system = assemble_torsion_system(dom, grid, params)
    geo = grid_geometry(dom, grid)
    pts = grid.node_points().reshape(-1, 2)[geo.inside.reshape(-1)]
    sd = dom.signed_distance(pts)
    support = sd <= -3 * grid.h_r
    assert np.count_nonzero(support) > 50
    rng = np.random.default_rng(7)
    # weighted cell measure V_i h_y^k of every active node
    cells = r_cell_measure(grid, params)[:, None] * grid.h_y**grid.k * np.ones(grid.shape)
    w = cells[geo.inside]
    gaps = []
    for _ in range(5):
        u = np.where(support, rng.standard_normal(system.n), 0.0)
        v = np.where(support, rng.standard_normal(system.n), 0.0)
        Au, Av = system.A @ u, system.A @ v
        s1 = float(np.sum(w * Au * v))
        s2 = float(np.sum(w * u * Av))
        scale = np.sum(np.abs(w * Au * v)) + np.sum(np.abs(w * u * Av))
        gaps.append(abs(s1 - s2) / scale)
    assert max(gaps) <= 1e-12


# -- reflection consistency at a = 0 --------------------------------------------
#
# At a = 0 the half-grid scheme (zero flux through r = 0, ghost fold in the
# cut rows) must coincide with an ordinary full-plane discretization of the
# Laplacian on the reflected box, restricted to r > 0.  The oracle below is
# assembled independently: plain 5-point stencil with Shortley-Weller arms
# at the walls, no axis logic at all, solved with a direct method.


def _full_plane_box_solve(h, r_wall, y_wall, y_center, y_nodes):
    pos = (np.arange(int(np.ceil(r_wall / h - 0.5 - 1e-12))) + 0.5) * h
    r_nodes = np.concatenate([-pos[::-1], pos])
    ny, nr = len(y_nodes), len(r_nodes)
    n = nr * ny
    idx = lambda i, j: i * ny + j
    rows, cols, vals = [], [], []
    rhs = np.full(n, -1.0)

    def add_axis(i, j, coords, lo, hi, pos_in_axis, neighbor):
        x = coords[pos_in_axis]
        arm_m = x - lo if pos_in_axis == 0 and i == 0 else None  # unused
        # arms to the two neighbors, clipped at the walls
        hm = x - lo if neighbor(-1) is None else h
        hp = hi - x if neighbor(+1) is None else h
        den = hm * hp * (hm + hp)
        c_m, c_p = 2.0 * hp / den, 2.0 * hm / den
        rows.append(idx(i, j)); cols.append(idx(i, j)); vals.append(-2.0 * (hm + hp) / den)
        for direction, coeff in ((-1, c_m), (1, c_p)):
            nb = neighbor(direction)
            if nb is not None:  # wall contributions carry value 0
                rows.append(idx(i, j)); cols.append(nb); vals.append(coeff)

    for i, r in enumerate(r_nodes):
        for j, y in enumerate(y_nodes):
            add_axis(
                i, j, (r, y), -r_wall, r_wall, 0,
                lambda d: idx(i + d, j) if 0 <= i + d < nr else None,
            )
            add_axis(
                i, j, (r, y), y_center - y_wall, y_center + y_wall, 1,
                lambda d: idx(i, j + d) if 0 <= j + d < ny else None,
            )
    A = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    u = spla.spsolve(A, rhs)
    return r_nodes, u.reshape(nr, ny)


def test_half_grid_matches_full_plane_oracle_at_a_zero():
    h = 1.0 / 8
    y_center, r_wall, y_wall = 0.15, 0.5, 0.5
    params = WeinsteinParams(a=0.0, k=1)
    dom = Box(half_widths=(r_wall, y_wall), center=(y_center,))
    u, report = _torsion(dom, params, h)
    assert report.converged

    geo = u.geometry
    inside_cols = np.argwhere(geo.inside)
    i_in = np.unique(inside_cols[:, 0])
    j_in = np.unique(inside_cols[:, 1])
    y_nodes = u.grid.y_nodes(0)[j_in]
    r_full, u_full = _full_plane_box_solve(h, r_wall, y_wall, y_center, y_nodes)

    # the full-plane solution is even in r (symmetric domain and data)
    assert np.max(np.abs(u_full - u_full[::-1, :])) <= 1e-10

    half = u_full[len(r_full) // 2 :, :]  # rows r = (i + 1/2) h
    mismatch = 0.0
    for col, i in enumerate(i_in):
        for row, j in enumerate(j_in):
            mismatch = max(mismatch, abs(u.values[i, j] - half[col, row]))
    assert mismatch <= 1e-8


# -- boundary and axis probes ----------------------------------------------------


def test_ball_boundary_gradient_is_exact_on_quadratic_solution():
    params = WeinsteinParams(a=1.0, k=1)
    u, _ = _torsion(Ball(1.0), params, 1.0 / 16)
    samples = boundary_samples(u.domain, 4000)
    g = boundary_normal_gradient(u, samples=samples)
    c = 1.0 / params.dim_eff
    assert np.max(np.abs(g - c)) <= 1e-9
    w = samples.weights
    mean = float(np.sum(w * g) / np.sum(w))
    assert abs(mean - c) <= 1e-10


def test_boundary_gradient_rejects_corners_and_missing_data():
    params = WeinsteinParams(a=1.0, k=1)
    u, _ = _torsion(Box(half_widths=(0.5, 0.5)), params, 1.0 / 16)
    with pytest.raises(UnsupportedShape):
        boundary_normal_gradient(u)
    ball_u, _ = _torsion(Ball(1.0), params, 1.0 / 16)
    bare = ScalarField.from_active_vector(
        ball_u.grid, ball_u.domain, ball_u.active_values()
    )
    with pytest.raises(MissingBoundaryData):
        boundary_normal_gradient(bare)
    with pytest.raises(StencilLeavesDomain):
        boundary_normal_gradient(ball_u, depth=2.0)


def test_axis_derivative_vanishes_on_ball_and_decays_on_box():
    params = WeinsteinParams(a=1.0, k=1)
    u, _ = _torsion(Ball(1.0), params, 1.0 / 16)
    _, d = normal_derivative_at_axis(u)
    assert np.max(np.abs(d)) <= 1e-10  # exact for even quadratics

    dom = Box(half_widths=(0.5, 0.75))
    maxes = []
    for h in (1.0 / 16, 1.0 / 32):
        ub, _ = _torsion(dom, params, h)
        _, db = normal_derivative_at_axis(ub)
        maxes.append(float(np.max(np.abs(db))))
    assert maxes[0] <= 1e-3
    assert maxes[0] / maxes[1] >= 2.5  # genuine grid convergence, order > 1.3


# -- CSV round trip ---------------------------------------------------------------


def test_field_csv_round_trip_is_exact(tmp_path):
    params = WeinsteinParams(a=1.0, k=1)
    u, _ = _torsion(Ball(1.0), params, 1.0 / 16)
    path = tmp_path / "u.csv"
    field_to_csv(u, path)
    back = field_from_csv(path, u.grid, u.domain)
    inside = u.geometry.inside
    assert np.array_equal(back.values[inside], u.values[inside])
    with open(path) as fh:
        header = fh.readline().strip()
    assert header == "r,y1,u"


def test_field_csv_rejects_alien_grid(tmp_path):
    params = WeinsteinParams(a=1.0, k=1)
    dom = Ball(1.0)
    u, _ = _torsion(dom, params, 1.0 / 16)
    path = tmp_path / "u.csv"
    field_to_csv(u, path)
    other = StaggeredGrid.from_domain(dom, 1.0 / 24)
    with pytest.raises(ValueError, match="grid node"):
        field_from_csv(path, other, dom)
    with open(path) as fh:
        body = fh.read().splitlines()
    body[0] = "r,y1,y2,u"
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(body) + "\n")
    with pytest.raises(ValueError, match="columns"):
        field_from_csv(bad, u.grid, dom)


def test_field_csv_rejects_rows_off_the_grid(tmp_path):
    dom = Ball(1.0)
    grid = StaggeredGrid.from_domain(dom, 1.0 / 8)
    path = tmp_path / "u.csv"
    # where node n_r would sit, one layer past the lattice
    r = (grid.n_r + 0.5) * grid.h_r
    path.write_text(f"r,y1,u\n{r!r},{grid.y_start[0]!r},1.0\n")
    with pytest.raises(ValueError, match="grid node"):
        field_from_csv(path, grid, dom)


def test_field_csv_rejects_a_node_named_twice(tmp_path):
    params = WeinsteinParams(a=1.0, k=1)
    u, _ = _torsion(Ball(1.0), params, 1.0 / 8)
    path = tmp_path / "u.csv"
    field_to_csv(u, path)
    lines = path.read_text().splitlines()
    # the second node again, after the third, with another value
    r, y, _ = lines[2].split(",")
    path.write_text("\n".join(lines[:4] + [f"{r},{y},7.0"] + lines[4:]) + "\n")
    message = f"1 rows repeat a grid node, first at {[float(r), float(y)]}"
    with pytest.raises(ValueError, match=re.escape(message)):
        field_from_csv(path, u.grid, u.domain)


def test_field_csv_rejects_a_truncated_file(tmp_path):
    params = WeinsteinParams(a=1.0, k=1)
    u, _ = _torsion(Ball(1.0), params, 1.0 / 16)
    path = tmp_path / "u.csv"
    field_to_csv(u, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 1 + 406
    path.write_text("\n".join(lines[:-50]) + "\n")
    r, y, _ = lines[-50].split(",")
    message = f"50 inside nodes have no row, first at {[float(r), float(y)]}"
    with pytest.raises(ValueError, match=re.escape(message)):
        field_from_csv(path, u.grid, u.domain)


@pytest.mark.filterwarnings("ignore:loadtxt. input contained no data:UserWarning")
def test_field_csv_rejects_a_header_only_file(tmp_path):
    dom = Ball(1.0)
    grid = StaggeredGrid.from_domain(dom, 1.0 / 16)
    path = tmp_path / "u.csv"
    path.write_text("r,y1,u\n")
    with pytest.raises(ValueError, match="^406 inside nodes have no row, first at "):
        field_from_csv(path, grid, dom)


def test_field_csv_rejects_a_node_outside_the_domain(tmp_path):
    params = WeinsteinParams(a=1.0, k=1)
    u, _ = _torsion(Ball(1.0), params, 1.0 / 8)
    path = tmp_path / "u.csv"
    field_to_csv(u, path)
    # the lattice corner: on the grid, off the domain
    r, y = float(u.grid.r_nodes()[-1]), float(u.grid.y_nodes(0)[0])
    path.write_text(path.read_text() + f"{r!r},{y!r},0.5\n")
    message = f"1 rows name a node outside the domain, first at {[r, y]}"
    with pytest.raises(ValueError, match=re.escape(message)):
        field_from_csv(path, u.grid, u.domain)


# -- guards -----------------------------------------------------------------------


def test_assembly_rejects_too_coarse_grids():
    params = WeinsteinParams(a=1.0, k=1)
    dom = Ball(1.0)
    grid = StaggeredGrid.from_domain(dom, 0.5)
    with pytest.raises(GridTooCoarse):
        assemble_torsion_system(dom, grid, params)


def test_assembled_matrices_are_freed_with_their_systems():
    # a sweep over a builds one matrix per value; none may outlive its system
    dom = Ball(1.0)
    grid = StaggeredGrid.from_domain(dom, 1.0 / 8)
    refs = []
    for a in (0.0, 0.5, 1.0, 2.0):
        system = assemble_torsion_system(dom, grid, WeinsteinParams(a=a, k=1))
        refs.append(weakref.ref(system.A))
    del system
    gc.collect()
    assert [ref() for ref in refs] == [None] * len(refs)


def test_axis_probe_needs_three_r_layers():
    dom = Ball(1.0)
    grid = StaggeredGrid(h_r=0.5, h_y=0.5, n_r=2, n_y=(8,), y_start=(-1.75,))
    u = ScalarField(grid=grid, domain=dom, values=np.zeros(grid.shape))
    with pytest.raises(GridTooCoarse):
        normal_derivative_at_axis(u)
