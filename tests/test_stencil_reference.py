"""The array-built stencil, derivatives and CSV writer against references.

`_reference_stencil` is the per-node Shortley-Weller loop the operator
used to assemble near-boundary rows with, and `_reference_csv` the
per-row f-string writer.  The array code must reproduce both bit for bit:
the matrix arrays, the boundary couplings in their summation order, the
right-hand side, and the bytes of the file.  `_reference_derivatives` is
the numerator/denominator form the derivative stencils used before they
read `three_point_weights`; the two agree up to rounding.
`_reference_donors` is the per-node loop that picked the donor of each
covered cell whose centre is outside; the array code must pick the same.
"""

import dataclasses
import math

import numpy as np
import pytest
import scipy.sparse as sp

from weinstein import (
    Ball,
    Box,
    Ellipsoid,
    ScalarField,
    StaggeredGrid,
    WeinsteinParams,
    assemble_torsion_system,
    field_to_csv,
    grid_geometry,
)
from weinstein.differential import _arm_values, axis_derivative, axis_second_derivative
from weinstein.geometry import ARM_FLOOR, R_AXIS, three_point_weights
from weinstein.measure import r_cell_measure
from weinstein.operator import CSV_BLOCK_ROWS


def _reference_stencil(domain, grid, params):
    """(A, bc_rows, bc_coeffs, bc_points) assembled node by node."""
    geo = grid_geometry(domain, grid)
    dim = grid.k + 1
    shape = grid.shape
    flat_active = np.flatnonzero(geo.inside.reshape(-1))
    n_active = flat_active.size
    row_of = np.full(grid.n_nodes, -1, dtype=np.int64)
    row_of[flat_active] = np.arange(n_active)
    strides = np.array(
        [int(np.prod(shape[d + 1:], dtype=np.int64)) for d in range(dim)], dtype=np.int64
    )
    h = grid.h_r
    a = params.a
    m_r = r_cell_measure(grid, params)
    face = (np.arange(grid.n_r + 1) * h) ** a
    c_plus = face[1:] / (h * m_r)
    c_minus = face[:-1] / (h * m_r)
    c_minus[0] = 0.0
    hy2 = grid.h_y**2

    rows, cols, vals = [], [], []
    idx = np.argwhere(geo.interior)
    if idx.size:
        flat = idx @ strides
        r_i = idx[:, 0]
        rows += [row_of[flat], row_of[flat]]
        cols += [row_of[flat], row_of[flat + strides[0]]]
        vals += [-(c_plus[r_i] + c_minus[r_i]) - 2.0 * grid.k / hy2, c_plus[r_i]]
        has_minus = r_i > 0
        rows.append(row_of[flat[has_minus]])
        cols.append(row_of[flat[has_minus] - strides[0]])
        vals.append(c_minus[r_i[has_minus]])
        for m in range(grid.k):
            for direction in (1, -1):
                rows.append(row_of[flat])
                cols.append(row_of[flat + direction * strides[1 + m]])
                vals.append(np.full(flat.shape, 1.0 / hy2))

    bc_rows, bc_coeffs, bc_points = [], [], []
    node_pts = grid.node_points()
    for node in np.argwhere(geo.near):
        node_t = tuple(node)
        row = row_of[int(node @ strides)]
        pt = node_pts[node_t]
        diag = 0.0
        for axis in range(dim):
            step = h if axis == R_AXIS else grid.h_y
            arm = {}
            for direction in (1, -1):
                theta = geo.cut_theta[(axis, direction)][node_t]
                if np.isfinite(theta):
                    cut_pt = pt.copy()
                    cut_pt[axis] += direction * theta * step
                    arm[direction] = (max(theta, 1e-6) * step, ("bc", cut_pt))
                elif axis == R_AXIS and direction == -1 and node[0] == 0:
                    arm[direction] = (step, ("ghost", None))
                else:
                    nb = node.copy()
                    nb[axis] += direction
                    arm[direction] = (step, ("node", int(nb @ strides)))
            hp, src_p = arm[1]
            hm, src_m = arm[-1]
            den = hm * hp * (hm + hp)
            c_m = 2.0 * hp / den
            c_p = 2.0 * hm / den
            c_0 = -2.0 * (hm + hp) / den
            if axis == R_AXIS:
                ar = a / pt[0]
                c_m += ar * (-(hp**2) / den)
                c_p += ar * (hm**2 / den)
                c_0 += ar * ((hp**2 - hm**2) / den)
            diag += c_0
            for coeff, (kind, payload) in ((c_m, src_m), (c_p, src_p)):
                if kind == "node":
                    rows.append(np.array([row]))
                    cols.append(np.array([row_of[payload]]))
                    vals.append(np.array([coeff]))
                elif kind == "bc":
                    bc_rows.append(row)
                    bc_coeffs.append(coeff)
                    bc_points.append(payload)
                else:
                    diag += coeff
        rows.append(np.array([row]))
        cols.append(np.array([row]))
        vals.append(np.array([diag]))

    A = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_active, n_active),
    ).tocsr()
    return (A, np.array(bc_rows, dtype=np.int64), np.array(bc_coeffs),
            np.array(bc_points) if bc_points else np.zeros((0, dim)))


def _on_grid(domain, h):
    return domain, StaggeredGrid.from_domain(domain, h)


def _grazing_ball():
    # radius puts the node (3.5 h, 2.5 h) 1e-9 h inside the circle
    h = 1 / 16
    return _on_grid(Ball(math.hypot(3.5 * h, 2.5 * h) + 1e-9 * h, center=(0.0,)), h)


def _pinched_ball():
    # a y-lattice off the centre leaves one node of the column at r = 15.5 h
    # inside, with both of its y arms cut
    h = 1 / 16
    ball = Ball(15.5 * h + 1e-3, center=(0.0,))
    grid = StaggeredGrid.from_domain(ball, h)
    return ball, dataclasses.replace(grid, y_start=(grid.y_start[0] + 0.01 - h / 2,))


_CASES = {  # name: (domain, grid, a)
    "ellipsoid_k1_shifted": (*_on_grid(Ellipsoid((1.0, 2.0), center=(0.37,)), 1 / 40), 1.0),
    "ball_k2_a0": (*_on_grid(Ball(1.0, center=(0.0, 0.0)), 1 / 12), 0.0),
    "ball_k2_a05": (*_on_grid(Ball(1.0, center=(0.0, 0.0)), 1 / 12), 0.5),
    "ball_k3": (*_on_grid(Ball(1.0, center=(0.0, 0.0, 0.0)), 1 / 6), 1.0),
    "box_k1": (*_on_grid(Box(half_widths=(1.0, 1.5), center=(0.2,)), 1 / 16), 2.0),
    "grazing_ball": (*_grazing_ball(), 1.0),
    "pinched_ball": (*_pinched_ball(), 1.0),
}


def _bitwise_equal(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def _dirichlet(pts):
    return np.cos(3.0 * pts[..., 0]) + np.sum(pts[..., 1:] ** 3, axis=-1)


@pytest.mark.parametrize("name", list(_CASES))
def test_array_stencil_matches_the_per_node_loop_bitwise(name):
    domain, grid, a = _CASES[name]
    params = WeinsteinParams(a=a, k=domain.k)
    A, bc_rows, bc_coeffs, bc_points = _reference_stencil(domain, grid, params)
    system = assemble_torsion_system(domain, grid, params, dirichlet=_dirichlet)
    for attr in ("indptr", "indices", "data"):
        assert _bitwise_equal(getattr(system.A, attr), getattr(A, attr)), attr
    assert _bitwise_equal(system.bc_rows, bc_rows)
    assert _bitwise_equal(system.bc_coeffs, bc_coeffs)
    assert _bitwise_equal(system.bc_points, bc_points)

    want = np.zeros(system.n)
    np.add.at(want, bc_rows, bc_coeffs * _dirichlet(bc_points))
    assert _bitwise_equal(system.b, -1.0 - want)


def test_case_list_reaches_the_ghost_the_arm_floor_and_two_cut_arms():
    geo = grid_geometry(*_CASES["ball_k2_a0"][:2])
    assert (geo.near[0] & np.isnan(geo.cut_theta[(R_AXIS, -1)][0])).any()
    geo = grid_geometry(*_CASES["grazing_ball"][:2])
    theta = np.concatenate([t[np.isfinite(t)] for t in geo.cut_theta.values()])
    assert theta.min() < ARM_FLOOR
    geo = grid_geometry(*_CASES["pinched_ball"][:2])
    assert (np.isfinite(geo.cut_theta[(1, 1)]) & np.isfinite(geo.cut_theta[(1, -1)])).any()


def _reference_derivatives(field, axis):
    """First and second Shortley-Weller derivatives as one fraction each."""
    geo = grid_geometry(field.domain, field.grid)
    hp, vp, hm, vm = _arm_values(field, geo, axis)
    v0 = field.values
    den = hm * hp * (hm + hp)
    first = (-(hp**2) * vm + (hp**2 - hm**2) * v0 + hm**2 * vp) / den
    second = 2.0 * (hp * vm - (hm + hp) * v0 + hm * vp) / den
    return first, second


@pytest.mark.parametrize("name", list(_CASES))
def test_derivatives_match_the_fraction_form_to_rounding(name):
    domain, grid, _ = _CASES[name]
    geo = grid_geometry(domain, grid)
    values = np.where(geo.inside, _dirichlet(grid.node_points()), np.nan)
    field = ScalarField(grid=grid, domain=domain, values=values, boundary_values=_dirichlet)
    inside = geo.inside
    for axis in range(grid.k + 1):
        hp, vp, hm, vm = _arm_values(field, geo, axis)
        got = (axis_derivative(field, axis), axis_second_derivative(field, axis))
        for weights, new, ref in zip(three_point_weights(hm, hp), got,
                                     _reference_derivatives(field, axis)):
            assert np.array_equal(np.isnan(new), np.isnan(ref))
            # both forms round at the size of the terms they sum, which the
            # 1/h^2 weights (and 1/ARM_FLOOR on a grazing arm) make far
            # larger than the derivative itself
            terms = sum(np.abs(w * v) for w, v in zip(weights, (vm, values, vp)))
            assert np.all(np.abs(new - ref)[inside] <= 2e-15 * terms[inside]), axis


def _reference_csv(field, path):
    grid = field.grid
    geo = grid_geometry(field.domain, field.grid)
    pts = grid.node_points()[geo.inside]
    vals = field.values[geo.inside]
    header = "r," + ",".join(f"y{m + 1}" for m in range(grid.k)) + ",u"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for p, v in zip(pts, vals):
            coords = ",".join(f"{c:.17g}" for c in p)
            fh.write(f"{coords},{v:.17g}\n")


@pytest.mark.parametrize("domain,h,blocks", [
    (Ellipsoid(semi_axes=(1.0, 2.0), center=(0.1,)), 1 / 40, 3),
    (Ball(1.0, center=(0.0, 0.3)), 1 / 8, 1),
    (Ball(1.0, center=(0.0, 0.0, 0.0)), 1 / 10, 13),
    # a node column at y1 = 0 (up to rounding)
    (Ball(1.0, center=(1 / 24,)), 1 / 12, 1),
])
def test_block_csv_writer_matches_the_row_loop_bytes(tmp_path, domain, h, blocks):
    grid = StaggeredGrid.from_domain(domain, h)
    geo = grid_geometry(domain, grid)
    n_rows = int(geo.inside.sum())
    # a last block that is partly filled
    assert math.ceil(n_rows / CSV_BLOCK_ROWS) == blocks and n_rows % CSV_BLOCK_ROWS
    pts = grid.node_points()
    values = np.exp(pts[..., 0]) * np.sin(7.0 * pts[..., -1]) / 3.0
    values.reshape(-1)[np.flatnonzero(geo.inside)[:4]] = [-0.0, np.inf, np.nan, 1e-300]
    field = ScalarField(grid=grid, domain=domain, values=values, boundary_values=0.0)
    field_to_csv(field, tmp_path / "block.csv")
    _reference_csv(field, tmp_path / "loop.csv")
    assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "loop.csv").read_bytes()


def _reference_donors(geo):
    """donor_flat built node by node: the first inside neighbour against
    the normal, trying the axes by decreasing |n| (a tie to the lowest)."""
    grid, inside = geo.grid, geo.inside
    dim = grid.k + 1
    covered_out = (geo.volfrac > 0) & ~inside
    donor = np.full(grid.shape, -1, dtype=np.int64)
    idx = np.argwhere(covered_out)
    normals = geo.domain.sd_gradient(grid.node_points()[covered_out])
    flat_strides = np.array(
        [int(np.prod(grid.shape[d + 1:], dtype=np.int64)) for d in range(dim)])
    for row, n_vec in zip(idx, normals):
        found = -1
        for d in np.argsort(-np.abs(n_vec), kind="stable"):
            nb = row.copy()
            nb[d] += -1 if n_vec[d] > 0 else 1
            if 0 <= nb[d] < grid.shape[d] and inside[tuple(nb)]:
                found = int(np.dot(nb, flat_strides))
                break
        donor[tuple(row)] = found
    return donor


@pytest.mark.parametrize("domain,h", [
    (Ellipsoid(semi_axes=(1.0, 2.0), center=(0.013,)), 1 / 96),
    (Ball(1.0, center=(0.02, -0.03)), 1 / 20),
    (Ball(1.0, center=(0.0, 0.0, 0.0)), 1 / 16),
    (Box(half_widths=(0.51, 0.77), center=(0.1,)), 1 / 32),
    (Ball(1.0, center=(0.0, 0.0, 0.0)), 1 / 10),
])
def test_donors_match_the_per_node_loop(domain, h):
    geo = grid_geometry(domain, StaggeredGrid.from_domain(domain, h))
    want = _reference_donors(geo)
    assert (want >= 0).any()
    assert _bitwise_equal(geo.donor_flat, want)
