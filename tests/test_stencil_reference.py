"""The array-built stencil, derivatives and CSV writer against references.

`_reference_stencil` is the per-node Shortley-Weller loop the operator
used to assemble near-boundary rows with, and `_reference_csv` the
per-row f-string writer.  The array code must reproduce both bit for bit:
the matrix arrays, the boundary couplings in their summation order, the
right-hand side, and the bytes of the file.  `_reference_three_point` is
the full-lattice path the derivatives took before they read the
`NeighbourTable`: shifted neighbour values and an arm length per lattice
node, from cut fractions over whole-lattice arrays; the derivatives must
reproduce it bit for bit.  `_reference_derivatives` is the
numerator/denominator form the derivative stencils used before they read
`three_point_weights`; the two agree up to rounding.
`shift` is the lattice shift the geometry found its near and deep masks
with before it read the table; `_reference_near` and `_reference_deep`
built on it must equal the table's rows and their lattice views bit for
bit.  `_reference_fractions` are the covered fractions over the whole
lattice, and `_reference_donors` the per-node loop that picked the donor
of each covered cell whose centre is outside; the covered cells' record
must hold the same fractions and read the same rows, and the quadrature
over it must match the lattice sum `_reference_volume_integral` to
rounding.  `_reference_axis_probe` is the three-layer lattice formula the
axis probe read before it walked the table's (r,+) columns; the two
must agree bit for bit.
`_reference_interpolate` is the per-corner interpolation that folded each
corner index across r = 0 and carried a sign per corner, before the
lattice was read with a mirror layer; the padded gathers must reproduce
it bit for bit.  scipy's CSR product and its P^T A P are the references
for the slot-layout product and the V-cycle's coarse operators: the
product must match bit for bit, the coarse operators to rounding.
`_reference_fold` is the lattice flip `MirrorFold` built its row maps
with before it read the table's class map; the maps must be equal.
"""

import dataclasses
import math
import tracemalloc

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
    boundary_samples,
    field_to_csv,
    grid_geometry,
    solve,
)
from weinstein.differential import axis_derivative, gradient_fields
from weinstein.errors import MissingBoundaryData
from weinstein.field import on_points
from weinstein.differential import deep_mask
from weinstein.geometry import ARM_FLOOR, R_AXIS, MirrorFold, three_point_weights
from weinstein.measure import r_cell_measure, weighted_volume_integral
from weinstein import solver
from weinstein.operator import (
    CSV_BLOCK_ROWS,
    _mirror_classes,
    normal_derivative_at_axis,
    slot_product,
)


def shift(array, axis, direction, fill):
    """Values of the neighbor one step along (axis, direction).

    Nodes whose neighbor is off the lattice get `fill`, except below the
    first r-layer, where the mirror node across r = 0 supplies the value."""
    out = np.full_like(array, fill)
    src = [slice(None)] * array.ndim
    dst = list(src)
    if direction == 1:
        src[axis], dst[axis] = slice(1, None), slice(0, -1)
    else:
        src[axis], dst[axis] = slice(0, -1), slice(1, None)
    out[tuple(dst)] = array[tuple(src)]
    if axis == R_AXIS and direction == -1:  # the r axis leads, so row 0 is r = h/2
        out[0] = array[0]
    return out


def _reference_stencil(domain, grid, params):
    """(A, bc_rows, bc_coeffs, bc_points) assembled node by node.  An arm
    is cut where its neighbour is outside (the mirror across r = 0 is the
    node itself), and its fraction of the step is `domain.axis_cut` at the
    node, clipped to [0, 1]."""
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
    idx = np.argwhere(geo.inside & ~geo.near)
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
                nb = node.copy()
                nb[axis] += direction
                if axis == R_AXIS and direction == -1 and node[0] == 0:
                    arm[direction] = (step, ("ghost", None))
                elif geo.inside[tuple(nb)]:
                    arm[direction] = (step, ("node", int(nb @ strides)))
                else:
                    theta = domain.axis_cut(pt[None, :], axis, direction, step)[0]
                    theta = min(max(theta, 0.0), 1.0)
                    cut_pt = pt.copy()
                    cut_pt[axis] += direction * theta * step
                    arm[direction] = (max(theta, 1e-6) * step, ("bc", cut_pt))
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


def _scipy_slots(values, columns):
    """A scipy copy of a matrix in slot layout (an empty slot adds 0 to the
    diagonal)."""
    width, n = values.shape
    rows = np.tile(np.arange(n), width)
    return sp.csr_matrix((values.ravel(), (rows, columns.ravel())), shape=(n, n))


@pytest.mark.parametrize("name", list(_CASES))
def test_slot_product_matches_the_csr_product_bitwise(name):
    domain, grid, a = _CASES[name]
    system = assemble_torsion_system(domain, grid, WeinsteinParams(a=a, k=domain.k))
    A = system.A
    csr = sp.csr_matrix((A.data, A.indices, A.indptr), shape=A.shape)
    rng = np.random.default_rng(11)
    for x in (rng.standard_normal(system.n), rng.uniform(0.5, 1.5, system.n), system.b):
        assert _bitwise_equal(A @ x, csr @ x)
    abs_csr = sp.csr_matrix((np.abs(A.data), A.indices, A.indptr), shape=A.shape)
    assert _bitwise_equal(solver._l1_scale(A.values),
                          solver._guarded(-(abs_csr @ np.ones(system.n))))
    assert _bitwise_equal(A.diagonal(), csr.diagonal())
    assert A.nnz == csr.nnz


@pytest.mark.parametrize("name", list(_CASES))
def test_coarse_operators_match_the_csr_galerkin_product(name, monkeypatch):
    domain, grid, a = _CASES[name]
    system = assemble_torsion_system(domain, grid, WeinsteinParams(a=a, k=domain.k))
    monkeypatch.setattr(solver, "COARSEST", 16)  # coarsen even the 30-row grazing ball
    assert solver._hierarchy(system.A)[0]
    rng = np.random.default_rng(5)
    # the levels of A and of A folded over its mirror axes (A itself if none)
    for matrix in (system.A, system.A.fold(system.A.table.mirror_axes)):
        levels, _ = solver._hierarchy(matrix)
        for i, (values, columns, _, agg) in enumerate(levels):
            n_coarse = int(agg.max()) + 1
            P = sp.csr_matrix((np.ones(agg.size), (np.arange(agg.size), agg)),
                              shape=(agg.size, n_coarse))
            want = (P.T @ _scipy_slots(values, columns) @ P).tocsr()
            coarse, coarse_columns = solver._coarsen(values, columns, agg, n_coarse)
            if i + 1 < len(levels):
                assert _bitwise_equal(coarse, levels[i + 1][0])
            got = _scipy_slots(coarse, coarse_columns)
            assert abs(got - want).max() <= 1e-13 * abs(want).max()
            # the coarse lattice keeps the slot layout, so the product's
            # shifted slices still find the fast-axis neighbours
            x = rng.standard_normal(n_coarse)
            assert _bitwise_equal(slot_product(coarse, coarse_columns, x), got @ x)


def _cut_arms(geo):
    """The table's cut arms as (axis, direction, rows, theta, points) per
    (axis, direction), theta read back from the cut points."""
    table, grid = geo.neighbours, geo.grid
    dim = grid.k + 1
    slot = table.bc_slots
    nodes = grid.points_at(geo.inside)
    for axis in range(dim):
        for direction in (1, -1):
            arm = slot == dim + direction * (dim - axis)
            rows, points = table.bc_rows[arm], table.bc_points[arm]
            theta = direction * (points[:, axis] - nodes[rows, axis]) / grid.step(axis)
            yield axis, direction, rows, theta, points


def test_case_list_reaches_the_ghost_the_arm_floor_and_two_cut_arms():
    geo = grid_geometry(*_CASES["ball_k2_a0"][:2])
    assert geo.neighbours.ghost.any()
    geo = grid_geometry(*_CASES["grazing_ball"][:2])
    assert min(theta.min() for *_, theta, _ in _cut_arms(geo) if theta.size) < ARM_FLOOR
    geo = grid_geometry(*_CASES["pinched_ball"][:2])
    rows = {direction: rows for axis, direction, rows, *_ in _cut_arms(geo) if axis == 1}
    assert np.intersect1d(rows[1], rows[-1]).size


def _reference_arm(geo, axis, direction):
    """Arm length of every lattice node along (axis, direction), the cut
    mask and the cut points in C order, from a whole-lattice theta array."""
    grid, inside = geo.grid, geo.inside
    h = grid.step(axis)
    cut = inside & ~shift(inside, axis, direction, False)
    theta = np.full(grid.shape, np.nan)
    points = grid.node_points()[cut]
    t = np.clip(geo.domain.axis_cut(points, axis, direction, h), 0.0, 1.0)
    theta[cut] = t
    points[:, axis] += t * (direction * h)
    length = np.full(grid.shape, h)
    length[cut] = np.maximum(theta[cut], ARM_FLOOR) * h
    return length, cut, points


def _reference_arm_values(field, geo, axis):
    """(h_plus, v_plus, h_minus, v_minus) over grid.shape: cut arms take the
    field's Dirichlet data, the r < 0 ghost the parity reflection."""
    out = []
    for direction in (1, -1):
        arm, cut, cut_pts = _reference_arm(geo, axis, direction)
        nb = shift(field.values, axis, direction, np.nan)
        if axis == R_AXIS and direction == -1 and field.parity == "odd":
            nb[0] *= -1.0  # the mirror across r = 0 of an odd field
        if cut.any():
            nb[cut] = on_points(field.boundary_values, cut_pts)
        out += [arm, nb]
    return tuple(out)


def _reference_three_point(field, axis):
    """First derivative over the whole lattice: centred weights, then
    unequal-arm ones where an arm differs from the step."""
    geo = grid_geometry(field.domain, field.grid)
    hp, vp, hm, vm = _reference_arm_values(field, geo, axis)
    h = field.grid.step(axis)
    unequal = (hm != h) | (hp != h)
    weights = [np.full(hm.shape, c) for c in three_point_weights(h, h)[0]]
    for full, part in zip(weights, three_point_weights(hm[unequal], hp[unequal])[0]):
        full[unequal] = part
    w_m, w_0, w_p = weights
    d = w_m * vm + w_0 * field.values + w_p * vp
    d[~geo.inside] = np.nan
    return d


@pytest.mark.parametrize("parity", ["even", "odd"])
@pytest.mark.parametrize("name", list(_CASES))
def test_derivatives_match_the_lattice_path_bitwise(name, parity):
    domain, grid, _ = _CASES[name]
    field = ScalarField.from_function(domain, grid, _dirichlet, parity=parity)
    inside = grid_geometry(domain, grid).inside
    for axis in range(grid.k + 1):
        assert _bitwise_equal(axis_derivative(field, axis),
                              _reference_three_point(field, axis)[inside]), axis


def test_the_gradient_pass_holds_fewer_than_one_lattice_per_derivative():
    """The derivatives are built on the inside rows: the gradient of a
    k = 3 torsion field peaks under (k + 1) lattices of floats."""
    domain = Ball(1.0, center=(0.0, 0.0, 0.0))
    grid = StaggeredGrid.from_domain(domain, 1 / 10)
    u, _ = solve(assemble_torsion_system(domain, grid, WeinsteinParams(a=1.0, k=3)))
    tracemalloc.start()
    try:
        gradient_fields(u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    lattice = grid.n_nodes * np.dtype(float).itemsize
    assert peak < (grid.k + 1) * lattice, peak / lattice


def test_a_derivative_across_the_boundary_needs_dirichlet_data():
    domain, grid, _ = _CASES["ellipsoid_k1_shifted"]
    geo = grid_geometry(domain, grid)
    values = np.where(geo.inside, _dirichlet(grid.node_points()), np.nan)
    field = ScalarField(grid=grid, domain=domain, active=values[geo.inside])  # no Dirichlet data
    for axis in range(grid.k + 1):
        with pytest.raises(MissingBoundaryData):
            axis_derivative(field, axis)


def _reference_derivative(field, axis):
    """The first Shortley-Weller derivative as one fraction."""
    geo = grid_geometry(field.domain, field.grid)
    hp, vp, hm, vm = _reference_arm_values(field, geo, axis)
    den = hm * hp * (hm + hp)
    return (-(hp**2) * vm + (hp**2 - hm**2) * field.values + hm**2 * vp) / den


@pytest.mark.parametrize("name", list(_CASES))
def test_derivatives_match_the_fraction_form_to_rounding(name):
    domain, grid, _ = _CASES[name]
    geo = grid_geometry(domain, grid)
    values = np.where(geo.inside, _dirichlet(grid.node_points()), np.nan)
    inside = geo.inside
    field = ScalarField(grid=grid, domain=domain, active=values[inside],
                        boundary_values=_dirichlet)
    for axis in range(grid.k + 1):
        hp, vp, hm, vm = _reference_arm_values(field, geo, axis)
        new, ref = axis_derivative(field, axis), _reference_derivative(field, axis)[inside]
        assert np.array_equal(np.isnan(new), np.isnan(ref))
        # both forms round at the size of the terms they sum, which the
        # 1/h weights (and 1/ARM_FLOOR on a grazing arm) make far
        # larger than the derivative itself
        weights = three_point_weights(hm, hp)[0]
        terms = sum(np.abs(w * v) for w, v in zip(weights, (vm, values, vp)))
        assert np.all(np.abs(new - ref) <= 2e-15 * terms[inside]), axis


def _reference_fold(table, axes):
    """(rows, unfold) of the fold over `axes` from a full-lattice array of
    fundamental rows, each lower half copied from its flip."""
    upper = tuple(slice(n // 2 if axis in axes else 0, None)
                  for axis, n in enumerate(table.inside.shape))
    fundamental = np.full(table.inside.shape, -1, dtype=np.int32)
    fundamental[upper][table.inside[upper]] = np.arange(
        np.count_nonzero(table.inside[upper]), dtype=np.int32)
    rows = np.flatnonzero(fundamental[table.inside] >= 0).astype(np.int32)
    for axis in axes:
        lower = tuple(slice(n // 2) if a == axis else slice(None)
                      for a, n in enumerate(table.inside.shape))
        fundamental[lower] = np.flip(fundamental, axis)[lower]
    return rows, fundamental[table.inside]


@pytest.mark.parametrize("domain,h,axes", [
    (Ball(1.0, center=(0.03,)), 1 / 24, (1,)),
    (Ball(1.0, center=(0.0, 0.0)), 1 / 16, (1, 2)),
    (Ball(1.0, center=(0.0, 0.0, 0.0)), 1 / 8, (1, 2, 3)),
    (Ball(1.0, center=(0.0, 0.0)), 1 / 16, (2,)),
    (Ellipsoid(semi_axes=(1.0, 1.3, 0.8), center=(0.1, -0.05)), 1 / 16, (1, 2)),
])
def test_fold_maps_match_the_lattice_flip_bitwise(domain, h, axes):
    table = grid_geometry(domain, StaggeredGrid.from_domain(domain, h)).neighbours
    assert set(axes) <= set(table.mirror_axes)
    fold = MirrorFold(table, axes)
    rows, unfold = _reference_fold(table, axes)
    for got, want in ((fold.rows, rows), (fold.unfold, unfold)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    # each row's class is the largest row among its mirror images
    rep = table.classes(axes)
    assert np.array_equal(rep, rows[unfold])
    assert np.all(rep >= np.arange(rep.size))


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
    field = ScalarField(grid=grid, domain=domain, active=values[geo.inside],
                        boundary_values=0.0)
    field_to_csv(field, tmp_path / "block.csv")
    _reference_csv(field, tmp_path / "loop.csv")
    assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "loop.csv").read_bytes()


def _assert_writes_the_row_loop_bytes(field, tmp_path):
    field_to_csv(field, tmp_path / "block.csv")
    _reference_csv(field, tmp_path / "loop.csv")
    assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "loop.csv").read_bytes()


def _representatives(field):
    """Count of the rows that represent their mirror class in the writer."""
    table = grid_geometry(field.domain, field.grid).neighbours
    rep = _mirror_classes(field.active, table)
    return int(np.count_nonzero(rep == np.arange(rep.size)))


@pytest.mark.parametrize("k,h", [(1, 1 / 24), (2, 1 / 16), (3, 1 / 8)])
def test_class_writer_matches_the_row_loop_on_folded_torsion_fields(tmp_path, k, h):
    domain = Ball(1.0, center=(0.03,) + (0.0,) * (k - 1))
    grid = StaggeredGrid.from_domain(domain, h)
    system = assemble_torsion_system(domain, grid, WeinsteinParams(a=1.0, k=k))
    assert system.A.table.mirror_axes == tuple(range(1, k + 1))
    u, _ = solve(system)
    # u is even over every y axis: each class holds 2^k rows
    assert _representatives(u) * 2 ** k == system.n
    _assert_writes_the_row_loop_bytes(u, tmp_path)


def test_class_writer_folds_data_odd_in_y1_over_y2_alone(tmp_path):
    domain = Ball(1.0, center=(0.0, 0.0))
    grid = StaggeredGrid.from_domain(domain, 1 / 16)
    system = assemble_torsion_system(domain, grid, WeinsteinParams(a=1.0, k=2))
    u, _ = solve(system.with_data(lambda pts: -1.0 - pts[..., 1], 0.0))
    assert _representatives(u) * 2 == system.n
    _assert_writes_the_row_loop_bytes(u, tmp_path)


def test_class_writer_keeps_signed_zeros_on_mirror_pairs_apart(tmp_path):
    domain = Ball(1.0, center=(0.0, 0.0))
    grid = StaggeredGrid.from_domain(domain, 1 / 16)
    table = grid_geometry(domain, grid).neighbours
    u, _ = solve(assemble_torsion_system(domain, grid, WeinsteinParams(a=1.0, k=2)))
    values = u.active
    rows = np.arange(3)
    for rows_y2 in (rows, table.mirror(2)[rows]):  # even over y2 bit for bit
        values[rows_y2] = 0.0
        values[table.mirror(1)[rows_y2]] = -0.0  # equal to 0.0, not as bits
    field = ScalarField(grid=grid, domain=domain, active=values, boundary_values=0.0)
    assert _representatives(field) * 2 == values.size
    _assert_writes_the_row_loop_bytes(field, tmp_path)


def test_class_writer_writes_an_r_layer_larger_than_a_block_whole(tmp_path):
    domain = Ball(1.0, center=(0.0, 0.0, 0.0))
    grid = StaggeredGrid.from_domain(domain, 1 / 10)
    table = grid_geometry(domain, grid).neighbours
    assert np.bincount(table.row_r).max() > CSV_BLOCK_ROWS
    index = np.indices(grid.shape)
    # squared distance from the centre in half steps: integer, so exactly even
    steps = sum((2 * index[1 + m] - (n - 1)) ** 2 for m, n in enumerate(grid.n_y))
    values = np.cos(grid.node_points()[..., 0]) / (1.0 + steps * grid.h_y ** 2)
    field = ScalarField(grid=grid, domain=domain, active=values[table.inside],
                        boundary_values=0.0)
    assert _representatives(field) * 8 == table.row_r.size
    _assert_writes_the_row_loop_bytes(field, tmp_path)


_DONOR_CASES = [
    (Ellipsoid(semi_axes=(1.0, 2.0), center=(0.013,)), 1 / 96),
    (Ball(1.0, center=(0.02, -0.03)), 1 / 20),
    (Ball(1.0, center=(0.0, 0.0, 0.0)), 1 / 16),
    (Box(half_widths=(0.51, 0.77), center=(0.1,)), 1 / 32),
    (Ball(1.0, center=(0.0, 0.0, 0.0)), 1 / 10),
]


def _reference_fractions(geo):
    """Covered fraction of every lattice cell, from the exact distance."""
    grid, domain = geo.grid, geo.domain
    pts = grid.node_points()
    sd = domain.signed_distance(pts)
    band = np.abs(sd) <= 0.5 * grid.h_r * math.sqrt(grid.k + 1) * 1.0001
    frac = np.where(sd < 0, 1.0, 0.0)
    frac[band] = domain.cell_fraction(pts[band], sd[band], grid.h_r)
    return frac


def _reference_donors(geo, frac):
    """Flat donor index of every covered cell whose centre is outside (-1
    elsewhere), node by node: the first inside neighbour against the
    normal, trying the axes by decreasing |n| (a tie to the lowest)."""
    grid, inside = geo.grid, geo.inside
    dim = grid.k + 1
    covered_out = (frac > 0) & ~inside
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


@pytest.mark.parametrize("domain,h", _DONOR_CASES)
def test_donors_match_the_per_node_loop(domain, h):
    geo = grid_geometry(domain, StaggeredGrid.from_domain(domain, h))
    frac = _reference_fractions(geo)
    donor = _reference_donors(geo, frac)
    assert (donor >= 0).any()
    cells = geo.covered
    assert _bitwise_equal(cells.flat, np.flatnonzero(frac > 0))
    assert _bitwise_equal(cells.fraction, frac.reshape(-1)[cells.flat])
    row_of = np.full(geo.grid.n_nodes, -1, dtype=np.int32)
    row_of[np.flatnonzero(geo.inside)] = np.arange(np.count_nonzero(geo.inside))
    read = np.where(geo.inside.reshape(-1)[cells.flat], cells.flat, donor.reshape(-1)[cells.flat])
    assert _bitwise_equal(cells.rows, np.where(read >= 0, row_of[read], -1).astype(np.int32))


def _reference_near(inside):
    any_cut = np.zeros(inside.shape, dtype=bool)
    for axis in range(inside.ndim):
        for direction in (1, -1):
            any_cut |= ~shift(inside, axis, direction, False)
    return inside & any_cut


def _reference_deep(inside):
    mask = inside
    for axis in range(inside.ndim):
        for direction in (1, -1):
            mask = mask & shift(mask, axis, direction, False)
    return mask


@pytest.mark.parametrize("domain,h", _DONOR_CASES)
def test_near_and_deep_rows_match_the_lattice_shifts_bitwise(domain, h):
    geo = grid_geometry(domain, StaggeredGrid.from_domain(domain, h))
    table, inside = geo.neighbours, geo.inside
    near, deep = _reference_near(inside), _reference_deep(inside)
    assert _bitwise_equal(geo.near, near)
    assert _bitwise_equal(deep_mask(geo), deep)
    assert _bitwise_equal(table.near, np.flatnonzero(near[inside]))
    assert _bitwise_equal(table.deep, deep[inside])
    assert _bitwise_equal(table.ghost, np.argwhere(near)[:, 0] == 0)
    assert deep.any() and near.any()


def _reference_volume_integral(integrand, params, geo):
    """The quadrature as a lattice sum: fraction times cell measure per
    lattice cell, a field read at the node or at its donor."""
    grid = geo.grid
    frac = _reference_fractions(geo)
    m_r = r_cell_measure(grid, params)
    cell_w = frac * m_r.reshape((-1,) + (1,) * grid.k) * grid.h_y**grid.k
    covered = frac > 0.0
    if isinstance(integrand, ScalarField):
        lattice = integrand.values
        vals = np.where(covered, lattice, 0.0)
        ext = covered & ~geo.inside
        donor = _reference_donors(geo, frac)[ext]
        vals[ext] = np.where(donor >= 0, lattice.reshape(-1)[np.maximum(donor, 0)], 0.0)
    elif callable(integrand):
        vals = np.zeros(grid.shape)
        vals[covered] = integrand(grid.node_points()[covered])
    else:
        vals = np.where(covered, float(integrand), 0.0)
    return float(np.sum(vals * cell_w))


@pytest.mark.parametrize("domain,h", _DONOR_CASES)
def test_quadrature_on_covered_cells_matches_the_lattice_sum(domain, h):
    grid = StaggeredGrid.from_domain(domain, h)
    geo = grid_geometry(domain, grid)
    params = WeinsteinParams(a=1.5, k=domain.k)
    field = ScalarField.from_function(domain, grid, _dirichlet)
    for integrand in (field, _dirichlet, 0.7):
        got = weighted_volume_integral(integrand, params, domain=domain, grid=grid)
        want = _reference_volume_integral(integrand, params, geo)
        assert abs(got - want) <= 1e-14 * abs(want), integrand


def _reference_axis_probe(field):
    grid, inside = field.grid, field.geometry.inside
    ok = inside[0] & inside[1] & inside[2]
    u0, u1, u2 = (layer[ok] for layer in field.values[:3])
    cols = np.argwhere(ok)
    y = np.stack([grid.y_nodes(m)[cols[:, m]] for m in range(grid.k)], axis=-1)
    return y, (-2.0 * u0 + 3.0 * u1 - u2) / grid.h_r


@pytest.mark.parametrize("domain,h", _DONOR_CASES)
def test_axis_probe_matches_the_three_layer_lattice_formula_bitwise(domain, h):
    grid = StaggeredGrid.from_domain(domain, h)
    field = ScalarField.from_function(domain, grid, _dirichlet)
    for got, want in zip(normal_derivative_at_axis(field), _reference_axis_probe(field)):
        assert want.size and _bitwise_equal(got, want)


def test_the_quadrature_and_the_axis_probe_hold_less_than_one_lattice():
    """The weighted volume and the axis probe read the covered cells' and
    the first layer's rows: on the k = 3 ball each call peaks under one
    lattice of floats."""
    domain = Ball(1.0, center=(0.0, 0.0, 0.0))
    grid = StaggeredGrid.from_domain(domain, 1 / 10)
    params = WeinsteinParams(a=1.0, k=3)
    field = ScalarField.from_function(domain, grid, _dirichlet)
    field.geometry.neighbours  # the cached table is not the calls' memory
    lattice = grid.n_nodes * np.dtype(float).itemsize
    for call in (lambda: weighted_volume_integral(field, params),
                 lambda: weighted_volume_integral(1.0, params, domain=domain, grid=grid),
                 lambda: normal_derivative_at_axis(field)):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < lattice, peak / lattice


def _reference_interpolate(field, points):
    """Multilinear interpolation corner by corner: a corner index below the
    first r layer is folded onto it, with the parity sign per corner."""
    grid = field.grid
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n = pts.shape[0]
    dim = grid.k + 1

    idx0 = np.empty((n, dim), dtype=np.int64)
    frac = np.empty((n, dim))
    valid = np.ones(n, dtype=bool)

    s = np.abs(pts[:, 0]) / grid.h_r - 0.5
    i0 = np.floor(s).astype(np.int64)
    frac[:, 0] = s - i0
    valid &= i0 + 1 <= grid.n_r - 1
    valid &= i0 >= -1  # -1 handled by reflection
    idx0[:, 0] = i0

    for m in range(grid.k):
        s = (pts[:, 1 + m] - grid.y_start[m]) / grid.h_y
        j0 = np.floor(s).astype(np.int64)
        frac[:, 1 + m] = s - j0
        valid &= (j0 >= 0) & (j0 + 1 <= grid.n_y[m] - 1)
        idx0[:, 1 + m] = j0

    out = np.full(n, np.nan)
    if not valid.any():
        return out if np.asarray(points).ndim > 1 else float(out[0])

    sign_odd = -1.0 if field.parity == "odd" else 1.0
    vidx = idx0[valid]
    vfrac = frac[valid]
    acc = np.zeros(valid.sum())
    for corner in range(1 << dim):
        w = np.ones(valid.sum())
        gather = np.empty_like(vidx)
        sign = np.ones(valid.sum())
        for d in range(dim):
            bit = (corner >> d) & 1
            w *= vfrac[:, d] if bit else (1.0 - vfrac[:, d])
            gi = vidx[:, d] + bit
            if d == 0:
                mirrored = gi < 0
                if mirrored.any():
                    gi = np.where(mirrored, -1 - gi, gi)
                    sign = np.where(mirrored, sign * sign_odd, sign)
            gather[:, d] = gi
        vals = field.values[tuple(gather[:, d] for d in range(dim))]
        acc = acc + w * sign * vals
    if field.parity == "odd":
        acc = acc * np.where(pts[valid, 0] < 0, -1.0, 1.0)
    out[valid] = acc
    if np.asarray(points).ndim == 1:
        return float(out[0])
    return out


def _interpolation_points(domain, grid, rng):
    """Boundary probe points at depths 2h and 4h, the same points with r
    negated, random points running past the lattice, and points with
    |r| < h/2, whose cells take their lower r corners from the mirror."""
    h = grid.h_r
    samples = boundary_samples(domain, 500)
    probes = [samples.points - depth * h * samples.normals for depth in (2.0, 4.0)]
    probes += [p * np.r_[-1.0, np.ones(grid.k)] for p in probes]
    axes = grid.axes()
    lo = np.array([-axes[0][-1]] + [y[0] for y in axes[1:]]) - 3.0 * h
    hi = np.array([y[-1] for y in axes]) + 3.0 * h
    past = rng.uniform(lo, hi, size=(500, grid.k + 1))
    near_axis = rng.uniform(lo / 2.0, hi / 2.0, size=(500, grid.k + 1))
    near_axis[:, 0] = rng.uniform(-0.5 * h, 0.5 * h, size=500)
    return np.concatenate(probes + [past, near_axis])


@pytest.mark.parametrize("domain,h", [
    (Ellipsoid(semi_axes=(1.0, 2.0), center=(0.0037,)), 1 / 24),
    (Ball(1.0, center=(0.01, 0.0)), 1 / 10),
    (Ball(1.0, center=(0.0, 0.0, 0.0)), 1 / 6),
])
def test_padded_interpolation_matches_the_per_corner_loop_bitwise(domain, h):
    grid = StaggeredGrid.from_domain(domain, h)
    system = assemble_torsion_system(domain, grid, WeinsteinParams(a=1.0, k=domain.k))
    u, _ = solve(system)
    du_dr, du_dy, *_ = gradient_fields(u)
    assert (u.parity, du_dr.parity, du_dy.parity) == ("even", "odd", "even")
    points = _interpolation_points(domain, grid, np.random.default_rng(7))
    for field in (u, du_dr, du_dy):
        got = field.interpolate(points)
        assert _bitwise_equal(got, _reference_interpolate(field, points))
        assert np.isnan(got).any() and not np.isnan(got).all()
        point = points[0]
        assert type(field.interpolate(point)) is float
        assert _bitwise_equal(field.interpolate(point), _reference_interpolate(field, point))
