"""Finite-difference discretization of the Weinstein operator

    L_a u = u_rr + (a/r) u_r + Delta_y u.

Interior rows use the conservative flux form

    (B_a u)_i = [ (r_face+)^a (u_{i+1}-u_i)/h - (r_face-)^a (u_i-u_{i-1})/h ] / V_i

with the exact weighted cell measure V_i = int_cell r^a dr.  With that
measure the scheme is exact on even quadratics at every node, including
the axis cell, where the inward face weight (r = 0)^a vanishes and the
even reflection u_{-1} = u_0 kills the a = 0 remainder; both readings
implement the same zero weighted flux through the axis.

Rows whose arms cross the boundary switch to the nondivergence form with
3-point unequal-arm (Shortley-Weller) stencils and the Dirichlet value at
the cut point.  Both kinds of row are built as arrays, one pass per axis
(and direction); the arms come from `GridGeometry.arm` and the weights
from `three_point_weights`, which the derivative stencils in
`differential` read as well.  Interior rows are symmetric in the
weighted inner product <u, v> = sum u v V_i h^k; cut rows are not.

`assemble_torsion_system` returns one `SparseSystem`, which owns A and
the Dirichlet couplings of the cut arms; `SparseSystem.with_data` gives
the system for other data on the same matrix.  No matrix is cached: one
lives as long as the systems that hold it (only the grid geometry is
cached, in `geometry.grid_geometry`).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import scipy.sparse as sp

from .differential import gradient_fields
from .errors import GridTooCoarse, MissingBoundaryData, StencilLeavesDomain, UnsupportedShape
from .field import ScalarField, on_points
from .geometry import R_AXIS, boundary_samples, grid_geometry, three_point_weights
from .measure import r_cell_measure


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class SparseSystem:
    """Assembled linear system A u = b on the active nodes (A ~ L_a).

    The system owns the Dirichlet couplings coeff * g(point) of its cut
    arms: bc_rows, bc_coeffs and bc_points, ordered by (node, axis, minus
    arm before plus arm), the order bc_vector sums them in.  `with_data`
    reuses A and the couplings for other data; no matrix is cached."""

    A: sp.csr_matrix
    b: np.ndarray
    domain: object
    grid: object
    params: object
    dirichlet: object
    bc_rows: np.ndarray
    bc_coeffs: np.ndarray
    bc_points: np.ndarray

    @property
    def n(self):
        return self.b.shape[0]

    def bc_vector(self, dirichlet):
        """Accumulated boundary contributions coeff * g(cut point) per row."""
        out = np.zeros(self.A.shape[0])
        if self.bc_rows.size == 0:
            return out
        if dirichlet is None:
            raise MissingBoundaryData("stencil touches the boundary but no Dirichlet data given")
        np.add.at(out, self.bc_rows, self.bc_coeffs * on_points(dirichlet, self.bc_points))
        return out

    def with_data(self, rhs, dirichlet):
        """The system for L_a u = rhs with Dirichlet data `dirichlet` on the
        same A and couplings; each is a constant or a callable on points."""
        pts = self.grid.node_points()[grid_geometry(self.domain, self.grid).inside]
        b = on_points(rhs, pts) - self.bc_vector(dirichlet)
        return dataclasses.replace(self, b=b, dirichlet=dirichlet)

    def field_from_vector(self, vec):
        return ScalarField.from_active_vector(
            self.grid, self.domain, vec, boundary_values=self.dirichlet
        )


def _build(domain, grid, params) -> SparseSystem:
    """Matrix and boundary couplings of L_a on the active nodes of a grid,
    as a system that holds no data yet (b and dirichlet are None)."""
    geo = grid_geometry(domain, grid)
    dim = grid.k + 1
    shape = grid.shape
    n_nodes = grid.n_nodes

    flat_active = np.flatnonzero(geo.inside.reshape(-1))
    n_active = flat_active.size
    row_of = np.full(n_nodes, -1, dtype=np.int64)
    row_of[flat_active] = np.arange(n_active)

    strides = np.array(
        [int(np.prod(shape[d + 1 :], dtype=np.int64)) for d in range(dim)], dtype=np.int64
    )

    h = grid.h_r
    a = params.a
    m_r = r_cell_measure(grid, params)
    face = (np.arange(grid.n_r + 1) * h) ** a
    # for a huge a the cell measures overflow and these quotients are not
    # finite; `solve` names that cause, so no warning is printed here
    with np.errstate(divide="ignore", invalid="ignore"):
        c_plus = face[1:] / (h * m_r)
        c_minus = face[:-1] / (h * m_r)
    c_minus[0] = 0.0  # zero weighted flux through r = 0 (reflection)
    hy2 = grid.h_y**2

    rows, cols, vals = [], [], []
    # interior rows: flux form, vectorized
    idx = np.argwhere(geo.interior)
    if idx.size:
        flat = idx @ strides
        r_i = idx[:, 0]
        diag = -(c_plus[r_i] + c_minus[r_i]) - 2.0 * grid.k / hy2
        rows.append(row_of[flat])
        cols.append(row_of[flat])
        vals.append(diag)

        nb = flat + strides[0]
        rows.append(row_of[flat])
        cols.append(row_of[nb])
        vals.append(c_plus[r_i])

        has_minus = r_i > 0
        nb = flat[has_minus] - strides[0]
        rows.append(row_of[flat[has_minus]])
        cols.append(row_of[nb])
        vals.append(c_minus[r_i[has_minus]])

        for m in range(grid.k):
            for direction in (1, -1):
                nb = flat + direction * strides[1 + m]
                rows.append(row_of[flat])
                cols.append(row_of[nb])
                vals.append(np.full(flat.shape, 1.0 / hy2))

    # near-boundary rows: nondivergence Shortley-Weller, one pass per
    # (axis, direction).  The diagonal sums c_0 axis by axis, the r = 0
    # ghost right after axis 0's c_0, and the boundary couplings are
    # sorted by (node, axis, minus before plus): bc_vector sums them in
    # that order.
    near_flat = np.flatnonzero(geo.near.reshape(-1))
    near_row = row_of[near_flat]
    near_r = np.unravel_index(near_flat, shape)[R_AXIS]
    diag = np.zeros(near_flat.size)
    bc_rows, bc_coeffs, bc_points, bc_keys = [], [], [], []
    for axis in range(dim):
        arms = {d: geo.arm(axis, d) for d in (1, -1)}
        first, weights = three_point_weights(arms[-1][0].reshape(-1)[near_flat],
                                             arms[1][0].reshape(-1)[near_flat])
        if axis == R_AXIS:  # u_rr + (a/r) u_r
            ar = a / grid.r_nodes()[near_r]
            weights = [w2 + ar * w1 for w2, w1 in zip(weights, first)]
        c_m, c_0, c_p = weights
        diag += c_0
        for direction, c in ((-1, c_m), (1, c_p)):
            _, cut, cut_pts = arms[direction]
            cut = cut.reshape(-1)[near_flat]
            link = ~cut
            if axis == R_AXIS and direction == -1:
                # ghost across r = 0: the value u_0 folds into the diagonal
                ghost = link & (near_r == 0)
                diag[ghost] += c[ghost]
                link &= ~ghost
            rows.append(near_row[link])
            cols.append(row_of[near_flat[link] + direction * strides[axis]])
            vals.append(c[link])
            bc_rows.append(near_row[cut])
            bc_coeffs.append(c[cut])
            bc_points.append(cut_pts)
            bc_keys.append((near_flat[cut] * dim + axis) * 2 + (direction > 0))
    rows.append(near_row)
    cols.append(near_row)
    vals.append(diag)
    order = np.argsort(np.concatenate(bc_keys))

    A = sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                      shape=(n_active, n_active)).tocsr()
    return SparseSystem(
        A=A, b=None, domain=domain, grid=grid, params=params, dirichlet=None,
        bc_rows=np.concatenate(bc_rows)[order],
        bc_coeffs=np.concatenate(bc_coeffs)[order],
        bc_points=np.concatenate(bc_points)[order],
    )


def assemble_torsion_system(domain, grid, params, rhs=-1.0, dirichlet=0.0) -> SparseSystem:
    """Assemble A u = b for L_a u = rhs with Dirichlet data on the cut
    points; rhs and dirichlet are each a constant or a callable on points.
    A approximates L_a itself (diagonal strictly negative), so the torsion
    problem is rhs = -1 with dirichlet = 0."""
    min_axis = min(domain.r_extent, *domain.y_halfwidth)
    if min_axis / grid.h_r < 4.0 - 1e-12:
        raise GridTooCoarse(
            f"smallest semi-axis {min_axis} is under 4 cells at h={grid.h_r}; refine the grid"
        )
    return _build(domain, grid, params).with_data(rhs, dirichlet)


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def apply_operator(field, params, rows_mask=None):
    """L_a applied to a grid field, as a new field on the same active set.

    Rows next to the boundary need the field's Dirichlet data; restrict with
    rows_mask (boolean, grid shape) to evaluate only away from the boundary
    (for example for fields that carry no boundary values)."""
    system = assemble_torsion_system(field.domain, field.grid, params)
    inside = field.geometry.inside
    out = system.A @ field.values[inside]
    if system.bc_rows.size and (rows_mask is None or rows_mask[inside][system.bc_rows].any()):
        out = out + system.bc_vector(field.boundary_values)  # raises without Dirichlet data
    vals = np.full(field.grid.shape, np.nan)
    vals[inside] = out
    if rows_mask is not None:
        vals = np.where(rows_mask, vals, np.nan)
    return ScalarField(grid=field.grid, domain=field.domain, values=vals,
                       boundary_values=None, parity=field.parity)


def boundary_normal_gradient(field, samples=None, count=20000, depth=None):
    """|normal derivative| at boundary sample points.

    The nodal gradient (second order, one-sided at boundary cuts) is
    interpolated at two inward offsets d and 2d along the normal and
    extrapolated back to the boundary, g ~ 2 g(p - d nu) - g(p - 2d nu).
    Exact for affine gradients, so the quadratic ball profile is probed
    to solver accuracy.
    """
    domain = field.domain
    if not domain.smooth_boundary:
        raise UnsupportedShape("normal gradient sampling needs a smooth boundary")
    if field.boundary_values is None:
        raise MissingBoundaryData(
            "boundary probing requires Dirichlet data on the field")
    if samples is None:
        samples = boundary_samples(domain, count)
    # default depth keeps both probe points inside fully interior
    # interpolation cells even where the boundary curves across the grid
    d = depth if depth is not None else 2.0 * field.grid.h_r
    grads = gradient_fields(field)
    p1 = samples.points - d * samples.normals
    p2 = samples.points - 2.0 * d * samples.normals
    g1 = np.zeros(samples.points.shape[0])
    g2 = np.zeros(samples.points.shape[0])
    for axis, g in enumerate(grads):
        g1 += samples.normals[:, axis] * g.interpolate(p1)
        g2 += samples.normals[:, axis] * g.interpolate(p2)
    if np.any(~np.isfinite(g1)) or np.any(~np.isfinite(g2)):
        raise StencilLeavesDomain(
            "normal probe stencil leaves the active grid; refine the grid "
            "or shrink the probe depth"
        )
    return np.abs(2.0 * g1 - g2)


def normal_derivative_at_axis(field):
    """Estimate u_r(0, y) per tangential column from the first three
    r-layers: u_r(0) ~ (-2 u_0 + 3 u_1 - u_2)/h (second order; exact zero
    for fields even in r on symmetric data).

    Returns (y_points, values) over the columns whose first three r-nodes
    are inside the domain."""
    grid = field.grid
    if grid.n_r < 3:
        raise GridTooCoarse("need at least three r-layers for the axis probe")
    geo = grid_geometry(field.domain, field.grid)
    ok = geo.inside[0] & geo.inside[1] & geo.inside[2]
    u0 = field.values[0][ok]
    u1 = field.values[1][ok]
    u2 = field.values[2][ok]
    vals = (-2.0 * u0 + 3.0 * u1 - u2) / grid.h_r
    cols = np.argwhere(ok)
    y_pts = np.stack(
        [grid.y_nodes(m)[cols[:, m]] for m in range(grid.k)], axis=-1
    ) if grid.k else np.zeros((vals.size, 0))
    return y_pts, vals


# ---------------------------------------------------------------------------
# CSV serialization
# ---------------------------------------------------------------------------


CSV_BLOCK_ROWS = 2048  # rows formatted per string operation; bounds the text in memory


def field_to_csv(field, path):
    """Write `r,y1,...,yk,u` rows (17 significant digits) for active nodes.

    Each lattice coordinate is formatted once per axis (`%.17g`) and a
    row's coordinates are gathered from that text by its node index, so
    only `u` is formatted per row.  The rows come in C order of the
    lattice, the order of `values[inside]`."""
    grid = field.grid
    geo = grid_geometry(field.domain, field.grid)
    index = np.nonzero(geo.inside)
    axis_text = [np.array(["%.17g," % c for c in axis.tolist()], dtype=object)
                 for axis in grid.axes()]
    values = field.values[geo.inside]
    header = "r," + ",".join(f"y{m + 1}" for m in range(grid.k)) + ",u"
    line = "%s" * (grid.k + 1) + "%.17g\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for start in range(0, values.size, CSV_BLOCK_ROWS):
            rows = slice(start, start + CSV_BLOCK_ROWS)
            u = values[rows]
            block = np.empty((u.size, grid.k + 2), dtype=object)
            for col, (text, node) in enumerate(zip(axis_text, index)):
                block[:, col] = text[node[rows]]
            block[:, -1] = u
            fh.write(line * len(block) % tuple(block.ravel().tolist()))


def field_from_csv(path, grid, domain, boundary_values=None, parity="even"):
    """Read a field written by field_to_csv back onto its grid.

    Every row must name a distinct inside node of the lattice, and every
    inside node must have a row; a ValueError names the count and the
    first offender otherwise."""
    ncol = grid.k + 2
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if len(header) != ncol:
            raise ValueError(f"expected {ncol} columns, found {len(header)}")
        rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    if rows.size and rows.shape[1] != ncol:
        raise ValueError(f"expected {ncol} columns, found {rows.shape[1]}")
    rows = rows.reshape(-1, ncol)
    coords = rows[:, :-1]
    origin = np.array([0.5 * grid.h_r, *grid.y_start])
    step = np.array([grid.h_r] + [grid.h_y] * grid.k)
    index = np.rint((coords - origin) / step).astype(np.int64)
    bad = (np.any((index < 0) | (index >= np.asarray(grid.shape)), axis=1)
           | np.any(np.abs(origin + index * step - coords) > 1e-9 * grid.h_r, axis=1))
    if bad.any():
        raise ValueError(f"{int(bad.sum())} rows do not land on a grid node, "
                         f"first at {coords[bad][0].tolist()}")
    flat = np.ravel_multi_index(tuple(index.T), grid.shape)
    named = np.bincount(flat, minlength=grid.n_nodes)
    repeats = flat.size - int(np.count_nonzero(named))
    if repeats:
        raise ValueError(f"{repeats} rows repeat a grid node, "
                         f"first at {coords[named[flat] > 1][0].tolist()}")
    inside = grid_geometry(domain, grid).inside.reshape(-1)
    outside = ~inside[flat]
    if outside.any():
        raise ValueError(f"{int(outside.sum())} rows name a node outside the domain, "
                         f"first at {coords[outside][0].tolist()}")
    missing = np.flatnonzero(inside & (named == 0))
    if missing.size:
        first = [float(axis[i]) for axis, i in
                 zip(grid.axes(), np.unravel_index(missing[0], grid.shape))]
        raise ValueError(f"{missing.size} inside nodes have no row, first at {first}")
    vals = np.full(grid.shape, np.nan)
    vals.reshape(-1)[flat] = rows[:, -1]
    return ScalarField(grid=grid, domain=domain, values=vals,
                       boundary_values=boundary_values, parity=parity)
