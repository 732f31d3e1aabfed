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
the cut point.  Interior rows are symmetric in the weighted inner
product <u, v> = sum u v V_i h^k; cut rows are not.  An assembly computes
only the coefficients, which depend on a; the rows and columns of A, the
arm weights and the cut arms come from the geometry's `NeighbourTable`.

A is a `SlotMatrix`: one row of values per slot of the table, whose
`columns` are A's columns, zero where the slot has no neighbour, and
`A @ x` adds the slots' products in ascending column order.

`assemble_torsion_system` returns one `SparseSystem`, which owns A and
the Dirichlet couplings of the cut arms; `SparseSystem.with_data` gives
the system for other data on the same matrix.  No matrix is cached: one,
and the fold solves keep on it, live as long as the systems that hold it
(the grid geometry and its table are cached, in `geometry.grid_geometry`).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .differential import gradient_fields
from .errors import GridTooCoarse, MissingBoundaryData, StencilLeavesDomain, UnsupportedShape
from .field import ScalarField, on_points
from .geometry import R_AXIS, MirrorFold, boundary_samples, grid_geometry
from .measure import r_cell_measure


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


def slot_product(values, columns, x):
    """y = A x for A in slot layout: values[s, i] multiplies x[columns[s, i]].

    The 2 dim + 1 slots run in ascending column order, (r,-) .. (yk,-),
    diagonal, (yk,+) .. (r,+), and a slot without a neighbour holds 0.
    Row i's (yk,-), diagonal and (yk,+) columns are i - 1, i and i + 1, so
    those slots read x as shifted slices; the others gather by `columns`.
    Each row adds its slots' products in slot order, as a CSR product adds
    a row's entries, so on finite x, y is bit for bit that product (save
    the sign of a row sum that is exactly zero)."""
    mid = values.shape[0] // 2
    term = np.empty_like(x)
    y = x.take(columns[0], mode="wrap")
    y *= values[0]
    for s in range(1, values.shape[0]):
        if s == mid - 1:
            y[1:] += np.multiply(values[s, 1:], x[:-1], out=term[1:])
        elif s == mid:
            y += np.multiply(values[s], x, out=term)
        elif s == mid + 1:
            y[:-1] += np.multiply(values[s, :-1], x[1:], out=term[:-1])
        else:
            x.take(columns[s], mode="wrap", out=term)
            term *= values[s]
            y += term
    return y


class SlotMatrix:
    """A on the active nodes of a grid, in its `NeighbourTable`'s slot layout.

    `values` has one row per slot and one column per matrix row, zero where
    the table's slot has no neighbour (a cut arm's coefficient is kept only
    in the system's bc_coeffs); `table.columns` gives the columns.  The CSR
    views `nnz`, `data`, `indices` and `indptr` (int32) list the present
    slots row by row and are read off `columns`, not stored.

    `even_axes` are the table's mirror axes on which A and given data are
    their own mirror images, and `fold` gives A on the fundamental rows of
    some of them; A keeps its last fold, for every system on it whose data
    are even on the same axes.  `levels` are the solver's V-cycle levels
    for the matrix a solve iterates on, the fold (A itself over no axes),
    None until a k = 1 solve builds them.  Nothing in a fold or its levels
    refers to A, so all are freed with A."""

    def __init__(self, values, table):
        self.values = values
        self.table = table
        self.shape = (values.shape[1], values.shape[1])
        self.levels = None
        self._folded = None

    def __matmul__(self, x):
        return slot_product(self.values, self.table.columns, x)

    def diagonal(self):
        return self.values[self.values.shape[0] // 2].copy()

    def even_axes(self, b, tol):
        """The table's `mirror_axes` j whose mirror y_j -> 2 c_j - y_j maps
        A and b to themselves, up to tol relative to the norms of `values`
        and b: the (y_j,-) and (y_j,+) slots swap, and the rows go to their
        mirror images.  On those axes the solution of A x = b is even, up
        to rounding.  Assembled coefficients differ from their mirror
        images by rounding in the cut arms (4e-12 of the largest on the
        (1, 2) ellipsoid at h = 1/96), so for an assembled A the data
        decide; a matrix built by hand is even where its values are."""
        width = self.values.shape[0]
        values_tol, b_tol = tol * np.linalg.norm(self.values), tol * np.linalg.norm(b)
        axes = []
        for axis in self.table.mirror_axes:
            mirror = self.table.mirror(axis)
            if not np.linalg.norm(b.take(mirror) - b) <= b_tol:
                continue
            swap = np.arange(width)
            swap[[axis, width - 1 - axis]] = width - 1 - axis, axis
            odd = np.sqrt(sum(np.linalg.norm(self.values[swap[slot]].take(mirror)
                                             - self.values[slot]) ** 2
                              for slot in range(width)))
            if odd <= values_tol:
                axes.append(axis)
        return tuple(axes)

    def fold(self, axes):
        """A on the fundamental rows of its mirrors on `axes`, over the
        table's `MirrorFold`: the kept rows' slots, each column mapped
        through the mirror, and a slot whose neighbour lies across a mirror
        plane (its column is now the row itself) added into the diagonal
        and zeroed, as `solver._coarsen` merges an aggregate's own columns.
        For an even x, A x on the kept rows is this matrix times x on them.
        Over no axes it is A itself; A keeps the last fold it built."""
        if not axes:
            return self
        if self._folded is None or self._folded.table.axes != axes:
            table = MirrorFold(self.table, axes)
            values = self.values[:, table.rows]
            mid = values.shape[0] // 2
            own = np.arange(table.rows.size, dtype=np.int32)
            for slot, columns in enumerate(table.columns):
                across = columns == own
                if slot != mid:
                    values[mid, across] += values[slot, across]
                    values[slot, across] = 0.0
            self._folded = SlotMatrix(values, table)
        return self._folded

    def _present(self):
        """Row-major mask: the diagonal, and each slot whose column is not its row."""
        width, n = self.table.columns.shape
        return (self.table.columns != np.arange(n)).T | (np.arange(width) == width // 2)

    @property
    def nnz(self):
        return int(np.count_nonzero(self._present()))

    @property
    def data(self):
        return self.values.T[self._present()]

    @property
    def indices(self):
        return self.table.columns.T[self._present()]

    @property
    def indptr(self):
        return np.pad(np.cumsum(self._present().sum(axis=1), dtype=np.int32), (1, 0))


@dataclasses.dataclass
class SparseSystem:
    """Assembled linear system A u = b on the active nodes (A ~ L_a).

    The system owns the Dirichlet couplings coeff * g(point) of its cut
    arms: bc_rows, bc_coeffs and bc_points, ordered by (node, axis, minus
    arm before plus arm), the order bc_vector sums them in.  `with_data`
    reuses A and the couplings for other data; no matrix is cached.  A's
    columns, bc_rows and bc_points are read-only `NeighbourTable`
    arrays."""

    A: SlotMatrix
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
        inside = grid_geometry(self.domain, self.grid).inside
        rhs = on_points(rhs, self.grid.points_at(inside)) if callable(rhs) else float(rhs)
        b = rhs - self.bc_vector(dirichlet)
        return dataclasses.replace(self, b=b, dirichlet=dirichlet)

    def field_from_vector(self, vec):
        return ScalarField(grid=self.grid, domain=self.domain, active=vec,
                           boundary_values=self.dirichlet)


def _build(domain, grid, params) -> SparseSystem:
    """Matrix and boundary couplings of L_a on the active nodes of a grid,
    as a system that holds no data yet (b and dirichlet are None).  The
    values fill the table's slots; the slots without a neighbour (the cut
    arms and the r = 0 fold) are zeroed once bc_coeffs holds the cut arms'."""
    table = grid_geometry(domain, grid).neighbours
    dim = grid.k + 1
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

    # interior rows: flux form, written on every row and overwritten on the near rows
    r_i = table.row_r
    vals = np.empty(table.columns.shape)
    vals[R_AXIS] = c_minus[r_i]
    vals[-1] = c_plus[r_i]
    vals[dim] = -(c_plus[r_i] + c_minus[r_i]) - 2.0 * grid.k / hy2
    vals[1:dim] = vals[dim + 1:-1] = 1.0 / hy2

    # near-boundary rows: nondivergence Shortley-Weller.  The diagonal sums
    # c_0 axis by axis, the r = 0 ghost right after axis 0's c_0; a cut
    # arm's coefficient stays in its slot for bc_coeffs
    near = table.near
    ar = a / grid.r_nodes()[r_i[near]]
    diag = np.zeros(near.size)
    for axis, (first, second) in enumerate(table.weights):
        if axis == R_AXIS:  # u_rr + (a/r) u_r
            second = [w2 + ar * w1 for w2, w1 in zip(second, first)]
        c_m, c_0, c_p = second
        diag += c_0
        if axis == R_AXIS:
            diag[table.ghost] += c_m[table.ghost]
        vals[axis, near] = c_m
        vals[2 * dim - axis, near] = c_p
    vals[dim, near] = diag

    bc_coeffs = vals[table.bc_slots, table.bc_rows]
    vals[table.bc_slots, table.bc_rows] = vals[R_AXIS, r_i == 0] = 0.0
    return SparseSystem(
        A=SlotMatrix(vals, table), b=None, domain=domain, grid=grid, params=params,
        dirichlet=None, bc_rows=table.bc_rows, bc_coeffs=bc_coeffs,
        bc_points=table.bc_points,
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
    (for example for fields that carry no boundary values); the rows off
    the mask hold NaN."""
    system = assemble_torsion_system(field.domain, field.grid, params)
    out = system.A @ field.active
    rows = None if rows_mask is None else rows_mask[field.geometry.inside]
    if system.bc_rows.size and (rows is None or rows[system.bc_rows].any()):
        out = out + system.bc_vector(field.boundary_values)  # raises without Dirichlet data
    if rows is not None:
        out[~rows] = np.nan
    return ScalarField(grid=field.grid, domain=field.domain, active=out,
                       parity=field.parity)


def boundary_normal_gradient(field, samples=None, count=20000, depth=None):
    """|normal derivative| at boundary sample points.

    The nodal gradient (second order, one-sided at boundary cuts) is
    interpolated at two inward offsets d and 2d along the normal and
    extrapolated back to the boundary, g ~ 2 g(p - d nu) - g(p - 2d nu).
    Exact for affine gradients, so the quadratic ball profile is probed
    to solver accuracy.
    """
    return _normal_gradient(field, lambda: gradient_fields(field), samples, count, depth)


def _normal_gradient(field, gradient, samples=None, count=20000, depth=None):
    """`boundary_normal_gradient` with the nodal gradient of `field` read
    from gradient(), called once after the checks on the field, so a run
    that has the gradient already passes it in."""
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
    n = samples.points.shape[0]
    probes = np.concatenate([samples.points - d * samples.normals,
                             samples.points - 2.0 * d * samples.normals])
    g1 = np.zeros(n)
    g2 = np.zeros(n)
    for axis, g in enumerate(gradient()):
        both = g.interpolate(probes)
        g1 += samples.normals[:, axis] * both[:n]
        g2 += samples.normals[:, axis] * both[n:]
    if np.any(~np.isfinite(g1)) or np.any(~np.isfinite(g2)):
        raise StencilLeavesDomain(
            "normal probe stencil leaves the active grid; refine the grid "
            "or shrink the probe depth"
        )
    return np.abs(2.0 * g1 - g2)


def normal_derivative_at_axis(field):
    """Estimate u_r(0, y) per tangential column from the first three
    r-layers: u_r(0) ~ (-2 u_0 + 3 u_1 - u_2)/h (second order; exact zero
    for fields even in r on symmetric data), read through the rows.

    Returns (y_points, values) over the columns whose first three r-nodes
    are inside the domain."""
    grid = field.grid
    if grid.n_r < 3:
        raise GridTooCoarse("need at least three r-layers for the axis probe")
    geo = field.geometry
    layer = np.flatnonzero(geo.inside[0])  # flat indices of rows 0, 1, .. (the first r layer)
    up = geo.neighbours.columns[-1]  # (r,+); a column holding its own row has no neighbour
    r0 = np.arange(layer.size, dtype=np.int32)
    r1, r2 = up[r0], up[up[r0]]
    ok = (r1 != r0) & (r2 != r1)
    u0, u1, u2 = (field.active[r[ok]] for r in (r0, r1, r2))
    vals = (-2.0 * u0 + 3.0 * u1 - u2) / grid.h_r
    return grid.points_of(layer[ok])[:, 1:], vals


# ---------------------------------------------------------------------------
# CSV serialization
# ---------------------------------------------------------------------------


CSV_BLOCK_ROWS = 2048  # least rows per block of whole r layers; bounds the text in memory


def _mirror_classes(values, table):
    """The table's `classes` over its `mirror_axes` on which `values`
    equals its mirror image bit for bit (so -0.0 and 0.0 stay apart)."""
    bits = values.view(np.int64)
    return table.classes(tuple(axis for axis in table.mirror_axes
                               if np.array_equal(bits, bits.take(table.mirror(axis)))))


def field_to_csv(field, path):
    """Write `r,y1,...,yk,u` rows (17 significant digits) for active nodes.

    Each lattice coordinate is formatted once per axis (`%.17g`) and a
    row's coordinates are gathered from that text by its node index.  `u`
    is formatted once per mirror class (`_mirror_classes`), and each row
    gathers its class's text.  A mirror maps y axes only, so a class lies
    in one r layer, and the rows are written in blocks of whole r layers,
    at least `CSV_BLOCK_ROWS` rows or one layer if that is larger.  The
    rows come in C order of the lattice, the order of `field.active`."""
    grid = field.grid
    geo = field.geometry
    values = field.active
    rep = _mirror_classes(values, geo.neighbours)
    # rows run r slowest: the rows of r layers 0..i end at ends[i]
    ends = np.cumsum(np.count_nonzero(geo.inside.reshape(grid.n_r, -1), axis=1))
    axis_text = [np.array(["%.17g," % c for c in axis.tolist()], dtype=object)
                 for axis in grid.axes()]
    header = "r," + ",".join(f"y{m + 1}" for m in range(grid.k)) + ",u"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        lo = layer = 0
        while lo < values.size:
            # the block is r layers layer..top, top the first layer at which
            # it holds CSV_BLOCK_ROWS rows, or the last layer
            top = min(int(np.searchsorted(ends, lo + CSV_BLOCK_ROWS)), ends.size - 1)
            hi = int(ends[top])
            own = rep[lo:hi] == np.arange(lo, hi)
            u = values[lo:hi][own].tolist()
            text = np.array((("%.17g\n" * len(u)) % tuple(u)).splitlines(True), dtype=object)
            index = np.nonzero(geo.inside[layer:top + 1])
            block = np.empty((hi - lo, grid.k + 2), dtype=object)
            block[:, 0] = axis_text[0][layer + index[0]]
            for col in range(1, grid.k + 1):
                block[:, col] = axis_text[col][index[col]]
            block[:, -1] = text[(np.cumsum(own) - 1)[rep[lo:hi] - lo]]
            fh.write("".join(block.ravel().tolist()))
            lo, layer = hi, top + 1


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
        # a file without rows is left to the missing-row check below;
        # loadtxt would print a warning first
        start = fh.tell()
        empty = not any(line.strip() for line in fh)
        fh.seek(start)
        rows = np.empty((0, ncol)) if empty else np.loadtxt(fh, delimiter=",", ndmin=2)
    if rows.shape[1] != ncol:
        raise ValueError(f"expected {ncol} columns, found {rows.shape[1]}")
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
    # the rows name every inside node once, so in node order they are the table's
    return ScalarField(grid=grid, domain=domain, active=rows[np.argsort(flat), -1],
                       boundary_values=boundary_values, parity=parity)
