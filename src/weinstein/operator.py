"""Finite-difference discretization of the Weinstein operator

    L_a u = u_rr + (a/r) u_r + Delta_y u.

Every row writes the r direction in the conservative flux form

    (B_a u)_i = [ r+^a (u_+ - u_i)/h+ - r-^a (u_i - u_-)/h- ] / V_i

on its r arms h-+ (the step, or a cut arm), with faces r-+ = r_i -+ h-+/2,
the exact dual cell V_i = int r^a dr between them and no flux through a
face at r = 0 (`_r_flux`; Johansen & Colella, J. Comput. Phys. 147 (1998)
60-85).  It is exact on even quadratics at every node, and no
coefficient off the diagonal is negative, at any a.  The y arms of the
rows with a cut arm take Shortley-Weller weights, and a cut arm the
Dirichlet value at its cut point.  Interior rows are symmetric in the
weighted inner product <u, v> = sum u v V_i h^k; cut rows are not.  An
assembly computes only the coefficients, which depend on a; the rows and
columns of A and the arms come from the geometry's `NeighbourTable`.

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
import functools

import numpy as np

from .differential import gradient_fields
from .errors import GridTooCoarse, MissingBoundaryData, StencilLeavesDomain, UnsupportedShape
from .field import ScalarField, on_points
from .geometry import R_AXIS, MirrorFold, boundary_samples, grid_geometry, three_point_weights


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


def _mirror_defect(values, table, axis):
    """The norm of A less its mirror image on `axis` (one of the table's
    `mirror_axes`), for A's `values` in the table's slot layout: the
    (y_j,-) and (y_j,+) slots swap, and the rows go to their mirror images."""
    width = values.shape[0]
    mirror = table.mirror(axis)
    swap = np.arange(width)
    swap[[axis, width - 1 - axis]] = width - 1 - axis, axis
    return np.sqrt(sum(np.linalg.norm(values[swap[slot]].take(mirror) - values[slot]) ** 2
                       for slot in range(width)))


class SlotMatrix:
    """A on the active nodes of a grid, in its `NeighbourTable`'s slot layout.

    `values` has one row per slot and one column per matrix row, zero where
    the table's slot has no neighbour (a cut arm's coefficient is kept only
    in the system's bc_coeffs); `table.columns` gives the columns.  The CSR
    views `nnz`, `data`, `indices` and `indptr` (int32) list the present
    slots row by row and are read off `columns`, not stored.

    `even_axes` are the table's mirror axes on which A and given data are
    their own mirror images, and `fold` gives A on the fundamental rows of
    some of them; A keeps its own mirror defects, for every system on it,
    and its last fold, for every system whose data are even on the same
    axes.  `levels` are the solver's V-cycle levels for the matrix a solve
    iterates on, the fold (A itself over no axes), None until a k = 1
    solve builds them.  Nothing in a fold or its levels refers to A, so
    all are freed with A."""

    def __init__(self, values, table):
        self.values = values
        self.table = table
        self.shape = (values.shape[1], values.shape[1])
        self.levels = None
        self._folded = None

    def __matmul__(self, x):
        return slot_product(self.values, self.table.columns, x)

    @functools.cached_property
    def _mirror_defects(self):
        """(norm of `values`, {axis: `_mirror_defect` of A on axis}) over the
        table's `mirror_axes`: A's half of `even_axes`, which no b changes,
        computed on first need and kept, as the fold is."""
        return (np.linalg.norm(self.values),
                {axis: _mirror_defect(self.values, self.table, axis)
                 for axis in self.table.mirror_axes})

    def even_axes(self, b, tol):
        """The table's `mirror_axes` j whose mirror y_j -> 2 c_j - y_j maps
        A and b to themselves, up to tol relative to the norms of `values`
        and b.  On those axes the solution of A x = b is even, up to
        rounding.  Assembled coefficients differ from their mirror images
        by rounding in the cut arms (4e-12 of the largest on the (1, 2)
        ellipsoid at h = 1/96), so for an assembled A the data decide; a
        matrix built by hand is even where its values are.  A's defects are
        kept (`_mirror_defects`), so each call passes over b alone."""
        norm, defects = self._mirror_defects
        b_tol = tol * np.linalg.norm(b)
        return tuple(axis for axis in self.table.mirror_axes
                     if np.linalg.norm(b.take(self.table.mirror(axis)) - b) <= b_tol
                     and defects[axis] <= tol * norm)

    def fold(self, axes):
        """A on the fundamental rows of its mirrors on `axes`, over the
        table's `MirrorFold`: the kept rows' slots, each column mapped
        through the mirror, and a slot whose neighbour lies across a mirror
        plane (its column is now the row itself) added into the diagonal
        and zeroed, as `solver._coarsen` merges an aggregate's own columns.
        Its values and columns are slot-major and C-contiguous, as A's are.
        For an even x, A x on the kept rows is this matrix times x on them.
        Over no axes it is A itself; A keeps the last fold it built."""
        if not axes:
            return self
        if self._folded is None or self._folded.table.axes != axes:
            table = MirrorFold(self.table, axes)
            values = self.values.take(table.rows, axis=1)
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
    arms: `bc_coeffs`, which depend on a, one per cut arm of A's
    `NeighbourTable`, whose `bc_rows` and `bc_points` give each arm's row
    and cut point, in the order bc_vector sums them (node, axis, minus arm
    before plus arm).  `with_data` reuses A and the couplings for other
    data; no matrix is cached."""

    A: SlotMatrix
    b: np.ndarray
    domain: object
    grid: object
    params: object
    dirichlet: object
    bc_coeffs: np.ndarray

    @property
    def n(self):
        return self.b.shape[0]

    def bc_vector(self, dirichlet):
        """Accumulated boundary contributions coeff * g(cut point) per row."""
        table = self.A.table
        out = np.zeros(self.A.shape[0])
        if table.bc_rows.size == 0:
            return out
        if dirichlet is None:
            raise MissingBoundaryData("stencil touches the boundary but no Dirichlet data given")
        data = on_points(dirichlet, table.bc_points)
        with np.errstate(invalid="ignore"):  # inf * 0: `solve` names an overflowed coefficient
            np.add.at(out, table.bc_rows, self.bc_coeffs * data)
        return out

    def with_data(self, rhs, dirichlet):
        """The system for L_a u = rhs with Dirichlet data `dirichlet` on the
        same A and couplings; each is a constant or a callable on points."""
        inside = self.A.table.inside
        rhs = on_points(rhs, self.grid.points_at(inside)) if callable(rhs) else float(rhs)
        b = rhs - self.bc_vector(dirichlet)
        return dataclasses.replace(self, b=b, dirichlet=dirichlet)

    def field_from_vector(self, vec):
        return ScalarField(grid=self.grid, domain=self.domain, active=vec,
                           boundary_values=self.dirichlet)


def _r_flux(r, h_minus, h_plus, a):
    """(c_minus, c_plus) of r^-a d_r(r^a d_r u) at r on the arms h_minus,
    h_plus: faces r-+ = r -+ h-+/2, V = int r^a dr between them, c-+ =
    r-+^a / (h-+ V), and 0 through a face at r = 0.  In the ratio rho = r-/r+,
    c+ = (a+1) / (h+ r+ (1 - rho^(a+1))) and c- = rho^a c+ h+ / h-, no power
    of r over- or underflows."""
    r_minus, r_plus = r - 0.5 * h_minus, r + 0.5 * h_plus
    rho = r_minus / r_plus
    # log(0) on the axis face; `solve` names a c+ that overflows at a huge a
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        c_plus = (a + 1.0) / (h_plus * r_plus * -np.expm1((a + 1.0) * np.log(rho)))
        c_minus = np.where(r_minus > 0.0, rho**a * c_plus * h_plus / h_minus, 0.0)
    return c_minus, c_plus


def _build(domain, grid, params) -> SparseSystem:
    """Matrix and boundary couplings of L_a on the active nodes of a grid,
    as a system that holds no data yet (b and dirichlet are None).  The
    values fill the table's slots; the slots of the cut arms are zeroed
    once bc_coeffs holds their coefficients."""
    table = grid_geometry(domain, grid).neighbours
    dim = grid.k + 1
    h2 = grid.h**2
    r_i, near, r_nodes = table.row_r, table.near, grid.r_nodes()

    # the r direction of every row in flux form: each r layer's on equal
    # arms, then the near rows' on their own arms
    c_minus, c_plus = (c[r_i] for c in _r_flux(r_nodes, grid.h, grid.h, params.a))
    (h_minus, h_plus), *y_arms = table.arms
    c_minus[near], c_plus[near] = _r_flux(r_nodes[r_i[near]], h_minus, h_plus, params.a)
    vals = np.empty(table.columns.shape)
    vals[R_AXIS], vals[-1] = c_minus, c_plus
    vals[dim] = -(c_plus + c_minus) - 2.0 * grid.k / h2
    vals[1:dim] = vals[dim + 1:-1] = 1.0 / h2

    # the near rows' y arms: Shortley-Weller.  The diagonal adds c_0 axis by
    # axis; a cut arm's coefficient stays in its slot for bc_coeffs
    diag = -(c_plus[near] + c_minus[near])
    for axis, arms in enumerate(y_arms, start=1):
        c_m, c_0, c_p = three_point_weights(*arms)[1]
        diag += c_0
        vals[axis, near] = c_m
        vals[2 * dim - axis, near] = c_p
    vals[dim, near] = diag

    bc_coeffs = vals[table.bc_slots, table.bc_rows]
    vals[table.bc_slots, table.bc_rows] = 0.0
    return SparseSystem(
        A=SlotMatrix(vals, table), b=None, domain=domain, grid=grid, params=params,
        dirichlet=None, bc_coeffs=bc_coeffs,
    )


def assemble_torsion_system(domain, grid, params, rhs=-1.0, dirichlet=0.0) -> SparseSystem:
    """Assemble A u = b for L_a u = rhs with Dirichlet data on the cut
    points; rhs and dirichlet are each a constant or a callable on points.
    A approximates L_a itself (diagonal strictly negative), so the torsion
    problem is rhs = -1 with dirichlet = 0."""
    min_axis = min(domain.extents)
    if min_axis / grid.h < 4.0 - 1e-12:
        raise GridTooCoarse(
            f"smallest semi-axis {min_axis} is under 4 cells at h={grid.h}; refine the grid"
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
    table = system.A.table
    rows = None if rows_mask is None else rows_mask[table.inside]
    if table.bc_rows.size and (rows is None or rows[table.bc_rows].any()):
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
    d = depth if depth is not None else 2.0 * field.grid.h
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
    vals = (-2.0 * u0 + 3.0 * u1 - u2) / grid.h
    return grid.points_of(layer[ok])[:, 1:], vals


# ---------------------------------------------------------------------------
# CSV serialization
# ---------------------------------------------------------------------------


CSV_BLOCK_ROWS = 2048  # least rows per block of whole r layers; bounds the text in memory


def _mirror_classes(values, table):
    """The table's `classes`, (rows, unfold), over its `mirror_axes` on
    which `values` equals its mirror image bit for bit (so -0.0 and 0.0
    stay apart)."""
    bits = values.view(np.int64)
    return table.classes(tuple(axis for axis in table.mirror_axes
                               if np.array_equal(bits, bits.take(table.mirror(axis)))))


def field_to_csv(field, path):
    """Write `r,y1,...,yk,u` rows (17 significant digits) for active nodes.

    Each lattice coordinate is formatted once per axis (`%.17g`) and a
    row's coordinates are gathered from that text by its node index.  `u`
    is formatted once per mirror class (`_mirror_classes`): a block
    formats its classes' representatives, and each row gathers its class's
    text through `unfold`.  A mirror maps y axes only, so a class lies in
    one r layer, and the rows are written in blocks of whole r layers, at
    least `CSV_BLOCK_ROWS` rows or one layer if that is larger.  The rows
    come in C order of the lattice, the order of `field.active`."""
    grid = field.grid
    geo = field.geometry
    values = field.active
    rows, unfold = _mirror_classes(values, geo.neighbours)
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
            # a representative is the largest row of its class, so the
            # block's first class is found by row, not as unfold[lo]
            first, last = np.searchsorted(rows, (lo, hi))
            u = values[rows[first:last]].tolist()
            text = np.array((("%.17g\n" * len(u)) % tuple(u)).splitlines(True), dtype=object)
            index = np.nonzero(geo.inside[layer:top + 1])
            block = np.empty((hi - lo, grid.k + 2), dtype=object)
            block[:, 0] = axis_text[0][layer + index[0]]
            for col in range(1, grid.k + 1):
                block[:, col] = axis_text[col][index[col]]
            block[:, -1] = text[unfold[lo:hi] - first]
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
    origin = np.array([0.5 * grid.h, *grid.y_start])
    # rows outside the lattice's cells (nan and inf among them) are marked
    # before the cast to int, which would warn on them; their index is 0
    off = ~np.all((coords >= origin - 0.5 * grid.h)
                  & (coords < origin + (np.asarray(grid.shape) - 0.5) * grid.h), axis=1)
    index = np.rint(np.where(off[:, None], 0.0, coords - origin) / grid.h).astype(np.int64)
    bad = off | np.any(np.abs(origin + index * grid.h - coords) > 1e-9 * grid.h, axis=1)
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
