"""Axially symmetric domains, staggered grids, and boundary sampling.

Coordinates are x = (r, y1, ..., yk); axis 0 is the weighted radial
coordinate.  Domains are symmetric under r -> -r and centered on the
axis {r = 0}, so signed distances are evaluated with |r|.

The grid is staggered in r: nodes sit at r_i = (i + 1/2) h, which keeps
every node strictly off the singular axis.  The y lattice is centered on
the domain so that refinement preserves the symmetry of node positions.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyDomain, UnsupportedShape

R_AXIS = 0  # index of the weighted radial coordinate
NEWTON_MAX_ITER = 40  # cap on the Newton iterations of the ellipsoid distance
ARM_FLOOR = 1e-6  # shortest cut arm, as a fraction of the step
MARGIN_CELLS = 2  # lattice cells of slack beyond the domain on each side


# ---------------------------------------------------------------------------
# domains
# ---------------------------------------------------------------------------


class _AxialDomain:
    """What every domain shape shares.

    A subclass is a frozen dataclass with two fields, `center` (the k axial
    coordinates of the centre) and the size named by the class attribute
    `shape_key` (one extent per axis, or the ball's scalar radius).  It
    also sets `kind`, the "type" of configs and descriptors, and, when its
    boundary has corners, `smooth_boundary = False`.  `extents` are the
    k+1 semi-extents along (r, y1, ..., yk).  A shape that knows more
    overrides `exact_torsion` (a closed-form solution) or `cell_fraction`
    (an exact cell overlap).

    `signed_distance(x, band=inf)` has one contract on every shape: its
    value is exact where |sd| <= band; elsewhere it has the sign of sd and
    band < |value| <= |sd|.  Callers that read only the sign, or the value
    near the boundary, pass the band they read."""

    smooth_boundary = True

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        shape = getattr(self, self.shape_key)
        if np.iterable(shape):  # one extent per axis; the ball's radius is a scalar
            object.__setattr__(self, self.shape_key, tuple(float(s) for s in shape))
        noun = self.shape_key.replace("_", "-")
        if len(self.extents) != self.k + 1:
            raise ValueError(f"need k+1 {noun} for k center coordinates")
        if any(e <= 0 for e in self.extents):
            raise ValueError(f"{noun} must be positive")

    @property
    def extents(self):
        return getattr(self, self.shape_key)

    @property
    def k(self):
        return len(self.center)

    @property
    def y_center(self):
        return self.center

    @property
    def r_extent(self):
        return self.extents[0]

    @property
    def y_halfwidth(self):
        return self.extents[1:]

    def offset(self, x):
        """x - (0, center): the points relative to the centre, r kept signed."""
        return np.asarray(x, dtype=float) - np.array([0.0, *self.center])

    def _centered(self, x):
        q = self.offset(x)
        q[..., 0] = np.abs(q[..., 0])
        return q

    def exact_torsion(self, params):
        """(u, |du/dn|): the closed-form torsion function and its constant
        boundary slope, or None where the shape has none."""
        return None

    def cell_fraction(self, centers, sd, h):
        """Covered fraction of the cells of side h at `centers` (signed
        distances sd), from the tangent half-space of the boundary."""
        return _halfspace_cell_fraction(self.sd_gradient(centers), sd, h)

    def axis_cut(self, points, axis, direction, h):
        """Fraction of the step h along (axis, direction) at which the arm
        from each inside point leaves sum((q_i / e_i)^2) <= 1, with
        q = offset(x) and e the extents.

        On the line only q_axis moves, so the crossing solves a scalar
        quadratic; the arm takes its larger root."""
        q = self.offset(points)
        s = np.asarray(self.extents, dtype=float)
        rest = np.delete(q / s, axis, axis=-1)
        room = np.sqrt(np.maximum(1.0 - np.sum(rest * rest, axis=-1), 0.0))
        return (s[axis] * room - direction * q[..., axis]) / h

    def descriptor(self):
        shape = getattr(self, self.shape_key)
        return {
            "type": self.kind,
            self.shape_key: list(shape) if np.iterable(shape) else shape,
            "center": list(self.center),
        }


@dataclass(frozen=True)
class Ball(_AxialDomain):
    """Euclidean ball of given radius centered at (0, center) on the axis."""

    radius: float
    center: tuple = (0.0,)

    kind, shape_key = "ball", "radius"

    @property
    def extents(self):
        return (self.radius,) * (self.k + 1)

    def exact_torsion(self, params):
        """u = (R^2 - rho^2) / (2N), N = a + 1 + k, with |du/dn| = R / N."""
        R, N = self.radius, params.dim_eff

        def u_exact(pts):
            q = self.offset(pts)
            rho2 = q[..., 0] ** 2 + np.sum(q[..., 1:] ** 2, axis=-1)
            return (R * R - rho2) / (2.0 * N)

        return u_exact, R / N

    def signed_distance(self, x, band=math.inf):
        q = self._centered(x)
        return np.linalg.norm(q, axis=-1) - self.radius

    def sd_gradient(self, x):
        x = np.asarray(x, dtype=float)
        q = self._centered(x)
        n = np.linalg.norm(q, axis=-1, keepdims=True)
        g = np.divide(q, n, out=np.zeros_like(q), where=n > 0)
        g[..., 0] *= np.sign(x[..., 0])
        return g


@dataclass(frozen=True)
class Ellipsoid(_AxialDomain):
    """Axis-aligned ellipsoid sum((x_i - c_i)^2 / s_i^2) = 1, c on the axis.

    semi_axes[0] is the r semi-axis.  The signed distance is the true
    Euclidean distance, found from the first-order conditions for the
    nearest boundary point: p_i = s_i^2 q_i / (s_i^2 + t) with t the root
    of f(t) = sum((s_i q_i / (s_i^2 + t))^2) - 1.  f is convex and
    decreasing on t > -min(s)^2, so Newton started left of the root, where
    the largest single term equals 1, climbs to it monotonically; it runs
    on x = t + min(s)^2, which keeps the roots next to that pole exact.

    The quadric bound (|q/s| - 1) * min(s) has the sign of the distance and
    never exceeds it in size, on either side, because |q/s| is
    1/min(s)-Lipschitz.  `signed_distance(x, band)` returns the bound on
    the rows where it exceeds `band` by more than the rounding of either
    value (shrunk by that rounding slack) and runs Newton only on the
    rest, so it is exact within `band` of the boundary.  Deep inside, past
    the medial axis where the Newton root can disappear, the bound is the
    value at any band.  Cut fractions along grid lines come in closed form
    from `axis_cut`.
    """

    semi_axes: tuple
    center: tuple = (0.0,)

    kind, shape_key = "ellipsoid", "semi_axes"

    def _level(self, q):
        """|q / s| of centred points q: below 1 inside, 1 on the boundary."""
        return np.sqrt(np.sum((q / np.asarray(self.semi_axes)) ** 2, axis=-1))

    def _nearest(self, q):
        """Nearest boundary point p and 'deep' mask, q already centered."""
        s = np.asarray(self.semi_axes)
        s2 = s * s
        flat = q.reshape(-1, q.shape[-1])
        x, deep, _ = _ellipsoid_root(s * flat, s2)
        p = s2 * flat / (s2 - s2.min() + x[:, None])
        return p.reshape(q.shape), deep.reshape(q.shape[:-1])

    def signed_distance(self, x, band=math.inf):
        q = self._centered(x)
        level = self._level(q)
        sd = np.asarray((level - 1.0) * min(self.semi_axes))
        # covers the rounding of the bound and of the Newton distance, so a
        # row kept as the bound lies beyond the band and, shrunk by it,
        # stays below the Newton distance in size where the two meet
        slack = 1e-12 * (level + 1.0) * max(self.semi_axes)
        near = np.abs(sd) <= band + 2.0 * slack
        qn = q[near]
        p, deep = self._nearest(qn)
        dist = np.linalg.norm(qn - p, axis=-1)
        sd[near] = np.where(deep, sd[near], np.where(level[near] >= 1.0, dist, -dist))
        sd[~near] -= np.sign(sd[~near]) * slack[~near]
        return sd

    def sd_gradient(self, x):
        x = np.asarray(x, dtype=float)
        q = self._centered(x)
        p, deep = self._nearest(q)
        s2 = np.asarray(self.semi_axes) ** 2
        d = q - p
        n = np.linalg.norm(d, axis=-1, keepdims=True)
        sign = np.where(self._level(q) >= 1.0, 1.0, -1.0)[..., None]
        g = np.where(n > 1e-12, sign * np.divide(d, n, out=np.zeros_like(d), where=n > 0), 0.0)
        # on (or numerically at) the surface fall back to the level-set normal
        surf = (n <= 1e-12)[..., 0] | deep
        if np.any(surf):
            ln = p / s2
            lnn = np.linalg.norm(ln, axis=-1, keepdims=True)
            alt = np.divide(ln, lnn, out=np.zeros_like(ln), where=lnn > 0)
            g = np.where(surf[..., None], alt, g)
        g[..., 0] *= np.sign(x[..., 0])
        return g


def _ellipsoid_root(sq, s2):
    """Root x = t + min(s2) of f = sum((sq_i / (d_i + x))^2) - 1, with
    d = s2 - min(s2), on x > 0 per row of sq (rows s_i q_i), by Newton from
    the left.  Solving for the distance x to the pole t = -min(s2) keeps
    full precision where the root sits next to it (points near the plane
    of the smallest semi-axis).

    Rows with f(lo) < 0 just right of the pole have no root ('deep', inside
    the evolute) and keep x = lo.  Every other row starts at
    max_i(|sq_i| - d_i), where its largest term equals 1, and leaves the
    active set once its step is at the rounding level.  Returns x, the
    deep mask and the number of sweeps run (NEWTON_MAX_ITER only if some
    row never converged)."""
    s2_min = s2.min()
    d = s2 - s2_min
    lo = 1e-14 * s2_min
    deep = np.sum((sq / (d + lo)) ** 2, axis=-1) < 1.0
    x = np.where(deep, lo, np.maximum(np.max(np.abs(sq) - d, axis=-1), lo))
    active = np.flatnonzero(~deep)
    sweeps = 0
    while active.size and sweeps < NEWTON_MAX_ITER:
        sweeps += 1
        xa = x[active]
        den = d + xa[:, None]
        w2 = (sq[active] / den) ** 2
        step = (np.sum(w2, axis=-1) - 1.0) / (2.0 * np.sum(w2 / den, axis=-1))
        x[active] = xa + np.maximum(step, 0.0)
        active = active[step > 1e-13 * xa]
    return x, deep, sweeps


@dataclass(frozen=True)
class Box(_AxialDomain):
    """Axis-aligned box |x_i - c_i| <= w_i; boundary has corners, so the
    smooth-boundary experiments reject it while volume quadrature stays exact."""

    half_widths: tuple
    center: tuple = (0.0,)

    kind, shape_key = "box", "half_widths"
    smooth_boundary = False

    def signed_distance(self, x, band=math.inf):
        q = self._centered(x)
        d = np.abs(q) - np.asarray(self.half_widths)
        outside = np.linalg.norm(np.maximum(d, 0.0), axis=-1)
        inside = np.minimum(d.max(axis=-1), 0.0)
        return outside + inside

    def sd_gradient(self, x):
        x = np.asarray(x, dtype=float)
        q = self._centered(x)
        d = np.abs(q) - np.asarray(self.half_widths)
        out = np.maximum(d, 0.0)
        n = np.linalg.norm(out, axis=-1, keepdims=True)
        g = np.where(
            n > 0,
            np.divide(out, n, out=np.zeros_like(out), where=n > 0) * np.sign(q),
            0.0,
        )
        interior = (n[..., 0] == 0)
        if np.any(interior):
            face = np.argmax(d, axis=-1)
            alt = np.zeros_like(g)
            idx = np.indices(face.shape)
            alt[(*idx, face)] = np.sign(q[(*idx, face)])
            g = np.where(interior[..., None], alt, g)
        g[..., 0] *= np.sign(x[..., 0])
        return g

    def axis_cut(self, points, axis, direction, h):
        """Fraction of the step h along (axis, direction) at which the arm
        from each inside point meets the face |x_axis - c_axis| = w_axis."""
        return (self.half_widths[axis] - direction * self.offset(points)[..., axis]) / h

    def cell_fraction(self, centers, sd, h):
        """Exact covered fraction of the cells; the region r < 0 mirrors
        into r > 0, so the box covers |r| <= w_r."""
        c, w = np.array([0.0, *self.center]), np.array(self.half_widths)
        overlap = np.minimum(centers + h / 2.0, c + w) - np.maximum(centers - h / 2.0, c - w)
        return np.prod(np.clip(overlap, 0.0, h) / h, axis=-1)


# ---------------------------------------------------------------------------
# staggered grid
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StaggeredGrid:
    """Tensor-product lattice; r nodes at (i + 1/2) h_r, i = 0..n_r-1."""

    h_r: float
    h_y: float
    n_r: int
    n_y: tuple
    y_start: tuple

    def __post_init__(self):
        # cell fractions, the cut band and Box.cell_fraction measure with
        # one step, so the quadrature needs square cells
        if self.h_r != self.h_y:
            raise ValueError(f"h_r = {self.h_r} and h_y = {self.h_y} must be equal")
        object.__setattr__(self, "n_y", tuple(int(n) for n in self.n_y))
        object.__setattr__(self, "y_start", tuple(float(y) for y in self.y_start))

    @classmethod
    def from_domain(cls, domain, h):
        """Cover the domain with at least MARGIN_CELLS of slack per side."""
        h = float(h)
        if h <= 0:
            raise ValueError("h must be positive")
        n_r = int(math.floor(domain.r_extent / h + 1e-12)) + MARGIN_CELLS
        n_y, y_start = [], []
        for c, w in zip(domain.y_center, domain.y_halfwidth):
            half = int(math.floor(w / h + 1e-12)) + MARGIN_CELLS
            n = 2 * half
            n_y.append(n)
            y_start.append(c - (n - 1) / 2.0 * h)
        return cls(h_r=h, h_y=h, n_r=n_r, n_y=tuple(n_y), y_start=tuple(y_start))

    @property
    def k(self):
        return len(self.n_y)

    @property
    def shape(self):
        return (self.n_r, *self.n_y)

    @property
    def n_nodes(self):
        return int(np.prod(self.shape))

    def r_nodes(self):
        return (np.arange(self.n_r) + 0.5) * self.h_r

    def y_nodes(self, m):
        return self.y_start[m] + np.arange(self.n_y[m]) * self.h_y

    def axes(self):
        return [self.r_nodes()] + [self.y_nodes(m) for m in range(self.k)]

    def node_points(self):
        """All node coordinates, shape (*grid.shape, k+1)."""
        mesh = np.meshgrid(*self.axes(), indexing="ij")
        return np.stack(mesh, axis=-1)

    def points_of(self, flat):
        """Coordinates (n, k+1) of the nodes at C-order flat indices, gathered
        from the axes without the full-lattice meshgrid of node_points()."""
        index = np.unravel_index(flat, self.shape)
        return np.stack([axis[i] for axis, i in zip(self.axes(), index)], axis=-1)

    def points_at(self, mask):
        """Coordinates of the nodes where `mask` holds, in C order."""
        return self.points_of(np.flatnonzero(mask))

    def step(self, axis):
        """Lattice spacing along `axis`."""
        return self.h_r if axis == R_AXIS else self.h_y


# ---------------------------------------------------------------------------
# node classification
# ---------------------------------------------------------------------------


_DIRS = (1, -1)


def three_point_weights(h_minus, h_plus):
    """Shortley-Weller weights on the unequal arms h_minus, h_plus.

    Returns (first, second), each the (minus, centre, plus) weights of a
    3-point stencil exact on quadratics: u' ~ first . (u_-, u_0, u_+) and
    u'' ~ second . (u_-, u_0, u_+).  The derivatives read `first`,
    assembly both.  The squares are libm pow (np.float_power), which
    array ** 2 (x * x) differs from in the last bit."""
    hm, hp = h_minus, h_plus
    den = hm * hp * (hm + hp)
    hm2, hp2 = np.float_power(hm, 2.0), np.float_power(hp, 2.0)
    first = (-hp2 / den, (hp2 - hm2) / den, hm2 / den)
    second = (2.0 * hp / den, -2.0 * (hm + hp) / den, 2.0 * hm / den)
    return first, second


class NeighbourTable:
    """What the stencils on the active nodes owe to the geometry alone, for
    assembly (`operator._build` adds the coefficients, which depend on a)
    and the first derivatives (`differential.axis_derivative`).

    Row i is the i-th inside node in C order.  Its 2 dim + 1 slots (dim =
    k+1) run in ascending column order, (r,-), (y1,-) .. (yk,-), diagonal,
    (yk,+) .. (y1,+), (r,+); (axis, direction) is slot dim + direction *
    (dim - axis).  A slot holds a neighbour's row (the row itself on the
    diagonal) unless its arm is cut or folds across r = 0.  `columns`
    (int32, slot-major, one row per slot), the one record of adjacency,
    holds each slot's neighbour, the row itself where the slot has none:
    the columns of `operator.SlotMatrix` and of the derivatives' gathers.
    Along the last (fastest) lattice axis a neighbour is the next or
    previous row.  `row_r` (int32) is each row's r layer.  `near` are the
    rows with a cut arm (no neighbour, and no fold across r = 0), `ghost`
    the near rows whose (r,-) arm folds.  The table is the one place a cut
    arm is found and measured: it is cut at the fraction theta of the step
    given by `domain.axis_cut`, clipped to [0, 1], and is max(theta,
    ARM_FLOOR) steps long.  `weights` per axis are the three_point_weights
    of the near rows' arms.  The cut arms, in the order bc_vector sums them
    (node, axis, minus arm first), give `bc_rows`, their slots `bc_slots`
    and `bc_points`.  The arrays that systems share are read-only.

    `mirror_axes` are the y axes j whose lattice mirrors about c_j (an even
    node count, symmetric about the centre) with an `inside` mask equal to
    its flip: the axes a solve with even data may fold over (`MirrorFold`),
    with `mirror(j)` each row's mirror image and `classes(axes)` the mirror
    classes.  The table is its own fold over none: `rows`, `unfold` select all."""

    rows = unfold = slice(None)

    def __init__(self, geo):
        grid = geo.grid
        dim = grid.k + 1
        self.inside = geo.inside
        self.mirror_axes = tuple(
            1 + m for m, c in enumerate(geo.domain.y_center)
            if grid.n_y[m] % 2 == 0
            and abs(grid.y_start[m] + (grid.n_y[m] - 1) / 2.0 * grid.h_y - c)
            <= 1e-12 * (grid.h_y + abs(c))
            and np.array_equal(geo.inside, np.flip(geo.inside, 1 + m)))
        flat = np.flatnonzero(geo.inside)
        row_of = np.full(grid.n_nodes, -1, dtype=np.int32)
        row_of[flat] = np.arange(flat.size)
        strides = np.array([int(np.prod(grid.shape[axis + 1:])) for axis in range(dim)])
        self.row_r = (flat // strides[R_AXIS]).astype(np.int32)
        # the first r layer's (r,-) index wraps round to the last layer,
        # where GridGeometry allows no inside node, so that slot is empty
        neighbour = row_of[flat[:, None] + np.concatenate([-strides, [0], strides[::-1]])]
        own = np.arange(flat.size, dtype=np.int32)
        self.columns = np.where(neighbour >= 0, neighbour, own[:, None]).T.copy()

        cut_arm = neighbour < 0
        cut_arm[:, 0] &= self.row_r > 0  # the mirror across r = 0 is inside
        self.near = np.flatnonzero(cut_arm.any(axis=1))
        self.ghost = self.row_r[self.near] == 0
        near_points = grid.points_of(flat[self.near])
        self.weights, bc_rows, bc_slots, bc_points, keys = [], [], [], [], []
        for axis in range(dim):
            h = grid.step(axis)
            arms = {}
            for direction in _DIRS:
                slot = dim + direction * (dim - axis)
                cut = cut_arm[self.near, slot]
                points = near_points[cut]
                theta = np.clip(geo.domain.axis_cut(points, axis, direction, h), 0.0, 1.0)
                points[:, axis] += theta * (direction * h)
                arms[direction] = np.full(self.near.size, h)
                arms[direction][cut] = np.maximum(theta, ARM_FLOOR) * h
                rows = self.near[cut]
                bc_rows.append(rows)
                bc_slots.append(np.full(rows.size, slot))
                bc_points.append(points)
                keys.append((rows * dim + axis) * 2 + (direction > 0))
            self.weights.append(three_point_weights(arms[-1], arms[1]))
        order = np.argsort(np.concatenate(keys))
        self.bc_rows, self.bc_slots, self.bc_points = (
            np.concatenate(parts)[order] for parts in (bc_rows, bc_slots, bc_points))
        for array in (self.columns, self.bc_rows, self.bc_points):
            array.flags.writeable = False

    @functools.cached_property
    def deep(self):
        """Read-only bool per row, built on first read: the whole 3^dim
        neighbourhood is inside (r mirror allowed); eroded slot by slot, (r,+), (r,-) .."""
        own = np.arange(self.row_r.size, dtype=np.int32)
        deep = np.ones(own.size, dtype=bool)
        for axis in range(len(self.weights)):
            for slot in (self.columns.shape[0] - 1 - axis, axis):
                present = self.columns[slot] != own
                if slot == 0:  # the first r layer's (r,-) mirror
                    present |= self.row_r == 0
                deep = deep & present & deep[self.columns[slot]]
        deep.flags.writeable = False
        return deep

    def mirror(self, axis):
        """int32 row of each row's mirror image across the centre of `axis`,
        one of `mirror_axes`."""
        row = np.full(self.inside.shape, -1, dtype=np.int32)
        row[self.inside] = np.arange(self.columns.shape[1], dtype=np.int32)
        return np.flip(row, axis)[self.inside]

    def classes(self, axes):
        """int32 map of each row to the largest row among its mirror images
        over `axes` (some of `mirror_axes`), the image in the upper half of
        every axis in `axes`; a row represents its class if it maps to itself."""
        rep = np.arange(self.columns.shape[1], dtype=np.int32)
        for axis in axes:
            np.maximum(rep, rep.take(self.mirror(axis)), out=rep)
        return rep


class MirrorFold:
    """A `NeighbourTable` folded over the mirrors y_j -> 2 c_j - y_j of the
    lattice axes `axes` (some of its `mirror_axes`), kept on the matrix it
    folds (`operator.SlotMatrix.fold`).

    Its rows are the fundamental rows, the representatives of the table's
    `classes(axes)`: the inside nodes in the upper half of every folded
    axis, in C order, with the lattice mask `inside` (a view of the upper
    part of the table's).  `rows` (int32) are their rows in the table;
    `unfold` (int32) maps each row of the table to the fundamental row of
    its class, so x = x_fold[unfold] and b_fold = b[rows].  `columns` are
    the table's columns of `rows` mapped through `unfold`: a neighbour
    across a mirror plane maps to the row itself, and along the last
    lattice axis a neighbour is still the next or previous row."""

    def __init__(self, table, axes):
        self.axes = axes
        self.inside = table.inside[tuple(slice(n // 2 if axis in axes else 0, None)
                                         for axis, n in enumerate(table.inside.shape))]
        rep = table.classes(axes)
        own = rep == np.arange(rep.size, dtype=np.int32)
        self.rows = np.flatnonzero(own).astype(np.int32)
        self.unfold = (np.cumsum(own, dtype=np.int32) - 1)[rep]
        self.columns = self.unfold[table.columns[:, self.rows]]


@dataclass(frozen=True)
class CoveredCells:
    """The cells a domain covers (fraction > 0) in C order, read-only."""

    flat: np.ndarray  # each cell's flat lattice index
    fraction: np.ndarray  # its covered fraction
    rows: np.ndarray  # int32 table row it reads: its own, its donor's, or -1 (none)


class GridGeometry:
    """Classification of every node of a grid against a domain.

    inside          node strictly inside (sd < 0)
    covered         the `CoveredCells`: fractions from a local planar model
                    of the boundary; a cell whose center is outside reads
                    its donor, an adjacent inside node
    neighbours      the `NeighbourTable`, built on first use; it finds and
                    measures the cut arms of the near nodes
    near            read-only lattice of the table's near rows, per read
    """

    def __init__(self, domain, grid):
        self.domain = domain
        self.grid = grid
        pts = grid.node_points()
        fraction_band = 0.5 * grid.h_r * math.sqrt(grid.k + 1) * 1.0001
        sd = domain.signed_distance(pts, band=fraction_band)
        inside = sd < 0.0
        if not inside.any():
            raise EmptyDomain("no grid node lies inside the domain")
        self.inside = inside

        # no inside node may touch the lattice edge (except across r = 0,
        # where reflection supplies the neighbor)
        if any(np.take(inside, i, axis).any() for axis in range(grid.k + 1)
               for i in ((-1,) if axis == R_AXIS else (0, -1))):
            raise EmptyDomain("domain touches the lattice edge; margin too small")

        self.covered = self._cover(pts, sd, fraction_band)

    @functools.cached_property
    def neighbours(self):
        return NeighbourTable(self)

    @property
    def near(self):
        mask = np.zeros(self.inside.size, dtype=bool)
        mask[np.flatnonzero(self.inside)[self.neighbours.near]] = True
        mask.flags.writeable = False
        return mask.reshape(self.grid.shape)

    def _cover(self, pts, sd, fraction_band):
        grid, domain = self.grid, self.domain
        dim = grid.k + 1
        band = np.abs(sd) <= fraction_band
        frac = np.where(sd < 0, 1.0, 0.0)
        if band.any():
            frac[band] = domain.cell_fraction(pts[band], sd[band], grid.h_r)
        flat = np.flatnonzero(frac > 0)
        inside = self.inside.reshape(-1)
        read = np.where(inside[flat], flat, -1)

        # each covered cell whose center is outside reads from the first
        # inside neighbor against its normal, axes taken by decreasing |n|
        # (a tie goes to the lowest axis, on every CPU)
        out = flat[read < 0]
        if out.size:
            idx = np.stack(np.unravel_index(out, grid.shape), axis=-1)
            normals = domain.sd_gradient(pts.reshape(-1, dim)[out])
            order = np.argsort(-np.abs(normals), axis=-1, kind="stable")
            strides = np.array([int(np.prod(grid.shape[d + 1:])) for d in range(dim)])
            found = np.full(out.size, -1, dtype=np.int64)
            for rank in range(dim):
                todo = np.flatnonzero(found < 0)
                d = order[todo, rank]
                step = np.where(normals[todo, d] > 0, -1, 1)
                target = idx[todo, d] + step
                nb = out[todo] + step * strides[d]
                hit = (target >= 0) & (target < np.take(grid.shape, d))
                hit[hit] = inside[nb[hit]]
                found[todo[hit]] = nb[hit]
            read[read < 0] = found
        rows = np.where(read >= 0, np.searchsorted(np.flatnonzero(inside), read), -1)
        cells = CoveredCells(flat, frac.reshape(-1)[flat], rows.astype(np.int32))
        for array in (cells.flat, cells.fraction, cells.rows):
            array.flags.writeable = False
        return cells


def _halfspace_cell_fraction(normals, sd, h):
    """Fraction of the cube [-h/2, h/2]^d lying in {x : n.x <= -sd}.

    Exact for a planar boundary; the standard inclusion-exclusion formula
    vol{x in [0,1]^d : sum m_i x_i <= c} =
        sum_S (-1)^|S| max(0, c - sum_{i in S} m_i)^d / (d! prod m_i).
    """
    m = normals * h
    # on the unit cube, after reflecting negative axes, the offset becomes
    c = -sd + 0.5 * np.abs(m).sum(axis=-1)
    m = np.abs(m)
    scale = m.sum(axis=-1)
    scale = np.where(scale > 0, scale, 1.0)
    out = np.empty(m.shape[0])
    # drop negligible axes per point (plane parallel to those axes)
    d_full = m.shape[-1]
    signif = m > 1e-12 * scale[:, None]
    n_sig = signif.sum(axis=-1)
    for d_eff in range(0, d_full + 1):
        sel = n_sig == d_eff
        if not sel.any():
            continue
        if d_eff == 0:
            out[sel] = (c[sel] >= 0).astype(float)
            continue
        ms = m[sel]
        cs = c[sel]
        sig = signif[sel]
        # compact the significant coefficients into shape (n, d_eff)
        mm = ms[sig].reshape(-1, d_eff)
        total = np.zeros(mm.shape[0])
        for bits in range(1 << d_eff):
            subset = np.array([(bits >> j) & 1 for j in range(d_eff)], dtype=bool)
            ssum = mm[:, subset].sum(axis=-1) if subset.any() else 0.0
            term = np.maximum(0.0, cs - ssum) ** d_eff
            total += term if (bin(bits).count("1") % 2 == 0) else -term
        denom = math.factorial(d_eff) * np.prod(mm, axis=-1)
        out[sel] = total / denom
    return np.clip(out, 0.0, 1.0)


@functools.lru_cache(maxsize=16)
def grid_geometry(domain, grid) -> GridGeometry:
    return GridGeometry(domain, grid)


# ---------------------------------------------------------------------------
# sphere lattices and boundary samples
# ---------------------------------------------------------------------------


def sphere_area(k):
    """Unweighted area of the unit sphere S^k in R^(k+1)."""
    return 2.0 * math.pi ** ((k + 1) / 2.0) / math.gamma((k + 1) / 2.0)


def sphere_lattice(k, count):
    """Deterministic quasi-uniform lattice on S^k in R^(k+1).

    Returns (points, weight) with a single scalar weight = area / count.
    k = 1: midpoint angles; k = 2: Fibonacci spiral; k = 3: super-Fibonacci.
    Coordinate 0 is the one aligned with the r axis downstream.
    """
    count = int(count)
    if count < 1:
        raise ValueError("count must be positive")
    if k == 1:
        theta = 2.0 * math.pi * (np.arange(count) + 0.5) / count
        pts = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    elif k == 2:
        i = np.arange(count)
        z = 1.0 - (2.0 * i + 1.0) / count
        phi = i * math.pi * (3.0 - math.sqrt(5.0))
        rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        pts = np.stack([z, rho * np.cos(phi), rho * np.sin(phi)], axis=-1)
    elif k == 3:
        # super-Fibonacci spiral on S^3
        i = np.arange(count)
        s = (i + 0.5) / count
        rr = np.sqrt(s)
        cc = np.sqrt(1.0 - s)
        alpha = 2.0 * math.pi * i / math.sqrt(2.0)
        beta = 2.0 * math.pi * i / 1.5337511687552043
        pts = np.stack(
            [rr * np.sin(alpha), rr * np.cos(alpha), cc * np.sin(beta), cc * np.cos(beta)],
            axis=-1,
        )
    else:
        raise UnsupportedShape(f"sphere quadrature implemented for k in 1..3, got k={k}")
    return pts, sphere_area(k) / count


@dataclass(frozen=True)
class BoundarySamples:
    points: np.ndarray  # (M, k+1), on the r > 0 part of the boundary
    normals: np.ndarray  # outward unit normals
    weights: np.ndarray  # unweighted surface weights, sum ~ area of Sigma


def boundary_samples(domain, count) -> BoundarySamples:
    """Quadrature points on Sigma = boundary ∩ {r > 0} with outward normals.

    Built by pushing a sphere lattice through the affine map of the shape;
    weights carry the exact area Jacobian det(S) |S^{-1} w|, so they sum to
    the unweighted area of Sigma up to lattice discretization error.
    """
    if not domain.smooth_boundary:
        raise UnsupportedShape(
            "boundary sampling needs a smooth shape (ball or ellipsoid), "
            f"got {type(domain).__name__}"
        )
    semi = np.asarray(domain.extents, dtype=float)
    k = domain.k
    omegas, w0 = sphere_lattice(k, 2 * int(count))
    keep = omegas[:, 0] > 0.0
    omegas = omegas[keep]
    center = np.array([0.0, *domain.y_center])
    points = center + omegas * semi
    # normal of the level set sum(q_i^2/s_i^2): q_i / s_i^2, normalized
    ln = omegas / semi
    normals = ln / np.linalg.norm(ln, axis=-1, keepdims=True)
    jac = np.prod(semi) * np.linalg.norm(omegas / semi, axis=-1)
    weights = w0 * jac
    return BoundarySamples(points=points, normals=normals, weights=weights)
