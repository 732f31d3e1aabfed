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


def shift(array, axis, direction, fill, mirror_sign=1.0):
    """Values of the neighbor one step along (axis, direction).

    Nodes whose neighbor is off the lattice get `fill`, except below the
    first r-layer, where the mirror node across r = 0 supplies
    mirror_sign * array (a plain copy for sign 1, as boolean masks need)."""
    out = np.full_like(array, fill)
    src = [slice(None)] * array.ndim
    dst = list(src)
    if direction == 1:
        src[axis], dst[axis] = slice(1, None), slice(0, -1)
    else:
        src[axis], dst[axis] = slice(0, -1), slice(1, None)
    out[tuple(dst)] = array[tuple(src)]
    if axis == R_AXIS and direction == -1:  # the r axis leads, so row 0 is r = h/2
        out[0] = array[0] if mirror_sign == 1 else mirror_sign * array[0]
    return out


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
    u'' ~ second . (u_-, u_0, u_+).  The squares are libm pow
    (np.float_power), which array ** 2 (x * x) differs from in the last bit."""
    hm, hp = h_minus, h_plus
    den = hm * hp * (hm + hp)
    hm2, hp2 = np.float_power(hm, 2.0), np.float_power(hp, 2.0)
    first = (-hp2 / den, (hp2 - hm2) / den, hm2 / den)
    second = (2.0 * hp / den, -2.0 * (hm + hp) / den, 2.0 * hm / den)
    return first, second


class GridGeometry:
    """Classification of every node of a grid against a domain.

    inside          node strictly inside (sd < 0)
    interior        inside and all 2(k+1) axis neighbors inside
                    (the mirror neighbor across r = 0 counts as inside)
    near            inside with at least one neighbor across the boundary
    cut_theta       {(axis, dir): array}, fraction of the step at which the
                    arm crosses the boundary (closed form from
                    `domain.axis_cut`, clipped to [0, 1]), nan if no cut
    cut_points      {(axis, dir): (n_cut, k+1) array}, where the cut arms
                    of the cut nodes (in C order) meet the boundary
    volfrac         fraction of each node's cell covered by the domain,
                    from a local planar model of the boundary
    donor_flat      for covered cells whose center is outside: flat index of
                    an adjacent inside node to read field values from (-1: none)
    sd              signed distance of every node, exact where |sd| is at
                    most max(1.0001 half cell diagonals, 2h), which covers
                    the volume-fraction band and the sd <= -2h of
                    `gamma.p_subharmonicity_defect`; beyond it only its
                    sign is exact (see `_AxialDomain`)
    """

    def __init__(self, domain, grid):
        self.domain = domain
        self.grid = grid
        pts = grid.node_points()
        h = grid.h_r
        fraction_band = 0.5 * h * math.sqrt(grid.k + 1) * 1.0001
        sd = domain.signed_distance(pts, band=max(fraction_band, 2.0 * h))
        self.sd = sd
        inside = sd < 0.0
        if not inside.any():
            raise EmptyDomain("no grid node lies inside the domain")
        self.inside = inside

        dim = grid.k + 1
        self.cut_theta, self.cut_points = {}, {}
        any_cut = np.zeros(grid.shape, dtype=bool)
        for axis in range(dim):
            h = grid.step(axis)
            for direction in _DIRS:
                cut = inside & ~shift(inside, axis, direction, False)
                theta = np.full(grid.shape, np.nan)
                points = pts[cut]
                t = np.clip(domain.axis_cut(points, axis, direction, h), 0.0, 1.0)
                theta[cut] = t
                points[:, axis] += t * (direction * h)
                points.flags.writeable = False  # shared by every arm() caller
                self.cut_theta[(axis, direction)] = theta
                self.cut_points[(axis, direction)] = points
                any_cut |= cut
        self.near = inside & any_cut
        self.interior = inside & ~any_cut

        # no inside node may touch the lattice edge (except across r = 0,
        # where reflection supplies the neighbor)
        edge = np.zeros(grid.shape, dtype=bool)
        for axis in range(dim):
            sl_hi = [slice(None)] * dim
            sl_hi[axis] = -1
            edge[tuple(sl_hi)] = True
            if axis != R_AXIS:
                sl_lo = [slice(None)] * dim
                sl_lo[axis] = 0
                edge[tuple(sl_lo)] = True
        if (inside & edge).any():
            raise EmptyDomain("domain touches the lattice edge; margin too small")

        self._build_volume_fractions(pts, sd, fraction_band)

    def arm(self, axis, direction):
        """Shortley-Weller arm of every node along (axis, direction).

        Returns the arm length over grid.shape (the step, or
        max(theta, ARM_FLOOR) times the step where the arm is cut), the cut
        mask, and the cut points of the cut nodes in C order."""
        h = self.grid.step(axis)
        theta = self.cut_theta[(axis, direction)]
        cut = np.isfinite(theta)
        length = np.full(self.grid.shape, h)
        length[cut] = np.maximum(theta[cut], ARM_FLOOR) * h
        return length, cut, self.cut_points[(axis, direction)]

    def _build_volume_fractions(self, pts, sd, fraction_band):
        grid, domain = self.grid, self.domain
        dim = grid.k + 1
        h = grid.h_r
        band = np.abs(sd) <= fraction_band
        frac = np.where(sd < 0, 1.0, 0.0)
        if band.any():
            frac[band] = domain.cell_fraction(pts[band], sd[band], h)
        self.volfrac = frac

        # each covered cell whose center is outside reads from the first
        # inside neighbor against its normal, axes taken by decreasing |n|
        # (a tie goes to the lowest axis, on every CPU)
        covered_out = (frac > 0) & ~self.inside
        donor = np.full(grid.shape, -1, dtype=np.int64)
        if covered_out.any():
            idx = np.argwhere(covered_out)
            flat = np.flatnonzero(covered_out)
            normals = domain.sd_gradient(pts[covered_out])
            order = np.argsort(-np.abs(normals), axis=-1, kind="stable")
            strides = np.array([int(np.prod(grid.shape[d + 1:])) for d in range(dim)])
            inside = self.inside.reshape(-1)
            found = np.full(flat.size, -1, dtype=np.int64)
            for rank in range(dim):
                todo = np.flatnonzero(found < 0)
                d = order[todo, rank]
                step = np.where(normals[todo, d] > 0, -1, 1)
                target = idx[todo, d] + step
                nb = flat[todo] + step * strides[d]
                hit = (target >= 0) & (target < np.take(grid.shape, d))
                hit[hit] = inside[nb[hit]]
                found[todo[hit]] = nb[hit]
            donor[covered_out] = found
        self.donor_flat = donor


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
