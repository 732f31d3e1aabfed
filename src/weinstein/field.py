"""Grid fields and reflection-aware multilinear interpolation.

A ScalarField stores one value per inside node of its domain's grid, in
the rows of the geometry's `NeighbourTable` (the inside nodes in C order,
the layout of a solve's unknowns), plus optional Dirichlet data for the
boundary cut points of its domain.  `values` (the lattice, NaN outside,
built on each read) is for the benchmark and tests.  Fields carry a
parity in r, +1 (even) or -1 (odd), which is what the axial symmetry
of the problem dictates.  Interpolation reads the lattice padded with
one mirror layer at r = -h/2, the first layer times the parity sign,
so a point below the first node layer needs no special case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .geometry import grid_geometry


BoundaryData = Union[None, float, Callable]


def on_points(data, points):
    """Values of data (a constant, or a callable on (..., k+1) points) at
    points, as a float array of shape points.shape[:-1]."""
    if callable(data):
        return np.asarray(data(points), dtype=float)
    return np.full(points.shape[:-1], float(data))


@dataclass
class ScalarField:
    """A field on the inside nodes of `grid` in `domain`: `active` holds one
    value per `NeighbourTable` row, and `values` scatters it onto the
    lattice with NaN outside."""

    grid: object
    domain: object
    active: np.ndarray
    boundary_values: BoundaryData = None
    parity: str = "even"

    def __post_init__(self):
        self.active = np.asarray(self.active, dtype=float)
        count = np.count_nonzero(self.geometry.inside)
        if self.active.shape != (count,):
            raise ValueError(f"active holds {self.active.size} values but the "
                             f"domain has {count} inside nodes")
        if self.parity not in ("even", "odd"):
            raise ValueError("parity must be 'even' or 'odd'")

    @classmethod
    def from_function(cls, domain, grid, fn, boundary_values=None, parity="even"):
        """Sample fn on the active nodes; fn maps (..., k+1) points to values.

        When boundary_values is omitted, fn itself supplies the Dirichlet
        data at boundary cut points (the natural choice for injected
        analytic fields)."""
        active = fn(grid.points_at(grid_geometry(domain, grid).inside))
        if boundary_values is None:
            boundary_values = fn
        return cls(grid=grid, domain=domain, active=active,
                   boundary_values=boundary_values, parity=parity)

    @property
    def geometry(self):
        return grid_geometry(self.domain, self.grid)

    @property
    def values(self):
        """The read-only lattice of `active`, NaN outside the domain, built
        on each read (the package reads `active`)."""
        lattice = np.full(self.grid.shape, np.nan)
        lattice[self.geometry.inside] = self.active
        lattice.flags.writeable = False
        return lattice

    # -- interpolation -----------------------------------------------------------

    def interpolate(self, points):
        """Multilinear interpolation at arbitrary points.

        `active` is scattered onto the lattice (NaN outside) with one extra
        layer at r = -h/2 that holds the first layer times the parity sign
        (the even/odd reflection across r = 0), so every corner of a point's
        cell is a lattice node and each of the 2^(k+1) corners is one gather
        at a fixed flat offset.  The pad is built on each call.  The cell is
        found at |r|; odd fields flip sign where r < 0.  Returns NaN
        where the interpolation cell is not fully covered by grid values
        (callers decide whether that is an error)."""
        grid = self.grid
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        sign = -1.0 if self.parity == "odd" else 1.0
        padded = np.full((grid.n_r + 1, *grid.n_y), np.nan)
        padded[1:][self.geometry.inside] = self.active
        padded[0] = sign * padded[1]

        scaled = [np.abs(pts[:, 0]) / grid.h_r - 0.5]
        scaled += [(pts[:, 1 + m] - y0) / grid.h_y for m, y0 in enumerate(grid.y_start)]
        lower = [np.floor(s) for s in scaled]
        frac = [s - c for s, c in zip(scaled, lower)]
        lower[0] += 1  # the mirror layer is padded index 0
        valid = np.ones(pts.shape[0], dtype=bool)
        for c, n in zip(lower, padded.shape):
            valid &= (c >= 0) & (c <= n - 2)

        strides = [stride // padded.itemsize for stride in padded.strides]
        base = sum(c[valid].astype(np.int64) * stride for c, stride in zip(lower, strides))
        weights = [(1.0 - f[valid], f[valid]) for f in frac]
        flat = padded.reshape(-1)
        acc = 0.0
        for corner in range(1 << len(strides)):
            w, offset = 1.0, 0
            for d, stride in enumerate(strides):
                bit = (corner >> d) & 1
                w = w * weights[d][bit]
                offset += bit * stride
            acc = acc + w * flat[base + offset]
        if self.parity == "odd":
            acc = acc * np.where(pts[valid, 0] < 0, -1.0, 1.0)
        out = np.full(pts.shape[0], np.nan)
        out[valid] = acc
        if np.asarray(points).ndim == 1:
            return float(out[0])
        return out
