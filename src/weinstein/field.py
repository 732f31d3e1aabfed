"""Grid fields and reflection-aware multilinear interpolation.

A ScalarField stores one value per grid node (NaN at nodes outside the
domain) plus optional Dirichlet data for the boundary cut points of its
domain.  Fields carry a parity in r, +1 (even) or -1 (odd), which is what
the axial symmetry of the problem dictates.  Interpolation reads the
lattice padded with one mirror layer at r = -h/2, the first layer times
the parity sign, so a point below the first node layer needs no special
case.
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
    grid: object
    domain: object
    values: np.ndarray
    boundary_values: BoundaryData = None
    parity: str = "even"

    def __post_init__(self):
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"values shape {self.values.shape} does not match grid {self.grid.shape}"
            )
        if self.parity not in ("even", "odd"):
            raise ValueError("parity must be 'even' or 'odd'")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_function(cls, domain, grid, fn, boundary_values=None, parity="even"):
        """Sample fn on the active nodes; fn maps (..., k+1) points to values.

        When boundary_values is omitted, fn itself supplies the Dirichlet
        data at boundary cut points (the natural choice for injected
        analytic fields)."""
        geo = grid_geometry(domain, grid)
        vals = np.full(grid.shape, np.nan)
        vals[geo.inside] = np.asarray(fn(grid.points_at(geo.inside)), dtype=float)
        if boundary_values is None:
            boundary_values = fn
        return cls(grid=grid, domain=domain, values=vals,
                   boundary_values=boundary_values, parity=parity)

    @classmethod
    def from_active_vector(cls, grid, domain, vec, boundary_values=None, parity="even"):
        geo = grid_geometry(domain, grid)
        vals = np.full(grid.shape, np.nan)
        vals[geo.inside] = np.asarray(vec, dtype=float)
        return cls(grid=grid, domain=domain, values=vals,
                   boundary_values=boundary_values, parity=parity)

    # -- basic access -----------------------------------------------------------

    @property
    def geometry(self):
        return grid_geometry(self.domain, self.grid)

    def active_values(self):
        return self.values[self.geometry.inside]

    # -- interpolation -----------------------------------------------------------

    def interpolate(self, points):
        """Multilinear interpolation at arbitrary points.

        The lattice is read with one extra layer at r = -h/2 that holds the
        first layer times the parity sign (the even/odd reflection across
        r = 0), so every corner of a point's cell is a lattice node and each
        of the 2^(k+1) corners is one gather at a fixed flat offset.  The
        cell is found at |r|; odd fields flip sign where r < 0.  Returns NaN
        where the interpolation cell is not fully covered by grid values
        (callers decide whether that is an error)."""
        grid = self.grid
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        sign = -1.0 if self.parity == "odd" else 1.0
        padded = np.concatenate((sign * self.values[:1], self.values))

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
