"""Grid fields and reflection-aware multilinear interpolation.

A ScalarField stores one value per grid node (NaN at nodes outside the
domain) plus optional Dirichlet data for the boundary cut points of its
domain.  Fields carry a parity in r: interpolation below the first node
layer reflects across r = 0 with sign +1 (even) or -1 (odd), which is what
the axial symmetry of the problem dictates.
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

        Points with |r| below the first node layer use the even/odd
        reflection across r = 0.  Returns NaN where the interpolation cube
        is not fully covered by grid values (callers decide whether that
        is an error)."""
        grid = self.grid
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

        sign_odd = -1.0 if self.parity == "odd" else 1.0
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
            vals = self.values[tuple(gather[:, d] for d in range(dim))]
            acc = acc + w * sign * vals
        # the r coordinate was folded to |r| above; odd fields flip sign
        # on the reflected half
        if self.parity == "odd":
            acc = acc * np.where(pts[valid, 0] < 0, -1.0, 1.0)
        out[valid] = acc
        if np.asarray(points).ndim == 1:
            return float(out[0])
        return out
