"""First derivatives of grid fields by finite differences.

Centered stencils at nodes whose neighbors are inside the domain, and
3-point unequal-arm stencils (using Dirichlet values at the boundary cut
points) next to the boundary; the neighbours, arms and cut points come
from the geometry's `NeighbourTable`, as assembly's do.  Across r = 0
the first r layer's (r,-) neighbour is the node itself times the parity
sign, the even/odd reflection of the field.
"""

from __future__ import annotations

import numpy as np

from .errors import MissingBoundaryData
from .field import ScalarField, on_points
from .geometry import R_AXIS, three_point_weights


def axis_derivative(field, axis):
    """Shortley-Weller first derivative along `axis`, one value per table
    row (the layout of `ScalarField.active`): neighbours gathered through
    the table's columns, centred weights on every inside row, the table's
    unequal-arm weights on its near rows, and on a cut arm the field's
    Dirichlet data at its cut point."""
    table = field.geometry.neighbours
    dim = field.grid.k + 1
    sign = -1.0 if field.parity == "odd" else 1.0
    nb = {}
    for direction in (1, -1):
        slot = dim + direction * (dim - axis)
        nb[direction] = field.active.take(table.columns[slot])
        if slot == 0:  # the first r layer's (r,-) column is the row, its own mirror
            nb[direction][table.row_r == 0] *= sign
        cut = table.bc_slots == slot
        if cut.any():
            if field.boundary_values is None:
                raise MissingBoundaryData(
                    f"axis {axis} stencil crosses the boundary but the field "
                    "carries no Dirichlet data"
                )
            nb[direction][table.bc_rows[cut]] = on_points(field.boundary_values,
                                                          table.bc_points[cut])
    h = field.grid.step(axis)
    weights = [np.full(table.row_r.size, c) for c in three_point_weights(h, h)[0]]
    for full, part in zip(weights, table.weights[axis][0]):
        full[table.near] = part
    w_m, w_0, w_p = weights
    return w_m * nb[-1] + w_0 * field.active + w_p * nb[1]


def gradient_fields(field):
    """All first derivatives as ScalarFields with the correct r-parity."""
    flip = {"even": "odd", "odd": "even"}
    outs = []
    for axis in range(field.grid.k + 1):
        parity = flip[field.parity] if axis == R_AXIS else field.parity
        outs.append(ScalarField(grid=field.grid, domain=field.domain,
                                active=axis_derivative(field, axis), parity=parity))
    return outs


def deep_mask(geo):
    """Lattice view of the table's `deep` rows (nodes whose full 3^d
    neighborhood is inside, r-mirror allowed); the package reads the rows."""
    mask = np.zeros(geo.grid.shape, dtype=bool)
    mask[geo.inside] = geo.neighbours.deep
    return mask
