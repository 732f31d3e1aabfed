"""Finite-difference derivatives of grid fields.

Centered stencils at nodes whose neighbors are inside the domain, and
3-point unequal-arm stencils (using Dirichlet values at the boundary cut
points) next to the boundary.  Across r = 0 the even/odd reflection of
the field supplies the missing ghost value, so nothing special happens
at the axis.
"""

from __future__ import annotations

import numpy as np

from .errors import MissingBoundaryData
from .field import ScalarField
from .geometry import R_AXIS, grid_geometry, shift, three_point_weights


def _arm_values(field, geo, axis):
    """Per-direction arm lengths and values for 3-point stencils on `axis`.

    Returns (h_plus, v_plus, h_minus, v_minus) arrays over grid.shape;
    entries are meaningful only at inside nodes.  Boundary cut arms take
    the field's Dirichlet data; the r < 0 ghost takes the parity reflection.
    """
    sign = -1.0 if field.parity == "odd" else 1.0
    out = []
    for direction in (1, -1):
        arm, cut, cut_pts = geo.arm(axis, direction)
        nb = shift(field.values, axis, direction, np.nan, sign)
        if cut.any():
            if field.boundary_values is None:
                raise MissingBoundaryData(
                    f"axis {axis} stencil crosses the boundary but the field "
                    "carries no Dirichlet data"
                )
            nb[cut] = field.boundary_value_at(cut_pts)
        out += [arm, nb]
    return tuple(out)


def _three_point(field, axis, order):
    """Shortley-Weller derivative of the given order (1 or 2) along `axis`
    as a full-shape array (NaN outside)."""
    geo = grid_geometry(field.domain, field.grid)
    hp, vp, hm, vm = _arm_values(field, geo, axis)
    # centred weights, then unequal-arm ones where an arm is cut: the
    # weights' pow on every node would triple the cost of a derivative
    h = field.grid.step(axis)
    unequal = (hm != h) | (hp != h)
    weights = [np.full(hm.shape, c) for c in three_point_weights(h, h)[order - 1]]
    for full, part in zip(weights, three_point_weights(hm[unequal], hp[unequal])[order - 1]):
        full[unequal] = part
    w_m, w_0, w_p = weights
    d = w_m * vm + w_0 * field.values + w_p * vp
    d[~geo.inside] = np.nan
    return d


def axis_derivative(field, axis):
    """First derivative along one axis as a full-shape array (NaN outside)."""
    return _three_point(field, axis, 1)


def axis_second_derivative(field, axis):
    """Second derivative along one axis as a full-shape array (NaN outside)."""
    return _three_point(field, axis, 2)


def gradient_fields(field):
    """All first derivatives as ScalarFields with the correct r-parity."""
    flip = {"even": "odd", "odd": "even"}
    outs = []
    for axis in range(field.grid.k + 1):
        arr = axis_derivative(field, axis)
        parity = flip[field.parity] if axis == R_AXIS else field.parity
        outs.append(ScalarField(grid=field.grid, domain=field.domain,
                                values=arr, boundary_values=None, parity=parity))
    return outs


def deep_mask(geo):
    """Nodes of a GridGeometry whose full 3^d neighborhood (r-mirror
    allowed) is inside."""
    mask = geo.inside
    for axis in range(mask.ndim):
        for direction in (1, -1):
            mask = mask & shift(mask, axis, direction, False)
    return mask


def mixed_second_derivative(field, axis1, axis2):
    """Cross derivative by the 4-point centered stencil; valid on deep_mask.

    Uses the parity reflection across r = 0 when axis1 or axis2 is the
    radial axis and the stencil reaches below the first node layer."""
    if axis1 == axis2:
        raise ValueError("use axis_second_derivative for repeated axes")
    grid = field.grid
    sign = -1.0 if field.parity == "odd" else 1.0
    h1 = grid.step(axis1)
    h2 = grid.step(axis2)

    def shifted(a, axis, direction):
        return shift(a, axis, direction, np.nan, sign)

    vals = field.values
    pp = shifted(shifted(vals, axis1, 1), axis2, 1)
    pm = shifted(shifted(vals, axis1, 1), axis2, -1)
    mp = shifted(shifted(vals, axis1, -1), axis2, 1)
    mm = shifted(shifted(vals, axis1, -1), axis2, -1)
    return (pp - pm - mp + mm) / (4.0 * h1 * h2)
