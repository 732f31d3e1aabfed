"""Shapes, staggered grids, node classification, and surface sampling."""

import dataclasses
import math
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import integrate

from weinstein.errors import EmptyDomain, UnsupportedShape
from weinstein.params import WeinsteinParams
from weinstein.geometry import (
    MARGIN_CELLS,
    NEWTON_MAX_ITER,
    Ball,
    Box,
    Ellipsoid,
    GridGeometry,
    StaggeredGrid,
    _ellipsoid_root,
    boundary_samples,
    grid_geometry,
    sphere_lattice,
)

from test_stencil_reference import _bitwise_equal, _cut_arms


# ---------------------------------------------------------------------------
# signed distances
# ---------------------------------------------------------------------------


def test_ball_signed_distance_and_reflection():
    b = Ball(radius=1.0, center=(0.5,))
    assert b.signed_distance(np.array([0.0, 0.5])) == pytest.approx(-1.0)
    assert b.signed_distance(np.array([0.6, 0.5])) == pytest.approx(-0.4)
    # the r coordinate enters through |r|: the shape is symmetric in r
    assert b.signed_distance(np.array([-0.6, 0.5])) == pytest.approx(-0.4)
    assert b.signed_distance(np.array([2.0, 0.5])) == pytest.approx(1.0)


def test_ball_gradient_is_unit_radial():
    b = Ball(radius=1.0, center=(0.0,))
    g = b.sd_gradient(np.array([0.3, 0.4]))
    assert g == pytest.approx([0.6, 0.8])


def _ellipse_distance_oracle(semi, q, n=200001, zooms=0):
    """Brute-force distance to the parametric ellipse boundary (k=1); each
    zoom resamples the 4 grid cells around the best angle n times finer."""
    th = np.linspace(0.0, 2.0 * np.pi, n)
    for _ in range(zooms + 1):
        bd = np.stack([semi[0] * np.cos(th), semi[1] * np.sin(th)], axis=-1)
        dist = np.linalg.norm(bd - q, axis=-1)
        best, cell = th[np.argmin(dist)], th[1] - th[0]
        d = dist.min()
        th = np.linspace(best - 2.0 * cell, best + 2.0 * cell, n)
    level = (q[0] / semi[0]) ** 2 + (q[1] / semi[1]) ** 2
    return d if level >= 1.0 else -d


@pytest.mark.parametrize("q", [
    (0.3, 0.4), (0.9, 0.1), (0.0, 1.9), (1.4, 0.0), (1.2, 2.4), (0.7, 1.5),
])
def test_ellipsoid_signed_distance_vs_parametric_oracle(q):
    e = Ellipsoid(semi_axes=(1.0, 2.0), center=(0.0,))
    got = e.signed_distance(np.array(q))
    want = _ellipse_distance_oracle((1.0, 2.0), np.array(q))
    assert got == pytest.approx(want, abs=5e-7)


@pytest.mark.parametrize("q", [
    # inside the evolute of the (1, 2) ellipse, where several normals meet
    (1e-3, 0.0), (1e-6, 0.9), (0.05, 1.2), (0.2, -0.6),
    # a zero offset along one axis
    (0.5, 0.0), (1.4, 0.0), (0.0, 1.9), (0.0, 2.5), (0.0, -1.6),
])
def test_ellipsoid_newton_distance_vs_refined_oracle(q):
    e = Ellipsoid(semi_axes=(1.0, 2.0), center=(0.0,))
    got = e.signed_distance(np.array(q))
    want = _ellipse_distance_oracle((1.0, 2.0), np.array(q), n=2001, zooms=4)
    assert got == pytest.approx(want, abs=1e-10)


def _decimal_distance(semi, q):
    """Unsigned distance from q to the ellipsoid in 50-digit arithmetic:
    bisection on f(x) = sum((s_i q_i / (s_i^2 - min(s)^2 + x))^2) - 1."""
    with localcontext() as ctx:
        ctx.prec = 50
        s = [Decimal(v) for v in semi]
        q = [Decimal(float(v)) for v in q]
        d = [si * si - min(s) ** 2 for si in s]

        def f(x):
            return sum((si * qi / (di + x)) ** 2 for si, qi, di in zip(s, q, d)) - 1

        lo, hi = Decimal("1e-40"), sum(abs(si * qi) for si, qi in zip(s, q)) + 1
        for _ in range(240):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if f(mid) > 0 else (lo, mid)
        p = [si * si * qi / (di + lo) for si, qi, di in zip(s, q, d)]
        return float(sum((qi - pi) ** 2 for qi, pi in zip(q, p)).sqrt())


@pytest.mark.parametrize("semi,q", [
    # roots ~1e-6 and ~1e-8 right of the pole t = -min(s)^2, where t itself
    # cannot resolve the distance to the pole (the old parametrisation was
    # off by 2.65e-11 at the first point)
    ((1.0, 2.0), (1e-6, 0.9)),
    ((1.0, 2.0), (1e-8, -1.1)),
    ((1.0, 1.3, 0.8), (0.3, 0.2, 1e-7)),  # smallest semi-axis along y2
])
def test_ellipsoid_distance_near_the_smallest_axis_plane(semi, q):
    e = Ellipsoid(semi_axes=semi, center=(0.0,) * (len(semi) - 1))
    got = float(e.signed_distance(np.array(q)))
    assert got == pytest.approx(-_decimal_distance(semi, q), abs=1e-13)


@pytest.mark.parametrize("q", [(0.0, 0.0), (0.0, 1.0), (0.0, -1.4)])
def test_ellipsoid_deep_points_keep_the_conservative_proxy(q):
    # on the r = 0 segment inside the evolute f has no root; the proxy
    # (1 - level) * min(s) understates the true depth
    e = Ellipsoid(semi_axes=(1.0, 2.0), center=(0.0,))
    got = float(e.signed_distance(np.array(q)))
    level = math.hypot(q[0], q[1] / 2.0)
    assert got == pytest.approx(-(1.0 - level), abs=1e-15)
    want = _ellipse_distance_oracle((1.0, 2.0), np.array(q), n=2001, zooms=4)
    assert want - 1e-12 <= got < 0.0


@pytest.mark.parametrize("semi,center,h", [
    ((1.0, 2.0), (0.0,), 1 / 96),
    ((1.0, 1.3, 0.8), (0.05, -0.1), 1 / 24),
])
def test_ellipsoid_newton_converges_within_its_cap_on_a_grid(semi, center, h):
    e = Ellipsoid(semi_axes=semi, center=center)
    grid = StaggeredGrid.from_domain(e, h)
    s = np.asarray(semi)
    q = e._centered(grid.node_points()).reshape(-1, len(semi))
    _, deep, sweeps = _ellipsoid_root(s * q, s * s)
    assert not deep.any()  # no node is centred along the smallest semi-axis
    assert sweeps < NEWTON_MAX_ITER


def test_ellipsoid_gradient_matches_finite_difference():
    e = Ellipsoid(semi_axes=(1.0, 2.0), center=(0.0,))
    p = np.array([0.6, 0.9])
    g = e.sd_gradient(p)
    eps = 1e-6
    for axis in range(2):
        d = np.zeros(2)
        d[axis] = eps
        fd = (e.signed_distance(p + d) - e.signed_distance(p - d)) / (2 * eps)
        assert g[axis] == pytest.approx(fd, abs=1e-5)
    assert np.linalg.norm(g) == pytest.approx(1.0, abs=1e-9)


def test_box_signed_distance_exact_corner():
    box = Box(half_widths=(1.0, 1.0), center=(0.0,))
    assert box.signed_distance(np.array([0.5, 0.25])) == pytest.approx(-0.5)
    # outside past a corner: Euclidean distance to the corner
    assert box.signed_distance(np.array([1.5, 1.5])) == pytest.approx(
        math.sqrt(0.5))
    assert box.signed_distance(np.array([-1.5, 0.0])) == pytest.approx(0.5)


@st.composite
def _ellipsoids_and_points(draw):
    """An ellipsoid with k = 1..3 and random semi-axes, and points deep
    inside its evolute, on its boundary, near it and far outside."""
    k = draw(st.integers(1, 3))
    semi = np.array(draw(st.lists(st.floats(0.25, 3.0), min_size=k + 1, max_size=k + 1)))
    center = tuple(draw(st.lists(st.floats(-1.0, 1.0), min_size=k, max_size=k)))
    unit = st.floats(-1.0, 1.0)
    rows = []
    for scale in (st.floats(0.0, 0.3), st.just(1.0), st.floats(0.9, 1.1),
                  st.floats(1.5, 10.0), st.floats(0.0, 1.0)):
        for _ in range(4):
            w = np.array(draw(st.lists(unit, min_size=k + 1, max_size=k + 1)))
            w = w / max(np.linalg.norm(w), 1e-300) if w.any() else w
            rows.append(draw(scale) * w * semi)
    deep = rows[0].copy()
    deep[np.argmin(semi)] = 0.0  # on the smallest axis' plane: no Newton root
    q = np.array(rows + [deep])
    return Ellipsoid(semi_axes=tuple(semi), center=center), q + np.array([0.0, *center])


@settings(derandomize=True, max_examples=200, deadline=None)
@given(case=_ellipsoids_and_points(), band=st.sampled_from([0.0, 1e-3, 0.05, 0.3, 1.0, 4.0]))
def test_ellipsoid_distance_is_exact_within_its_band(case, band):
    e, pts = case
    exact = e.signed_distance(pts)
    got = e.signed_distance(pts, band=band)
    within = np.abs(exact) <= band
    assert np.array_equal(got[within], exact[within])
    assert np.array_equal(np.sign(got[~within]), np.sign(exact[~within]))
    assert np.all(band < np.abs(got[~within]))
    assert np.all(np.abs(got[~within]) <= np.abs(exact[~within]))


@pytest.mark.parametrize("dom", [Ball(radius=1.3, center=(0.2, -0.1)),
                                 Box(half_widths=(0.9, 0.6, 1.2), center=(0.2, 0.0))])
def test_ball_and_box_distances_ignore_the_band(dom):
    pts = np.random.default_rng(3).uniform(-3.0, 3.0, size=(500, 3))
    exact = dom.signed_distance(pts)
    for band in (0.0, 0.01, 0.5):
        assert np.array_equal(dom.signed_distance(pts, band=band), exact)


def test_offset_keeps_r_signed():
    box = Box(half_widths=(1.0, 1.0, 2.0), center=(0.3, -0.5))
    q = box.offset(np.array([[-0.25, 1.0, 0.0], [0.5, 0.3, -0.5]]))
    assert q.tolist() == [[-0.25, 0.7, 0.5], [0.5, 0.0, 0.0]]


def test_only_the_ball_has_a_closed_form_torsion():
    params = WeinsteinParams(a=1.5, k=2)
    ball = Ball(radius=1.5, center=(0.2, -0.1))
    u, slope = ball.exact_torsion(params)
    assert slope == 1.5 / params.dim_eff
    # zero on the sphere, with |du/dn| = slope there
    omega, _ = sphere_lattice(2, 50)
    surface = np.array([0.0, 0.2, -0.1]) + 1.5 * omega
    assert np.max(np.abs(u(surface))) < 1e-15
    eps = 1e-6
    du_dn = (u(surface - eps * omega) - u(surface + eps * omega)) / (2 * eps)
    assert np.allclose(du_dn, slope, rtol=1e-8)
    assert Ellipsoid((1.0, 2.0, 1.0), center=(0.0, 0.0)).exact_torsion(params) is None
    assert Box((1.0, 2.0, 1.0), center=(0.0, 0.0)).exact_torsion(params) is None


def test_ball_requires_positive_radius():
    with pytest.raises(Exception):
        Ball(radius=-1.0, center=(0.0,))


# ---------------------------------------------------------------------------
# grids and node classification
# ---------------------------------------------------------------------------


def test_grid_is_staggered_off_axis_and_symmetric():
    dom = Ball(radius=1.0, center=(0.25,))
    grid = StaggeredGrid.from_domain(dom, 1 / 16)
    r = grid.r_nodes()
    assert r[0] == pytest.approx(grid.h_r / 2)
    assert np.all(r > 0)
    y = grid.y_nodes(0)
    # nodes straddle the center symmetrically, none lands on it
    assert np.min(np.abs(y - 0.25)) == pytest.approx(grid.h_y / 2)
    mids = y - 0.25
    assert np.max(np.abs(mids + mids[::-1])) < 1e-12


@pytest.mark.parametrize("dom,h", [
    (Ellipsoid(semi_axes=(1.0, 2.0), center=(0.013,)), 1 / 40),
    (Ball(radius=1.0, center=(0.02, -0.03)), 1 / 12),
    (Ball(radius=1.0, center=(0.0, 0.0, 0.0)), 1 / 8),
])
def test_points_at_are_the_node_points_of_the_mask(dom, h):
    grid = StaggeredGrid.from_domain(dom, h)
    geo = grid_geometry(dom, grid)
    pts = grid.node_points()
    for mask in (geo.inside, geo.near, np.zeros(grid.shape, dtype=bool)):
        assert _bitwise_equal(grid.points_at(mask), pts[mask])
    flat = geo.covered.flat
    assert _bitwise_equal(grid.points_of(flat), pts.reshape(-1, grid.k + 1)[flat])


def test_cut_fraction_solves_boundary_crossing():
    dom = Ball(radius=1.0, center=(0.0,))
    grid = StaggeredGrid.from_domain(dom, 1 / 16)
    geo = grid_geometry(dom, grid)
    checked = 0
    for axis, direction, rows, theta, points in _cut_arms(geo):
        for p in points[(theta > 0) & (theta < 1)][:5]:
            assert abs(dom.signed_distance(p)) < 1e-8
            checked += 1
    assert checked > 0


def _bisect_cut(dom, points, axis, direction, h, steps=60):
    """Oracle: bisect the sign of the signed distance along each arm."""
    step = np.zeros(points.shape[-1])
    step[axis] = direction * h
    lo = np.zeros(points.shape[0])
    hi = np.ones(points.shape[0])
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        inside = dom.signed_distance(points + mid[:, None] * step) < 0.0
        lo = np.where(inside, mid, lo)
        hi = np.where(inside, hi, mid)
    return 0.5 * (lo + hi)


_CUT_DOMAINS = {
    "ball": Ball(radius=1.0, center=(0.0,)),
    "ellipsoid_shifted": Ellipsoid(semi_axes=(1.0, 2.0), center=(0.137,)),
    "ellipsoid_k2": Ellipsoid(semi_axes=(1.0, 1.3, 0.8), center=(0.05, -0.1)),
    "box": Box(half_widths=(0.9, 0.6), center=(0.2,)),
}


def _semi(dom):
    return np.array([dom.r_extent, *dom.y_halfwidth])


@pytest.mark.parametrize("name", list(_CUT_DOMAINS))
def test_cut_theta_matches_bisection_on_grid_cut_nodes(name):
    dom = _CUT_DOMAINS[name]
    h = 1 / 40 if dom.k == 1 else 1 / 16
    grid = StaggeredGrid.from_domain(dom, h)
    geo = grid_geometry(dom, grid)
    nodes = grid.points_at(geo.inside)
    arms = list(_cut_arms(geo))
    assert len(arms) == 2 * (dom.k + 1)
    for axis, direction, rows, _, points in arms:
        if (axis, direction) == (0, -1):
            assert not rows.size  # the mirror neighbor across r = 0 is inside
            continue
        assert rows.size
        want = nodes[rows].copy()
        want[:, axis] += direction * h * _bisect_cut(dom, nodes[rows], axis, direction, h)
        assert np.max(np.abs(points - want)) <= 1e-12 * h


@pytest.mark.parametrize("name", list(_CUT_DOMAINS))
def test_axis_cut_matches_bisection_on_long_arms(name):
    # an arm longer than the domain leaves it from every inside point, so
    # every direction has a crossing, the r-axis -1 arm through r = 0
    # onto the mirrored side included
    dom = _CUT_DOMAINS[name]
    semi = _semi(dom)
    center = np.array([0.0, *dom.y_center])
    rng = np.random.default_rng(11)
    pts = center + rng.uniform(-1.0, 1.0, size=(400, dom.k + 1)) * semi
    pts[:, 0] = np.abs(pts[:, 0])
    pts = pts[dom.signed_distance(pts) < 0.0]
    length = 2.5 * semi.max()
    for axis in range(dom.k + 1):
        for direction in (1, -1):
            got = dom.axis_cut(pts, axis, direction, length)
            want = _bisect_cut(dom, pts, axis, direction, length)
            assert np.all((got > 0.0) & (got < 1.0))
            assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("name", list(_CUT_DOMAINS))
def test_axis_cut_at_a_grazing_node(name):
    # a node 1e-9 h inside the boundary along its arm
    dom = _CUT_DOMAINS[name]
    semi = _semi(dom)
    center = np.array([0.0, *dom.y_center])
    h = 1 / 64
    for axis in range(dom.k + 1):
        for direction in (1, -1):
            if (axis, direction) == (0, -1):
                continue  # nodes sit at r > 0
            q = 0.3 * semi
            q[axis] = 0.0
            if isinstance(dom, Box):
                reach = semi[axis]
            else:
                reach = semi[axis] * math.sqrt(1.0 - np.sum((q / semi) ** 2))
            q[axis] = direction * (reach - 1e-9 * h)
            point = (center + q)[None, :]
            assert dom.signed_distance(point)[0] < 0.0
            got = dom.axis_cut(point, axis, direction, h)
            want = _bisect_cut(dom, point, axis, direction, h)
            assert got[0] == pytest.approx(1e-9, rel=1e-3)
            assert abs(got[0] - want[0]) <= 1e-12


def test_volume_fractions_integrate_the_half_disc():
    dom = Ball(radius=1.0, center=(0.0,))
    for h, tol in ((1 / 32, 2e-3), (1 / 64, 5e-4)):
        grid = StaggeredGrid.from_domain(dom, h)
        geo = grid_geometry(dom, grid)
        vol = float(np.sum(geo.covered.fraction)) * grid.h_r * grid.h_y
        assert vol == pytest.approx(math.pi / 2, abs=tol)


def test_box_volume_fractions_are_exact():
    dom = Box(half_widths=(0.5, 0.75), center=(0.0,))
    grid = StaggeredGrid.from_domain(dom, 1 / 16)
    geo = grid_geometry(dom, grid)
    vol = float(np.sum(geo.covered.fraction)) * grid.h_r * grid.h_y
    assert vol == pytest.approx(0.5 * 1.5, abs=1e-12)


class _ExactEllipsoid(Ellipsoid):
    """An ellipsoid that computes the Newton distance at every point."""

    def signed_distance(self, x, band=math.inf):
        return super().signed_distance(x)


@pytest.mark.parametrize("semi,center,h", [
    ((1.0, 2.0), (0.0,), 1 / 48),
    ((1.4, 0.7), (0.113,), 1 / 40),
    ((1.0, 1.3, 0.8), (0.05, -0.1), 1 / 16),
    ((1.0, 1.2, 0.9, 1.1), (0.0, 0.0, 0.0), 1 / 8),
])
def test_banded_geometry_matches_the_exact_distance_everywhere(semi, center, h, monkeypatch):
    rows = []  # points handed to the Newton solve, per geometry
    nearest = Ellipsoid._nearest

    def counted(self, q):
        rows[-1] += q[..., 0].size
        return nearest(self, q)

    monkeypatch.setattr(Ellipsoid, "_nearest", counted)
    grid = StaggeredGrid.from_domain(Ellipsoid(semi_axes=semi, center=center), h)
    geos = []
    for shape in (Ellipsoid, _ExactEllipsoid):
        rows.append(0)
        geos.append(GridGeometry(shape(semi_axes=semi, center=center), grid))
    geo, ref = geos
    for name in ("inside", "near"):
        assert np.array_equal(getattr(geo, name), getattr(ref, name)), name
    for name in ("flat", "fraction", "rows"):
        assert _bitwise_equal(getattr(geo.covered, name), getattr(ref.covered, name)), name
    for name in ("bc_rows", "bc_slots", "bc_points"):
        assert _bitwise_equal(getattr(geo.neighbours, name), getattr(ref.neighbours, name)), name
    for got, want in zip(geo.neighbours.weights, ref.neighbours.weights):
        assert _bitwise_equal(np.array(got), np.array(want))
    assert rows[0] < rows[1]  # the band saved some Newton solves


def test_the_cached_geometry_keeps_no_distance_field_or_csr_shadow():
    """A geometry with its table retains the inside mask over the lattice,
    the covered cells' record and one column array per slot over the
    inside rows, but no distance field, no fraction or donor lattice and
    no second record of the neighbours."""
    dom = Ball(1.0, center=(0.02, 0.0))
    grid = StaggeredGrid.from_domain(dom, 1 / 32)
    tracemalloc.start()
    try:
        geo = GridGeometry(dom, grid)
        geo.neighbours
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained <= 6 * 2**20, retained / 2**20


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from([Ball, Ellipsoid, Box]), k=st.integers(1, 3),
       h_inv=st.sampled_from([8, 10, 12]), data=st.data())
def test_inside_masks_equal_their_mirror_images_on_every_y_axis(kind, k, h_inv, data):
    h = 1.0 / h_inv
    center = data.draw(st.lists(st.floats(-h / 2, h / 2), min_size=k, max_size=k))
    extents = data.draw(st.lists(st.floats(0.5, 1.2), min_size=k + 1, max_size=k + 1))
    dom = (Ball(extents[0], center=center) if kind is Ball
           else kind(tuple(extents), center=center))
    grid = StaggeredGrid.from_domain(dom, h)
    # a node within rounding of the boundary may fall on either side of it
    assume(np.min(np.abs(dom.signed_distance(grid.node_points()))) > 1e-9 * h)
    geo = GridGeometry(dom, grid)
    for axis in range(1, k + 1):
        assert np.array_equal(geo.inside, np.flip(geo.inside, axis))
    assert geo.neighbours.mirror_axes == tuple(range(1, k + 1))


def test_a_mask_unequal_to_its_mirror_image_does_not_fold():
    # faces through the nodes: rounding puts the face nodes inside on one side
    dom = Box(half_widths=(0.45, 0.45, 0.45), center=(0.0, 0.0))
    geo = GridGeometry(dom, StaggeredGrid.from_domain(dom, 0.1))
    for axis in (1, 2):
        assert not np.array_equal(geo.inside, np.flip(geo.inside, axis))
    assert geo.neighbours.mirror_axes == ()


def test_a_lattice_not_mirrored_about_the_centre_does_not_fold():
    # the masks equal their mirror images, but the cut arms do not
    dom = Box(half_widths=(0.52, 0.52), center=(0.0,))
    grid = StaggeredGrid.from_domain(dom, 0.1)
    assert GridGeometry(dom, grid).neighbours.mirror_axes == (1,)
    off_centre = dataclasses.replace(grid, y_start=(grid.y_start[0] + 0.01,))
    odd_count = dataclasses.replace(grid, n_y=(grid.n_y[0] + 1,),
                                    y_start=(grid.y_start[0] - 0.05,))
    for lattice in (off_centre, odd_count):
        geo = GridGeometry(dom, lattice)
        assert np.array_equal(geo.inside, np.flip(geo.inside, 1))
        assert geo.neighbours.mirror_axes == ()


def test_empty_domain_raises():
    dom = Ball(radius=0.05, center=(0.0,))
    with pytest.raises(EmptyDomain):
        grid = StaggeredGrid(h_r=0.2, h_y=0.2, n_r=4, n_y=(4,), y_start=(-0.3,))
        grid_geometry(dom, grid)


def test_unequal_lattice_steps_are_rejected():
    # the cell fractions and the cut band measure with one step
    with pytest.raises(ValueError, match="h_r = 0.05 and h_y = 0.1"):
        StaggeredGrid(h_r=0.05, h_y=0.1, n_r=24, n_y=(24,), y_start=(-1.15,))


@pytest.mark.parametrize("axis,edge", [(0, -1), (1, 0), (1, -1), (2, 0), (2, -1)])
def test_a_domain_on_the_lattice_edge_raises(axis, edge):
    # the margin taken off one edge leaves inside nodes on it; only the
    # first r layer may hold them, as its (r,-) neighbour is its mirror
    dom = Ball(1.0, center=(0.0, 0.0))
    grid = StaggeredGrid.from_domain(dom, 1 / 8)
    assert GridGeometry(dom, grid).inside[0].any()
    if axis == 0:
        cut = dataclasses.replace(grid, n_r=grid.n_r - MARGIN_CELLS)
    else:
        y_start = list(grid.y_start)
        y_start[axis - 1] += (1 if edge == 0 else -1) * MARGIN_CELLS * grid.h_y
        cut = dataclasses.replace(grid, y_start=tuple(y_start))
    with pytest.raises(EmptyDomain, match="lattice edge"):
        GridGeometry(dom, cut)


# ---------------------------------------------------------------------------
# sphere lattices and boundary samples
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k,area", [
    (1, 2 * math.pi),
    (2, 4 * math.pi),
    (3, 2 * math.pi**2),
])
def test_sphere_lattice_weights_sum_to_area(k, area):
    pts, w0 = sphere_lattice(k, 2000)
    assert pts.shape == (2000, k + 1)
    assert np.max(np.abs(np.linalg.norm(pts, axis=-1) - 1.0)) < 1e-12
    assert w0 * 2000 == pytest.approx(area, rel=1e-12)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_sphere_lattice_integrates_quadratics(k):
    # int_{S^k} x_0^2 = area / (k+1) by symmetry
    pts, w0 = sphere_lattice(k, 4000)
    total = w0 * 4000
    got = w0 * float(np.sum(pts[:, 0] ** 2))
    assert got == pytest.approx(total / (k + 1), rel=2e-3)


def test_sphere_lattice_rejects_high_dimension():
    with pytest.raises(UnsupportedShape):
        sphere_lattice(4, 100)


def test_ball_boundary_samples_lie_on_sphere():
    dom = Ball(radius=0.8, center=(0.3,))
    s = boundary_samples(dom, 4000)
    rad = np.linalg.norm(s.points - np.array([0.0, 0.3]), axis=-1)
    assert np.max(np.abs(rad - 0.8)) < 1e-12
    assert np.all(s.points[:, 0] > 0)
    outward = np.sum(s.normals * (s.points - np.array([0.0, 0.3])), axis=-1)
    assert np.all(outward > 0)
    assert np.max(np.abs(np.linalg.norm(s.normals, axis=-1) - 1)) < 1e-12
    # half circle of radius 0.8
    assert float(np.sum(s.weights)) == pytest.approx(math.pi * 0.8, rel=1e-3)


def test_ellipsoid_boundary_samples_weights_match_arc_length():
    dom = Ellipsoid(semi_axes=(1.0, 2.0), center=(0.0,))
    s = boundary_samples(dom, 20000)
    sd = dom.signed_distance(s.points)
    assert np.max(np.abs(sd)) < 1e-9

    def speed(th):
        return np.sqrt(np.sin(th) ** 2 + 4 * np.cos(th) ** 2)

    half_perimeter, _ = integrate.quad(speed, -np.pi / 2, np.pi / 2)
    assert float(np.sum(s.weights)) == pytest.approx(half_perimeter, rel=2e-3)

    # normals match the signed-distance gradient
    g = dom.sd_gradient(s.points)
    assert np.max(np.abs(g - s.normals)) < 1e-6


def test_ellipsoid_boundary_weighted_moment_oracle():
    # int over the half-ellipse of r dsigma, computed parametrically
    dom = Ellipsoid(semi_axes=(1.0, 2.0), center=(0.0,))
    s = boundary_samples(dom, 20000)

    def integrand(th):
        return np.cos(th) * np.sqrt(np.sin(th) ** 2 + 4 * np.cos(th) ** 2)

    want, _ = integrate.quad(integrand, -np.pi / 2, np.pi / 2)
    got = float(np.sum(s.weights * s.points[:, 0]))
    assert got == pytest.approx(want, rel=2e-3)


def test_box_boundary_samples_unsupported():
    with pytest.raises(UnsupportedShape):
        boundary_samples(Box(half_widths=(1.0, 1.0), center=(0.0,)), 100)


def test_k2_ball_boundary_samples_area():
    dom = Ball(radius=1.0, center=(0.0, 0.0))
    s = boundary_samples(dom, 20000)
    # half of the unit sphere area
    assert float(np.sum(s.weights)) == pytest.approx(2 * math.pi, rel=2e-3)
    rad = np.linalg.norm(s.points, axis=-1)
    assert np.max(np.abs(rad - 1.0)) < 1e-12


def test_descriptor_round_trip_fields():
    d = Ellipsoid(semi_axes=(1.0, 2.0), center=(0.5,)).descriptor()
    assert d["type"] == "ellipsoid"
    assert d["semi_axes"] == [1.0, 2.0]
    assert d["center"] == [0.5]
