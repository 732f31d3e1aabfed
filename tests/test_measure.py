"""Weighted measures, spherical means, and the fundamental solution.

The closed-form constants are checked against independent quadrature
oracles built from different decompositions of the same integrals, plus
hand-derived values for the classical cases.
"""

import math
import re

import numpy as np
import pytest
from scipy import integrate

from weinstein.errors import (
    DegenerateDimension,
    PoleEvaluation,
    SphereOutsideDomain,
)
from weinstein.field import ScalarField
from weinstein.geometry import Ball, Box, Ellipsoid, StaggeredGrid, sphere_lattice
from weinstein.measure import (
    aniso_ball_volume,
    aniso_sphere_measure,
    fundamental_solution,
    r_cell_measure,
    radial_field_apply,
    spherical_mean,
    spherical_mean_derivative,
    weighted_volume_integral,
)
from weinstein.operator import assemble_torsion_system
from weinstein.params import WeinsteinParams
from weinstein.solver import solve


# ---------------------------------------------------------------------------
# measure constants
# ---------------------------------------------------------------------------


def _omega_oracle(a, k):
    """|r|^a volume of the unit ball by slicing, independent of the
    gamma-function closed form."""
    if k == 1:
        # slice in y: the r-fiber integrates to 2 (1-y^2)^((a+1)/2) / (a+1)
        val, _ = integrate.quad(
            lambda y: 2.0 * (1.0 - y * y) ** ((a + 1) / 2) / (a + 1), -1, 1)
        return val
    # k = 2: polar coordinates in the y-plane, fiber radius sqrt(1-r^2)
    val, _ = integrate.quad(
        lambda r: 2.0 * (r**a) * math.pi * (1.0 - r * r), 0, 1)
    return val


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("k", [1, 2])
def test_ball_volume_matches_quadrature_oracle(a, k):
    params = WeinsteinParams(a=a, k=k)
    got = aniso_ball_volume(params, 1.0)
    assert got == pytest.approx(_omega_oracle(a, k), rel=1e-9)


def test_hand_derived_ball_volumes():
    assert aniso_ball_volume(WeinsteinParams(0.0, 1), 1.0) == pytest.approx(
        math.pi, abs=1e-12)
    assert aniso_ball_volume(WeinsteinParams(1.0, 1), 1.0) == pytest.approx(
        4.0 / 3.0, abs=1e-12)
    assert aniso_ball_volume(WeinsteinParams(2.0, 1), 1.0) == pytest.approx(
        math.pi / 4.0, abs=1e-12)
    assert aniso_ball_volume(WeinsteinParams(0.0, 2), 1.0) == pytest.approx(
        4.0 * math.pi / 3.0, abs=1e-12)


def test_sphere_measure_is_scaled_derivative_of_volume():
    for a, k in ((0.5, 1), (1.0, 2), (2.0, 1)):
        params = WeinsteinParams(a=a, k=k)
        t = 0.7
        # sigma t^(a+k) = d/dt omega t^(a+1+k)
        dt = 1e-6
        fd = (aniso_ball_volume(params, t + dt)
              - aniso_ball_volume(params, t - dt)) / (2 * dt)
        assert aniso_sphere_measure(params, t) == pytest.approx(fd, rel=1e-8)
    # hand value: int_{S^1} |cos|^1 = 4
    assert aniso_sphere_measure(WeinsteinParams(1.0, 1), 1.0) == pytest.approx(
        4.0, abs=1e-12)


def test_ball_volume_scales_with_radius_power():
    params = WeinsteinParams(a=1.5, k=2)
    assert aniso_ball_volume(params, 2.0) == pytest.approx(
        2.0 ** params.dim_eff * aniso_ball_volume(params, 1.0), rel=1e-13)


def test_r_cell_measure_matches_per_cell_quadrature():
    grid = StaggeredGrid(h_r=0.1, h_y=0.1, n_r=6, n_y=(4,), y_start=(-0.2,))
    params = WeinsteinParams(a=0.5, k=1)
    m = r_cell_measure(grid, params)
    for i in range(6):
        want, _ = integrate.quad(lambda r: r**0.5, i * 0.1, (i + 1) * 0.1)
        assert m[i] == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# volume integrals
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
def test_constant_integral_over_half_ball(a):
    params = WeinsteinParams(a=a, k=1)
    dom = Ball(radius=1.0, center=(0.0,))
    grid = StaggeredGrid.from_domain(dom, 1 / 64)
    got = weighted_volume_integral(1.0, params, domain=dom, grid=grid)
    # the grid covers the r > 0 half of the reflected ball
    assert got.value == pytest.approx(aniso_ball_volume(params, 1.0) / 2,
                                      rel=2e-3)


def test_box_constant_integral_is_exact():
    params = WeinsteinParams(a=1.0, k=1)
    dom = Box(half_widths=(0.5, 0.75), center=(0.0,))
    grid = StaggeredGrid.from_domain(dom, 1 / 32)
    got = weighted_volume_integral(1.0, params, domain=dom, grid=grid)
    # int_0^0.5 r dr * int over y of length 1.5
    assert got.value == pytest.approx(0.125 * 1.5, rel=1e-12)


def test_torsion_mass_on_ball_matches_hand_value():
    # int over the half ball of (1-rho^2)/6 * r dr dy = 2/45
    params = WeinsteinParams(a=1.0, k=1)
    dom = Ball(radius=1.0, center=(0.0,))
    grid = StaggeredGrid.from_domain(dom, 1 / 64)

    def u(pts):
        rho2 = pts[..., 0] ** 2 + pts[..., 1] ** 2
        return (1.0 - rho2) / 6.0

    f = ScalarField.from_function(dom, grid, u)
    got = weighted_volume_integral(f, params)
    assert got.value == pytest.approx(2.0 / 45.0, rel=2e-3)


def test_callable_and_field_integrals_agree():
    params = WeinsteinParams(a=0.5, k=1)
    dom = Ball(radius=1.0, center=(0.0,))
    grid = StaggeredGrid.from_domain(dom, 1 / 32)

    def f(pts):
        return 1.0 + pts[..., 1] ** 2

    a = weighted_volume_integral(f, params, domain=dom, grid=grid).value
    b = weighted_volume_integral(ScalarField.from_function(dom, grid, f),
                                 params).value
    assert a == pytest.approx(b, rel=5e-4)


def test_richardson_error_estimate_brackets_truth():
    params = WeinsteinParams(a=1.0, k=1)
    dom = Ball(radius=1.0, center=(0.0,))
    fine = StaggeredGrid.from_domain(dom, 1 / 64)
    coarse = StaggeredGrid.from_domain(dom, 1 / 32)
    fine_f = ScalarField.from_function(dom, fine, lambda p: np.ones(p.shape[:-1]))
    coarse_f = ScalarField.from_function(dom, coarse, lambda p: np.ones(p.shape[:-1]))
    got = weighted_volume_integral(fine_f, params, coarse_field=coarse_f)
    truth = aniso_ball_volume(params, 1.0) / 2
    assert got.estimated_error > 0
    assert abs(got.value - truth) < 10 * got.estimated_error


# ---------------------------------------------------------------------------
# spherical means
# ---------------------------------------------------------------------------


def test_mean_of_one_is_one():
    for a, k in ((0.5, 1), (1.0, 1), (1.0, 2), (2.0, 2)):
        params = WeinsteinParams(a=a, k=k)
        m = spherical_mean(lambda p: np.ones(p.shape[0]), params,
                           (0.0,) * k, 0.8)
        assert m == pytest.approx(1.0, abs=1e-3)


@pytest.mark.parametrize("a,k", [(0.5, 1), (1.0, 1), (1.0, 2)])
@pytest.mark.parametrize("t", [0.25, 0.5])
def test_mean_of_weinstein_harmonic_vanishes(a, k, t):
    params = WeinsteinParams(a=a, k=k)

    def harmonic(p):
        return (a + 1) * np.sum(p[:, 1:] ** 2, axis=-1) - k * p[:, 0] ** 2

    m = spherical_mean(harmonic, params, (0.0,) * k, t)
    assert abs(m) <= 1e-3 * t * t * max(a + 1, k)


def test_mean_of_rho_squared_and_derivative():
    params = WeinsteinParams(a=1.0, k=1)

    def rho2(p):
        return np.sum(p**2, axis=-1)

    t = 0.6
    # M(rho^2, t) = t^2 and M'(t) = 2t
    assert spherical_mean(rho2, params, (0.0,), t) == pytest.approx(
        t * t, rel=1e-6)
    assert spherical_mean_derivative(rho2, params, (0.0,), t) == pytest.approx(
        2 * t, rel=1e-5)
    # constants have zero derivative
    assert spherical_mean_derivative(lambda p: np.ones(p.shape[0]), params,
                                     (0.0,), t) == pytest.approx(0.0, abs=1e-8)


def test_derivative_matches_finite_difference_at_high_order():
    params = WeinsteinParams(a=1.0, k=2)

    def f(p):
        return np.exp(-np.sum(p**2, axis=-1)) + p[:, 0] ** 2 * p[:, 1]

    t = 0.7
    z = spherical_mean_derivative(f, params, (0.0, 0.0), t, n_samples=40000)
    errs = []
    deltas = (0.2, 0.1, 0.05)
    for d in deltas:
        fd = (spherical_mean(f, params, (0.0, 0.0), t + d, n_samples=40000)
              - spherical_mean(f, params, (0.0, 0.0), t - d, n_samples=40000)
              ) / (2 * d)
        errs.append(abs(fd - z))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    assert min(orders) >= 1.8


def test_solved_ball_means_match_profile_and_decrease():
    params = WeinsteinParams(a=1.0, k=1)
    dom = Ball(radius=1.0, center=(0.0,))
    grid = StaggeredGrid.from_domain(dom, 1 / 64)
    u, _ = solve(assemble_torsion_system(dom, grid, params))
    means = []
    for t in (0.1, 0.2, 0.3, 0.4, 0.5):
        m = spherical_mean(u, params, (0.0,), t)
        means.append(m)
        want = (1.0 - t * t) / 6.0
        assert m == pytest.approx(want, abs=1e-3)
    assert np.all(np.diff(means) < 0)


def test_sphere_outside_domain_raises():
    params = WeinsteinParams(a=1.0, k=1)
    dom = Ball(radius=1.0, center=(0.0,))
    grid = StaggeredGrid.from_domain(dom, 1 / 32)
    u, _ = solve(assemble_torsion_system(dom, grid, params))
    with pytest.raises(SphereOutsideDomain):
        spherical_mean(u, params, (0.0,), 0.999)


def test_sphere_outside_an_ellipsoid_names_the_exact_max_distance():
    # the containment test reads the distance only near the boundary, but
    # the message reports the exact maximum, which the bound understates
    params = WeinsteinParams(a=1.0, k=1)
    dom = Ellipsoid(semi_axes=(1.0, 2.0), center=(0.0,))
    grid = StaggeredGrid.from_domain(dom, 1 / 32)
    field = ScalarField.from_function(dom, grid, lambda pts: pts[..., 0] ** 2)
    pts = np.array([0.0, 1.0]) + 1.2 * sphere_lattice(1, 400)[0]
    exact = float(dom.signed_distance(pts).max())
    bound = float(dom.signed_distance(pts, band=0.0).max())
    assert f"{bound:.3g}" != f"{exact:.3g}"
    with pytest.raises(SphereOutsideDomain,
                       match=re.escape(f"(max signed distance {exact:.3g})")):
        spherical_mean(field, params, (1.0,), 1.2, n_samples=400)


def test_sphere_containment_decides_on_the_exact_distance():
    # spheres about an off-centre axis point, where the quadric bound is
    # loose: a sphere is refused exactly when its exact distance says so
    params = WeinsteinParams(a=1.0, k=1)
    dom = Ellipsoid(semi_axes=(1.0, 2.0), center=(0.0,))
    grid = StaggeredGrid.from_domain(dom, 1 / 32)
    field = ScalarField.from_function(dom, grid, lambda pts: pts[..., 0] ** 2)
    limit = -0.5 * grid.h_r * math.sqrt(2.0)
    refused = []
    for t in np.linspace(0.7, 0.9, 41):
        pts = np.array([0.0, 1.0]) + t * sphere_lattice(1, 400)[0]
        outside = bool(np.any(dom.signed_distance(pts) > limit))
        try:
            spherical_mean(field, params, (1.0,), t, n_samples=400)
        except SphereOutsideDomain as exc:  # or a later refusal of the field
            if "not contained" in str(exc):
                refused.append(t)
        assert (t in refused) == outside, t
    assert 0 < len(refused) < 41


def test_field_route_matches_callable_route():
    params = WeinsteinParams(a=1.0, k=1)
    dom = Ball(radius=1.0, center=(0.0,))
    grid = StaggeredGrid.from_domain(dom, 1 / 64)

    def f(pts):
        return pts[..., 0] ** 2 - pts[..., 1] ** 2

    field = ScalarField.from_function(dom, grid, f)
    t = 0.45
    a = spherical_mean(field, params, (0.0,), t)
    b = spherical_mean(lambda p: f(p), params, (0.0,), t)
    assert a == pytest.approx(b, abs=2e-4)
    da = spherical_mean_derivative(field, params, (0.0,), t)
    db = spherical_mean_derivative(lambda p: f(p), params, (0.0,), t)
    assert da == pytest.approx(db, abs=2e-3)


# ---------------------------------------------------------------------------
# radial derivation
# ---------------------------------------------------------------------------


def test_radial_derivation_oracles():
    params = WeinsteinParams(a=1.0, k=1)
    dom = Ball(radius=1.0, center=(0.0,))
    grid = StaggeredGrid.from_domain(dom, 1 / 32)
    geo_inside = None

    def rho2(p):
        return np.sum(p**2, axis=-1)

    f = ScalarField.from_function(dom, grid, rho2)
    z = radial_field_apply(f)
    from weinstein.geometry import grid_geometry

    geo = grid_geometry(dom, grid)
    # Z(rho^2) = 2 rho^2 exactly (quadratic, exact arms)
    want = 2.0 * rho2(grid.node_points())
    assert np.max(np.abs(z.values[geo.inside] - want[geo.inside])) < 1e-9

    const = ScalarField.from_function(dom, grid, lambda p: np.full(p.shape[:-1], 3.0))
    zc = radial_field_apply(const)
    assert np.max(np.abs(zc.values[geo.inside])) < 1e-12


def test_radial_derivation_quartic_point_value():
    # Z(r^4) = 4 r^4; at r = 0.5 that's 0.25
    params = WeinsteinParams(a=1.0, k=1)
    dom = Ball(radius=1.0, center=(0.0,))
    grid = StaggeredGrid.from_domain(dom, 1 / 64)
    f = ScalarField.from_function(dom, grid, lambda p: p[..., 0] ** 4)
    z = radial_field_apply(f)
    got = z.interpolate((0.5, 0.0))
    assert got == pytest.approx(0.25, abs=5e-3)


# ---------------------------------------------------------------------------
# fundamental solution
# ---------------------------------------------------------------------------


def test_newtonian_case_is_exact():
    params = WeinsteinParams(a=0.0, k=2)
    pts = np.array([[0.3, 0.1, -0.2], [1.0, 0.0, 0.0], [0.05, 0.4, 0.9]])
    got = fundamental_solution(params, pts)
    rho = np.linalg.norm(pts, axis=-1)
    want = -1.0 / (4.0 * math.pi * rho)
    assert np.max(np.abs(got / want - 1.0)) < 1e-13


def test_degenerate_dimension_rejected():
    with pytest.raises(DegenerateDimension):
        fundamental_solution(WeinsteinParams(0.0, 1), np.array([1.0, 0.0]))


def test_pole_evaluation_rejected():
    params = WeinsteinParams(a=1.0, k=1)
    with pytest.raises(PoleEvaluation):
        fundamental_solution(params, np.array([0.0, 0.0]))


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
def test_unit_flux_through_spheres(t):
    params = WeinsteinParams(a=1.0, k=1)
    from weinstein.geometry import boundary_samples

    s = boundary_samples(Ball(radius=t, center=(0.0,)), 20000)
    eps = 1e-6 * t
    up = fundamental_solution(params, s.points + eps * s.normals)
    dn = fundamental_solution(params, s.points - eps * s.normals)
    dnu = (up - dn) / (2 * eps)
    w = s.weights * np.abs(s.points[:, 0]) ** params.a
    # the samples cover the r > 0 half; evenness doubles it
    flux = 2.0 * float(np.sum(w * dnu))
    assert flux == pytest.approx(1.0, rel=1e-3)


def test_scalar_point_input_returns_float():
    params = WeinsteinParams(a=1.0, k=1)
    v = fundamental_solution(params, np.array([0.5, 0.5]))
    assert isinstance(v, float)
    assert v < 0
