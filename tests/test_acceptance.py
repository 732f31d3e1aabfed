"""Acceptance battery: one test per shipped guarantee, one verdict line each.

Each test prints "[criterion NN] <name>: PASS/FAIL" with the measured
numbers, then asserts.  Where the scheme reproduces the target exactly
(even quadratics are in the stencil's exactness class), the convergence
order of that quantity is unmeasurable noise at the solver floor; those
tests guard the floor instead and demonstrate the discretization order on
a manufactured quartic, which is genuinely outside the exactness class.
"""

import math
import time
from fractions import Fraction as F
from functools import lru_cache

import numpy as np
import pytest

from weinstein import (
    Ball,
    BesselWeights,
    Box,
    Ellipsoid,
    PolyField,
    ScalarField,
    StaggeredGrid,
    WeinsteinParams,
    aniso_ball_volume,
    aniso_sphere_measure,
    apply_operator,
    assemble_torsion_system,
    boundary_gradient_stats,
    cd_defect,
    cd_defect_values,
    dirichlet_energy_residual,
    flux_identity_residual,
    fundamental_solution,
    grid_geometry,
    normal_derivative_at_axis,
    p_integral_residual,
    pohozaev_residual,
    serrin_defect,
    solve,
    sphere_lattice,
    spherical_mean,
    spherical_mean_derivative,
)
from weinstein.rigidity import _manufactured_errors, _manufactured_quartic

CASES = ((0.5, 1), (1.0, 1), (2.0, 1), (1.0, 2))
SOLVER_FLOOR = 1e-9


def _verdict(num, name, ok, detail):
    print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {name}: {detail}"


@lru_cache(maxsize=None)
def _ball(a, k, h_inv):
    params = WeinsteinParams(a=a, k=k)
    dom = Ball(1.0, center=(0.0,) * k)
    grid = StaggeredGrid.from_domain(dom, 1.0 / h_inv)
    t0 = time.perf_counter()
    u, report = solve(assemble_torsion_system(dom, grid, params), tol=1e-10)
    return u, grid, time.perf_counter() - t0


@lru_cache(maxsize=None)
def _ellipsoid(h_inv, shift=0.0):
    params = WeinsteinParams(a=1.0, k=1)
    dom = Ellipsoid(semi_axes=(1.0, 2.0), center=(shift,))
    grid = StaggeredGrid.from_domain(dom, 1.0 / h_inv)
    u, _ = solve(assemble_torsion_system(dom, grid, params), tol=1e-10)
    return u, grid


@lru_cache(maxsize=None)
def _box(h_inv):
    params = WeinsteinParams(a=1.0, k=1)
    dom = Box(half_widths=(0.5, 0.75))
    grid = StaggeredGrid.from_domain(dom, 1.0 / h_inv)
    u, _ = solve(assemble_torsion_system(dom, grid, params), tol=1e-10)
    return u, grid


def _max_error_vs_profile(u, a, k):
    pts = u.grid.node_points()[u.geometry.inside]
    rho2 = np.sum(pts**2, axis=-1)
    exact = (1.0 - rho2) / (2.0 * (a + 1 + k))
    return float(np.max(np.abs(u.active - exact)))


def _orders(vals):
    return [math.log2(vals[i] / vals[i + 1]) for i in range(len(vals) - 1)]


def _span_order(vals):
    # aggregate order across the whole refinement chain
    steps = len(vals) - 1
    return math.log2(vals[0] / vals[-1]) / steps


def test_criterion_01_explicit_solution_reproduction():
    details = []
    ok = True
    for a, k in CASES:
        errs = [_max_error_vs_profile(_ball(a, k, hi)[0], a, k)
                for hi in (16, 32, 64)]
        wall = _ball(a, k, 64)[2]
        budget = 60.0 if k == 1 else 600.0
        case_ok = errs[-1] <= 5e-3 and wall <= budget
        if max(errs) <= SOLVER_FLOOR:
            # closed form is an even quadratic: reproduced exactly, so the
            # order requirement is demonstrated on a quartic instead
            mms = []
            for hi in (8, 16, 32):
                grid = StaggeredGrid.from_domain(Ball(1.0, center=(0.0,) * k),
                                                 1.0 / hi)
                v, quartic = _manufactured_quartic(
                    assemble_torsion_system(Ball(1.0, center=(0.0,) * k), grid,
                                            WeinsteinParams(a=a, k=k)))
                e, _ = _manufactured_errors(v, solve(quartic, tol=1e-11, max_iter=20000)[0])
                mms.append(e)
            case_ok = case_ok and all(o >= 1.9 for o in _orders(mms))
            details.append(f"(a={a},k={k}): err={errs[-1]:.1e} (floor), "
                           f"quartic orders {['%.2f' % o for o in _orders(mms)]}, "
                           f"{wall:.1f}s")
        else:
            case_ok = case_ok and all(o >= 1.9 for o in _orders(errs))
            details.append(f"(a={a},k={k}): err={errs[-1]:.1e}, "
                           f"orders {['%.2f' % o for o in _orders(errs)]}, "
                           f"{wall:.1f}s")
        ok = ok and case_ok
    _verdict(1, "explicit solution reproduction", ok, "; ".join(details))


def test_criterion_02_boundary_gradient_constancy():
    details = []
    ok = True
    for a, k in CASES:
        params = WeinsteinParams(a=a, k=k)
        stats = boundary_gradient_stats(_ball(a, k, 64)[0], params)
        target = 1.0 / (a + 1 + k)
        rel = abs(stats.mean - target) / target
        ok = ok and stats.cv <= 1e-2 and rel <= 0.02
        details.append(f"(a={a},k={k}): cv={stats.cv:.1e} mean_rel={rel:.1e}")
    _verdict(2, "boundary gradient constancy on balls", ok, "; ".join(details))


def test_criterion_03_rigidity_contrast():
    params = WeinsteinParams(a=1.0, k=1)
    d64 = serrin_defect(_ellipsoid(64)[0], params)
    d128 = serrin_defect(_ellipsoid(128)[0], params)
    stable = abs(d64 - d128) <= 0.2 * d64
    p_res = p_integral_residual(_ellipsoid(64)[0], params).residual
    ball_s = [serrin_defect(_ball(1.0, 1, hi)[0], params) for hi in (32, 64)]
    if max(ball_s) <= 1e-8:
        ball_note = f"ball defect at floor ({ball_s[-1]:.1e})"
        ball_ok = True
    else:
        ball_ok = ball_s[-1] <= 1e-2 and _span_order(ball_s) >= 1.5
        ball_note = f"ball defect {ball_s[-1]:.1e}, order {_span_order(ball_s):.2f}"
    ok = (d64 >= 0.05 and d128 >= 0.05 and stable and p_res >= 0.01
          and ball_s[-1] <= 1e-2 and ball_ok)
    _verdict(3, "rigidity contrast ellipsoid vs ball", ok,
             f"defect(1/64)={d64:.4f}, defect(1/128)={d128:.4f}, "
             f"p_integral={p_res:.4f}, {ball_note}")


def _random_even_poly_exact(rng, nv, max_deg=6):
    u = PolyField.zero(nv)
    for _ in range(int(rng.integers(2, 7))):
        while True:
            er = 2 * int(rng.integers(0, max_deg // 2 + 1))
            ey = [int(rng.integers(0, max_deg + 1)) for _ in range(nv - 1)]
            if er + sum(ey) <= max_deg:
                break
        coeff = F(int(rng.integers(-9, 10)), int(rng.integers(1, 8)))
        if coeff == 0:
            continue
        term = PolyField.constant(coeff, nv)
        for v, e in enumerate([er] + ey):
            term = term * PolyField.variable(v, nv) ** e
        u = u + term
    return u


def test_criterion_04_curvature_dimension_exactness():
    rng = np.random.default_rng(20260814)
    weights_grid = (F(0), F(1, 2), F(1), F(2))
    violations = 0
    n_evals = 0
    min_defect = None
    saw_positive = False
    for k in (1, 2):
        nv = k + 1
        for a in weights_grid:
            w = BesselWeights((a, *([F(0)] * k)))
            for _ in range(125):
                u = _random_even_poly_exact(rng, nv)
                pts = []
                for _ in range(10):
                    pt = [F(int(rng.integers(3, 40)), 20)]  # r in (0.1, 2)
                    pt += [F(int(rng.integers(-40, 41)), 21)
                           for _ in range(k)]
                    pts.append(tuple(pt))
                for d in cd_defect_values(u, w, pts):
                    n_evals += 1
                    if d < 0:
                        violations += 1
                    if d > 0:
                        saw_positive = True
                    min_defect = d if min_defect is None else min(min_defect, d)
    # equality family: exact zero defect, as a polynomial identity
    equality_exact = True
    for k in (1, 2):
        nv = k + 1
        r = PolyField.variable(0, nv)
        for a in weights_grid:
            w = BesselWeights((a, *([F(0)] * k)))
            q = r * r
            for m in range(k):
                ym = PolyField.variable(1 + m, nv)
                q = q + (ym - F(m + 1, 3)) * (ym - F(m + 1, 3))
            u = q * F(-5, 7) + F(2, 9)
            equality_exact = equality_exact and cd_defect(u, w) == PolyField.zero(nv)
    ok = (violations == 0 and n_evals == 10000 and saw_positive
          and equality_exact and min_defect >= 0)
    _verdict(4, "curvature-dimension inequality, exact arithmetic", ok,
             f"{n_evals} rational evaluations, {violations} violations, "
             f"min defect {float(min_defect):.3g}, equality family exact: "
             f"{equality_exact}")


def test_criterion_05_identity_residual_suite():
    params = WeinsteinParams(a=1.0, k=1)
    details = []
    ok = True
    for name, get in (("ball", lambda hi: _ball(1.0, 1, hi)),
                      ("ellipsoid", lambda hi: _ellipsoid(hi))):
        chains = {"energy": [], "flux": [], "pohozaev": []}
        for hi in (16, 32, 64):
            u, grid = get(hi)[:2]
            chains["energy"].append(dirichlet_energy_residual(u, params).residual)
            chains["flux"].append(
                flux_identity_residual(u.domain, params, grid).residual)
            chains["pohozaev"].append(pohozaev_residual(u, params).residual)
        for key, ch in chains.items():
            order = _span_order(ch)
            ok = ok and order >= 1.5
            details.append(f"{name} {key}: {ch[-1]:.1e} @1/64, order {order:.2f}")
    p_res = p_integral_residual(_ball(1.0, 1, 64)[0], params).residual
    ok = ok and p_res <= 1e-3
    details.append(f"ball P-integral {p_res:.1e}")
    _verdict(5, "integral identity residuals", ok, "; ".join(details))


def test_criterion_06_measure_constants():
    hand = (
        (WeinsteinParams(a=0.0, k=1), math.pi),
        (WeinsteinParams(a=1.0, k=1), 4.0 / 3.0),
        (WeinsteinParams(a=2.0, k=1), math.pi / 4.0),
    )
    hand_ok = all(abs(aniso_ball_volume(p) - v) <= 1e-12 for p, v in hand)

    rng = np.random.default_rng(1234)
    mc_worst = 0.0
    for a in (0.5, 1.0, 2.0):
        for k in (1, 2):
            p = WeinsteinParams(a=a, k=k)
            n = 10_000_000
            x = rng.uniform(-1.0, 1.0, size=(n, k + 1))
            inside = np.sum(x * x, axis=1) < 1.0
            est = float(np.mean(np.abs(x[:, 0]) ** a * inside)) * 2.0 ** (k + 1)
            mc_worst = max(mc_worst, abs(est - aniso_ball_volume(p))
                           / aniso_ball_volume(p))

    # independent surface oracles: sigma_{a,1} = 2 B((a+1)/2, 1/2) from the
    # cosine integral over the circle, sigma_{a,2} = 4 pi / (a+1) from the
    # polar-angle integral on the 2-sphere
    from scipy.special import beta

    surf_worst = 0.0
    for a in (0.5, 1.0, 2.0):
        s1 = 2.0 * beta((a + 1.0) / 2.0, 0.5)
        surf_worst = max(surf_worst, abs(
            aniso_sphere_measure(WeinsteinParams(a=a, k=1)) - s1) / s1)
        s2 = 4.0 * math.pi / (a + 1.0)
        surf_worst = max(surf_worst, abs(
            aniso_sphere_measure(WeinsteinParams(a=a, k=2)) - s2) / s2)

    ok = hand_ok and mc_worst <= 1e-3 and surf_worst <= 1e-3
    _verdict(6, "weighted measure constants", ok,
             f"hand values 1e-12: {hand_ok}, MC worst rel {mc_worst:.1e}, "
             f"surface oracle worst rel {surf_worst:.1e}")


def test_criterion_07_spherical_mean_laws():
    details = []
    ok = True
    for a, k in CASES:
        params = WeinsteinParams(a=a, k=k)
        center = (0.0,) * k
        m1 = spherical_mean(lambda q: np.ones(q.shape[:-1]), params, center, 0.6)
        harm = lambda q: (a + 1) * np.sum(q[..., 1:] ** 2, axis=-1) \
            - k * q[..., 0] ** 2
        mh = max(abs(spherical_mean(harm, params, center, t))
                 for t in (0.25, 0.5))
        ok = ok and abs(m1 - 1.0) <= 1e-3 and mh <= 1e-3
        details.append(f"(a={a},k={k}): |M(1)-1|={abs(m1-1):.1e}, "
                       f"|M(harmonic)|={mh:.1e}")

    # d/dt M: centered differences of the mean against the derivative route
    params = WeinsteinParams(a=1.0, k=2)
    f = lambda q: np.exp(-np.sum(q**2, axis=-1)) + q[..., 0] ** 2 * q[..., 1]
    t0, center = 0.45, (0.0, 0.0)
    dm = spherical_mean_derivative(f, params, center, t0, n_samples=40000)
    gaps = []
    for d in (0.2, 0.1, 0.05):
        fd = (spherical_mean(f, params, center, t0 + d, n_samples=40000)
              - spherical_mean(f, params, center, t0 - d, n_samples=40000)) / (2 * d)
        gaps.append(abs(fd - dm))
    fd_orders = _orders(gaps)
    ok = ok and all(o >= 1.8 for o in fd_orders)
    details.append(f"d/dt orders {['%.2f' % o for o in fd_orders]}")

    # solved torsion means on the ball follow (R^2 - t^2)/(2N), decreasing
    u = _ball(1.0, 1, 32)[0]
    params = WeinsteinParams(a=1.0, k=1)
    ts = np.linspace(0.1, 0.9, 9)
    means = [spherical_mean(u, params, (0.0,), t) for t in ts]
    profile_err = max(abs(m - (1.0 - t * t) / 6.0) for m, t in zip(means, ts))
    decreasing = all(m2 < m1 for m1, m2 in zip(means, means[1:]))
    ok = ok and profile_err <= 1e-3 and decreasing
    details.append(f"torsion means err {profile_err:.1e}, decreasing {decreasing}")
    _verdict(7, "spherical mean laws", ok, "; ".join(details))


def test_criterion_08_axis_regularity():
    ball_vals = []
    for hi in (32, 64):
        _, d = normal_derivative_at_axis(_ball(1.0, 1, hi)[0])
        ball_vals.append(float(np.max(np.abs(d))))
    box_vals = []
    for hi in (16, 32, 64):
        _, d = normal_derivative_at_axis(_box(hi)[0])
        box_vals.append(float(np.max(np.abs(d))))
    box_order = _span_order(box_vals)
    ok = (ball_vals[-1] <= 5e-3 and box_vals[-1] <= 5e-3
          and box_order >= 1.5)
    _verdict(8, "axis regularity of the r-derivative", ok,
             f"ball max|u_r(0,y)|={ball_vals[-1]:.1e} (exact class), "
             f"box {box_vals[-1]:.1e} @1/64 with order {box_order:.2f}")


def test_criterion_09_fundamental_solution():
    params = WeinsteinParams(a=1.0, k=1)
    flux_worst = 0.0
    for t in (0.5, 1.0, 2.0):
        pts, wt = sphere_lattice(1, 20000)
        pts = pts * t
        nrm = pts / t
        eps = 1e-6 * t
        Ef = lambda q: fundamental_solution(params, q, center=(0.0,))
        dE = (Ef(pts + eps * nrm) - Ef(pts - eps * nrm)) / (2 * eps)
        flux = float(np.sum(np.abs(pts[:, 0]) ** params.a * dE) * wt * t)
        flux_worst = max(flux_worst, abs(flux - 1.0))

    # interior rows annihilate E at second order once the truncation is
    # normalized by the local derivative scale rho^-5 (pole at (0, 1.5))
    dom = Ball(1.0)
    pole = np.array([0.0, 1.5])
    etas = []
    for hi in (16, 32, 64):
        h = 1.0 / hi
        grid = StaggeredGrid.from_domain(dom, h)
        geo = grid_geometry(dom, grid)
        pts = grid.node_points()
        sd = dom.signed_distance(pts.reshape(-1, 2)).reshape(grid.shape)
        deep = geo.inside & (sd <= -2.0 * h)
        E = ScalarField.from_function(
            dom, grid, lambda q: fundamental_solution(params, q, center=(1.5,)))
        LE = apply_operator(E, params, rows_mask=deep)
        rho5 = np.linalg.norm(pts - pole, axis=-1) ** 5
        etas.append(float(np.nanmax(np.abs(LE.values) * rho5)))
    eta_order = _span_order(etas)

    p02 = WeinsteinParams(a=0.0, k=2)
    probe = np.array([[0.3, 0.1, -0.2], [1.0, 0.5, 0.5], [0.05, 2.0, 0.0]])
    newt = fundamental_solution(p02, probe)
    exact = -1.0 / (4.0 * math.pi * np.linalg.norm(probe, axis=-1))
    newt_err = float(np.max(np.abs(newt - exact) / np.abs(exact)))

    ok = flux_worst <= 1e-3 and eta_order >= 1.9 and newt_err <= 1e-12
    _verdict(9, "fundamental solution laws", ok,
             f"unit flux err {flux_worst:.1e}, interior-row order "
             f"{eta_order:.2f} (eta {etas[-1]:.1e}), Newtonian rel {newt_err:.1e}")


def test_criterion_10_maximum_principle_positivity():
    fields = []
    for a, k in CASES:
        fields.append((f"ball(a={a},k={k})", _ball(a, k, 64)[0]))
    fields.append(("ellipsoid 1:2", _ellipsoid(64)[0]))
    fields.append(("ellipsoid shifted", _ellipsoid(32, shift=0.5)[0]))
    fields.append(("box", _box(32)[0]))
    mins = {name: float(np.min(u.active)) for name, u in fields}
    ok = all(v > 0.0 for v in mins.values())
    worst = min(mins, key=mins.get)
    _verdict(10, "interior positivity on all tested shapes", ok,
             f"{len(mins)} shapes, smallest interior value "
             f"{mins[worst]:.3e} ({worst})")
