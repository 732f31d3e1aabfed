"""Carre-du-champ layer: exact rational defects, the dimensional
inequality, equality-family detection, and the grid P-function."""

from fractions import Fraction

import numpy as np
import pytest

from weinstein import (
    Ball,
    BesselWeights,
    ParityViolation,
    PolyField,
    StaggeredGrid,
    WeinsteinParams,
    assemble_torsion_system,
    bessel_sum_apply,
    cd_defect,
    cd_defect_values,
    gamma,
    gamma2,
    p_function,
    solve,
)

F = Fraction


def _torsion(domain, params, h):
    grid = StaggeredGrid.from_domain(domain, h)
    return solve(assemble_torsion_system(domain, grid, params), tol=1e-12)[0]


# -- hand-computed oracles ---------------------------------------------------


def test_hand_oracle_r2y_single_weight():
    # u = r^2 y, weight a = 1 on the first variable:
    #   Gamma  = 4 r^2 y^2 + r^4
    #   Gamma2 = u_rr^2 + 2 u_ry^2 + a (u_r / r)^2 = 4y^2 + 8r^2 + 4y^2
    #   Bu     = 2y + (a/r) 2ry = 4y,  N = (1 + a) + 1 = 3
    r, y = PolyField.variable(0, 2), PolyField.variable(1, 2)
    u = r * r * y
    w = BesselWeights((F(1), F(0)))
    pt = (F(1), F(1))
    assert gamma(u).eval_exact(pt) == F(5)
    assert gamma2(u, w).eval_exact(pt) == F(16)
    assert bessel_sum_apply(u, w).eval_exact(pt) == F(4)
    (d,) = cd_defect_values(u, w, [pt])
    assert d == F(16) - F(16, 3)
    assert d == F(32, 3)


def test_hand_oracle_two_positive_weights():
    # u = x1^2 x2^2 with weights (1, 2) at the point (1, 1):
    #   Gamma2 = 4 + 4 + 32 + 1*4 + 2*4 = 52
    #   Bu     = (2 x2^2)(1 + a1) + (2 x1^2)(1 + a2) = 10,  N = 5
    x1, x2 = PolyField.variable(0, 2), PolyField.variable(1, 2)
    u = x1 * x1 * x2 * x2
    w = BesselWeights((F(1), F(2)))
    pt = (F(1), F(1))
    assert gamma2(u, w).eval_exact(pt) == F(52)
    assert bessel_sum_apply(u, w).eval_exact(pt) == F(10)
    (d,) = cd_defect_values(u, w, [pt])
    assert d == F(52) - F(100, 5)
    assert d == F(32)


def test_defect_is_exactly_zero_on_the_equality_family():
    # alpha (r^2 + (y - y0)^2) + gamma saturates the inequality; with a
    # positive weight on r the linear term in r must vanish, the shift in y
    # stays free
    r, y = PolyField.variable(0, 2), PolyField.variable(1, 2)
    alpha, y0, g = F(-1, 6), F(2, 3), F(5, 7)
    u = (r * r + (y - y0) * (y - y0)) * alpha + g
    w = BesselWeights((F(3, 2), F(0)))
    defect = cd_defect(u, w)
    assert defect == PolyField.zero(2)
    pts = [(F(1), F(1)), (F(1, 3), F(-2, 5)), (F(7, 4), F(0))]
    assert cd_defect_values(u, w, pts) == [F(0), F(0), F(0)]


def test_defect_nonnegative_on_random_even_polynomials():
    rng = np.random.default_rng(42)
    for k in (1, 2):
        nv = k + 1
        w = BesselWeights((F(1), *([F(0)] * k)))
        for _ in range(40):
            u = PolyField.zero(nv)
            for _ in range(rng.integers(2, 5)):
                exps = [2 * int(rng.integers(0, 3))]  # even in the weighted var
                exps += [int(rng.integers(0, 4)) for _ in range(k)]
                coeff = F(int(rng.integers(-6, 7)), int(rng.integers(1, 5)))
                term = PolyField.constant(coeff, nv)
                for v, e in enumerate(exps):
                    term = term * PolyField.variable(v, nv) ** e
                u = u + term
            pts = []
            for _ in range(4):
                pt = [F(int(rng.integers(2, 40)), 20)]
                pt += [F(int(rng.integers(-30, 31)), 17) for _ in range(k)]
                pts.append(tuple(pt))
            for d in cd_defect_values(u, w, pts):
                assert d >= 0


def test_underlying_weighted_cauchy_schwarz():
    # sum A_i^2 / w_i >= (sum A_i)^2 / sum w_i is what turns the Hessian and
    # Bessel terms into the dimensional bound; check it numerically in bulk
    rng = np.random.default_rng(3)
    A = rng.standard_normal((10000, 5))
    w = rng.uniform(0.1, 4.0, size=(10000, 5))
    lhs = np.sum(A**2 / w, axis=1)
    rhs = np.sum(A, axis=1) ** 2 / np.sum(w, axis=1)
    assert np.all(lhs - rhs >= -1e-12 * np.maximum(lhs, 1.0))


# -- grid mode ----------------------------------------------------------------


def test_p_function_is_constant_on_ball_solution():
    params = WeinsteinParams(a=1.0, k=1)
    u = _torsion(Ball(1.0), params, 1.0 / 16)
    P = p_function(u, params)
    c2 = (1.0 / params.dim_eff) ** 2
    vals = P.values[np.isfinite(P.values)]
    assert vals.size > 100
    assert np.max(np.abs(vals - c2)) <= 1e-9


# -- validation -----------------------------------------------------------------


def test_parity_violation_for_odd_weighted_variable():
    r, y = PolyField.variable(0, 2), PolyField.variable(1, 2)
    u = r * r * r + y
    w = BesselWeights((F(1), F(0)))
    with pytest.raises(ParityViolation):
        cd_defect(u, w)
    # with zero weight on r the parity restriction disappears
    assert cd_defect(u, BesselWeights((F(0), F(0)))) is not None


def test_bessel_weights_validation_and_construction():
    with pytest.raises(ValueError):
        BesselWeights((F(-1), F(0)))
    params = WeinsteinParams(a=2.0, k=2)
    w = BesselWeights.weinstein(params)
    assert w.n == 3
    assert w.weights[0] == F(2)
    assert w.weights[1] == w.weights[2] == F(0)
    assert w.effective_dimension == F(5)
    with pytest.raises(ValueError):
        gamma2(PolyField.variable(0, 2), BesselWeights((F(1),)))
