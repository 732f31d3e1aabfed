"""Exact polynomial arithmetic: the foundation the curvature checks rest on."""

from fractions import Fraction

import numpy as np
import pytest

from weinstein.errors import ParityViolation
from weinstein.poly import PolyField
from weinstein.rigidity import _random_even_poly


def x(i, n):
    return PolyField.variable(i, n)


def test_constant_and_variable_eval():
    c = PolyField.constant(Fraction(3, 7), 2)
    assert c.eval_exact([Fraction(5), Fraction(-2)]) == Fraction(3, 7)
    r = x(0, 2)
    assert r.eval_exact([Fraction(9, 4), Fraction(1)]) == Fraction(9, 4)


def test_binomial_square_expands_exactly():
    r, y = x(0, 2), x(1, 2)
    p = (r + y) * (r + y)
    q = r * r + r * y * 2 + y * y
    assert p == q


def test_power_matches_repeated_multiplication():
    r = x(0, 1)
    p = (r + PolyField.constant(1, 1)) ** 5
    q = PolyField.constant(1, 1)
    for _ in range(5):
        q = q * (r + PolyField.constant(1, 1))
    assert p == q


def test_subtraction_cancels_to_zero():
    r, y = x(0, 2), x(1, 2)
    p = r * r - r * r + y - y
    assert p == PolyField.zero(2)


def test_diff_product_rule_spot_check():
    # d/dr (r^3 y^2) = 3 r^2 y^2
    r, y = x(0, 2), x(1, 2)
    p = r**3 * y**2
    assert p.diff(0) == r**2 * y**2 * 3
    assert p.diff(1) == r**3 * y * 2
    # second derivatives commute
    assert p.diff(0).diff(1) == p.diff(1).diff(0)


def test_float_coefficients_are_exact_binary():
    p = PolyField.constant(0.5, 1)
    assert p.eval_exact([Fraction(0)]) == Fraction(1, 2)
    q = PolyField.constant(0.1, 1)
    assert q.eval_exact([Fraction(0)]) == Fraction(0.1)  # binary value, not 1/10


def test_parity_classification():
    r, y = x(0, 2), x(1, 2)
    assert (r * r * y).parity_in(0) == "even"
    assert (r * r * y).parity_in(1) == "odd"
    assert (r + r * r).parity_in(0) == "mixed"
    assert PolyField.zero(2).parity_in(0) == "even"


def test_divide_by_var_exact_quotient():
    r, y = x(0, 2), x(1, 2)
    p = r**4 + r**2 * y**2
    dp = p.diff(0)  # 4 r^3 + 2 r y^2
    assert dp.divide_by_var(0) == r**2 * 4 + y**2 * 2


def test_divide_by_var_rejects_nondivisible():
    r = x(0, 1)
    with pytest.raises(ParityViolation):
        (r * r + PolyField.constant(1, 1)).divide_by_var(0)


def test_eval_float_matches_eval_exact():
    r, y = x(0, 2), x(1, 2)
    p = r**4 * y - r * r * y**3 * Fraction(5, 3) + PolyField.constant(2, 2)
    pts = np.array([[0.5, -1.25], [1.75, 0.3], [0.0, 2.0]])
    vals = p.eval_float(pts)
    for pt, v in zip(pts, vals):
        exact = p.eval_exact([Fraction(c) for c in pt])
        assert abs(v - float(exact)) < 1e-13


def test_call_is_eval():
    r = x(0, 1)
    p = r * r + PolyField.constant(1, 1)
    assert p((2.0,)) == pytest.approx(5.0)


def _eval_float_per_monomial(p, points):
    """eval_float as it was: each monomial builds its own powers."""
    pts = np.asarray(points, dtype=float)
    out = np.zeros(pts.shape[:-1], dtype=float)
    for mono, c in p.coeffs.items():
        term = np.full(pts.shape[:-1], float(c))
        for axis, e in enumerate(mono):
            if e:
                term = term * pts[..., axis] ** e
        out += term
    return out


@pytest.mark.parametrize("k", [1, 2, 3])
def test_eval_float_power_table_is_bitwise_the_per_monomial_loop(k):
    rng = np.random.default_rng(k)
    pts = rng.uniform(-2.0, 2.0, size=(64, k + 1))
    rho2 = sum((x(i, k + 1) * x(i, k + 1) for i in range(1, k + 1)), x(0, k + 1) ** 2)
    polys = [rho2 * rho2 + rho2, PolyField.constant(Fraction(-3, 7), k + 1)]
    polys += [_random_even_poly(rng, k + 1, max_degree=6) for _ in range(20)]
    for p in polys:
        for q in (pts, pts[0]):
            got, want = p.eval_float(q), _eval_float_per_monomial(p, q)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), p
