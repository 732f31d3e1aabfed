"""Exact polynomial arithmetic: the foundation the curvature checks rest on."""

from fractions import Fraction

import numpy as np
import pytest

from weinstein.errors import ParityViolation
from weinstein.poly import PolyField


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
