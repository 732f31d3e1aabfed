"""Integral identities, the overdetermined defect, and the orchestrated
check battery.  Reference values for the unit ball at a = 1, k = 1:

    N = 3, u = (1 - rho^2)/6, c = 1/3
    energy = mass = 2/45        (integrals over the r > 0 half)
    flux:  N * volume = 2       boundary moment = 2
    pohozaev: both sides -1/9
    P-integral: both sides 2/27
"""

import contextlib
import gc
import importlib
import io
import json
import math
import tempfile
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weinstein import (
    CHECK_NAMES,
    Ball,
    Box,
    ConfigError,
    Ellipsoid,
    NoConvergence,
    ScalarField,
    StaggeredGrid,
    WeinsteinParams,
    assemble_torsion_system,
    boundary_gradient_stats,
    dirichlet_energy_residual,
    flux_identity_residual,
    grid_geometry,
    maximum_principle_check,
    p_integral_residual,
    pohozaev_residual,
    run_experiment,
    serrin_defect,
    solve,
)
from weinstein import operator as operator_module
from weinstein import rigidity as rigidity_module
from weinstein.cli import main


PARAMS = WeinsteinParams(a=1.0, k=1)


def _torsion(domain, h, params=PARAMS):
    grid = StaggeredGrid.from_domain(domain, h)
    u, _ = solve(assemble_torsion_system(domain, grid, params), tol=1e-12)
    return u, grid


# -- identities on the ball ------------------------------------------------------


def test_ball_energy_identity_hits_reference_value():
    u, _ = _torsion(Ball(1.0), 1.0 / 32)
    pair = dirichlet_energy_residual(u, PARAMS)
    assert pair.lhs == pytest.approx(2.0 / 45.0, rel=2e-3)
    assert pair.rhs == pytest.approx(2.0 / 45.0, rel=2e-3)
    assert pair.residual <= 2e-3


def test_ball_flux_identity_hits_reference_value():
    dom = Ball(1.0)
    grid = StaggeredGrid.from_domain(dom, 1.0 / 32)
    pair = flux_identity_residual(dom, PARAMS, grid)
    assert pair.lhs == pytest.approx(2.0, rel=2e-3)
    assert pair.rhs == pytest.approx(2.0, rel=2e-3)
    assert pair.residual <= 2e-3


def test_ball_pohozaev_identity_hits_reference_value():
    u, _ = _torsion(Ball(1.0), 1.0 / 32)
    pair = pohozaev_residual(u, PARAMS)
    assert pair.lhs == pytest.approx(-1.0 / 9.0, rel=5e-3)
    assert pair.rhs == pytest.approx(-1.0 / 9.0, rel=5e-3)
    assert pair.residual <= 5e-3


def test_ball_p_integral_identity_hits_reference_value():
    u, _ = _torsion(Ball(1.0), 1.0 / 32)
    pair = p_integral_residual(u, PARAMS)
    assert pair.lhs == pytest.approx(2.0 / 27.0, rel=2e-3)
    assert pair.rhs == pytest.approx(2.0 / 27.0, rel=2e-3)
    assert pair.residual <= 1e-3


def test_identities_also_hold_off_center_and_off_ball():
    # shifted ellipsoid: not rigid, but the divergence identities still hold
    dom = Ellipsoid(semi_axes=(1.0, 2.0), center=(0.5,))
    u, grid = _torsion(dom, 1.0 / 32)
    assert dirichlet_energy_residual(u, PARAMS).residual <= 5e-3
    assert flux_identity_residual(dom, PARAMS, grid).residual <= 5e-3
    assert pohozaev_residual(u, PARAMS).residual <= 5e-3


# -- overdetermined defect --------------------------------------------------------


def test_serrin_defect_separates_ball_from_ellipsoid():
    u_ball, _ = _torsion(Ball(1.0), 1.0 / 32)
    assert serrin_defect(u_ball, PARAMS) <= 1e-8

    u_ell, _ = _torsion(Ellipsoid(semi_axes=(1.0, 2.0)), 1.0 / 32)
    d = serrin_defect(u_ell, PARAMS)
    assert d == pytest.approx(0.14582694, abs=1e-3)

    # the defect of the aspect-2 shape is an honest shape property: the
    # solve is exact there, so refining the grid barely moves it
    u_fine, _ = _torsion(Ellipsoid(semi_axes=(1.0, 2.0)), 1.0 / 48)
    assert abs(serrin_defect(u_fine, PARAMS) - d) <= 1e-4


def test_p_integral_gap_is_positive_on_ellipsoid():
    u, _ = _torsion(Ellipsoid(semi_axes=(1.0, 2.0)), 1.0 / 32)
    pair = p_integral_residual(u, PARAMS)
    assert pair.rhs > pair.lhs  # c^2 |Omega| exceeds the P-integral off the ball
    assert pair.residual >= 0.01


def test_boundary_gradient_stats_on_ball():
    u, _ = _torsion(Ball(1.0), 1.0 / 32)
    stats = boundary_gradient_stats(u, PARAMS)
    assert stats.mean == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert stats.cv <= 1e-9
    assert stats.n > 1000


# -- interior structure ------------------------------------------------------------


def test_mean_ladder_tracks_explicit_profile():
    u, _ = _torsion(Ball(1.0), 1.0 / 32)
    ladder = maximum_principle_check(u, PARAMS)
    assert ladder.positive
    assert ladder.classification == "strictly_decreasing"
    for t, m in zip(ladder.radii, ladder.means):
        assert m == pytest.approx((1.0 - t * t) / 6.0, abs=1e-3)
    assert ladder.max_increase <= 0.0


def test_mean_ladder_on_box_is_still_decreasing():
    u, _ = _torsion(Box(half_widths=(0.6, 0.8)), 1.0 / 32)
    ladder = maximum_principle_check(u, PARAMS)
    assert ladder.positive
    assert ladder.classification in ("strictly_decreasing", "nonincreasing")


def _sampled(fn, h=1.0 / 32):
    ball = Ball(1.0)
    return ScalarField.from_function(ball, StaggeredGrid.from_domain(ball, h), fn)


def test_mean_ladder_of_a_constant_is_constant():
    ladder = maximum_principle_check(_sampled(lambda p: np.full(p.shape[:-1], 2.0)), PARAMS)
    assert ladder.classification == "constant"
    assert ladder.means == pytest.approx([2.0] * len(ladder.radii))


def test_mean_ladder_of_a_subharmonic_field_is_violated():
    # L_a rho^2 = 2 (a + 1 + k) > 0, and the means of rho^2 are t^2
    ladder = maximum_principle_check(_sampled(lambda p: np.sum(p**2, axis=-1)), PARAMS)
    assert ladder.classification == "violated"
    assert ladder.max_increase > 0.0
    assert ladder.means == pytest.approx([t * t for t in ladder.radii], abs=1e-3)


# -- orchestration ------------------------------------------------------------------


def test_ball_battery_passes_everything():
    report = run_experiment(Ball(1.0), PARAMS, h=1.0 / 32)
    assert report.passed
    assert report.solver.converged
    names = [c.name for c in report.checks]
    assert names == list(CHECK_NAMES)
    for c in report.checks:
        assert c.status == "pass", (c.name, c.value, c.tolerance, c.detail)
    # center value read off by multilinear interpolation: O(h^2) bias
    assert report.extras["center_value"] == pytest.approx(1.0 / 6.0, abs=1e-3)
    assert report.extras["boundary_gradient_cv"] <= 1e-9
    assert report.extras["sigma0_flux"] == 0.0  # a > 0: no axis contribution


def test_full_battery_builds_the_matrix_once(monkeypatch):
    # the p_constancy calibration solves on the torsion system's matrix
    builds = []
    build = operator_module._build

    def counted(*args):
        builds.append(args)
        return build(*args)

    monkeypatch.setattr(operator_module, "_build", counted)
    report = run_experiment(Ellipsoid(semi_axes=(1.0, 2.0)), PARAMS, h=1.0 / 16)
    assert [c.name for c in report.checks] == list(CHECK_NAMES)
    assert "mms_gradient_error" in report.extras
    assert len(builds) == 1


def test_full_battery_probes_the_boundary_once(monkeypatch):
    # the boundary checks share one set of samples and one |du/dn| probe
    calls = {"boundary_samples": 0, "_normal_gradient": 0}

    def counted(module, name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for module in (rigidity_module, operator_module):
        counted(module, "boundary_samples")
    counted(rigidity_module, "_normal_gradient")
    report = run_experiment(Ellipsoid(semi_axes=(1.0, 2.0)), PARAMS, h=1.0 / 16)
    assert [c.name for c in report.checks] == list(CHECK_NAMES)
    status = {c.name: c.status for c in report.checks}
    for name in ("serrin_constancy", "dirichlet_energy", "flux_identity",
                 "pohozaev", "p_integral", "p_constancy"):
        assert status[name] != "skip", name
    assert calls == {"boundary_samples": 1, "_normal_gradient": 1}


def test_full_battery_integrates_the_weighted_volume_once(monkeypatch):
    # flux_identity and p_integral share one quadrature of the constant 1
    constants = []
    inner = rigidity_module.weighted_volume_integral

    def counted(field, *args, **kwargs):
        if not isinstance(field, ScalarField):
            constants.append(field)
        return inner(field, *args, **kwargs)

    monkeypatch.setattr(rigidity_module, "weighted_volume_integral", counted)
    report = run_experiment(Ellipsoid(semi_axes=(1.0, 2.0)), PARAMS, h=1.0 / 16)
    status = {c.name: c.status for c in report.checks}
    assert status["flux_identity"] != "skip" and status["p_integral"] != "skip"
    assert constants == [1.0]


def test_the_axis_probe_is_read_once_at_a_zero(monkeypatch):
    # at a = 0, axis_regularity and the axis flux share one u_r on the axis
    probes = []
    inner = rigidity_module.normal_derivative_at_axis

    def counted(field):
        probes.append(field)
        return inner(field)

    monkeypatch.setattr(rigidity_module, "normal_derivative_at_axis", counted)
    report = run_experiment(Ellipsoid(semi_axes=(1.0, 2.0)), WeinsteinParams(a=0.0, k=1),
                            h=1.0 / 16, checks=["axis_regularity"])
    assert [c.status for c in report.checks] == ["pass"]
    _, dvals = inner(report.u)
    assert report.extras["sigma0_flux"] == -float(np.sum(dvals)) * report.u.grid.h_y
    assert len(probes) == 1 and probes[0] is report.u


def test_full_battery_differentiates_the_solution_once(monkeypatch):
    # one gradient of u serves the boundary probe and Gamma = |grad u|^2,
    # which is built once and read by the energy, Pohozaev and both P checks
    fields = []
    inner = rigidity_module.gradient_fields

    def counted(field):
        fields.append(field)
        return inner(field)

    # `weinstein.gamma` as an attribute is the function, not the module
    gamma_module = importlib.import_module("weinstein.gamma")
    for module in (rigidity_module, gamma_module, operator_module):
        monkeypatch.setattr(module, "gradient_fields", counted)
    report = run_experiment(Ball(1.0), PARAMS, h=1.0 / 16)
    status = {c.name: c.status for c in report.checks}
    assert [c.name for c in report.checks] == list(CHECK_NAMES)
    for name in ("dirichlet_energy", "pohozaev", "p_integral", "p_constancy"):
        assert status[name] == "pass", name
    assert sum(f is report.u for f in fields) == 1


def test_ellipsoid_battery_fails_exactly_the_overdetermined_checks():
    report = run_experiment(Ellipsoid(semi_axes=(1.0, 2.0)), PARAMS, h=1.0 / 32)
    assert not report.passed
    status = {c.name: c.status for c in report.checks}
    assert status["serrin_constancy"] == "fail"
    assert status["p_integral"] == "fail"
    assert status["p_constancy"] == "fail"
    assert status["explicit_solution"] == "skip"  # no closed form off the ball
    for name in ("dirichlet_energy", "flux_identity", "pohozaev",
                 "positivity", "mean_monotonicity", "axis_regularity",
                 "cd_positivity"):
        assert status[name] == "pass", name


def test_box_battery_skips_surface_probes_and_passes_the_rest():
    report = run_experiment(Box(half_widths=(0.5, 0.5)), PARAMS, h=1.0 / 32)
    status = {c.name: c.status for c in report.checks}
    # corner boundary: no surface sampling at all, so every check that
    # touches the boundary normal reports skip rather than a fake number
    for name in ("serrin_constancy", "pohozaev", "p_integral", "flux_identity"):
        assert status[name] == "skip", name
    for name in ("dirichlet_energy", "positivity", "mean_monotonicity",
                 "axis_regularity", "cd_positivity"):
        assert status[name] == "pass", name
    assert report.passed  # skips do not fail the battery


def test_run_experiment_check_subset_and_unknown_name():
    report = run_experiment(Ball(1.0), PARAMS, h=1.0 / 16,
                            checks=["positivity", "axis_regularity"])
    assert [c.name for c in report.checks] == ["positivity", "axis_regularity"]
    assert report.passed
    # positivity reports the smallest value of the field on the inside nodes
    ladder = maximum_principle_check(report.u, PARAMS)
    assert report.checks[0].value == ladder.min_interior == np.min(report.u.active)
    with pytest.raises(ConfigError):
        run_experiment(Ball(1.0), PARAMS, h=1.0 / 16, checks=["no_such_check"])


def test_failed_calibration_solve_skips_p_constancy(monkeypatch):
    solves = []

    def no_convergence_after_the_torsion_solve(system, **kwargs):
        solves.append(system)
        if len(solves) > 1:  # the calibration solve
            raise NoConvergence("calibration solve stopped")
        return solve(system, **kwargs)

    monkeypatch.setattr(rigidity_module, "solve", no_convergence_after_the_torsion_solve)
    report = run_experiment(Ball(1.0), PARAMS, h=1.0 / 16,
                            checks=["p_constancy", "serrin_constancy"])
    status = {c.name: (c.status, c.detail) for c in report.checks}
    assert status["p_constancy"] == ("skip", "skipped: tolerance calibration solve failed")
    assert status["serrin_constancy"][0] == "pass"
    assert not any(key.startswith("mms_") for key in report.extras)
    assert report.passed
    assert len(solves) == 2


def test_the_matrix_is_freed_before_the_calibration_error_pass(monkeypatch):
    """A and the fold kept on it are dropped once the calibration solve
    returns: its gradient pass runs without them."""
    matrix, at_gradient = [], []
    quartic, gradient_fields = (rigidity_module._manufactured_quartic,
                                rigidity_module.gradient_fields)

    def recorded_quartic(system):
        matrix.append(weakref.ref(system.A))
        return quartic(system)

    def checked_gradient_fields(field):
        if not at_gradient:  # the first is the calibration field's
            at_gradient.append(matrix[0]())
        return gradient_fields(field)

    monkeypatch.setattr(rigidity_module, "_manufactured_quartic", recorded_quartic)
    monkeypatch.setattr(rigidity_module, "gradient_fields", checked_gradient_fields)
    gc.disable()  # freed by reference counting: no cycle holds A
    try:
        report = run_experiment(Ball(1.0, center=(0.0, 0.0)), WeinsteinParams(a=1.0, k=2),
                                h=1.0 / 12, checks=["p_constancy"])
    finally:
        gc.enable()
    assert "mms_gradient_error" in report.extras
    assert at_gradient == [None]


def test_report_serialization_round_trip():
    report = run_experiment(Ball(1.0), PARAMS, h=1.0 / 16,
                            checks=["positivity", "serrin_constancy"])
    blob = report.to_json(config={"seed": 0})
    data = json.loads(blob)
    assert data["passed"] is True
    assert data["config"] == {"seed": 0}
    assert data["solver"]["converged"] is True
    assert {c["name"] for c in data["checks"]} == {"positivity", "serrin_constancy"}
    for c in data["checks"]:
        assert c["status"] in ("pass", "fail", "skip")
        assert c["value"] is None or isinstance(c["value"], float)

    csv_text = report.residuals_csv_text()
    lines = csv_text.strip().split("\n")
    assert lines[0] == "check,value,tolerance,pass"
    assert len(lines) == 1 + len(report.checks)
    row = lines[1].split(",")
    assert row[0] == "positivity"
    assert row[3] == "pass"
    assert math.isfinite(float(row[1]))


def test_report_writes_non_finite_extras_as_null():
    report = run_experiment(Ball(1.0), PARAMS, h=1.0 / 16, checks=["positivity"])
    report.extras = {"sigma0_flux": math.nan, "mean_ladder_means": [0.25, math.inf],
                     "mean_ladder_class": "constant"}

    def reject(name):
        raise ValueError(f"{name} is not valid JSON")

    data = json.loads(report.to_json(), parse_constant=reject)
    assert data["extras"] == {"mean_ladder_class": "constant",
                              "mean_ladder_means": [0.25, None], "sigma0_flux": None}


def test_k2_ball_battery_passes():
    params = WeinsteinParams(a=1.0, k=2)
    report = run_experiment(Ball(1.0, center=(0.0, 0.0)), params, h=1.0 / 16)
    assert report.passed
    status = {c.name: c.status for c in report.checks}
    assert status["explicit_solution"] == "pass"
    assert status["serrin_constancy"] == "pass"


def test_run_experiment_rejects_dimension_mismatch():
    with pytest.raises(ConfigError, match="axial coordinates"):
        run_experiment(Ball(1.0), WeinsteinParams(a=1.0, k=2), h=1.0 / 16)


@st.composite
def _balls(draw):
    """(ball, h) with at least 4 cells per radius; k = 2 grids grow as
    cells^3, so they stay coarser."""
    k = draw(st.sampled_from([1, 2]))
    radius = draw(st.floats(0.5, 2.0))
    center = tuple(draw(st.floats(-0.5, 0.5)) for _ in range(k))
    cells = draw(st.floats(4.0, 32.0 if k == 1 else 12.0))
    return Ball(radius, center=center), radius / cells


@settings(derandomize=True, max_examples=100, deadline=None)
@given(a=st.floats(0.0, 30.0), ball_h=_balls())
@example(a=20.0, ball_h=(Ball(1.0, center=(0.0,)), 1 / 32))  # overflowed under a diagonal scale
def test_ball_runs_reproduce_the_profile_or_name_the_solver_failure(a, ball_h):
    # the scheme is exact on quadratics, so a converged solve is the profile
    # to the solver floor; a failed one exits 3 and says why
    ball, h = ball_h
    params = WeinsteinParams(a=a, k=ball.k)
    report = run_experiment(ball, params, h, checks=[])
    if report.solver.converged:
        u, inside = report.u, report.u.geometry.inside
        u_exact, _ = ball.exact_torsion(params)
        assert np.max(np.abs(u.values[inside] - u_exact(u.grid.node_points()[inside]))) <= 1e-6
        return
    assert report.failure
    cfg = {"params": {"a": a, "k": ball.k},
           "domain": {"type": "ball", "radius": ball.radius, "center": list(ball.center)},
           "grid": {"h": h}}
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(io.StringIO()) as err:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(dict(cfg, output_dir=str(Path(tmp) / "out"))))
        assert main(["solve", "--config", str(path)]) == 3
    assert f"solver failure: {report.failure}\n" in err.getvalue()


def test_the_calibration_and_the_exact_profile_build_no_lattice_meshgrid(monkeypatch):
    # the geometry evaluates the distance at every lattice node; after it,
    # both read the coordinates of the inside nodes alone
    domain, params, h = Ball(1.0, center=(0.0,)), WeinsteinParams(a=1.0, k=1), 1 / 16
    checks = ["explicit_solution", "p_constancy"]
    want = run_experiment(domain, params, h, checks=checks)
    grid_geometry(domain, StaggeredGrid.from_domain(domain, h))

    def refuse(self):
        raise AssertionError("node_points called")

    monkeypatch.setattr(StaggeredGrid, "node_points", refuse)
    got = run_experiment(domain, params, h, checks=checks)
    assert [c.value for c in got.checks] == [c.value for c in want.checks]
    assert got.extras["mms_gradient_error"] == want.extras["mms_gradient_error"]
