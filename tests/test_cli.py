"""End-to-end command-line tests: exit codes, file outputs, determinism,
config validation, and sweeps."""

import json
import math
import subprocess
import sys

import pytest

from weinstein.cli import RunConfig, main
from weinstein.geometry import Ball, Box, Ellipsoid
from weinstein.rigidity import CHECK_NAMES

BALL = {
    "params": {"a": 1.0, "k": 1},
    "domain": {"type": "ball", "radius": 1.0, "center": [0.0]},
    "grid": {"h": 0.0625},
    "solver": {"tol": 1e-10, "max_iter": 20000},
    "checks": ["explicit_solution", "serrin_constancy", "positivity"],
    "seed": 0,
}

ELLIPSOID = {
    "params": {"a": 1.0, "k": 1},
    "domain": {"type": "ellipsoid", "semi_axes": [1.0, 2.0], "center": [0.0]},
    "grid": {"h": 0.0625},
    "checks": ["serrin_constancy"],
}


def _write(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def _run(args):
    return main(args)


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


# -- exit codes -------------------------------------------------------------------


def test_ball_verify_exits_zero_and_writes_artifacts(tmp_path):
    cfg = dict(BALL, output_dir=str(tmp_path / "out"))
    code = _run(["verify", "--config", _write(tmp_path, cfg)])
    assert code == 0
    out = tmp_path / "out"
    for name in ("u.csv", "report.json", "residuals.csv"):
        assert (out / name).is_file(), name
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is True
    assert report["solver"]["converged"] is True
    assert {c["name"] for c in report["checks"]} == set(cfg["checks"])
    header = (out / "u.csv").read_text().splitlines()[0]
    assert header == "r,y1,u"


def test_ellipsoid_verify_exits_one_because_rigidity_holds(tmp_path):
    # a correct failure: constant boundary gradient singles out the ball,
    # so demanding it on an aspect-2 ellipsoid must fail the run
    cfg = dict(ELLIPSOID, output_dir=str(tmp_path / "out"))
    code = _run(["verify", "--config", _write(tmp_path, cfg)])
    assert code == 1
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["passed"] is False
    (check,) = [c for c in report["checks"] if c["name"] == "serrin_constancy"]
    assert check["status"] == "fail"
    assert check["value"] > 0.05
    lines = (tmp_path / "out" / "residuals.csv").read_text().splitlines()
    assert lines[0] == "check,value,tolerance,pass"
    assert lines[1].startswith("serrin_constancy,") and lines[1].endswith(",fail")


def test_malformed_json_exits_two_and_writes_nothing(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"params": {')
    code = _run(["verify", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    assert not (tmp_path / "o").exists()


def test_missing_config_file_exits_two(tmp_path):
    assert _run(["verify", "--config", str(tmp_path / "nope.json")]) == 2


@pytest.mark.parametrize(
    "mutate",
    [
        lambda c: c.pop("params"),
        lambda c: c.update(unknown_top_key=1),
        lambda c: c["domain"].update(type="torus"),
        lambda c: c["domain"].update(radius=0.0),
        lambda c: c["domain"].update(radius="one"),
        lambda c: c["params"].update(k=0),
        lambda c: c["params"].update(a=-1.0),
        lambda c: c.update(checks=["serrin_constancy", "not_a_check"]),
        lambda c: c["grid"].pop("h"),
        lambda c: c["solver"].update(tol=0.0),
    ],
)
def test_schema_violations_exit_two(tmp_path, mutate):
    cfg = json.loads(json.dumps(dict(BALL, output_dir=str(tmp_path / "o"))))
    mutate(cfg)
    assert _run(["verify", "--config", _write(tmp_path, cfg)]) == 2
    assert not (tmp_path / "o").exists()


def test_ellipsoid_semi_axes_length_must_match_k(tmp_path):
    cfg = json.loads(json.dumps(ELLIPSOID))
    cfg["domain"]["semi_axes"] = [1.0, 2.0, 3.0]
    assert _run(["verify", "--config", _write(tmp_path, cfg)]) == 2


def test_solver_budget_exhaustion_exits_three_but_keeps_artifacts(tmp_path):
    # at h = 1/16 the folded system is under COARSEST rows, and the V-cycle's
    # dense solve converges in one iteration
    cfg = dict(BALL, grid={"h": 1 / 32}, solver={"tol": 1e-14, "max_iter": 1},
               output_dir=str(tmp_path / "out"))
    code = _run(["verify", "--config", _write(tmp_path, cfg)])
    assert code == 3
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["solver"]["converged"] is False
    assert report["passed"] is False
    assert (tmp_path / "out" / "u.csv").is_file()  # best iterate, inspectable


def test_a_finite_failed_solve_skips_every_check(tmp_path):
    # one iteration leaves a finite field far from the solution: the battery
    # is gated on the solve, not on the field's values
    cfg = {
        "params": {"a": 1.0, "k": 2},
        "domain": {"type": "ball", "radius": 1.0, "center": [0.0, 0.0]},
        "grid": {"h": 1 / 32},
        "solver": {"max_iter": 1},
        "output_dir": str(tmp_path / "out"),
    }
    assert _run(["verify", "--config", _write(tmp_path, cfg)]) == 3
    report = json.loads((tmp_path / "out" / "report.json").read_text(),
                        parse_constant=_reject_constant)
    assert report["solver"]["converged"] is False
    assert math.isfinite(report["solver"]["final_relative_residual"])
    assert [c["name"] for c in report["checks"]] == list(CHECK_NAMES)
    for c in report["checks"]:
        assert (c["status"], c["detail"]) == ("skip", "skipped: solver did not converge")
    assert report["extras"] == {}


@pytest.mark.parametrize("command", ["verify", "sweep"])
def test_overflowed_field_skips_every_check_and_exits_three(tmp_path, capsys, command):
    # the flux coefficients beside the axis, about (a + 1) / h^2, overflow
    # at this a, so A and b are not finite; no check may run on the field
    cfg = {
        "params": {"a": 1e307, "k": 2},
        "domain": {"type": "ball", "radius": 1.0, "center": [0.0, 0.0]},
        "grid": {"h": 1 / 16},
        "output_dir": str(tmp_path / "out"),
    }
    run_dir = tmp_path / "out"
    if command == "sweep":
        cfg["sweep"] = {"path": "params.a", "values": [1e307]}
        run_dir = run_dir / "run_000"
    assert _run([command, "--config", _write(tmp_path, cfg)]) == 3
    report = json.loads((run_dir / "report.json").read_text(),
                        parse_constant=_reject_constant)
    assert report["solver"]["converged"] is False
    assert report["solver"]["final_relative_residual"] is None
    assert report["solver"]["iterations"] < 20000  # stopped at the overflow
    assert report["passed"] is False
    assert [c["name"] for c in report["checks"]] == list(CHECK_NAMES)
    for c in report["checks"]:
        assert (c["status"], c["detail"]) == ("skip", "skipped: solver did not converge")
    assert report["extras"] == {}
    # the cause is named on stderr
    iterations = report["solver"]["iterations"]
    assert (f"solver failure: bicgstab stopped at relative residual nan after "
            f"{iterations} iterations (target 1.0e-10): the assembled matrix holds "
            f"non-finite entries\n") in capsys.readouterr().err


# the flux coefficients overflow at this a, leaving non-finite entries in A;
# the V-cycle's dense coarse solve must not turn them into an SVD error, and
# the failure names the matrix (no RuntimeWarning: pytest would make it an error)
def test_non_finite_matrix_exits_three_without_a_linear_algebra_error(tmp_path, capsys):
    cfg = {
        "params": {"a": 1e307, "k": 1},
        "domain": {"type": "ball", "radius": 1.0, "center": [0.0]},
        "grid": {"h": 1 / 32},
        "output_dir": str(tmp_path / "out"),
    }
    assert _run(["verify", "--config", _write(tmp_path, cfg)]) == 3
    report = json.loads((tmp_path / "out" / "report.json").read_text(),
                        parse_constant=_reject_constant)
    assert report["solver"]["converged"] is False
    err = capsys.readouterr().err
    assert "solver failure: " in err
    assert "the assembled matrix holds non-finite entries" in err


def test_ball_beyond_the_sphere_lattices_skips_the_boundary_checks(tmp_path):
    # boundary samples exist for k <= 3 only; a k = 4 ball is still smooth
    cfg = {
        "params": {"a": 1.0, "k": 4},
        "domain": {"type": "ball", "radius": 1.0, "center": [0.0] * 4},
        "grid": {"h": 0.25},
        "checks": ["serrin_constancy", "flux_identity", "positivity"],
        "output_dir": str(tmp_path / "out"),
    }
    assert _run(["verify", "--config", _write(tmp_path, cfg)]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    status = {c["name"]: (c["status"], c["detail"]) for c in report["checks"]}
    skip = ("skip", "skipped: boundary sampling unsupported for this shape")
    assert status["serrin_constancy"] == status["flux_identity"] == skip
    assert status["positivity"][0] == "pass"


def test_ball_beyond_the_sphere_lattices_runs_the_default_battery(tmp_path):
    # with no sphere lattice for k = 4 the mean ladder skips as well
    cfg = {
        "params": {"a": 1.0, "k": 4},
        "domain": {"type": "ball", "radius": 1.0, "center": [0.0] * 4},
        "grid": {"h": 0.25},
        "output_dir": str(tmp_path / "out"),
    }
    assert _run(["verify", "--config", _write(tmp_path, cfg)]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    status = {c["name"]: (c["status"], c["detail"]) for c in report["checks"]}
    assert list(status) == list(CHECK_NAMES)
    assert status["mean_monotonicity"] == ("skip", "skipped: no sphere lattice for k > 3")
    for name in ("explicit_solution", "dirichlet_energy", "positivity",
                 "axis_regularity", "cd_positivity"):
        assert status[name][0] == "pass", name
    for name in ("boundary_gradient_mean", "serrin_constancy", "flux_identity",
                 "pohozaev", "p_integral", "p_constancy"):
        assert status[name][0] == "skip", name
    assert report["passed"] is True


def test_solve_subcommand_writes_field_without_checks(tmp_path):
    cfg = dict(BALL, output_dir=str(tmp_path / "out"))
    cfg.pop("checks")
    code = _run(["solve", "--config", _write(tmp_path, cfg)])
    assert code == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["checks"] == []
    assert report["passed"] is True
    lines = (tmp_path / "out" / "residuals.csv").read_text().splitlines()
    assert lines == ["check,value,tolerance,pass"]


# -- determinism and config echo ----------------------------------------------------


def test_reruns_are_byte_identical(tmp_path):
    cfg1 = dict(BALL, output_dir=str(tmp_path / "a"))
    cfg2 = dict(BALL, output_dir=str(tmp_path / "b"))
    assert _run(["verify", "--config", _write(tmp_path, cfg1, "c1.json")]) == 0
    assert _run(["verify", "--config", _write(tmp_path, cfg2, "c2.json")]) == 0
    for name in ("u.csv", "residuals.csv"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, name


def test_report_echoes_a_reparseable_config(tmp_path):
    cfg = dict(BALL, output_dir=str(tmp_path / "out"))
    path = _write(tmp_path, cfg)
    assert _run(["verify", "--config", path]) == 0
    echoed = json.loads((tmp_path / "out" / "report.json").read_text())["config"]
    assert RunConfig.parse(echoed) == RunConfig.parse(cfg)


@pytest.mark.parametrize("block, domain, bad", [
    ({"type": "ball", "center": [0.1], "radius": 0.8},
     Ball(radius=0.8, center=(0.1,)),
     [({"radius": 0.0}, "radius must be positive")]),
    ({"type": "ellipsoid", "center": [0.1], "semi_axes": [1.0, 2.0]},
     Ellipsoid(semi_axes=(1.0, 2.0), center=(0.1,)),
     [({"semi_axes": (1.0, 2.0, 3.0)}, "need k+1 semi-axes for k center coordinates"),
      ({"semi_axes": (1.0, -2.0)}, "semi-axes must be positive")]),
    ({"type": "box", "center": [0.1], "half_widths": [0.5, 0.75]},
     Box(half_widths=(0.5, 0.75), center=(0.1,)),
     [({"half_widths": (0.5,)}, "need k+1 half-widths for k center coordinates"),
      ({"half_widths": (0.0, 0.75)}, "half-widths must be positive")]),
])
def test_domain_block_matches_domain_and_descriptor(block, domain, bad):
    cfg = RunConfig.parse({"params": {"a": 1.0, "k": 1}, "domain": block,
                           "grid": {"h": 0.0625}})
    assert cfg.build_domain() == domain
    assert cfg.to_dict()["domain"] == block
    assert domain.descriptor() == block
    for shape, message in bad:
        with pytest.raises(ValueError) as exc:
            type(domain)(center=(0.1,), **shape)
        assert str(exc.value) == message


def test_out_flag_overrides_output_dir(tmp_path):
    cfg = dict(BALL, output_dir=str(tmp_path / "ignored"))
    code = _run(["verify", "--config", _write(tmp_path, cfg),
                 "--out", str(tmp_path / "real")])
    assert code == 0
    assert (tmp_path / "real" / "report.json").is_file()
    assert not (tmp_path / "ignored").exists()


# -- sweeps ----------------------------------------------------------------------------


def test_aspect_sweep_shows_monotone_defect_growth(tmp_path):
    cfg = {
        "params": {"a": 1.0, "k": 1},
        "domain": {"type": "ellipsoid", "semi_axes": [1.0, 1.0], "center": [0.0]},
        "grid": {"h": 0.0625},
        "checks": ["serrin_constancy", "positivity"],
        "output_dir": str(tmp_path / "sweep"),
        "sweep": {"path": "domain.semi_axes.1",
                  "values": [1.0, 1.25, 1.5, 2.0]},
    }
    code = _run(["sweep", "--config", _write(tmp_path, cfg)])
    assert code == 1  # non-round members fail the overdetermined check
    summary = (tmp_path / "sweep" / "sweep_summary.csv").read_text().splitlines()
    assert summary[0] == ("value,serrin_defect,p_constancy_deviation,"
                          "p_integral_residual,min_interior,converged,passed")
    assert len(summary) == 5
    defects = [float(line.split(",")[1]) for line in summary[1:]]
    assert defects[0] <= 1e-8  # the round member is rigid
    assert all(d2 > d1 for d1, d2 in zip(defects, defects[1:]))
    assert defects[-1] == pytest.approx(0.1458, abs=2e-3)
    for i in range(4):
        run_dir = tmp_path / "sweep" / f"run_{i:03d}"
        for name in ("u.csv", "report.json", "residuals.csv"):
            assert (run_dir / name).is_file()
    passed = [line.split(",")[-1] for line in summary[1:]]
    assert passed == ["true", "false", "false", "false"]


def test_weight_sweep_on_ball_passes_for_all_exponents(tmp_path):
    cfg = {
        "params": {"a": 1.0, "k": 1},
        "domain": {"type": "ball", "radius": 1.0},
        "grid": {"h": 0.0625},
        "checks": ["serrin_constancy"],
        "output_dir": str(tmp_path / "asweep"),
        "sweep": {"path": "params.a", "values": [0.0, 0.5, 1.0, 2.0]},
    }
    assert _run(["sweep", "--config", _write(tmp_path, cfg)]) == 0
    summary = (tmp_path / "asweep" / "sweep_summary.csv").read_text().splitlines()
    for line in summary[1:]:
        assert float(line.split(",")[1]) <= 1e-2
        assert line.endswith("true,true")


def test_empty_sweep_values_is_a_config_error(tmp_path):
    cfg = {
        "params": {"a": 1.0, "k": 1},
        "domain": {"type": "ball", "radius": 1.0},
        "grid": {"h": 0.0625},
        "output_dir": str(tmp_path / "s"),
        "sweep": {"path": "params.a", "values": []},
    }
    assert _run(["sweep", "--config", _write(tmp_path, cfg)]) == 2


def test_sweep_without_sweep_block_is_a_config_error(tmp_path):
    cfg = dict(BALL, output_dir=str(tmp_path / "s"))
    assert _run(["sweep", "--config", _write(tmp_path, cfg)]) == 2


def test_sweep_path_must_address_a_scalar(tmp_path):
    cfg = {
        "params": {"a": 1.0, "k": 1},
        "domain": {"type": "ball", "radius": 1.0},
        "grid": {"h": 0.0625},
        "output_dir": str(tmp_path / "s"),
        "sweep": {"path": "domain", "values": [1.0]},
    }
    assert _run(["sweep", "--config", _write(tmp_path, cfg)]) == 2


def test_sweep_over_an_integer_key_writes_integers(tmp_path):
    cfg = dict(BALL, checks=["positivity"], output_dir=str(tmp_path / "s"),
               sweep={"path": "seed", "values": [1, 2]})
    assert _run(["sweep", "--config", _write(tmp_path, cfg)]) == 0
    for i, seed in enumerate((1, 2)):
        report = json.loads((tmp_path / "s" / f"run_{i:03d}" / "report.json").read_text())
        assert report["config"]["seed"] == seed and isinstance(report["config"]["seed"], int)
    values = [line.split(",")[0] for line in
              (tmp_path / "s" / "sweep_summary.csv").read_text().splitlines()[1:]]
    assert values == ["1", "2"]


def test_sweep_of_a_non_integral_value_into_an_integer_key_exits_two(tmp_path, capsys):
    cfg = dict(BALL, output_dir=str(tmp_path / "s"),
               sweep={"path": "solver.max_iter", "values": [1.5]})
    assert _run(["sweep", "--config", _write(tmp_path, cfg)]) == 2
    assert "solver.max_iter must be an integer" in capsys.readouterr().err

# -- module entry point -------------------------------------------------------------


def test_module_invocation_matches_direct_call(tmp_path):
    cfg = dict(BALL, checks=["positivity"], output_dir=str(tmp_path / "out"))
    proc = subprocess.run(
        [sys.executable, "-m", "weinstein", "verify",
         "--config", _write(tmp_path, cfg)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "report.json").is_file()
