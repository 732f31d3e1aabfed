"""Correctness gate of one op; any problem it returns makes the op fail.

Per workload the gate checks the exit code and the verdicts the theory
predicts (on the ellipsoid exactly the three overdetermined conditions
fail; on balls every check passes), the certified residual of every solve
in `report.json`, and for the sweep that the reloaded field equals the
written CSV and reproduces the ball profile to the solver floor.
"""

from __future__ import annotations

import json
import os

import numpy as np

from workloads import SOLVER_FLOOR, SOLVER_TOL, SWEEP_A

ELLIPSOID_FAILS = {"serrin_constancy", "p_integral", "p_constancy"}


def residual_problem(where, converged, residual):
    if converged and residual <= 10.0 * SOLVER_TOL:
        return []
    return [f"{where}: solve not certified (converged={converged}, "
            f"residual={residual:.3e})"]


def _report_problems(report, where):
    s = report["solver"]
    return residual_problem(where, s["converged"], s["final_relative_residual"])


def verify_problems(workload, out_dir, exit_code):
    problems = []
    if exit_code != workload.expected_exit:
        problems.append(f"exit code {exit_code}, expected {workload.expected_exit}")
    with open(os.path.join(out_dir, "report.json")) as fh:
        report = json.load(fh)
    problems += _report_problems(report, "torsion")
    status = {c["name"]: c["status"] for c in report["checks"]}
    failing = {name for name, s in status.items() if s == "fail"}
    if workload.domain["type"] == "ellipsoid":
        if failing != ELLIPSOID_FAILS:
            problems.append(f"failing checks {sorted(failing)}, expected "
                            f"{sorted(ELLIPSOID_FAILS)}")
    else:
        not_passed = sorted(n for n, s in status.items() if s != "pass")
        if not_passed:
            problems.append(f"checks not passing on a ball: {not_passed}")
        explicit = next(c["value"] for c in report["checks"]
                        if c["name"] == "explicit_solution")
        if explicit is None or explicit > SOLVER_FLOOR:
            problems.append(f"explicit_solution error {explicit} above the "
                            f"solver floor {SOLVER_FLOOR}")
    return problems


def sweep_problems(out_dir, exit_code, reloaded, reload_run, params):
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}, expected 0")
    with open(os.path.join(out_dir, "sweep_summary.csv")) as fh:
        rows = [line.split(",") for line in fh.read().split("\n")[1:] if line]
    if [float(r[0]) for r in rows] != list(SWEEP_A):
        problems.append(f"summary rows {[r[0] for r in rows]}, expected {SWEEP_A}")
    for r in rows:
        if r[-2:] != ["true", "true"]:
            problems.append(f"summary row a={r[0]} not converged and passed")
    for i in range(len(SWEEP_A)):
        with open(os.path.join(out_dir, f"run_{i:03d}", "report.json")) as fh:
            problems += _report_problems(json.load(fh), f"sweep point {i}")
    csv_path = os.path.join(out_dir, f"run_{reload_run:03d}", "u.csv")
    return problems + reload_problems(reloaded, csv_path, params)


def reload_problems(field, csv_path, params):
    """The reloaded field holds exactly the written values on exactly the
    inside nodes, and they match the ball profile to the solver floor."""
    written = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)[:, -1]
    inside = field.geometry.inside
    if not np.array_equal(np.isfinite(field.values), inside):
        return ["reloaded field does not cover exactly the inside nodes"]
    values = field.values[inside]
    if not np.array_equal(values, written):
        return ["reloaded field differs from the written CSV"]
    pts = field.grid.node_points()[inside]
    y0 = np.asarray(field.domain.y_center)
    rho2 = pts[:, 0] ** 2 + np.sum((pts[:, 1:] - y0) ** 2, axis=-1)
    exact = (field.domain.radius ** 2 - rho2) / (2.0 * params.dim_eff)
    err = float(np.max(np.abs(values - exact)))
    if err > SOLVER_FLOOR:
        return [f"reloaded field misses the ball profile by {err:.3e}"]
    return []
