"""Traced op: the CLI's work driven through each module's public functions,
with one span per call.

`verify_op` makes the calls `run_experiment` makes for the full battery,
in its order and with its arguments, then writes `u.csv`; `sweep_op` does
what `weinstein sweep` does per point with `"checks": []`, then reloads one
run's CSV.  After the op, probe spans time layers the op does not reach on
this workload (one `gradient_fields` call everywhere, the CSV read on
verify workloads, the check battery on the sweep's reloaded field), so
every per-layer metric is measured on every workload.  Probes are root
spans outside the op, so they count neither in the op wall nor in the
coverage.  The benchmark compares the check values and counters gathered
here with those of an untraced op on the same input.
"""

from __future__ import annotations

import dataclasses
import math
import os
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
from weinstein import (
    Ball,
    BesselWeights,
    PolyField,
    StaggeredGrid,
    WeinsteinParams,
    assemble_torsion_system,
    bessel_sum_apply,
    boundary_gradient_stats,
    cd_defect_values,
    dirichlet_energy_residual,
    field_from_csv,
    field_to_csv,
    flux_identity_residual,
    gamma,
    grid_geometry,
    maximum_principle_check,
    normal_derivative_at_axis,
    p_function,
    p_integral_residual,
    pohozaev_residual,
    solve,
)
from weinstein.differential import deep_mask, gradient_fields

import gate
from workloads import SOLVER_FLOOR

N_SURFACE = 20000  # run_experiment's default surface sample count


class Tracer:
    """Spans (name, start, end, parent, op id) held in memory."""

    def __init__(self, op_id):
        self.op_id = op_id
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name):
        rec = {"id": len(self.spans), "op": self.op_id, "name": name,
               "parent": self._open[-1] if self._open else None,
               "start": time.monotonic(), "end": None, "counts": {}}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec["counts"]
        finally:
            rec["end"] = time.monotonic()
            self._open.pop()


def _shifted(poly, y0):
    y0 = np.asarray(y0, dtype=float)

    def fn(pts):
        q = np.asarray(pts, dtype=float).copy()
        q[..., 1:] -= y0
        return poly.eval_float(q)

    return fn


def _solve_torsion(tr, domain, grid, params, tol, max_iter, problems):
    with tr.span("geometry.build") as c:
        geo = grid_geometry(domain, grid)
        c["nodes"] = grid.n_nodes
        c["cut_nodes"] = int(np.count_nonzero(geo.near))
    with tr.span("operator.assemble") as c:
        system = assemble_torsion_system(domain, grid, params)
        A = system.A
        c["nnz"] = int(A.nnz)
        # computed, not measured: CSR arrays plus one read of x and one write of y
        c["matvec_bytes"] = int(A.data.nbytes + A.indices.nbytes
                                + A.indptr.nbytes + 2 * 8 * system.n)
    with tr.span("solver.torsion") as c:
        u, rep = solve(system, tol=tol, max_iter=max_iter)
        c["torsion_iters"] = rep.iterations
        c["unknowns"] = rep.n_unknowns
    problems += gate.residual_problem("torsion", rep.converged,
                                      rep.final_relative_residual)
    return u


def _calibration(tr, domain, grid, params, tol, max_iter, problems):
    """The manufactured-quartic solve `p_constancy` calibrates with."""
    k = params.k
    with tr.span("solver.calib") as c:
        r = PolyField.variable(0, k + 1)
        rho2 = r * r
        for m in range(k):
            ym = PolyField.variable(1 + m, k + 1)
            rho2 = rho2 + ym * ym
        v = rho2 * rho2 + rho2
        rhs_poly = bessel_sum_apply(v, BesselWeights.weinstein(params))
        y0 = domain.y_center
        system = assemble_torsion_system(domain, grid, params,
                                         rhs=_shifted(rhs_poly, y0),
                                         dirichlet=_shifted(v, y0))
        v_h, rep = solve(system, tol=tol, max_iter=max_iter)
        c["calib_iters"] = rep.iterations
    problems += gate.residual_problem("calibration", rep.converged,
                                      rep.final_relative_residual)
    with tr.span("rigidity.calib_error"):
        geo = v_h.geometry
        pts = grid.node_points()
        exact = _shifted(v, y0)(pts)
        err = float(np.max(np.abs(v_h.values[geo.inside] - exact[geo.inside])))
        grads = gradient_fields(v_h)
        mask = deep_mask(geo)
        gerr = 0.0
        for axis in range(k + 1):
            g_exact = _shifted(v.diff(axis), y0)(pts)
            gerr = max(gerr, float(np.max(np.abs(grads[axis].values[mask]
                                                 - g_exact[mask]))))
    return err, gerr


def _random_even_poly(rng, nvars, max_degree=4):
    """The CD battery's polynomial generator (same draws, same order)."""
    terms = {}
    for _ in range(int(rng.integers(2, 6))):
        while True:
            exps = tuple(int(e) for e in rng.integers(0, max_degree + 1, size=nvars))
            if sum(exps) <= max_degree and exps[0] % 2 == 0:
                break
        coeff = int(rng.integers(-4, 5)) or 1
        terms[exps] = terms.get(exps, 0) + coeff
    poly = PolyField.zero(nvars)
    for exps, c in terms.items():
        mono = PolyField.constant(c, nvars)
        for i, e in enumerate(exps):
            if e:
                mono = mono * PolyField.variable(i, nvars) ** e
        poly = poly + mono
    return poly


def _cd_battery(params, seed, n_polys=25, n_points=4):
    rng = np.random.default_rng(seed)
    weights = BesselWeights.weinstein(params)
    worst = None
    for _ in range(n_polys):
        poly = _random_even_poly(rng, params.k + 1)
        pts = []
        for _ in range(n_points):
            pt = [Fraction(int(rng.integers(1, 40)), 20)]
            pt += [Fraction(int(rng.integers(-30, 31)), 17) for _ in range(params.k)]
            pts.append(pt)
        for val in cd_defect_values(poly, weights, pts):
            if worst is None or val < worst:
                worst = val
    return float(worst)


def battery(tr, u, domain, grid, params, tol, max_iter, seed, problems):
    """The full check battery as `run_experiment` runs it; returns the
    check values and the extras the report records."""
    values, extras = {}, {}
    with tr.span("rigidity.boundary_stats"):
        stats = boundary_gradient_stats(u, params, count=N_SURFACE)
    extras["mms_max_error"], extras["mms_gradient_error"] = _calibration(
        tr, domain, grid, params, tol, max_iter, problems)
    if isinstance(domain, Ball):
        with tr.span("rigidity.explicit"):
            geo = u.geometry
            pts = grid.node_points()[geo.inside]
            y0 = np.asarray(domain.y_center)
            rho2 = pts[:, 0] ** 2 + np.sum((pts[:, 1:] - y0) ** 2, axis=-1)
            exact = (domain.radius ** 2 - rho2) / (2.0 * params.dim_eff)
            values["explicit_solution"] = float(np.max(np.abs(u.values[geo.inside] - exact)))
    values["serrin_constancy"] = stats.cv
    with tr.span("rigidity.energy"):
        values["dirichlet_energy"] = dirichlet_energy_residual(u, params).residual
    with tr.span("rigidity.flux"):
        values["flux_identity"] = flux_identity_residual(
            domain, params, grid, count=N_SURFACE).residual
    with tr.span("rigidity.pohozaev"):
        values["pohozaev"] = pohozaev_residual(u, params, count=N_SURFACE).residual
    with tr.span("rigidity.p_integral"):
        values["p_integral"] = p_integral_residual(
            u, params, c=stats.mean, count=N_SURFACE).residual
    with tr.span("gamma.p_function"):
        P = p_function(u, params)
    with tr.span("rigidity.p_constancy"):
        mask = deep_mask(u.geometry)
        values["p_constancy"] = float(np.max(np.abs(P.values[mask] - stats.mean ** 2)))
        np.nanmax(np.maximum(gamma(u).values[mask], 0.0))  # the tolerance's |grad u|
    with tr.span("measure.positivity"):
        values["positivity"] = maximum_principle_check(
            u, params, fractions=(0.25,), n_samples=512).min_interior
    with tr.span("measure.mean_ladder"):
        values["mean_monotonicity"] = maximum_principle_check(u, params).max_increase
    with tr.span("operator.axis_probe"):
        _, dvals = normal_derivative_at_axis(u)
        values["axis_regularity"] = float(np.max(np.abs(dvals)))
    with tr.span("gamma.cd_battery"):
        values["cd_positivity"] = _cd_battery(params, seed)
    return values, extras


def _extras(tr, u, domain, grid, params, extras):
    with tr.span("rigidity.extras"):
        if params.a == 0.0:
            _, dvals = normal_derivative_at_axis(u)
            extras["sigma0_flux"] = -float(np.sum(dvals)) * grid.h_y ** grid.k
        extras["center_value"] = float(u.interpolate((0.0, *domain.y_center)))


def _write_csv(tr, u, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "u.csv")
    with tr.span("operator.csv_write") as c:
        field_to_csv(u, path)
    c["csv_bytes"] = os.path.getsize(path)
    return path


def _read_csv(tr, path, grid, domain):
    with tr.span("operator.csv_read") as c:
        field = field_from_csv(path, grid, domain, boundary_values=0.0)
    c["csv_rows"] = int(np.count_nonzero(np.isfinite(field.values)))
    return field


def verify_op(tr, cfg, spec, problems):
    domain, params = cfg.build_domain(), cfg.build_params()
    with tr.span("op"):
        grid = StaggeredGrid.from_domain(domain, cfg.h)
        u = _solve_torsion(tr, domain, grid, params, cfg.tol, cfg.max_iter, problems)
        values, extras = battery(tr, u, domain, grid, params, cfg.tol,
                                 cfg.max_iter, cfg.seed, problems)
        _extras(tr, u, domain, grid, params, extras)
        path = _write_csv(tr, u, cfg.output_dir)
    with tr.span("differential.gradient"):
        gradient_fields(u)
    _read_csv(tr, path, grid, domain)
    if isinstance(domain, Ball) and not values["explicit_solution"] <= SOLVER_FLOOR:
        problems.append(f"explicit_solution error {values['explicit_solution']:.3e}")
    return {"values": values, "extras": extras}


def sweep_op(tr, cfg, spec, problems):
    run = spec["reload_run"]
    with tr.span("op"):
        for i, a in enumerate(cfg.sweep_values):
            point = dataclasses.replace(cfg, a=float(a), sweep_path=None,
                                        sweep_values=None)
            domain, params = point.build_domain(), point.build_params()
            grid = StaggeredGrid.from_domain(domain, cfg.h)
            u = _solve_torsion(tr, domain, grid, params, cfg.tol, cfg.max_iter, problems)
            _extras(tr, u, domain, grid, params, {})
            _write_csv(tr, u, os.path.join(cfg.output_dir, f"run_{i:03d}"))
        path = os.path.join(cfg.output_dir, f"run_{run:03d}", "u.csv")
        field = _read_csv(tr, path, grid, domain)
    params = WeinsteinParams(a=float(cfg.sweep_values[run]), k=cfg.k)
    problems += gate.reload_problems(field, path, params)
    with tr.span("differential.gradient"):
        gradient_fields(field)
    battery(tr, field, domain, grid, params, cfg.tol, cfg.max_iter, cfg.seed, problems)
    return {}


def traced_op(cfg, spec):
    """Run the traced op; returns spans, per-op counters and check values."""
    tr = Tracer(spec["op_id"])
    problems = []
    try:
        op = verify_op if spec["command"] == "verify" else sweep_op
        out = op(tr, cfg, spec, problems)
    except Exception as exc:  # the op failed; report it, do not crash the run
        return {"problems": [f"{type(exc).__name__}: {exc}"], "spans": tr.spans}
    counts = {}
    for s in tr.spans:
        for key, n in s["counts"].items():
            counts[key] = max(counts.get(key, 0), n) if key == "matvec_bytes" \
                else counts.get(key, 0) + n
    out.update(problems=problems, spans=tr.spans, counts=counts)
    if any(not math.isfinite(v) for v in out.get("values", {}).values()):
        problems.append("non-finite check value")
    return out
