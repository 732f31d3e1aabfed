"""Integral identities and overdetermined-rigidity checks for torsion fields.

A solved torsion field (L_a u = -1, u = 0 on the boundary) must satisfy,
on any admissible domain, the weighted energy identity, the divergence
flux identity, a Pohozaev balance, positivity, and decreasing spherical
means.  The overdetermined conditions (constant |du/dn|, vanishing
P-integral, the explicit quadratic profile) hold exactly when the domain
is a ball centered on the symmetry axis; away from balls their residuals
quantify the failure of rigidity.  `run_experiment` bundles everything
into a machine-readable report.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .differential import gradient_fields
from .errors import (
    BreakdownDetected,
    ConfigError,
    GridTooCoarse,
    NoConvergence,
    SphereOutsideDomain,
    UnsupportedShape,
)
from .field import ScalarField
from .gamma import (
    BesselWeights,
    _grid_gamma,
    _p_from_gamma,
    bessel_sum_apply,
    cd_defect_values,
    gamma,
    p_function,
)
from .geometry import StaggeredGrid, boundary_samples
from .measure import spherical_mean, weighted_volume_integral
from .operator import (
    _normal_gradient,
    assemble_torsion_system,
    boundary_normal_gradient,
    normal_derivative_at_axis,
)
from .params import WeinsteinParams
from .poly import PolyField
from .solver import SolveReport, solve


# ---------------------------------------------------------------------------
# identity residuals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdentityPair:
    """Two sides of an integral identity and their normalized gap."""

    lhs: float
    rhs: float

    @property
    def residual(self) -> float:
        return abs(self.lhs - self.rhs) / max(abs(self.lhs), abs(self.rhs), 1e-30)


def _weighted_samples(domain, params, count):
    s = boundary_samples(domain, count)
    w = s.weights * np.abs(s.points[:, 0]) ** params.a
    return s, w


def dirichlet_energy_residual(u: ScalarField, params: WeinsteinParams) -> IdentityPair:
    """integral |grad u|^2 r^a dx  vs  integral u r^a dx (torsion data)."""
    return _energy_pair(u, params, gamma(u))


def _energy_pair(u, params, g):
    """Energy sides from u and its Gamma field g."""
    return IdentityPair(weighted_volume_integral(g, params),
                        weighted_volume_integral(u, params))


def flux_identity_residual(domain, params: WeinsteinParams, grid,
                           count: int = 20000) -> IdentityPair:
    """(a+1+k) integral r^a dx  vs  boundary flux of the scaling field.

    The scaling field Z = (r, y - y_c) has weighted divergence
    (a+1+k) r^a; its flux through the axis wall vanishes because <Z, nu>
    is -r there, so only the outer boundary contributes.
    """
    volume = weighted_volume_integral(1.0, params, domain=domain, grid=grid)
    return _flux_pair(domain, params, volume, *_weighted_samples(domain, params, count))


def _flux_pair(domain, params, volume, s, w):
    """Flux sides from the weighted volume, the samples s and their weights w."""
    lhs = params.dim_eff * volume
    z = domain.offset(s.points)
    rhs = float(np.sum(w * np.sum(z * s.normals, axis=-1)))
    return IdentityPair(lhs, rhs)


def pohozaev_residual(u: ScalarField, params: WeinsteinParams,
                      count: int = 20000) -> IdentityPair:
    """Pohozaev balance for the torsion problem:

    -1/2 int_bdry (du/dn)^2 <Z, nu> r^a dsigma
        = (a-1+k)/2 int |grad u|^2 r^a - (a+1+k) int u r^a.
    """
    s, w = _weighted_samples(u.domain, params, count)
    return _pohozaev_pair(u, params, s, w, boundary_normal_gradient(u, samples=s),
                          dirichlet_energy_residual(u, params))


def _pohozaev_pair(u, params, s, w, un, energy):
    """Pohozaev sides from the samples s, their weights w, |du/dn| there
    and the energy pair (lhs: energy, rhs: mass)."""
    zn = np.sum(u.domain.offset(s.points) * s.normals, axis=-1)
    lhs = -0.5 * float(np.sum(w * un**2 * zn))
    rhs = 0.5 * (params.a - 1.0 + params.k) * energy.lhs - params.dim_eff * energy.rhs
    return IdentityPair(lhs, rhs)


@dataclass(frozen=True)
class GradientStats:
    """Surface-weighted statistics of |du/dn| over the outer boundary."""

    mean: float
    std: float
    n: int

    @property
    def cv(self) -> float:
        return self.std / max(abs(self.mean), 1e-30)


def boundary_gradient_stats(u: ScalarField, params: WeinsteinParams,
                            count: int = 20000) -> GradientStats:
    s, w = _weighted_samples(u.domain, params, count)
    return _gradient_stats(w, boundary_normal_gradient(u, samples=s))


def _gradient_stats(w, un):
    wsum = float(np.sum(w))
    mean = float(np.sum(w * un) / wsum)
    var = float(np.sum(w * (un - mean) ** 2) / wsum)
    return GradientStats(mean, math.sqrt(max(var, 0.0)), int(un.size))


def serrin_defect(u: ScalarField, params: WeinsteinParams,
                  count: int = 20000) -> float:
    """Coefficient of variation of |du/dn|; zero iff the overdetermined
    condition holds, and bounded away from zero on non-balls."""
    return boundary_gradient_stats(u, params, count).cv


def p_integral_residual(u: ScalarField, params: WeinsteinParams,
                        c: Optional[float] = None,
                        count: int = 20000) -> IdentityPair:
    """integral P r^a dx  vs  c^2 integral r^a dx, with P the P-function
    and c the (weighted) mean boundary gradient unless given.  Vanishes
    exactly in the rigid (ball) case."""
    if c is None:
        c = boundary_gradient_stats(u, params, count).mean
    volume = weighted_volume_integral(1.0, params, domain=u.domain, grid=u.grid)
    return _p_integral_pair(params, p_function(u, params), c, volume)


def _p_integral_pair(params, P, c, volume):
    """P-integral sides from the P-function P, the gradient scale c and the
    weighted volume."""
    return IdentityPair(weighted_volume_integral(P, params), c * c * volume)


# ---------------------------------------------------------------------------
# maximum principle / mean ladder
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MeanLadder:
    min_interior: float
    radii: tuple
    means: tuple
    max_increase: float  # most positive forward difference of the means
    classification: str  # strictly_decreasing | nonincreasing | constant | violated

    @property
    def positive(self) -> bool:
        return self.min_interior > 0.0


def maximum_principle_check(u: ScalarField, params: WeinsteinParams,
                            fractions=(0.1, 0.2, 0.3, 0.4, 0.5),
                            n_samples: int = 8000) -> MeanLadder:
    """Interior positivity plus monotone spherical means around the center.

    Superharmonic fields (L_a u <= 0) have nonincreasing weighted means
    M(t) about any interior center; the torsion solution is strictly
    superharmonic, so its ladder must strictly decrease."""
    min_int = float(np.min(u.active))

    center = (0.0, *u.domain.y_center)
    dist = -float(u.domain.signed_distance(np.asarray(center)))
    radii, means = [], []
    for f in fractions:
        t = f * dist
        try:
            m = spherical_mean(u, params, center, t, n_samples=n_samples)
        except SphereOutsideDomain:
            continue
        radii.append(t)
        means.append(m)
    means_a = np.asarray(means)
    if means_a.size >= 2:
        diffs = np.diff(means_a)
        max_inc = float(diffs.max())
        scale = max(1.0, float(np.max(np.abs(means_a))))
        tol = 5e-4 * scale
        if max_inc > tol:
            cls = "violated"
        elif float(np.max(np.abs(diffs))) <= tol:
            cls = "constant"
        elif float(diffs.max()) < -tol:
            cls = "strictly_decreasing"
        else:
            cls = "nonincreasing"
    else:
        max_inc = math.nan
        cls = "violated" if not means else "constant"
    return MeanLadder(min_int, tuple(radii), tuple(means), max_inc, cls)


# ---------------------------------------------------------------------------
# experiment orchestration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    value: float
    tolerance: Optional[float]
    passed: Optional[bool]  # None: informational or skipped
    detail: str = ""

    @property
    def status(self) -> str:
        if self.passed is None:
            return "skip"
        return "pass" if self.passed else "fail"


def _finite_or_none(value):
    """`value` with every non-finite float (also inside lists) as None,
    which JSON writes as null: strict parsers reject NaN and Infinity."""
    if isinstance(value, (list, tuple)):
        return [_finite_or_none(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


@dataclass
class ExperimentReport:
    domain: dict
    params: dict
    grid: dict
    solver: SolveReport
    checks: list
    extras: dict = field(default_factory=dict)
    u: Optional[ScalarField] = None  # solved field, not serialized
    failure: Optional[str] = None  # the solver's message when it did not converge, not serialized

    @property
    def passed(self) -> bool:
        return self.solver.converged and all(c.passed is not False for c in self.checks)

    def to_json_dict(self, config: Optional[dict] = None) -> dict:
        out = {
            "domain": self.domain,
            "params": self.params,
            "grid": self.grid,
            "solver": {
                "method": self.solver.method,
                "iterations": self.solver.iterations,
                "final_relative_residual": _finite_or_none(self.solver.final_relative_residual),
                "converged": self.solver.converged,
                "n_unknowns": self.solver.n_unknowns,
            },
            "checks": [
                {
                    "name": c.name,
                    "value": _finite_or_none(c.value),
                    "tolerance": c.tolerance,
                    "status": c.status,
                    "detail": c.detail,
                }
                for c in self.checks
            ],
            "extras": {k: _finite_or_none(self.extras[k]) for k in sorted(self.extras)},
            "passed": self.passed,
        }
        if config is not None:
            out["config"] = config
        return out

    def to_json(self, config: Optional[dict] = None) -> str:
        return json.dumps(self.to_json_dict(config), indent=2) + "\n"

    def residuals_csv_text(self) -> str:
        lines = ["check,value,tolerance,pass"]
        for c in self.checks:
            val = "nan" if math.isnan(c.value) else f"{c.value:.12e}"
            tol = "" if c.tolerance is None else f"{c.tolerance:.12e}"
            lines.append(f"{c.name},{val},{tol},{c.status}")
        return "\n".join(lines) + "\n"


CHECK_NAMES = (
    "explicit_solution",
    "boundary_gradient_mean",
    "serrin_constancy",
    "dirichlet_energy",
    "flux_identity",
    "pohozaev",
    "p_integral",
    "p_constancy",
    "positivity",
    "mean_monotonicity",
    "axis_regularity",
    "cd_positivity",
)

# Overdetermined conditions (serrin_constancy, p_integral, p_constancy) are
# judged on every domain: the rigidity theorem makes them pass exactly on
# balls, so a failing exit on an ellipsoid is the theorem at work, not a bug.

# The checks that read boundary samples, and why each is skipped on a shape
# that has none (corners, or no sphere lattice for its k).
_BOUNDARY_CHECKS = {
    "boundary_gradient_mean": "boundary sampling unsupported for this shape",
    "serrin_constancy": "boundary sampling unsupported for this shape",
    "flux_identity": "boundary sampling unsupported for this shape",
    "pohozaev": "boundary sampling unsupported for this shape",
    "p_integral": "boundary sampling unsupported for this shape",
    "p_constancy": "needs the boundary gradient scale",
}


def _manufactured_quartic(system):
    """A known even quartic v and the system for it on the matrix of
    `system`, whose solve calibrates the tolerance of p_constancy."""
    domain, params = system.domain, system.params
    k = params.k
    r = PolyField.variable(0, k + 1)
    rho2 = r * r
    for m in range(k):
        ym = PolyField.variable(1 + m, k + 1)
        rho2 = rho2 + ym * ym
    v = rho2 * rho2 + rho2  # even in r, genuinely quartic

    rhs_poly = bessel_sum_apply(v, BesselWeights.weinstein(params))
    quartic = system.with_data(
        rhs=lambda pts: rhs_poly.eval_float(domain.offset(pts)),
        dirichlet=lambda pts: v.eval_float(domain.offset(pts)),
    )
    return v, quartic


def _manufactured_errors(v, v_h):
    """The max nodal and deep-node gradient errors of the solve v_h of the
    quartic v (`_manufactured_quartic`)."""
    geo = v_h.geometry
    q = v_h.domain.offset(v_h.grid.points_at(geo.inside))  # the errors read no other node
    err = float(np.max(np.abs(v_h.active - v.eval_float(q))))

    deep = geo.neighbours.deep
    q = q[deep]  # the deep nodes', before the gradients are built
    gerr = 0.0
    for axis, g in enumerate(gradient_fields(v_h)):
        gerr = max(gerr, float(np.max(np.abs(g.active[deep] - v.diff(axis).eval_float(q)))))
    return err, gerr


def _random_even_poly(rng, nvars, max_degree=4):
    """Random polynomial, even in variable 0, with small integer coefficients."""
    terms = {}
    n_terms = int(rng.integers(2, 6))
    for _ in range(n_terms):
        while True:
            exps = tuple(int(e) for e in rng.integers(0, max_degree + 1, size=nvars))
            if sum(exps) <= max_degree and exps[0] % 2 == 0:
                break
        coeff = int(rng.integers(-4, 5))
        if coeff == 0:
            coeff = 1
        terms[exps] = terms.get(exps, 0) + coeff
    return PolyField(nvars, terms)


def _cd_random_battery(params: WeinsteinParams, seed: int,
                       n_polys: int = 25, n_points: int = 4):
    """Exact-arithmetic curvature-dimension check on random even
    polynomials; returns the minimal defect (exactly nonnegative when the
    calculus is implemented correctly)."""
    rng = np.random.default_rng(seed)
    weights = BesselWeights.weinstein(params)
    nvars = params.k + 1
    worst = None
    for _ in range(n_polys):
        poly = _random_even_poly(rng, nvars)
        pts = []
        for _ in range(n_points):
            pt = [Fraction(int(rng.integers(1, 40)), 20)]  # r in (0, 2)
            pt += [Fraction(int(rng.integers(-30, 31)), 17) for _ in range(params.k)]
            pts.append(pt)
        for val in cd_defect_values(poly, weights, pts):
            if worst is None or val < worst:
                worst = val
    return float(worst) if worst is not None else math.nan


def run_experiment(domain, params: WeinsteinParams, h: float,
                   checks=None, solver_tol: float = 1e-10,
                   max_iter: int = 20000, seed: int = 0) -> ExperimentReport:
    """Solve the torsion problem on `domain` at resolution h and run the
    selected verification checks (all of them by default)."""
    if checks is None:
        names = list(CHECK_NAMES)
    else:
        names = list(checks)
        unknown = [n for n in names if n not in CHECK_NAMES]
        if unknown:
            raise ConfigError(f"unknown checks: {unknown}")
    if domain.k != params.k:
        raise ConfigError(
            f"domain has {domain.k} axial coordinates but params.k = {params.k}"
        )

    grid = StaggeredGrid.from_domain(domain, h)
    system = assemble_torsion_system(domain, grid, params)
    failure = None
    try:
        u, solve_report = solve(system, tol=solver_tol, max_iter=max_iter)
    except (NoConvergence, BreakdownDetected) as exc:
        u, solve_report, failure = exc.best, exc.report, str(exc)

    exact = domain.exact_torsion(params)
    results: list = []
    extras: dict = {}
    finite = bool(np.all(np.isfinite(u.active)))
    if not finite:  # an overflowed solve: no check can say anything about it
        results = [CheckResult(name, math.nan, None, None,
                               "skipped: solver did not converge") for name in names]
        names = []

    def judge(name, value, tol, detail=""):
        results.append(CheckResult(name, value, tol, bool(value <= tol), detail))

    def skipped(name, why):
        results.append(CheckResult(name, math.nan, None, None, f"skipped: {why}"))

    # shared surface data (smooth shapes with a sphere lattice only): the
    # samples and their weights are built once for every check
    sampled = False
    if any(n in _BOUNDARY_CHECKS for n in names):
        try:
            s, w = _weighted_samples(domain, params, 20000)
            sampled = True
        except UnsupportedShape:  # corners, or a ball with k > 3
            pass

    mms_err = mms_gerr = quartic = v_h = None
    if "p_constancy" in names and sampled:
        v, quartic = _manufactured_quartic(system)
        try:
            v_h, _ = solve(quartic, tol=solver_tol, max_iter=max_iter)
        except (NoConvergence, BreakdownDetected):
            pass
    del system, quartic  # A, its fold and its V-cycle levels: no check reads them
    if v_h is not None:  # the calibration's errors, measured without A
        mms_err, mms_gerr = _manufactured_errors(v, v_h)
        extras["mms_max_error"], extras["mms_gradient_error"] = mms_err, mms_gerr
        del v_h

    # grad u, Gamma = |grad u|^2 and P are built once, for every check that
    # reads them.  grad u has two readers, the boundary probe (|du/dn|, for
    # every boundary check) and Gamma, so it is dropped once Gamma is built;
    # both come after the calibration solve, which differentiates its own field
    grads = functools.cache(lambda: gradient_fields(u))

    @functools.cache
    def g():
        gamma_u = _grid_gamma(u, grads())
        grads.cache_clear()
        return gamma_u

    P = functools.cache(lambda: _p_from_gamma(u, g(), params))
    # u_r on the axis, read by axis_regularity and, at a = 0, by the axis flux
    axis_dr = functools.cache(lambda: normal_derivative_at_axis(u)[1])
    energy = functools.cache(lambda: _energy_pair(u, params, g()))
    # the weighted volume, read by flux_identity and p_integral
    volume = functools.cache(
        lambda: weighted_volume_integral(1.0, params, domain=domain, grid=grid))
    stats = None
    if sampled:
        un = _normal_gradient(u, grads, samples=s)
        stats = _gradient_stats(w, un)

    for name in names:
        if name in _BOUNDARY_CHECKS and stats is None:
            skipped(name, _BOUNDARY_CHECKS[name])
            continue
        if name == "explicit_solution":
            if exact is None:
                results.append(CheckResult(name, math.nan, None, None,
                                           "defined for balls only"))
                continue
            u_exact = exact[0](grid.points_at(u.geometry.inside))
            value = float(np.max(np.abs(u.active - u_exact)))
            judge(name, value, 5e-3)
        elif name == "boundary_gradient_mean":
            if exact is None:
                results.append(CheckResult(name, stats.mean, None, None,
                                           "mean |du/dn| (no closed form)"))
                continue
            slope = exact[1]
            judge(name, abs(stats.mean - slope) / slope, 0.02)
        elif name == "serrin_constancy":
            judge(name, stats.cv, 1e-2)
        elif name == "dirichlet_energy":
            pair = energy()
            extras["dirichlet_energy"] = pair.lhs
            extras["weighted_mass"] = pair.rhs
            judge(name, pair.residual, max(2e-3, 20.0 * h * h))
        elif name == "flux_identity":
            pair = _flux_pair(domain, params, volume(), s, w)
            extras["weighted_volume"] = pair.lhs / params.dim_eff
            judge(name, pair.residual, max(2e-3, 20.0 * h * h))
        elif name == "pohozaev":
            pair = _pohozaev_pair(u, params, s, w, un, energy())
            judge(name, pair.residual, max(2e-3, 20.0 * h * h))
        elif name == "p_integral":
            pair = _p_integral_pair(params, P(), stats.mean, volume())
            extras["p_integral_lhs"] = pair.lhs
            extras["p_integral_rhs"] = pair.rhs
            judge(name, pair.residual, 1e-3 * max(1.0, (64.0 * h) ** 2))
        elif name == "p_constancy":
            if mms_gerr is None:
                skipped(name, "tolerance calibration solve failed")
                continue
            deep = u.geometry.neighbours.deep
            c = stats.mean
            value = float(np.max(np.abs(P().active[deep] - c * c)))
            gmax = float(np.sqrt(np.nanmax(np.maximum(g().active[deep], 0.0))))
            # tolerance calibrated from the same-grid manufactured solve:
            # P inherits 2|grad u| x (gradient error) + 2/(N) x (value error)
            tol = 10.0 * (2.0 * gmax * mms_gerr + 2.0 * mms_err / params.dim_eff)
            tol = max(tol, 1e-8)
            judge(name, value, tol)
        elif name == "positivity":
            value = float(np.min(u.active))
            results.append(CheckResult(name, value, 0.0, bool(value > 0.0),
                                       "min interior value; must be positive"))
        elif name == "mean_monotonicity":
            try:
                ladder = maximum_principle_check(u, params)
            except UnsupportedShape:
                skipped(name, "no sphere lattice for k > 3")
                continue
            extras["mean_ladder_radii"] = list(ladder.radii)
            extras["mean_ladder_means"] = list(ladder.means)
            extras["mean_ladder_class"] = ladder.classification
            ok = ladder.classification in ("strictly_decreasing", "nonincreasing",
                                           "constant")
            results.append(CheckResult(name, ladder.max_increase, 0.0,
                                       ok, f"ladder is {ladder.classification}"))
        elif name == "axis_regularity":
            try:
                dvals = axis_dr()
            except GridTooCoarse as exc:  # thin domains may lack three r-layers
                skipped(name, f"axis probe unavailable ({type(exc).__name__})")
                continue
            value = float(np.max(np.abs(dvals))) if dvals.size else math.nan
            judge(name, value, 5e-3 * max(1.0, (64.0 * h) ** 1.5))
        elif name == "cd_positivity":
            value = _cd_random_battery(params, seed)
            results.append(CheckResult(name, value, 0.0, bool(value >= 0.0),
                                       "min exact curvature-dimension defect"))

    if stats is not None:
        extras["boundary_gradient_mean"] = stats.mean
        extras["boundary_gradient_cv"] = stats.cv
    if finite:
        # flux through the axis wall: the weight kills it for a > 0, and for
        # a = 0 it is an honest quadrature of u_r on the wall
        if params.a > 0.0:
            extras["sigma0_flux"] = 0.0
        else:
            try:
                # outward normal on the wall is -e_r
                extras["sigma0_flux"] = -float(np.sum(axis_dr())) * grid.h_y ** grid.k
            except GridTooCoarse:
                extras["sigma0_flux"] = math.nan
        extras["center_value"] = float(u.interpolate((0.0, *domain.y_center)))

    return ExperimentReport(
        domain=domain.descriptor(),
        params={"a": params.a, "k": params.k, "dim_eff": params.dim_eff},
        grid={"h": h, "h_r": grid.h_r, "h_y": grid.h_y,
              "n_r": grid.n_r, "n_y": list(grid.n_y)},
        solver=solve_report,
        checks=results,
        extras=extras,
        u=u,
        failure=failure,
    )
