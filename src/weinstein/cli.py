"""Batch front-end: configs in JSON, fields in CSV, reports in JSON.

Exit-code contract: 0 all good, 1 a verification check failed (on
non-ball domains this is the rigidity theorem doing its job), 2 config
problem, 3 solver failure.  A failed solve still writes the best iterate
with ``converged: false`` so the run can be inspected.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import os
import sys
from dataclasses import dataclass
from typing import Optional

from .errors import (
    ConfigError,
    EmptyDomain,
    GridTooCoarse,
    UnsupportedShape,
    WeinsteinError,
)
from .geometry import Ball, Box, Ellipsoid
from .operator import field_to_csv
from .params import WeinsteinParams
from .rigidity import CHECK_NAMES, run_experiment

log = logging.getLogger("weinstein")

_TOP_KEYS = {"params", "domain", "grid", "solver", "checks", "output_dir",
             "seed", "sweep"}
_DOMAINS = {cls.kind: cls for cls in (Ball, Ellipsoid, Box)}


def _require_keys(section: dict, allowed, where: str):
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {unknown}")


def _number(value, where, minimum=None, strict_min=False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number")
    v = float(value)
    if not math.isfinite(v):
        raise ConfigError(f"{where} must be finite")
    if minimum is not None:
        if strict_min and v <= minimum:
            raise ConfigError(f"{where} must be > {minimum}")
        if not strict_min and v < minimum:
            raise ConfigError(f"{where} must be >= {minimum}")
    return v


def _integer(value, where, minimum=None):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{where} must be >= {minimum}")
    return value


def _number_list(value, where, length=None, minimum=None, strict_min=False):
    if not isinstance(value, list):
        raise ConfigError(f"{where} must be a list of numbers")
    out = tuple(_number(v, f"{where}[{i}]", minimum, strict_min)
                for i, v in enumerate(value))
    if length is not None and len(out) != length:
        raise ConfigError(f"{where} must have length {length}")
    return out


@dataclass(frozen=True)
class RunConfig:
    a: float
    k: int
    domain_type: str
    center: tuple
    shape: tuple  # the domain's shape_key field; (radius,) for a ball
    h: float
    tol: float
    max_iter: int
    checks: tuple
    output_dir: str
    seed: int
    sweep_path: Optional[str] = None
    sweep_values: Optional[tuple] = None

    @classmethod
    def parse(cls, raw: dict) -> "RunConfig":
        _require_keys(raw, _TOP_KEYS, "config")
        for key in ("params", "domain", "grid"):
            if key not in raw:
                raise ConfigError(f"config is missing '{key}'")

        params = raw["params"]
        _require_keys(params, {"a", "k"}, "params")
        a = _number(params.get("a"), "params.a", minimum=0.0)
        k = _integer(params.get("k"), "params.k", minimum=1)

        dom = raw["domain"]
        if not isinstance(dom, dict) or "type" not in dom:
            raise ConfigError("domain must be an object with a 'type'")
        dtype = dom["type"]
        if dtype not in _DOMAINS:
            raise ConfigError(f"domain.type must be one of {sorted(_DOMAINS)}")
        key = _DOMAINS[dtype].shape_key
        _require_keys(dom, {"type", "center", key}, "domain")
        center = _number_list(dom.get("center", [0.0] * k), "domain.center",
                              length=k)
        where = f"domain.{key}"
        if key == "radius":
            shape = (_number(dom.get(key), where, 0.0, True),)
        else:
            shape = _number_list(dom.get(key), where, length=k + 1,
                                 minimum=0.0, strict_min=True)

        grid = raw["grid"]
        _require_keys(grid, {"h"}, "grid")
        h = _number(grid.get("h"), "grid.h", 0.0, True)

        solver = raw.get("solver", {})
        _require_keys(solver, {"tol", "max_iter"}, "solver")
        tol = _number(solver.get("tol", 1e-10), "solver.tol", 0.0, True)
        max_iter = _integer(solver.get("max_iter", 20000), "solver.max_iter", 1)

        checks_raw = raw.get("checks")
        if checks_raw is None:
            checks = tuple(CHECK_NAMES)
        else:
            if not isinstance(checks_raw, list) or any(
                    not isinstance(c, str) for c in checks_raw):
                raise ConfigError("checks must be a list of check names")
            unknown = sorted(set(checks_raw) - set(CHECK_NAMES))
            if unknown:
                raise ConfigError(f"unknown checks: {unknown}")
            checks = tuple(checks_raw)

        output_dir = raw.get("output_dir", "out")
        if not isinstance(output_dir, str) or not output_dir:
            raise ConfigError("output_dir must be a non-empty string")
        seed = _integer(raw.get("seed", 0), "seed", minimum=0)

        sweep_path = sweep_values = None
        if "sweep" in raw:
            sweep = raw["sweep"]
            _require_keys(sweep, {"path", "values"}, "sweep")
            sweep_path = sweep.get("path")
            if not isinstance(sweep_path, str) or not sweep_path:
                raise ConfigError("sweep.path must be a non-empty string")
            sweep_values = _number_list(sweep.get("values", []), "sweep.values")

        return cls(a=a, k=k, domain_type=dtype, center=center, shape=shape,
                   h=h, tol=tol, max_iter=max_iter, checks=checks,
                   output_dir=output_dir, seed=seed,
                   sweep_path=sweep_path, sweep_values=sweep_values)

    def to_dict(self) -> dict:
        dom = {"type": self.domain_type, "center": list(self.center)}
        dom.update(self._domain_shape())
        out = {
            "params": {"a": self.a, "k": self.k},
            "domain": dom,
            "grid": {"h": self.h},
            "solver": {"tol": self.tol, "max_iter": self.max_iter},
            "checks": list(self.checks),
            "output_dir": self.output_dir,
            "seed": self.seed,
        }
        if self.sweep_path is not None:
            out["sweep"] = {"path": self.sweep_path,
                            "values": list(self.sweep_values)}
        return out

    def _domain_shape(self) -> dict:
        key = _DOMAINS[self.domain_type].shape_key
        return {key: self.shape[0] if key == "radius" else list(self.shape)}

    def build_domain(self):
        return _DOMAINS[self.domain_type](center=self.center, **self._domain_shape())

    def build_params(self) -> WeinsteinParams:
        return WeinsteinParams(a=self.a, k=self.k)


def _swept(old, value: float):
    """An integral `value` as an int where the config holds an int (seed,
    solver.max_iter, params.k); otherwise `value` unchanged."""
    if isinstance(old, int) and not isinstance(old, bool) and value.is_integer():
        return int(value)
    return value


def _set_sweep_value(raw: dict, path: str, value: float) -> dict:
    """Assign `value` at a dotted path ('params.a', 'domain.semi_axes.1')."""
    parts = path.split(".")
    node = raw
    for i, part in enumerate(parts[:-1]):
        if isinstance(node, list):
            try:
                node = node[int(part)]
            except (ValueError, IndexError):
                raise ConfigError(f"sweep.path segment '{part}' is invalid")
        elif isinstance(node, dict) and part in node:
            node = node[part]
        else:
            raise ConfigError(f"sweep.path '{path}' does not address the config")
    last = parts[-1]
    if isinstance(node, list):
        try:
            idx = int(last)
            node[idx]
        except (ValueError, IndexError):
            raise ConfigError(f"sweep.path '{path}' does not address the config")
        node[idx] = _swept(node[idx], value)
    elif isinstance(node, dict) and last in node:
        if isinstance(node[last], (dict, list)):
            raise ConfigError(f"sweep.path '{path}' must address a scalar")
        node[last] = _swept(node[last], value)
    else:
        raise ConfigError(f"sweep.path '{path}' does not address the config")
    return raw


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _execute(cfg: RunConfig, checks):
    report = run_experiment(cfg.build_domain(), cfg.build_params(), cfg.h,
                            checks=checks, solver_tol=cfg.tol,
                            max_iter=cfg.max_iter, seed=cfg.seed)
    if report.failure is not None:
        print(f"solver failure: {report.failure}", file=sys.stderr)
    return report


def _write_outputs(report, cfg: RunConfig, out_dir: str):
    os.makedirs(out_dir, exist_ok=True)
    field_to_csv(report.u, os.path.join(out_dir, "u.csv"))
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        fh.write(report.to_json(config=cfg.to_dict()))
    with open(os.path.join(out_dir, "residuals.csv"), "w") as fh:
        fh.write(report.residuals_csv_text())


def cmd_solve(cfg: RunConfig) -> int:
    report = _execute(cfg, checks=[])
    _write_outputs(report, cfg, cfg.output_dir)
    log.info("solve: %s unknowns, %s iterations, residual %.3e",
             report.solver.n_unknowns, report.solver.iterations,
             report.solver.final_relative_residual)
    return 0 if report.solver.converged else 3


def cmd_verify(cfg: RunConfig) -> int:
    report = _execute(cfg, checks=list(cfg.checks))
    _write_outputs(report, cfg, cfg.output_dir)
    for c in report.checks:
        log.info("check %-22s value=%s tol=%s -> %s",
                 c.name, c.value, c.tolerance, c.status)
    if not report.solver.converged:
        return 3
    return 0 if report.passed else 1


# sweep_summary.csv columns, in order, and the check each one reads
_SUMMARY_SOURCE = {"serrin_defect": "serrin_constancy",
                   "p_constancy_deviation": "p_constancy",
                   "p_integral_residual": "p_integral",
                   "min_interior": "positivity"}


def cmd_sweep(cfg: RunConfig) -> int:
    if cfg.sweep_path is None:
        raise ConfigError("sweep command needs a 'sweep' block")
    if not cfg.sweep_values:
        raise ConfigError("sweep.values must be non-empty")
    os.makedirs(cfg.output_dir, exist_ok=True)
    rows = []
    worst = 0
    for i, value in enumerate(cfg.sweep_values):
        raw = cfg.to_dict()
        raw.pop("sweep", None)
        _set_sweep_value(raw, cfg.sweep_path, value)
        run_cfg = RunConfig.parse(raw)
        run_dir = os.path.join(cfg.output_dir, f"run_{i:03d}")
        run_cfg = dataclasses.replace(run_cfg, output_dir=run_dir)
        log.info("sweep %s = %s", cfg.sweep_path, value)
        report = _execute(run_cfg, checks=list(run_cfg.checks))
        _write_outputs(report, run_cfg, run_dir)
        by_name = {c.name: c for c in report.checks}
        row = [f"{value:.12g}"]
        for check in _SUMMARY_SOURCE.values():
            c = by_name.get(check)
            row.append("" if c is None or math.isnan(c.value)
                       else f"{c.value:.12e}")
        row.append("true" if report.solver.converged else "false")
        row.append("true" if report.passed else "false")
        rows.append(",".join(row))
        if not report.solver.converged:
            worst = max(worst, 3)
        elif not report.passed:
            worst = max(worst, 1)
    header = "value," + ",".join(_SUMMARY_SOURCE) + ",converged,passed"
    with open(os.path.join(cfg.output_dir, "sweep_summary.csv"), "w") as fh:
        fh.write(header + "\n" + "\n".join(rows) + "\n")
    return worst


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weinstein",
        description="Solve the weighted torsion problem and verify the "
                    "identities and rigidity conditions attached to it.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("solve", "solve the torsion problem and write the field"),
        ("verify", "solve, then run the verification battery"),
        ("sweep", "repeat verify over a swept config value"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", default=None, help="override output directory")
    return parser


_COMMANDS = {"solve": cmd_solve, "verify": cmd_verify, "sweep": cmd_sweep}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        with open(args.config) as fh:
            raw = json.load(fh)
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"config error: invalid JSON ({exc})", file=sys.stderr)
        return 2
    try:
        cfg = RunConfig.parse(raw)
        if args.out:
            cfg = dataclasses.replace(cfg, output_dir=args.out)
        return _COMMANDS[args.command](cfg)
    except (ConfigError, GridTooCoarse, EmptyDomain, UnsupportedShape) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except WeinsteinError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
