"""The benchmark's workloads and the seeded inputs of each operation.

An operation (op) is one cold `weinstein verify` or `weinstein sweep` run
on a generated config.  The seed decides only the inputs: the sub-cell
offset of the domain centre along y1, the config `seed` that drives the
curvature-dimension battery, and which sweep point the op reloads.  The
program receives nothing but the generated config.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

SOLVER_TOL = 1e-10
MAX_ITER = 20000
SWEEP_A = (0.0, 0.5, 1.0, 2.0, 4.0)

# Nodal error at which a ball run reproduces the explicit profile; the
# scheme is exact on even quadratics, so only the solver is left.
SOLVER_FLOOR = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "verify" or "sweep"
    k: int
    domain: dict  # domain block without its centre
    h: float
    quick_h: float  # coarse spacing of the self-check mode
    expected_exit: int
    why: str


WORKLOADS = {w.name: w for w in (
    Workload(
        "ellipsoid_k1", "verify", 1,
        {"type": "ellipsoid", "semi_axes": [1.0, 2.0]}, 1 / 96, 1 / 32, 1,
        "Geometry and solver bound: nested-bisection cut search and two "
        "~400-iteration BiCGStab solves; the rigidity checks fail as the "
        "theorem predicts."),
    Workload(
        "ball_k3", "verify", 3,
        {"type": "ball", "radius": 1.0}, 1 / 10, 1 / 8, 0,
        "Stencil and check battery bound: 25k unknowns in 4-D with a "
        "light 34-iteration solve."),
    Workload(
        "sweep_a_k2", "sweep", 2,
        {"type": "ball", "radius": 1.0}, 1 / 20, 1 / 16, 0,
        "Same layers used differently: geometry cached after the first "
        "point, stencil rebuilt per a, CSV read beside writes, no checks."),
)}


def op_input(workload: Workload, seed: int, index: int, quick: bool = False) -> dict:
    """Config and reload choice of op `index` of a run with `seed`."""
    rng = random.Random(f"{workload.name}/{seed}/{index}")
    h = workload.quick_h if quick else workload.h
    center = [0.0] * workload.k
    center[0] = rng.uniform(-0.5, 0.5) * h
    config = {
        "params": {"a": 1.0, "k": workload.k},
        "domain": {**workload.domain, "center": center},
        "grid": {"h": h},
        "solver": {"tol": SOLVER_TOL, "max_iter": MAX_ITER},
        "seed": rng.randrange(2**31),
    }
    reload_run = None
    if workload.command == "sweep":
        config["checks"] = []
        config["sweep"] = {"path": "params.a", "values": list(SWEEP_A)}
        reload_run = rng.randrange(len(SWEEP_A))
    return {"command": workload.command, "config": config,
            "reload_run": reload_run, "expected_exit": workload.expected_exit}
