"""Krylov solution of the assembled systems.

Jacobi-preconditioned BiCGStab (van der Vorst, SIAM J. Sci. Stat.
Comput. 13 (1992) 631-644), written out as scipy's `bicgstab` runs it.
Cut rows make A nonsymmetric in the weighted inner product of the scheme,
so one nonsymmetric method serves every system, including the rare
ones without cut rows (a box whose faces sit on grid nodes).  The loop
stops at the first residual norm that is not finite.

The returned residual is recomputed from the original system at exit
(never trusted from the iteration), so a report cannot claim more than
the returned field delivers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import BreakdownDetected, NoConvergence

BREAKDOWN_TOL = np.finfo(float).eps ** 2  # floor on |rho| and |omega|, as in scipy


@dataclass(frozen=True)
class SolveReport:
    method: str
    iterations: int
    final_relative_residual: float
    converged: bool
    wall_time: float
    n_unknowns: int


def _bicgstab(A, b, d, x, atol, max_iter):
    """BiCGStab with preconditioner x -> x / d from x (updated in place)
    until the residual norm falls below atol; returns (x, full iterations
    completed, whether it broke down)."""
    r = b - A @ x if x.any() else b.copy()
    rtilde = r.copy()
    for it in range(max_iter):
        r_norm = np.linalg.norm(r)
        if r_norm < atol or not np.isfinite(r_norm):
            return x, it, False
        rho = np.dot(rtilde, r)
        if abs(rho) < BREAKDOWN_TOL or (it > 0 and abs(omega) < BREAKDOWN_TOL):
            return x, it, True
        if it == 0:
            p = r.copy()
        else:
            p -= omega * v
            p *= (rho / rho_prev) * (alpha / omega)
            p += r
        phat = p / d
        v = A @ phat
        rv = np.dot(rtilde, v)
        if rv == 0:
            return x, it, True
        alpha = rho / rv
        r -= alpha * v
        if np.linalg.norm(r) < atol:
            x += alpha * phat
            return x, it, False
        shat = r / d
        t = A @ shat
        omega = np.dot(t, r) / np.dot(t, t)
        x += alpha * phat
        x += omega * shat
        r -= omega * t
        rho_prev = rho
    return x, max_iter, False


def solve(system, tol=1e-10, max_iter=20000):
    """Solve A u = b; returns (ScalarField, SolveReport).

    Raises NoConvergence (best iterate and report attached) when the
    certified relative residual misses 10 * tol within max_iter, and
    BreakdownDetected when BiCGStab breaks down twice.
    """
    A, b = system.A, system.b
    n = b.shape[0]
    start = time.perf_counter()
    b_norm = np.linalg.norm(b)
    if b_norm == 0.0:
        report = SolveReport("none", 0, 0.0, True, time.perf_counter() - start, n)
        return system.field_from_vector(np.zeros(n)), report

    method = "bicgstab"
    d = A.diagonal()
    d = np.where(np.abs(d) > 0, d, -1.0)  # -1 here is 1 on -A: the run is that of -A u = -b
    # an overflow needs no warning: the first non-finite residual norm stops
    # the loop, and the certified residual names the failure
    with np.errstate(over="ignore", invalid="ignore"):
        x, iterations, broke_down = _bicgstab(A, b, d, np.zeros(n), tol * b_norm, max_iter)
        if broke_down:  # restart once from the current iterate
            x0 = x if np.all(np.isfinite(x)) else np.zeros(n)
            x, more, broke_down = _bicgstab(A, b, d, x0, tol * b_norm, max_iter)
            iterations += more
        residual = float(np.linalg.norm(A @ x - b) / b_norm)  # certified on the original system
    converged = residual <= 10.0 * tol and not broke_down
    report = SolveReport(
        method=method,
        iterations=iterations,
        final_relative_residual=residual,
        converged=converged,
        wall_time=time.perf_counter() - start,
        n_unknowns=n,
    )
    fld = system.field_from_vector(x)
    if broke_down:
        raise BreakdownDetected("BiCGStab broke down twice", best=fld, report=report)
    if not converged:
        raise NoConvergence(
            f"{method} stopped at relative residual {residual:.3e} "
            f"after {iterations} iterations (target {tol:.1e})",
            best=fld,
            report=report,
        )
    return fld, report
