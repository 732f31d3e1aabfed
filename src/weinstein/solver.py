"""Krylov solution of the assembled systems.

Jacobi-preconditioned BiCGStab on -A (whose diagonal is positive).  Cut
rows make A nonsymmetric in the weighted inner product of the scheme,
so one nonsymmetric method serves every system, including the rare
ones without cut rows (a box whose faces sit on grid nodes).

The returned residual is recomputed from the original system at exit
(never trusted from the iteration), so a report cannot claim more than
the returned field delivers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import LinearOperator, bicgstab

from .errors import BreakdownDetected, NoConvergence

FINITE_CHECK_EVERY = 16  # iterations between the checks for an overflowed iterate


class _NonFiniteIterate(Exception):
    """Raised from the BiCGStab callback with an overflowed iterate, from
    which the iteration cannot recover."""


@dataclass(frozen=True)
class SolveReport:
    method: str
    iterations: int
    final_relative_residual: float
    converged: bool
    wall_time: float
    n_unknowns: int


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

    count = {"it": 0}

    def cb(xk):
        count["it"] += 1
        if count["it"] % FINITE_CHECK_EVERY == 0 and not np.all(np.isfinite(xk)):
            raise _NonFiniteIterate(xk)

    method = "bicgstab"
    A_neg = (-A).tocsr()
    b_neg = -b
    d = A_neg.diagonal()
    d = np.where(np.abs(d) > 0, d, 1.0)
    M = LinearOperator((n, n), matvec=lambda x: x / d)

    def run(x0):
        try:
            return bicgstab(A_neg, b_neg, x0=x0, rtol=tol, atol=0.0, maxiter=max_iter,
                            M=M, callback=cb)
        except _NonFiniteIterate as stop:  # certified below as not converged
            return stop.args[0], max_iter

    x, info = run(None)
    if info < 0:  # breakdown: restart once from the current iterate
        x, info = run(x if np.all(np.isfinite(x)) else np.zeros(n))
        if info < 0:
            res = float(np.linalg.norm(A @ x - b) / b_norm) if np.all(np.isfinite(x)) else np.inf
            report = SolveReport(method, count["it"], res, False,
                                 time.perf_counter() - start, n)
            raise BreakdownDetected(
                "BiCGStab broke down twice", best=system.field_from_vector(x), report=report
            )

    residual = float(np.linalg.norm(A @ x - b) / b_norm)  # certified on the original system
    converged = residual <= 10.0 * tol
    report = SolveReport(
        method=method,
        iterations=count["it"],
        final_relative_residual=residual,
        converged=converged,
        wall_time=time.perf_counter() - start,
        n_unknowns=n,
    )
    fld = system.field_from_vector(x)
    if not converged:
        raise NoConvergence(
            f"{method} stopped at relative residual {residual:.3e} "
            f"after {count['it']} iterations (target {tol:.1e})",
            best=fld,
            report=report,
        )
    return fld, report
