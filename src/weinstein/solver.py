"""Krylov solution of the assembled systems.

Preconditioned BiCGStab (van der Vorst, SIAM J. Sci. Stat. Comput. 13
(1992) 631-644), written out as scipy's `bicgstab` runs it.  Cut rows
make A nonsymmetric in the weighted inner product of the scheme, so one
nonsymmetric method serves every system, including the rare ones without
cut rows (a box whose faces sit on grid nodes).  The loop stops at the
first residual norm that is not finite.

The preconditioner depends on k only:

- k = 1: an aggregation V-cycle built from A for each solve (plain
  aggregation, Braess, Computing 55 (1995); l1-Jacobi smoother, Baker,
  Falgout, Kolev & Yang, SIAM J. Sci. Comput. 33(5) (2011)).  On the
  (1, 2) ellipsoid at a = 1 it takes 12, 17 and 20 iterations at
  h = 1/48, 1/96 and 1/192, where Jacobi's count doubles with each
  halving of h (~400 at 1/96, ~890 at 1/192).  The hierarchy is not
  cached: at h = 1/96 it holds 1.3 MB while the solve runs.
- k >= 2: Jacobi.  Those solves take tens of iterations, and the V-cycle
  costs more than it saves (k = 2, h = 1/20: 6 + 33 ms against 28 ms;
  k = 3, h = 1/10: 22 + 47 ms against 26 ms).

There is no sparse LU: on the k = 1, h = 1/96 ellipsoid, whose whole
`verify` run peaks at 65 MB resident, importing scipy.sparse.linalg adds
7 MB to the peak and `splu` (2.1 million nonzeros in L + U) 32 MB more.

The returned residual is recomputed from the original system at exit
(never trusted from the iteration), so a report cannot claim more than
the returned field delivers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import BreakdownDetected, NoConvergence
from .geometry import grid_geometry

BREAKDOWN_TOL = np.finfo(float).eps ** 2  # floor on |rho| and |omega|, as in scipy
COARSEST = 256  # unknowns at which the V-cycle stops coarsening and solves densely
OVERCORRECTION = 1.5  # scale of the V-cycle's coarse correction


@dataclass(frozen=True)
class SolveReport:
    method: str
    iterations: int
    final_relative_residual: float
    converged: bool
    n_unknowns: int


def _bicgstab(A, b, precond, x, atol, max_iter):
    """BiCGStab with the preconditioner `precond` (v -> approximate A^-1 v)
    from x (updated in place) until the residual norm falls below atol;
    returns (x, full iterations completed, whether it broke down)."""
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
        phat = precond(p)
        v = A @ phat
        rv = np.dot(rtilde, v)
        if rv == 0:
            return x, it, True
        alpha = rho / rv
        r -= alpha * v
        if np.linalg.norm(r) < atol:
            x += alpha * phat
            return x, it, False
        shat = precond(r)
        t = A @ shat
        omega = np.dot(t, r) / np.dot(t, t)
        x += alpha * phat
        x += omega * shat
        r -= omega * t
        rho_prev = rho
    return x, max_iter, False


def _guarded(scale):
    """Row scales with the zero and NaN ones replaced by -1; -1 here is 1
    on -A: the run is that of -A u = -b."""
    return np.where(np.abs(scale) > 0, scale, -1.0)


def _jacobi(A):
    """Jacobi preconditioner v -> v / diag(A)."""
    d = _guarded(A.diagonal())
    return lambda v: v / d


def _l1_scale(A):
    """-sum_j |a_ij| for each row of the csr matrix A, guarded as the Jacobi
    diagonal is; |A| shares A's index arrays, so only its values are copied."""
    abs_A = sp.csr_matrix((np.abs(A.data), A.indices, A.indptr), shape=A.shape)
    return _guarded(-(abs_A @ np.ones(A.shape[0])))


def _vcycle(system):
    """Aggregation V-cycle for system.A as a preconditioner v -> ~A^-1 v.

    Each coarse unknown is one 2 x ... x 2 block of lattice nodes (lattice
    index halved on every axis) holding at least one active node; the
    coarse operator is P^T A P for the 0/1 aggregation P, kept as the
    aggregate index `agg` of each node (P^T r sums r over each aggregate,
    P y copies y to its members).  Levels stop at COARSEST unknowns, solved
    by a dense pseudo-inverse.  The smoother is l1-Jacobi,
    x += (b - A x) / m with m = -sum_j |a_ij|: one sweep before the coarse
    correction (after x = b / m), two after it.  The piecewise-constant P
    undershoots smooth errors, so the coarse correction is scaled by
    OVERCORRECTION; unscaled, the ellipsoid counts in the module docstring
    are 19, 27 and 39.
    """
    geo = grid_geometry(system.domain, system.grid)
    shape = np.array(geo.inside.shape)
    nodes = np.flatnonzero(geo.inside)
    A = system.A
    levels = []
    while A.shape[0] > COARSEST:
        coords = np.unravel_index(nodes, shape)
        shape = (shape + 1) // 2
        parent = np.ravel_multi_index(tuple(c // 2 for c in coords), shape)
        nodes, agg = np.unique(parent, return_inverse=True)
        P = sp.csr_matrix((np.ones(agg.size), agg, np.arange(agg.size + 1)),
                          shape=(agg.size, nodes.size))
        levels.append((A, _l1_scale(A), agg))
        A = P.T.tocsr() @ A @ P  # all csr, so no product converts a copy of A
    dense = A.toarray()
    # an overflowed stencil gets a non-finite coarse solve, not an SVD error:
    # the loop then stops at its first non-finite residual norm
    coarsest = (np.linalg.pinv(dense) if np.isfinite(dense).all()
                else np.full_like(dense, np.nan))

    # no closure refers to itself, so the hierarchy is freed with the last
    # reference to the preconditioner, not at the next garbage collection
    return lambda v: _cycle(levels, coarsest, v)


def _cycle(levels, coarsest, b, level=0):
    """One V-cycle from `level` down on b, with zero initial guess."""
    if level == len(levels):
        return coarsest @ b
    A, m, agg = levels[level]
    x = b / m
    x += (b - A @ x) / m
    coarse = np.bincount(agg, weights=b - A @ x)
    x += OVERCORRECTION * _cycle(levels, coarsest, coarse, level + 1)[agg]
    for _ in range(2):
        x += (b - A @ x) / m
    return x


def solve(system, tol=1e-10, max_iter=20000):
    """Solve A u = b; returns (ScalarField, SolveReport).

    Raises NoConvergence (best iterate and report attached) when the
    certified relative residual misses 10 * tol within max_iter, and
    BreakdownDetected when BiCGStab breaks down twice.
    """
    A, b = system.A, system.b
    n = b.shape[0]
    b_norm = np.linalg.norm(b)
    if b_norm == 0.0:
        report = SolveReport("none", 0, 0.0, True, n)
        return system.field_from_vector(np.zeros(n)), report

    method = "bicgstab"
    # an overflow needs no warning: the first non-finite residual norm stops
    # the loop, and the certified residual names the failure
    with np.errstate(over="ignore", invalid="ignore"):
        precond = _vcycle(system) if system.grid.k == 1 else _jacobi(A)
        x, iterations, broke_down = _bicgstab(A, b, precond, np.zeros(n), tol * b_norm, max_iter)
        if broke_down:  # restart once from the current iterate
            x0 = x if np.all(np.isfinite(x)) else np.zeros(n)
            x, more, broke_down = _bicgstab(A, b, precond, x0, tol * b_norm, max_iter)
            iterations += more
        residual = float(np.linalg.norm(A @ x - b) / b_norm)  # certified on the original system
    converged = residual <= 10.0 * tol and not broke_down
    report = SolveReport(
        method=method,
        iterations=iterations,
        final_relative_residual=residual,
        converged=converged,
        n_unknowns=n,
    )
    fld = system.field_from_vector(x)
    if broke_down:
        raise BreakdownDetected("BiCGStab broke down twice", best=fld, report=report)
    if not converged:
        text = (f"{method} stopped at relative residual {residual:.3e} "
                f"after {iterations} iterations (target {tol:.1e})")
        if not np.isfinite(A.data).all():
            text += ": the assembled matrix holds non-finite entries"
        raise NoConvergence(text, best=fld, report=report)
    return fld, report
