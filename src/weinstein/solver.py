"""Krylov solution of the assembled systems.

Preconditioned BiCGStab (van der Vorst, SIAM J. Sci. Stat. Comput. 13
(1992) 631-644), written out as scipy's `bicgstab` runs it.  Cut rows
make A nonsymmetric in the weighted inner product of the scheme, so one
nonsymmetric method serves every system, including the rare ones without
cut rows (a box whose faces sit on grid nodes).  The loop stops at the
first residual norm that is not finite.

Every shape is mirror-symmetric about its centre in each y_j, and so are
the torsion data and the calibration quartic, so `solve` folds A onto the
fundamental rows, 1/2^k of the unknowns (`operator.SlotMatrix.fold`),
iterates there and unfolds x.  It folds over the axes on which A and b
equal their mirror images to within tol (`SlotMatrix.even_axes`, which
keeps A's half of that test on A), so data that are not even, and a
matrix built by hand that is not, solve unfolded.  A keeps its fold, so
a second solve on the same A over the same axes, such as the calibration
solve of `p_constancy` through `SparseSystem.with_data`, reuses it at
every k.  The figures below are on folded systems, under one BLAS
thread.  Both preconditioners scale rows by the l1-Jacobi scale
m = -sum_j |a_ij| (Baker, Falgout, Kolev & Yang, SIAM J. Sci. Comput.
33(5) (2011)) and differ in k only:

- k = 1: an aggregation V-cycle (plain aggregation, Braess, Computing 55
  (1995)) smoothed by x += (b - A x) / m.  On the (1, 2) ellipsoid at
  a = 1 it takes 12, 13 and 17 iterations at h = 1/48, 1/96 and 1/192,
  where a diagonal scale's count doubles with each halving of h (205,
  395 and 920).  The levels are built once per matrix and kept on the
  fold (`SlotMatrix.levels`); at h = 1/96 fold and levels hold 1.6 MB
  beside A.
- k >= 2: v -> v / m alone.  Those solves take tens of iterations, and
  the V-cycle costs more than it saves (k = 2, h = 1/20: 2 + 8 ms
  against 8 ms; k = 3, h = 1/10: 1 + 8 ms against 5 ms).  Every row is
  in flux form in r (`operator._r_flux`), so A keeps the M-matrix sign
  pattern at every a, and a large a needs no more iterations than a small
  one: the unit ball at k = 2, h = 1/32 takes about 50 at a = 200.

Every level of the V-cycle keeps its operator in the slot layout of A
(see `operator.SlotMatrix`), so the solver needs numpy alone.  There is
no sparse LU: on the k = 1, h = 1/96 ellipsoid scipy's `splu` fills L + U
with 2.1 million nonzeros, 32 MB, half the 65 MB that the whole `verify`
run peaked at when scipy was imported.  The coarsest level is banded in
lattice order, and a band LU on ufuncs and vector-matrix contractions
inverts it exactly (`_band_inverse`), so a solve calls no LAPACK
routine, whose first call would page in several MB, and the inverse's
bits do not depend on the BLAS thread count.

The returned residual is recomputed from the original, unfolded system at exit
(never trusted from the iteration), so a report cannot claim more than
the returned field delivers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BreakdownDetected, NoConvergence
from .operator import SlotMatrix, slot_product

BREAKDOWN_TOL = np.finfo(float).eps ** 2  # floor on |rho| and |omega|, as in scipy
COARSEST = 256  # unknowns at which the V-cycle stops coarsening and inverts exactly
OVERCORRECTION = 1.5  # scale of the V-cycle's coarse correction


@dataclass(frozen=True)
class SolveReport:
    method: str
    iterations: int
    final_relative_residual: float
    converged: bool
    n_unknowns: int


def _norm(v):
    """Euclidean norm of a 1-D float array: the sqrt of its dot product, bit
    for bit what np.linalg.norm returns, without that call's overhead.  Every
    norm of the solver is taken here."""
    return math.sqrt(np.dot(v, v))


def _bicgstab(A, b, precond, x, atol, max_iter):
    """BiCGStab with the preconditioner `precond` (v -> approximate A^-1 v)
    from x (updated in place) until the residual norm falls below atol;
    returns (x, full iterations completed, whether it broke down)."""
    r = b - A @ x if x.any() else b.copy()
    rtilde = r.copy()
    for it in range(max_iter):
        r_norm = _norm(r)
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
        if _norm(r) < atol:
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


def _l1_scale(values):
    """-sum_j |a_ij| for each row of a matrix in slot layout, summed slot by
    slot (the order a CSR product of |A| with ones sums in); a zero or NaN
    sum becomes -1, which is 1 on -A: the run is that of -A u = -b."""
    m = -np.abs(values).sum(axis=0)
    return np.where(np.abs(m) > 0, m, -1.0)


def _coarsen(values, columns, agg, n_coarse):
    """P^T A P in slot layout for the 0/1 aggregation P given by `agg`.

    A fine entry whose column lies in its row's own aggregate feeds the
    coarse diagonal; any other lies in the coarse neighbour in the same
    direction, so it keeps its slot.  An empty coarse slot holds 0 and the
    row's own index."""
    width = values.shape[0]
    to = agg[columns]
    slot = np.where(to == agg, width // 2, np.arange(width)[:, None])
    coarse = np.bincount((slot * n_coarse + agg).ravel(), weights=values.ravel(),
                         minlength=width * n_coarse).reshape(width, n_coarse)
    coarse_columns = np.tile(np.arange(n_coarse), (width, 1))
    coarse_columns[slot, agg] = to
    return coarse, coarse_columns


def _band_inverse(dense, bw):
    """The inverse of `dense`, whose nonzeros lie within bw of the diagonal,
    by Gaussian elimination with partial pivoting within the band (Golub &
    Van Loan, Matrix Computations, 4th ed., section 4.3).  It runs on
    ufuncs, slices and vector-matrix contractions (`np.einsum`) alone, so
    no LAPACK or BLAS routine runs and its bits do not depend on the
    thread count.  A zero pivot gives non-finite entries, not an error.

    Step j swaps rows j and p (|p - j| <= bw) from column j on and stores
    its multipliers l_j below the diagonal, as LAPACK's band LU does, so
    U = M_{n-2} ... M_0 A with M_j = (I - l_j e_j^T) P_j; U's band above
    the diagonal is bw plus the farthest swap, at most 2 bw.  W = U^-T is
    solved row by row, and W <- M_j^T W for j from the last step down (row
    j less l_j times the rows below it, then the swap) leaves W = A^-T."""
    n = dense.shape[0]
    lu, pivots = dense.copy(), np.arange(n)
    spread = 0  # the farthest row swap so far
    for j in range(n - 1):
        end = min(n, j + bw + 1)
        column = lu[j:end, j]
        p = j + int(np.abs(column).argmax())
        if p != j:
            spread = max(spread, p - j)
            lu[[j, p], j:] = lu[[p, j], j:]
            pivots[j] = p
        multipliers = column[1:]
        multipliers /= column[0]
        right = j + bw + spread + 1
        lu[j + 1:end, j + 1:right] -= np.multiply.outer(multipliers, lu[j, j + 1:right])
    w = np.eye(n)
    for i in range(n):
        top = max(0, i - bw - spread)
        w[i, :i] -= np.einsum("k,kc->c", lu[top:i, i], w[top:i, :i])
        w[i, :i + 1] /= lu[i, i]
    for j in range(n - 2, -1, -1):
        end = j + bw + 1
        w[j] -= np.einsum("k,kc->c", lu[j + 1:end, j], w[j + 1:end])
        if pivots[j] != j:
            w[[j, pivots[j]]] = w[[pivots[j], j]]
    return w.T.copy()


def _hierarchy(A):
    """The V-cycle's levels for A on the active nodes of its table's lattice
    mask `inside`: a list of (values, columns, l1 scale, aggregate of each
    row) from A down, and the inverse of the coarsest operator
    (`_band_inverse`, on the band its slot columns span).  Nothing in it
    refers to A.  Each level's nodes are sorted lattice indices
    (`np.unique`), so a node's neighbours along the last axis are the next
    and previous rows, as `slot_product` reads them, and the coarsest
    operator is banded: at h = 1/96 on the (1, 2) ellipsoid it has 240
    rows and bandwidth 24."""
    shape = np.array(A.table.inside.shape)
    nodes = np.flatnonzero(A.table.inside)
    values, columns = A.values, A.table.columns
    levels = []
    while values.shape[1] > COARSEST:
        coords = np.unravel_index(nodes, shape)
        shape = (shape + 1) // 2
        parent = np.ravel_multi_index(tuple(c // 2 for c in coords), shape)
        nodes, agg = np.unique(parent, return_inverse=True)
        levels.append((values, columns, _l1_scale(values), agg))
        values, columns = _coarsen(values, columns, agg, nodes.size)
    rows = np.arange(nodes.size)
    dense = np.zeros((nodes.size, nodes.size))
    np.add.at(dense, (rows, columns), values)
    # an overflowed stencil or a zero pivot gets a non-finite coarse solve:
    # the loop then stops at its first non-finite residual norm
    if not np.isfinite(dense).all():
        return levels, np.full_like(dense, np.nan)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return levels, _band_inverse(dense, int(np.abs(columns - rows).max()))


def _preconditioned(system, tol):
    """The matrix a solve of `system` to tol iterates on, A folded over
    the axes on which A and b are even (A itself over none), and its
    preconditioner: the V-cycle at k = 1, v -> v / m at k >= 2, with m the
    l1 scale `_l1_scale` that the V-cycle's finest level smooths with.

    The aggregation V-cycle for the folded matrix F as v -> ~F^-1 v: each
    coarse unknown is one 2 x ... x 2 block of F's lattice nodes (index
    halved on every axis; a folded axis counts from its mirror plane)
    holding at least one row; the coarse operator is P^T F P for the 0/1
    aggregation P, kept as the aggregate index `agg` of each node (P^T r
    sums r over each aggregate, P y copies y to its members).  Levels stop
    at COARSEST unknowns, whose operator's exact inverse, from a band LU
    without LAPACK (`_band_inverse`), is the bottom solve.  The smoother
    is l1-Jacobi, x += (b - F x) / m with m = -sum_j |f_ij|: one sweep
    before the coarse correction (after x = b / m), two after it.  The
    piecewise-constant P undershoots smooth errors, so the coarse
    correction is scaled by OVERCORRECTION; unscaled, the ellipsoid counts
    in the module docstring are 14, 20 and 30.  F is kept on A and the
    levels on F (`SlotMatrix.levels`), for later solves over the same axes.
    """
    folded = system.A.fold(system.A.even_axes(system.b, tol))
    if system.grid.k > 1:
        m = _l1_scale(folded.values)
        return folded, lambda v: v / m
    if folded.levels is None:
        folded.levels = _hierarchy(folded)
    levels, coarsest = folded.levels
    return folded, lambda v: _cycle(levels, coarsest, v)


def _cycle(levels, coarsest, b, level=0):
    """One V-cycle from `level` down on b, with zero initial guess."""
    if level == len(levels):
        return coarsest @ b
    values, columns, m, agg = levels[level]
    x = b / m
    x += (b - slot_product(values, columns, x)) / m
    coarse = np.bincount(agg, weights=b - slot_product(values, columns, x))
    x += OVERCORRECTION * _cycle(levels, coarsest, coarse, level + 1)[agg]
    for _ in range(2):
        x += (b - slot_product(values, columns, x)) / m
    return x


def solve(system, tol=1e-10, max_iter=20000):
    """Solve A u = b; returns (ScalarField, SolveReport).

    BiCGStab runs on A folded over the mirror axes on which A and b are
    even and on the fundamental rows of b, to the relative tolerance tol,
    and one gather unfolds x; the residual is certified on the original A
    and b, and the report counts the original unknowns.  Raises
    NoConvergence (best iterate, unfolded, and report attached) when the
    certified relative residual misses 10 * tol within max_iter, and
    BreakdownDetected when BiCGStab breaks down twice.
    """
    A, b = system.A, system.b
    n = b.shape[0]
    b_norm = _norm(b)
    if b_norm == 0.0:
        report = SolveReport("none", 0, 0.0, True, n)
        return system.field_from_vector(np.zeros(n)), report

    method = "bicgstab"
    # an overflow needs no warning: the first non-finite residual norm stops
    # the loop, and the certified residual names the failure
    with np.errstate(over="ignore", invalid="ignore"):
        folded, precond = _preconditioned(system, tol)
        b_fold = b[folded.table.rows]
        atol = tol * _norm(b_fold)
        x, iterations, broke_down = _bicgstab(folded, b_fold, precond,
                                              np.zeros(b_fold.size), atol, max_iter)
        if broke_down:  # restart once from the current iterate, within max_iter in all
            x0 = x if np.all(np.isfinite(x)) else np.zeros(b_fold.size)
            x, more, broke_down = _bicgstab(folded, b_fold, precond, x0, atol,
                                            max_iter - iterations)
            iterations += more
        x = x[folded.table.unfold]
        residual = _norm(A @ x - b) / b_norm  # certified on the original system
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
        if not np.isfinite(A.values).all():
            text += ": the assembled matrix holds non-finite entries"
        raise NoConvergence(text, best=fld, report=report)
    return fld, report
