"""Krylov layer tests: one BiCGStab path, determinism, certified residuals,
and the failure contract (best iterate always attached).

`_scipy_reference` is the path `solve` used to take through scipy:
`bicgstab` on -A with the Jacobi preconditioner as a `LinearOperator`
and the iterations counted by a callback.  The written-out loop must
reproduce its solutions bit for bit, with the same iteration counts, under
Jacobi and under the k = 1 V-cycle.
"""

import os
import subprocess
import sys

import numpy as np
import pytest
import scipy
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import weinstein
from weinstein import (
    Ball,
    Box,
    BreakdownDetected,
    Ellipsoid,
    NoConvergence,
    SparseSystem,
    StaggeredGrid,
    WeinsteinParams,
    assemble_torsion_system,
    grid_geometry,
    solve,
)
from weinstein import solver as solver_module

_SCIPY_VERSION = tuple(int(p) for p in scipy.__version__.split(".")[:2])


def _ball_system(h=1.0 / 16, a=1.0, k=1):
    params = WeinsteinParams(a=a, k=k)
    dom = Ball(1.0, center=(0.0,) * k)
    grid = StaggeredGrid.from_domain(dom, h)
    return assemble_torsion_system(dom, grid, params)


def _diagonal_system():
    # hand-built SPD case (after the solver's sign flip): A = -I
    sys0 = _ball_system(h=1.0 / 8)
    n = sys0.n
    return SparseSystem(
        A=(-sp.identity(n)).tocsr(),
        b=np.linspace(-1.0, 1.0, n),
        domain=sys0.domain,
        grid=sys0.grid,
        params=sys0.params,
        dirichlet=0.0,
    )


def test_symmetric_diagonal_system_solves_by_bicgstab():
    system = _diagonal_system()
    u, report = solve(system, tol=1e-12)
    assert report.method == "bicgstab"
    assert report.iterations <= 2  # Jacobi and the V-cycle solve -I exactly
    assert report.converged
    assert np.allclose(u.active_values(), -system.b, atol=1e-14)


def test_cut_rows_break_symmetry_and_route_to_bicgstab():
    system = _ball_system()
    u, report = solve(system)
    assert report.method == "bicgstab"
    assert report.converged
    assert report.n_unknowns == system.n
    assert report.wall_time >= 0.0


@pytest.mark.parametrize("a", [0.0, 1.0])
def test_grid_aligned_box_solves_by_bicgstab(a):
    # faces at 4.5 h: every cut arm has theta = 1, so the rows are symmetric
    params = WeinsteinParams(a=a, k=1)
    dom = Box((1.125, 1.125))
    grid = StaggeredGrid.from_domain(dom, 1.0 / 4)
    system = assemble_torsion_system(dom, grid, params)
    u, report = solve(system)
    assert report.method == "bicgstab"
    assert report.converged
    x = u.active_values()
    res = float(np.linalg.norm(system.A @ x - system.b) / np.linalg.norm(system.b))
    assert res <= 10.0 * 1e-10
    direct = spla.spsolve(system.A.tocsc(), system.b)
    assert np.max(np.abs(x - direct)) <= 1e-9 * np.max(np.abs(direct))


def test_zero_rhs_short_circuits():
    system = _diagonal_system()
    zeroed = SparseSystem(
        A=system.A, b=np.zeros(system.n), domain=system.domain, grid=system.grid,
        params=system.params, dirichlet=0.0,
    )
    u, report = solve(zeroed)
    assert report.method == "none"
    assert report.iterations == 0
    assert report.converged
    assert np.all(u.active_values() == 0.0)


def test_repeated_solves_are_bit_identical():
    a = solve(_ball_system())[0].active_values()
    b = solve(_ball_system())[0].active_values()
    assert np.array_equal(a, b)


def test_certified_residual_matches_manual_recomputation():
    system = _ball_system()
    u, report = solve(system)
    x = u.active_values()
    res = float(np.linalg.norm(system.A @ x - system.b) / np.linalg.norm(system.b))
    assert report.final_relative_residual == pytest.approx(res, rel=1e-12, abs=0.0)
    assert res <= 10.0 * 1e-10


def test_no_convergence_carries_best_iterate_and_report():
    system = _ball_system()
    with pytest.raises(NoConvergence) as err:
        solve(system, tol=1e-14, max_iter=1)
    exc = err.value
    assert exc.best is not None
    assert exc.report is not None
    assert not exc.report.converged
    assert exc.report.iterations <= 1
    geo = grid_geometry(system.domain, system.grid)
    assert exc.best.values.shape == system.grid.shape
    assert np.all(np.isfinite(exc.best.values[geo.inside]))


def _scipy_reference(system, precond=None, tol=1e-10, max_iter=20000):
    """(solution, iterations) of scipy's bicgstab on -A, Jacobi-preconditioned,
    or preconditioned by v -> precond(-v) given a preconditioner of A."""
    A_neg = (-system.A).tocsr()
    if precond is None:
        d = A_neg.diagonal()
        d = np.where(np.abs(d) > 0, d, 1.0)
        M = spla.LinearOperator(A_neg.shape, matvec=lambda x: x / d)
    else:
        M = spla.LinearOperator(A_neg.shape, matvec=lambda x: precond(-x))
    count = [0]

    def cb(xk):
        count[0] += 1

    x, info = spla.bicgstab(A_neg, -system.b, rtol=tol, atol=0.0, maxiter=max_iter,
                            M=M, callback=cb)
    assert info == 0
    return x, count[0]


_REFERENCE_CASES = [
    (Ellipsoid(semi_axes=(1.0, 2.0), center=(0.013,)), 1 / 96),
    (Ball(1.0, center=(0.0, 0.0)), 1 / 20),
    (Box(half_widths=(0.5, 0.75), center=(0.1,)), 1 / 32),
    (Ball(1.0, center=(0.0, 0.0, 0.0)), 1 / 10),
    (Ellipsoid(semi_axes=(1.0, 1.3, 0.8), center=(0.0, 0.0)), 1 / 12),
]
_needs_rtol = pytest.mark.skipif(
    _SCIPY_VERSION < (1, 12),
    reason="scipy.sparse.linalg.bicgstab takes rtol only from scipy 1.12")


def _reference_system(domain, h):
    params = WeinsteinParams(a=1.0, k=len(domain.center))
    return assemble_torsion_system(domain, StaggeredGrid.from_domain(domain, h), params)


@_needs_rtol
@pytest.mark.parametrize("domain,h", _REFERENCE_CASES)
def test_bicgstab_loop_reproduces_scipy_bit_for_bit(domain, h):
    system = _reference_system(domain, h)
    want, iterations = _scipy_reference(system)
    got, its, broke_down = solver_module._bicgstab(
        system.A, system.b, solver_module._jacobi(system.A), np.zeros(system.n),
        1e-10 * np.linalg.norm(system.b), 20000)
    assert not broke_down
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert its == iterations
    if system.grid.k > 1:  # solve keeps Jacobi there
        u, report = solve(system)
        assert u.active_values().tobytes() == want.tobytes()
        assert report.iterations == iterations


@_needs_rtol
@pytest.mark.parametrize("domain,h", [c for c in _REFERENCE_CASES if len(c[0].center) == 1])
def test_vcycle_loop_reproduces_scipy_bit_for_bit(domain, h):
    system = _reference_system(domain, h)
    want, iterations = _scipy_reference(system, solver_module._vcycle(system))
    u, report = solve(system)
    got = u.active_values()
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert report.iterations == iterations


def test_breakdown_raises_after_one_restart(monkeypatch):
    # skew 2x2 blocks with a zero diagonal: rtilde . v vanishes exactly at once
    # under Jacobi, which k = 2 keeps (the k = 1 V-cycle inverts them exactly)
    sys0 = _ball_system(h=1.0 / 8, k=2)
    n = sys0.n
    assert n % 2 == 0
    block = sp.csr_matrix(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    system = SparseSystem(
        A=sp.block_diag([block] * (n // 2), format="csr"),
        b=np.ones(n),
        domain=sys0.domain,
        grid=sys0.grid,
        params=sys0.params,
        dirichlet=0.0,
    )
    runs = []
    loop = solver_module._bicgstab

    def counted(*args):
        runs.append(1)
        return loop(*args)

    monkeypatch.setattr(solver_module, "_bicgstab", counted)
    with pytest.raises(BreakdownDetected) as err:
        solve(system)
    assert len(runs) == 2
    exc = err.value
    assert not exc.report.converged
    assert np.isfinite(exc.report.final_relative_residual)
    geo = grid_geometry(system.domain, system.grid)
    assert np.all(np.isfinite(exc.best.values[geo.inside]))


def test_vcycle_solves_the_large_a_ball():
    # Jacobi-BiCGStab overflows to NaN here
    system = _ball_system(h=1.0 / 32, a=20.0)
    u, report = solve(system)
    assert report.converged
    u_exact, _ = system.domain.exact_torsion(system.params)
    inside = u.geometry.inside
    assert np.max(np.abs(u.values[inside] - u_exact(u.grid.node_points()[inside]))) <= 1e-9


def test_vcycle_iterations_barely_grow_with_refinement():
    dom = Ellipsoid(semi_axes=(1.0, 2.0))
    its = {}
    for h in (1 / 48, 1 / 192):
        system = assemble_torsion_system(dom, StaggeredGrid.from_domain(dom, h),
                                         WeinsteinParams(a=1.0, k=1))
        its[h] = solve(system)[1].iterations
    assert 1 <= its[1 / 192] <= 2 * its[1 / 48]
    assert its[1 / 192] < 60


def test_import_leaves_scipy_linear_algebra_unloaded():
    # nor does a k = 1 solve, whose V-cycle needs only numpy and scipy.sparse
    code = ("import sys, weinstein\n"
            "dom = weinstein.Ball(1.0, center=(0.0,))\n"
            "system = weinstein.assemble_torsion_system(\n"
            "    dom, weinstein.StaggeredGrid.from_domain(dom, 1 / 32),\n"
            "    weinstein.WeinsteinParams(a=1.0, k=1))\n"
            "assert weinstein.solve(system)[1].iterations >= 1\n"
            "print([m for m in sys.modules "
            "if m.startswith(('scipy.sparse.linalg', 'scipy.linalg'))])")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(weinstein.__file__))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
