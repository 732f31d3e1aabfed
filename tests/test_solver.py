"""Krylov layer tests: one BiCGStab path, determinism, certified residuals,
and the failure contract (best iterate always attached)."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from weinstein import (
    Ball,
    Box,
    NoConvergence,
    SparseSystem,
    StaggeredGrid,
    WeinsteinParams,
    assemble_torsion_system,
    grid_geometry,
    solve,
)


def _ball_system(h=1.0 / 16, a=1.0):
    params = WeinsteinParams(a=a, k=1)
    dom = Ball(1.0)
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
    assert report.iterations <= 2  # Jacobi preconditioner solves -I exactly
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
