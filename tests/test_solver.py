"""Krylov layer tests: one BiCGStab path, determinism, certified residuals,
and the failure contract (best iterate always attached).

`_scipy_reference` is the path `solve` used to take through scipy:
`bicgstab` on a scipy copy of -A with a row scale as a `LinearOperator`
and the iterations counted by a callback.  The written-out loop must
reproduce its solutions bit for bit, with the same iteration counts,
under the l1 scale of the k >= 2 solves and under the k = 1 V-cycle.
scipy is a test reference only: the package runs on numpy alone.
"""

import dataclasses
import gc
import hashlib
import json
import os
import subprocess
import sys
import warnings
import weakref

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
    StaggeredGrid,
    WeinsteinParams,
    assemble_torsion_system,
    grid_geometry,
    run_experiment,
    solve,
)
from weinstein import operator as operator_module
from weinstein import solver as solver_module
from weinstein.geometry import MirrorFold
from weinstein.rigidity import CHECK_NAMES
from weinstein.operator import SlotMatrix

_SCIPY_VERSION = tuple(int(p) for p in scipy.__version__.split(".")[:2])


def _ball_system(h=1.0 / 16, a=1.0, k=1):
    params = WeinsteinParams(a=a, k=k)
    dom = Ball(1.0, center=(0.0,) * k)
    grid = StaggeredGrid.from_domain(dom, h)
    return assemble_torsion_system(dom, grid, params)


def _csr(A):
    """A scipy copy of a `SlotMatrix`."""
    return sp.csr_matrix((A.data, A.indices, A.indptr), shape=A.shape)


def _slot_system(sys0, slots, b):
    """sys0 with A replaced by the matrix whose slots hold `slots`
    ({slot: values}, every other slot zero), on sys0's neighbour table."""
    values = np.zeros(sys0.A.values.shape)
    for slot, vals in slots.items():
        values[slot] = vals
    return dataclasses.replace(sys0, A=SlotMatrix(values, sys0.A.table), b=b)


def _diagonal_system():
    # hand-built SPD case (after the solver's sign flip): A = -I
    sys0 = _ball_system(h=1.0 / 8)
    mid = sys0.A.values.shape[0] // 2
    return _slot_system(sys0, {mid: -1.0}, np.linspace(-1.0, 1.0, sys0.n))


def test_symmetric_diagonal_system_solves_by_bicgstab():
    system = _diagonal_system()
    u, report = solve(system, tol=1e-12)
    assert report.method == "bicgstab"
    assert report.iterations <= 2  # the V-cycle solves -I exactly
    assert report.converged
    assert np.allclose(u.active, -system.b, atol=1e-14)


def test_cut_rows_break_symmetry_and_route_to_bicgstab():
    system = _ball_system()
    u, report = solve(system)
    assert report.method == "bicgstab"
    assert report.converged
    assert report.n_unknowns == system.n


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
    x = u.active
    res = float(np.linalg.norm(system.A @ x - system.b) / np.linalg.norm(system.b))
    assert res <= 10.0 * 1e-10
    direct = spla.spsolve(_csr(system.A).tocsc(), system.b)
    assert np.max(np.abs(x - direct)) <= 1e-9 * np.max(np.abs(direct))


def test_zero_rhs_short_circuits():
    system = _diagonal_system()
    zeroed = dataclasses.replace(system, b=np.zeros(system.n))
    u, report = solve(zeroed)
    assert report.method == "none"
    assert report.iterations == 0
    assert report.converged
    assert np.all(u.active == 0.0)


def test_repeated_solves_are_bit_identical():
    a = solve(_ball_system())[0].active
    b = solve(_ball_system())[0].active
    assert np.array_equal(a, b)


def test_certified_residual_matches_manual_recomputation():
    system = _ball_system()
    u, report = solve(system)
    x = u.active
    res = float(np.linalg.norm(system.A @ x - system.b) / np.linalg.norm(system.b))
    assert report.final_relative_residual == pytest.approx(res, rel=1e-12, abs=0.0)
    assert res <= 10.0 * 1e-10


def test_no_convergence_carries_best_iterate_and_report():
    system = _ball_system(h=1.0 / 32)  # folded, h = 1/16 is one dense V-cycle solve
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


def _l1(A):
    """The k >= 2 preconditioner of A, v -> v / m for m = `_l1_scale(A.values)`."""
    m = solver_module._l1_scale(A.values)
    return lambda v: v / m


def _scipy_reference(A, b, precond=None, tol=1e-10, max_iter=20000):
    """(solution, iterations) of scipy's bicgstab on -A x = -b, scaled by
    the l1 row sums of -A (that is, by -m for m = `_l1_scale(A.values)`,
    with 1 for a zero or NaN sum), or preconditioned by v -> precond(-v)
    given a preconditioner of A."""
    A_neg = -_csr(A)
    if precond is None:
        d = abs(A_neg) @ np.ones(A_neg.shape[0])
        d = np.where(np.abs(d) > 0, d, 1.0)
        M = spla.LinearOperator(A_neg.shape, matvec=lambda x: x / d)
    else:
        M = spla.LinearOperator(A_neg.shape, matvec=lambda x: precond(-x))
    count = [0]

    def cb(xk):
        count[0] += 1

    x, info = spla.bicgstab(A_neg, -b, rtol=tol, atol=0.0, maxiter=max_iter,
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
    want, iterations = _scipy_reference(system.A, system.b)
    got, its, broke_down = solver_module._bicgstab(
        system.A, system.b, _l1(system.A), np.zeros(system.n),
        1e-10 * np.linalg.norm(system.b), 20000)
    assert not broke_down
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert its == iterations
    if system.grid.k > 1:  # solve scales by m alone there, on the folded system
        folded, _ = solver_module._preconditioned(system, 1e-10)
        assert folded.shape[0] * 2 ** system.grid.k == system.n
        want, iterations = _scipy_reference(folded, system.b[folded.table.rows])
        u, report = solve(system)
        assert u.active.tobytes() == want[folded.table.unfold].tobytes()
        assert report.iterations == iterations


@_needs_rtol
@pytest.mark.parametrize("domain,h", [c for c in _REFERENCE_CASES if len(c[0].center) == 1])
def test_vcycle_loop_reproduces_scipy_bit_for_bit(domain, h):
    system = _reference_system(domain, h)
    folded, precond = solver_module._preconditioned(system, 1e-10)
    assert folded.shape[0] * 2 == system.n
    want, iterations = _scipy_reference(folded, system.b[folded.table.rows], precond)
    u, report = solve(system)
    got = u.active
    want = want[folded.table.unfold]
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert report.iterations == iterations


def test_breakdown_raises_after_one_restart(monkeypatch):
    # skew 2x2 blocks with a zero diagonal: every l1 row sum is 1, and under
    # that scale, which k = 2 uses, rtilde . v vanishes exactly at once (the
    # k = 1 V-cycle inverts the blocks exactly)
    sys0 = _ball_system(h=1.0 / 8, k=2)
    n = sys0.n
    assert n % 2 == 0
    # row 2i holds +1 in column 2i + 1, row 2i + 1 holds -1 in column 2i:
    # the (yk,+) and (yk,-) slots, whose columns are the next and previous row
    mid = sys0.A.values.shape[0] // 2
    plus, minus = np.zeros(n), np.zeros(n)
    plus[0::2], minus[1::2] = 1.0, -1.0
    system = _slot_system(sys0, {mid + 1: plus, mid - 1: minus}, np.ones(n))
    block = sp.csr_matrix(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    x = np.arange(1.0, n + 1.0)
    assert np.array_equal(system.A @ x, sp.block_diag([block] * (n // 2)) @ x)
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
    # BiCGStab scaled by the diagonal overflows to NaN here
    system = _ball_system(h=1.0 / 32, a=20.0)
    u, report = solve(system)
    assert report.converged
    u_exact, _ = system.domain.exact_torsion(system.params)
    inside = u.geometry.inside
    assert np.max(np.abs(u.values[inside] - u_exact(u.grid.node_points()[inside]))) <= 1e-9


@pytest.mark.parametrize("k,a,h", [(2, 40.0, 1 / 16), (2, 80.0, 1 / 16), (3, 200.0, 1 / 10)])
def test_large_a_balls_solve_at_k_two_and_three(k, a, h):
    # beside the axis these rows are not diagonally dominant (at a = 40, k = 2
    # an absolute row sum is 5.9 times its diagonal), and BiCGStab scaled by
    # the diagonal overflows to NaN or breaks down twice; the l1 scale solves
    system = _ball_system(h=h, a=a, k=k)
    u, report = solve(system)
    assert report.converged
    x = u.active
    res = float(np.linalg.norm(system.A @ x - system.b) / np.linalg.norm(system.b))
    assert report.final_relative_residual == res
    assert res <= 10.0 * 1e-10


@pytest.mark.parametrize("k,h", [(1, 1 / 32), (2, 1 / 16), (3, 1 / 8)])
def test_both_preconditioners_read_one_l1_scale(k, h):
    system = _ball_system(h=h, k=k)
    folded, precond = solver_module._preconditioned(system, 1e-10)
    m = solver_module._l1_scale(folded.values)
    if k == 1:  # the V-cycle's finest level smooths with m
        levels, _ = folded.levels
        assert levels[0][2].tobytes() == m.tobytes()
    else:  # v -> v / m
        v = np.random.default_rng(k).standard_normal(folded.shape[0])
        assert precond(v).tobytes() == (v / m).tobytes()


@pytest.mark.parametrize("k,h", [(1, 1 / 32), (2, 1 / 16), (3, 1 / 8)])
def test_one_fold_is_built_per_matrix_and_freed_with_it(monkeypatch, k, h):
    built = []

    def counted(table, axes):
        built.append(MirrorFold(table, axes))
        return built[-1]

    monkeypatch.setattr(operator_module, "MirrorFold", counted)
    system = _ball_system(h=h, k=k)
    solve(system)
    solve(system.with_data(-2.0, 0.0))  # the calibration solve's path
    folded = system.A.fold(tuple(range(1, k + 1)))
    assert len(built) == 1 and folded.table is built[0]
    assert folded.shape[0] * 2 ** k == system.n
    assert system.A.levels is None
    if k == 1:  # the V-cycle's levels, built on the fold
        levels, _ = folded.levels
        assert levels[0][0] is folded.values and levels[0][1] is folded.table.columns
        del levels
    else:  # the l1 scale alone
        assert folded.levels is None
    refs = [weakref.ref(obj) for obj in (system.A, folded, folded.table)]
    del built, folded
    gc.disable()
    try:
        del system
        # freed by reference counting: no cycle holds them
        assert [ref() for ref in refs] == [None, None, None]
    finally:
        gc.enable()


@pytest.mark.parametrize("k,h", [(1, 1 / 32), (2, 1 / 16), (3, 1 / 8)])
def test_a_fold_is_laid_out_slot_major_like_a(k, h):
    system = _ball_system(h=h, k=k)
    folded = system.A.fold(tuple(range(1, k + 1)))
    for got, like in ((folded.values, system.A.values),
                      (folded.table.columns, system.A.table.columns)):
        assert got.shape == (like.shape[0], folded.shape[0])
        assert got.flags.c_contiguous and like.flags.c_contiguous


def test_max_iter_caps_a_solve_that_restarts(monkeypatch):
    caps = []

    def breaks_down_once(A, b, precond, x, atol, max_iter):
        caps.append(max_iter)
        if len(caps) == 1:
            return x, max_iter - 1, True  # a breakdown one iteration short of the cap
        return x, max_iter, False  # the restart runs out of iterations

    monkeypatch.setattr(solver_module, "_bicgstab", breaks_down_once)
    with pytest.raises(NoConvergence) as err:
        solve(_ball_system(h=1.0 / 8, k=2), max_iter=50)
    assert caps == [50, 1]
    assert err.value.report.iterations == 50


def _full_solve(system, tol):
    """x of `_bicgstab` on the whole system, with the preconditioner solve
    builds for an unfolded matrix of its k."""
    A = system.A
    if system.grid.k == 1:
        levels, coarsest = solver_module._hierarchy(A)
        precond = lambda v: solver_module._cycle(levels, coarsest, v)  # noqa: E731
    else:
        precond = _l1(A)
    x, _, broke_down = solver_module._bicgstab(
        A, system.b, precond, np.zeros(system.n), tol * np.linalg.norm(system.b), 20000)
    assert not broke_down
    return x


@pytest.mark.parametrize("domain,h", [
    (Ellipsoid(semi_axes=(1.0, 1.3, 0.8), center=(0.1, -0.05)), 1 / 16),
    (Ellipsoid(semi_axes=(1.0, 2.0)), 1 / 48),
])
def test_folded_and_full_solves_agree(domain, h):
    system = _reference_system(domain, h)
    assert system.A.even_axes(system.b, 1e-10) == tuple(range(1, domain.k + 1))
    folded, _ = solver_module._preconditioned(system, 1e-10)
    assert folded.shape[0] * 2 ** domain.k == system.n
    u, report = solve(system)
    x = u.active
    want = _full_solve(system, 1e-12)
    assert np.max(np.abs(x - want)) <= 1e-9 * np.max(np.abs(want))
    assert report.n_unknowns == system.n
    # certified on the full system, not the folded one
    res = float(np.linalg.norm(system.A @ x - system.b) / np.linalg.norm(system.b))
    assert report.final_relative_residual == res
    assert res <= 10.0 * 1e-10


@pytest.mark.parametrize("k,h", [(1, 1 / 24), (2, 1 / 16), (3, 1 / 8)])
def test_a_folded_solve_is_even_bit_for_bit_across_each_mirror_axis(k, h):
    """One gather unfolds x, so mirror images hold the same float; the CSV
    writer formats u once per mirror class on the strength of this."""
    domain = Ball(1.0, center=(0.03,) + (0.0,) * (k - 1))
    system = assemble_torsion_system(domain, StaggeredGrid.from_domain(domain, h),
                                     WeinsteinParams(a=1.0, k=k))
    table = system.A.table
    assert table.mirror_axes == tuple(range(1, k + 1))
    u, _ = solve(system)
    bits = u.active.view(np.int64)
    for axis in table.mirror_axes:
        assert np.array_equal(bits, bits[table.mirror(axis)])


@pytest.mark.parametrize("size", [0, 1, 7, 4194, 100_003])
def test_norm_is_linalg_norm_bit_for_bit(size):
    rng = np.random.default_rng(size)
    # many draws at unit scale: another summation order differs in the
    # last bit on about a third of them; then underflow and overflow
    for scale in (1.0,) * 50 + (1e-160, 1e-10, 1e150, 1e160):
        v = scale * rng.standard_normal(size)
        with np.errstate(over="ignore"):
            got, want = solver_module._norm(v), np.linalg.norm(v)
        assert np.float64(got).tobytes() == want.tobytes()


@pytest.mark.parametrize("k", [1, 2])
def test_data_that_are_not_even_are_solved_unfolded(k):
    sys0 = _ball_system(h=1.0 / 16, k=k)
    axes = tuple(range(1, k + 1))
    assert sys0.A.even_axes(sys0.b, 1e-10) == axes  # constant data are even

    def even(pts):
        return -1.0 - np.sum(pts[..., 1:] ** 2, axis=-1)

    def odd_in_y1(pts):
        return -1.0 - 0.5 * pts[..., 1]

    assert sys0.A.even_axes(sys0.with_data(even, 0.0).b, 1e-10) == axes
    system = sys0.with_data(odd_in_y1, 0.0)
    assert system.A.even_axes(system.b, 1e-10) == axes[1:]
    u, _ = solve(system)
    if k == 1:  # y1 is the only mirror axis: nothing folds
        assert system.A.fold(()) is system.A
        assert u.active.tobytes() == _full_solve(system, 1e-10).tobytes()
    else:  # folded over y2 alone
        folded, _ = solver_module._preconditioned(system, 1e-10)
        assert folded.shape[0] * 2 == system.n
        want = _full_solve(system, 1e-12)
        assert np.max(np.abs(u.active - want)) <= 1e-9 * np.max(np.abs(want))


def test_a_hand_built_matrix_that_is_not_even_is_solved_unfolded():
    # -(1 + y1^2 + y1) on the diagonal: its mirror image on y1 differs
    sys0 = _ball_system(h=1.0 / 16)
    y1 = sys0.grid.points_at(grid_geometry(sys0.domain, sys0.grid).inside)[:, 1]
    mid = sys0.A.values.shape[0] // 2
    system = _slot_system(sys0, {mid: -(1.0 + y1 ** 2 + y1)}, np.full(sys0.n, -1.0))
    assert system.A.even_axes(system.b, 1e-10) == ()
    u, _ = solve(system, tol=1e-12)
    assert u.active.tobytes() == _full_solve(system, 1e-12).tobytes()
    # without the odd term it is even, and folds
    even = _slot_system(sys0, {mid: -(1.0 + y1 ** 2)}, system.b)
    assert even.A.even_axes(even.b, 1e-10) == (1,)


def test_vcycle_iterations_barely_grow_with_refinement():
    dom = Ellipsoid(semi_axes=(1.0, 2.0))
    its = {}
    for h in (1 / 48, 1 / 192):
        system = assemble_torsion_system(dom, StaggeredGrid.from_domain(dom, h),
                                         WeinsteinParams(a=1.0, k=1))
        its[h] = solve(system)[1].iterations
    assert 1 <= its[1 / 192] <= 2 * its[1 / 48]
    assert its[1 / 192] < 60


def test_runs_import_no_scipy(tmp_path):
    # a full k = 1 battery (the V-cycle path) and a k = 2 sweep point (the
    # l1-scale path) in a fresh interpreter leave no scipy module loaded
    verify = {"params": {"a": 1.0, "k": 1},
              "domain": {"type": "ellipsoid", "semi_axes": [1.0, 2.0], "center": [0.01]},
              "grid": {"h": 1 / 16}, "output_dir": str(tmp_path / "verify")}
    sweep = {"params": {"a": 1.0, "k": 2},
             "domain": {"type": "ball", "radius": 1.0, "center": [0.0, 0.0]},
             "grid": {"h": 1 / 8}, "checks": [], "output_dir": str(tmp_path / "sweep"),
             "sweep": {"path": "params.a", "values": [0.5]}}
    for name, cfg in (("verify", verify), ("sweep", sweep)):
        (tmp_path / f"{name}.json").write_text(json.dumps(cfg))
    code = ("import sys, weinstein\n"
            "from weinstein.cli import main\n"
            f"assert main(['verify', '--config', {str(tmp_path / 'verify.json')!r}]) == 1\n"
            f"assert main(['sweep', '--config', {str(tmp_path / 'sweep.json')!r}]) == 0\n"
            "print([m for m in sys.modules if m.startswith('scipy')])")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(weinstein.__file__))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip().splitlines()[-1] == "[]"
    report = json.loads((tmp_path / "verify" / "report.json").read_text())
    assert report["solver"]["iterations"] >= 1
    assert not [c["name"] for c in report["checks"] if c["detail"].startswith("skipped")]
    assert (tmp_path / "sweep" / "run_000" / "u.csv").exists()


@pytest.mark.parametrize("bw", [0, 1, 3, 7, 20])
def test_band_inverse_pivots_on_any_nonsingular_band(bw):
    # small and zero diagonals force row swaps, and a row swapped down can
    # be swapped again at the next step, so U's band widens past bw
    rng = np.random.default_rng(bw)
    rows, cols = np.indices((60, 60))
    for diagonal in (1.0, 1e-3, 0.0):
        dense = np.where(np.abs(rows - cols) <= bw, rng.standard_normal((60, 60)), 0.0)
        dense[np.diag_indices(60)] *= diagonal
        if bw == 0 and diagonal == 0.0:
            continue  # singular
        want = np.linalg.inv(dense)
        got = solver_module._band_inverse(dense, bw)
        assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))


def _coarsest_operator(levels, n):
    """The dense operator whose inverse `_hierarchy` returns beside `levels`."""
    values, columns, _, agg = levels[-1]
    values, columns = solver_module._coarsen(values, columns, agg, n)
    dense = np.zeros((n, n))
    np.add.at(dense, (np.arange(n), columns), values)
    return dense


_COARSEST_DIGEST = """
import hashlib, sys
from weinstein import Ellipsoid, StaggeredGrid, WeinsteinParams, assemble_torsion_system
from weinstein import solver
dom = Ellipsoid(semi_axes=(1.0, 2.0))
system = assemble_torsion_system(dom, StaggeredGrid.from_domain(dom, 1 / 96),
                                 WeinsteinParams(a=1.0, k=1))
folded, _ = solver._preconditioned(system, 1e-10)
print(hashlib.sha1(folded.levels[1].tobytes()).hexdigest())
"""


def test_coarsest_inverse_does_not_depend_on_the_thread_count():
    # pinv's SVD split its work across OpenBLAS threads, and its bits moved
    # with their number; the band LU calls no BLAS
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(weinstein.__file__))}
    digests = set()
    for threads in ("1", "2"):
        out = subprocess.run([sys.executable, "-c", _COARSEST_DIGEST],
                             env={**env, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads},
                             capture_output=True, text=True, check=True)
        digests.add(out.stdout.strip())
    dom = Ellipsoid(semi_axes=(1.0, 2.0))
    system = _reference_system(dom, 1 / 96)
    folded, _ = solver_module._preconditioned(system, 1e-10)
    levels, coarsest = folded.levels
    digests.add(hashlib.sha1(coarsest.tobytes()).hexdigest())
    assert len(digests) == 1
    assert [level[0].shape[1] for level in levels] == [14479, 3652, 931]
    assert coarsest.shape == (240, 240)
    want = np.linalg.inv(_coarsest_operator(levels, 240))
    assert np.max(np.abs(coarsest - want)) <= 1e-12 * np.max(np.abs(want))


_LAPACK = ("pinv", "inv", "solve", "svd", "lstsq", "qr", "eig", "eigh", "cholesky", "det")


def test_a_k1_run_calls_no_lapack(monkeypatch):
    # the first LAPACK call of a process pages in several MB
    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK called")

    for name in _LAPACK:
        monkeypatch.setattr(np.linalg, name, refuse)
    report = run_experiment(Ellipsoid(semi_axes=(1.0, 2.0)), WeinsteinParams(a=1.0, k=1),
                            h=1.0 / 32)
    assert report.solver.converged
    assert [c.name for c in report.checks] == list(CHECK_NAMES)
    assert not [c.name for c in report.checks if c.detail.startswith("skipped")]


def test_a_singular_coarsest_level_fails_with_the_documented_payload():
    # all-zero values: every pivot of the coarsest level is zero
    sys0 = _ball_system(h=1.0 / 32)
    system = _slot_system(sys0, {}, np.ones(sys0.n))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        folded, _ = solver_module._preconditioned(system, 1e-10)
        levels, coarsest = folded.levels
        assert levels and not np.isfinite(coarsest).any()
        with pytest.raises((NoConvergence, BreakdownDetected)) as err:
            solve(system)
    exc = err.value
    assert exc.best is not None and exc.best.active.shape == (system.n,)
    assert not exc.report.converged
    assert exc.report.n_unknowns == system.n


def test_a_is_mirrored_once_per_matrix(monkeypatch):
    passes = []
    defect = operator_module._mirror_defect

    def counted(values, table, axis):
        passes.append(axis)
        return defect(values, table, axis)

    monkeypatch.setattr(operator_module, "_mirror_defect", counted)
    for k, h in ((1, 1 / 32), (2, 1 / 16)):
        del passes[:]
        system = _ball_system(h=h, k=k)
        solve(system)
        solve(system.with_data(-2.0, 0.0))  # the calibration solve's path
        assert passes == list(range(1, k + 1))
        solve(_ball_system(h=h, k=k))  # another matrix has its own
        assert passes == 2 * list(range(1, k + 1))
    # each call compares the kept defect with its own tol
    sys0 = _ball_system(h=1.0 / 16)
    y1 = sys0.grid.points_at(grid_geometry(sys0.domain, sys0.grid).inside)[:, 1]
    mid = sys0.A.values.shape[0] // 2
    del passes[:]
    system = _slot_system(sys0, {mid: -(1.0 + y1 ** 2 + 1e-6 * y1)}, np.full(sys0.n, -1.0))
    assert system.A.even_axes(system.b, 1e-10) == ()
    assert system.A.even_axes(system.b, 1e-3) == (1,)
    assert passes == [1]
