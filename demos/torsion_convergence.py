"""
Solve L_a u = -1 on the unit ball with u = 0 on the boundary and
compare against the closed form u = (R^2 - |x|^2)/(2N), N = a+1+k.

The closed form is an even quadratic, which the scheme reproduces to
solver precision, so the error column sits at the Krylov floor.  A
quartic manufactured solution is used to show the genuine order.
"""
import math

import numpy as np

from weinstein import (
    Ball,
    BesselWeights,
    PolyField,
    ScalarField,
    StaggeredGrid,
    WeinsteinParams,
    assemble_torsion_system,
    bessel_sum_apply,
    solve,
)

a, k = 1.0, 1
params = WeinsteinParams(a=a, k=k)
N = params.dim_eff
dom = Ball(1.0)

print(f"torsion problem on the unit ball, a={a}, k={k}, N={N}")
print(f"{'h':>8} {'max err':>12} {'iters':>6} {'residual':>10}")
for hinv in (8, 16, 32, 64):
    grid = StaggeredGrid.from_domain(dom, 1.0 / hinv)
    u, rep = solve(assemble_torsion_system(dom, grid, params))
    pts = grid.node_points()[u.geometry.inside]
    exact = (1.0 - np.sum(pts**2, axis=-1)) / (2 * N)
    err = np.max(np.abs(u.active - exact))
    print(f"{1.0/hinv:>8.4f} {err:>12.3e} {rep.iterations:>6d} "
          f"{rep.final_relative_residual:>10.2e}")

# manufactured quartic: v = rho^4 + rho^2, rhs = L_a v
nv = k + 1
rho2 = PolyField.variable(0, nv) ** 2
for m in range(k):
    rho2 = rho2 + PolyField.variable(1 + m, nv) ** 2
v = rho2 * rho2 + rho2
rhs_poly = bessel_sum_apply(v, BesselWeights.weinstein(params))

print("\nquartic manufactured solution (outside the exactness class)")
print(f"{'h':>8} {'max err':>12} {'order':>7}")
prev = None
for hinv in (8, 16, 32):
    grid = StaggeredGrid.from_domain(dom, 1.0 / hinv)
    sys_ = assemble_torsion_system(
        dom, grid, params,
        rhs=lambda q: rhs_poly.eval_float(q),
        dirichlet=lambda q: v.eval_float(q))
    w, _ = solve(sys_, tol=1e-11)
    exact = ScalarField.from_function(dom, grid, lambda q: v.eval_float(q))
    err = np.max(np.abs(w.active - exact.active))
    order = "" if prev is None else f"{math.log2(prev / err):7.2f}"
    print(f"{1.0/hinv:>8.4f} {err:>12.3e} {order:>7}")
    prev = err
