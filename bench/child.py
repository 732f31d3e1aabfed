"""One benchmark op in a fresh interpreter, so no geometry or stencil cache
survives from the previous op and peak RSS belongs to this op alone.

Usage: python child.py SPEC_JSON

The spec names the mode (`setup`, `untraced` or `traced`), the config
file and where to write the result.  The child is ready once
`import weinstein` and the config parse are done; the parent turns that
instant into `setup_s`.  The untraced op is `cmd_verify` or `cmd_sweep`
plus, for the sweep, the reload of one run's CSV.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time


def provenance():
    import ctypes
    import glob

    import numpy
    import scipy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    threads = None
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), "..",
                                  "numpy.libs", "libscipy_openblas*"))
    if libs:
        try:
            get = ctypes.CDLL(libs[0]).scipy_openblas_get_num_threads64_
            get.restype = ctypes.c_int
            threads = get()
        except (OSError, AttributeError):
            threads = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _cached_counts(points):
    """Counters of an untraced op, read after it from the caches it filled."""
    from weinstein import StaggeredGrid, assemble_torsion_system, grid_geometry

    counts = {"nodes": 0, "cut_nodes": 0, "nnz": 0}
    for domain, params, h in points:
        grid = StaggeredGrid.from_domain(domain, h)
        counts["nodes"] += grid.n_nodes
        counts["cut_nodes"] += int(grid_geometry(domain, grid).near.sum())
        counts["nnz"] += int(assemble_torsion_system(domain, grid, params).A.nnz)
    return counts


def _report_counts(out_dirs):
    counts = {"unknowns": 0, "torsion_iters": 0, "csv_bytes": 0}
    for d in out_dirs:
        with open(os.path.join(d, "report.json")) as fh:
            solver = json.load(fh)["solver"]
        counts["unknowns"] += solver["n_unknowns"]
        counts["torsion_iters"] += solver["iterations"]
        counts["csv_bytes"] += os.path.getsize(os.path.join(d, "u.csv"))
    return counts


def untraced_op(cfg, spec, workload):
    import dataclasses

    import numpy as np
    from weinstein import StaggeredGrid, WeinsteinParams, cli, field_from_csv

    import gate

    sweep = spec["command"] == "sweep"
    t0 = time.monotonic()
    try:
        if sweep:
            exit_code = cli.cmd_sweep(cfg)
            run_dir = os.path.join(cfg.output_dir, f"run_{spec['reload_run']:03d}")
            domain = cfg.build_domain()
            reloaded = field_from_csv(os.path.join(run_dir, "u.csv"),
                                      StaggeredGrid.from_domain(domain, cfg.h),
                                      domain, boundary_values=0.0)
        else:
            exit_code = cli.cmd_verify(cfg)
        error = None
    except Exception as exc:  # a raising op is a failed op, not a crash
        error = f"{type(exc).__name__}: {exc}"
    t1 = time.monotonic()
    out = {"op_s": t1 - t0,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if error is not None:
        out["problems"] = [error]
        return out
    out["exit_code"] = exit_code
    if sweep:
        params = WeinsteinParams(a=float(cfg.sweep_values[spec["reload_run"]]), k=cfg.k)
        out["problems"] = gate.sweep_problems(cfg.output_dir, exit_code, reloaded,
                                              spec["reload_run"], params)
        points = [dataclasses.replace(cfg, a=float(a)) for a in cfg.sweep_values]
        out_dirs = [os.path.join(cfg.output_dir, f"run_{i:03d}")
                    for i in range(len(points))]
        rows = int(np.count_nonzero(np.isfinite(reloaded.values)))
    else:
        out["problems"] = gate.verify_problems(workload, cfg.output_dir, exit_code)
        points, out_dirs = [cfg], [cfg.output_dir]
        with open(os.path.join(cfg.output_dir, "u.csv")) as fh:
            rows = sum(1 for _ in fh) - 1
        with open(os.path.join(cfg.output_dir, "report.json")) as fh:
            report = json.load(fh)
        out["values"] = {c["name"]: c["value"] for c in report["checks"]}
        out["extras"] = report["extras"]
    out["counts"] = {**_cached_counts([(p.build_domain(), p.build_params(), p.h)
                                       for p in points]),
                     **_report_counts(out_dirs), "csv_rows": rows}
    return out


def main():
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    import weinstein
    from weinstein import cli

    with open(spec["config"]) as fh:
        cfg = cli.RunConfig.parse(json.load(fh))
    result = {"ready": time.monotonic(), "module": weinstein.__file__}
    if spec["mode"] == "setup":
        result["provenance"] = provenance()
    elif spec["mode"] == "untraced":
        from workloads import WORKLOADS

        result.update(untraced_op(cfg, spec, WORKLOADS[spec["workload"]]))
    else:
        import traced

        result.update(traced.traced_op(cfg, spec))
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
