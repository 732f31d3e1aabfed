"""Benchmark of the weinstein CLI: cold `verify` / `sweep` operations.

Usage, from the repository root:

    python3 bench/run.py --workload ellipsoid_k1 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --quick        # all workloads at coarse sizes

A run is a closed loop with one op in flight: each op runs in a fresh
interpreter (see child.py), so geometry and stencil are built in full as
a user of the CLI pays for them.  With `--trace 0` the run reports the
end-to-end metrics; with `--trace 1` it alternates a traced op and an
untraced op on the same input and reports the per-layer metrics, the
tracing overhead, and whether the counters of the two agree exactly.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, op_input

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "weinstein" / "__init__.py"

# Fixed for every op: BiCGStab iteration counts depend on the BLAS thread
# count, which sets the order of the reductions.
BLAS_THREADS = 1
SETUP_PROBES = 3  # extra setup-only children per run, beside one per op
RUN_DEADLINE_S = 165.0  # a run must exit within 180 s

# per-layer time metric -> span name; sums per op, medians over ops
LAYER_TIMES = {
    "geometry.build_s": "geometry.build",
    "operator.assemble_s": "operator.assemble",
    "operator.csv_write_s": "operator.csv_write",
    "operator.csv_read_s": "operator.csv_read",
    "solver.torsion_s": "solver.torsion",
    "solver.calib_s": "solver.calib",
    "differential.gradient_s": "differential.gradient",
    "rigidity.boundary_stats_s": "rigidity.boundary_stats",
    "rigidity.energy_s": "rigidity.energy",
    "rigidity.flux_s": "rigidity.flux",
    "rigidity.pohozaev_s": "rigidity.pohozaev",
    "rigidity.p_integral_s": "rigidity.p_integral",
    "gamma.p_function_s": "gamma.p_function",
    "gamma.cd_battery_s": "gamma.cd_battery",
    "measure.mean_ladder_s": "measure.mean_ladder",
}
# per-layer counter metric -> counter key; taken from the run's first op,
# whose input depends on the seed alone
LAYER_COUNTS = {
    "geometry.nodes": ("nodes", "count"),
    "geometry.cut_nodes": ("cut_nodes", "count"),
    "operator.nnz": ("nnz", "count"),
    "operator.csv_bytes": ("csv_bytes", "bytes"),
    "operator.csv_rows": ("csv_rows", "count"),
    "solver.torsion_iters": ("torsion_iters", "count"),
    "solver.unknowns": ("unknowns", "count"),
    "solver.calib_iters": ("calib_iters", "count"),
    "solver.matvec_bytes": ("matvec_bytes", "bytes"),
}
# counters an untraced op also yields; traced and untraced must agree
SHARED_COUNTS = ("nodes", "cut_nodes", "nnz", "unknowns", "torsion_iters",
                 "csv_bytes", "csv_rows")


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    return env


class Runner:
    """Spawns children one at a time and collects their results."""

    def __init__(self, workload, seed, quick):
        self.workload = workload
        self.seed = seed
        self.quick = quick
        self.work = ROOT / ".bench_out" / f"work-{os.getpid()}"
        self.env = child_env()
        self.started = time.monotonic()
        self.n_children = 0

    def child(self, mode, index):
        """Run one child on op input `index`; returns its result dict."""
        inp = op_input(self.workload, self.seed, index, self.quick)
        op_dir = self.work / f"{self.n_children:04d}-{mode}"
        self.n_children += 1
        op_dir.mkdir(parents=True)
        config = dict(inp["config"], output_dir=str(op_dir / "out"))
        spec = {"mode": mode, "workload": self.workload.name,
                "command": inp["command"], "reload_run": inp["reload_run"],
                "op_id": f"{self.workload.name}/{self.seed}/{index}",
                "config": str(op_dir / "config.json"),
                "result": str(op_dir / "result.json")}
        (op_dir / "config.json").write_text(json.dumps(config))
        (op_dir / "spec.json").write_text(json.dumps(spec))
        timeout = max(1.0, RUN_DEADLINE_S - (time.monotonic() - self.started))
        res = {"mode": mode, "index": index}
        spawn = time.monotonic()
        try:
            with open(op_dir / "stderr.txt", "w") as err:
                proc = subprocess.run(
                    [sys.executable, str(HERE / "child.py"), str(op_dir / "spec.json")],
                    cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL,
                    stderr=err, timeout=timeout)
            wall = time.monotonic() - spawn
            if proc.returncode == 0:
                res.update(json.loads((op_dir / "result.json").read_text()))
                res["setup_s"] = res.pop("ready") - spawn
            else:
                tail = (op_dir / "stderr.txt").read_text().strip().splitlines()[-3:]
                res["problems"] = [f"child exited {proc.returncode}: {' | '.join(tail)}"]
        except subprocess.TimeoutExpired:
            wall = time.monotonic() - spawn
            res["problems"] = [f"child timed out after {timeout:.0f} s"]
        res.setdefault("op_s", wall)
        if "module" in res and not res["module"].startswith(str(ROOT / "src")):
            res.setdefault("problems", []).append(f"imported {res['module']}, not the checkout")
        shutil.rmtree(op_dir, ignore_errors=True)
        return res

    def elapsed(self):
        return time.monotonic() - self.started

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)


def tail_note(n):
    """Highest percentile with at least ten samples beyond it (guide: report
    the tail only where the sample count allows)."""
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            return p
    return None


def describe(name, values, unit, mean=False):
    """One metric line: the median (or the mean, with the median beside
    it), the sample count and the tail percentile where it is allowed."""
    if mean:
        line = (f"  {name:<28} {statistics.fmean(values):>14.6g} {unit:<6} mean, "
                f"median={statistics.median(values):.6g} n={len(values)}")
    else:
        line = f"  {name:<28} {statistics.median(values):>14.6g} {unit:<6} n={len(values)}"
    p = tail_note(len(values))
    if p is None:
        return line + "  (no tail percentile: fewer than 20 samples)"
    q = statistics.quantiles(values, n=100, method="inclusive")[p - 1]
    return line + f"  p{p}={q:.6g}"


def setup_samples(runner):
    """Warm-up child (discarded: fills bytecode and file caches that users
    do not pay for on every run), then SETUP_PROBES setup-only children."""
    warm = runner.child("setup", 0)
    samples = [runner.child("setup", 0) for _ in range(SETUP_PROBES)]
    return warm, samples


def loop(runner, seconds, step):
    """Closed loop: call step(index) until the next step would overrun."""
    index, walls = 0, []
    while True:
        t0 = runner.elapsed()
        step(index)
        walls.append(runner.elapsed() - t0)
        index += 1
        # past half the deadline one more slow op could break it
        if runner.elapsed() + statistics.median(walls) > seconds \
                or runner.elapsed() > RUN_DEADLINE_S / 2:
            return


def compare(a, b, keys):
    return [f"{k}: {a.get(k)} != {b.get(k)}" for k in keys if a.get(k) != b.get(k)]


def pair_drift(traced, untraced):
    """Counters and check values of a traced and an untraced op on the same
    input must agree exactly."""
    if traced.get("problems") or untraced.get("problems"):
        return []
    drift = compare(traced["counts"], untraced["counts"], SHARED_COUNTS)
    drift += compare(traced.get("values", {}), untraced.get("values", {}),
                     traced.get("values", {}).keys())
    drift += compare(traced.get("extras", {}), untraced.get("extras", {}),
                     traced.get("extras", {}).keys())
    return drift


def layer_metrics(traced_ops, pairs):
    ok = [t for t in traced_ops if not t.get("problems")]
    if not ok:
        return {}
    out = {}
    per_op = []
    for t in ok:
        spans = t["spans"]
        dur = {}
        for s in spans:
            dur[s["name"]] = dur.get(s["name"], 0.0) + s["end"] - s["start"]
        op = next(s for s in spans if s["name"] == "op")
        children = sum(s["end"] - s["start"] for s in spans if s["parent"] == op["id"])
        per_op.append((dur, op["end"] - op["start"], children))
    for metric, name in LAYER_TIMES.items():
        out[metric] = (statistics.median(d.get(name, 0.0) for d, _, _ in per_op), "s")
    first = ok[0]["counts"]
    for metric, (key, unit) in LAYER_COUNTS.items():
        out[metric] = (first.get(key, 0), unit)
    out["solver.s_per_iter"] = (statistics.median(
        d["solver.torsion"] / t["counts"]["torsion_iters"]
        for (d, _, _), t in zip(per_op, ok)), "s")
    out["trace.coverage"] = (statistics.median(c / w for _, w, c in per_op), "ratio")
    out["trace.op_s"] = (statistics.median(w for _, w, _ in per_op), "s")
    # the traced op's wall is its op span; an untraced op's is its op_s
    gaps = [next(s["end"] - s["start"] for s in t["spans"] if s["name"] == "op")
            - u["op_s"] for t, u in pairs
            if not t.get("problems") and not u.get("problems")]
    out["trace.overhead_s"] = (statistics.median(gaps) if gaps else 0.0, "s")
    return out


def traced_run(runner, seconds, repeat_first=False):
    """Pairs (traced op i, untraced op i); with repeat_first the first input
    is traced once more, so every counter is checked for repeatability."""
    traced_ops, pairs = [], []

    def step(i):
        t = runner.child("traced", i)
        u = runner.child("untraced", i)
        traced_ops.append(t)
        pairs.append((t, u))

    loop(runner, seconds, step)
    drift = []
    for t, u in pairs:
        drift += [f"op {t['index']} traced vs untraced: {d}" for d in pair_drift(t, u)]
    if repeat_first:
        again = runner.child("traced", 0)
        if not again.get("problems") and not traced_ops[0].get("problems"):
            keys = set(again["counts"]) | set(traced_ops[0]["counts"])
            drift += [f"op 0 traced twice: {d}"
                      for d in compare(traced_ops[0]["counts"], again["counts"], keys)]
        traced_ops.append(again)
    return traced_ops, pairs, drift


def write_spans(workload, seed, traced_ops, provenance):
    out = ROOT / ".bench_out" / f"spans-{workload.name}-seed{seed}.json"
    spans = [s for t in traced_ops for s in t.get("spans", [])]
    out.write_text(json.dumps({"workload": workload.name, "seed": seed,
                               "provenance": provenance, "spans": spans}, indent=1))
    return out


def machine(warm):
    info = dict(warm.get("provenance", {}))
    info["nproc"] = os.cpu_count()
    info["affinity"] = len(os.sched_getaffinity(0))
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    info["commit"] = commit
    return info


def run_workload(workload, seed, seconds, trace, quick=False):
    """One benchmark run; returns (correct, attempted, failed, metrics)."""
    runner = Runner(workload, seed, quick)
    try:
        warm, probes = setup_samples(runner)
        if warm.get("problems"):
            raise SystemExit(f"set-up failed: {'; '.join(warm['problems'])}")
        prov = machine(warm)
        if prov.get("blas_threads") not in (None, BLAS_THREADS):
            raise SystemExit(f"BLAS runs {prov['blas_threads']} threads, "
                             f"expected {BLAS_THREADS}")
        print(f"{workload.name} seed={seed} trace={trace} "
              + " ".join(f"{k}={v}" for k, v in prov.items()))
        drift = []
        if trace:
            traced_ops, pairs, drift = traced_run(runner, seconds, repeat_first=quick)
            ops = [op for pair in pairs for op in pair] + traced_ops[len(pairs):]
            print(f"  spans: {write_spans(workload, seed, traced_ops, prov)}")
        else:
            ops = []
            loop(runner, seconds, lambda i: ops.append(runner.child("untraced", i)))
    finally:
        runner.close()
    failed = [op for op in ops if op.get("problems")]
    for op in failed:
        print(f"  FAILED {op['mode']} op {op['index']}: {'; '.join(op['problems'])}")
    for d in drift:
        print(f"  NONDETERMINISM {d}")
    setups = [p["setup_s"] for p in probes + ops if "setup_s" in p]
    untraced = [op for op in ops if op["mode"] == "untraced"]
    if trace:
        metrics = layer_metrics([op for op in ops if op["mode"] == "traced"], pairs)
        for name, (value, unit) in metrics.items():
            print(f"  {name:<28} {value:>14.6g} {unit}")
    else:
        metrics = {}
        # the mean, not the median: per-op times on a shared host are
        # bimodal, and the median of a dozen ops jumps between the modes
        metrics["op_s"] = (statistics.fmean(op["op_s"] for op in untraced), "s")
        metrics["setup_s"] = (statistics.median(setups), "s")
        rss = [op["peak_rss_mb"] for op in untraced if "peak_rss_mb" in op]
        metrics["peak_rss_mb"] = (statistics.median(rss) if rss else 0.0, "MB")
        print(describe("op_s", [op["op_s"] for op in untraced], "s", mean=True))
        print("  op_s per op: " + " ".join(
            f"{op['op_s']:.3f}({op.get('counts', {}).get('torsion_iters')} its)"
            for op in untraced))
        print(describe("setup_s", setups, "s"))
        print(describe("peak_rss_mb", rss or [0.0], "MB"))
    print(f"  {'fail_ratio':<28} {len(failed) / len(ops):>14.6g} ratio "
          f"({len(failed)} of {len(ops)} ops failed)")
    correct = not failed and not drift and bool(metrics)
    return correct, len(ops), len(failed), metrics


def result_line(correct, attempted, failed, metrics):
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": {k: {"value": v, "unit": u}
                                   for k, (v, u) in metrics.items()}})


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="self-check: every workload at coarse sizes, "
                             "one untraced op and the traced run each")
    args = parser.parse_args(argv)
    if not PACKAGE.is_file():
        print(f"error: {PACKAGE.relative_to(ROOT)} not found; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    if args.quick:
        results = []
        for w in WORKLOADS.values():
            results.append(run_workload(w, args.seed, 0.0, 0, quick=True))
            results.append(run_workload(w, args.seed, 0.0, 1, quick=True))
        correct = all(r[0] for r in results)
        print(json.dumps({"correct": correct,
                          "attempted": sum(r[1] for r in results),
                          "failed": sum(r[2] for r in results)}))
        return 0 if correct else 1
    if args.workload is None:
        parser.error("--workload is required unless --quick is given")
    correct, attempted, failed, metrics = run_workload(
        WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    print(result_line(correct, attempted, failed, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
