#!/usr/bin/env bash
# Two verify runs (a k = 1 ellipsoid, a k = 2 box), one sweep whose
# points must each take at most 20 iterations and three solves through the
# CLI, a check that a sweep point and a standalone run write the same u.csv
# bytes, then a k = 3 verify run twice, whose reports must be equal.  Run
# from the repository root once scipy is uninstalled; every file it writes
# lies under $RUNNER_TEMP.
set -euo pipefail
: "${RUNNER_TEMP:?set RUNNER_TEMP to a scratch directory}"

cat > "$RUNNER_TEMP/verify.json" <<JSON
{"params": {"a": 1.0, "k": 1},
 "domain": {"type": "ellipsoid", "semi_axes": [1.0, 2.0], "center": [0.0]},
 "grid": {"h": 0.03125}, "output_dir": "$RUNNER_TEMP/verify"}
JSON
status=0
PYTHONPATH=src python -m weinstein verify --config "$RUNNER_TEMP/verify.json" || status=$?
# the ellipsoid fails the rigidity checks, as the theorem predicts
test "$status" -eq 1

# a k = 2 box: cut arms end on faces, and the boundary checks are skipped
cat > "$RUNNER_TEMP/verify_box.json" <<JSON
{"params": {"a": 1.0, "k": 2},
 "domain": {"type": "box", "half_widths": [0.5, 0.5, 0.5], "center": [0.0, 0.0]},
 "grid": {"h": 0.0625}, "output_dir": "$RUNNER_TEMP/verify_box"}
JSON
PYTHONPATH=src python -m weinstein verify --config "$RUNNER_TEMP/verify_box.json"

# k = 2 points: the V-cycle-preconditioned solve on the folded system,
# which takes 11 iterations at a = 1; the l1 row scale alone took 54
cat > "$RUNNER_TEMP/sweep.json" <<JSON
{"params": {"a": 1.0, "k": 2},
 "domain": {"type": "ball", "radius": 1.0, "center": [0.0, 0.0]},
 "grid": {"h": 0.0625}, "output_dir": "$RUNNER_TEMP/sweep",
 "sweep": {"path": "params.a", "values": [1.0, 2.0]}}
JSON
PYTHONPATH=src python -m weinstein sweep --config "$RUNNER_TEMP/sweep.json"
for report in "$RUNNER_TEMP"/sweep/run_*/report.json; do
  python - "$report" <<'PY'
import json, sys
iterations = json.load(open(sys.argv[1]))["solver"]["iterations"]
assert iterations <= 20, f"{sys.argv[1]}: {iterations} iterations"
PY
done

# a sweep point and a standalone run write the same u.csv bytes
cat > "$RUNNER_TEMP/solve.json" <<JSON
{"params": {"a": 2.0, "k": 2},
 "domain": {"type": "ball", "radius": 1.0, "center": [0.0, 0.0]},
 "grid": {"h": 0.0625}, "output_dir": "$RUNNER_TEMP/solve"}
JSON
PYTHONPATH=src python -m weinstein solve --config "$RUNNER_TEMP/solve.json"
cmp "$RUNNER_TEMP/solve/u.csv" "$RUNNER_TEMP/sweep/run_001/u.csv"

# large a: the weight r^a varies by orders of magnitude across the cells
# beside the axis, and the solves must still converge (a = 200 at
# h = 1/32 ran 20,000 iterations for nothing while the cut rows wrote
# (a/r) u_r in non-divergence form)
cat > "$RUNNER_TEMP/solve_a40.json" <<JSON
{"params": {"a": 40.0, "k": 2},
 "domain": {"type": "ball", "radius": 1.0, "center": [0.0, 0.0]},
 "grid": {"h": 0.0625}, "output_dir": "$RUNNER_TEMP/solve_a40"}
JSON
PYTHONPATH=src python -m weinstein solve --config "$RUNNER_TEMP/solve_a40.json"
cat > "$RUNNER_TEMP/solve_a200.json" <<JSON
{"params": {"a": 200.0, "k": 2},
 "domain": {"type": "ball", "radius": 1.0, "center": [0.0, 0.0]},
 "grid": {"h": 0.03125}, "output_dir": "$RUNNER_TEMP/solve_a200"}
JSON
PYTHONPATH=src python -m weinstein solve --config "$RUNNER_TEMP/solve_a200.json"

# k = 3: the full battery on the unit ball, run twice into one directory;
# the two reports must be the same bytes
cat > "$RUNNER_TEMP/verify_k3.json" <<JSON
{"params": {"a": 1.0, "k": 3},
 "domain": {"type": "ball", "radius": 1.0, "center": [0.0, 0.0, 0.0]},
 "grid": {"h": 0.1}, "output_dir": "$RUNNER_TEMP/verify_k3"}
JSON
PYTHONPATH=src python -m weinstein verify --config "$RUNNER_TEMP/verify_k3.json"
cp "$RUNNER_TEMP/verify_k3/report.json" "$RUNNER_TEMP/verify_k3_first.json"
PYTHONPATH=src python -m weinstein verify --config "$RUNNER_TEMP/verify_k3.json"
cmp "$RUNNER_TEMP/verify_k3/report.json" "$RUNNER_TEMP/verify_k3_first.json"
