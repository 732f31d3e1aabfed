"""The benchmark's op scripts against the package API.

`bench/traced.py` and `bench/child.py` drive the package through its
public names.  The benchmark is kept fixed across changes to the package,
so a renamed or deleted name must fail here, in the fast suite, and not
only when the benchmark itself runs.  Both scripts are imported with
`bench/` on `sys.path`, and every `weinstein` name they import or read an
attribute of (at any depth, also inside functions) must resolve.

Names resolve, but the attributes of the objects they return are read
only when the scripts run, so one traced torsion solve and the untraced
op's cached counters run here on a coarse k = 2 ball: a deleted view of
A fails here too.

The demos are held to the same names, but only parsed, not run, and
every entry of `weinstein.__all__` must resolve as well.
"""

import ast
import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
SCRIPTS = ("traced", "child")
DEMOS = sorted((BENCH.parent / "demos").glob("*.py"))


def _weinstein_references(tree):
    """(dotted name, line) for each weinstein name the module uses."""
    bound = {}  # local name -> dotted weinstein path
    refs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "weinstein":
                    bound[alias.asname or alias.name.split(".")[0]] = (
                        alias.name if alias.asname else "weinstein")
                    refs.append((alias.name, node.lineno))
        elif isinstance(node, ast.ImportFrom) and node.module \
                and node.module.split(".")[0] == "weinstein":
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
                refs.append((f"{node.module}.{alias.name}", node.lineno))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            chain = []
            inner = node
            while isinstance(inner, ast.Attribute):
                chain.append(inner.attr)
                inner = inner.value
            if isinstance(inner, ast.Name) and inner.id in bound:
                refs.append((".".join([bound[inner.id], *reversed(chain)]), node.lineno))
    return refs


def _resolve(dotted):
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], start=1):
        try:
            obj = getattr(obj, part)
        except AttributeError:
            obj = importlib.import_module(".".join(parts[:i + 1]))
    return obj


@pytest.fixture
def bench_on_path(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    for name in (*SCRIPTS, "gate", "workloads"):
        monkeypatch.delitem(sys.modules, name, raising=False)


def _unresolved(path):
    """`file:line: name` for each weinstein name the script at `path` uses
    that does not resolve."""
    refs = _weinstein_references(ast.parse(path.read_text()))
    assert refs, "the script names nothing of weinstein"
    missing = []
    for dotted, line in refs:
        try:
            _resolve(dotted)
        except (AttributeError, ImportError):
            missing.append(f"{path.name}:{line}: {dotted}")
    return missing


@pytest.mark.parametrize("script", SCRIPTS)
def test_bench_script_imports_and_its_weinstein_names_resolve(script, bench_on_path):
    importlib.import_module(script)
    missing = _unresolved(BENCH / f"{script}.py")
    assert not missing, missing


def test_bench_counters_read_the_matrix_and_the_geometry(bench_on_path):
    import child
    import traced
    from workloads import MAX_ITER, SOLVER_TOL
    from weinstein import Ball, StaggeredGrid, WeinsteinParams

    domain = Ball(1.0, center=(0.03, 0.0))
    params = WeinsteinParams(a=1.0, k=2)
    h = 1 / 10
    tr = traced.Tracer(0)
    problems = []
    traced._solve_torsion(tr, domain, StaggeredGrid.from_domain(domain, h), params,
                          SOLVER_TOL, MAX_ITER, problems)
    assert not problems
    counts = {}
    for span in tr.spans:
        counts.update(span["counts"])
    n = counts["unknowns"]
    # float64 data, int32 indices and indptr, one read of x and one write of y
    assert counts["matvec_bytes"] == 12 * counts["nnz"] + 4 * (n + 1) + 16 * n
    cached = child._cached_counts([(domain, params, h)])
    assert (cached["nnz"], cached["cut_nodes"]) == (counts["nnz"], counts["cut_nodes"])


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_weinstein_names_resolve(demo):
    missing = _unresolved(demo)
    assert not missing, missing


def test_export_list_resolves_without_duplicates():
    import weinstein

    assert len(set(weinstein.__all__)) == len(weinstein.__all__)
    missing = [name for name in weinstein.__all__ if not hasattr(weinstein, name)]
    assert not missing, missing
    namespace = {}
    exec("from weinstein import *", namespace)  # import * is module-level only
    assert set(weinstein.__all__) <= set(namespace)
