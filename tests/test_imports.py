"""Every name a module of the package or of the tests imports is used in
that module, the package's numerics do without mpmath's raw `libmp`
layer and without a module-global cache, the CLI imports no package but
mpmath beyond the standard library and starts in one OS thread, the
bench's set-up and span targets resolve, and one round of each bench
workload passes its checks, untraced and traced.

A stdlib-`ast` stand-in for a linter's unused-import rule (F401): an
import statement whose line carries `# noqa: F401` is exempt, and a name
listed in the module's `__all__` counts as used.
"""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "casimir_lowt"
TESTS = Path(__file__).resolve().parent
BENCH = PACKAGE.parent.parent / "bench"


def _unused_imports(path: Path) -> list[str]:
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if "noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"{path.name}:{line} imports {name}, never used"
            for name, line in sorted(imported.items(), key=lambda item: item[1])
            if name not in used]


def test_no_unused_imports():
    modules = sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py"))
    assert modules
    assert [msg for path in modules for msg in _unused_imports(path)] == []


def test_package_does_not_import_mpmath_libmp():
    # the 33-digit kernel on raw mpf tuples is the tests' oracle
    # (tests/oracles.py); the package computes F, F(0) and dF in float64
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                # `from mpmath import libmp` as well as `from mpmath.libmp import ...`
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for name in names
                      if (name + ".").startswith("mpmath.libmp.")]
    assert found == []


def test_package_has_no_function_cache():
    # a cache decorator keeps its results for the life of the process, shared
    # by every caller: no function of the package carries one
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
                if name in ("lru_cache", "cache"):
                    found.append(f"{path.name}:{node.lineno} {node.name}")
    assert found == []


def test_cli_does_not_import_scipy():
    # in a fresh interpreter, so no other test's imports count, and beyond
    # what its start-up loads: no package outside the standard library but
    # mpmath.  numpy or scipy would add import time and memory to every CLI
    # run and to the bench's setup_s, and numpy's BLAS starts a thread pool;
    # the package's imports leave the process one OS thread
    code = ("import os, sys; before = set(sys.modules); import casimir_lowt.cli; "
            "print(sorted({m.split('.')[0] for m in set(sys.modules) - before}"
            " - set(sys.stdlib_module_names))); "
            "status = '/proc/self/status'; "
            "print(open(status).read().split('Threads:')[1].split()[0] "
            "if os.path.exists(status) else 1)")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.splitlines() == ["['casimir_lowt', 'mpmath']", "1"]


def _bench_module(monkeypatch, name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)   # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_bench_span_targets_resolve(monkeypatch):
    # bench/run.py wraps each (owner, attribute) of bench/spans.py's TARGETS
    # on these objects: a name the package drops fails here, not in a later
    # `bench/run.py --trace 1` run
    from casimir_lowt import asymptotics, diagnostics, lifshitz

    spans = _bench_module(monkeypatch, "spans")
    owners = {"lifshitz": lifshitz, "diagnostics": diagnostics,
              "AsymptoticResult": asymptotics.AsymptoticResult}
    assert spans.TARGETS
    assert [(owner, attr) for owner, attr, _ in spans.TARGETS
            if not callable(getattr(owners[owner], attr, None))] == []


def test_bench_setup_code_runs(monkeypatch):
    # bench/run.py times SETUP_CODE in fresh interpreters on src/: a name it
    # imports that the package renames fails here, not in a later bench run
    run = _bench_module(monkeypatch, "run")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    subprocess.run([sys.executable, "-c", run.SETUP_CODE], env=env, check=True, timeout=120)


def test_bench_workloads_pass_one_round(monkeypatch):
    # one round of each workload at seed 0, as bench/run.py runs it, once
    # untraced and once under its tracer: a change to the table, F or F(0)
    # that fails the bench's R, fit or F(0) checks, or to a function that
    # bench/spans.py wraps, fails here, not in a later bench run
    from casimir_lowt import asymptotics, diagnostics, lifshitz

    monkeypatch.syspath_prepend(str(BENCH))   # workloads imports checks by name
    workloads = _bench_module(monkeypatch, "workloads")
    spans = _bench_module(monkeypatch, "spans")
    fired = {"energy-highT": "lifshitz.free_energy.s",
             "tm-lowT-sweep": "diagnostics.r_curve.s", "te-lowT-sweep": "diagnostics.r_curve.s"}
    assert sorted(workloads.WORKLOADS) == sorted(fired)
    for name, wl in workloads.WORKLOADS.items():
        ops, _ = workloads.run_round(wl, 0)
        tracer = spans.Tracer()
        tracer.install({"lifshitz": lifshitz, "diagnostics": diagnostics,
                        "AsymptoticResult": asymptotics.AsymptoticResult})
        try:
            tracer.start_round()
            traced, _ = workloads.run_round(wl, 0)
        finally:
            tracer.remove()
        for run in (ops, traced):
            assert run
            assert [(op.name, op.error) for op in run if not op.ok] == [], name
        metrics = spans.layer_metrics(tracer.spans)
        assert metrics[fired[name]][0] > 0, name
