"""Every name a module of the package or of the tests imports is used in
that module, the package's numerics do without mpmath's raw `libmp`
layer, and the CLI starts without numpy or scipy, in one OS thread.

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


def test_cli_does_not_import_scipy():
    # neither numpy nor scipy, in a fresh interpreter, so no other test's
    # imports are counted: either would add its import time and memory to
    # every CLI run, and numpy's BLAS starts a thread pool, which a CLI run
    # has no use for; the package's imports leave the process one OS thread
    code = ("import os, sys, casimir_lowt.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy'))); "
            "status = '/proc/self/status'; "
            "print(open(status).read().split('Threads:')[1].split()[0] "
            "if os.path.exists(status) else 1)")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.splitlines() == ["[]", "1"]


def test_bench_span_targets_resolve():
    # bench/run.py wraps each (owner, attribute) of bench/spans.py's TARGETS
    # on these objects: a name the package drops fails here, not in a later
    # `bench/run.py --trace 1` run
    from casimir_lowt import asymptotics, diagnostics, lifshitz

    spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    owners = {"lifshitz": lifshitz, "diagnostics": diagnostics,
              "AsymptoticResult": asymptotics.AsymptoticResult}
    assert spans.TARGETS
    assert [(owner, attr) for owner, attr, _ in spans.TARGETS
            if not callable(getattr(owners[owner], attr, None))] == []
