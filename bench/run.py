"""Benchmark of casimir-lowt's Matsubara sweep, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/`.  Each workload runs in this one process and thread, at 33 digits,
as a closed loop with a single client: whole rounds of the same
operations repeat until S seconds have passed (at least one round), and
every output is checked (see checks.py).  The last line of standard output
is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are setup_s, wall_s and peak_rss_mb; with
--trace 1 they are the per-layer metrics of spans.py, the spans are
written to bench/out/, and when bench/refs/ holds references for the seed
(see make_refs.py) a line before the last compares against them.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

from mpmath import mpf

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
DPS = 33
SETUP_SAMPLES = 5

# What every `casimir-lowt` call pays before its first result: the imports
# (numpy, scipy, mpmath come with them), the working precision and the
# Gauss-Legendre tables of the default quadrature.
SETUP_CODE = f"""
import casimir_lowt, casimir_lowt.cli
from casimir_lowt.lifshitz import QuadratureSpec, gauss_legendre
from casimir_lowt.precision import set_precision
set_precision({DPS})
q = QuadratureSpec()
for n in (q.nx, q.nm_unit, q.nm_geo):
    gauss_legendre(n)
"""


def setup_time() -> float:
    """Median wall time of SETUP_CODE in fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=SRC)
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                       check=True, timeout=120)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def load_refs(workload: str, seed: int):
    path = os.path.join(HERE, "refs", f"{workload}-seed{seed}.json")
    if not os.path.isfile(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def vs_ref(values: dict, refs: dict) -> dict:
    """Largest relative difference of dF and of F from the references."""
    out = {}
    for key in ("dF", "F"):
        errs = [abs(v[key] / mpf(refs["values"][t][key]) - 1)
                for t, v in values.items() if key in v]
        if errs:
            out[f"lifshitz.{key}.rel_err_vs_ref"] = {"value": float(max(errs)), "unit": "ratio"}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=5.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "casimir_lowt", "__init__.py")):
        print(f"bench: no src/casimir_lowt under {ROOT}; run from the root of a "
              "casimir-lowt checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    t0 = time.perf_counter()
    exec(SETUP_CODE, {})
    import_s = time.perf_counter() - t0
    from casimir_lowt import asymptotics, diagnostics, lifshitz

    import spans as tracing
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    setup_s = None if args.trace else setup_time()

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install({"lifshitz": lifshitz, "diagnostics": diagnostics,
                        "AsymptoticResult": asymptotics.AsymptoticResult})
    rounds = []
    start = time.perf_counter()
    try:
        while not rounds or time.perf_counter() - start < args.seconds:
            # The program memoizes mode scans by input; a repeated round
            # must pay for its scans as a fresh `casimir-lowt` call does.
            getattr(lifshitz, "_SCAN_CACHE", {}).clear()
            if tracer:
                tracer.start_round()
            t = time.perf_counter()
            ops, outputs = workloads.run_round(wl, args.seed)
            rounds.append((time.perf_counter() - t, ops, outputs))
    finally:
        if tracer:
            tracer.remove()

    all_ops = [op for _, ops, _ in rounds for op in ops]
    failed = [op for op in all_ops if not op.ok]
    for op in failed:
        print(f"failed {op.name}{' (the known fault)' if op.known else ''}: {op.error}")
    correct = all(op.known for op in failed)

    if tracer:
        per_round = [tracing.layer_metrics(spans) for spans in tracer.rounds]
        metrics = {name: {"value": statistics.median(m[name][0] for m in per_round),
                          "unit": unit} for name, (_, unit) in per_round[0].items()}
        last = rounds[-1][2]
        for name in ("lifshitz.F0.rel_err", "diagnostics.fit.rel_err",
                     "diagnostics.R_min_abs", "lifshitz.F.ideal_rel_err"):
            # 0 where the workload has no such output (see README)
            metrics[name] = {"value": last.get(name, 0.0), "unit": "ratio"}
        metrics["setup.import_s"] = {"value": import_s, "unit": "s"}
        refs = load_refs(args.workload, args.seed)
        compared = vs_ref(last.get("values", {}), refs) if refs else {}
        print(json.dumps({"vs_ref": compared if refs else "no references for this seed"}))
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        path = os.path.join(HERE, "out", f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "round_s": [r[0] for r in rounds],
                       "metrics": {**metrics, **compared}, "rounds": tracer.rounds}, fh)
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": statistics.median(r[0] for r in rounds), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
    print(json.dumps({"correct": correct, "attempted": len(all_ops),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
