"""Fast self-test of the benchmark's checks and workloads.

    python3 bench/selftest.py

Run from the root of a source checkout; it takes well under a minute.

1. Each check passes an output that satisfies it and rejects the same
   output perturbed one way: dF with its sign flipped, D or C2 scaled by
   1.02, F shifted by 1e-12 relative, two presets swapped.  The TM F(0)
   operation, which fails today by a known fault, is excused only at that
   fault's size: F shifted by 1e-12 on top of it is not excused.  The outputs are
   built from the closed forms in checks.py, so no program run is needed.
2. A miniature of each workload (coarse quadrature, 20 digits, and for the
   sweeps a grid at higher temperature where the cut-off M is small) runs
   to its end, traced, with one operation per point, fit, F(0) or preset.
   The miniatures show that the code runs, not that their coarse results
   pass.
"""

from __future__ import annotations

import dataclasses
import os
import sys
import time
import warnings

ROOT = os.getcwd()


def perturbation_cases():
    """(name, check on the good output, check on the perturbed output)."""
    import checks
    import workloads
    from mpmath import mpf
    a, s = mpf("1e-6"), mpf("1e12")
    D, C2 = checks.tm_D(s, a), checks.te_C2(s, a)
    cases = []

    T = mpf("0.02")
    F = checks.ideal_metal_F(a, T) / 2 * mpf("0.9")
    for pol, dF in (("tm", -D * T ** 2), ("te", C2 * T ** 2)):
        R = mpf("0.003")
        cases.append((f"point {pol}: sign of dF flipped",
                      checks.check_point(pol, T, dF, F, R, None, a),
                      checks.check_point(pol, T, -dF, F, R, None, a)))
    cases.append(("point: |R| shrinking along the grid",
                  checks.check_point("tm", T, -D * T ** 2, F, mpf("0.004"), mpf("0.003"), a),
                  checks.check_point("tm", T, -D * T ** 2, F, mpf("0.002"), mpf("0.003"), a)))
    cases.append(("point: F beyond the ideal metal",
                  checks.check_point("tm", T, -D * T ** 2, F, mpf("0.003"), None, a),
                  checks.check_point("tm", T, -D * T ** 2, F / mpf("0.8"), mpf("0.003"), None, a)))

    for pol, coef in (("tm", D), ("te", C2)):
        cases.append((f"fit {pol}: coefficient scaled by 1.02",
                      checks.check_fit(pol, coef, s, a),
                      checks.check_fit(pol, coef * mpf("1.02"), s, a)))

    f0 = checks.ideal_metal_F(a, 0) / 2 * mpf("0.9")
    pairs = [(f0 + dF, dF) for dF in (-D * T ** 2, -D * (2 * T) ** 2)]
    shifted = [(pairs[0][0] * (1 + mpf("1e-12")), pairs[0][1])] + pairs[1:]
    cases.append(("F(0): F shifted by 1e-12 relative",
                  checks.check_f0("tm", f0, pairs), checks.check_f0("tm", f0, shifted)))

    # The TM workload's F(0) operation as the workload classifies it: the
    # known fault (F(0) off by F0_TM_FAULT) is failed but excused; the same
    # output with one F shifted further by 1e-12 relative is not excused.
    def excused(op):
        return None if not op.ok and op.known else (op.error or "passed")
    faulty = f0 + checks.F0_TM_FAULT * abs(f0)
    for sign in (1, -1):
        moved = [(pairs[0][0] * (1 + sign * mpf("1e-12")), pairs[0][1])] + pairs[1:]
        cases.append((f"F(0) tm known fault: F shifted by {sign:+d}e-12 relative on top",
                      excused(workloads.f0_op("tm", faulty, pairs)),
                      excused(workloads.f0_op("tm", faulty, moved))))
    cases.append(("F(0) te: an error the size of the TM fault is not excused",
                  checks.check_f0("te", f0, pairs),
                  excused(workloads.f0_op("te", faulty, pairs))))

    T = mpf("0.8")
    ideal = checks.ideal_metal_F(a, T) / 2
    cases.append(("energy ideal metal: F shifted by 1e-12 relative",
                  checks.check_energy("ideal-metal-check", T, {"tm": ideal, "te": ideal}, a),
                  checks.check_energy("ideal-metal-check", T,
                                      {"tm": ideal * (1 + mpf("1e-12")), "te": ideal}, a)))
    by = {"ideal-metal-check": {"tm": ideal}, "si-paper": {"tm": ideal * mpf("0.9")},
          "si-fig2": {"tm": ideal * mpf("0.8")}}
    swapped = dict(by, **{"si-paper": by["si-fig2"], "si-fig2": by["si-paper"]})
    cases.append(("energy order: two presets swapped",
                  checks.check_order(T, by), checks.check_order(T, swapped)))
    return cases


def miniatures():
    """Run every workload's miniature, traced; return (name, problem or None)."""
    from casimir_lowt import asymptotics, diagnostics, lifshitz
    from casimir_lowt.precision import set_precision

    import spans
    import workloads

    set_precision(20)
    coarse = lifshitz.QuadratureSpec(nx=6, nm_unit=8, nm_geo=6)
    out = []
    for name, wl in workloads.WORKLOADS.items():
        if isinstance(wl, workloads.Sweep):
            wl = dataclasses.replace(wl, t_lo=wl.t_lo * 10, t_hi=wl.t_hi * 10)
            expected = wl.points + 2
        else:
            expected = wl.points * (len(wl.presets) + 1)
        tracer = spans.Tracer()
        tracer.install({"lifshitz": lifshitz, "diagnostics": diagnostics,
                        "AsymptoticResult": asymptotics.AsymptoticResult})
        t0 = time.perf_counter()
        try:
            tracer.start_round()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                ops, _ = workloads.run_round(wl, seed=1, quadrature=coarse)
        finally:
            tracer.remove()
        layers = spans.layer_metrics(tracer.spans)
        problem = None
        if len(ops) != expected:
            problem = f"{len(ops)} operations, expected {expected}"
        elif any(op.error and op.error.startswith("raised ") for op in ops):
            problem = "raised: " + "; ".join(op.error for op in ops if op.error)
        elif layers["lifshitz.mode_scan.calls"][0] == 0:
            problem = "the trace saw no mode scan"
        out.append((f"miniature {name} ({time.perf_counter() - t0:.1f} s, "
                    f"{layers['lifshitz.g_of_m.calls'][0]} g calls)", problem))
    return out


def main() -> int:
    if not os.path.isfile(os.path.join(ROOT, "src", "casimir_lowt", "__init__.py")):
        print("selftest: run from the root of a casimir-lowt checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    bad = 0
    for name, good, perturbed in perturbation_cases():
        ok = good is None and perturbed is not None
        bad += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {name}: passes the good output"
              f"{'' if good is None else ' NOT: ' + good}, rejects the perturbed one"
              f"{'' if perturbed is None else ' (' + perturbed + ')'}")
    for name, problem in miniatures():
        bad += problem is not None
        print(f"{'ok  ' if problem is None else 'FAIL'} {name} runs to its end"
              f"{'' if problem is None else ': ' + problem}")
    print("selftest:", "all passed" if not bad else f"{bad} failed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
