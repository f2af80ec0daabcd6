"""Write the reference values behind the traced run's *.rel_err_vs_ref lines.

    python3 bench/make_refs.py --seed N

Run from the root of a source checkout.  For every temperature (and
preset) that `run.py --seed N` computes, this recomputes dF and F with
`QuadratureSpec().refined()` (twice the Gauss-Legendre order on every
panel) at REF_DPS digits, and writes them to
bench/refs/<workload>-seed<N>.json, one file per workload.  The files are
only ever produced here.  A full set for one seed takes several minutes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
REF_DPS = 40               # the benchmark itself runs at 33


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "casimir_lowt", "__init__.py")):
        print("make_refs: run from the root of a casimir-lowt checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import mpmath
    from casimir_lowt import config, lifshitz
    from casimir_lowt.precision import set_precision

    import workloads

    set_precision(REF_DPS)
    fine = lifshitz.QuadratureSpec().refined()
    os.makedirs(os.path.join(HERE, "refs"), exist_ok=True)
    for name, wl in workloads.WORKLOADS.items():
        t0 = time.perf_counter()
        values = {}
        if isinstance(wl, workloads.Sweep):
            cfg = config.PRESETS["si-paper"]
            for T in wl.grid(args.seed):
                system = workloads.system(cfg, T, wl.pol, fine)
                values[repr(T)] = {
                    "dF": mpmath.nstr(lifshitz.delta_f_direct(system)[wl.pol], 25),
                    "F": mpmath.nstr(lifshitz.free_energy(system).per_mode[wl.pol], 25)}
        else:
            for T in wl.grid(args.seed):
                for preset in wl.presets:
                    system = workloads.system(config.PRESETS[preset], T, "both", fine)
                    values[f"{preset}:{T!r}"] = {
                        "F": mpmath.nstr(lifshitz.free_energy(system).total, 25)}
        path = os.path.join(HERE, "refs", f"{name}-seed{args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"workload": name, "seed": args.seed, "dps": REF_DPS,
                       "quadrature": "QuadratureSpec().refined()", "values": values},
                      fh, indent=1)
            fh.write("\n")
        print(f"{path}: {len(values)} values in {time.perf_counter() - t0:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
