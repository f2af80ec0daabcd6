"""Spans around calls into the program's public functions.

Nothing under `src/` is instrumented: `Tracer.install` swaps module
attributes for timing wrappers and `remove` puts the originals back.  The
program calls its own functions through module globals (`mode_scan` calls
`g_of_m`, `r_curve` calls `delta_f_direct`, ...), so the wrappers see
those calls too.  Spans stay in memory and are written out at the end.
"""

from __future__ import annotations

import functools
import time

import mpmath

# (module name, attribute, span name).  Functions imported by name into
# `diagnostics` are wrapped there as well.
TARGETS = (
    ("lifshitz", "g_of_m", "lifshitz.g_of_m"),
    ("lifshitz", "mode_scan", "lifshitz.mode_scan"),
    ("lifshitz", "delta_f_direct", "lifshitz.delta_f_direct"),
    ("diagnostics", "delta_f_direct", "lifshitz.delta_f_direct"),
    ("lifshitz", "free_energy", "lifshitz.free_energy"),
    ("diagnostics", "free_energy", "lifshitz.free_energy"),
    ("lifshitz", "zero_temperature_energy", "lifshitz.zero_temperature_energy"),
    ("diagnostics", "zero_temperature_energy", "lifshitz.zero_temperature_energy"),
    ("diagnostics", "theory_correction", "asymptotics.closed_form"),
    ("AsymptoticResult", "evaluate", "asymptotics.closed_form"),
    ("diagnostics", "r_curve", "diagnostics.r_curve"),
    ("diagnostics", "fit_expansion", "diagnostics.fit_expansion"),
)


def _attrs(name, args, result):
    """Per-span attributes read from the call's inputs and result."""
    if name == "lifshitz.g_of_m":
        return {"m": float(args[1])}
    if name == "lifshitz.mode_scan":
        dg = result.delta_gamma
        # dg == 0: every digit cancelled
        lost = (float(mpmath.mp.dps) if dg == 0
                else float(mpmath.log10(result.cancellation_guard / abs(dg))))
        return {"M": int(result.M), "cancel_digits": lost}
    if name == "lifshitz.delta_f_direct":
        return {"values": len(result)}
    if name == "lifshitz.free_energy":
        return {"values": len(result.per_mode)}
    return {}


class Tracer:
    def __init__(self):
        self.rounds = []         # one list of spans per round
        self.spans = []          # the current round's spans; parent = index
        self._stack = []
        self._undo = []

    def start_round(self) -> None:
        self.spans = []
        self.rounds.append(self.spans)

    def install(self, modules) -> None:
        for mod_name, attr, span in TARGETS:
            owner = modules[mod_name]
            orig = getattr(owner, attr)
            setattr(owner, attr, self._wrap(orig, span))
            self._undo.append((owner, attr, orig))

    def remove(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"name": name, "start": time.perf_counter(), "end": None,
                    "parent": self._stack[-1] if self._stack else None,
                    "attrs": {}}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            span["attrs"] = _attrs(name, args, result)
            return result
        return wrapper


def layer_metrics(spans) -> dict:
    """Per-layer counts, busy times and ratios from the spans of one round."""
    def dur(s):
        return s["end"] - s["start"]

    def total(name):
        return sum(dur(s) for s in spans if s["name"] == name)

    g = [s for s in spans if s["name"] == "lifshitz.g_of_m"]
    scans = [s for s in spans if s["name"] == "lifshitz.mode_scan"]
    kinds = {"sum": 0, "integral": 0, "tail": 0}
    child_g = {}
    for s in g:
        parent = spans[s["parent"]] if s["parent"] is not None else None
        if parent is None or parent["name"] != "lifshitz.mode_scan":
            continue
        child_g[s["parent"]] = child_g.get(s["parent"], 0.0) + dur(s)
        m, M = s["attrs"]["m"], parent["attrs"]["M"]
        if m == int(m) and m <= M + 3:
            kinds["sum"] += 1
        elif m < M:
            kinds["integral"] += 1
        else:
            kinds["tail"] += 1
    scan_self = sum(dur(spans[i]) - child_g.get(i, 0.0)
                    for i, s in enumerate(spans) if s["name"] == "lifshitz.mode_scan")
    values = sum(s["attrs"].get("values", 0) for s in spans
                 if s["name"] in ("lifshitz.delta_f_direct", "lifshitz.free_energy"))
    g_s = total("lifshitz.g_of_m")
    return {
        "lifshitz.g_of_m.calls": (len(g), "count"),
        "lifshitz.g_of_m.ms_per_call": (1e3 * g_s / len(g) if g else 0.0, "ms"),
        "lifshitz.g_of_m.sum_calls": (kinds["sum"], "count"),
        "lifshitz.g_of_m.integral_calls": (kinds["integral"], "count"),
        "lifshitz.g_of_m.tail_calls": (kinds["tail"], "count"),
        "lifshitz.mode_scan.calls": (len(scans), "count"),
        "lifshitz.mode_scan.self_s": (scan_self, "s"),
        "lifshitz.mode_scan.M_max": (max((s["attrs"]["M"] for s in scans), default=0), "count"),
        "lifshitz.mode_scan.cancel_digits_max":
            (max((s["attrs"]["cancel_digits"] for s in scans), default=0.0), "digits"),
        "lifshitz.scans_per_point": (len(scans) / values if values else 0.0, "ratio"),
        "lifshitz.delta_f_direct.s": (total("lifshitz.delta_f_direct"), "s"),
        "lifshitz.free_energy.s": (total("lifshitz.free_energy"), "s"),
        "lifshitz.zero_temperature_energy.s": (total("lifshitz.zero_temperature_energy"), "s"),
        "asymptotics.closed_form.s": (total("asymptotics.closed_form"), "s"),
        "diagnostics.r_curve.s": (total("diagnostics.r_curve"), "s"),
        "diagnostics.fit_expansion.s": (total("diagnostics.fit_expansion"), "s"),
    }
