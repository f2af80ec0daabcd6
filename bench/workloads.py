"""The benchmark's workloads: inputs made from a seed, one round of calls
into the program, and the checks that turn each output into a passed or
failed operation.

A round is always the same list of operations for a given workload, so
the share of failed operations does not depend on the seed or on how
many rounds fit into a run.
"""

from __future__ import annotations

import math
import random
import traceback
from dataclasses import dataclass

import checks
from casimir_lowt import config, diagnostics, lifshitz

@dataclass(frozen=True)
class Sweep:
    """R-diagnostic sweep of one polarization and the fit of its leading
    coefficient, as `casimir-lowt rdiag` plus `fit_expansion` run it."""
    pol: str
    t_lo: float          # K; grid ends are fixed, interior points move
    t_hi: float
    points: int
    fit_powers: tuple

    def grid(self, seed: int) -> list:
        # Log grid whose interior points move to a random place inside
        # their cell.  The ends stay: they fix the fit range and the
        # coldest point, which sets the cut-off M and most of the cost.
        rng = random.Random(seed)
        step = math.log(self.t_hi / self.t_lo) / (self.points - 1)
        inner = [self.t_lo * math.exp(step * (k + rng.uniform(-0.5, 0.5)))
                 for k in range(1, self.points - 1)]
        return [self.t_lo] + inner + [self.t_hi]


@dataclass(frozen=True)
class Energy:
    """free_energy for both polarizations on several presets, as
    `casimir-lowt energy --preset NAME` runs it."""
    presets: tuple
    t_lo: float          # K; one temperature per cell of a log grid
    t_hi: float
    points: int

    def grid(self, seed: int) -> list:
        rng = random.Random(seed)
        step = math.log(self.t_hi / self.t_lo) / self.points
        return [self.t_lo * math.exp(step * (k + rng.random())) for k in range(self.points)]


@dataclass
class Op:
    name: str
    error: str | None = None      # None: passed
    known: bool = False           # failed only by the fault checks.F0_TM_FAULT

    @property
    def ok(self) -> bool:
        return self.error is None


WORKLOADS = {
    "tm-lowT-sweep": Sweep("tm", 0.015, 0.12, 6, (2.0, 3.0)),
    "te-lowT-sweep": Sweep("te", 0.0125, 0.1, 6, diagnostics.TE_FIT_POWERS),
    "energy-highT": Energy(("ideal-metal-check", "si-paper", "si-fig2"), 0.72, 1.0, 1),
}


def run_round(wl, seed: int, quadrature=None) -> tuple[list, dict]:
    """One round: returns (operations, outputs for the accuracy metrics).

    `quadrature` replaces the program's default QuadratureSpec; only the
    self-test's miniatures set it.
    """
    if isinstance(wl, Sweep):
        return _sweep_round(wl, seed, quadrature)
    return _energy_round(wl, seed, quadrature)


def system(cfg, T, pol, quadrature):
    extra = {} if quadrature is None else {"quadrature": quadrature}
    return lifshitz.PlateSystem(cfg.separation_m, T, cfg.material,
                                lifshitz.Polarization(pol), **extra)


def _sweep_round(wl: Sweep, seed: int, quadrature):
    cfg = config.PRESETS["si-paper"]
    grid = wl.grid(seed)
    names = [f"point:{wl.pol}:{k}" for k in range(len(grid))] + [f"fit:{wl.pol}", f"F0:{wl.pol}"]
    try:
        records = diagnostics.r_curve(system(cfg, 1.0, wl.pol, quadrature), grid, wl.pol)
        fit = diagnostics.fit_expansion(records, extra_powers=wl.fit_powers)
    except Exception as exc:  # the whole round's outputs are missing
        traceback.print_exc()
        return [Op(n, f"raised {type(exc).__name__}: {exc}") for n in names], {}
    a, s = cfg.separation_m, cfg.material.four_pi_sigma
    ops = []
    for k, r in enumerate(records):
        prev = records[k - 1].R if k else None
        ops.append(Op(names[k], checks.check_point(wl.pol, r.T, r.dF_num, r.F_num, r.R, prev, a)))
    ops.append(Op(names[-2], checks.check_fit(wl.pol, fit.D, s, a)))
    # r_curve computes F(0) once and stores F_asym = F(0) + dF_th
    f0 = records[0].F_asym - records[0].dF_th
    pairs = [(r.F_num, r.dF_num) for r in records]
    ops.append(f0_op(wl.pol, f0, pairs))
    ref = checks.tm_D(s, a) if wl.pol == "tm" else checks.te_C2(s, a)
    outputs = {
        "lifshitz.F0.rel_err": checks.f0_identity_error(f0, pairs),
        "diagnostics.fit.rel_err": checks.rel(fit.D, ref),
        "diagnostics.R_min_abs": float(abs(records[0].R)),
        "values": {f"{float(r.T)!r}": {"dF": r.dF_num, "F": r.F_num} for r in records},
    }
    return ops, outputs


def f0_op(pol: str, f0, pairs) -> Op:
    """The F(0) operation.  On TM it fails today; that failure is the known
    fault only while the error keeps the fault's size, so any other error
    in F, dF or F(0) still clears `correct`."""
    op = Op(f"F0:{pol}", checks.check_f0(pol, f0, pairs))
    op.known = (not op.ok and pol == "tm"
                and checks.check_f0(pol, f0, pairs, checks.F0_TM_FAULT) is None)
    return op


def _energy_round(wl: Energy, seed: int, quadrature):
    ops, ideal_err, values = [], 0.0, {}
    for T in wl.grid(seed):
        by_preset = {}
        for name in wl.presets:
            cfg = config.PRESETS[name]
            op = Op(f"energy:{name}:{T:.4f}")
            ops.append(op)
            try:
                res = lifshitz.free_energy(system(cfg, T, "both", quadrature))
            except Exception as exc:
                traceback.print_exc()
                op.error = f"raised {type(exc).__name__}: {exc}"
                continue
            by_preset[name] = res.per_mode
            op.error = checks.check_energy(name, T, res.per_mode, cfg.separation_m)
            values[f"{name}:{T!r}"] = {"F": res.total}
            if name == "ideal-metal-check":
                ideal_err = max(ideal_err, checks.rel(res.total,
                                                      checks.ideal_metal_F(cfg.separation_m, T)))
        order = Op(f"order:{T:.4f}")
        ops.append(order)
        order.error = (checks.check_order(T, by_preset) if len(by_preset) == len(wl.presets)
                       else "a preset failed; no ordering to check")
    return ops, {"lifshitz.F.ideal_rel_err": ideal_err, "values": values}
