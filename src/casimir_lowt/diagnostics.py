"""Temperature sweeps, the R consistency diagnostic, and coefficient fits.

The R diagnostic compares the directly computed thermal correction with
the closed-form expansion,

    R(T) = (dF_th - dF_num) / dF_th,

which is far more sensitive than eyeballing free-energy curves: if the
expansion's T^2 and T^3 coefficients are both right, R -> 0 with zero
slope as T -> 0 and the residual curvature measures the first uncomputed
coefficient.  The fit side extracts D, D1, D2 from dF_num assuming
|dF_num| = D T^2 |1 - D1 T + D2 T^2 + ...| so they can be compared with
the predicted coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from mpmath import mpf
from scipy.optimize import curve_fit

from . import asymptotics
from .dielectric import PermittivityMode
# The program calls the names of the first import; it never calls the two of
# the second, which are attributes here only so that bench/spans.py's TARGETS resolve.
from .lifshitz import PlateSystem, Polarization, delta_f, free_energy, zero_temperature_energies
from .lifshitz import delta_f_direct, zero_temperature_energy  # noqa: F401


class FitError(RuntimeError):
    pass


@dataclass
class SweepRecord:
    T: object          # K
    F_num: object      # J/m^2, full free energy
    F_asym: object     # J/m^2, F(0) + closed-form correction
    dF_num: object     # J/m^2, sum-minus-integral correction
    dF_th: object      # J/m^2, closed-form correction
    R: object          # dimensionless; None when dF_th == 0
    pol: str


@dataclass
class FitResult:
    D: float           # J/(K^2 m^2), leading magnitude (positive)
    D1: float          # 1/K
    D2: float          # 1/K^2 (0.0 when T^2 not among the fitted powers)
    T_range: tuple
    sign: int          # sign of dF_num on the grid
    extras: dict       # remaining fitted coefficients keyed by power


def theory_correction(system: PlateSystem, pol: str) -> asymptotics.AsymptoticResult:
    """Closed-form dF_th for one polarization of a plate system.

    The reference TM curve is the two-term expansion only; the separate
    conductivity-independent T^3 piece is deliberately excluded, matching
    how the diagnostic is defined.
    """
    mat = system.material
    if mat.mode is PermittivityMode.IDEAL_METAL:
        raise ValueError("no closed-form correction for the ideal-metal limit")
    if pol == "tm":
        return asymptotics.delta_f_tm(mat.four_pi_sigma, system.separation_a,
                                      system.temperature_T)
    return asymptotics.delta_f_te(mat.four_pi_sigma, system.separation_a,
                                  system.temperature_T, eps_bar=mat.eps_bar)


def r_curve(template: PlateSystem, t_grid, pol: str) -> list:
    """SweepRecords over an ascending temperature grid: those of one
    polarization, or for "both" the TM records, then the TE records."""
    return [rec for curve in r_curves(template, t_grid, pol) for rec in curve]


def r_curves(template: PlateSystem, t_grid, pol: str):
    """An iterator over the SweepRecords of each polarization of `pol` in
    turn, TM first, one list per polarization.

    The call makes one `delta_f` per temperature and one F(0) pass, each
    serving every polarization, through `run_points`: the points run in
    parallel on the CPUs this process may use, coldest first, and every
    record is bit-identical to an in-process sweep; F_num is F(0) + dF_num.
    A polarization's dF (with its precision check) and closed-form terms (with
    their ValidityWarnings) are evaluated in this process when its list is drawn.
    """
    ts = [mpf(T) for T in t_grid]
    if not ts:
        raise ValueError("empty temperature grid")
    if any(T <= 0 for T in ts):
        raise ValueError("all grid temperatures must be positive")
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise ValueError("temperature grid must be strictly ascending")
    pols = Polarization(pol).modes()
    systems = [replace(template, temperature_T=float(T), polarization=Polarization(pol))
               for T in ts]
    *results, f0 = run_points("dF", systems,
                              zero=replace(template, polarization=Polarization(pol)))

    def records(p):
        out = []
        for T, system, res in zip(ts, systems, results):
            df_num = res.delta_f(p)
            df_th = theory_correction(system, p).evaluate(T)
            r = None if df_th == 0 else (df_th - df_num) / df_th
            out.append(SweepRecord(T=T, F_num=f0[p] + df_num, F_asym=f0[p] + df_th,
                                   dF_num=df_num, dF_th=df_th, R=r, pol=p))
        return out
    return (records(p) for p in pols)


def run_points(kind: str, systems, zero: PlateSystem | None = None) -> list:
    """`free_energy` (kind "F") or `delta_f` (kind "dF") of each system, in
    order, and when `zero` is given its zero_temperature_energies as one
    more result at the end.

    The points are independent, so each is one task of a process pool made
    for this call: forked, so the workers inherit the working precision,
    and sized to the CPUs this process may use.  The tasks are taken in the
    order given, so an ascending grid starts with its coldest, most costly
    point (the cut-off M grows as 1/T), and F(0) comes last.  Every result
    is the one an in-process call gives, bit for bit.  With one CPU, one
    task or no fork start method the same tasks run in this process.  When
    a task raises, the pending ones are cancelled and its exception reaches
    the caller with its type; no worker outlives the call.
    """
    # imported here: only callers that sweep load the pool's modules
    import multiprocessing
    import os
    from concurrent.futures import ProcessPoolExecutor

    tasks = [(system, kind) for system in systems]
    if zero is not None:
        tasks.append((zero, "F0"))
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(len(tasks), cpus)
    if workers < 2 or "fork" not in multiprocessing.get_all_start_methods():
        return [_point(task) for task in tasks]
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        try:
            return list(pool.map(_point, tasks))
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


def _point(task):
    """One task of `run_points`: (system, kind).  It calls the module globals
    free_energy, delta_f and zero_temperature_energies, which the pool never
    pickles, so a wrapper swapped in for any of them works in a worker too."""
    system, kind = task
    return {"F": free_energy, "dF": delta_f, "F0": zero_temperature_energies}[kind](system)


TM_FIT_POWERS = (2.0, 3.0, 4.0, 5.0)
TE_FIT_POWERS = (1.5, 2.0, 2.5)     # the expansion continues in powers of sqrt(T)


def fit_expansion(records, extra_powers=TM_FIT_POWERS) -> FitResult:
    """Least-squares fit of ln|dF_num| to ln(D T^2 |1 - D1 T + sum c_p T^p|).

    Fitting the logarithm weights residuals relatively, which matters since
    dF spans several decades over a typical grid.  extra_powers selects the
    correction basis beyond the guaranteed D1 T term; half-integer powers
    belong in it for the polarization with a T^{5/2} term.
    """
    recs = list(records)
    if len(recs) < 6:
        raise FitError("need at least 6 records")
    n_params = 2 + len(extra_powers)
    if len(recs) <= n_params:
        raise FitError(f"{len(recs)} records for {n_params} fitted parameters; "
                       "need more records than parameters")
    T = np.array([float(r.T) for r in recs])
    y = np.array([float(r.dF_num) for r in recs])
    if T.max() / T.min() < 8.0:
        raise FitError("grid should span close to a decade in T")
    sign = int(np.sign(y[0]))
    if sign == 0 or any(np.sign(y) != sign):
        raise FitError("dF_num changes sign on the grid; cannot fit log model")
    logy = np.log(np.abs(y))
    powers = [float(p) for p in extra_powers]

    def model(T, D, D1, *cs):
        s = 1.0 - D1 * T
        for p, c in zip(powers, cs):
            s = s + c * T ** p
        return np.log(D) + 2.0 * np.log(T) + np.log(np.abs(s))

    p0 = [float(np.exp(logy[0]) / T[0] ** 2), 0.3] + [0.0] * len(powers)
    try:
        popt, pcov = curve_fit(model, T, logy, p0=p0, maxfev=50000)
    except RuntimeError as exc:
        raise FitError(f"fit failed to converge: {exc}") from exc
    if not np.all(np.isfinite(pcov)):
        raise FitError("ill-conditioned fit (covariance not finite)")

    extras = {p: c for p, c in zip(powers, popt[2:])}
    d2 = float(extras.get(2.0, 0.0))
    return FitResult(D=float(popt[0]), D1=float(popt[1]), D2=d2,
                     T_range=(float(T[0]), float(T[-1])), sign=sign, extras=extras)


def r_slope(records, index: int = 0):
    """3-point one-sided slope dR/dT at the grid point `index`."""
    recs = list(records)
    if len(recs) < 3:
        raise ValueError("need at least 3 records")
    if index > len(recs) - 3:
        raise ValueError("index too close to the end of the grid")
    r = [recs[index + i].R for i in range(3)]
    t = [mpf(recs[index + i].T) for i in range(3)]
    if any(v is None for v in r):
        raise ValueError("R undefined at a stencil point")
    # quadratic through three (possibly non-uniform) points, derivative at t0
    h1, h2 = t[1] - t[0], t[2] - t[0]
    return (r[1] * h2 * h2 - r[2] * h1 * h1 - r[0] * (h2 * h2 - h1 * h1)) / (h1 * h2 * (h2 - h1))


def te_cube_comparison(template: PlateSystem, records) -> list:
    """(dF_num - C2 T^2 residual) vs the magnitude of the T^3 TE term, read
    from the TE SweepRecords of `r_curve` (no scan is repeated).

    The residual mixes the T^{5/2} and T^3 corrections; the comparison is
    an order-of-magnitude statement, not a digit-level one.
    """
    mat = template.material
    th = asymptotics.delta_f_te(mat.four_pi_sigma, template.separation_a, 0.0,
                                eps_bar=mat.eps_bar)
    c2 = th.coefficient(2)
    c3 = th.coefficient(3)
    rows = []
    for rec in records:
        T = mpf(rec.T)
        residual = rec.dF_num - c2 * T * T
        t3 = abs(c3) * T ** 3
        rows.append({"T": T, "residual": residual, "t3_term": t3,
                     "ratio": None if t3 == 0 else abs(residual) / t3,
                     "same_sign": bool(residual * c3 > 0)})
    return rows


def log_grid(t_min, t_max, points_per_decade: int = 25) -> list:
    """Logarithmic grid, ascending, endpoints included."""
    if t_min <= 0 or t_max <= t_min:
        raise ValueError("need 0 < t_min < t_max")
    if points_per_decade < 1:
        raise ValueError(f"points_per_decade must be >= 1, got {points_per_decade}")
    n = max(2, int(round(np.log10(t_max / t_min) * points_per_decade)) + 1)
    return list(np.logspace(np.log10(t_min), np.log10(t_max), n))
