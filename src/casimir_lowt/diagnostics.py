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
# delta_f_direct is imported for the benchmark's span wrappers (bench/spans.py)
from .lifshitz import PlateSystem, Polarization, delta_f_direct, free_energy, zero_temperature_energy  # noqa: F401


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
    covariance: np.ndarray   # 3x3 for (D, D1, D2)
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
    """SweepRecords over an ascending temperature grid, one polarization."""
    ts = [mpf(T) for T in t_grid]
    if not ts:
        raise ValueError("empty temperature grid")
    if any(T <= 0 for T in ts):
        raise ValueError("all grid temperatures must be positive")
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise ValueError("temperature grid must be strictly ascending")
    polarization = Polarization(pol)
    f0 = zero_temperature_energy(replace(template, polarization=polarization))
    out = []
    for T in ts:
        system = replace(template, temperature_T=float(T), polarization=polarization)
        res = free_energy(system)
        df_num = res.delta_f(pol)
        f_num = res.per_mode[pol]
        th = theory_correction(system, pol)
        df_th = th.evaluate(T)
        r = None if df_th == 0 else (df_th - df_num) / df_th
        out.append(SweepRecord(T=T, F_num=f_num, F_asym=f0 + df_th,
                               dF_num=df_num, dF_th=df_th, R=r, pol=pol))
    return out


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
    idx = [0, 1] + ([2 + powers.index(2.0)] if 2.0 in powers else [])
    cov3 = np.zeros((3, 3))
    sub = pcov[np.ix_(idx, idx)]
    cov3[:sub.shape[0], :sub.shape[1]] = sub
    return FitResult(D=float(popt[0]), D1=float(popt[1]), D2=d2, covariance=cov3,
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
    n = max(2, int(round(np.log10(t_max / t_min) * points_per_decade)) + 1)
    return list(np.logspace(np.log10(t_min), np.log10(t_max), n))
