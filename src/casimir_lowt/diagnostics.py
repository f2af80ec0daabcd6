"""Temperature sweeps, the R consistency diagnostic, and coefficient fits.

The R diagnostic compares the directly computed thermal correction with
the closed-form expansion,

    R(T) = (dF_th - dF_num) / dF_th,

which is far more sensitive than eyeballing free-energy curves: if the
expansion's T^2 and T^3 coefficients are both right, R -> 0 with zero
slope as T -> 0 and the residual curvature measures the first uncomputed
coefficient.  Each record carries dR/dT in closed form, from the table's
own d(dF_num)/dT and the closed form's term-wise derivative, so no grid
is too short or too coarse for it.  The fit side extracts D, D1, D2 from
dF_num assuming |dF_num| = D T^2 (1 - D1 T + D2 T^2 + ...), a series
whose coefficients enter linearly, by one weighted least-squares solve in
float64 (a Householder QR in Python floats), so they can be compared with
the predicted coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from mpmath import mpf

from . import asymptotics
from .abel_plana import delta_f_table
from .dielectric import PermittivityMode
# The program calls the names of the first import; it never calls the three of
# the second, which are attributes here only so that bench/spans.py's TARGETS
# resolve, as `lifshitz.g_of_m` and `lifshitz.mode_scan` are (one stub, which
# raises: the 33-digit g(m) and mode scan are tests/oracles.py's).
from .lifshitz import PlateSystem, Polarization, zero_temperature_energies
from .lifshitz import delta_f_direct, free_energy, zero_temperature_energy  # noqa: F401


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
    theory: object = None   # the AsymptoticResult that gave dF_th
    dR_dT: object = None    # 1/K; None where R is


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
    polarization, or for "both" the TM records, then the TE records.

    Every dF_num and d(dF_num)/dT come from one Abel-Plana table
    (`abel_plana.delta_f_table`), made first: it refuses with ValueError,
    before any point is computed, every sweep that it or a closed form
    cannot take (the ideal metal and sigma = 0 among them).  Then each
    polarization's closed form is built once, at the grid's hottest
    temperature, and each record carries it as `theory`; a grid that
    leaves the expansion regime gives one ValidityWarning per polarization
    there.  F(0) comes from one `zero_temperature_energies` pass.  Table
    and F(0) are float64 (dF_num kept a float, F(0) stored as mpf), both
    serve every polarization, in this process; F_num is F(0) + dF_num.
    No mode scan runs and no process starts.
    """
    ts = list(t_grid)
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise ValueError("temperature grid must be strictly ascending")
    system = replace(template, polarization=Polarization(pol))
    table = delta_f_table(system, ts)
    # T enters a closed form only through its regime check, and t grows with T
    hottest = replace(template, temperature_T=float(ts[-1]))
    theory = {p: theory_correction(hottest, p) for p in system.polarization.modes()}
    f0 = zero_temperature_energies(system)
    records = []
    for p, th in theory.items():
        for T, (df, ddf) in zip(ts, table[p]):
            df_th = th.evaluate(T)
            r = slope = None
            if df_th != 0:
                r = (df_th - df) / df_th
                slope = -(ddf * df_th - df * th.derivative(T)) / df_th ** 2
            records.append(SweepRecord(T=T, F_num=f0[p] + df, F_asym=f0[p] + df_th,
                                       dF_num=df, dF_th=df_th, R=r, pol=p, theory=th,
                                       dR_dT=slope))
    return records


TM_FIT_POWERS = (2.0, 3.0, 4.0, 5.0)
TE_FIT_POWERS = (1.5, 2.0, 2.5)     # the expansion continues in powers of sqrt(T)


def fit_expansion(records, extra_powers=TM_FIT_POWERS) -> FitResult:
    """Least-squares fit of |dF_num| to D T^2 (1 - D1 T + sum c_p T^p).

    The model |dF_num|/T^2 = D - D D1 T + sum D c_p T^p is linear in its
    coefficients, so the fit is one rank-checked least-squares solve in
    float64 (`_least_squares`).  Each row is divided by its own
    |dF_num|/T^2, which weights residuals relatively, as dF spans several
    decades over a typical grid; T is scaled by its largest value to keep
    the columns of order one.  extra_powers selects the correction
    basis beyond the guaranteed D1 T term; half-integer powers belong in it
    for the polarization with a T^{5/2} term.
    """
    recs = list(records)
    if len(recs) < 6:
        raise FitError("need at least 6 records")
    n_params = 2 + len(extra_powers)
    if len(recs) <= n_params:
        raise FitError(f"{len(recs)} records for {n_params} fitted parameters; "
                       "need more records than parameters")
    T = [float(r.T) for r in recs]
    y = [float(r.dF_num) for r in recs]
    if max(T) / min(T) < 8.0:
        raise FitError("grid should span close to a decade in T")
    sign = (y[0] > 0) - (y[0] < 0)
    if sign == 0 or not all(v * sign > 0 for v in y):
        raise FitError("dF_num changes sign on the grid; the fit needs one sign")
    powers = [float(p) for p in extra_powers]
    scale = max(T)
    A = [[(t / scale) ** p / (abs(v) / t ** 2) for p in [0.0, 1.0] + powers]
         for t, v in zip(T, y)]
    coef = _least_squares(A, [1.0] * len(A))
    D = coef[0]
    if not D > 0:
        raise FitError("ill-conditioned fit")

    extras = {p: c / (D * scale ** p) for p, c in zip(powers, coef[2:])}
    return FitResult(D=D, D1=-coef[1] / (D * scale), D2=extras.get(2.0, 0.0),
                     T_range=(float(T[0]), float(T[-1])), sign=sign, extras=extras)


def _least_squares(A, b) -> list:
    """The c that minimizes |A c - b| for the float rows A (more rows than
    columns), by Householder QR in float64.  FitError when a diagonal
    entry of R is at most max |R_jj| * max(rows, cols) * 2^-52, the
    threshold that numpy's lstsq applies to the singular values."""
    cols = [list(col) for col in zip(*A)]
    b = list(b)
    rows, n = len(b), len(cols)
    for j, col in enumerate(cols):
        v = col[j:]
        alpha = -math.copysign(math.hypot(*v), v[0])
        v[0] -= alpha
        vv = math.fsum([x * x for x in v])
        if vv > 0:
            for other in cols[j + 1:] + [b]:
                f = 2 * math.fsum([x * o for x, o in zip(v, other[j:])]) / vv
                other[j:] = [o - f * x for o, x in zip(other[j:], v)]
        col[j] = alpha
    diag = [abs(col[j]) for j, col in enumerate(cols)]
    if min(diag) <= max(diag) * max(rows, n) * 2.0 ** -52:
        raise FitError("ill-conditioned fit")
    c = [0.0] * n
    for j in reversed(range(n)):
        c[j] = (b[j] - math.fsum([cols[k][j] * c[k] for k in range(j + 1, n)])) / cols[j][j]
    return c


def te_cube_comparison(records) -> list:
    """(dF_num - C2 T^2 residual) vs the magnitude of the T^3 TE term, read
    from the TE SweepRecords of `r_curve` and the closed form each carries
    (nothing is computed again).

    The residual mixes the T^{5/2} and T^3 corrections; the comparison is
    an order-of-magnitude statement, not a digit-level one.
    """
    rows = []
    for rec in records:
        c2, c3 = rec.theory.coefficient(2), rec.theory.coefficient(3)
        T = mpf(rec.T)
        residual = rec.dF_num - c2 * T * T
        t3 = abs(c3) * T ** 3
        rows.append({"T": T, "residual": residual, "t3_term": t3,
                     "ratio": None if t3 == 0 else abs(residual) / t3,
                     "same_sign": bool(residual * c3 > 0)})
    return rows


def log_grid(t_min, t_max, points_per_decade: int = 25) -> list:
    """Logarithmic grid of floats, ascending, from exactly t_min to t_max."""
    if t_min <= 0 or t_max <= t_min:
        raise ValueError("need 0 < t_min < t_max")
    if points_per_decade < 1:
        raise ValueError(f"points_per_decade must be >= 1, got {points_per_decade}")
    n = max(2, int(round(math.log10(t_max / t_min) * points_per_decade)) + 1)
    lo = math.log10(t_min)
    step = (math.log10(t_max) - lo) / (n - 1)
    return [float(t_min)] + [10.0 ** (lo + k * step) for k in range(1, n - 1)] + [float(t_max)]
