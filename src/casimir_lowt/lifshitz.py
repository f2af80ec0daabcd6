"""Free energy of two parallel halfspaces from the Matsubara mode sum.

Everything here is built around the dimensionless per-mode integral

    g(m) = integral_{x_min}^{inf} dx x ln(1 - r^2(x) e^{-x}),

with x = 2 kappa a and x_min = 2 a zeta_m / c, in terms of which the free
energy per unit area is F = k_B T / (8 pi a^2) * sum' g(m) (prime: the
m = 0 term enters with half weight).  The thermal correction studied by
the diagnostics is the sum-minus-integral difference

    delta Gamma = [sum'_m g(m)] - integral_0^inf dm g(m),

which cancels leading digits: the benchmark measures 4.7 for TM at 15 mK
and 7.5 for TE at 12.5 mK on si-paper, and up to 7.9 near 1 K, where the
correction is a small part of F.  So the sum and the integral are
evaluated from the *same* g values in one scan at extended precision, with
the sum tail beyond a cutoff M handled by endpoint derivative corrections
(Euler-Maclaurin with 7-point finite-difference derivatives at M).  F adds
the m-integral over [M, inf) and dF subtracts the one over [0, M]; each
scan integrates only its own side.  One x-panel layout serves every g of a
dielectric, and one m-panel layout serves both the scan's m-integral and
the y-integral of F(0).

Each pass of the kernel serves every polarization the caller asks for:
at each x node, x, e^{-x}, eps, z = (x_min/x)^2 (eps - 1) and sqrt(1 + z)
are computed once, and only r_TM or r_TE and the log term are done per
polarization, each into its own running sum with the operations of a
one-polarization pass in the same order (so every value is bit-identical
to it).  The ideal metal, where r^2 = 1 in both modes, needs no x-integral:
its g is -[x_min Li_2(e^{-x_min}) + Li_3(e^{-x_min})] in both, which is
-zeta(3) at m = 0.  F, dF and F(0) make one such pass over their m (or y)
nodes for all of `PlateSystem.polarization.modes()`; `g_of_m` and
`mode_scan` (dF's scan) are the one-polarization views, and
`zero_temperature_energies` gives F(0) per polarization from its one pass.

The x-panel loop runs on mpmath's raw arithmetic (mpmath.libmp on mpf
tuples at mp.prec, round-nearest), skipping the per-operation wrapper of
mpf objects, and takes the nodes, weights and e^{-x} of the m-independent
panels above x = 1 from a table built once per (panel order, precision).
Its operations and their order are those of a Gauss-Legendre panel sum on
mpf values (h times the fsum of w f, panel by panel), and the tests check
every g bit for bit against that mpf reference.  The panels stop at the
precision horizon x = (prec + 1) ln 2 (79.0 at 33 digits), past which
1 - r^2 e^{-x} rounds to 1 and every integrand value is exactly 0, so no
cut-off error is made there.

Quadrature is non-adaptive by design: fixed Gauss-Legendre panels whose
layout is matched to the known shape of the integrands (logarithmic panels
near the x lower limit, an m = v^2 substitution that turns the m^{3/2} and
m^2 ln m endpoint behaviour into polynomials times ln v, geometric panels
on the exponential tails).  Against the same layout at doubled panel
orders (`QuadratureSpec().refined()`, 40 digits), the benchmark's traced
runs measure at the default 33 digits a relative error of 2.0e-18 in dF
and 3.7e-18 in F(0) + dF on the TM 15-120 mK sweep, and 2.6e-16 in F near 1 K.
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass, field
from functools import lru_cache

import mpmath
import numpy as np
from mpmath import mp, mpf
from mpmath.libmp import (fone, fzero, mpf_add, mpf_div, mpf_exp, mpf_log, mpf_mul,
                          mpf_neg, mpf_sub, mpf_sum, round_nearest)

from .constants import alpha_param, mp_constants, reduced_temperature
from .dielectric import (DielectricModel, PermittivityMode, mpf_reflections, permittivity,
                         reflection_limits_zero_frequency)


def _x_horizon(prec: int) -> float:
    """(prec + 1) ln 2: beyond it r^2 e^-x < 2^-(prec+1) for |r| <= 1, so
    1 - r^2 e^-x rounds to 1 at prec bits and every integrand is exactly 0."""
    return (prec + 1) * math.log(2)


class PrecisionError(ArithmeticError):
    """Cancellation ate too many digits; raise the working precision."""


class Polarization(enum.Enum):
    TM = "tm"
    TE = "te"
    BOTH = "both"

    def modes(self) -> tuple[str, ...]:
        return ("tm", "te") if self is Polarization.BOTH else (self.value,)


@dataclass(frozen=True)
class QuadratureSpec:
    """Gauss-Legendre panel orders for the x- and m-integrals."""
    nx: int = 16        # per x-panel
    nm_unit: int = 48   # first m-panel [0, s] after m = v^2 substitution
    nm_geo: int = 24    # per geometric m-panel beyond s, and the tail

    def refined(self) -> "QuadratureSpec":
        return QuadratureSpec(2 * self.nx, 2 * self.nm_unit, 2 * self.nm_geo)


@dataclass(frozen=True)
class PlateSystem:
    """Two identical halfspaces: geometry, temperature, material, modes."""
    separation_a: float              # m
    temperature_T: float             # K
    material: DielectricModel
    polarization: Polarization = Polarization.BOTH
    quadrature: QuadratureSpec = field(default_factory=QuadratureSpec)

    def __post_init__(self) -> None:
        for name in ("separation_a", "temperature_T"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.separation_a <= 0:
            raise ValueError("separation must be positive")
        if self.temperature_T < 0:
            raise ValueError("temperature must be nonnegative")


@dataclass
class FreeEnergyResult:
    total: object                 # J/m^2
    per_mode: dict                # {"tm": ..., "te": ...} J/m^2
    m_truncation: int
    est_error: object             # J/m^2: the Euler-Maclaurin d5 term only, not a bound
    g_evals: int                  # g(m) evaluations of the scan, each serving every mode
    seconds: float                # wall time of the free_energy call, in the process that ran it


@dataclass
class DeltaFResult:
    scans: dict                   # {"tm": ModeScan, ...}, each integrated over [0, M]
    prefactor: object             # k_B T / (8 pi a^2), J/m^2 per unit of g
    m_truncation: int
    g_evals: int                  # g(m) evaluations of the scan, each serving every mode
    seconds: float                # wall time of the delta_f call, in the process that ran it

    def delta_f(self, pol: str):
        """Thermal correction of one polarization, J/m^2: the sum-minus-integral
        of its scan.

        Raises PrecisionError when cancellation leaves fewer than ~3
        trustworthy digits at the current precision.
        """
        scan = self.scans[pol]
        dg = scan.delta_gamma
        guard = scan.cancellation_guard
        if dg != 0 and guard * mpf(10) ** (3 - mp.dps) > abs(dg) * mpf("1e-3"):
            raise PrecisionError(
                f"{pol}: ~{mpmath.nstr(guard / abs(dg), 3)}x cancellation at "
                f"{mp.dps} digits; raise the working precision")
        return self.prefactor * dg


def gauss_legendre(n: int):
    """Gauss-Legendre nodes/weights on [-1, 1] at the current precision.

    numpy's double-precision nodes seed a few Newton steps on the Legendre
    recurrence; cached per (n, prec), since several binary precisions share
    one decimal one.
    """
    return _gauss_legendre_cached(n, mp.prec)


@lru_cache(maxsize=64)
def _gauss_legendre_cached(n: int, prec: int):
    xs, _ = np.polynomial.legendre.leggauss(n)
    nodes = []
    for x0 in xs:
        x = mpf(float(x0))
        for _ in range(6):
            p0, p1 = mpf(1), x
            for k in range(2, n + 1):
                p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
            dp = n * (x * p1 - p0) / (x * x - 1)
            x = x - p1 / dp
        p0, p1 = mpf(1), x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        dp = n * (x * p1 - p0) / (x * x - 1)
        nodes.append((x, 2 / ((1 - x * x) * dp * dp)))
    return tuple(nodes)


def _gl_panels(f, a, b, nodes) -> list:
    """integral_a^b of each component of the tuple-valued f on one
    Gauss-Legendre panel: f is called once per node, and component i is
    h * fsum(w f_i), in node order."""
    h = (b - a) / 2
    mid = (b + a) / 2
    ys = [f(mid + h * x) for x, _ in nodes]
    return [h * mpmath.fsum(w * y[i] for (_, w), y in zip(nodes, ys))
            for i in range(len(ys[0]))]


def _x_panels(lo, ts, prec: int):
    """The x-panels from lo on: a panel starting at b <= 2 has width 2,
    later panels double (none is clipped), and no panel starts beyond
    `_x_horizon(prec)`.  Yields per panel its half-width h and the x and
    e^-x of its nodes (from the raw Gauss-Legendre nodes ts), as raw mpf
    tuples at prec bits.
    """
    b = mpf(lo)
    horizon = _x_horizon(prec)
    while b <= horizon:
        nb = b * 2 if b > 2 else b + 2
        h, mid = ((nb - b) / 2)._mpf_, ((nb + b) / 2)._mpf_
        xs = tuple(mpf_add(mid, mpf_mul(h, t, prec, round_nearest), prec, round_nearest)
                   for t in ts)
        yield h, xs, tuple(mpf_exp(mpf_neg(x), prec, round_nearest) for x in xs)
        b = nb


@lru_cache(maxsize=16)
def _x_panel_table(nx: int, prec: int):
    """(raw Gauss-Legendre nodes, their raw weights, the fixed x-panels from
    1 to the horizon) for one panel order at one precision; quadrature
    constants only.  Built under mp.prec == prec."""
    ts, ws = zip(*((t._mpf_, w._mpf_) for t, w in gauss_legendre(nx)))
    return ts, ws, tuple(_x_panels(1, ts, prec))


def _x_integral(f, xmin, nx: int, n: int) -> list:
    """integral_{xmin}^{inf} dx f on the kernel's fixed panel layout, for
    each of the n components of f.

    f is called once per panel: it maps the raw mpf tuples x and e^-x of
    the panel's nodes to n lists (one per polarization) of the raw
    integrand at those nodes.  The result is the list of the n integrals
    as raw mpf tuples.  Below x = 1 (when xmin < 0.5) the panels are
    uniform in u = ln x, which resolves the scale xmin of the reflection
    coefficient and, where r^2 is close to 1, the x ln x slope of f.
    Above, a panel starting at b <= 2 has width 2 and later panels double,
    up to the precision horizon (`_x_panels`), past which f is exactly 0;
    from x = 1 on these come from `_x_panel_table`.

    The arithmetic is mpmath.libmp at mp.prec, round-nearest, in the order
    of the mpf reference in the tests: each panel is h times the mpf_sum
    (what mpmath.fsum calls) of w f, added to the total in turn, for each
    component separately.
    """
    prec = mp.prec
    ts, ws, fixed = _x_panel_table(nx, prec)
    totals = [fzero] * n

    def add_panel(h, columns):
        for i, terms in enumerate(columns):
            totals[i] = mpf_add(totals[i], mpf_mul(h, mpf_sum(terms, prec, round_nearest),
                                                   prec, round_nearest), prec, round_nearest)

    if xmin < mpf("0.5"):
        u0 = mpmath.log(xmin)
        npan = max(1, int(mp.ceil(-u0 / 2)))
        du = -u0 / npan
        for k in range(npan):
            a, b = u0 + k * du, u0 + (k + 1) * du
            h, mid = ((b - a) / 2)._mpf_, ((b + a) / 2)._mpf_
            xs = [mpf_exp(mpf_add(mid, mpf_mul(h, t, prec, round_nearest), prec, round_nearest),
                          prec, round_nearest) for t in ts]
            fxs = f(xs, [mpf_exp(mpf_neg(x), prec, round_nearest) for x in xs])
            add_panel(h, [[mpf_mul(w, mpf_mul(x, fx, prec, round_nearest), prec, round_nearest)
                           for w, x, fx in zip(ws, xs, column)] for column in fxs])
        panels = fixed
    else:
        panels = _x_panels(xmin, ts, prec)
    for h, xs, exs in panels:
        add_panel(h, [[mpf_mul(w, fx, prec, round_nearest) for w, fx in zip(ws, column)]
                      for column in f(xs, exs)])
    return totals


def _g_zero(system: PlateSystem, pol: str):
    """Analytic m = 0 summand, -Li_3(r0^2), from the zeta -> 0 reflection limits."""
    r_te, r_tm = reflection_limits_zero_frequency(system.material)
    r0 = r_te if pol == "te" else r_tm
    return -mpmath.polylog(3, r0 * r0)


def _g_modes(system: PlateSystem, m, pols) -> tuple:
    """g(m) for real m >= 0 of each polarization in pols, in that order,
    from one kernel pass (m = 0 analytic)."""
    m = mpf(m)
    if m < 0:
        raise ValueError("m must be nonnegative")
    if m == 0:
        return tuple(_g_zero(system, pol) for pol in pols)
    k = mp_constants()
    zeta_m = 2 * mpmath.pi * m * k.k_B * mpf(system.temperature_T) / k.hbar
    return _g_at_frequency(system, zeta_m, pols)


def g_of_m(system: PlateSystem, m, pol: str):
    """The per-mode integral g(m) of one polarization for real m >= 0."""
    return _g_modes(system, m, (pol,))[0]


@dataclass
class ModeScan:
    """What one pass over g(m) gives for one polarization: the
    trapezoid-weighted partial sum to M, the odd derivatives of g at M for
    the Euler-Maclaurin endpoint correction, and the m-integral over one
    side of M, [0, M] for dF or [M, inf) for F (see `_mode_scans`).
    """
    M: int
    sum_part: object       # g0/2 + sum_1^{M-1} + gM/2
    integral: object       # integral_0^M, or integral_M^inf on free_energy's scans
    d1: object
    d3: object
    d5: object

    @property
    def endpoint_sum(self):
        """sum'_{m>=0} g - integral_M^inf g dm."""
        return self.sum_part - self.d1 / 12 + self.d3 / 720 - self.d5 / 30240

    @property
    def delta_gamma(self):
        """sum'_{m>=0} g - integral_0^inf g dm."""
        return (self.sum_part - self.integral
                - self.d1 / 12 + self.d3 / 720 - self.d5 / 30240)

    @property
    def cancellation_guard(self):
        """Scale against which delta_gamma's surviving digits are judged."""
        return max(abs(self.sum_part), abs(self.integral))


def _truncation_m(system: PlateSystem) -> int:
    # cutoff well into the regime where g(m) is smooth on unit-m scale;
    # for a conductor that means m t >~ 5 (past the knee of the pole term)
    mat = system.material
    if mat.mode is not PermittivityMode.IDEAL_METAL and mat.four_pi_sigma > 0:
        t = reduced_temperature(system.temperature_T, mat.four_pi_sigma)
        return max(30, int(mp.ceil(5 / t)))
    return 30


def _m_integral(f, s, end, spec: QuadratureSpec) -> list:
    """integral_0^end f(m) dm of each component of the tuple-valued f, on
    the m layout shared by the scan and F(0).

    On [0, s] the substitution m = v^2 turns the m^{3/2} and m^2 ln m
    endpoint terms into v^3 and v^4 ln v, mild enough for one high-order
    panel; from s on, geometric panels double up to `end`.
    """
    total = _gl_panels(lambda v: [2 * v * y for y in f(v * v)], mpf(0), mpmath.sqrt(s),
                       gauss_legendre(spec.nm_unit))
    geo = gauss_legendre(spec.nm_geo)
    b = mpf(s)
    while b < end:
        nb = min(2 * b, mpf(end))
        total = [t + p for t, p in zip(total, _gl_panels(f, b, nb, geo))]
        b = nb
    return total


def _mode_scans(system: PlateSystem, pols, tail: bool) -> tuple[dict, int]:
    """One pass over the m nodes serving every polarization in pols: g at
    m = 0..M+3, then the m-integral over [M, inf) when `tail` (for F) and
    over [0, M] otherwise (for dF).  Returns ({pol: ModeScan}, the number of
    g(m) evaluations made); each evaluation is one kernel pass for all pols.
    """
    if system.temperature_T <= 0:
        raise ValueError("mode scan requires T > 0")
    M = _truncation_m(system)
    evals = 0

    def g(m):
        nonlocal evals
        evals += 1
        return _g_modes(system, m, pols)
    gv = [g(m) for m in range(M + 4)]
    if tail:
        # g decays like e^{-x_min(m)}; stop once x_min > 60
        k = mp_constants()
        xm1 = 4 * mpmath.pi * mpf(system.separation_a) * k.k_B * mpf(system.temperature_T) / (k.hbar * k.c)
        geo = gauss_legendre(system.quadrature.nm_geo)
        integ = [mpf(0)] * len(pols)
        b = mpf(M)
        while xm1 * b < 60:
            nb = 2 * b
            integ = [t + p for t, p in zip(integ, _gl_panels(g, b, nb, geo))]
            b = nb
    else:
        integ = _m_integral(g, 1, M, system.quadrature)

    scans = {}
    for i, pol in enumerate(pols):
        gp = [v[i] for v in gv]
        # 7-point central differences at unit spacing around M
        s = gp[M - 3:M + 4]
        d1 = (-s[0] + 9 * s[1] - 45 * s[2] + 45 * s[4] - 9 * s[5] + s[6]) / 60
        d3 = (s[0] - 8 * s[1] + 13 * s[2] - 13 * s[4] + 8 * s[5] - s[6]) / 8
        d5 = (-s[0] + 4 * s[1] - 5 * s[2] + 5 * s[4] - 4 * s[5] + s[6]) / 2
        scans[pol] = ModeScan(M=M, sum_part=gp[0] / 2 + mpmath.fsum(gp[1:M]) + gp[M] / 2,
                              integral=integ[i], d1=d1, d3=d3, d5=d5)
    return scans, evals


def mode_scan(system: PlateSystem, pol: str) -> ModeScan:
    """The scan behind one polarization's dF: its view of `_mode_scans`."""
    return _mode_scans(system, (pol,), tail=False)[0][pol]


def _prefactor(system: PlateSystem):
    """k_B T / (8 pi a^2), J/m^2 per unit of g."""
    a = mpf(system.separation_a)
    return mp_constants().k_B * mpf(system.temperature_T) / (8 * mpmath.pi * a * a)


def free_energy(system: PlateSystem) -> FreeEnergyResult:
    """Total free energy per unit area, F = k_B T/(8 pi a^2) sum' g(m).

    One joint mode scan serves every polarization: its endpoint-corrected
    sum plus the tail integral over [M, inf); the m-integral over [0, M],
    which only dF needs, is never evaluated.
    """
    if system.temperature_T <= 0:
        raise ValueError("free_energy requires T > 0; use zero_temperature_energy")
    start = time.perf_counter()
    pref = _prefactor(system)
    scans, g_evals = _mode_scans(system, system.polarization.modes(), tail=True)
    per_mode = {pol: pref * (scan.endpoint_sum + scan.integral) for pol, scan in scans.items()}
    return FreeEnergyResult(
        total=mpmath.fsum(per_mode.values()), per_mode=per_mode,
        m_truncation=max(scan.M for scan in scans.values()),
        est_error=mpmath.fsum(pref * abs(scan.d5) / 30240 for scan in scans.values()),
        g_evals=g_evals, seconds=time.perf_counter() - start)


def delta_f(system: PlateSystem) -> DeltaFResult:
    """Thermal correction of every polarization from one joint mode scan:
    its sum minus the m-integral over [0, M], with the endpoint correction
    at M; the tail integral, which only F needs, is never evaluated."""
    start = time.perf_counter()
    scans, g_evals = _mode_scans(system, system.polarization.modes(), tail=False)
    return DeltaFResult(scans=scans, prefactor=_prefactor(system),
                        m_truncation=max(scan.M for scan in scans.values()),
                        g_evals=g_evals, seconds=time.perf_counter() - start)


def delta_f_direct(system: PlateSystem) -> dict:
    """Thermal correction per polarization, {pol: J/m^2}: the view of
    `delta_f`, with its PrecisionError."""
    res = delta_f(system)
    return {pol: res.delta_f(pol) for pol in res.scans}


def zero_temperature_energies(system: PlateSystem) -> dict:
    """T = 0 limit per polarization: the Matsubara sum becomes a frequency
    integral.

    With y = 2 a zeta / c,  F(0) = hbar c / (32 pi^2 a^3) integral_0^inf g(y) dy.
    The first m-layout panel ends at the conductivity knee y = alpha =
    2 a (4 pi sigma) / c (at y = 1 without conductivity or above alpha = 1),
    where the TM reflection coefficient falls from 1 to its dielectric value.
    Returns {pol: J/m^2} for every polarization of the system, from one pass
    over the y nodes.
    """
    k = mp_constants()
    a = mpf(system.separation_a)
    mat = system.material
    knee = mpf(1)
    if mat.mode is not PermittivityMode.IDEAL_METAL and mat.four_pi_sigma > 0:
        knee = min(alpha_param(a, mat.four_pi_sigma), knee)
    pols = system.polarization.modes()
    pref = k.hbar * k.c / (32 * mpmath.pi ** 2 * a ** 3)
    integrals = _m_integral(lambda y: _g_at_frequency(system, y * k.c / (2 * a), pols),
                            knee, 60, system.quadrature)
    return {pol: pref * integral for pol, integral in zip(pols, integrals)}


def zero_temperature_energy(system: PlateSystem):
    """F(0) of the system: the sum of `zero_temperature_energies`, TM first."""
    return sum(zero_temperature_energies(system).values())


def _g_at_frequency(system: PlateSystem, zeta_v, pols) -> tuple:
    """g at a continuous imaginary frequency zeta (1/s) of each polarization
    in pols, in that order, from one pass over the x nodes.

    The ideal metal (r^2 = 1 in both modes) is exact instead:
    integral_{x_min}^inf x ln(1 - e^-x) dx = -[x_min Li_2(e^-x_min) +
    Li_3(e^-x_min)], one value for every polarization."""
    k = mp_constants()
    a = mpf(system.separation_a)
    xmin = 2 * a * mpf(zeta_v) / k.c
    if xmin > _x_horizon(mp.prec):
        return (mpf(0),) * len(pols)
    if xmin <= 0:
        raise ValueError("zeta must be positive")
    prec = mp.prec
    mat = system.material
    if mat.mode is PermittivityMode.IDEAL_METAL:
        q = mpmath.exp(-xmin)
        return (-(xmin * mpmath.polylog(2, q) + mpmath.polylog(3, q)),) * len(pols)
    ep = permittivity(mat, zeta_v)
    zfac = (xmin * xmin * (ep - 1))._mpf_
    ep = ep._mpf_

    def f(xs, exs):
        zs = [mpf_div(zfac, mpf_mul(x, x, prec, round_nearest), prec, round_nearest) for x in xs]
        columns = []
        for rs in mpf_reflections(ep, zs, pols, prec):
            r2es = [mpf_mul(mpf_mul(r, r, prec, round_nearest), ex, prec, round_nearest)
                    for r, ex in zip(rs, exs)]
            columns.append([mpf_mul(x, mpf_log(mpf_sub(fone, r2e, prec, round_nearest),
                                               prec, round_nearest), prec, round_nearest)
                            for x, r2e in zip(xs, r2es)])
        return columns
    return tuple(mp.make_mpf(v) for v in _x_integral(f, xmin, system.quadrature.nx, len(pols)))
