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
(Euler-Maclaurin with 7-point finite-difference derivatives at M); F and
dF come from that one scan.  One x-panel layout serves every g, and one
m-panel layout serves both the scan's m-integral and the y-integral of F(0).

The x-panel loop behind every g runs on mpmath's raw arithmetic
(mpmath.libmp on mpf tuples at mp.prec, round-nearest), skipping the
per-operation wrapper of mpf objects, and takes the nodes, weights and
e^{-x} of the m-independent panels above x = 1 from a table built once per
(panel order, precision).  Its operations and their order are those of
`gl_panel` on mpf values, so every g is bit-identical to that form.  The
panels stop at the precision horizon x = (prec + 1) ln 2 (79.0 at 33
digits), past which 1 - r^2 e^{-x} rounds to 1 and every integrand value
is exactly 0, so no cut-off error is made there.

Quadrature is non-adaptive by design: fixed Gauss-Legendre panels whose
layout is matched to the known shape of the integrands (logarithmic panels
near the x lower limit, an m = v^2 substitution that turns the m^{3/2} and
m^2 ln m endpoint behaviour into polynomials times ln v, geometric panels
on the exponential tails).  Against adaptive reference quadrature this
layout is accurate to ~1e-21 relative at the default 33-digit precision
while being orders of magnitude faster.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import lru_cache

import mpmath
import numpy as np
from mpmath import mp, mpf
from mpmath.libmp import (fone, fzero, mpf_add, mpf_div, mpf_exp, mpf_log, mpf_mul,
                          mpf_neg, mpf_sub, mpf_sum, round_nearest)

from .constants import alpha_param, mp_constants, reduced_temperature
from .dielectric import (DielectricModel, PermittivityMode, mpf_reflection, permittivity,
                         reflection_limits_zero_frequency)
from .special import polylog


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
    est_error: object             # J/m^2
    prefactor: object             # k_B T / (8 pi a^2), J/m^2 per unit of g
    scans: dict                   # {"tm": ModeScan, ...} behind per_mode

    def delta_f(self, pol: str):
        """Thermal correction of one polarization, J/m^2: the sum-minus-integral
        piece of the same scan that gave per_mode[pol].

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


def gl_panel(f, a, b, nodes):
    """integral_a^b f, single Gauss-Legendre panel."""
    h = (b - a) / 2
    mid = (b + a) / 2
    return h * mpmath.fsum(w * f(mid + h * x) for x, w in nodes)


def _x_panels(lo, nodes, prec: int):
    """The x-panels from lo on: a panel starting at b <= 2 has width 2,
    later panels double (none is clipped), and no panel starts beyond
    `_x_horizon(prec)`.  Yields per panel its half-width h and the
    (x, w, e^-x) of each node, as raw mpf tuples at prec bits.
    """
    b = mpf(lo)
    horizon = _x_horizon(prec)
    while b <= horizon:
        nb = b * 2 if b > 2 else b + 2
        h, mid = ((nb - b) / 2)._mpf_, ((nb + b) / 2)._mpf_
        pts = []
        for t, w in nodes:
            x = mpf_add(mid, mpf_mul(h, t, prec, round_nearest), prec, round_nearest)
            pts.append((x, w, mpf_exp(mpf_neg(x), prec, round_nearest)))
        yield h, tuple(pts)
        b = nb


@lru_cache(maxsize=16)
def _x_panel_table(nx: int, prec: int):
    """(raw Gauss-Legendre nodes, the fixed x-panels from 1 to the horizon)
    for one panel order at one precision; quadrature constants only.  Built
    under mp.prec == prec."""
    nodes = tuple((t._mpf_, w._mpf_) for t, w in gauss_legendre(nx))
    return nodes, tuple(_x_panels(1, nodes, prec))


def _x_integral(f, xmin, nx: int):
    """integral_{xmin}^{inf} dx f on the kernel's fixed panel layout.

    f maps the raw mpf tuples (x, e^-x) to the raw integrand; the result is
    a raw mpf tuple.  Below x = 1 (when xmin < 0.5) the panels are uniform in
    u = ln x, which resolves the scale xmin of the reflection coefficient
    and the x ln x slope singularity of the ideal metal alike.  Above, a
    panel starting at b <= 2 has width 2 and later panels double, up to the
    precision horizon (`_x_panels`), past which f is exactly 0; from x = 1
    on these come from `_x_panel_table`.

    The arithmetic is mpmath.libmp at mp.prec, round-nearest, with
    gl_panel's operations in gl_panel's order: each panel is h times the
    mpf_sum (what mpmath.fsum calls) of w f, added to the total in turn.
    """
    prec = mp.prec
    nodes, fixed = _x_panel_table(nx, prec)
    total = fzero
    if xmin < mpf("0.5"):
        u0 = mpmath.log(xmin)
        npan = max(1, int(mp.ceil(-u0 / 2)))
        du = -u0 / npan
        for i in range(npan):
            a, b = u0 + i * du, u0 + (i + 1) * du
            h, mid = ((b - a) / 2)._mpf_, ((b + a) / 2)._mpf_
            terms = []
            for t, w in nodes:
                x = mpf_exp(mpf_add(mid, mpf_mul(h, t, prec, round_nearest),
                                    prec, round_nearest), prec, round_nearest)
                fx = f(x, mpf_exp(mpf_neg(x), prec, round_nearest))
                terms.append(mpf_mul(w, mpf_mul(x, fx, prec, round_nearest),
                                     prec, round_nearest))
            total = mpf_add(total, mpf_mul(h, mpf_sum(terms, prec, round_nearest),
                                           prec, round_nearest), prec, round_nearest)
        panels = fixed
    else:
        panels = _x_panels(xmin, nodes, prec)
    for h, pts in panels:
        terms = [mpf_mul(w, f(x, ex), prec, round_nearest) for x, w, ex in pts]
        total = mpf_add(total, mpf_mul(h, mpf_sum(terms, prec, round_nearest),
                                       prec, round_nearest), prec, round_nearest)
    return total


def _ideal_metal_integrand(x, prec: int):
    """x ln(1 - e^-x) on a raw x; libmp has no expm1, so this keeps mpmath's."""
    em1 = mpmath.expm1(mp.make_mpf(mpf_neg(x)))._mpf_
    return mpf_mul(x, mpf_log(mpf_neg(em1), prec, round_nearest), prec, round_nearest)


@lru_cache(maxsize=16)
def _ideal_metal_fixed(nx: int, prec: int):
    """{x: ideal-metal integrand} at the nodes of `_x_panel_table`, where it
    does not depend on m.  Built under mp.prec == prec."""
    _, fixed = _x_panel_table(nx, prec)
    return {x: _ideal_metal_integrand(x, prec) for _, pts in fixed for x, _, _ in pts}


def constant_a_integral(a_sq):
    """integral_0^inf dx x ln(1 - a_sq e^{-x}) for constant a_sq in [0, 1].

    This equals -Li_3(a_sq); evaluated on the kernel's own x layout (from
    x = e^-40, below which the integrand contributes < 1e-32), it checks
    that layout against the analytic m = 0 values.
    """
    a_sq = mpf(a_sq)
    if not 0 <= a_sq <= 1:
        raise ValueError("a_sq must lie in [0, 1]")
    a, prec = a_sq._mpf_, mp.prec

    def f(x, ex):
        one_minus = mpf_sub(fone, mpf_mul(a, ex, prec, round_nearest), prec, round_nearest)
        return mpf_mul(x, mpf_log(one_minus, prec, round_nearest), prec, round_nearest)
    return mp.make_mpf(_x_integral(f, mpmath.exp(mpf(-40)), QuadratureSpec().nx))


def _g_zero(system: PlateSystem, pol: str):
    """Analytic m = 0 summand, -Li_3(r0^2), from the zeta -> 0 reflection limits."""
    r_te, r_tm = reflection_limits_zero_frequency(system.material)
    r0 = r_te if pol == "te" else r_tm
    return -polylog(3, r0 * r0)


def g_of_m(system: PlateSystem, m, pol: str):
    """The per-mode integral g(m) for real m >= 0 (m = 0 analytic)."""
    m = mpf(m)
    if m < 0:
        raise ValueError("m must be nonnegative")
    if m == 0:
        return _g_zero(system, pol)
    k = mp_constants()
    zeta_m = 2 * mpmath.pi * m * k.k_B * mpf(system.temperature_T) / k.hbar
    return _g_at_frequency(system, zeta_m, pol)


@dataclass
class ModeScan:
    """One pass over g(m) for a fixed (system, polarization).

    Produces every ingredient shared by the total free energy and the
    sum-minus-integral difference: the trapezoid-weighted partial sum to M,
    the m-integral over [0, M] and its exponential tail, and the odd
    derivatives of g at M feeding the Euler-Maclaurin endpoint correction.
    """
    M: int
    sum_part: object       # g0/2 + sum_1^{M-1} + gM/2
    integral_0_M: object
    integral_tail: object  # integral_M^inf
    d1: object
    d3: object
    d5: object

    @property
    def delta_gamma(self):
        """sum'_{m>=0} g - integral_0^inf g dm."""
        return (self.sum_part - self.integral_0_M
                - self.d1 / 12 + self.d3 / 720 - self.d5 / 30240)

    @property
    def sum_total(self):
        """sum'_{m>=0} g, reconstructed as delta_gamma + full integral."""
        return self.delta_gamma + self.integral_0_M + self.integral_tail

    @property
    def cancellation_guard(self):
        """Scale against which delta_gamma's surviving digits are judged."""
        return max(abs(self.sum_part), abs(self.integral_0_M))


def _truncation_m(system: PlateSystem) -> int:
    # cutoff well into the regime where g(m) is smooth on unit-m scale;
    # for a conductor that means m t >~ 5 (past the knee of the pole term)
    mat = system.material
    if mat.mode is not PermittivityMode.IDEAL_METAL and mat.four_pi_sigma > 0:
        t = reduced_temperature(system.temperature_T, mat.four_pi_sigma)
        return max(30, int(mp.ceil(5 / t)))
    return 30


def _m_integral(f, s, end, spec: QuadratureSpec):
    """integral_0^end f(m) dm on the m layout shared by the scan and F(0).

    On [0, s] the substitution m = v^2 turns the m^{3/2} and m^2 ln m
    endpoint terms into v^3 and v^4 ln v, mild enough for one high-order
    panel; from s on, geometric panels double up to `end`.
    """
    total = gl_panel(lambda v: 2 * v * f(v * v), mpf(0), mpmath.sqrt(s),
                     gauss_legendre(spec.nm_unit))
    geo = gauss_legendre(spec.nm_geo)
    b = mpf(s)
    while b < end:
        nb = min(2 * b, mpf(end))
        total += gl_panel(f, b, nb, geo)
        b = nb
    return total


def mode_scan(system: PlateSystem, pol: str) -> ModeScan:
    if system.temperature_T <= 0:
        raise ValueError("mode scan requires T > 0")
    M = _truncation_m(system)
    g = lambda m: g_of_m(system, m, pol)
    gv = [g(m) for m in range(M + 4)]
    sum_part = gv[0] / 2 + mpmath.fsum(gv[1:M]) + gv[M] / 2
    integ = _m_integral(g, 1, M, system.quadrature)

    # tail integral_M^inf: g decays like e^{-x_min(m)}; stop once x_min > 60
    k = mp_constants()
    xm1 = 4 * mpmath.pi * mpf(system.separation_a) * k.k_B * mpf(system.temperature_T) / (k.hbar * k.c)
    geo = gauss_legendre(system.quadrature.nm_geo)
    tail = mpf(0)
    b = mpf(M)
    while xm1 * b < 60:
        nb = 2 * b
        tail += gl_panel(g, b, nb, geo)
        b = nb

    # 7-point central differences at unit spacing around M
    s = gv[M - 3:M + 4]
    d1 = (-s[0] + 9 * s[1] - 45 * s[2] + 45 * s[4] - 9 * s[5] + s[6]) / 60
    d3 = (s[0] - 8 * s[1] + 13 * s[2] - 13 * s[4] + 8 * s[5] - s[6]) / 8
    d5 = (-s[0] + 4 * s[1] - 5 * s[2] + 5 * s[4] - 4 * s[5] + s[6]) / 2
    return ModeScan(M=M, sum_part=sum_part, integral_0_M=integ,
                    integral_tail=tail, d1=d1, d3=d3, d5=d5)


def free_energy(system: PlateSystem) -> FreeEnergyResult:
    """Total free energy per unit area, F = k_B T/(8 pi a^2) sum' g(m).

    One mode scan per polarization; the scans stay on the result, whose
    delta_f(pol) gives the thermal correction without scanning again.
    """
    if system.temperature_T <= 0:
        raise ValueError("free_energy requires T > 0; use zero_temperature_energy")
    k = mp_constants()
    a = mpf(system.separation_a)
    pref = k.k_B * mpf(system.temperature_T) / (8 * mpmath.pi * a * a)
    scans = {pol: mode_scan(system, pol) for pol in system.polarization.modes()}
    per_mode = {pol: pref * scan.sum_total for pol, scan in scans.items()}
    return FreeEnergyResult(
        total=mpmath.fsum(per_mode.values()), per_mode=per_mode,
        m_truncation=max(scan.M for scan in scans.values()),
        est_error=mpmath.fsum(pref * abs(scan.d5) / 30240 for scan in scans.values()),
        prefactor=pref, scans=scans)


def delta_f_direct(system: PlateSystem) -> dict:
    """Thermal correction per polarization: the sum-minus-integral piece.

    Returns {pol: J/m^2}.  Raises PrecisionError when cancellation leaves
    fewer than ~3 trustworthy digits at the current precision.
    """
    if system.temperature_T <= 0:
        raise ValueError("delta_f_direct requires T > 0")
    res = free_energy(system)
    return {pol: res.delta_f(pol) for pol in res.scans}


def zero_temperature_energy(system: PlateSystem):
    """T = 0 limit: the Matsubara sum becomes a frequency integral.

    With y = 2 a zeta / c,  F(0) = hbar c / (32 pi^2 a^3) integral_0^inf g(y) dy.
    The first m-layout panel ends at the conductivity knee y = alpha =
    2 a (4 pi sigma) / c (at y = 1 without conductivity or above alpha = 1),
    where the TM reflection coefficient falls from 1 to its dielectric value.
    """
    k = mp_constants()
    a = mpf(system.separation_a)
    mat = system.material
    knee = mpf(1)
    if mat.mode is not PermittivityMode.IDEAL_METAL and mat.four_pi_sigma > 0:
        knee = min(alpha_param(a, mat.four_pi_sigma), knee)
    total = mpf(0)
    for pol in system.polarization.modes():
        f = lambda y: _g_at_frequency(system, y * k.c / (2 * a), pol)
        total += _m_integral(f, knee, 60, system.quadrature)
    return k.hbar * k.c / (32 * mpmath.pi ** 2 * a ** 3) * total


def _g_at_frequency(system: PlateSystem, zeta_v, pol: str = "tm"):
    """g evaluated at a continuous imaginary frequency zeta (1/s)."""
    k = mp_constants()
    a = mpf(system.separation_a)
    xmin = 2 * a * mpf(zeta_v) / k.c
    if xmin > _x_horizon(mp.prec):
        return mpf(0)
    if xmin <= 0:
        raise ValueError("zeta must be positive")
    prec = mp.prec
    mat = system.material
    if mat.mode is PermittivityMode.IDEAL_METAL:
        known = _ideal_metal_fixed(system.quadrature.nx, prec)

        def f(x, ex):
            v = known.get(x)
            return _ideal_metal_integrand(x, prec) if v is None else v
    else:
        ep = permittivity(mat, zeta_v)
        zfac = (xmin * xmin * (ep - 1))._mpf_
        ep = ep._mpf_

        def f(x, ex):
            z = mpf_div(zfac, mpf_mul(x, x, prec, round_nearest), prec, round_nearest)
            r = mpf_reflection(ep, z, pol, prec)
            r2e = mpf_mul(mpf_mul(r, r, prec, round_nearest), ex, prec, round_nearest)
            return mpf_mul(x, mpf_log(mpf_sub(fone, r2e, prec, round_nearest),
                                      prec, round_nearest), prec, round_nearest)
    return mp.make_mpf(_x_integral(f, xmin, system.quadrature.nx))
