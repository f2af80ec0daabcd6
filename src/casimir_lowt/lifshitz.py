"""Free energy of two parallel halfspaces from the Matsubara mode sum.

Everything here is built around the dimensionless per-mode integral

    g(m) = integral_{x_min}^{inf} dx x ln(1 - r^2(x) e^{-x}),

with x = 2 kappa a and x_min = 2 a zeta_m / c, in terms of which the free
energy per unit area is F = k_B T / (8 pi a^2) * sum' g(m) (prime: the
m = 0 term enters with half weight).  eps has no T in it, so g(m) =
G(m xm1) for one G(y), with xm1 = 4 pi a k_B T / (hbar c).

F and F(0) run in float64 on one real-axis kernel (`_g_real_axis`, the
x-panels that `abel_plana`'s table also walks), fed by one node loop
(`_real_axis_gs`), so they are the same floats whatever the working
precision.  F (`free_energy`) is the sum as it always was: g(0) in closed
form, G at m = 1..M+3, the trapezoid sum to the cut-off M with
Euler-Maclaurin endpoint terms (7-point finite-difference derivatives at
M), and the m-integral over [M, inf) on doubling panels that end where
m xm1 reaches x = 45, past which G is exactly 0; the parts are added
with `math.fsum`.  F(0) (`zero_temperature_energies`) is the y-integral
of G.  The ideal metal, where r^2 = 1 in both modes, needs no
x-integral: its G is -[y Li_2(e^{-y}) + Li_3(e^{-y})] in both, which is
-zeta(3) at m = 0.

The thermal correction is the sum-minus-integral difference

    delta Gamma = [sum'_m g(m)] - integral_0^inf dm g(m),

which cancels leading digits: the benchmark measures 4.7 for TM at 15 mK
and 7.5 for TE at 12.5 mK on si-paper, and up to 7.9 near 1 K.  A sweep
takes it from `abel_plana`'s table, which cancels nothing; `delta_f` is
the 33-digit oracle that table is tested against.  It evaluates the sum
and the integral over [0, M] from the *same* g values in one mode scan
at extended precision, with the same endpoint terms at M.  One x-panel
layout serves every g of a dielectric.

Each pass of a kernel serves every polarization the caller asks for: at
each x node, x, e^{-x}, eps, z = (x_min/x)^2 (eps - 1) and sqrt(1 + z)
are computed once, and only r_TM or r_TE and the log term are done per
polarization, each into its own running sum with the operations of a
one-polarization pass in the same order (so every value is bit-identical
to it).  F, dF and F(0) make one such pass over their m (or y) nodes for
all of `PlateSystem.polarization.modes()`; `g_of_m` and `mode_scan`
(dF's scan) are the one-polarization views of the extended-precision
kernel.

The extended-precision x-panel loop runs on mpmath's raw arithmetic
(mpmath.libmp on mpf tuples at mp.prec, round-nearest), skipping the
per-operation wrapper of mpf objects, and takes the nodes, weights and
e^{-x} of the m-independent panels above x = 1 from a table built once
per (panel order, precision).  Its operations and their order are those
of a Gauss-Legendre panel sum on mpf values (h times the fsum of w f,
panel by panel), and the tests check every g bit for bit against that
mpf reference.  The panels stop at the precision horizon x = (prec + 1)
ln 2 (79.0 at 33 digits), past which 1 - r^2 e^{-x} rounds to 1 and
every integrand value is exactly 0, so no cut-off error is made there.

Quadrature is non-adaptive by design: fixed Gauss-Legendre panels whose
layout is matched to the known shape of the integrands (logarithmic panels
near the x lower limit, an m = v^2 substitution that turns the m^{3/2} and
m^2 ln m endpoint behaviour into polynomials times ln v, geometric panels
on the exponential tails).  Against the same layout at doubled panel
orders (`QuadratureSpec().refined()`, 40 digits), the benchmark's traced
runs measure at the default 33 digits a relative error of 2.0e-18 in the
scan's dF on the TM 15-120 mK sweep.  F agrees with the 33-digit scan it
replaced (`tests/oracles.py`) within 2.6e-15 on si-paper and si-fig2 at
0.72-1 K.
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass, field
from functools import lru_cache

import mpmath
from mpmath import mp, mpf
from mpmath.libmp import (fone, fzero, mpf_add, mpf_div, mpf_exp, mpf_log, mpf_mul,
                          mpf_neg, mpf_sub, mpf_sum, round_nearest)

from .asymptotics import ideal_metal
from .constants import float_constants, mp_constants, reduced_temperature
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
    """F or dF of one point: J/m^2 per polarization, and `total` their sum."""
    per_mode: dict                # {"tm": ..., "te": ...} J/m^2
    m_truncation: int
    g_evals: int                  # g(m) evaluations, each serving every mode
    seconds: float                # wall time of the call

    @property
    def total(self):
        return mpmath.fsum(self.per_mode.values())


def gauss_legendre(n: int):
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1] at the current
    precision: Newton steps on the Legendre recurrence from the cosine
    estimate -cos(pi (i + 3/4) / (n + 1/2)), six up to 95 digits; cached
    per (n, prec), since several binary precisions share one decimal one.
    """
    return _gauss_legendre_cached(n, mp.prec)


@lru_cache(maxsize=64)
def _gauss_legendre_cached(n: int, prec: int):
    def legendre(x):
        """P_n(x) and P_n'(x)."""
        p0, p1 = mpf(1), x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        return p1, n * (x * p1 - p0) / (x * x - 1)

    # each Newton step doubles the correct bits, from about 5 at the seed
    steps = max(6, (prec // 5).bit_length())
    nodes = []
    for i in range(n):
        x = mpf(-math.cos(math.pi * (i + 0.75) / (n + 0.5)))
        for _ in range(steps):
            p, dp = legendre(x)
            x = x - p / dp
        _, dp = legendre(x)
        nodes.append((x, 2 / ((1 - x * x) * dp * dp)))
    return tuple(nodes)


_X_END = 45          # end of the float64 kernels' real x axis: e^-45 = 2.9e-20


def float_gauss_legendre(n: int) -> list:
    """`gauss_legendre(n)` at 53 bits as (node, weight) floats: the rule of
    the float64 kernels, whatever the working precision."""
    with mp.workprec(53):
        return [(float(x), float(w)) for x, w in gauss_legendre(n)]


def _panel(a, b, gl) -> list:
    """(node, weight) of the float Gauss-Legendre panel [a, b]."""
    h, mid = (b - a) / 2, (b + a) / 2
    return [(mid + h * t, h * wt) for t, wt in gl]


def _real_axis_nodes(a, b, gl) -> list:
    """(weight x, X, X^2, expm1(-X)) at the nodes of [a, b] on the real axis."""
    return [(wt * x, x, x * x, math.expm1(-x)) for x, wt in _panel(a, b, gl)]


def _halvings(top, lo) -> list:
    """Ascending panel edges lo, ..., top/4, top/2, top: each panel but the
    first is half of the next."""
    edges = [top]
    while edges[-1] / 2 > lo:
        edges.append(edges[-1] / 2)
    edges.append(lo)
    return edges[::-1]


def _real_axis_edges(lo) -> list:
    """Ascending x-panel edges from lo to _X_END: halving from 1 down to lo,
    then width 2 on the odd integers (from lo itself when lo >= 1)."""
    if lo < 1:
        return _halvings(1.0, lo) + list(range(3, _X_END + 1, 2))
    return [lo] + [e for e in range(3, _X_END + 1, 2) if e > lo]


def _real_axis_panels(edges, gl, fixed: dict) -> list:
    """`_real_axis_nodes` of the panels between consecutive edges.  `fixed`
    keeps the panels whose edges do not depend on the lower limit (width
    2, or halving between powers of 2), for the next call that shares it."""
    nodes = []
    for a, b in zip(edges, edges[1:]):
        panel = fixed.get((a, b))
        if panel is None:
            panel = _real_axis_nodes(a, b, gl)
            if b == a + 2 or (b == 2 * a and math.frexp(b)[0] == 0.5):
                fixed[(a, b)] = panel
        nodes += panel
    return nodes


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
    as raw mpf tuples.  When xmin < 1, the panels up to x = 1 are uniform
    in u = ln x, which resolves the scale xmin of the reflection
    coefficient and, where r^2 is close to 1, the x ln x slope of f.
    From x = 1 (or from a larger xmin), a panel starting at b <= 2 has
    width 2 and later panels double, up to the precision horizon
    (`_x_panels`), past which f is exactly 0; from x = 1 on these come
    from `_x_panel_table`.

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

    if xmin < 1:
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
    """What dF's pass over g(m) gives for one polarization: the
    trapezoid-weighted partial sum to M, the odd derivatives of g at M for
    the Euler-Maclaurin endpoint correction, and the m-integral over [0, M]
    (see `_mode_scans`).
    """
    M: int
    sum_part: object       # g0/2 + sum_1^{M-1} + gM/2
    integral: object       # integral_0^M
    d1: object
    d3: object
    d5: object

    @property
    def delta_gamma(self):
        """sum'_{m>=0} g - integral_0^inf g dm."""
        return (self.sum_part - self.integral
                - self.d1 / 12 + self.d3 / 720 - self.d5 / 30240)

    @property
    def cancellation_guard(self):
        """Scale against which delta_gamma's surviving digits are judged."""
        return max(abs(self.sum_part), abs(self.integral))


_M_LIMIT = 10 ** 5   # the largest cut-off M: a scan evaluates g(m) at least M + 4 times


def _truncation_m(system: PlateSystem) -> int:
    # cutoff well into the regime where g(m) is smooth on unit-m scale;
    # for a conductor that means m t >~ 5 (past the knee of the pole term)
    mat = system.material
    if mat.mode is not PermittivityMode.IDEAL_METAL and mat.four_pi_sigma > 0:
        t = reduced_temperature(system.temperature_T, mat.four_pi_sigma)
        M = max(30, int(mp.ceil(5 / t)))
        if M > _M_LIMIT:
            raise ValueError(f"cut-off M = {M} at t = {mpmath.nstr(t, 4)} exceeds {_M_LIMIT}; "
                             "raise the temperature or lower sigma")
        return M
    return 30


def _endpoint_derivatives(s) -> tuple:
    """g', g''' and g^(5) at M from s = g(M-3..M+3): 7-point central
    differences at unit spacing, in s's own number type."""
    d1 = (-s[0] + 9 * s[1] - 45 * s[2] + 45 * s[4] - 9 * s[5] + s[6]) / 60
    d3 = (s[0] - 8 * s[1] + 13 * s[2] - 13 * s[4] + 8 * s[5] - s[6]) / 8
    d5 = (-s[0] + 4 * s[1] - 5 * s[2] + 5 * s[4] - 4 * s[5] + s[6]) / 2
    return d1, d3, d5


def _scan(M: int, gp: list, integral) -> ModeScan:
    """The ModeScan of one polarization's g(0..M+3) and its m-integral."""
    d1, d3, d5 = _endpoint_derivatives(gp[M - 3:M + 4])
    return ModeScan(M=M, sum_part=gp[0] / 2 + mpmath.fsum(gp[1:M]) + gp[M] / 2,
                    integral=integral, d1=d1, d3=d3, d5=d5)


def _m_integral(f, s, end, spec: QuadratureSpec) -> list:
    """integral_0^end f(m) dm of each component of the tuple-valued f, on
    the scan's m layout (which F(0) takes in y, in floats).

    On [0, s] the substitution m = v^2 turns the m^{3/2} and m^2 ln m
    endpoint terms into v^3 and v^4 ln v, mild enough for one high-order
    panel; from s on, geometric panels double up to `end`.
    """
    total = _gl_panels(lambda v: [2 * v * y for y in f(v * v)], mpf(0), mpmath.sqrt(s),
                       gauss_legendre(spec.nm_unit))
    return _doubling_panels(f, total, s, end, spec)


def _doubling_panels(f, total, b, end, spec: QuadratureSpec) -> list:
    """total plus integral_b^end f(m) dm of each component, panel by panel:
    `spec.nm_geo`-node panels double from b, the last one clipped at end."""
    geo = gauss_legendre(spec.nm_geo)
    b = mpf(b)
    while b < end:
        nb = min(2 * b, mpf(end))
        total = [t + p for t, p in zip(total, _gl_panels(f, b, nb, geo))]
        b = nb
    return total


def _mode_scans(system: PlateSystem, pols) -> tuple[dict, int]:
    """dF's pass over the m nodes serving every polarization in pols: g at
    m = 0..M+3, then the m-integral over [0, M], all at the working
    precision.  Returns ({pol: ModeScan}, the number of g(m) evaluations
    made); each evaluation is one kernel pass for all pols.
    """
    M = _truncation_m(system)
    evals = 0

    def g(m):
        nonlocal evals
        evals += 1
        return _g_modes(system, m, pols)
    gv = [g(m) for m in range(M + 4)]
    integ = _m_integral(g, 1, M, system.quadrature)
    return {pol: _scan(M, [v[i] for v in gv], integ[i]) for i, pol in enumerate(pols)}, evals


def mode_scan(system: PlateSystem, pol: str) -> ModeScan:
    """The scan behind one polarization's dF: its view of `_mode_scans`."""
    return _mode_scans(system, (pol,))[0][pol]


def _prefactor(system: PlateSystem):
    """k_B T / (8 pi a^2), J/m^2 per unit of g."""
    a = mpf(system.separation_a)
    return mp_constants().k_B * mpf(system.temperature_T) / (8 * mpmath.pi * a * a)


def _energy(system: PlateSystem, correction: bool) -> FreeEnergyResult:
    """dF (`correction`) of every polarization from one joint mode scan, or F
    from one float64 Matsubara sum, or either from the ideal metal's closed
    forms where they serve (g_evals 0, m_truncation 0)."""
    if system.temperature_T <= 0:
        raise ValueError("F and dF require T > 0; F(0) is zero_temperature_energy")
    start = time.perf_counter()
    pols = system.polarization.modes()
    forms = (system.material.mode is PermittivityMode.IDEAL_METAL
             and ideal_metal(system.separation_a, system.temperature_T))
    if forms:
        closed = forms[1] if correction else forms[0] + forms[1]
        per_mode, M, g_evals = {pol: closed / 2 for pol in pols}, 0, 0
    elif correction:
        pref = _prefactor(system)
        scans, g_evals = _mode_scans(system, pols)
        per_mode = {pol: pref * _checked_delta_gamma(pol, scan) for pol, scan in scans.items()}
        M = max(scan.M for scan in scans.values())
    else:
        per_mode, M, g_evals = _matsubara_sum(system, pols)
    return FreeEnergyResult(per_mode=per_mode, m_truncation=M, g_evals=g_evals,
                            seconds=time.perf_counter() - start)


def _matsubara_sum(system: PlateSystem, pols) -> tuple[dict, int, int]:
    """({pol: F}, M, G evaluations) in float64: g(0) in closed form, G at
    m = 1..M+3, and the tail over [M, inf) on `nm_geo`-node panels that
    double from M up to the first M 2^k with xm1 M 2^k >= _X_END (G is
    exactly 0 beyond); the trapezoid sum to M, the Euler-Maclaurin endpoint
    terms and the tail's weighted G are added with one `math.fsum` per
    polarization."""
    M = _truncation_m(system)
    k = float_constants()
    a, T = float(system.separation_a), float(system.temperature_T)
    xm1 = 4 * math.pi * a * k.k_B * T / (k.hbar * k.c)
    gl_geo = float_gauss_legendre(system.quadrature.nm_geo)
    tail, b = [], M
    while xm1 * b < _X_END:
        tail += _panel(b, 2 * b, gl_geo)
        b *= 2
    gs = _real_axis_gs(system, [m * xm1 for m in range(1, M + 4)] + [m * xm1 for m, _ in tail],
                       pols, "F")
    with mp.workprec(53):
        g0 = [float(_g_zero(system, pol)) for pol in pols]
    pref = k.k_B * T / (8 * math.pi * a * a)
    per_mode = {}
    for i, pol in enumerate(pols):
        g = [g0[i]] + [v[i] for v in gs[:M + 3]]
        d1, d3, d5 = _endpoint_derivatives(g[M - 3:M + 4])
        parts = [g[0] / 2, *g[1:M], g[M] / 2, -d1 / 12, d3 / 720, -d5 / 30240]
        parts += [wt * v[i] for (_, wt), v in zip(tail, gs[M + 3:])]
        per_mode[pol] = mpf(pref * math.fsum(parts))
    return per_mode, M, M + 4 + len(tail)


def _checked_delta_gamma(pol: str, scan: ModeScan):
    """The scan's delta_gamma, or the PrecisionError of `delta_f`."""
    dg = scan.delta_gamma
    guard = scan.cancellation_guard
    if dg != 0 and guard * mpf(10) ** (3 - mp.dps) > abs(dg) * mpf("1e-3"):
        raise PrecisionError(f"{pol}: ~{mpmath.nstr(guard / abs(dg), 3)}x cancellation at "
                             f"{mp.dps} digits; raise the working precision")
    return dg


def free_energy(system: PlateSystem) -> FreeEnergyResult:
    """Total free energy per unit area, F = k_B T/(8 pi a^2) sum' g(m), T > 0,
    in float64 whatever the working precision.

    One pass of the real-axis kernel over G at m = 1..M+3 and the tail
    nodes serves every polarization (`_matsubara_sum`): the
    endpoint-corrected sum to the cut-off M plus the tail integral over
    [M, inf); `g_evals` is M + 4 (the integers, m = 0 in closed form) plus
    the tail nodes.  A G that is not finite is a PrecisionError.  The ideal
    metal needs no sum where `asymptotics.ideal_metal` serves: F is its
    F(0) + dF; above that tau its G is the closed form in 53 bits.
    """
    return _energy(system, correction=False)


def delta_f(system: PlateSystem) -> FreeEnergyResult:
    """Thermal correction of every polarization, T > 0, from one joint mode
    scan at the working precision: its sum minus the m-integral over [0, M],
    with the endpoint correction at M.  Raises PrecisionError when
    cancellation leaves fewer than ~3 trustworthy digits at the current
    precision.

    The ideal metal at tau = 2 a k_B T / (hbar c) <= IDEAL_METAL_TAU_MAX
    needs no scan: its correction is Brown-Maclay's closed form
    (`asymptotics.ideal_metal`), half per polarization; above that tau the
    form's dropped e^{-2 pi / tau} terms outgrow the scan's error.
    """
    return _energy(system, correction=True)


def delta_f_direct(system: PlateSystem) -> dict:
    """Thermal correction per polarization, {pol: J/m^2}: `delta_f`'s per_mode."""
    return delta_f(system).per_mode


def zero_temperature_energies(system: PlateSystem) -> dict:
    """T = 0 limit per polarization, {pol: mpf J/m^2}, from one float64 pass
    over the y nodes for every polarization of the system.

    With y = 2 a zeta / c,  F(0) = hbar c / (32 pi^2 a^3) integral_0^inf G(y) dy,
    on the scan's m layout in y: an `nm_unit`-node panel in v = sqrt(y) on
    [0, knee], then `nm_geo`-node panels doubling to _X_END.  The knee is
    the conductivity scale y = alpha = 2 a (4 pi sigma) / c, where r_TM
    falls from 1 to its dielectric value (y = 1 without conductivity or
    above alpha = 1).  The G come from F's node loop, `_real_axis_gs`;
    PrecisionError when one is not finite.  The ideal metal's F(0) is
    `asymptotics.ideal_metal`'s closed form, half per polarization.
    """
    pols = system.polarization.modes()
    mat = system.material
    if mat.mode is PermittivityMode.IDEAL_METAL:
        f0 = ideal_metal(system.separation_a, 0)[0]
        return {pol: f0 / 2 for pol in pols}
    k = float_constants()
    a = float(system.separation_a)
    spec = system.quadrature
    knee = min(2 * a * mat.four_pi_sigma / k.c, 1.0) if mat.four_pi_sigma > 0 else 1.0
    # (y, weight): v^2 panel on [0, knee], then doubling panels to _X_END
    nodes = [(v * v, 2 * v * wt) for v, wt in _panel(0.0, math.sqrt(knee),
                                                    float_gauss_legendre(spec.nm_unit))]
    gl_geo = float_gauss_legendre(spec.nm_geo)
    b = knee
    while b < _X_END:
        nb = min(2 * b, _X_END)
        nodes += _panel(b, nb, gl_geo)
        b = nb
    gs = _real_axis_gs(system, [y for y, _ in nodes], pols, "F(0)")
    pref = k.hbar * k.c / (32 * math.pi ** 2 * a ** 3)
    return {pol: mpf(pref * math.fsum([wt * g[i] for (_, wt), g in zip(nodes, gs)]))
            for i, pol in enumerate(pols)}


def _real_axis_gs(system: PlateSystem, ys, pols, where: str) -> list:
    """(G(y) of each polarization in pols) at each y of ys, in float64: the
    node loop of F and F(0).  For a dielectric, G is `_g_real_axis` with eps
    = `permittivity` at zeta = y c / (2a) on 53 bits; for the ideal metal,
    -[y Li_2(e^-y) + Li_3(e^-y)] on 53 bits.  G is 0 from y = _X_END on.
    PrecisionError, naming `where`, when a G is not finite."""
    mat = system.material
    ideal = mat.mode is PermittivityMode.IDEAL_METAL
    c, a = float_constants().c, float(system.separation_a)
    gl, fixed = float_gauss_legendre(system.quadrature.nx), {}
    out = []
    with mp.workprec(53):
        for y in ys:
            if y >= _X_END:
                gs = (0.0,) * len(pols)
            elif ideal:
                q = mpmath.exp(-y)
                gs = (float(-(y * mpmath.polylog(2, q) + mpmath.polylog(3, q))),) * len(pols)
            else:
                eps = float(permittivity(mat, y * c / (2 * a)))
                gs = _g_real_axis(y, eps, pols, gl, fixed)
            for pol, g in zip(pols, gs):
                if not math.isfinite(g):
                    raise PrecisionError(f"{pol}: G(y = {y:.6g}) = {g} in {where}")
            out.append(gs)
    return out


def _g_real_axis(y: float, eps: float, pols, gl, fixed: dict) -> tuple:
    """G(y) = integral_y^45 x L(x) dx of each polarization in pols, in that
    order, in float64, with eps = eps(i zeta) at y = 2 a zeta / c.

    z = (y/x)^2 (eps - 1) and s = sqrt(1 + z) are shared by TM and TE;
    r_TM = (eps - s)/(eps + s), 1 - r_TM^2 = 4 eps s / (eps + s)^2, r_TE =
    -z/(1 + s)^2 and 1 - r_TE^2 = 4 s / (1 + s)^2.  L is log1p(-r^2 e^-x)
    where r^2 e^-x < 1/2, and log((1 - r^2) - r^2 expm1(-x)) elsewhere, so
    neither a small r^2 e^-x nor an r^2 close to 1 loses digits.  The
    x-panels are `_real_axis_panels` from x = y.
    """
    zfac = y * y * (eps - 1)
    tm, te = "tm" in pols, "te" in pols
    g_tm = g_te = 0.0
    sqrt, exp, log, log1p = math.sqrt, math.exp, math.log, math.log1p
    for wx, x, x2, em in _real_axis_panels(_real_axis_edges(y), gl, fixed):
        z = zfac / x2
        s = sqrt(1 + z)
        ex = exp(-x)
        if tm:
            d = eps + s
            r = (eps - s) / d
            r2 = r * r
            q = r2 * ex
            g_tm += wx * (log1p(-q) if q < 0.5 else log(4 * eps * s / (d * d) - r2 * em))
        if te:
            d = 1 + s
            dd = d * d
            r = -z / dd
            r2 = r * r
            q = r2 * ex
            g_te += wx * (log1p(-q) if q < 0.5 else log(4 * s / dd - r2 * em))
    return tuple(g_tm if pol == "tm" else g_te for pol in pols)


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
