"""Free energy of two parallel halfspaces from the Matsubara mode sum.

Everything here is built around the dimensionless per-mode integral

    g(m) = integral_{x_min}^{inf} dx x ln(1 - r^2(x) e^{-x}),

with x = 2 kappa a and x_min = 2 a zeta_m / c, in terms of which the free
energy per unit area is F = k_B T / (8 pi a^2) * sum' g(m) (prime: the
m = 0 term enters with half weight).  eps has no T in it, so g(m) =
G(m xm1) for one G(y), with xm1 = 4 pi a k_B T / (hbar c).

F and F(0) run in float64 on one real-axis kernel (`_g_real_axis`, the
x-panels that `abel_plana`'s table also walks), fed by one node loop
(`_real_axis_gs`).  F (`free_energy`) is g(0) in closed form, G at
m = 1..M+3, the trapezoid sum to the cut-off M with Euler-Maclaurin
endpoint terms (7-point finite-difference derivatives at M), and the
m-integral over [M, inf) on doubling panels that end where m xm1 reaches
x = 45, past which G is exactly 0; the parts are added with `math.fsum`.
F(0) (`zero_temperature_energies`) is the y-integral of G.  The ideal
metal's F, F(0) and dF are the closed forms of `asymptotics.ideal_metal`.

The thermal correction is the sum-minus-integral difference

    delta Gamma = [sum'_m g(m)] - integral_0^inf dm g(m),

which a sum and an integral taken apart give only after cancelling 4.7
to 7.9 leading digits on si-paper.  `delta_f_direct` takes it from
`abel_plana`'s table at one temperature, which cancels nothing.  The
33-digit mode scan that takes the sum and the integral over [0, M] from
the same g values is `tests/oracles.py`, the oracle of the table.

Each pass of the kernel serves every polarization the caller asks for:
at each x node, x, e^{-x}, z = (y/x)^2 (eps - 1) and sqrt(1 + z) are
computed once, and only r_TM or r_TE and the log term are done per
polarization, each into its own running sum with the operations of a
one-polarization pass in the same order (so every value is bit-identical
to it).  F and F(0) make one such pass over their m (or y) nodes for all
of `PlateSystem.polarization.modes()`.

Quadrature is non-adaptive by design: fixed Gauss-Legendre panels whose
layout is matched to the known shape of the integrands (x-panels that
halve from x = 1 towards the x lower limit, a y = v^2 substitution that
turns the y^{3/2} and y^2 ln y endpoint behaviour of F(0)'s integrand into
polynomials times ln v, doubling panels on the exponential tails in x, m
and y; 12 Gauss-Legendre nodes per m- and y-panel).  F agrees with the
33-digit scan it replaced (`tests/oracles.py`) within 6.2e-16 on si-paper
and si-fig2 at 15 mK-1 K, at the same cut-off M, and F(0) with the
oracle's y-integral within 3.8e-16.
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass, field

import mpmath
from mpmath import mp, mpf

from .asymptotics import ideal_metal
from .constants import float_constants, reduced_temperature
from .dielectric import (DielectricModel, PermittivityMode,
                         reflection_limits_zero_frequency, susceptibility)


class PrecisionError(ArithmeticError):
    """A float64 G(y) of F or F(0), or an H(u) of the Abel-Plana table, is
    not finite.  Those kernels are float64 whatever the working precision,
    so raising it does not help."""


class Polarization(enum.Enum):
    TM = "tm"
    TE = "te"
    BOTH = "both"

    def modes(self) -> tuple[str, ...]:
        return ("tm", "te") if self is Polarization.BOTH else (self.value,)


@dataclass(frozen=True)
class QuadratureSpec:
    """Gauss-Legendre panel orders for the x-, m- and y-integrals.  At
    nm_geo = 12, F (15 mK to 30 K) and F(0) agree within 4.2e-16 with
    nm_unit = 96 and nm_geo = 48, off the presets too; 10 nodes give up to
    4.9e-15 and 8 up to 4.3e-12."""
    nx: int = 16        # per x-panel of G
    nm_unit: int = 48   # F(0)'s first y-panel [0, knee], in v = sqrt(y)
    nm_geo: int = 12    # per doubling panel: F's m-tail, F(0)'s y beyond the knee

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
    """F of one point: J/m^2 per polarization, and `total` their sum."""
    per_mode: dict                # {"tm": ..., "te": ...} J/m^2
    m_truncation: int
    g_evals: int                  # g(m) evaluations, each serving every mode
    seconds: float                # wall time of the call

    @property
    def total(self):
        return mpmath.fsum(self.per_mode.values())


def gauss_legendre(n: int) -> list:
    """Gauss-Legendre (node, weight) floats on [-1, 1], nodes ascending: six
    Newton steps on the Legendre recurrence from the cosine estimate
    -cos(pi (i + 3/4) / (n + 1/2)), in float64 whatever the working
    precision.  The rule of every quadrature panel of the package."""
    def legendre(x):
        """P_n(x) and P_n'(x)."""
        p0, p1 = 1.0, x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        return p1, n * (x * p1 - p0) / (x * x - 1)

    nodes = []
    for i in range(n):
        x = -math.cos(math.pi * (i + 0.75) / (n + 0.5))
        for _ in range(6):
            p, dp = legendre(x)
            x = x - p / dp
        _, dp = legendre(x)
        nodes.append((x, 2 / ((1 - x * x) * dp * dp)))
    return nodes


_X_END = 45          # end of the float64 kernels' real x axis: e^-45 = 2.9e-20


def _panel(a, b, gl) -> list:
    """(node, weight) of the float Gauss-Legendre panel [a, b]."""
    h, mid = (b - a) / 2, (b + a) / 2
    return [(mid + h * t, h * wt) for t, wt in gl]


def _sqrt_panel(top, gl) -> list:
    """(node, weight) of the float Gauss-Legendre panel [0, top] in v =
    sqrt(node): nodes v^2, weights 2 v w.  A term node^{k/2} of the
    integrand is a polynomial in v there."""
    return [(v * v, 2 * v * wt) for v, wt in _panel(0.0, math.sqrt(top), gl)]


def _real_axis_nodes(a, b, gl) -> list:
    """(weight x, X, X^2, expm1(-X)) at the nodes of [a, b] on the real axis."""
    return [(wt * x, x, x * x, math.expm1(-x)) for x, wt in _panel(a, b, gl)]


def _halvings(top, lo) -> list:
    """Ascending panel edges lo, ..., top/4, top/2, top: each panel but the
    first is half of the next.  Just [top], no panel, when lo >= top."""
    edges = [top]
    while edges[-1] / 2 > lo:
        edges.append(edges[-1] / 2)
    if edges[-1] > lo:
        edges.append(lo)
    return edges[::-1]


def _real_axis_edges(lo) -> list:
    """Ascending x-panel edges from lo to _X_END: halving from 1 down to lo,
    then doubling from 1 (from lo itself when lo >= 1), the last panel cut
    at _X_END; from lo < 1 the doubling edges are 1, 2, 4, 8, 16, 32, 45.
    Just [lo], no panel, when lo >= _X_END."""
    edges = _halvings(1.0, lo) if lo < 1 else [lo]
    while edges[-1] < _X_END:
        edges.append(min(2 * edges[-1], _X_END))
    return edges


def _real_axis_panels(edges, gl, fixed: dict) -> list:
    """`_real_axis_nodes` of the panels between consecutive edges.  `fixed`
    keeps the panels whose edges do not depend on the lower limit (each a
    power of 2 or _X_END), for the next call that shares it."""
    nodes = []
    for a, b in zip(edges, edges[1:]):
        panel = fixed.get((a, b))
        if panel is None:
            panel = _real_axis_nodes(a, b, gl)
            if all(e == _X_END or math.frexp(e)[0] == 0.5 for e in (a, b)):
                fixed[(a, b)] = panel
        nodes += panel
    return nodes


def _g_zero(system: PlateSystem, pol: str):
    """Analytic m = 0 summand, -Li_3(r0^2), from the zeta -> 0 reflection limits."""
    r_te, r_tm = reflection_limits_zero_frequency(system.material)
    r0 = r_te if pol == "te" else r_tm
    return -mpmath.polylog(3, r0 * r0)


_M_LIMIT = 10 ** 5   # the largest cut-off M: F's sum evaluates G at m = 1..M+3 and more


def _truncation_m(system: PlateSystem) -> int:
    # cutoff well into the regime where g(m) is smooth on unit-m scale;
    # for a conductor that means m t >~ 5 (past the knee of the pole term)
    sigma = system.material.four_pi_sigma
    if sigma > 0:
        t = reduced_temperature(system.temperature_T, sigma)
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
    gl_geo = gauss_legendre(system.quadrature.nm_geo)
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


def free_energy(system: PlateSystem) -> FreeEnergyResult:
    """Total free energy per unit area, F = k_B T/(8 pi a^2) sum' g(m), T > 0:
    a float64 value whatever the working precision; the ideal metal's an mpf at it.

    One pass of the real-axis kernel over G at m = 1..M+3 and the tail
    nodes serves every polarization (`_matsubara_sum`): the
    endpoint-corrected sum to the cut-off M plus the tail integral over
    [M, inf); `g_evals` is M + 4 (the integers, m = 0 in closed form) plus
    the tail nodes.  A G that is not finite is a PrecisionError.  The ideal
    metal makes no sum at any T: F is `asymptotics.ideal_metal`'s F(0) +
    dF, half per polarization, with g_evals and m_truncation 0.
    """
    _require_positive_t(system)
    start = time.perf_counter()
    pols = system.polarization.modes()
    if system.material.mode is PermittivityMode.IDEAL_METAL:
        f0, df = ideal_metal(system.separation_a, system.temperature_T)
        per_mode, M, g_evals = {pol: (f0 + df) / 2 for pol in pols}, 0, 0
    else:
        per_mode, M, g_evals = _matsubara_sum(system, pols)
    return FreeEnergyResult(per_mode=per_mode, m_truncation=M, g_evals=g_evals,
                            seconds=time.perf_counter() - start)


def delta_f_direct(system: PlateSystem) -> dict:
    """Thermal correction per polarization, {pol: mpf J/m^2}, T > 0.

    A dielectric's is `abel_plana.delta_f_table` at the one temperature,
    which raises ValueError, before any H is computed, at sigma = 0 and for
    an oscillator resonance inside the table.  The ideal metal's is half of
    `asymptotics.ideal_metal`'s dF per polarization, at the working precision.
    """
    _require_positive_t(system)
    if system.material.mode is PermittivityMode.IDEAL_METAL:
        df = ideal_metal(system.separation_a, system.temperature_T)[1]
        return {pol: df / 2 for pol in system.polarization.modes()}
    from .abel_plana import delta_f_table   # abel_plana imports this module
    table = delta_f_table(system, [system.temperature_T])
    return {pol: mpf(df) for pol, [(df, _)] in table.items()}


def _require_positive_t(system: PlateSystem) -> None:
    if system.temperature_T <= 0:
        raise ValueError("F and dF require T > 0; F(0) is zero_temperature_energy")


def conductivity_knee(material: DielectricModel, a: float) -> float:
    """The conductivity scale in y = 2 a zeta / c: y = alpha = 2 a (4 pi
    sigma) / c, where r_TM falls from 1 to its dielectric value; 1 without
    conductivity or above alpha = 1.  F(0)'s first y-panel ends there, and
    `abel_plana`'s sqrt(u) head stays well below it."""
    if not material.four_pi_sigma > 0:
        return 1.0
    return min(2 * a * material.four_pi_sigma / float_constants().c, 1.0)


def zero_temperature_energies(system: PlateSystem) -> dict:
    """T = 0 limit per polarization, {pol: mpf J/m^2}, from one float64 pass
    over the y nodes for every polarization of the system.

    With y = 2 a zeta / c,  F(0) = hbar c / (32 pi^2 a^3) integral_0^inf G(y) dy,
    on the scan's m layout in y: an `nm_unit`-node panel in v = sqrt(y) on
    [0, knee], then `nm_geo`-node panels doubling to _X_END.  The knee is
    `conductivity_knee`.  The G come from F's node loop, `_real_axis_gs`;
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
    knee = conductivity_knee(mat, a)
    # (y, weight): v^2 panel on [0, knee], then doubling panels to _X_END
    nodes = _sqrt_panel(knee, gauss_legendre(spec.nm_unit))
    gl_geo = gauss_legendre(spec.nm_geo)
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
    node loop of F and F(0) of a dielectric: G is `_g_real_axis` with eps
    - 1 = `susceptibility` of the float zeta = y c / (2a), and 0 from y =
    _X_END on.  PrecisionError, naming `where`, when a G is not finite."""
    mat = system.material
    c, a = float_constants().c, float(system.separation_a)
    gl, fixed = gauss_legendre(system.quadrature.nx), {}
    out = []
    for y in ys:
        if y >= _X_END:
            gs = (0.0,) * len(pols)
        else:
            gs = _g_real_axis(y, susceptibility(mat, y * c / (2 * a)), pols, gl, fixed)
        for pol, g in zip(pols, gs):
            if not math.isfinite(g):
                raise PrecisionError(f"{pol}: G(y = {y:.6g}) = {g} in {where}")
        out.append(gs)
    return out


def _g_real_axis(y: float, chi: float, pols, gl, fixed: dict) -> tuple:
    """G(y) = integral_y^45 x L(x) dx of each polarization in pols, in that
    order, in float64, with chi = eps(i zeta) - 1 at y = 2 a zeta / c.

    z = (y/x)^2 chi and s = sqrt(1 + z) are shared by TM and TE.  With eps
    = 1 + chi, r_TM = (chi - z/(1 + s))/(eps + s), whose numerator is eps -
    s without the cancellation of a rounded eps close to 1, and 1 - r_TM^2
    = 4 eps s / (eps + s)^2; r_TE = -z/(1 + s)^2 and 1 - r_TE^2 = 4 s / (1
    + s)^2.  L is log1p(-r^2 e^-x) where r^2 e^-x < 1/2, and log((1 - r^2)
    - r^2 expm1(-x)) elsewhere, so neither a small r^2 e^-x nor an r^2
    close to 1 loses digits.  The x-panels are `_real_axis_panels` from x
    = y.
    """
    zfac = y * y * chi
    eps = 1 + chi
    tm, te = "tm" in pols, "te" in pols
    g_tm = g_te = 0.0
    sqrt, exp, log, log1p = math.sqrt, math.exp, math.log, math.log1p
    for wx, x, x2, em in _real_axis_panels(_real_axis_edges(y), gl, fixed):
        z = zfac / x2
        s = sqrt(1 + z)
        p = 1 + s
        ex = exp(-x)
        if tm:
            d = eps + s
            r = (chi - z / p) / d
            r2 = r * r
            q = r2 * ex
            g_tm += wx * (log1p(-q) if q < 0.5 else log(4 * eps * s / (d * d) - r2 * em))
        if te:
            dd = p * p
            r = -z / dd
            r2 = r * r
            q = r2 * ex
            g_te += wx * (log1p(-q) if q < 0.5 else log(4 * s / dd - r2 * em))
    return tuple(g_tm if pol == "tm" else g_te for pol in pols)


def zero_temperature_energy(system: PlateSystem):
    """F(0) of the system: the sum of `zero_temperature_energies`, TM first."""
    return sum(zero_temperature_energies(system).values())


def _oracle_only(*args, **kwargs):
    """The 33-digit g(m) and mode scan are `tests/oracles.py`'s, not the
    program's: the names `g_of_m` and `mode_scan` below only keep
    bench/spans.py's TARGETS resolving until the bench points at the float
    routes, and no program path calls them."""
    raise NotImplementedError("g(m) and the mode scan live in tests/oracles.py")


g_of_m = mode_scan = _oracle_only
