"""Thermal correction of a whole temperature sweep from one Abel-Plana table.

The Abel-Plana formula gives the Matsubara sum-minus-integral as one
integral up the imaginary m axis (A. A. Saharian, arXiv:0708.1187;
Bordag, Klimchitskaya, Mohideen and Mostepanenko, *Advances in the Casimir
Effect*, OUP 2009):

    sum'_{m>=0} g(m) - integral_0^inf g(m) dm = -2 integral_0^inf Im g(it) / (e^{2 pi t} - 1) dt,

with no sum, no cut-off M and no cancellation.  eps has no T in it, so
g(m; T) = G(m xm1) for one G, with xm1 = 4 pi a k_B T / (hbar c) the x_min
of the mode m = 1; with H(u) = Im G(iu),

    delta Gamma(T) = -(2 / xm1) integral_0^inf H(u) / (e^{2 pi u / xm1} - 1) du,

and one table of H serves every temperature of a sweep.

G(iu) is `lifshitz`'s x-integral continued to y = iu.  With eps taken at
zeta = i u c / (2a), w = u^2 (eps - 1) and s = sqrt(X^2 - w) (principal
branch), where X is the x variable,

    1 - r_TM^2 = 4 eps X s / (eps X + s)^2,   r_TM = ((eps^2 - 1) X^2 + w) / (eps X + s)^2,
    1 - r_TE^2 = 4 X s / (X + s)^2,           r_TE = w / (X + s)^2,
    L = log((1 - r^2) - r^2 expm1(-X)),

    G(iu) = integral_0^u y L(iy) dy + integral_0^inf x L(x) dx,

where on the imaginary axis expm1(-iy) = -2 sin^2(y/2) - i sin y.  Only
Im L enters H: the phase of the log's argument.  TM and TE share s at
each node.

Layout.  With s_min = min(u, |sqrt(w)|, u / sqrt|eps|), the smallest of
the integrand's three scales, both pieces start at X = 0 with one panel
[0, s_min].  z = 1 - r^2 - r^2 expm1(-X) has a simple zero at X = 0, so
Im L = arg X + arg(z / X): a constant on each path (0 or pi/2) plus a
function smooth on the scale s_min, which that one panel takes whole.  So
no x is cut off, and no panel is halved toward 0.  Above it the
imaginary-axis piece has panels that halve from u down to s_min, and the
real-axis piece has panels that halve from 1 down to s_min (none when
s_min >= 1), then panels that double from 1 (from s_min when s_min >= 1)
to 45, the last one cut there (1, 2, 4, ..., 32, 45; e^-45 = 2.9e-20):
`lifshitz`'s real-axis panels from its one builder (`_real_axis_panels`),
which F and F(0) walk from x = y as well.
TE has a branch point at x* = sqrt(w); where 4 |Im x*| < Re x* < 45 it
sits close to the real axis, and the edges, halving or doubling, within
Re x*/4 of it are replaced by edges that cluster on Re x* from both
sides, at distances halving from Re x*/4 down to |Im x*|.  The layout
is the same whichever polarizations are asked for, and each polarization
has its own running sum in one pass over the nodes, so each one's values
are bit-identical whether it is computed alone or with the other.  The
u-panel edges are u_0 2^k, anchored at u_0 = 2^-10 xm1(T_min), or at
u_0 = 2^-8 alpha where the conductivity knee alpha
(`lifshitz.conductivity_knee`, F(0)'s) lies below 2^-10 xm1(T_min),
that is at t(T_min) > 1024: a head anchored higher would take the knee,
where H changes form, inside one panel (dF was off by 4.2e-7 at t = 1e4
and by 3.8e-2 at 1e6).  The u-path starts at u = 0 with one head panel
[0, u_h] in v = sqrt(u): nodes v^2, weights 2 v w, as on F(0)'s first
y-panel.  u_h is the highest edge u_0 2^k (k >= 0) at or below
min(2^-5 xm1(T_min), 2^-8 alpha).  Below alpha, H's u, u^{3/2} and
u^2 terms times the Bose weight make a short series in v, so the head
takes H's small-u structure whole, whatever its basis, and no u is cut
off.  Panels of 10 nodes then double from u_h to past 8 xm1(T_max) (the
weight there is e^{-16 pi} = 1.4e-22 or less).  Every edge above the
head is one that a head ending at u_0 would have too, so TE's
branch-point step in u (see below) stays in the same u-panel whatever
the head's end.

Node orders.  Each x-panel [a, b] takes the order of the bands it meets
(a < 16 x and 16 b > x for the band of the scale x).  |sqrt(w)| always
has a band; u / sqrt|eps| and u have one only where they are at least
|sqrt(w)| / 16: at small u, where eps is large, the two lie far below
|sqrt(w)|, and their bands bought no digit.  A panel that meets a band
has 16 Gauss-Legendre nodes; any other has 12 where it reaches past x =
1 and 8 below; the first panel [0, s_min] takes the same rule, and every
H takes the same rules.  The head has 32 nodes.  On the 15-120 mK TM
sweep that is 55,256 x-nodes for 142 H.  Where the knee holds the head
at u_0 (si-paper, a = 1 um: T_min above 2.4 K) the head's 32 nodes cost
16 H more than 16 nodes there would, 162 at 20 K, and 6 more at T_min =
1.2-2.4 K; past t = 1024 the ladder from 2^-8 alpha takes
about 10 H more per octave of t (282 H at t = 1e4, 342 at 1e6).
Against the same table at doubled orders (32, 24 and 16 nodes per
x-panel, 64 on the head, 24 per u-panel and the head held at u_0 =
2^-20 xm1(T_min)) dF agrees within 6e-13 relative on si-paper and
si-fig2 at 2 mK-1 K (at most 5.1e-13, si-paper TE at 1 K; 1.8e-13 for
TM), on si-paper TM down to 10 uK (3.9e-13) and on si-paper TE at 20 K
(2.6e-14).  8 nodes per u-panel would give up to 1.3e-11, 6 nodes per
far x-panel up to 1.4e-11 (TM) and 1.1e-10 (TE), and 12 nodes in the
bands up to 4.9e-11 on TE at 20 K and 2.7e-9 on TE at a = 10 um.  The
6e-13 holds on those cases only.  Elsewhere dF is off by up to 1.8e-13
on si-paper TM at 20 K, 2.0e-14 on si-fig2 TM at 20 K, 3.0e-13 on TM at
a = 3.8-4 um with 4 pi sigma = 5e13-1.2e14 s^-1, 7.6e-12 on TE at a =
10 um and 0.02-1 K and 6.2e-13 on TE at 4 pi sigma = 1e10 s^-1; TE's
two come from a step of H in u where the branch-point clustering
switches on.  The doubled-order table
is itself only about 3e-13 good on TM.  Past t = 1024, TM agrees with
F - F(0) within 5.3e-13 at t = 1e4 and 1.6e-13 at 1e6.

All of it is float64 arithmetic (`math`, `cmath`), whatever the working
precision; the Gauss-Legendre rules are `lifshitz.gauss_legendre`, the
package's one rule, and eps is `dielectric.permittivity` at zeta = i v,
both in floats.
On si-paper and si-fig2 the table agrees within 1e-11 relative with the
33-digit mode scan of `tests/oracles.py`: at T <= 0.12 K with the scan at
its own cut-off M, at 0.3 and 1 K with the scan at M = 240, and on
si-paper TE at 20 K, where x* lies beyond x = 1, with the scan at M = 240
too.  One point of the table is the package's dF
(`lifshitz.delta_f_direct`).
Lossless plates (the ideal metal, sigma = 0) are refused, since
1 - r^2 e^{-x} can vanish on the path, and so is an oscillator whose
resonance lies inside the table, and xm1(T_max) > 2 (364 K at a = 1 um),
where the u-panels would pass u = 16: against F - F(0) at M = 240, dF is
within 9.4e-13 at xm1 = 2, but 8.7e-11 off (TE) at 3 and 1.2e-3 at 16.5.
"""

from __future__ import annotations

import cmath
import math

from .constants import float_constants
from .dielectric import PermittivityMode, permittivity
from .lifshitz import (_X_END, PlateSystem, PrecisionError, _halvings, _panel,
                       _real_axis_edges, _real_axis_panels, _sqrt_panel, _thermal_scales,
                       conductivity_knee, gauss_legendre)

_NX = 16          # Gauss-Legendre nodes per x-panel in the band of a scale
_NX_ABOVE_1 = 12  # per x-panel away from them that reaches past x = 1
_NX_FAR = 8       # per x-panel away from them below x = 1
_BAND = 16        # factor either side of a scale that its band spans
_NU = 10          # Gauss-Legendre nodes per u-panel
_NH = 32          # Gauss-Legendre nodes on the sqrt(u) head
_U_0 = 2 ** -10   # share of xm1(T_min) that anchors the u-panel edges u_0 2^k
_U_HEAD = 2 ** -5   # share of xm1(T_min) the sqrt(u) head reaches at most
_KNEE_HEAD = 2 ** -8  # share of the conductivity knee the head reaches at most
_U_HI = 8         # multiple of xm1(T_max) the u-panels reach


def _x_nodes(u: float, eps: complex, w: complex, gl, fixed: dict) -> list:
    """(weight X, X, X^2, expm1(-X)) at the nodes of both pieces of G(iu)
    (see the module docstring).  gl is the (near, above 1, far) triple of
    rules; the real-axis piece is `lifshitz._real_axis_panels`, whose
    `fixed` keeps its panels that do not depend on u."""
    near, above_1, far = gl
    root = cmath.sqrt(w)
    r_w, r_eps = abs(root), u / math.sqrt(abs(eps))
    # bands (x/16, 16 x): |sqrt(w)|'s always, u / sqrt|eps|'s and u's at |sqrt(w)| / 16 or above
    bands = [(x / _BAND, _BAND * x) for x in (r_w, r_eps, u) if _BAND * x >= r_w]
    s_min = min(r_w, r_eps, u)

    def rule(a, b):
        for lo, hi in bands:
            if a < hi and b > lo:
                return near
        return above_1 if b > 1 else far

    sin = math.sin
    nodes = []
    edges = [0.0] + _halvings(u, s_min)
    for a, b in zip(edges, edges[1:]):
        h, mid = (b - a) / 2, (b + a) / 2
        for t, wt in rule(a, b):
            y = mid + h * t
            half = sin(y / 2)
            nodes.append((h * wt * y, complex(0, y), -y * y, complex(-2 * half * half, -sin(y))))
    edges = [0.0] + _real_axis_edges(s_min)
    c, im = root.real, abs(root.imag)
    if 4 * im < c < _X_END:
        edges = [e for e in edges if abs(e - c) >= c / 4] + [c]
        d = c / 4
        while d > im:
            edges += [c - d, c + d]
            d /= 2
        edges.sort()
    nodes += _real_axis_panels(edges, rule, fixed)
    return nodes


def _h(u: float, eps: complex, pols, gl, fixed: dict) -> tuple:
    """H(u) = Im G(iu) of each polarization in pols, in that order, with
    eps taken at zeta = i u c / (2a); gl and fixed are `_x_nodes`'s.  One
    pass over the nodes serves every polarization: s is taken once per
    node, and each polarization keeps its own running sum, with the
    operations of a one-polarization pass in the same order."""
    w = u * u * (eps - 1)
    e2m1 = eps * eps - 1
    tm, te = "tm" in pols, "te" in pols
    h_tm = h_te = 0.0
    sqrt, phase = cmath.sqrt, cmath.phase
    for wx, X, X2, em in _x_nodes(u, eps, w, gl, fixed):
        s = sqrt(X2 - w)
        if tm:
            ex = eps * X
            d = ex + s
            dd = d * d
            r = (e2m1 * X2 + w) / dd
            h_tm += wx * phase(4 * ex * s / dd - r * r * em)
        if te:
            d = X + s
            dd = d * d
            r = w / dd
            h_te += wx * phase(4 * X * s / dd - r * r * em)
    return tuple(h_tm if pol == "tm" else h_te for pol in pols)


def _bose(q: float) -> float:
    """1 / (e^q - 1), without overflow at large q."""
    return math.exp(-q) / -math.expm1(-q)


def delta_f_table(template: PlateSystem, t_grid) -> dict:
    """The thermal correction dF (J/m^2, float) and d(dF)/dT (J/(K m^2),
    float) at each temperature of t_grid (K, positive) for each
    polarization of the template: {pol: [(dF, d(dF)/dT) per T]}, from one
    table of H.  Only the Bose weight b(q), q = 2 pi u / xm1, depends on
    T, so d(dF)/dT is exact for the table's nodes: db/dT = b (1 + b) q / T.

    Raises ValueError, before any H is computed, for an empty grid, for a
    temperature that is not positive and finite, for the ideal metal, for
    sigma = 0, for an oscillator with omega0 <= 8 zeta_1(T_max), whose
    resonance lies inside the table, and for xm1(T_max) > 2; PrecisionError
    when an H is not finite.
    """
    mat = template.material
    if mat.mode is PermittivityMode.IDEAL_METAL:
        raise ValueError("no Abel-Plana table for the ideal metal: it is lossless, "
                         "and 1 - r^2 e^-x vanishes on the path")
    if not mat.four_pi_sigma > 0:
        raise ValueError("the Abel-Plana table needs sigma > 0: at sigma = 0 the plate "
                         "is lossless, and 1 - r^2 e^-x can vanish on the path")
    ts = [float(T) for T in t_grid]
    if not ts:
        raise ValueError("the Abel-Plana table needs at least one temperature")
    if not all(0 < T < math.inf for T in ts):
        raise ValueError(f"the Abel-Plana table needs positive finite temperatures, got {ts}")
    k = float_constants()
    t_max = max(ts)
    zeta1 = 2 * math.pi * k.k_B * t_max / k.hbar
    if mat.mode is PermittivityMode.FULL_OSCILLATOR and mat.omega0 <= 8 * zeta1:
        raise ValueError(f"omega0 = {mat.omega0:.4g} s^-1 is within 8 zeta_1 = "
                         f"{8 * zeta1:.4g} s^-1 of the grid's hottest point: "
                         "the resonance lies inside the Abel-Plana table")
    a = float(template.separation_a)
    x_lo, u_hi = _thermal_scales(a, min(ts))[0], _U_HI * _thermal_scales(a, t_max)[0]
    if u_hi > 16:   # xm1(T_max) > 2
        raise ValueError(f"xm1 = {u_hi / _U_HI:.4g} > 2 at the grid's hottest point, "
                         f"{t_max:.4g} K: past u = 16 the Abel-Plana table's u-panels "
                         "lose digits; `casimir-lowt energy` gives F there")
    pols = template.polarization.modes()
    gl_x = gauss_legendre(_NX), gauss_legendre(_NX_ABOVE_1), gauss_legendre(_NX_FAR)
    gl_u, fixed = gauss_legendre(_NU), {}
    knee = conductivity_knee(mat, a)
    # the ladder's anchor u_0, or 2^-8 alpha where the knee lies below u_0;
    # the head [0, b] takes the doubling panels from there up to its end
    b = _U_0 * x_lo if knee >= _U_0 * x_lo else _KNEE_HEAD * knee
    end = min(_U_HEAD * x_lo, _KNEE_HEAD * knee)
    while 2 * b <= end:
        b *= 2
    nodes = _sqrt_panel(b, gauss_legendre(_NH))
    while b < u_hi:
        nodes += _panel(b, 2 * b, gl_u)
        b *= 2
    hs = {pol: [] for pol in pols}
    for u, _ in nodes:
        eps = permittivity(mat, complex(0, u * k.c / (2 * a)))
        for pol, h in zip(pols, _h(u, eps, pols, gl_x, fixed)):
            if not math.isfinite(h):
                raise PrecisionError(f"{pol}: H(u = {u:.6g}) = {h} in the Abel-Plana table")
            hs[pol].append(h)

    table = {pol: [] for pol in pols}
    for T in ts:
        x1, pref = _thermal_scales(a, T)
        qs = [2 * math.pi * u / x1 for u, _ in nodes]
        bs = [_bose(q) for q in qs]
        for pol, h in hs.items():
            gamma = -2 / x1 * math.fsum([wt * hv * b for (_, wt), hv, b in zip(nodes, h, bs)])
            d_gamma = -2 / x1 * math.fsum([wt * hv * b * (1 + b) * q / T for (_, wt), hv, q, b
                                           in zip(nodes, h, qs, bs)])
            table[pol].append((pref * gamma, pref * d_gamma))
    return table
