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
`lifshitz`'s real-axis panels, which F and F(0) walk from x = y as well.
TE has a branch point at x* = sqrt(w); where 4 |Im x*| < Re x* < 45 it
sits close to the real axis, and the edges, halving or doubling, within
Re x*/4 of it are replaced by edges that cluster on Re x* from both
sides, at distances halving from Re x*/4 down to |Im x*|.  The layout
is the same whichever polarizations are asked for, and each polarization
has its own running sum, so each one's values are bit-identical whether
it is computed alone or with the other.  The u-panel edges are u_0 2^k,
anchored at u_0 = 2^-10 xm1(T_min).  The u-path starts at u = 0 with one
head panel [0, u_h] in v = sqrt(u): nodes v^2, weights 2 v w, as on
F(0)'s first y-panel.  u_h is the highest edge u_0 2^k (k >= 0) at or
below min(2^-5 xm1(T_min), 2^-8 alpha), with alpha the conductivity knee
(`lifshitz.conductivity_knee`, F(0)'s).  Below alpha, H's u, u^{3/2} and
u^2 terms times the Bose weight make a short series in v, so the head
takes H's small-u structure whole, whatever its basis, and no u is cut
off.  Panels of 10 nodes then double from u_h to past 8 xm1(T_max) (the
weight there is e^{-16 pi} = 1.4e-22 or less).  Every edge above the
head is one that a head ending at u_0 would have too, so TE's
branch-point step in u (see below) stays in the same u-panel whatever
the head's end.

Node orders.  An x-panel has 16 Gauss-Legendre nodes where it reaches
past x = 1 or comes within a factor 16 of one of the three scales
(a < 16 s and 16 b > s for the panel [a, b], so always on [0, s_min]),
and 8 elsewhere, on the halving panels between the scales; every H takes
the same rules.  The head has 32 nodes.  On the 15-120 mK TM sweep that
is 67,136 x-nodes for 142 H.  Where the knee holds the head at u_0
(si-paper, a = 1 um: T_min above 2.4 K) the head's 32 nodes cost 16 H
more than 16 nodes there would, 162 at 20 K, and 6 more at T_min =
1.2-2.4 K.  Against the same table at doubled orders (32 and 16 nodes
per x-panel, 64 on the head, 24 per u-panel and the head held at u_0 =
2^-20 xm1(T_min)) dF agrees within 6e-13 relative on si-paper and
si-fig2 at 2 mK-1 K (at most 5.1e-13, si-paper TE at 0.8-1 K; 1.9e-13
for TM), on si-paper TM down to 10 uK (2.6e-13) and on si-paper TE at
20 K (2.6e-14).  8 nodes per u-panel would give up to 1.3e-11, and 6
nodes per far x-panel up to 1.4e-11 (TM) and 8.6e-11 (TE).  The 6e-13
holds on those cases only.  Elsewhere dF is off by up to 2.9e-13 on
si-paper TM at 20 K, 5.3e-14 on si-fig2 TM at 20 K, 4.3e-13 on TM at
a = 3.8-4 um with 4 pi sigma = 5e13-1.2e14 s^-1 (at most 1.9e-13 with
16 nodes on [0, u_0]), 7.6e-12 on TE at a = 10 um and 0.02-1 K and
6.2e-13 on TE at 4 pi sigma = 1e10 s^-1; TE's two come from a step of H
in u where the branch-point clustering switches on.

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
resonance lies inside the table.
"""

from __future__ import annotations

import cmath
import math

from .constants import float_constants
from .dielectric import PermittivityMode, permittivity
from .lifshitz import (_X_END, PlateSystem, PrecisionError, _halvings, _panel,
                       _real_axis_edges, _real_axis_panels, _sqrt_panel,
                       conductivity_knee, gauss_legendre)

_NX = 16          # Gauss-Legendre nodes per x-panel near the integrand's scales
_NX_FAR = 8       # per x-panel away from them
_BAND = 16        # factor around each scale within which an x-panel is near it
_NU = 10          # Gauss-Legendre nodes per u-panel
_NH = 32          # Gauss-Legendre nodes on the sqrt(u) head
_U_0 = 2 ** -10   # share of xm1(T_min) that anchors the u-panel edges u_0 2^k
_U_HEAD = 2 ** -5   # share of xm1(T_min) the sqrt(u) head reaches at most
_KNEE_HEAD = 2 ** -8  # share of the conductivity knee the head reaches at most
_U_HI = 8         # multiple of xm1(T_max) the u-panels reach


def _imaginary_axis_nodes(a, b, gl) -> list:
    """(weight y, X, X^2, expm1(-X)) at X = iy for the nodes y of [a, b]."""
    nodes = []
    for y, wt in _panel(a, b, gl):
        half = math.sin(y / 2)
        nodes.append((wt * y, complex(0, y), -y * y, complex(-2 * half * half, -math.sin(y))))
    return nodes


def _x_nodes(u: float, eps: complex, w: complex, gl, fixed: dict) -> list:
    """The nodes of both pieces of G(iu) (see the module docstring).  gl is
    the (near, far) pair of rules; `fixed` keeps, per order, the real-axis
    panels that do not depend on u."""
    near, far = gl
    root = cmath.sqrt(w)
    scales = (abs(root), u / math.sqrt(abs(eps)), u)

    def rule(a, b):
        return near if b > 1 or any(a < _BAND * x and _BAND * b > x for x in scales) else far

    s_min = min(scales)
    edges = [0.0] + _halvings(u, s_min)
    nodes = [n for a, b in zip(edges, edges[1:]) for n in _imaginary_axis_nodes(a, b, rule(a, b))]
    edges = [0.0] + _real_axis_edges(s_min)
    c, im = root.real, abs(root.imag)
    if 4 * im < c < _X_END:
        edges = [e for e in edges if abs(e - c) >= c / 4] + [c]
        d = c / 4
        while d > im:
            edges += [c - d, c + d]
            d /= 2
        edges.sort()
    for a, b in zip(edges, edges[1:]):
        r = rule(a, b)
        nodes += _real_axis_panels((a, b), r, fixed.setdefault(len(r), {}))
    return nodes


def _h(u: float, eps: complex, pols, gl, fixed: dict) -> tuple:
    """H(u) = Im G(iu) of each polarization in pols, in that order, with
    eps taken at zeta = i u c / (2a); gl and fixed are `_x_nodes`'s.  s is
    taken once per node for both; each polarization then runs its own loop."""
    w = u * u * (eps - 1)
    nodes = _x_nodes(u, eps, w, gl, fixed)
    sqrt, phase = cmath.sqrt, cmath.phase
    ss = [sqrt(X2 - w) for _, _, X2, _ in nodes]
    hs = []
    for pol in pols:
        h = 0.0
        if pol == "tm":
            e2m1 = eps * eps - 1
            for (wx, X, X2, em), s in zip(nodes, ss):
                ex = eps * X
                d = ex + s
                dd = d * d
                r = (e2m1 * X2 + w) / dd
                h += wx * phase(4 * ex * s / dd - r * r * em)
        else:
            for (wx, X, X2, em), s in zip(nodes, ss):
                d = X + s
                dd = d * d
                r = w / dd
                h += wx * phase(4 * X * s / dd - r * r * em)
        hs.append(h)
    return tuple(hs)


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
    sigma = 0 and for an oscillator with omega0 <= 8 zeta_1(T_max), whose
    resonance lies inside the table; PrecisionError when an H is not
    finite.
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
    zeta1 = 2 * math.pi * k.k_B * max(ts) / k.hbar
    if mat.mode is PermittivityMode.FULL_OSCILLATOR and mat.omega0 <= 8 * zeta1:
        raise ValueError(f"omega0 = {mat.omega0:.4g} s^-1 is within 8 zeta_1 = "
                         f"{8 * zeta1:.4g} s^-1 of the grid's hottest point: "
                         "the resonance lies inside the Abel-Plana table")
    a = float(template.separation_a)
    pols = template.polarization.modes()

    def xm1(T):
        return 4 * math.pi * a * k.k_B * T / (k.hbar * k.c)

    near, far, gl_u = gauss_legendre(_NX), gauss_legendre(_NX_FAR), gauss_legendre(_NU)
    fixed = {}
    x_lo, u_hi = xm1(min(ts)), _U_HI * xm1(max(ts))
    # the head [0, b] takes the doubling panels from u_0 up to its end
    b, end = _U_0 * x_lo, min(_U_HEAD * x_lo, _KNEE_HEAD * conductivity_knee(mat, a))
    while 2 * b <= end:
        b *= 2
    nodes = _sqrt_panel(b, gauss_legendre(_NH))
    while b < u_hi:
        nodes += _panel(b, 2 * b, gl_u)
        b *= 2
    hs = {pol: [] for pol in pols}
    for u, _ in nodes:
        eps = permittivity(mat, complex(0, u * k.c / (2 * a)))
        for pol, h in zip(pols, _h(u, eps, pols, (near, far), fixed)):
            if not math.isfinite(h):
                raise PrecisionError(f"{pol}: H(u = {u:.6g}) = {h} in the Abel-Plana table")
            hs[pol].append(h)

    table = {}
    for pol, h in hs.items():
        table[pol] = []
        for T in ts:
            x1 = xm1(T)
            qs = [2 * math.pi * u / x1 for u, _ in nodes]
            bs = [_bose(q) for q in qs]
            gamma = -2 / x1 * math.fsum([wt * hv * b for (_, wt), hv, b in zip(nodes, h, bs)])
            d_gamma = -2 / x1 * math.fsum([wt * hv * b * (1 + b) * q / T for (_, wt), hv, q, b
                                           in zip(nodes, h, qs, bs)])
            pref = k.k_B * T / (8 * math.pi * a * a)
            table[pol].append((pref * gamma, pref * d_gamma))
    return table
