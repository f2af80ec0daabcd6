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

Layout.  Every x-panel has 16 Gauss-Legendre nodes, and both pieces start
at x_lo = 1e-7 min(u, |sqrt(w)|, u / sqrt|eps|), the smallest scale of
the integrand.  The imaginary-axis piece has panels that halve from u
down to x_lo.  The real-axis piece has panels that halve from 1 down to
x_lo, then width-2 panels from 1 to 45 (e^-45 = 2.9e-20): `lifshitz`'s
real-axis panels, which F(0) walks from x = y as well.  TE has a branch
point at x* = sqrt(w); where 4 |Im x*| < Re x* < 45 it sits close to the
real axis, and the panels, halving or width-2, within Re x*/4 of it are
replaced by panels that cluster on Re x* from both sides, their edges at
distances halving from Re x*/4 down to |Im x*|.  The layout is the same
whichever polarizations are asked for, and each polarization has its own
running sum, so each one's values are bit-identical whether it is
computed alone or with the other.  The u-panels have 12 nodes each and
double from u_lo = 1e-9 xm1(T_min) to past 8 xm1(T_max) (the weight
there is e^{-16 pi} = 1.4e-22 or less); the piece on [0, u_lo] is added
in closed form, h1 (u_lo xm1 / (2 pi) - u_lo^2 / 4) with h1 = H(u_1)/u_1
at the first node.

All of it is float64 arithmetic (`math`, `cmath`), whatever the working
precision; the Gauss-Legendre rules are `lifshitz.float_gauss_legendre`
(the package's rule at 53 bits) and eps is `dielectric.permittivity` at
zeta = i v, both in floats.
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
                       _real_axis_edges, _real_axis_panels, float_gauss_legendre)

_NX = 16          # Gauss-Legendre nodes per x-panel
_NU = 12          # per u-panel
_X_LO = 1e-7      # share of the integrand's smallest scale where the x-panels start
_U_LO = 1e-9      # share of xm1(T_min) where the u-panels start
_U_HI = 8         # multiple of xm1(T_max) the u-panels reach


def _imaginary_axis_nodes(a, b, gl) -> list:
    """(weight y, X, X^2, expm1(-X)) at X = iy for the nodes y of [a, b]."""
    nodes = []
    for y, wt in _panel(a, b, gl):
        half = math.sin(y / 2)
        nodes.append((wt * y, complex(0, y), -y * y, complex(-2 * half * half, -math.sin(y))))
    return nodes


def _x_nodes(u: float, eps: complex, w: complex, gl, fixed: dict) -> list:
    """The nodes of both pieces of G(iu) (see the module docstring).
    `fixed` keeps the real-axis panels that do not depend on u."""
    root = cmath.sqrt(w)
    x_lo = _X_LO * min(u, abs(root), u / math.sqrt(abs(eps)))
    edges = _halvings(u, x_lo)
    nodes = [n for a, b in zip(edges, edges[1:]) for n in _imaginary_axis_nodes(a, b, gl)]
    edges = _real_axis_edges(x_lo)
    c, im = root.real, abs(root.imag)
    if 4 * im < c < _X_END:
        edges = [e for e in edges if abs(e - c) >= c / 4] + [c]
        d = c / 4
        while d > im:
            edges += [c - d, c + d]
            d /= 2
        edges.sort()
    return nodes + _real_axis_panels(edges, gl, fixed)


def _h(u: float, eps: complex, pols, gl, fixed: dict) -> tuple:
    """H(u) = Im G(iu) of each polarization in pols, in that order, with
    eps taken at zeta = i u c / (2a)."""
    w = u * u * (eps - 1)
    e2m1 = eps * eps - 1
    tm, te = "tm" in pols, "te" in pols
    h_tm = h_te = 0.0
    sqrt, atan2 = cmath.sqrt, math.atan2
    for wx, X, X2, em in _x_nodes(u, eps, w, gl, fixed):
        s = sqrt(X2 - w)
        if tm:
            ex = eps * X
            d = ex + s
            dd = d * d
            r = (e2m1 * X2 + w) / dd
            z = 4 * ex * s / dd - r * r * em
            h_tm += wx * atan2(z.imag, z.real)
        if te:
            d = X + s
            dd = d * d
            r = w / dd
            z = 4 * X * s / dd - r * r * em
            h_te += wx * atan2(z.imag, z.real)
    return tuple(h_tm if pol == "tm" else h_te for pol in pols)


def _bose(q: float) -> float:
    """1 / (e^q - 1), without overflow at large q."""
    return math.exp(-q) / -math.expm1(-q)


def delta_f_table(template: PlateSystem, t_grid) -> dict:
    """The thermal correction dF (J/m^2, float) at each temperature of
    t_grid (K, positive) for each polarization of the template:
    {pol: [dF per T]}, from one table of H.

    Raises ValueError, before any H is computed, for the ideal metal, for
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
    k = float_constants()
    ts = [float(T) for T in t_grid]
    zeta1 = 2 * math.pi * k.k_B * max(ts) / k.hbar
    if mat.mode is PermittivityMode.FULL_OSCILLATOR and mat.omega0 <= 8 * zeta1:
        raise ValueError(f"omega0 = {mat.omega0:.4g} s^-1 is within 8 zeta_1 = "
                         f"{8 * zeta1:.4g} s^-1 of the grid's hottest point: "
                         "the resonance lies inside the Abel-Plana table")
    a = float(template.separation_a)
    pols = template.polarization.modes()

    def xm1(T):
        return 4 * math.pi * a * k.k_B * T / (k.hbar * k.c)

    gl_x, gl_u = float_gauss_legendre(_NX), float_gauss_legendre(_NU)
    fixed = {}
    u_lo, u_hi = _U_LO * xm1(min(ts)), _U_HI * xm1(max(ts))
    nodes, hs = [], {pol: [] for pol in pols}
    b = u_lo
    while b < u_hi:
        for u, wt in _panel(b, 2 * b, gl_u):
            eps = permittivity(mat, complex(0, u * k.c / (2 * a)))
            for pol, h in zip(pols, _h(u, eps, pols, gl_x, fixed)):
                if not math.isfinite(h):
                    raise PrecisionError(f"{pol}: H(u = {u:.6g}) = {h} in the Abel-Plana table")
                hs[pol].append(h)
            nodes.append((u, wt))
        b *= 2

    table = {}
    for pol, h in hs.items():
        h1 = h[0] / nodes[0][0]
        table[pol] = []
        for T in ts:
            x1 = xm1(T)
            head = h1 * (u_lo * x1 / (2 * math.pi) - u_lo * u_lo / 4)
            gamma = -2 / x1 * math.fsum([head] + [wt * hv * _bose(2 * math.pi * u / x1)
                                                  for (u, wt), hv in zip(nodes, h)])
            table[pol].append(k.k_B * T / (8 * math.pi * a * a) * gamma)
    return table
