"""Reference routes that the package itself does not run, kept as oracles
for the tests.

* The endpoint-series constants by two routes independent of their closed
  forms (`asymptotics.psi_constant`, `asymptotics.phi_constant`): a Levin
  u-transform of the raw divergent Bernoulli-weighted terms, and (for the
  log-power series) a Borel integral.
* The exact leading TE summand and its first conductivity correction in
  closed form, and a direct quadrature of the former.
* The 33-digit g(m) kernel: `g_of_m` and `_g_at_frequency`, one x-panel
  loop (`_x_integral`) on raw `mpmath.libmp` arithmetic at the working
  precision over a per-precision table of the fixed x-nodes, with the
  reflection coefficients of `mpf_reflections`; `reflection` on mpf
  values over the latter, and the squared zero-frequency TM coefficient
  `a_mu`.
* `constant_a_integral`, the kernel's x-panel loop on a constant
  reflection, against the analytic -Li_3 of the m = 0 mode.
* `gauss_legendre`, the Gauss-Legendre rule at the working precision
  (mpf Newton steps on the Legendre recurrence, cached per (n, prec)): the
  rule of every oracle below, and at 53 bits the oracle of the package's
  float64 `lifshitz.gauss_legendre`.
* `gl_panel`, one Gauss-Legendre panel on mpf values: the arithmetic that
  the kernel's raw x-panel loop reproduces bit for bit.
* The mode scan (`mode_scan`, `_mode_scans`) and its thermal correction
  `delta_f`: the sum to the cut-off M minus the m-integral over [0, M],
  from the same g values, with Euler-Maclaurin endpoint terms at M; the
  oracle of the package's float64 `lifshitz.delta_f_direct` (the
  Abel-Plana table).
* `zero_temperature_energies`, F(0) per polarization as the y-integral of
  the kernel at the working precision, on the scan's m layout: the oracle
  of the package's float64 F(0).
* `free_energy_scans` and `free_energy`, F at the working precision from
  one mode scan over g(0..M+3) and the tail integral over [M, inf): the
  oracle of the package's float64 `lifshitz.free_energy`;
  `free_energy_and_delta_f`, F and dF from one shared integer-m pass
  (`_mode_pass`).
* `r_slope`, dR/dT at a grid point from a 3-point one-sided stencil on
  the sweep records: the reference of the records' own closed-form
  `dR_dT`, and criterion 4's slope.
* `fit_coefficients`, the coefficient fit's least-squares solve at the
  working precision (mpmath `svd_r` rank test, `qr_solve`): the oracle of
  the package's float64 `diagnostics.fit_expansion`.

All routines work at the current mpmath precision.  The scans take their
cut-off M from `lifshitz._truncation_m`, so a test that patches it there
raises the oracle's M.  Their x-order is the system's `QuadratureSpec.nx`;
their m- and y-orders are the oracle's own, NM_UNIT and NM_GEO.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

import mpmath
from mpmath import mp, mpf
from mpmath.libmp import (fone, fzero, mpf_add, mpf_div, mpf_exp, mpf_log, mpf_mul,
                          mpf_neg, mpf_sqrt, mpf_sub, mpf_sum, round_nearest)

from casimir_lowt import lifshitz
from casimir_lowt.constants import alpha_param, mp_constants
from casimir_lowt.dielectric import PermittivityMode, permittivity
from casimir_lowt.lifshitz import QuadratureSpec

# The oracle's own m- and y-orders, whatever the system's QuadratureSpec
# (which sets only its x-order): the program's orders do not carry the
# reference down with them.  96 nodes on the sqrt(m) head panel resolve
# g's m^2 ln m head, where 48 left about 1e-17 of dF.
NM_UNIT = 96
NM_GEO = 24


class CancellationError(ArithmeticError):
    """The scan's sum and m-integral cancel too many digits at the working
    precision; raise it."""


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


def gl_panel(f, a, b, nodes):
    """integral_a^b f, single Gauss-Legendre panel."""
    return _gl_panels(lambda m: (f(m),), a, b, nodes)[0]


# --- endpoint-series constants: Bernoulli tables, Levin and Borel ------------

class SummationError(ValueError):
    """Raised for invalid input to a series summation routine."""


def bernoulli_b2n(n: int) -> Fraction:
    """Exact Bernoulli number B_{2n} (B_2 = 1/6, B_4 = -1/30, ...)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    p, q = mpmath.bernfrac(2 * n)
    return Fraction(int(p), int(q))


def half_power_derivative(n: int) -> Fraction:
    """(2n-1)-th derivative of m^(3/2) at m = 1, for n >= 2.

    Closed form: -3 (4n-7)! / (2^(4n-5) (2n-4)!).
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    return Fraction(-3 * factorial(4 * n - 7), 2 ** (4 * n - 5) * factorial(2 * n - 4))


def log_power_derivative(n: int) -> int:
    """(2n-1)-th derivative of m^2 ln m at m = 1, for n >= 2: 2 (2n-4)!."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return 2 * factorial(2 * n - 4)


def log_power_series_terms(count: int = 15) -> list:
    """Terms of the divergent series whose accelerated sum is psi_constant().

    First term collects the exactly-known contributions 1/9 - B_2/2; the
    rest are -B_{2n} * 2(2n-4)! / (2n)! for n = 2, 3, ...
    """
    if count < 2:
        raise ValueError("need at least 2 terms")
    terms = [mpf(1) / 9 - _b2n_mpf(1) / 2]
    for n in range(2, count + 1):
        terms.append(-_b2n_mpf(n) * log_power_derivative(n) / factorial(2 * n))
    return terms


def half_power_series_terms(count: int = 15) -> list:
    """Terms of the divergent series whose accelerated sum is phi_constant()."""
    if count < 2:
        raise ValueError("need at least 2 terms")
    terms = [mpf(1) / 2 - mpf(2) / 5 - 3 * _b2n_mpf(1) / 4]
    for n in range(2, count + 1):
        phi = half_power_derivative(n)
        terms.append(-_b2n_mpf(n) * mpf(phi.numerator) / phi.denominator / factorial(2 * n))
    return terms


def _b2n_mpf(n: int):
    b = bernoulli_b2n(n)
    return mpf(b.numerator) / b.denominator


@dataclass
class LevinResult:
    value: object
    error: object
    converged: bool


def levin_u_sum(terms, beta=1, tol=mpf("1e-11"), max_order: int = 30) -> LevinResult:
    """Levin u-transform limit of a (possibly divergent, alternating) series.

    Stops once two successive transform orders agree to `tol`; the reported
    error is the last inter-order difference.  Divergent input is fine as
    long as the transform stabilizes; otherwise the best estimate is
    returned with converged=False.
    """
    terms = [mpf(x) for x in terms]
    if len(terms) < 5:
        raise SummationError("need at least 5 terms")
    if any(not mpmath.isfinite(x) for x in terms):
        raise SummationError("non-finite term in series")

    partial = []
    acc = mpf(0)
    for x in terms:
        acc += x
        partial.append(acc)

    best = partial[-1]
    err = mpf("inf")
    prev = None
    kmax = min(len(terms) - 1, max_order)
    for k in range(1, kmax + 1):
        num = mpf(0)
        den = mpf(0)
        for j in range(k + 1):
            w = (-1) ** j * mpmath.binomial(k, j) * ((beta + j) / (beta + k)) ** (k - 1)
            omega = (beta + j) * terms[j]
            if omega == 0:
                omega = mpf(10) ** (-mp.dps - 20)
            num += w * partial[j] / omega
            den += w / omega
        if den == 0:
            continue
        est = num / den
        if prev is not None:
            diff = abs(est - prev)
            if diff < err:
                err = diff
                best = est
            if diff < tol:
                return LevinResult(est, diff, True)
        prev = est
    return LevinResult(best, err, False)


def borel_sum_psi_tilde():
    """Borel integral for the log-power Bernoulli tail sum.

    The generating function of B_{n+4}/(n+4)! is t^-4 [t/(e^t - 1) - 1 +
    t/2 - t^2/12]; the bracket is O(t^4) so the apparent divergence at the
    lower limit is illusory.  Below t = 0.1 the bracket is evaluated by its
    Taylor series to dodge catastrophic cancellation.
    """
    switch = mpf("0.1")

    def integrand(t):
        t = mpf(t)
        if t < switch:
            s = mpf(0)
            for n in range(4, 4 + 2 * _borel_series_terms(), 2):
                s += _b2n_mpf(n // 2) * t ** (n - 4) / factorial(n)
            return mpmath.exp(-t) * s
        return mpmath.exp(-t) / t ** 4 * (t / (mpmath.exp(t) - 1) - 1 + t / 2 - t * t / 12)

    return mpmath.quad(integrand, [0, switch, 1, 5, 20, 60])


def _borel_series_terms() -> int:
    # 8 even-order Taylor terms resolve the bracket to ~1e-26 at t = 0.1;
    # scale up with working precision.
    return max(8, mp.dps // 3)


def psi_from_borel():
    """Value of the log-power series via the Borel route: 1/36 - 2 * Borel tail."""
    return mpf(1) / 36 - 2 * borel_sum_psi_tilde()


# --- TE summand in closed form and by quadrature ---------------------------

def te_closed_form_g1(mu, eps_bar):
    """Exact leading TE summand (alpha^2 scaled out), any mu >= 0.

    chi^2 = mu + (eps_bar - 1) mu^2,  y0 = (sqrt(eps_bar mu + 1) - sqrt(mu))
    / (sqrt(eps_bar mu + 1) + sqrt(mu)):
    g = -(chi^2/8) [(1/y0 + y0) ln(1 - y0^2) - 2 y0 + 2 ln((1+y0)/(1-y0))].
    """
    mu = mpf(mu)
    eb = mpf(eps_bar)
    if mu < 0:
        raise ValueError("mu must be nonnegative")
    if mu == 0:
        return mpf(0)
    chi2 = mu + (eb - 1) * mu * mu
    root = mpmath.sqrt(eb * mu + 1)
    y0 = (root - mpmath.sqrt(mu)) / (root + mpmath.sqrt(mu))
    return -(chi2 / 8) * ((1 / y0 + y0) * mpmath.log(1 - y0 * y0) - 2 * y0
                          + 2 * mpmath.log((1 + y0) / (1 - y0)))


def te_closed_form_g2(mu, eps_bar, alpha):
    """Exact first conductivity correction to the TE summand.

    g = (alpha chi^3 / 8)(z0 - z0^3/3) with z0 = sqrt(y0).
    """
    mu = mpf(mu)
    eb = mpf(eps_bar)
    alpha = mpf(alpha)
    if mu < 0:
        raise ValueError("mu must be nonnegative")
    if mu == 0:
        return mpf(0)
    chi3 = (mu + (eb - 1) * mu * mu) ** mpf("1.5")
    root = mpmath.sqrt(eb * mu + 1)
    z0 = mpmath.sqrt((root - mpmath.sqrt(mu)) / (root + mpmath.sqrt(mu)))
    return alpha * chi3 / 8 * (z0 - z0 ** 3 / 3)


def te_g1_quadrature(mu, eps_bar, nodes=None):
    """Direct quadrature of the leading TE summand, oracle for the closed form.

    chi^2 integral_{mu/chi}^inf dx x ln(1 - (x - sqrt(x^2+1))^4).
    """
    mu = mpf(mu)
    eb = mpf(eps_bar)
    if mu <= 0:
        raise ValueError("mu must be positive")
    chi = mpmath.sqrt(mu + (eb - 1) * mu * mu)
    x0 = mu / chi
    nodes = nodes or gauss_legendre(48)
    f = lambda x: x * mpmath.log(1 - (x + mpmath.sqrt(x * x + 1)) ** -4)
    total = mpf(0)
    b = x0
    # integrand ~ x^{-6} ln at large x: geometric panels to a far cutoff
    while b < mpf("1e9"):
        nb = b * 4
        total += gl_panel(f, b, nb, nodes)
        b = nb
    # analytic tail: ln(1 - B) ~ -B ~ -1/(16 x^4), integral x * that
    total += -1 / (32 * b * b)
    return chi * chi * total


# --- the 33-digit g(m) kernel -----------------------------------------------------

def mpf_reflections(eps, zs, pols, prec: int) -> list:
    """For each pol in pols, the list of r_pol of one halfspace at
    imaginary frequency at each z in zs, on raw mpf tuples, with
    s = sqrt(1 + z) taken once per z for all of them.

    This is the form the kernel calls once per x-panel: mpmath.libmp
    arithmetic at `prec` bits, round-nearest.  z = (zeta/kappa)^2 (eps - 1)
    >= 0, so that s/kappa = sqrt(1 + z) with s^2 = kappa^2 + zeta^2 (eps - 1);
    factoring out kappa keeps the huge eps of the conductivity pole near
    zeta = 0 from overflowing.  r_TE is taken as -z/(1 + sqrt(1+z))^2, which
    equals (1 - sqrt(1+z))/(1 + sqrt(1+z)) without its cancellation at
    small z.  r_TE lies in [-1, 0], r_TM in [0, 1] for eps >= 1 and
    kappa >= zeta.
    """
    ss = [mpf_sqrt(mpf_add(z, fone, prec, round_nearest), prec, round_nearest) for z in zs]
    rs = []
    for pol in pols:
        if pol == "tm":
            rs.append([mpf_div(mpf_sub(eps, s, prec, round_nearest),
                               mpf_add(eps, s, prec, round_nearest), prec, round_nearest)
                       for s in ss])
        else:
            s1s = [mpf_add(s, fone, prec, round_nearest) for s in ss]
            rs.append([mpf_div(mpf_neg(z, prec, round_nearest),
                               mpf_mul(s1, s1, prec, round_nearest), prec, round_nearest)
                       for z, s1 in zip(zs, s1s)])
    return rs


def _x_horizon(prec: int) -> float:
    """(prec + 1) ln 2: beyond it r^2 e^-x < 2^-(prec+1) for |r| <= 1, so
    1 - r^2 e^-x rounds to 1 at prec bits and every integrand is exactly 0."""
    return (prec + 1) * math.log(2)


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


def _g_at_frequency(system, zeta_v, pols) -> tuple:
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


def _g_modes(system, m, pols) -> tuple:
    """g(m) for real m >= 0 of each polarization in pols, in that order,
    from one kernel pass (m = 0 analytic)."""
    m = mpf(m)
    if m < 0:
        raise ValueError("m must be nonnegative")
    if m == 0:
        return tuple(lifshitz._g_zero(system, pol) for pol in pols)
    k = mp_constants()
    zeta_m = 2 * mpmath.pi * m * k.k_B * mpf(system.temperature_T) / k.hbar
    return _g_at_frequency(system, zeta_m, pols)


def g_of_m(system, m, pol: str):
    """The per-mode integral g(m) of one polarization for real m >= 0."""
    return _g_modes(system, m, (pol,))[0]


# --- reflection and the m = 0 mode ---------------------------------------------

def reflection(eps, z, pol: str):
    """r_TE or r_TM at the working precision: `mpf_reflections` on mpf values."""
    return mp.make_mpf(mpf_reflections(mpf(eps)._mpf_, [mpf(z)._mpf_], (pol,), mp.prec)[0][0])


def a_mu(eps_bar, mu):
    """Squared zero-frequency-limit TM coefficient at reduced frequency mu.

    A_mu = [(1 + (eps_bar-1) mu) / (1 + (eps_bar+1) mu)]^2; equals 1 at
    mu = 0 and decreases to ((eps_bar-1)/(eps_bar+1))^2 as mu -> infinity.
    """
    eps_bar = mpf(eps_bar)
    mu = mpf(mu)
    if mu < 0:
        raise ValueError("mu must be nonnegative")
    if eps_bar < 1:
        raise ValueError("eps_bar must be >= 1")
    return ((1 + (eps_bar - 1) * mu) / (1 + (eps_bar + 1) * mu)) ** 2


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

    def f(xs, exs):
        return [[mpf_mul(x, mpf_log(mpf_sub(fone, mpf_mul(a, ex, prec, round_nearest),
                                            prec, round_nearest), prec, round_nearest),
                         prec, round_nearest) for x, ex in zip(xs, exs)]]
    return mp.make_mpf(_x_integral(f, mpmath.exp(mpf(-40)), QuadratureSpec().nx, 1)[0])


# --- the mode scan and its dF ------------------------------------------------------

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


def _scan(M: int, gp: list, integral) -> ModeScan:
    """The ModeScan of one polarization's g(0..M+3) and its m-integral."""
    d1, d3, d5 = lifshitz._endpoint_derivatives(gp[M - 3:M + 4])
    return ModeScan(M=M, sum_part=gp[0] / 2 + mpmath.fsum(gp[1:M]) + gp[M] / 2,
                    integral=integral, d1=d1, d3=d3, d5=d5)


def _m_integral(f, s, end) -> list:
    """integral_0^end f(m) dm of each component of the tuple-valued f, on
    the scan's m layout (which F(0) takes in y, in floats).

    On [0, s] the substitution m = v^2 turns the m^{3/2} and m^2 ln m
    endpoint terms into v^3 and v^4 ln v, mild enough for one high-order
    panel; from s on, geometric panels double up to `end`.
    """
    total = _gl_panels(lambda v: [2 * v * y for y in f(v * v)], mpf(0), mpmath.sqrt(s),
                       gauss_legendre(NM_UNIT))
    return _doubling_panels(f, total, s, end)


def _doubling_panels(f, total, b, end) -> list:
    """total plus integral_b^end f(m) dm of each component, panel by panel:
    NM_GEO-node panels double from b, the last one clipped at end."""
    geo = gauss_legendre(NM_GEO)
    b = mpf(b)
    while b < end:
        nb = min(2 * b, mpf(end))
        total = [t + p for t, p in zip(total, _gl_panels(f, b, nb, geo))]
        b = nb
    return total


def _mode_pass(system, pols, *integrals) -> tuple[list, int]:
    """One pass over g at m = 0..M+3 for every polarization in pols, then
    each m-integral in `integrals` (a function of the system, the counting
    g, M and pols), all at the working precision.  Returns ([{pol:
    ModeScan} per integral], the number of g(m) evaluations made); each
    evaluation is one kernel pass for all pols, and the scans of one pass
    share their integer-m values.
    """
    M = lifshitz._truncation_m(system)
    evals = 0

    def g(m):
        nonlocal evals
        evals += 1
        return _g_modes(system, m, pols)
    gv = [g(m) for m in range(M + 4)]
    scans = []
    for integral in integrals:
        integ = integral(system, g, M, pols)
        scans.append({pol: _scan(M, [v[i] for v in gv], integ[i]) for i, pol in enumerate(pols)})
    return scans, evals


def _head_integral(system, g, M, pols) -> list:
    """dF's m-integral over [0, M], for `_mode_pass`."""
    return _m_integral(g, 1, M)


def _tail_integral(system, g, M, pols) -> list:
    """F's m-integral over [M, inf): doubling panels up to the first M 2^k
    with x_min >= 60, for `_mode_pass`."""
    k = mp_constants()
    xm1 = 4 * mpmath.pi * mpf(system.separation_a) * k.k_B * mpf(system.temperature_T) / (k.hbar * k.c)
    end = mpf(M)
    while xm1 * end < 60:
        end *= 2
    return _doubling_panels(g, [mpf(0)] * len(pols), M, end)


def _mode_scans(system, pols) -> tuple[dict, int]:
    """dF's pass over the m nodes serving every polarization in pols: g at
    m = 0..M+3, then the m-integral over [0, M], all at the working
    precision.  Returns ({pol: ModeScan}, the number of g(m) evaluations
    made); each evaluation is one kernel pass for all pols.
    """
    (scans,), evals = _mode_pass(system, pols, _head_integral)
    return scans, evals


def mode_scan(system, pol: str) -> ModeScan:
    """The scan behind one polarization's dF: its view of `_mode_scans`."""
    return _mode_scans(system, (pol,))[0][pol]


def _prefactor(system):
    """k_B T / (8 pi a^2), J/m^2 per unit of g."""
    a = mpf(system.separation_a)
    return mp_constants().k_B * mpf(system.temperature_T) / (8 * mpmath.pi * a * a)


def _checked_delta_gamma(pol: str, scan: ModeScan):
    """The scan's delta_gamma, or the CancellationError of `delta_f`."""
    dg = scan.delta_gamma
    guard = scan.cancellation_guard
    if dg != 0 and guard * mpf(10) ** (3 - mp.dps) > abs(dg) * mpf("1e-3"):
        raise CancellationError(f"{pol}: ~{mpmath.nstr(guard / abs(dg), 3)}x cancellation at "
                                f"{mp.dps} digits; raise the working precision")
    return dg


def delta_f(system):
    """{pol: dF} in J/m^2 of every polarization of the system from one
    joint mode scan at the working precision: its sum minus the m-integral
    over [0, M], with the endpoint correction at M (the ideal metal too,
    whose g is in closed form).  CancellationError when cancellation leaves
    fewer than ~3 trustworthy digits at the current precision."""
    scans, _ = _mode_scans(system, system.polarization.modes())
    pref = _prefactor(system)
    return {pol: pref * _checked_delta_gamma(pol, scan) for pol, scan in scans.items()}


# --- F(0) at the working precision -----------------------------------------------

def zero_temperature_energies(system):
    """{pol: F(0)} in J/m^2 from the mode scan's kernel `_g_at_frequency`:
    hbar c / (32 pi^2 a^3) integral_0^60 g(y) dy at y = 2 a zeta / c, on
    `_m_integral`'s layout with its first panel ending at the conductivity
    knee y = min(alpha, 1) (y = 1 without conductivity), in one pass over
    the y nodes for every polarization of the system."""
    k = mp_constants()
    a = mpf(system.separation_a)
    mat = system.material
    knee = mpf(1)
    if mat.mode is not PermittivityMode.IDEAL_METAL and mat.four_pi_sigma > 0:
        knee = min(alpha_param(a, mat.four_pi_sigma), knee)
    pols = system.polarization.modes()
    pref = k.hbar * k.c / (32 * mpmath.pi ** 2 * a ** 3)
    integrals = _m_integral(
        lambda y: _g_at_frequency(system, y * k.c / (2 * a), pols),
        knee, 60)
    return {pol: pref * integral for pol, integral in zip(pols, integrals)}


# --- F at the working precision ---------------------------------------------------

def free_energy_scans(system, pols):
    """({pol: ModeScan}, g evaluations) of F's mode scan at the working
    precision: g at m = 0..M+3 from the scan's kernel (`_g_modes`), with
    `integral` the tail over [M, inf), on doubling panels up to the first
    M 2^k with x_min >= 60."""
    (scans,), evals = _mode_pass(system, pols, _tail_integral)
    return scans, evals


def endpoint_sum(scan):
    """sum'_{m>=0} g - integral_M^inf g dm of one scan."""
    return scan.sum_part - scan.d1 / 12 + scan.d3 / 720 - scan.d5 / 30240


def _energy(pref, scan):
    """F of one polarization from its F scan."""
    return pref * (endpoint_sum(scan) + scan.integral)


def free_energy(system):
    """{pol: F} in J/m^2 at the working precision: the prefactor times the
    endpoint-corrected sum plus the tail integral of `free_energy_scans`."""
    scans, _ = free_energy_scans(system, system.polarization.modes())
    pref = _prefactor(system)
    return {pol: _energy(pref, scan) for pol, scan in scans.items()}


def free_energy_and_delta_f(system):
    """({pol: F}, {pol: dF}) of `free_energy` and `delta_f` from one
    integer-m pass: the two scans share g(0..M+3) and differ only in their
    m-integrals."""
    pols = system.polarization.modes()
    (f_scans, df_scans), _ = _mode_pass(system, pols, _tail_integral, _head_integral)
    pref = _prefactor(system)
    return ({pol: _energy(pref, scan) for pol, scan in f_scans.items()},
            {pol: pref * _checked_delta_gamma(pol, scan) for pol, scan in df_scans.items()})


# --- the R diagnostic's slope by stencil -------------------------------------------

def r_slope(records, index: int = 0):
    """3-point one-sided slope dR/dT at the grid point `index`."""
    recs = list(records)
    if len(recs) < 3:
        raise ValueError("need at least 3 records")
    if index < 0:
        raise ValueError(f"index must be >= 0, got {index}")
    if index > len(recs) - 3:
        raise ValueError("index too close to the end of the grid")
    r = [recs[index + i].R for i in range(3)]
    t = [mpf(recs[index + i].T) for i in range(3)]
    if any(v is None for v in r):
        raise ValueError("R undefined at a stencil point")
    # quadratic through three (possibly non-uniform) points, derivative at t0
    h1, h2 = t[1] - t[0], t[2] - t[0]
    return (r[1] * h2 * h2 - r[2] * h1 * h1 - r[0] * (h2 * h2 - h1 * h1)) / (h1 * h2 * (h2 - h1))


# --- the coefficient fit at the working precision --------------------------------

def fit_coefficients(records, extra_powers) -> tuple:
    """(D, D1) of `diagnostics.fit_expansion` on the same rows, solved at
    the working precision: the rank counted on the singular values as
    numpy's lstsq counts it, then mpmath's `qr_solve`."""
    T = [mpf(float(r.T)) for r in records]
    y = [abs(mpf(float(r.dF_num))) for r in records]
    powers = [0.0, 1.0] + [float(p) for p in extra_powers]
    scale = max(T)
    A = mpmath.matrix([[(t / scale) ** p / (v / t ** 2) for p in powers] for t, v in zip(T, y)])
    s = mpmath.svd_r(A, compute_uv=False)
    if sum(sv > max(s) * max(A.rows, A.cols) * mpf(2) ** -52 for sv in s) < len(powers):
        raise ValueError("ill-conditioned fit")
    coef = mpmath.qr_solve(A, mpmath.ones(A.rows, 1))[0]
    return coef[0], -coef[1] / (coef[0] * scale)
