"""Reference routes that the package itself does not run, kept as oracles
for the tests.

* The endpoint-series constants by two routes independent of their closed
  forms (`asymptotics.psi_constant`, `asymptotics.phi_constant`): a Levin
  u-transform of the raw divergent Bernoulli-weighted terms, and (for the
  log-power series) a Borel integral.
* The exact leading TE summand and its first conductivity correction in
  closed form, and a direct quadrature of the former.
* `reflection` on mpf values, over the kernel's own `mpf_reflections`, and
  the squared zero-frequency TM coefficient `a_mu`.
* `constant_a_integral`, the kernel's x-panel loop on a constant
  reflection, against the analytic -Li_3 of the m = 0 mode.
* `gl_panel`, one Gauss-Legendre panel on mpf values: the arithmetic that
  the kernel's raw x-panel loop reproduces bit for bit.
* `zero_temperature_energies`, F(0) per polarization as the y-integral of
  the mode scan's kernel at the working precision, on the scan's m layout:
  the oracle of the package's float64 F(0).
* `free_energy_scans` and `free_energy`, F at the working precision from
  one mode scan over g(0..M+3) and the tail integral over [M, inf): the
  oracle of the package's float64 `lifshitz.free_energy`.

All routines work at the current mpmath precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

import mpmath
from mpmath import mp, mpf
from mpmath.libmp import fone, mpf_log, mpf_mul, mpf_sub, round_nearest

from casimir_lowt import lifshitz
from casimir_lowt.constants import alpha_param, mp_constants
from casimir_lowt.dielectric import PermittivityMode, mpf_reflections
from casimir_lowt.lifshitz import QuadratureSpec, gauss_legendre


def gl_panel(f, a, b, nodes):
    """integral_a^b f, single Gauss-Legendre panel."""
    return lifshitz._gl_panels(lambda m: (f(m),), a, b, nodes)[0]


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
    return mp.make_mpf(lifshitz._x_integral(f, mpmath.exp(mpf(-40)), QuadratureSpec().nx, 1)[0])


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
    integrals = lifshitz._m_integral(
        lambda y: lifshitz._g_at_frequency(system, y * k.c / (2 * a), pols),
        knee, 60, system.quadrature)
    return {pol: pref * integral for pol, integral in zip(pols, integrals)}


# --- F at the working precision ---------------------------------------------------

def free_energy_scans(system, pols):
    """({pol: ModeScan}, g evaluations) of F's mode scan at the working
    precision: g at m = 0..M+3 from the scan's kernel (`_g_modes`), with
    `integral` the tail over [M, inf), on doubling panels up to the first
    M 2^k with x_min >= 60."""
    M = lifshitz._truncation_m(system)
    evals = 0

    def g(m):
        nonlocal evals
        evals += 1
        return lifshitz._g_modes(system, m, pols)
    gv = [g(m) for m in range(M + 4)]
    k = mp_constants()
    xm1 = 4 * mpmath.pi * mpf(system.separation_a) * k.k_B * mpf(system.temperature_T) / (k.hbar * k.c)
    end = mpf(M)
    while xm1 * end < 60:
        end *= 2
    integ = lifshitz._doubling_panels(g, [mpf(0)] * len(pols), M, end, system.quadrature)
    return {pol: lifshitz._scan(M, [v[i] for v in gv], integ[i])
            for i, pol in enumerate(pols)}, evals


def endpoint_sum(scan):
    """sum'_{m>=0} g - integral_M^inf g dm of one scan."""
    return scan.sum_part - scan.d1 / 12 + scan.d3 / 720 - scan.d5 / 30240


def free_energy(system):
    """{pol: F} in J/m^2 at the working precision: the prefactor times the
    endpoint-corrected sum plus the tail integral of `free_energy_scans`."""
    scans, _ = free_energy_scans(system, system.polarization.modes())
    pref = lifshitz._prefactor(system)
    return {pol: pref * (endpoint_sum(scan) + scan.integral) for pol, scan in scans.items()}
