"""Closed-form low-temperature expansions of the thermal correction.

The sum-minus-integral difference for a summand with small-m behaviour

    g(m) ~ c0 + c1 m + c_{3/2} m^{3/2} + c_{2l} m^2 ln m + c2 m^2

is  Gamma = -c1/12 + Psi c_{2l} + Phi c_{3/2} + ...,  where the c0 and c2
contributions cancel exactly between the half-weighted sum and the
integral.  Everything SI-facing below is produced by feeding the
polarization-specific coefficients through this one formula, so the
published-style SI coefficients are derived, not hard-coded.

With t = 2 pi k_B T / (hbar 4 pi sigma) and alpha = 2 a (4 pi sigma) / c:

    TM: c1 = 2 pi^2 t / 3,        c_{2l} = 8 t^2
    TE: c1 = -t (2 ln 2 - 1)/4,   c_{2l} = -t^2/4,  c_{3/2} = alpha t^{3/2}/12
        (TE summand carries an overall alpha^2)
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath
from mpmath import mpf

from .constants import mp_constants, alpha_param
from .special import phi_constant, polylog, psi_constant, riemann_zeta


class ValidityWarning(UserWarning):
    """Emitted when inputs leave the small-t / small-alpha regime."""


@dataclass(frozen=True)
class SmallMExpansion:
    """g(m) ~ c0 + c1 m + c_3_2 m^{3/2} + c_2l m^2 ln m + c2 m^2 (m -> 0)."""
    c0: object = 0
    c1: object = 0
    c_3_2: object = 0
    c_2l: object = 0
    c2: object = 0
    higher: dict = field(default_factory=dict, compare=False)


@dataclass(frozen=True)
class AsymptoticTerm:
    power_of_T: Fraction
    coefficient: object        # J / (m^2 K^power)
    source: str                # TM_I | TM_delta | TE_I | TE_II | LinearAnomaly


@dataclass(frozen=True)
class AsymptoticResult:
    terms: tuple

    def evaluate(self, temperature_k):
        T = mpf(temperature_k)
        return mpmath.fsum(
            t.coefficient * T ** (mpf(t.power_of_T.numerator) / t.power_of_T.denominator)
            for t in self.terms)

    def coefficient(self, power) -> object:
        p = Fraction(power)
        return mpmath.fsum(t.coefficient for t in self.terms if t.power_of_T == p)

    def as_records(self) -> list:
        return [{"power_of_T": f"{t.power_of_T}", "coefficient": float(t.coefficient),
                 "source": t.source} for t in self.terms]


def em_gamma(exp: SmallMExpansion):
    """Sum-minus-integral value of a small-m expansion (c0, c2 cancel)."""
    return (-mpf(exp.c1) / 12 + psi_constant() * mpf(exp.c_2l)
            + phi_constant() * mpf(exp.c_3_2))


def _guard(t=None, alpha=None) -> None:
    if t is not None and t > mpf("0.1"):
        warnings.warn(f"t = {mpmath.nstr(mpf(t), 4)} > 0.1: outside the "
                      "low-temperature expansion regime", ValidityWarning, stacklevel=3)
    if alpha is not None and alpha > mpf("0.1"):
        warnings.warn(f"alpha = {mpmath.nstr(mpf(alpha), 4)} > 0.1: outside the "
                      "thin-conductivity regime", ValidityWarning, stacklevel=3)


def tm_small_m_expansion(eps_bar, t) -> SmallMExpansion:
    """TM summand coefficients; eps_bar enters only the (unused) c2."""
    t = mpf(t)
    eb = mpf(eps_bar)
    if t <= 0:
        raise ValueError("t must be positive")
    if eb < 1:
        raise ValueError("eps_bar must be >= 1")
    _guard(t=t)
    c2 = 8 * t * t * mpmath.log(4 * t) - 2 * t * t * (eb * mpmath.pi ** 2 / 3 + 4) - 4 * t * t
    return SmallMExpansion(c1=2 * mpmath.pi ** 2 * t / 3, c_2l=8 * t * t, c2=c2)


def te_g1_expansion(eps_bar, t) -> SmallMExpansion:
    """Leading (alpha^2-scaled) TE summand coefficients."""
    t = mpf(t)
    eb = mpf(eps_bar)
    if t <= 0:
        raise ValueError("t must be positive")
    _guard(t=t)
    l2 = 2 * mpmath.log(2) - 1
    c2 = -(t * t / 4) * (mpmath.log(4 * t) + eb * l2)
    return SmallMExpansion(c1=-t * l2 / 4, c_2l=-t * t / 4, c2=c2,
                           higher={"m^5/2": mpf(2) / 3 * t ** mpf("2.5")})


def te_g2_expansion(eps_bar, t, alpha) -> SmallMExpansion:
    """First conductivity correction to the TE summand: the m^{3/2} term."""
    t = mpf(t)
    alpha = mpf(alpha)
    if t <= 0:
        raise ValueError("t must be positive")
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    _guard(t=t, alpha=alpha)
    return SmallMExpansion(
        c_3_2=alpha * t ** mpf("1.5") / 12,
        higher={"m^5/2": -alpha / 8 * (2 - mpf(eps_bar)) * t ** mpf("2.5")})


def delta_f_tm(sigma_si_over_eps0, a, T) -> AsymptoticResult:
    """Two-term TM thermal correction, terms separated by power of T.

    Leading T^2 piece from c1, next-order T^3 piece from c_{2l}; evaluate()
    returns J/m^2 at temperature T.

    The pair is asymptotic only where the next term is small against the
    T^3 one, and that term is driven by eps_bar.  Writing the exact
    correction as |dF| = D T^2 (1 - D1 T - kappa T^2 ...), kappa is about
    17-20 K^-2 for si-paper (eps_bar = 11.67) against 0.72 K^-2 for
    eps_bar = 1, so kappa T^2 equals D1 T near 20 mK: for si-paper the
    two-term expansion is asymptotic only below about 20 mK (t ~ 0.016).
    The t > 0.1 ValidityWarning does not flag this.
    """
    if sigma_si_over_eps0 <= 0:
        raise ValueError("TM asymptotics require sigma > 0 (expression diverges)")
    if a <= 0:
        raise ValueError("separation must be positive")
    if T < 0:
        raise ValueError("temperature must be nonnegative")
    k = mp_constants()
    tau = 2 * mpmath.pi * k.k_B / (k.hbar * mpf(sigma_si_over_eps0))  # t per kelvin
    if T > 0:
        _guard(t=tau * mpf(T))
    pref1 = k.k_B / (8 * mpmath.pi * mpf(a) ** 2)  # prefactor per kelvin
    terms = (
        AsymptoticTerm(Fraction(2), pref1 * (-(2 * mpmath.pi ** 2 * tau / 3) / 12), "TM_I"),
        AsymptoticTerm(Fraction(3), pref1 * psi_constant() * 8 * tau * tau, "TM_I"),
    )
    return AsymptoticResult(terms)


def delta_f_tm_correction(T) -> AsymptoticResult:
    """Conductivity-independent T^3 piece of the TM correction.

    Not part of the diagnostic reference curve (kept separate on purpose);
    its size relative to the T^3 term of delta_f_tm is
    tm_correction_ratio().
    """
    if T < 0:
        raise ValueError("temperature must be nonnegative")
    k = mp_constants()
    coeff = riemann_zeta(3) * k.k_B ** 3 / (4 * mpmath.pi * k.hbar ** 2 * k.c ** 2)
    return AsymptoticResult((AsymptoticTerm(Fraction(3), coeff, "TM_delta"),))


def tm_correction_ratio(sigma_si_over_eps0, a):
    """delta_f_tm_correction / (T^3 term of delta_f_tm) = (sigma a)^2 / (2c)^2."""
    k = mp_constants()
    return (mpf(sigma_si_over_eps0) * mpf(a)) ** 2 / (4 * k.c ** 2)


def delta_f_te(sigma_si_over_eps0, a, T, eps_bar=1.0) -> AsymptoticResult:
    """TE thermal correction: +T^2, -T^{5/2} and -T^3 terms.

    All three coefficients flow from em_gamma weights applied to the TE
    small-m coefficients; the T^2 and T^{5/2} pieces vanish with sigma,
    leaving the metal-like T^3 term.
    """
    if a <= 0:
        raise ValueError("separation must be positive")
    if T < 0:
        raise ValueError("temperature must be nonnegative")
    if sigma_si_over_eps0 < 0:
        raise ValueError("conductivity must be nonnegative")
    k = mp_constants()
    sr = mpf(sigma_si_over_eps0)
    tau = 2 * mpmath.pi * k.k_B / k.hbar  # t per kelvin, sigma factored out below
    pref1 = k.k_B / (8 * mpmath.pi * mpf(a) ** 2)
    l2 = 2 * mpmath.log(2) - 1
    if sr > 0:
        alpha = alpha_param(a, sr)
        tau_s = tau / sr
        if T > 0:
            _guard(t=tau_s * mpf(T), alpha=alpha)
        a2p = pref1 * alpha ** 2
        terms = (
            AsymptoticTerm(Fraction(2), a2p * (tau_s * l2 / 4) / 12, "TE_I"),
            AsymptoticTerm(Fraction(5, 2),
                           a2p * phi_constant() * alpha * tau_s ** mpf("1.5") / 12, "TE_II"),
            AsymptoticTerm(Fraction(3), a2p * psi_constant() * (-tau_s ** 2 / 4), "TE_I"),
        )
    else:
        # sigma -> 0: alpha^2 t^2 and alpha^3 t^{3/2} both vanish; the T^3
        # term is sigma-free (alpha^2 t^2 / sigma-cancellation):
        coeff3 = -riemann_zeta(3) * k.k_B ** 3 / (8 * mpmath.pi * k.hbar ** 2 * k.c ** 2)
        terms = (AsymptoticTerm(Fraction(3), coeff3, "TE_I"),)
    return AsymptoticResult(terms)


def linear_anomaly(eps_bar, a, T) -> dict:
    """Linear-in-T free energy and residual entropy of the sigma = 0 plate.

    The half-weighted zero-frequency TM mode contributes
    F = k_B T [Li_3(A0) - zeta(3)] / (16 pi a^2) relative to the ideal
    limit, hence a nonzero entropy at T = 0 -- the hallmark of taking
    sigma -> 0 before T -> 0.
    """
    eb = mpf(eps_bar)
    if eb < 1:
        raise ValueError("eps_bar must be >= 1")
    if a <= 0:
        raise ValueError("separation must be positive")
    k = mp_constants()
    a0 = ((eb - 1) / (eb + 1)) ** 2
    li3 = riemann_zeta(3) if a0 == 1 else polylog(3, a0)
    bracket = li3 - riemann_zeta(3)
    denom = 16 * mpmath.pi * mpf(a) ** 2
    return {
        "free_energy": k.k_B * mpf(T) * bracket / denom,
        "entropy": -k.k_B * bracket / denom,
        "a0": a0,
    }


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
    from .lifshitz import gauss_legendre, gl_panel  # local import: avoid cycle
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
