"""Closed-form low-temperature expansions of the thermal correction.

The sum-minus-integral difference for a summand with small-m behaviour

    g(m) ~ c0 + c1 m + c_{3/2} m^{3/2} + c_{2l} m^2 ln m + c2 m^2

is  Gamma = -c1/12 + Phi c_{3/2} + Psi c_{2l} + ...,  where the c0 and c2
contributions cancel exactly between the half-weighted sum and the
integral, Psi = zeta(3)/(4 pi^2) and Phi = zeta(-3/2).  `em_weights` holds
these weights once; `em_gamma` is their sum, and `delta_f_tm` and
`delta_f_te` build their SI coefficients by applying them to the
polarization-specific coefficients; two are written by hand instead:
`delta_f_tm_correction`'s zeta(3) k_B^3 / (4 pi hbar^2 c^2) and
`delta_f_te`'s sigma = 0 T^3 term, -zeta(3) k_B^3 / (8 pi hbar^2 c^2).

With t = 2 pi k_B T / (hbar 4 pi sigma) and alpha = 2 a (4 pi sigma) / c:

    TM: c1 = 2 pi^2 t / 3,        c_{2l} = 8 t^2
    TE: c1 = -t (2 ln 2 - 1)/4,   c_{2l} = -t^2/4,  c_{3/2} = alpha t^{3/2}/12
        (TE summand carries an overall alpha^2)

Taken at t per kelvin and times the prefactor k_B T / (8 pi a^2), c1 (~t)
gives the T^2 coefficient, c_{3/2} (~t^{3/2}) the T^{5/2} one and c_{2l}
(~t^2) the T^3 one.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath import mp, mpf

from .constants import alpha_param, mp_constants, reduced_temperature


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

    def derivative(self, temperature_k):
        """d/dT of `evaluate`, term by term, J/(K m^2)."""
        T = mpf(temperature_k)
        ps = [mpf(t.power_of_T.numerator) / t.power_of_T.denominator for t in self.terms]
        return mpmath.fsum(t.coefficient * p * T ** (p - 1) for t, p in zip(self.terms, ps))

    def coefficient(self, power) -> object:
        p = Fraction(power)
        return mpmath.fsum(t.coefficient for t in self.terms if t.power_of_T == p)

    def as_records(self) -> list:
        return [{"power_of_T": f"{t.power_of_T}", "coefficient": float(t.coefficient),
                 "source": t.source} for t in self.terms]


def psi_constant():
    """Psi = zeta(3) / (4 pi^2), the weight of the m^2 ln m coefficient."""
    return mpmath.zeta(3) / (4 * mpmath.pi ** 2)


def phi_constant():
    """Phi = zeta(-3/2), the weight of the m^{3/2} coefficient."""
    return mpmath.zeta(mpf(-3) / 2)


def em_weights(exp: SmallMExpansion) -> dict:
    """Sum-minus-integral contribution of each small-m coefficient, keyed by
    the power of T it carries once t is taken per kelvin: c1 -> T^2,
    c_{3/2} -> T^{5/2}, c_{2l} -> T^3.  c0 and c2 cancel."""
    return {Fraction(2): -mpf(exp.c1) / 12,
            Fraction(5, 2): phi_constant() * mpf(exp.c_3_2),
            Fraction(3): psi_constant() * mpf(exp.c_2l)}


def em_gamma(exp: SmallMExpansion):
    """Sum-minus-integral value of a small-m expansion: the sum of its weights."""
    return mpmath.fsum(em_weights(exp).values())


def _em_terms(prefactor, *parts) -> AsymptoticResult:
    """prefactor times the em weights of each (expansion at t per kelvin,
    source) part, one term per nonzero weight, in ascending power of T."""
    terms = [AsymptoticTerm(power, prefactor * w, source)
             for exp, source in parts for power, w in em_weights(exp).items() if w != 0]
    return AsymptoticResult(tuple(sorted(terms, key=lambda term: term.power_of_T)))


def _prefactor_per_kelvin(a):
    """k_B / (8 pi a^2): the prefactor k_B T / (8 pi a^2) of Gamma, per kelvin."""
    return mp_constants().k_B / (8 * mpmath.pi * mpf(a) ** 2)


T_REGIME_MAX = mpf("0.1")   # the largest reduced temperature t the expansions are made for


def _guard(t=None, alpha=None) -> None:
    if t is not None and t > T_REGIME_MAX:
        warnings.warn(f"t = {mpmath.nstr(mpf(t), 4)} > 0.1: outside the "
                      "low-temperature expansion regime", ValidityWarning, stacklevel=3)
    if alpha is not None and alpha > mpf("0.1"):
        warnings.warn(f"alpha = {mpmath.nstr(mpf(alpha), 4)} > 0.1: outside the "
                      "thin-conductivity regime", ValidityWarning, stacklevel=3)


def tm_small_m_expansion(eps_bar, t) -> SmallMExpansion:
    """TM summand coefficients; eps_bar enters only the (cancelling) c2."""
    t = mpf(t)
    eb = mpf(eps_bar)
    if t <= 0:
        raise ValueError("t must be positive")
    if eb < 1:
        raise ValueError("eps_bar must be >= 1")
    c2 = 8 * t * t * mpmath.log(4 * t) - 2 * t * t * (eb * mpmath.pi ** 2 / 3 + 4) - 4 * t * t
    return SmallMExpansion(c1=2 * mpmath.pi ** 2 * t / 3, c_2l=8 * t * t, c2=c2)


def te_g1_expansion(eps_bar, t) -> SmallMExpansion:
    """Leading (alpha^2-scaled) TE summand coefficients."""
    t = mpf(t)
    eb = mpf(eps_bar)
    if t <= 0:
        raise ValueError("t must be positive")
    l2 = 2 * mpmath.log(2) - 1
    c2 = -(t * t / 4) * (mpmath.log(4 * t) + eb * l2)
    return SmallMExpansion(c1=-t * l2 / 4, c_2l=-t * t / 4, c2=c2)


def te_g2_expansion(eps_bar, t, alpha) -> SmallMExpansion:
    """First conductivity correction to the TE summand: the m^{3/2} term.

    eps_bar enters only from the m^{5/2} term on, which is not kept."""
    t = mpf(t)
    alpha = mpf(alpha)
    if t <= 0:
        raise ValueError("t must be positive")
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    return SmallMExpansion(c_3_2=alpha * t ** mpf("1.5") / 12)


def delta_f_tm(sigma_si_over_eps0, a, T) -> AsymptoticResult:
    """Two-term TM thermal correction, terms separated by power of T.

    The em weights of `tm_small_m_expansion` at t per kelvin: the leading
    T^2 piece from c1, the next-order T^3 piece from c_{2l}; evaluate()
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
    tau = reduced_temperature(1, sigma_si_over_eps0)  # t per kelvin
    if T > 0:
        _guard(t=tau * mpf(T))
    # eps_bar enters only the cancelling c2, so any admissible value will do
    return _em_terms(_prefactor_per_kelvin(a), (tm_small_m_expansion(1, tau), "TM_I"))


def delta_f_tm_correction(T) -> AsymptoticResult:
    """Conductivity-independent T^3 piece of the TM correction.

    Not part of the diagnostic reference curve (kept separate on purpose);
    its size relative to the T^3 term of delta_f_tm is
    tm_correction_ratio().
    """
    if T < 0:
        raise ValueError("temperature must be nonnegative")
    k = mp_constants()
    coeff = mpmath.zeta(3) * k.k_B ** 3 / (4 * mpmath.pi * k.hbar ** 2 * k.c ** 2)
    return AsymptoticResult((AsymptoticTerm(Fraction(3), coeff, "TM_delta"),))


def tm_correction_ratio(sigma_si_over_eps0, a):
    """delta_f_tm_correction / (T^3 term of delta_f_tm) = (sigma a)^2 / (2c)^2."""
    k = mp_constants()
    return (mpf(sigma_si_over_eps0) * mpf(a)) ** 2 / (4 * k.c ** 2)


def delta_f_te(sigma_si_over_eps0, a, T, eps_bar=1.0) -> AsymptoticResult:
    """TE thermal correction: +T^2, -T^{5/2} and -T^3 terms.

    The em weights of `te_g1_expansion` (T^2, T^3) and `te_g2_expansion`
    (T^{5/2}) at t per kelvin, times alpha^2; the T^2 and T^{5/2} pieces
    vanish with sigma, leaving the metal-like T^3 term.
    """
    if a <= 0:
        raise ValueError("separation must be positive")
    if T < 0:
        raise ValueError("temperature must be nonnegative")
    if sigma_si_over_eps0 < 0:
        raise ValueError("conductivity must be nonnegative")
    if sigma_si_over_eps0 == 0:
        # sigma -> 0: alpha^2 t^2 and alpha^3 t^{3/2} both vanish; the T^3
        # term is sigma-free (alpha^2 t^2 / sigma-cancellation):
        k = mp_constants()
        coeff3 = -mpmath.zeta(3) * k.k_B ** 3 / (8 * mpmath.pi * k.hbar ** 2 * k.c ** 2)
        return AsymptoticResult((AsymptoticTerm(Fraction(3), coeff3, "TE_I"),))
    alpha = alpha_param(a, sigma_si_over_eps0)
    tau = reduced_temperature(1, sigma_si_over_eps0)  # t per kelvin
    if T > 0:
        _guard(t=tau * mpf(T), alpha=alpha)
    return _em_terms(_prefactor_per_kelvin(a) * alpha ** 2,
                     (te_g1_expansion(eps_bar, tau), "TE_I"),
                     (te_g2_expansion(eps_bar, tau, alpha), "TE_II"))


IDEAL_METAL_TAU_MAX = mpf("0.15")   # the largest tau = 2 a k_B T / (hbar c) of Brown-Maclay


def ideal_metal(a, T):
    """(F(0), F(T) - F(0)) of ideal-metal plates, J/m^2, T >= 0: -pi^2 hbar c / (720 a^3)
    and Brown-Maclay's F(0) [45 zeta(3) tau^3 / pi^3 - tau^4], whose dropped e^{-2 pi/tau}
    terms are 5.0e-17 of it at IDEAL_METAL_TAU_MAX (6.5e-16 at 0.16).  Above it dF is F - F(0),
    F from `_ideal_metal_free_energy`: log10(F(0)/dF) = 2.3 digits cancel at 0.15, fewer above."""
    k = mp_constants()
    kT, a = k.k_B * mpf(T), mpf(a)
    tau = 2 * a * kT / (k.hbar * k.c)
    f0 = -mpmath.pi ** 2 * k.hbar * k.c / (720 * a ** 3)
    if tau > IDEAL_METAL_TAU_MAX:
        return f0, 2 * _ideal_metal_free_energy(a, kT, tau) - f0
    return (f0, -mpmath.zeta(3) * kT ** 3 / (2 * mpmath.pi * k.hbar ** 2 * k.c ** 2)
            + mpmath.pi ** 2 * a * kT ** 4 / (45 * k.hbar ** 3 * k.c ** 3))


def _ideal_metal_free_energy(a, kT, tau):
    """F per polarization of ideal plates, k_B T/(8 pi a^2) sum'_m G(m x) with x = 2 pi tau and
    G(y) = -sum_n (y/n^2 + 1/n^3) e^{-ny}, summed over m first: -[zeta(3)/2 + sum_n p/(1 - p)
    (1/n^3 + x/(n^2 (1 - p)))], p = e^{-nx}, up to the first term below mp.eps of zeta(3)/2."""
    x, head = 2 * mpmath.pi * tau, mpmath.zeta(3) / 2
    terms = [head]
    while terms[-1] >= mp.eps * head:
        n = len(terms)
        p = mpmath.exp(-n * x)
        terms.append(p / (1 - p) * (mpf(1) / n ** 3 + x / ((1 - p) * n ** 2)))
    return -kT / (8 * mpmath.pi * a ** 2) * mpmath.fsum(terms)


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
    bracket = mpmath.polylog(3, a0) - mpmath.zeta(3)
    denom = 16 * mpmath.pi * mpf(a) ** 2
    return {
        "free_energy": k.k_B * mpf(T) * bracket / denom,
        "entropy": -k.k_B * bracket / denom,
        "a0": a0,
    }
