"""Closed-form low-temperature expansions and their oracles.

Three layers of checks: (i) the sum-minus-integral weights applied to toy
expansions, (ii) SI-facing coefficients against frozen high-precision
values, (iii) the small-m coefficient sets against direct numerics of the
full summand.
"""

import warnings
from fractions import Fraction

import mpmath
import pytest
from mpmath import mpf

from casimir_lowt.asymptotics import (SmallMExpansion, ValidityWarning,
                                      delta_f_te, delta_f_tm,
                                      delta_f_tm_correction, em_gamma,
                                      linear_anomaly, phi_constant, psi_constant,
                                      te_g1_expansion, te_g2_expansion,
                                      tm_correction_ratio,
                                      tm_small_m_expansion)
from casimir_lowt.constants import alpha_param, mp_constants, reduced_temperature
from casimir_lowt.dielectric import SI_PAPER
from casimir_lowt.lifshitz import PlateSystem, Polarization, g_of_m
from oracles import a_mu, te_closed_form_g1, te_closed_form_g2, te_g1_quadrature


A_REF = 1e-6
SIGMA_REF = 1e12  # 4 pi sigma / eps0, s^-1


# --- the sum-minus-integral weights ------------------------------------------

def test_em_gamma_linear_term_only():
    assert em_gamma(SmallMExpansion(c1=1)) == -mpf(1) / 12


def test_em_gamma_half_power_weight():
    assert em_gamma(SmallMExpansion(c_3_2=1)) == phi_constant()


def test_em_gamma_constant_and_quadratic_cancel():
    assert em_gamma(SmallMExpansion(c0=7, c2=-3)) == 0


def test_em_gamma_tm_combination():
    t = mpf("0.01")
    got = em_gamma(tm_small_m_expansion(11.67, t))
    want = -mpmath.pi ** 2 * t / 18 + 8 * psi_constant() * t * t
    assert abs(got - want) < 1e-30


def test_tm_coefficients_independent_of_eps_bar():
    # eps_bar enters only the (cancelling) m^2 coefficient
    e1 = tm_small_m_expansion(2.0, 0.01)
    e2 = tm_small_m_expansion(100.0, 0.01)
    assert e1.c1 == e2.c1 and e1.c_2l == e2.c_2l
    assert e1.c2 != e2.c2
    assert em_gamma(e1) == em_gamma(e2)


def test_expansion_input_validation():
    with pytest.raises(ValueError):
        tm_small_m_expansion(11.67, 0)
    with pytest.raises(ValueError):
        tm_small_m_expansion(0.5, 0.01)
    with pytest.raises(ValueError):
        te_g1_expansion(11.67, -1)
    with pytest.raises(ValueError):
        te_g2_expansion(11.67, 0.01, -0.1)


# --- SI coefficients [frozen from 33-digit evaluation of the weights] --------

def test_tm_t2_coefficient():
    res = delta_f_tm(SIGMA_REF, A_REF, 0.0)
    c2 = res.coefficient(2)
    assert abs(c2 / mpf("-2.4777509624486278e-13") - 1) < 1e-12


def test_tm_first_correction_ratio():
    # dF ~ -C T^2 (1 - C1 T): C1 is the ratio of the two terms
    res = delta_f_tm(SIGMA_REF, A_REF, 0.0)
    c1 = -res.coefficient(3) / res.coefficient(2)
    assert abs(c1 / mpf("0.36543911213230329") - 1) < 1e-12


def test_te_t2_coefficient():
    res = delta_f_te(SIGMA_REF, A_REF, 0.0, eps_bar=11.67)
    assert abs(res.coefficient(2) / mpf("1.6185500367003915e-19") - 1) < 1e-12


def test_te_half_integer_coefficient():
    res = delta_f_te(SIGMA_REF, A_REF, 0.0, eps_bar=11.67)
    c52 = res.coefficient(Fraction(5, 2))
    assert abs(c52 / mpf("-2.584393373665225e-22") - 1) < 1e-12


def test_te_t3_coefficient():
    res = delta_f_te(SIGMA_REF, A_REF, 0.0, eps_bar=11.67)
    assert abs(res.coefficient(3) / mpf("-1.2593350408767634e-19") - 1) < 1e-12


def test_tm_evaluate_is_prefactor_times_gamma():
    # single source of truth: the SI result must equal prefactor * weights
    T = mpf("0.1")
    k = mp_constants()
    t = reduced_temperature(T, SIGMA_REF)
    direct = delta_f_tm(SIGMA_REF, A_REF, float(T)).evaluate(T)
    routed = k.k_B * T / (8 * mpmath.pi * mpf(A_REF) ** 2) * \
        em_gamma(tm_small_m_expansion(11.67, t))
    assert abs(direct / routed - 1) < 1e-25


def test_te_evaluate_is_prefactor_times_gamma():
    T = mpf("0.1")
    k = mp_constants()
    t = reduced_temperature(T, SIGMA_REF)
    alpha = alpha_param(A_REF, SIGMA_REF)
    comb = SmallMExpansion(
        c1=te_g1_expansion(11.67, t).c1,
        c_2l=te_g1_expansion(11.67, t).c_2l,
        c_3_2=te_g2_expansion(11.67, t, alpha).c_3_2)
    direct = delta_f_te(SIGMA_REF, A_REF, float(T), eps_bar=11.67).evaluate(T)
    routed = k.k_B * T / (8 * mpmath.pi * mpf(A_REF) ** 2) * alpha ** 2 * em_gamma(comb)
    assert abs(direct / routed - 1) < 1e-25


def test_sign_structure():
    T = mpf("0.05")
    tm = delta_f_tm(SIGMA_REF, A_REF, float(T))
    te = delta_f_te(SIGMA_REF, A_REF, float(T), eps_bar=11.67)
    assert tm.evaluate(T) < 0
    assert te.evaluate(T) > 0
    assert tm.coefficient(3) > 0         # reduces |dF^TM| as T grows
    assert te.coefficient(Fraction(5, 2)) < 0 and te.coefficient(3) < 0


def test_tm_conductivity_free_t3_piece():
    k = mp_constants()
    coeff = delta_f_tm_correction(0.0).coefficient(3)
    want = mpmath.zeta(3) * k.k_B ** 3 / (4 * mpmath.pi * k.hbar ** 2 * k.c ** 2)
    assert abs(coeff - want) == 0
    # the sigma-free TE T^3 coefficient is exactly -1/2 of it
    te0 = delta_f_te(0.0, A_REF, 0.0, eps_bar=11.67)
    assert abs(te0.coefficient(3) / coeff + mpf(1) / 2) < 1e-30


def test_tm_correction_is_negligible_for_reference_material():
    ratio = tm_correction_ratio(SIGMA_REF, A_REF)
    assert abs(ratio / mpf("2.7816e-6") - 1) < 1e-3


def test_te_sigma_zero_has_only_cubic_term():
    res = delta_f_te(0.0, A_REF, 0.0, eps_bar=11.67)
    assert len(res.terms) == 1
    assert res.terms[0].power_of_T == Fraction(3)
    assert res.coefficient(2) == 0


def test_validity_warnings():
    with pytest.warns(ValidityWarning):
        delta_f_tm(SIGMA_REF, A_REF, 1.0)  # t(1 K) = 0.82
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        delta_f_tm(SIGMA_REF, A_REF, 0.05)  # t = 0.04: quiet


def test_input_validation():
    with pytest.raises(ValueError):
        delta_f_tm(0.0, A_REF, 0.1)
    with pytest.raises(ValueError):
        delta_f_tm(SIGMA_REF, -1.0, 0.1)
    with pytest.raises(ValueError):
        delta_f_te(SIGMA_REF, A_REF, -0.1)
    with pytest.raises(ValueError):
        delta_f_te(-1.0, A_REF, 0.1)


def test_as_records_structure():
    recs = delta_f_te(SIGMA_REF, A_REF, 0.0, eps_bar=11.67).as_records()
    assert [r["power_of_T"] for r in recs] == ["2", "5/2", "3"]
    assert all(isinstance(r["coefficient"], float) for r in recs)


# --- linear anomaly of the sigma = 0 plate -----------------------------------

def test_linear_anomaly_reference_values():
    out = linear_anomaly(11.67, A_REF, 1.0)
    a0 = (mpf("10.67") / mpf("12.67")) ** 2
    assert abs(out["a0"] - a0) < 1e-15  # input eps_bar is a float literal
    k = mp_constants()
    want = (k.k_B * (mpmath.polylog(3, a0) - mpmath.zeta(3))
            / (16 * mpmath.pi * mpf(A_REF) ** 2))
    assert abs(out["free_energy"] - want) < abs(want) * 1e-15
    assert out["free_energy"] < 0
    assert out["entropy"] > 0  # residual entropy: third-law violation
    # S = -dF/dT, and F is linear in T
    assert abs(out["entropy"] * mpf(1.0) + out["free_energy"]) < abs(want) * 1e-25


def test_linear_anomaly_vanishes_for_ideal_limit():
    # Li_3 near 1 makes the bracket shrink like 1/eps_bar
    out = linear_anomaly(1e12, A_REF, 1.0)
    assert abs(out["entropy"]) < 1e-10 * abs(linear_anomaly(11.67, A_REF, 1.0)["entropy"])


def test_linear_anomaly_vacuum_plate():
    out = linear_anomaly(1.0, A_REF, 1.0)
    k = mp_constants()
    want = -k.k_B * mpmath.zeta(3) / (16 * mpmath.pi * mpf(A_REF) ** 2)
    assert abs(out["free_energy"] - want) < abs(want) * 1e-25


# --- closed forms vs direct numerics -----------------------------------------

@pytest.mark.parametrize("mu", ["1e-4", "1e-2", "0.1", "1"])
def test_te_closed_form_matches_quadrature(mu):
    cf = te_closed_form_g1(mpf(mu), 11.67)
    q = te_g1_quadrature(mpf(mu), 11.67)
    assert abs(cf / q - 1) < 1e-10


def test_te_closed_forms_at_zero():
    assert te_closed_form_g1(0, 11.67) == 0
    assert te_closed_form_g2(0, 11.67, 0.01) == 0


def tm_li2_expansion_check(mu, eps_bar):
    """(Li_2(1 - A_mu), leading expansion 4 mu - 4(eps_bar + 1) mu^2)."""
    mu = mpf(mu)
    eb = mpf(eps_bar)
    exact = mpmath.polylog(2, 1 - a_mu(eb, mu))
    series = 4 * mu - 4 * (eb + 1) * mu * mu
    return exact, series


@pytest.mark.parametrize("mu,tol", [("1e-5", 1e-7), ("1e-4", 1e-5)])
def test_tm_li2_expansion(mu, tol):
    exact, series = tm_li2_expansion_check(mpf(mu), 11.67)
    assert abs(exact / series - 1) < tol


@pytest.mark.parametrize("m,tol", [("1e-4", 1e-4), ("1e-3", 1e-4), ("1e-2", 1e-4)])
def test_tm_small_m_coefficients_against_full_summand(m, tol):
    # the full Matsubara summand minus its m = 0 value must reproduce
    # c1 m + c_2l m^2 ln m + c2 m^2 at small m
    t_target = mpf("1e-3")
    tau = reduced_temperature(1.0, SI_PAPER.four_pi_sigma)
    system = PlateSystem(A_REF, float(t_target / tau), SI_PAPER, Polarization.TM)
    exp = tm_small_m_expansion(SI_PAPER.eps_bar, t_target)
    m = mpf(m)
    pred = exp.c1 * m + exp.c_2l * m * m * mpmath.log(m) + exp.c2 * m * m
    actual = g_of_m(system, m, "tm") - g_of_m(system, 0, "tm")
    assert abs(actual / pred - 1) < tol


@pytest.mark.parametrize("m,tol", [("1e-3", 1e-5), ("1e-2", 1e-4), ("1", 3e-3)])
def test_te_closed_forms_against_full_summand(m, tol):
    system = PlateSystem(A_REF, 1.0, SI_PAPER, Polarization.TE)
    tau = reduced_temperature(1.0, SI_PAPER.four_pi_sigma)
    alpha = alpha_param(A_REF, SI_PAPER.four_pi_sigma)
    m = mpf(m)
    mu = m * tau
    pred = alpha ** 2 * (te_closed_form_g1(mu, SI_PAPER.eps_bar)
                         + te_closed_form_g2(mu, SI_PAPER.eps_bar, alpha))
    actual = g_of_m(system, m, "te")
    assert abs(actual / pred - 1) < tol
