"""Series acceleration, endpoint-series constants, polylog identities.

The two key constants are summed three independent ways (the closed forms
in `asymptotics`, the Levin and Borel routes in `oracles`) and pinned:

    Psi = zeta(3)/(4 pi^2) = 0.03044845705839...   (log-power series)
    Phi = zeta(-3/2)       = -0.02548520188983...  (half-power series)
"""

from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mpf

from casimir_lowt.asymptotics import phi_constant, psi_constant
from oracles import (SummationError, bernoulli_b2n, borel_sum_psi_tilde,
                     constant_a_integral, half_power_derivative, half_power_series_terms,
                     levin_u_sum, log_power_derivative, log_power_series_terms,
                     psi_from_borel)


# --- Bernoulli and derivative tables ---------------------------------------

def test_bernoulli_values():
    assert bernoulli_b2n(1) == Fraction(1, 6)
    assert bernoulli_b2n(2) == Fraction(-1, 30)
    assert bernoulli_b2n(3) == Fraction(1, 42)
    assert bernoulli_b2n(7) == Fraction(7, 6)


def test_half_power_derivative_low_orders():
    # d^3/dm^3 m^{3/2} at 1 = (3/2)(1/2)(-1/2) = -3/8
    assert half_power_derivative(2) == Fraction(-3, 8)
    # d^5/dm^5: further factors (-3/2)(-5/2) -> -45/32... sign: -3/8*15/4
    assert half_power_derivative(3) == Fraction(-3, 8) * Fraction(-3, 2) * Fraction(-5, 2)


def test_log_power_derivative_low_orders():
    # d^3/dm^3 (m^2 ln m) = 2/m -> 2 at m=1; d^5 -> 2*2! etc.
    assert log_power_derivative(2) == 2
    assert log_power_derivative(3) == 2 * 2
    assert log_power_derivative(4) == 2 * 24


# --- constants by three routes, pinned reference decimals -------------------

def test_psi_closed_form_value():
    assert abs(psi_constant() - mpf("0.0304484570584")) < 1e-12


def test_phi_closed_form_value():
    assert abs(phi_constant() - mpf("-0.0254852018898")) < 1e-12


def test_psi_levin_agrees_with_closed_form():
    res = levin_u_sum(log_power_series_terms(16))
    assert abs(res.value - psi_constant()) < 1e-9


def test_phi_levin_agrees_with_closed_form():
    res = levin_u_sum(half_power_series_terms(16))
    assert abs(res.value - phi_constant()) < 1e-9


def test_psi_borel_agrees_with_closed_form():
    assert abs(psi_from_borel() - psi_constant()) < 1e-20


def test_borel_integral_value():
    # 2 * psi_tilde = 1/36 - Psi
    assert abs(borel_sum_psi_tilde() - (mpf(1) / 36 - psi_constant()) / 2) < 1e-20


def test_levin_on_convergent_series():
    # sum (-1)^j/(j+1) = ln 2
    terms = [mpf(-1) ** j / (j + 1) for j in range(25)]
    res = levin_u_sum(terms)
    assert res.converged
    assert abs(res.value - mpmath.log(2)) < 1e-11


def test_levin_on_divergent_alternating_series():
    # Euler's series sum (-1)^j j! -> integral_0^inf e^-t/(1+t) = 0.59634736...
    terms = [mpf(-1) ** j * mpmath.factorial(j) for j in range(12)]
    res = levin_u_sum(terms, tol=mpf("1e-6"))
    assert abs(res.value - mpf("0.596347362323194074341078499369")) < 1e-6


def test_levin_rejects_garbage():
    with pytest.raises(SummationError):
        levin_u_sum([1, 2])
    with pytest.raises(SummationError):
        levin_u_sum([1, 2, mpf("inf"), 4, 5, 6])


def test_tampered_series_detected():
    # corrupting one term must push Levin away from the true constant
    terms = log_power_series_terms(16)
    terms[3] *= 2
    res = levin_u_sum(terms)
    assert abs(res.value - psi_constant()) > 1e-6


# --- polylog / zeta identities -----------------------------------------------

def test_polylog_at_special_points():
    assert mpmath.polylog(3, 0) == 0
    assert abs(mpmath.polylog(3, 1) - mpmath.zeta(3)) < 1e-30
    assert abs(mpmath.polylog(2, 1) - mpmath.pi ** 2 / 6) < 1e-30


def test_zeta_analytic_continuation():
    assert abs(mpmath.zeta(-1) + mpf(1) / 12) < 1e-30
    assert abs(mpmath.zeta(mpf("-1.5")) - phi_constant()) < 1e-30


@given(st.floats(min_value=0.01, max_value=0.99))
@settings(max_examples=30, deadline=None)
def test_dilog_reflection(x):
    # Li_2(x) + Li_2(1-x) = pi^2/6 - ln x ln(1-x)
    lhs = mpmath.polylog(2, x) + mpmath.polylog(2, 1 - x)
    rhs = mpmath.pi ** 2 / 6 - mpmath.log(x) * mpmath.log(1 - x)
    assert abs(lhs - rhs) < 1e-25


@given(st.integers(min_value=2, max_value=4),
       st.floats(min_value=-0.95, max_value=0.95))
@settings(max_examples=30, deadline=None)
def test_polylog_derivative_recurrence(n, x):
    # x d/dx Li_n(x) = Li_{n-1}(x)
    if abs(x) < 1e-3:
        return
    d = mpmath.diff(lambda v: mpmath.polylog(n, v), mpf(x))
    assert abs(mpf(x) * d - mpmath.polylog(n - 1, x)) < 1e-20


@given(st.floats(min_value=0.05, max_value=1.0))
@settings(max_examples=15, deadline=None)
def test_polylog_integral_identity(a_sq):
    # integral_0^inf dx x ln(1 - A e^-x) = -Li_3(A); the left side is the
    # quadrature route on the physics code's x layout
    lhs = constant_a_integral(a_sq)
    rhs = -mpmath.zeta(3) if a_sq == 1.0 else -mpmath.polylog(3, a_sq)
    assert abs(lhs - rhs) < 1e-12  # panel scheme loses a little near A -> 1


def test_series_term_generators_reject_short():
    with pytest.raises(ValueError):
        log_power_series_terms(1)
    with pytest.raises(ValueError):
        half_power_series_terms(1)
