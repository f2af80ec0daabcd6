"""Constants and reduced-parameter conversions."""

import pytest
from hypothesis import given, strategies as st
from mpmath import mp, mpf

from casimir_lowt.constants import alpha_param, mp_constants, reduced_temperature


def test_constant_values():
    k = mp_constants()
    assert k.hbar == mpf("1.054571817e-34")
    assert k.c == 299792458
    assert k.k_B == mpf("1.380649e-23")


def test_mp_constants_track_precision():
    mp.dps = 40
    k = mp_constants()
    assert k.hbar == mpf("1.054571817e-34")


def test_reduced_temperature_at_one_kelvin():
    # 2 pi k_B / (hbar * 1e12 /s) = 0.8226 per kelvin for the reference
    # conductivity -- the dimensionless temperature is O(1) already at 1 K
    t = reduced_temperature(1.0, 1e12)
    assert float(t) == pytest.approx(0.8226, abs=5e-4)


def test_alpha_at_one_micron():
    alpha = alpha_param(1e-6, 1e12)
    assert float(alpha) == pytest.approx(6.671e-3, abs=5e-5)


def test_reduced_temperature_zero_conductivity():
    with pytest.raises(ZeroDivisionError):
        reduced_temperature(1.0, 0.0)


def test_negative_inputs_rejected():
    with pytest.raises(ValueError):
        reduced_temperature(-1.0, 1e12)
    with pytest.raises(ValueError):
        alpha_param(0.0, 1e12)


@given(st.floats(min_value=1e-3, max_value=1e3),
       st.floats(min_value=1e6, max_value=1e15))
def test_reduced_temperature_linear_in_t(T, sigma):
    t1 = reduced_temperature(T, sigma)
    t2 = reduced_temperature(2 * T, sigma)
    assert abs(t2 / t1 - 2) < 1e-25


@given(st.floats(min_value=1e-8, max_value=1e-3),
       st.floats(min_value=1e6, max_value=1e15))
def test_alpha_scales_with_both_factors(a, sigma):
    assert abs(alpha_param(2 * a, sigma) / alpha_param(a, sigma) - 2) < 1e-25
    assert abs(alpha_param(a, 2 * sigma) / alpha_param(a, sigma) - 2) < 1e-25
