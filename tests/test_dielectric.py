"""Permittivity model and reflection coefficients."""

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf

from casimir_lowt.dielectric import (IDEAL_METAL, SI_EPSBAR1, SI_PAPER, DielectricModel,
                                     PermittivityMode, permittivity,
                                     reflection_limits_zero_frequency, susceptibility)
from oracles import a_mu, reflection


def test_permittivity_pole_at_zero_frequency():
    with pytest.raises(ZeroDivisionError):
        permittivity(SI_PAPER, 0)


def test_permittivity_zero_frequency_without_conductivity():
    mat = DielectricModel(eps_bar=11.67, omega0=8e15, four_pi_sigma=0.0)
    assert abs(permittivity(mat, 0) - mpf("11.67")) < 1e-15  # float literal input


def test_permittivity_oscillator_rolloff():
    # far above omega0 the oscillator term dies off as (omega0/zeta)^2
    ep = permittivity(SI_PAPER, mpf(8e17))
    assert abs(ep - 1 - mpf("10.67") / 10001 - mpf("1e12") / mpf("8e17")) < 1e-18


def test_low_freq_model_drops_oscillator():
    lo = DielectricModel(11.67, 8e15, 1e12, mode=PermittivityMode.LOW_FREQ)
    assert abs(permittivity(lo, mpf(1e10)) - (mpf("11.67") + 100)) < 1e-15


@pytest.mark.parametrize("model", [SI_PAPER, SI_EPSBAR1, DielectricModel(11.67, 8e15, 0.0),
                                   DielectricModel(11.67, 8e15, 1e12, PermittivityMode.LOW_FREQ)],
                         ids=["si-paper", "si-fig2", "sigma0", "lowfreq"])
def test_permittivity_of_a_float_is_the_mpf_value_at_53_bits(model):
    # a float zeta gives a float eps, the 53-bit mpf result rounded, bit for bit
    for k in range(-40, 41):
        zeta = 1e12 * 10 ** (k / 8) * (1 + k % 7 / 10)
        eps = permittivity(model, zeta)
        assert type(eps) is float
        with mp.workprec(53):
            assert eps == float(permittivity(model, mpf(zeta))), zeta


@pytest.mark.parametrize("zeta", [1e9, 1e12, 3e15, complex(0, 1e12)])
def test_susceptibility_is_eps_minus_1_without_rounding_through_eps(zeta):
    # on si-fig2 (eps_bar = 1) it is the conductivity term alone, to the
    # last bit, where eps - 1 off a rounded eps near 1 is not
    assert susceptibility(SI_EPSBAR1, zeta) == 1e12 / zeta
    assert susceptibility(DielectricModel(11.67, 8e15, 0.0), 0) == 11.67 - 1


@pytest.mark.parametrize("v", [1e3, 1e12, 1e15, 1e16, 1e17])
def test_permittivity_continued_to_real_frequency(v):
    # zeta = i v: eps at the real frequency v, in complex floats
    lo = DielectricModel(11.67, 8e15, 1e12, mode=PermittivityMode.LOW_FREQ)
    for model, ref in ((lo, 11.67 - 1j * 1e12 / v),
                       (SI_PAPER, 1 + (11.67 - 1) / (1 - v * v / 8e15 ** 2) - 1j * 1e12 / v)):
        eps = permittivity(model, complex(0, v))
        assert type(eps) is complex
        assert abs(eps - ref) <= 1e-15 * abs(ref), model.mode
    with pytest.raises(ValueError, match="ideal metal"):
        permittivity(IDEAL_METAL, complex(0, v))


def test_model_validation():
    with pytest.raises(ValueError):
        DielectricModel(eps_bar=0.5, omega0=8e15, four_pi_sigma=0.0)
    with pytest.raises(ValueError):
        DielectricModel(eps_bar=2.0, omega0=-1.0, four_pi_sigma=0.0)
    with pytest.raises(ValueError):
        DielectricModel(eps_bar=2.0, omega0=1.0, four_pi_sigma=-1.0)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("name", ["eps_bar", "omega0", "four_pi_sigma"])
def test_model_rejects_non_finite(name, value):
    fields = {"eps_bar": 2.0, "omega0": 8e15, "four_pi_sigma": 1e12, name: value}
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        DielectricModel(**fields)


def _z(eps, kappa, zeta):
    """The reflection argument z = (zeta/kappa)^2 (eps - 1)."""
    return (mpf(zeta) / mpf(kappa)) ** 2 * (mpf(eps) - 1)


def test_reflection_vacuum():
    z = _z(1.0, 2.0, 1.0)
    assert reflection(mpf(1), z, "te") == 0
    assert reflection(mpf(1), z, "tm") == 0


def test_reflection_grazing_limit():
    # kappa = zeta (normal incidence in these variables): r_te = -r_tm
    eps = mpf("4.0")
    z = _z(eps, 1.0, 1.0)
    r_te, r_tm = reflection(eps, z, "te"), reflection(eps, z, "tm")
    assert abs(r_te + r_tm) < 1e-30
    assert abs(r_tm - mpf(1) / 3) < 1e-30  # (2-1)/(2+1) for sqrt(eps)=2


@given(st.floats(min_value=1.0, max_value=1e8),
       st.floats(min_value=1e-6, max_value=1e3),
       st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=50, deadline=None)
def test_reflection_bounds(eps, kappa, frac):
    # |r| <= 1 with r_te <= 0 <= r_tm everywhere on the imaginary axis
    zeta = kappa * frac
    z = _z(eps, kappa, zeta)
    assert -1 <= reflection(mpf(eps), z, "te") <= 0
    assert 0 <= reflection(mpf(eps), z, "tm") <= 1


def test_zero_frequency_limits():
    te, tm = reflection_limits_zero_frequency(SI_PAPER)
    assert te == 0 and tm == 1
    te, tm = reflection_limits_zero_frequency(IDEAL_METAL)
    assert te == -1 and tm == 1
    mat = DielectricModel(11.67, 8e15, 0.0)
    te, tm = reflection_limits_zero_frequency(mat)
    assert te == 0
    assert abs(tm - mpf("10.67") / mpf("12.67")) < 1e-15


def test_a_mu_endpoints():
    assert a_mu(11.67, 0) == 1
    # large-mu plateau: ((eps-1)/(eps+1))^2
    assert abs(a_mu(11.67, 1e12) - (mpf("10.67") / mpf("12.67")) ** 2) < 1e-10


@given(st.floats(min_value=1.0, max_value=100.0),
       st.floats(min_value=0.0, max_value=10.0))
@settings(max_examples=50, deadline=None)
def test_a_mu_monotone_decreasing(eps_bar, mu):
    assert a_mu(eps_bar, mu + 0.1) <= a_mu(eps_bar, mu) + mpf("1e-30")

