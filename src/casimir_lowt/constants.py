"""Physical constants (CODATA 2018) and the unit conversions used at module
boundaries.

All physics modules work internally in Gaussian/natural units (hbar = c =
k_B = 1) with frequencies in 1/s; SI enters and leaves only through the
helpers here.  The conductivity of a weakly conducting plate is carried
around as the Gaussian combination 4*pi*sigma, numerically identical to
sigma_SI/epsilon_0.
"""

from __future__ import annotations

from types import SimpleNamespace

from mpmath import mpf, pi


# Decimal strings so that mpf conversion at any working precision is exact.
_HBAR = "1.054571817e-34"     # J s
_C = "299792458"              # m/s
_K_B = "1.380649e-23"         # J/K


def mp_constants() -> SimpleNamespace:
    """Constants as mpf values at the current working precision."""
    return SimpleNamespace(hbar=mpf(_HBAR), c=mpf(_C), k_B=mpf(_K_B))


def float_constants() -> SimpleNamespace:
    """The same constants as float64 values, whatever the working precision."""
    return SimpleNamespace(hbar=float(_HBAR), c=float(_C), k_B=float(_K_B))


def reduced_temperature(temperature_k, four_pi_sigma):
    """Dimensionless temperature t = 2 pi k_B T / (hbar * 4 pi sigma).

    t compares the first Matsubara frequency with the conductivity
    frequency scale; the low-temperature expansions assume t << 1.
    """
    if temperature_k < 0:
        raise ValueError("temperature must be nonnegative")
    if four_pi_sigma == 0:
        raise ZeroDivisionError("zero conductivity: t undefined")
    if four_pi_sigma < 0:
        raise ValueError("conductivity must be nonnegative")
    k = mp_constants()
    return 2 * pi * k.k_B * mpf(temperature_k) / (k.hbar * mpf(four_pi_sigma))


def alpha_param(separation_m, four_pi_sigma):
    """Dimensionless separation-conductivity product alpha = 2 a (4 pi sigma) / c."""
    if separation_m <= 0:
        raise ValueError("separation must be positive")
    if four_pi_sigma < 0:
        raise ValueError("conductivity must be nonnegative")
    k = mp_constants()
    return 2 * mpf(separation_m) * mpf(four_pi_sigma) / k.c
