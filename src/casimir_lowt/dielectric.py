"""Permittivity along the imaginary frequency axis and the TE/TM
reflection coefficients of two identical halfspaces.

The material model is a static dielectric constant eps_bar, a single
oscillator at omega0, and a Drude-type conductivity pole 4*pi*sigma/zeta.
The conductivity pole makes eps diverge at zeta = 0, which is exactly the
feature driving the low-temperature behaviour studied by the rest of the
package; reflection limits at zeta = 0 are therefore always taken
analytically, never by evaluating eps there.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from mpmath import mp, mpf
from mpmath.libmp import (fone, mpf_add, mpf_div, mpf_mul, mpf_neg, mpf_sqrt, mpf_sub,
                          round_nearest)


class PermittivityMode(enum.Enum):
    FULL_OSCILLATOR = "full"      # 1 + (eps_bar-1)/(1+zeta^2/omega0^2) + 4 pi sigma / zeta
    LOW_FREQ = "lowfreq"          # eps_bar + 4 pi sigma / zeta
    IDEAL_METAL = "ideal"         # r_TE^2 = r_TM^2 = 1 at all frequencies


@dataclass(frozen=True)
class DielectricModel:
    eps_bar: float
    omega0: float
    four_pi_sigma: float
    mode: PermittivityMode = PermittivityMode.FULL_OSCILLATOR

    def __post_init__(self) -> None:
        for name in ("eps_bar", "omega0", "four_pi_sigma"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.mode is PermittivityMode.IDEAL_METAL:
            return
        if self.eps_bar < 1:
            raise ValueError("eps_bar must be >= 1")
        if self.omega0 <= 0:
            raise ValueError("omega0 must be positive")
        if self.four_pi_sigma < 0:
            raise ValueError("4 pi sigma must be nonnegative")


# Si-like parameters used throughout the numerical studies.
SI_PAPER = DielectricModel(eps_bar=11.67, omega0=8e15, four_pi_sigma=1e12)
SI_EPSBAR1 = DielectricModel(eps_bar=1.0, omega0=8e15, four_pi_sigma=1e12)
IDEAL_METAL = DielectricModel(eps_bar=1.0, omega0=1.0, four_pi_sigma=0.0,
                              mode=PermittivityMode.IDEAL_METAL)


def permittivity(model: DielectricModel, zeta):
    """eps(i zeta) for zeta > 0 (or zeta = 0 when there is no conductivity)."""
    zeta = mpf(zeta)
    if model.mode is PermittivityMode.IDEAL_METAL:
        raise ValueError("ideal metal has no finite permittivity")
    if zeta < 0:
        raise ValueError("zeta must be nonnegative")
    if zeta == 0:
        if model.four_pi_sigma > 0:
            raise ZeroDivisionError("eps diverges at zero frequency")
        return mpf(model.eps_bar)
    if model.mode is PermittivityMode.LOW_FREQ:
        return mpf(model.eps_bar) + mpf(model.four_pi_sigma) / zeta
    return (1 + (mpf(model.eps_bar) - 1) / (1 + (zeta / mpf(model.omega0)) ** 2)
            + mpf(model.four_pi_sigma) / zeta)


def mpf_reflection(eps, z, pol: str, prec: int):
    """r_TE or r_TM of one halfspace at imaginary frequency, on raw mpf tuples.

    This is the form the kernel calls per node: mpmath.libmp arithmetic at
    `prec` bits, round-nearest.  z = (zeta/kappa)^2 (eps - 1) >= 0, so that
    s/kappa = sqrt(1 + z) with s^2 = kappa^2 + zeta^2 (eps - 1); factoring
    out kappa keeps the huge eps of the conductivity pole near zeta = 0 from
    overflowing.  r_TE is taken as -z/(1 + sqrt(1+z))^2, which equals
    (1 - sqrt(1+z))/(1 + sqrt(1+z)) without its cancellation at small z.
    r_TE lies in [-1, 0], r_TM in [0, 1] for eps >= 1 and kappa >= zeta.
    """
    s = mpf_sqrt(mpf_add(z, fone, prec, round_nearest), prec, round_nearest)
    if pol == "tm":
        return mpf_div(mpf_sub(eps, s, prec, round_nearest),
                       mpf_add(eps, s, prec, round_nearest), prec, round_nearest)
    s1 = mpf_add(s, fone, prec, round_nearest)
    return mpf_div(mpf_neg(z, prec, round_nearest),
                   mpf_mul(s1, s1, prec, round_nearest), prec, round_nearest)


def reflection(eps, z, pol: str):
    """r_TE or r_TM at the working precision: `mpf_reflection` on mpf values."""
    return mp.make_mpf(mpf_reflection(mpf(eps)._mpf_, mpf(z)._mpf_, pol, mp.prec))


def reflection_limits_zero_frequency(model: DielectricModel):
    """(r_te, r_tm) in the zeta -> 0 limit at fixed kappa > 0.

    A conductivity pole drives r_tm to 1 regardless of eps_bar; without it
    r_tm tends to the static-dielectric value.  r_te always vanishes for
    finite materials (the ideal metal keeps |r_te| = 1 at all frequencies).
    """
    if model.mode is PermittivityMode.IDEAL_METAL:
        return mpf(-1), mpf(1)
    if model.four_pi_sigma > 0:
        return mpf(0), mpf(1)
    eb = mpf(model.eps_bar)
    return mpf(0), (eb - 1) / (eb + 1)


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
