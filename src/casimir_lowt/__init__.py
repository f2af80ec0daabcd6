"""Low-temperature Casimir-Lifshitz free energy between weakly conducting
plates: float64 Matsubara numerics, closed-form asymptotic corrections,
and the diagnostics that compare the two."""

from .constants import alpha_param, reduced_temperature
from .dielectric import (IDEAL_METAL, SI_EPSBAR1, SI_PAPER, DielectricModel,
                         PermittivityMode)
from .lifshitz import (FreeEnergyResult, PlateSystem, Polarization, PrecisionError,
                       QuadratureSpec, delta_f_direct, free_energy,
                       zero_temperature_energy)
from .precision import set_precision

__version__ = "0.1.0"

__all__ = [
    "alpha_param", "reduced_temperature",
    "DielectricModel", "PermittivityMode", "SI_PAPER", "SI_EPSBAR1", "IDEAL_METAL",
    "PlateSystem", "Polarization", "QuadratureSpec", "FreeEnergyResult",
    "PrecisionError", "free_energy", "delta_f_direct",
    "zero_temperature_energy", "set_precision",
    "__version__",
]
