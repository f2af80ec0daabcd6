"""Working-precision control.

`lifshitz.delta_f`'s mode scan, the closed forms and the coefficient fit
run on mpmath arbitrary-precision floats at this working precision.  The
sum-minus-integral difference of the scan cancels several leading digits,
so the default of 33 significant digits keeps over 25 digits of its dF,
given the 4.7 (TM, 15 mK), 7.5 (TE, 12.5 mK) and 7.9 (near 1 K) digits
measured to cancel on si-paper.  F (`lifshitz.free_energy`, the `energy`
command), every F(0) (`lifshitz.zero_temperature_energies`) and a sweep's
dF (the Abel-Plana table, `abel_plana`) cancel nothing and are float64
whatever this precision is; a sweep's R, F sums and fit do depend on it.
A run sets it from the config file's `precision`, which the CLI's
--precision overrides.
"""

from __future__ import annotations

from mpmath import mp

DEFAULT_DPS = 33


def set_precision(dps: int | None = None) -> int:
    """Set the global working precision in decimal digits; returns it."""
    dps = DEFAULT_DPS if dps is None else int(dps)
    if dps < 15:
        raise ValueError("working precision must be >= 15 digits")
    mp.dps = dps
    return dps
