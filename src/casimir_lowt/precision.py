"""Working-precision control.

The sum-minus-integral difference underlying the low-temperature
diagnostics cancels several leading digits, so all numerics run on mpmath
arbitrary-precision floats.  The default of 33 significant digits keeps
over 25 digits of dF, given the 4.7 (TM, 15 mK), 7.5 (TE, 12.5 mK) and 7.9
(near 1 K) digits measured to cancel on si-paper.  A run sets it from
the config file's `precision`, which the CLI's --precision overrides.
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
