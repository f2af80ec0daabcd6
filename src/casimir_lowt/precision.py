"""Working-precision control.

The closed forms (`asymptotics`), the coefficient fit and the mpf values
that carry a sweep's R and F run on mpmath at this working precision.  F,
F(0) and dF (`lifshitz`, `abel_plana`) are float64 whatever it is, so
every CLI run takes the default of 33 significant digits; the 33-digit
oracles of the tests (`tests/oracles.py`) and the benchmark set it
themselves.
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
