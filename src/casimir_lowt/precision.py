"""Working-precision control.

The sum-minus-integral difference underlying the low-temperature
diagnostics cancels several leading digits, so all numerics run on mpmath
arbitrary-precision floats.  The default of 33 significant digits keeps
over 25 digits of dF, given the 4.7 (TM, 15 mK), 7.5 (TE, 12.5 mK) and 7.9
(near 1 K) digits measured to cancel on si-paper; it can be overridden per
run (CLI --precision or the CASIMIR_PRECISION environment variable).
"""

from __future__ import annotations

import os

from mpmath import mp

DEFAULT_DPS = 33


def default_dps() -> int:
    env = os.environ.get("CASIMIR_PRECISION")
    if env:
        try:
            dps = int(env)
        except ValueError as exc:
            raise ValueError(f"CASIMIR_PRECISION must be an integer, got {env!r}") from exc
        if dps < 15:
            raise ValueError("CASIMIR_PRECISION must be >= 15")
        return dps
    return DEFAULT_DPS


def set_precision(dps: int | None = None) -> int:
    """Set the global working precision in decimal digits; returns it."""
    dps = default_dps() if dps is None else int(dps)
    if dps < 15:
        raise ValueError("working precision must be >= 15 digits")
    mp.dps = dps
    return dps
