"""Fixtures shared by the test modules."""

import pytest
from mpmath import mpf

from casimir_lowt import diagnostics, lifshitz


@pytest.fixture
def starved_scans(monkeypatch):
    """Every mode scan is one whose sum and integral agree to ~1e-20 of
    themselves (built at the current precision), so at 15 digits no digit
    of dF survives; F(0) is zero, so a sweep computes nothing."""
    starved = lifshitz.ModeScan(M=30, sum_part=mpf("-250") + mpf("1e-18"), integral=mpf("-250"),
                                d1=mpf(0), d3=mpf(0), d5=mpf(0))
    monkeypatch.setattr(lifshitz, "_mode_scans",
                        lambda s, pols, tail: ({p: starved for p in pols}, 0))
    monkeypatch.setattr(diagnostics, "zero_temperature_energies",
                        lambda s: {p: mpf(0) for p in s.polarization.modes()})
