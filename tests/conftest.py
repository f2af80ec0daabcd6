"""Fixtures shared by the test modules."""

import pytest

from casimir_lowt import abel_plana
from casimir_lowt.precision import set_precision


@pytest.fixture(autouse=True)
def default_precision():
    """Every test starts at the default 33 digits, whatever the one before
    it left behind."""
    set_precision(33)


@pytest.fixture
def nan_table(monkeypatch):
    """Every H of an Abel-Plana table is NaN, so a sweep's table fails at
    its first node; no other H is computed."""
    monkeypatch.setattr(abel_plana, "_h", lambda u, eps, pols, gl, fixed:
                        (float("nan"),) * len(pols))
