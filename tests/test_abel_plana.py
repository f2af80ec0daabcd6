"""The Abel-Plana table of a sweep's thermal correction, against the
33-digit mode scan of `tests/oracles.py` that it replaced."""

import pytest
from mpmath import mpf

from casimir_lowt import abel_plana, lifshitz
from casimir_lowt.abel_plana import delta_f_table
from casimir_lowt.dielectric import IDEAL_METAL, SI_EPSBAR1, SI_PAPER, DielectricModel
from casimir_lowt.lifshitz import PlateSystem, Polarization, PrecisionError
from casimir_lowt.precision import set_precision
from oracles import delta_f

GRID = [0.015, 0.1]


@pytest.mark.parametrize("material", [SI_PAPER, SI_EPSBAR1], ids=["si-paper", "si-fig2"])
def test_table_matches_the_scan(material):
    # one table for both polarizations; the scan of each point is the oracle
    table = delta_f_table(PlateSystem(1e-6, 1.0, material), GRID)
    for k, T in enumerate(GRID):
        scan = delta_f(PlateSystem(1e-6, T, material))
        for pol in ("tm", "te"):
            assert abs(mpf(table[pol][k]) / scan[pol] - 1) < 1e-11, (pol, T)


def test_table_clusters_on_the_te_branch_point_far_from_zero(monkeypatch):
    # at 20 K the branch point x* = sqrt(w) of si-paper's TE integrand lies
    # near the real axis beyond x = 1; the scan's own M = 30 is too short here,
    # so the oracle runs at M = 240
    monkeypatch.setattr(lifshitz, "_truncation_m", lambda system: 240)
    template = PlateSystem(1e-6, 20.0, SI_PAPER, Polarization.TE)
    scan = delta_f(template)["te"]
    assert abs(mpf(delta_f_table(template, [20.0])["te"][0]) / scan - 1) < 1e-11


def test_each_polarization_is_the_same_alone_or_with_the_other():
    both = delta_f_table(PlateSystem(1e-6, 1.0, SI_PAPER), GRID)
    for pol in ("tm", "te"):
        assert delta_f_table(PlateSystem(1e-6, 1.0, SI_PAPER, Polarization(pol)), GRID) == {
            pol: both[pol]}


def test_table_is_float64_at_any_working_precision():
    template = PlateSystem(1e-6, 1.0, SI_PAPER, Polarization.TM)
    at_33 = delta_f_table(template, GRID)
    set_precision(20)
    assert delta_f_table(template, GRID) == at_33
    assert all(type(v) is float for v in at_33["tm"])


@pytest.mark.parametrize("material, pol, match", [
    (IDEAL_METAL, "both", "ideal metal"),
    (DielectricModel(eps_bar=11.67, omega0=8e15, four_pi_sigma=0.0), "te", "sigma > 0"),
    (DielectricModel(eps_bar=11.67, omega0=1e12, four_pi_sigma=1e12), "tm",
     "resonance lies inside")], ids=["ideal-metal", "sigma-0-te", "omega0-inside"])
def test_refused_before_any_h(material, pol, match, monkeypatch):
    # 8 zeta_1 at 0.2 K is 1.3e12 s^-1, above omega0 = 1e12 s^-1
    def no_h(*args):
        raise AssertionError("H computed")

    monkeypatch.setattr(abel_plana, "_h", no_h)
    with pytest.raises(ValueError, match=match):
        delta_f_table(PlateSystem(1e-6, 1.0, material, Polarization(pol)), [0.1, 0.2])


def test_nan_h_raises_precision_error(nan_table):
    with pytest.raises(PrecisionError, match=r"te: H\(u = .*\) = nan"):
        delta_f_table(PlateSystem(1e-6, 1.0, SI_PAPER, Polarization.TE), GRID)
