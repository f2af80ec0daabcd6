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
            assert abs(mpf(table[pol][k][0]) / scan[pol] - 1) < 1e-11, (pol, T)


@pytest.mark.parametrize("material", [SI_PAPER, SI_EPSBAR1], ids=["si-paper", "si-fig2"])
def test_temperature_derivative_is_the_tables_own(material):
    # a central difference of one table's dF, step 1e-4 T, against its
    # d(dF)/dT: they differ by the difference's own truncation and rounding
    # error, 9.4e-10 relative at most here
    temps = [0.02, 0.1, 1.0]
    grid = sorted(T * (1 + s) for T in temps for s in (-1e-4, 0.0, 1e-4))
    table = delta_f_table(PlateSystem(1e-6, 1.0, material), grid)
    for pol in ("tm", "te"):
        rows = dict(zip(grid, table[pol]))
        for T in temps:
            lo, hi = rows[T * (1 - 1e-4)][0], rows[T * (1 + 1e-4)][0]
            central = (hi - lo) / (T * (1 + 1e-4) - T * (1 - 1e-4))
            assert abs(rows[T][1] / central - 1) < 1e-8, (pol, T)


def test_table_clusters_on_the_te_branch_point_far_from_zero(monkeypatch):
    # at 20 K the branch point x* = sqrt(w) of si-paper's TE integrand lies
    # near the real axis beyond x = 1; the scan's own M = 30 is too short here,
    # so the oracle runs at M = 240
    monkeypatch.setattr(lifshitz, "_truncation_m", lambda system: 240)
    template = PlateSystem(1e-6, 20.0, SI_PAPER, Polarization.TE)
    scan = delta_f(template)["te"]
    [(df, _)] = delta_f_table(template, [20.0])["te"]
    assert abs(mpf(df) / scan - 1) < 1e-11


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
    assert all(type(v) is float for row in at_33["tm"] for v in row)


@pytest.mark.parametrize("material, pol, grid, match", [
    (IDEAL_METAL, "both", [0.1, 0.2], "ideal metal"),
    (DielectricModel(eps_bar=11.67, omega0=8e15, four_pi_sigma=0.0), "te", [0.1, 0.2],
     "sigma > 0"),
    (DielectricModel(eps_bar=11.67, omega0=1e12, four_pi_sigma=1e12), "tm", [0.1, 0.2],
     "resonance lies inside"),
    (SI_PAPER, "tm", [], "at least one temperature"),
    (SI_PAPER, "tm", [-0.1, 0.1], "positive finite"),
    (SI_PAPER, "tm", [0.0, 0.1], "positive finite"),
    (SI_PAPER, "tm", [float("nan"), 0.1], "positive finite"),
    (SI_PAPER, "tm", [0.1, float("inf")], "positive finite")],
    ids=["ideal-metal", "sigma-0-te", "omega0-inside", "empty-grid", "negative-T", "zero-T",
         "nan-T", "inf-T"])
def test_refused_before_any_h(material, pol, grid, match, monkeypatch):
    # 8 zeta_1 at 0.2 K is 1.3e12 s^-1, above omega0 = 1e12 s^-1.  A negative
    # or infinite T would otherwise double the u-panels forever, T = 0 divide
    # by zero in eps and a NaN T give a silent NaN dF.
    def no_h(*args):
        raise AssertionError("H computed")

    monkeypatch.setattr(abel_plana, "_h", no_h)
    with pytest.raises(ValueError, match=match):
        delta_f_table(PlateSystem(1e-6, 1.0, material, Polarization(pol)), grid)


def test_nan_h_raises_precision_error(nan_table):
    with pytest.raises(PrecisionError, match=r"te: H\(u = .*\) = nan"):
        delta_f_table(PlateSystem(1e-6, 1.0, SI_PAPER, Polarization.TE), GRID)


def _doubled_order_table(template, grid, monkeypatch):
    # the same table with every node order doubled (the sqrt(u) head's
    # too) and the head held at u_0 = 2^-20 xm1(T_min), where the stock
    # head reaches up to 2^-5 xm1(T_min); its x-paths start at 0 as the
    # stock table's do
    with monkeypatch.context() as m:
        m.setattr(abel_plana, "_NX", 32)
        m.setattr(abel_plana, "_NX_FAR", 16)
        m.setattr(abel_plana, "_NU", 24)
        m.setattr(abel_plana, "_NH", 64)
        m.setattr(abel_plana, "_U_0", 2 ** -20)
        m.setattr(abel_plana, "_U_HEAD", 2 ** -20)
        return delta_f_table(template, grid)


@pytest.mark.parametrize("material, pol, grid", [
    (SI_PAPER, "both", GRID),
    (SI_PAPER, "te", [20.0]),
    (SI_EPSBAR1, "both", [0.015, 0.05, 0.12]),
    (SI_PAPER, "both", [0.02, 0.2, 1.0])],
    ids=["15-100mK", "te-20K", "si-fig2-15-120mK", "20mK-1K"])
def test_layout_matches_the_doubled_order_table(material, pol, grid, monkeypatch):
    # the table's quadrature error: 6e-13 at most on these cases; 8 nodes
    # per u-panel or 6 nodes per far x-panel would fail
    template = PlateSystem(1e-6, 1.0, material, Polarization(pol))
    table = delta_f_table(template, grid)
    ref = _doubled_order_table(template, grid, monkeypatch)
    for p in template.polarization.modes():
        for k, T in enumerate(grid):
            assert abs(table[p][k][0] / ref[p][k][0] - 1) < 1e-12, (p, T)


@pytest.mark.parametrize("a, material, pol, grid, bound", [
    (1e-6, SI_PAPER, "tm", [20.0], {"tm": 6e-13}),
    (1e-6, SI_EPSBAR1, "both", [20.0], {"tm": 7e-13, "te": 2e-14}),
    (1e-5, SI_PAPER, "te", [0.02, 1.0], {"te": 1.5e-11}),
    (1e-7, SI_PAPER, "te", [0.02, 1.0], {"te": 8e-15}),
    (1e-6, DielectricModel(eps_bar=11.67, omega0=8e15, four_pi_sigma=1e10), "te", [0.02, 1.0],
     {"te": 1.3e-12}),
    (1e-6, DielectricModel(eps_bar=11.67, omega0=8e15, four_pi_sigma=1e14), "tm", [0.02, 1.0],
     {"tm": 2e-13})],
    ids=["tm-20K", "si-fig2-20K", "te-a-10um", "te-a-0.1um", "te-sigma-1e10", "tm-sigma-1e14"])
def test_off_the_presets_the_table_stays_within_its_measured_error(a, material, pol, grid,
                                                                   bound, monkeypatch):
    # about twice the measured difference from the doubled-order table:
    # 2.9e-13, 5.3e-14 and 8.9e-15, 7.6e-12, 3.8e-15, 6.2e-13 and 6.0e-14,
    # where the presets' is at most 6e-13; si-fig2's TM bound stays at 7e-13,
    # since the doubled-order table is itself only about 3e-13 good on TM
    template = PlateSystem(a, 1.0, material, Polarization(pol))
    table = delta_f_table(template, grid)
    ref = _doubled_order_table(template, grid, monkeypatch)
    for p, tol in bound.items():
        for k, T in enumerate(grid):
            assert abs(table[p][k][0] / ref[p][k][0] - 1) < tol, (p, T)


def _h_calls(template, grid, monkeypatch) -> int:
    h = abel_plana._h
    calls = []

    def spy(*args):
        calls.append(args[0])
        return h(*args)

    monkeypatch.setattr(abel_plana, "_h", spy)
    delta_f_table(template, grid)
    return len(calls)


def test_table_makes_142_h_on_the_tm_sweep_grid(monkeypatch):
    # 32 u-nodes on the sqrt(u) head up to 2^-5 xm1(15 mK) (the knee cap,
    # 2^-8 alpha = 2.6e-5, is 10 times higher), then 10 per doubling panel
    # past 8 xm1(120 mK) = 2^6 xm1(15 mK): 11 panels.  Only the grid's ends
    # set the panels, so the interior points of a sweep move nothing.
    template = PlateSystem(1e-6, 1.0, SI_PAPER, Polarization.TM)
    assert _h_calls(template, [0.015, 0.05, 0.12], monkeypatch) == 142


def test_the_knee_caps_the_head_at_20_k(monkeypatch):
    # 2^-8 alpha = 2.6e-5 lies below 2 u_0 = 2^-9 xm1(20 K) = 2.1e-4, so the
    # head stays on [0, u_0]: its 32 nodes, then 10 on each of the 13
    # doubling panels to 8 xm1
    template = PlateSystem(1e-6, 1.0, SI_PAPER, Polarization.TM)
    assert _h_calls(template, [20.0], monkeypatch) == 162


def test_table_walks_at_most_68000_x_nodes_on_the_tm_sweep_grid(monkeypatch):
    # 16 nodes per x-panel only near the integrand's scales and past x = 1,
    # 8 elsewhere; one panel on [0, s_min] below the smallest scale, not
    # halvings down to a fraction of it; doubling panels from x = 1 to 45
    # (6, not 22 of width 2); 142 H: 67,136 x-nodes.
    x_nodes = abel_plana._x_nodes
    count = [0]

    def spy(*args):
        nodes = x_nodes(*args)
        count[0] += len(nodes)
        return nodes

    monkeypatch.setattr(abel_plana, "_x_nodes", spy)
    delta_f_table(PlateSystem(1e-6, 1.0, SI_PAPER, Polarization.TM), [0.015, 0.05, 0.12])
    assert count[0] <= 68_000
