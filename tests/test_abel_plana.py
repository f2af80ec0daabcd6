"""The Abel-Plana table of a sweep's thermal correction, against the
33-digit mode scan of `tests/oracles.py` that it replaced."""

import pytest
from mpmath import mpf

from casimir_lowt import abel_plana, lifshitz
from casimir_lowt.abel_plana import delta_f_table
from casimir_lowt.dielectric import IDEAL_METAL, SI_EPSBAR1, SI_PAPER, DielectricModel
from casimir_lowt.lifshitz import (PlateSystem, Polarization, PrecisionError, free_energy,
                                   zero_temperature_energies)
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
    (SI_PAPER, "tm", [0.1, float("inf")], "positive finite"),
    (SI_PAPER, "both", [1.0, 547.0], r"xm1 = 3\.002 > 2 at the grid's hottest point")],
    ids=["ideal-metal", "sigma-0-te", "omega0-inside", "empty-grid", "negative-T", "zero-T",
         "nan-T", "inf-T", "xm1-3"])
def test_refused_before_any_h(material, pol, grid, match, monkeypatch):
    # 8 zeta_1 at 0.2 K is 1.3e12 s^-1, above omega0 = 1e12 s^-1.  A negative
    # or infinite T would otherwise double the u-panels forever, T = 0 divide
    # by zero in eps and a NaN T give a silent NaN dF.  At xm1(T_max) = 3
    # the u-panels would reach u = 24, and dF is off F - F(0) by 1.2-1.5e-12
    # (TM) and 8.2-8.7e-11 (TE), growing to 3.7e-5 and 1.2e-3 at xm1 = 16.5.
    def no_h(*args):
        raise AssertionError("H computed")

    monkeypatch.setattr(abel_plana, "_h", no_h)
    with pytest.raises(ValueError, match=match):
        delta_f_table(PlateSystem(1e-6, 1.0, material, Polarization(pol)), grid)


def test_nan_h_raises_precision_error(nan_table):
    with pytest.raises(PrecisionError, match=r"te: H\(u = .*\) = nan"):
        delta_f_table(PlateSystem(1e-6, 1.0, SI_PAPER, Polarization.TE), GRID)


@pytest.mark.parametrize("material", [SI_PAPER, SI_EPSBAR1], ids=["si-paper", "si-fig2"])
@pytest.mark.parametrize("a, T", [(1e-6, 364.0), (1e-5, 36.4)], ids=["a-1um", "a-10um"])
def test_table_keeps_its_digits_up_to_xm1_2(material, a, T, monkeypatch):
    # xm1(T) = 1.998, just inside the refusal: against F - F(0) with F at
    # M = 240, TM reads 2.0-9.4e-13 and TE 2.9e-15-2.8e-14
    monkeypatch.setattr(lifshitz, "_truncation_m", lambda system: 240)
    system = PlateSystem(a, T, material)
    table = delta_f_table(system, [T])
    f, f0 = free_energy(system).per_mode, zero_temperature_energies(system)
    for pol in ("tm", "te"):
        [(df, _)] = table[pol]
        assert abs(df / (float(f[pol]) - float(f0[pol])) - 1) < 2e-12, pol


# a change of node order, panel layout or rule that moves dF or d(dF)/dT by
# one bit shows here: (T, TM (dF, d(dF)/dT), TE (dF, d(dF)/dT)), one table
# per material over the three temperatures
FROZEN_TABLES = {
    "si-paper": (SI_PAPER, [
        (0.02, (-9.7725130382973e-17, -9.676113742762493e-15),
         (6.385859376502309e-23, 6.346394603635233e-21)),
        (0.3, (-1.3873901102370711e-14, -7.180819969375648e-14),
         (1.3269386958971245e-20, 8.676450001658197e-20)),
        (1.0, (-7.562310289755416e-14, -9.692560017449483e-14),
         (1.431810247659652e-19, 2.865079445775344e-19))]),
    "si-fig2": (SI_EPSBAR1, [
        (0.02, (-9.835727826906839e-17, -9.79688449868097e-15),
         (6.381385317216624e-23, 6.33763140609648e-21)),
        (0.3, (-1.9375627400830986e-14, -1.1925540057480708e-13),
         (1.2281937508445319e-20, 7.591918257783376e-20)),
        (1.0, (-1.533723557624821e-13, -2.398547797692549e-13),
         (1.0321417803665791e-19, 1.717279556066006e-19))]),
}


@pytest.mark.parametrize("case", list(FROZEN_TABLES))
def test_table_is_the_frozen_values(case):
    material, rows = FROZEN_TABLES[case]
    table = delta_f_table(PlateSystem(1e-6, 1.0, material), [T for T, _, _ in rows])
    for k, (T, tm, te) in enumerate(rows):
        assert (table["tm"][k], table["te"][k]) == (tm, te), T


def _doubled_order_table(template, grid, monkeypatch):
    # the same table with every node order doubled (the sqrt(u) head's
    # too) and the head held at u_0 = 2^-20 xm1(T_min), where the stock
    # head reaches up to 2^-5 xm1(T_min); its x-paths start at 0 as the
    # stock table's do
    with monkeypatch.context() as m:
        m.setattr(abel_plana, "_NX", 32)
        m.setattr(abel_plana, "_NX_ABOVE_1", 24)
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


def test_table_walks_at_most_56000_x_nodes_on_the_tm_sweep_grid(monkeypatch):
    # 16 nodes per x-panel only in the band of |sqrt(w)| and in those of u
    # and u/sqrt|eps| within a factor 16 of it, 12 elsewhere past x = 1 and
    # 8 below; one panel on [0, s_min] below the smallest scale, not
    # halvings down to a fraction of it; doubling panels from x = 1 to 45
    # (6, not 22 of width 2); 142 H: 55,256 x-nodes.
    x_nodes = abel_plana._x_nodes
    count = [0]

    def spy(*args):
        nodes = x_nodes(*args)
        count[0] += len(nodes)
        return nodes

    monkeypatch.setattr(abel_plana, "_x_nodes", spy)
    delta_f_table(PlateSystem(1e-6, 1.0, SI_PAPER, Polarization.TM), [0.015, 0.05, 0.12])
    assert count[0] <= 56_000


def test_table_takes_its_real_axis_x_nodes_from_the_shared_builder(monkeypatch):
    # one call of F's own real-axis panel builder per H, 142 on the TM sweep
    # grid: the table builds no real-axis panel and keeps no cache rule of
    # its own
    assert abel_plana._real_axis_panels is lifshitz._real_axis_panels
    panels = lifshitz._real_axis_panels
    calls = []

    def spy(edges, rule, fixed):
        calls.append(edges[0])
        return panels(edges, rule, fixed)

    monkeypatch.setattr(abel_plana, "_real_axis_panels", spy)
    delta_f_table(PlateSystem(1e-6, 1.0, SI_PAPER, Polarization.TM), [0.015, 0.05, 0.12])
    assert len(calls) == 142


@pytest.mark.parametrize("four_pi_sigma", [8.2e7, 8.2e5], ids=["t-1e4", "t-1e6"])
def test_table_anchors_its_u_ladder_at_the_knee_past_t_1024(four_pi_sigma):
    # at T = 1 K, t = 1.0e4 and 1.0e6: the knee alpha = xm1 / t lies below
    # 2^-10 xm1, inside a head anchored there, which put dF off by 4.2e-7
    # and 3.8e-2; anchored at 2^-8 alpha the table is within 5.3e-13 and
    # 1.6e-13 of F - F(0), which keeps all but about 3 of F's digits here
    # (dF / F = 1e-3)
    system = PlateSystem(1e-6, 1.0, DielectricModel(eps_bar=11.67, omega0=8e15,
                                                    four_pi_sigma=four_pi_sigma),
                         Polarization.TM)
    [(df, _)] = delta_f_table(system, [1.0])["tm"]
    ref = (float(free_energy(system).per_mode["tm"])
           - float(zero_temperature_energies(system)["tm"]))
    assert abs(df / ref - 1) < 1e-12
