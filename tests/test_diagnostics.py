"""Sweep records, coefficient fitting, and the R consistency diagnostic."""

import multiprocessing
import warnings

import pytest
from mpmath import mpf

from casimir_lowt import cli, diagnostics, lifshitz
from casimir_lowt.abel_plana import delta_f_table
from casimir_lowt.asymptotics import ValidityWarning, delta_f_te
from casimir_lowt.diagnostics import (FitError, SweepRecord, fit_expansion, log_grid,
                                      r_curve, te_cube_comparison, theory_correction)
from casimir_lowt.dielectric import IDEAL_METAL, SI_EPSBAR1, SI_PAPER, DielectricModel
from casimir_lowt.lifshitz import (PlateSystem, Polarization, PrecisionError,
                                   zero_temperature_energies)
from grids import logspace
from oracles import r_slope


def synthetic_records(D=2.53e-17, D1=0.366, D2=-0.5, sign=-1, n=12,
                      t_lo=0.02, t_hi=0.3):
    grid = logspace(t_lo, t_hi, n)
    recs = []
    for T in grid:
        df = sign * D * T ** 2 * (1.0 - D1 * T + D2 * T ** 2)
        recs.append(SweepRecord(T=T, F_num=None, F_asym=None, dF_num=df,
                                dF_th=df, R=0.0, pol="tm"))
    return recs


# --- fitting -----------------------------------------------------------------

def test_fit_round_trip():
    # basis matching the generator exactly: tight recovery
    recs = synthetic_records()
    fit = fit_expansion(recs, extra_powers=(2.0,))
    assert abs(fit.D / 2.53e-17 - 1) < 1e-6
    assert abs(fit.D1 - 0.366) < 1e-5
    assert abs(fit.D2 + 0.5) < 1e-4
    assert fit.sign == -1
    assert fit.T_range == (pytest.approx(0.02), pytest.approx(0.3))


def test_fit_default_basis_leading_coefficient():
    # the overcomplete default basis still pins the leading magnitude, and
    # on exact-model data the linear solve recovers every coefficient
    fit = fit_expansion(synthetic_records())
    assert abs(fit.D / 2.53e-17 - 1) < 1e-9
    assert abs(fit.D1 / 0.366 - 1) < 1e-9
    assert abs(fit.D2 / -0.5 - 1) < 1e-9


def test_fit_rescaling_invariance():
    # scaling every dF by k scales D but leaves the shape coefficients alone
    base = fit_expansion(synthetic_records(), extra_powers=(2.0,))
    scaled = [SweepRecord(T=r.T, F_num=None, F_asym=None, dF_num=r.dF_num * 1e3,
                          dF_th=None, R=None, pol="tm")
              for r in synthetic_records()]
    fit = fit_expansion(scaled, extra_powers=(2.0,))
    assert abs(fit.D / (base.D * 1e3) - 1) < 1e-6
    assert abs(fit.D1 - base.D1) < 1e-5
    assert abs(fit.D2 - base.D2) < 1e-4


def test_fit_positive_branch():
    fit = fit_expansion(synthetic_records(sign=+1), extra_powers=(2.0,))
    assert fit.sign == 1
    assert fit.D > 0


def test_fit_half_integer_basis():
    # generate with a bracket T^{3/2} correction, fit the matching basis
    grid = logspace(0.02, 0.3, 12)
    recs = [SweepRecord(T=T, F_num=None, F_asym=None,
                        dF_num=4.0e-19 * T ** 2 * (1.0 - 0.2 * T - 0.1 * T ** 1.5),
                        dF_th=None, R=None, pol="te") for T in grid]
    fit = fit_expansion(recs, extra_powers=(1.5,))
    assert abs(fit.D / 4.0e-19 - 1) < 1e-6
    assert abs(fit.extras[1.5] + 0.1) < 1e-4
    assert abs(fit.D1 - 0.2) < 1e-5
    assert fit.D2 == 0.0  # T^2 not in the basis


def test_fit_determinism():
    f1 = fit_expansion(synthetic_records())
    f2 = fit_expansion(synthetic_records())
    assert f1.D == f2.D and f1.D1 == f2.D1 and f1.D2 == f2.D2


def test_fit_error_paths():
    with pytest.raises(FitError):
        fit_expansion(synthetic_records(n=4))
    with pytest.raises(FitError):
        fit_expansion(synthetic_records(t_lo=0.1, t_hi=0.3))  # span too narrow
    flip = synthetic_records()
    flip[-1].dF_num = -flip[-1].dF_num
    with pytest.raises(FitError):
        fit_expansion(flip)
    with pytest.raises(FitError, match="ill-conditioned"):
        fit_expansion(synthetic_records(), extra_powers=(2.0, 2.0))  # rank deficient


def test_fit_needs_more_records_than_parameters():
    # the default basis fits D, D1 and four extra powers: six parameters
    with pytest.raises(FitError, match="6 records for 6 fitted parameters"):
        fit_expansion(synthetic_records(n=6))
    fit_expansion(synthetic_records(n=7))


# --- the stencil slope of tests/oracles.py -------------------------------------

def test_r_slope_recovers_linear_coefficient():
    grid = [0.02, 0.031, 0.05]
    recs = [SweepRecord(T=T, F_num=None, F_asym=None, dF_num=None, dF_th=None,
                        R=0.1 + 0.7 * T + 3.0 * T ** 2, pol="tm") for T in grid]
    got = r_slope(recs)
    # exact for a quadratic through three points: dR/dT at T = 0.02
    assert abs(got - (0.7 + 6.0 * 0.02)) < 1e-12


def test_r_slope_validation():
    recs = [SweepRecord(T=T, F_num=None, F_asym=None, dF_num=None, dF_th=None,
                        R=None, pol="tm") for T in (0.1, 0.2, 0.3)]
    with pytest.raises(ValueError):
        r_slope(recs[:2])
    with pytest.raises(ValueError):
        r_slope(recs, index=1)
    with pytest.raises(ValueError, match="index must be >= 0"):
        r_slope(recs, index=-1)  # would wrap round to records[-1], [0], [1]
    with pytest.raises(ValueError):
        r_slope(recs)  # R undefined


# --- sweeps ------------------------------------------------------------------

def test_r_curve_structure_and_consistency():
    template = PlateSystem(1e-6, 1.0, SI_PAPER, Polarization.TM)
    recs = r_curve(template, [0.5, 0.7], "tm")
    assert [float(r.T) for r in recs] == [0.5, 0.7]
    for r in recs:
        assert r.pol == "tm"
        assert r.dF_num < 0 and r.dF_th < 0 and r.F_num < 0
        assert r.R == (r.dF_th - r.dF_num) / r.dF_th
        # F_asym is built from F(0) + dF_th; the two routes to F(0) agree
        # to the cross-quadrature consistency level
        assert abs((r.F_asym - r.F_num) - (r.dF_th - r.dF_num)) < 1e-10 * abs(r.F_num)


def test_r_vanishes_when_theory_equals_numerics(monkeypatch):
    template = PlateSystem(1e-6, 1.0, SI_PAPER, Polarization.TM)
    table = dict(zip([0.5, 0.7], delta_f_table(template, [0.5, 0.7])["tm"]))

    class Echo:
        def evaluate(self, T):
            return mpf(table[float(T)][0])

        def derivative(self, T):
            return mpf(table[float(T)][1])

    monkeypatch.setattr(diagnostics, "theory_correction", lambda s, p: Echo())
    recs = r_curve(template, [0.5, 0.7], "tm")
    assert all(r.R == 0 and r.dR_dT == 0 for r in recs)


@pytest.mark.parametrize("material", [SI_PAPER, SI_EPSBAR1], ids=["si-paper", "si-fig2"])
@pytest.mark.parametrize("T", [0.02, 0.5])
def test_record_slope_matches_the_stencil(material, T):
    # the stencil's own error on a grid spaced 1e-3 T is below 1e-6 relative
    recs = r_curve(PlateSystem(1e-6, 1.0, material), [T, T * 1.001, T * 1.002], "both")
    for pol in ("tm", "te"):
        curve = [r for r in recs if r.pol == pol]
        assert abs(curve[0].dR_dT / r_slope(curve) - 1) < 1e-4, pol


def test_slope_is_none_where_r_is(monkeypatch):
    class Zero:
        def evaluate(self, T):
            return mpf(0)

    monkeypatch.setattr(diagnostics, "theory_correction", lambda s, p: Zero())
    recs = r_curve(PlateSystem(1e-6, 1.0, SI_PAPER, Polarization.TM), [0.5, 0.7], "tm")
    assert [(r.R, r.dR_dT) for r in recs] == [(None, None)] * 2


def test_r_curve_grid_validation():
    template = PlateSystem(1e-6, 1.0, SI_PAPER, Polarization.TM)
    with pytest.raises(ValueError):
        r_curve(template, [], "tm")
    with pytest.raises(ValueError):
        r_curve(template, [0.2, 0.1], "tm")
    with pytest.raises(ValueError):
        r_curve(template, [-0.1, 0.2], "tm")


def test_theory_correction_rejects_ideal_metal():
    template = PlateSystem(1e-6, 1.0, IDEAL_METAL, Polarization.TM)
    with pytest.raises(ValueError):
        diagnostics.theory_correction(template, "tm")


def test_te_cube_comparison_rows():
    # hand-made records: dF_num = 0, C2 T^2 and 2 C2 T^2 leave the residuals
    # -C2 T^2, 0 and C2 T^2 exactly; C2 > 0 > C3 on si-paper
    th = delta_f_te(SI_PAPER.four_pi_sigma, 1e-6, 0.0, eps_bar=SI_PAPER.eps_bar)
    c2, c3 = th.coefficient(2), th.coefficient(3)
    assert c2 > 0 > c3
    T = mpf(0.05)
    q = c2 * T * T
    records = [SweepRecord(T=0.05, F_num=None, F_asym=None, dF_num=df, dF_th=None,
                           R=None, pol="te", theory=th) for df in (mpf(0), q, 2 * q)]
    rows = te_cube_comparison(records)
    t3 = abs(c3) * T ** 3
    assert [row["T"] for row in rows] == [T] * 3
    assert [row["t3_term"] for row in rows] == [t3] * 3
    assert [row["residual"] for row in rows] == [-q, 0, q]
    assert [row["ratio"] for row in rows] == [q / t3, 0, q / t3]
    assert [row["same_sign"] for row in rows] == [True, False, False]


# --- grids -------------------------------------------------------------------

def test_log_grid():
    g = log_grid(0.02, 0.2, points_per_decade=10)
    assert g[0] == pytest.approx(0.02)
    assert g[-1] == pytest.approx(0.2)
    assert len(g) == 11
    assert all(b > a for a, b in zip(g, g[1:]))
    with pytest.raises(ValueError):
        log_grid(0.2, 0.1)
    with pytest.raises(ValueError):
        log_grid(0.0, 0.1)


def test_r_curve_both_is_tm_then_te():
    template = PlateSystem(1e-6, 1.0, SI_PAPER)
    both = r_curve(template, [0.5, 0.7], "both")
    single = r_curve(template, [0.5, 0.7], "tm") + r_curve(template, [0.5, 0.7], "te")
    assert [r.pol for r in both] == ["tm", "tm", "te", "te"]
    for a, b in zip(both, single, strict=True):
        for field in ("T", "F_num", "F_asym", "dF_num", "dF_th", "R", "dR_dT", "pol"):
            assert getattr(a, field) == getattr(b, field), field


def test_r_curve_builds_each_closed_form_once_and_warns_once(monkeypatch, capsys):
    # faked points; the grid reaches t = 0.41 and 0.58 on si-paper, and each
    # polarization's closed form is built once, at the hottest point
    built = []

    def spy(system, pol):
        built.append((system.temperature_T, pol))
        return theory_correction(system, pol)

    monkeypatch.setattr(diagnostics, "theory_correction", spy)
    monkeypatch.setattr(diagnostics, "delta_f_table",
                        lambda s, ts: {"tm": [(-1.0, 0.0)] * len(ts),
                                       "te": [(1.0, 0.0)] * len(ts)})
    monkeypatch.setattr(diagnostics, "zero_temperature_energies",
                        lambda s: {"tm": mpf(-1), "te": mpf(-1)})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        recs = r_curve(PlateSystem(1e-6, 1.0, SI_PAPER), [0.5, 0.7], "both")
    assert built == [(0.7, "tm"), (0.7, "te")]
    assert [str(w.message).split(" > ")[0] for w in caught
            if issubclass(w.category, ValidityWarning)] == ["t = 0.5758", "t = 0.5758"]
    th = {p: theory_correction(PlateSystem(1e-6, 0.0, SI_PAPER), p) for p in ("tm", "te")}
    assert [r.dF_th for r in recs] == [th[r.pol].evaluate(r.T) for r in recs]
    # a whole CLI sweep, summaries included, builds no closed form again
    built.clear()
    assert cli.main(["sweep", "--preset", "si-paper", "--no-timestamp"]) == cli.EXIT_OK
    assert built == [(1.0, "tm"), (1.0, "te")]
    assert capsys.readouterr().err.count("# te: residual/|C3 T^3|") == 1


def test_log_grid_ends_are_the_configured_ends():
    g = log_grid(0.02, 1.0, 25)
    assert g[0] == 0.02
    assert g[-1] == 1.0
    assert all(type(T) is float for T in g)
    assert len(g) == 43


@pytest.mark.parametrize("points", [0, -5])
def test_log_grid_rejects_points_per_decade_below_one(points):
    with pytest.raises(ValueError, match="points_per_decade"):
        log_grid(0.1, 1.0, points)


# --- the sweep runs in this process, from one table ----------------------------

def test_r_curve_makes_no_mode_scan_and_starts_no_process(monkeypatch):
    # the mode scan is the oracles' now; what r_curve must not make either
    # is a dF per point, each with a one-point table of its own
    scans = []

    def spy(*args, **kwargs):
        scans.append(args)
        return delta_f_direct(*args, **kwargs)

    delta_f_direct = lifshitz.delta_f_direct
    monkeypatch.setattr(lifshitz, "delta_f_direct", spy)
    monkeypatch.setattr(diagnostics, "delta_f_direct", spy)
    recs = r_curve(PlateSystem(1e-6, 1.0, SI_PAPER), [0.5, 0.7], "both")
    assert len(recs) == 4
    assert scans == []
    assert multiprocessing.active_children() == []


def test_r_curve_takes_df_from_the_table_and_f0_from_one_pass(monkeypatch):
    template = PlateSystem(1e-6, 1.0, SI_PAPER)
    table = delta_f_table(template, [0.5, 0.7])
    f0 = zero_temperature_energies(template)
    passes = []

    def spy(system):
        passes.append(system.polarization)
        return zero_temperature_energies(system)

    monkeypatch.setattr(diagnostics, "zero_temperature_energies", spy)
    recs = r_curve(template, [0.5, 0.7], "both")
    assert passes == [Polarization.BOTH]
    for rec, (df, _) in zip(recs, table["tm"] + table["te"], strict=True):
        assert type(rec.dF_num) is float and rec.dF_num == df
        assert rec.F_num == f0[rec.pol] + rec.dF_num
        assert rec.F_asym == f0[rec.pol] + rec.dF_th


@pytest.mark.parametrize("material, pol, match", [
    (DielectricModel(eps_bar=11.67, omega0=8e15, four_pi_sigma=0.0), "tm", "sigma > 0"),
    (IDEAL_METAL, "both", "ideal-metal")])
def test_missing_closed_form_fails_before_any_point(material, pol, match, monkeypatch):
    def no_table(*args, **kwargs):
        raise AssertionError("delta_f_table called")

    monkeypatch.setattr(diagnostics, "delta_f_table", no_table)
    with pytest.raises(ValueError, match=match):
        r_curve(PlateSystem(1e-6, 1.0, material), [0.1, 0.2], pol)


def test_nan_h_is_a_precision_error(nan_table):
    with pytest.raises(PrecisionError, match="tm: H"):
        r_curve(PlateSystem(1e-6, 1.0, SI_PAPER, Polarization.TM), [0.5, 0.7], "tm")
