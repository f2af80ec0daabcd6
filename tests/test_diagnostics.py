"""Sweep records, coefficient fitting, and the R consistency diagnostic."""

import multiprocessing
import os
from dataclasses import replace

import numpy as np
import pytest
from mpmath import mpf

from casimir_lowt import diagnostics
from casimir_lowt.asymptotics import delta_f_te
from casimir_lowt.diagnostics import (FitError, SweepRecord, fit_expansion, log_grid,
                                      r_curve, r_slope, run_points, te_cube_comparison)
from casimir_lowt.dielectric import IDEAL_METAL, SI_PAPER
from casimir_lowt.lifshitz import (PlateSystem, Polarization, delta_f, delta_f_direct,
                                   zero_temperature_energies)
from casimir_lowt.precision import set_precision


def setup_module():
    set_precision(33)


def synthetic_records(D=2.53e-17, D1=0.366, D2=-0.5, sign=-1, n=12,
                      t_lo=0.02, t_hi=0.3):
    grid = np.logspace(np.log10(t_lo), np.log10(t_hi), n)
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
    # the overcomplete default basis still pins the leading magnitude
    fit = fit_expansion(synthetic_records())
    assert abs(fit.D / 2.53e-17 - 1) < 1e-4


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
    grid = np.logspace(np.log10(0.02), np.log10(0.3), 12)
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


def test_fit_needs_more_records_than_parameters():
    # the default basis fits D, D1 and four extra powers: six parameters
    with pytest.raises(FitError, match="6 records for 6 fitted parameters"):
        fit_expansion(synthetic_records(n=6))
    fit_expansion(synthetic_records(n=7))


# --- slope -------------------------------------------------------------------

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
    class Echo:
        def evaluate(self, T):
            system = PlateSystem(1e-6, float(T), SI_PAPER, Polarization.TM)
            return delta_f_direct(system)["tm"]

    monkeypatch.setattr(diagnostics, "theory_correction", lambda s, p: Echo())
    recs = r_curve(PlateSystem(1e-6, 1.0, SI_PAPER, Polarization.TM),
                   [0.5, 0.7], "tm")
    assert all(r.R == 0 for r in recs)


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
                           R=None, pol="te") for df in (mpf(0), q, 2 * q)]
    template = PlateSystem(1e-6, 1.0, SI_PAPER, Polarization.TE)
    rows = te_cube_comparison(template, records)
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
        for field in ("T", "F_num", "F_asym", "dF_num", "dF_th", "R", "pol"):
            assert getattr(a, field) == getattr(b, field), field


@pytest.mark.parametrize("points", [0, -5])
def test_log_grid_rejects_points_per_decade_below_one(points):
    with pytest.raises(ValueError, match="points_per_decade"):
        log_grid(0.1, 1.0, points)


# --- the point pool ----------------------------------------------------------

POOL_TEMPLATE = PlateSystem(1e-6, 1.0, SI_PAPER)
POOL_GRID = [0.5, 0.7]


class PointFailure(RuntimeError):
    pass


def spied_r_curve(dps):
    """r_curve of POOL_TEMPLATE on POOL_GRID at dps digits, with the
    run_points results it was built from."""
    results = []

    def spy(kind, systems, zero=None):
        results.extend(run_points(kind, systems, zero))
        return results

    set_precision(dps)
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(diagnostics, "run_points", spy)
            return r_curve(POOL_TEMPLATE, POOL_GRID, "both"), results
    finally:
        set_precision(33)


def pid_per_task(monkeypatch):
    """run_points of a sweep over three points and F(0), each task returning
    the process id that ran it and what it was asked for."""
    monkeypatch.setattr(diagnostics, "delta_f", lambda s: (os.getpid(), s.temperature_T))
    monkeypatch.setattr(diagnostics, "zero_temperature_energies", lambda s: (os.getpid(), "F0"))
    systems = [replace(POOL_TEMPLATE, temperature_T=T) for T in (0.1, 0.2, 0.3)]
    return run_points("dF", systems, zero=POOL_TEMPLATE)


@pytest.fixture(scope="module")
def pooled_curve():
    return spied_r_curve(33)


@pytest.mark.parametrize("dps", [33, 20])
def test_pool_equals_in_process_points(dps, pooled_curve):
    recs, (*pooled, pooled_f0) = pooled_curve if dps == 33 else spied_r_curve(dps)
    assert multiprocessing.active_children() == []
    set_precision(dps)
    try:
        direct = [delta_f(replace(POOL_TEMPLATE, temperature_T=T)) for T in POOL_GRID]
        f0 = zero_temperature_energies(POOL_TEMPLATE)
        for a, b in zip(pooled, direct, strict=True):
            assert a.scans == b.scans
            assert all(a.delta_f(p) == b.delta_f(p) for p in ("tm", "te"))
            assert a.g_evals == b.g_evals
            assert a.seconds > 0
        assert pooled_f0 == f0
        assert [(float(r.T), r.pol) for r in recs] == [(T, p) for p in ("tm", "te")
                                                       for T in POOL_GRID]
        for rec in recs:
            res = direct[POOL_GRID.index(float(rec.T))]
            assert rec.dF_num == res.delta_f(rec.pol)
            assert rec.F_num == f0[rec.pol] + rec.dF_num
            assert rec.F_asym == f0[rec.pol] + rec.dF_th
    finally:
        set_precision(33)


def test_one_cpu_runs_in_process_with_the_same_values(monkeypatch, pooled_curve):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    recs = r_curve(POOL_TEMPLATE, POOL_GRID, "both")
    for a, b in zip(recs, pooled_curve[0], strict=True):
        for field in ("T", "F_num", "F_asym", "dF_num", "dF_th", "R", "pol"):
            assert getattr(a, field) == getattr(b, field), field
    f0 = zero_temperature_energies(POOL_TEMPLATE)
    direct = {T: delta_f(replace(POOL_TEMPLATE, temperature_T=T)) for T in POOL_GRID}
    for rec in recs:
        assert rec.dF_num == direct[float(rec.T)].delta_f(rec.pol)
        assert rec.F_num == f0[rec.pol] + rec.dF_num
    # no child process starts: every task runs in this one
    assert pid_per_task(monkeypatch) == [
        (os.getpid(), 0.1), (os.getpid(), 0.2), (os.getpid(), 0.3), (os.getpid(), "F0")]


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                    reason="the pool needs two CPUs; one runs the tasks in-process")
def test_pool_runs_each_point_in_a_worker_in_order(monkeypatch):
    results = pid_per_task(monkeypatch)
    assert [what for _, what in results] == [0.1, 0.2, 0.3, "F0"]
    assert os.getpid() not in {pid for pid, _ in results}
    assert multiprocessing.active_children() == []


def test_worker_exception_reaches_the_caller_with_its_type(monkeypatch):
    with pytest.raises(ValueError, match="requires T > 0"):
        run_points("F", [replace(POOL_TEMPLATE, temperature_T=0.0)] * 2)
    assert multiprocessing.active_children() == []

    def failing(system):
        if system.temperature_T == 0.2:
            raise PointFailure(f"no point at {system.temperature_T} K")
        return system.temperature_T

    monkeypatch.setattr(diagnostics, "free_energy", failing)
    systems = [replace(POOL_TEMPLATE, temperature_T=T) for T in (0.1, 0.2, 0.3, 0.4)]
    with pytest.raises(PointFailure, match="no point at 0.2 K"):
        run_points("F", systems)
    assert multiprocessing.active_children() == []
