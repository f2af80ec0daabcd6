"""Acceptance gate: the nine headline claims, one pass/fail line each.

Each criterion prints `criterion N: PASS|FAIL -- detail` before asserting,
so a red run still reports every line (run with -s or read captured
output).  The expensive fixtures (full temperature sweeps at 33 digits)
are computed once per module; expect minutes, not hours, on one core.
On a 2-core x86-64 machine the 14-point 2-20 mK TM grid of criterion 4
costs about 275 s of single-core time (the Matsubara cut-off grows to
M ~ 3000 at 2 mK) and the 0.01-0.1 K TE grid of criterion 5 about 100 s.

Each expansion is tested inside its own regime.  For si-paper the TM
series |dF| = D T^2 (1 - D1 T - kappa T^2 ...) has kappa ~ 17-20 K^-2,
driven by eps_bar, so kappa T^2 already matches D1 T at 20 mK; criterion 4
fits on 2-20 mK.  The TE expansion needs t << 1 (t = 0.82 at 1 K);
criterion 5 stays at t <= 0.082.  Both fixtures turn a ValidityWarning
into an error.
"""

import time
import warnings

import mpmath
import numpy as np
import pytest
from mpmath import mpf

from casimir_lowt.asymptotics import (ValidityWarning, delta_f_te, linear_anomaly,
                                      phi_constant, psi_constant)
from casimir_lowt.constants import alpha_param, mp_constants, reduced_temperature
from casimir_lowt.dielectric import IDEAL_METAL, SI_PAPER, DielectricModel
from casimir_lowt.diagnostics import (SweepRecord, TE_FIT_POWERS, fit_expansion,
                                      r_curve, r_slope, run_points,
                                      te_cube_comparison)
from casimir_lowt.lifshitz import (PlateSystem, Polarization, delta_f_direct,
                                   zero_temperature_energy)
from casimir_lowt.precision import set_precision
from oracles import (constant_a_integral, half_power_series_terms, levin_u_sum,
                     log_power_series_terms, psi_from_borel, te_closed_form_g1,
                     te_g1_quadrature)

A_M = 1e-6
SIGMA = 1e12
SI_EB1 = DielectricModel(eps_bar=1.0, omega0=8e15, four_pi_sigma=SIGMA)


def setup_module():
    set_precision(33)


def in_regime_curve(grid, pol):
    """r_curve on si-paper, failing if any point leaves the expansion regime."""
    template = PlateSystem(A_M, 1.0, SI_PAPER, Polarization(pol))
    with warnings.catch_warnings():
        warnings.simplefilter("error", ValidityWarning)
        return r_curve(template, grid, pol)


def report(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"criterion {n}: {detail}"


@pytest.fixture(scope="module")
def tm_records():
    grid = list(np.logspace(np.log10(0.02), np.log10(0.3), 14))
    template = PlateSystem(A_M, 1.0, SI_PAPER, Polarization.TM)
    return r_curve(template, grid, "tm")


@pytest.fixture(scope="module")
def tm_low_records():
    # t <= 0.016: below 20 mK the D1 T term outweighs kappa T^2
    return in_regime_curve(list(np.logspace(np.log10(0.002), np.log10(0.02), 14)),
                           "tm")


@pytest.fixture(scope="module")
def tm_eb1_records():
    grid = list(np.logspace(np.log10(0.02), np.log10(0.3), 14))
    results = run_points("dF", [PlateSystem(A_M, float(T), SI_EB1, Polarization.TM)
                                for T in grid])
    return [SweepRecord(T=mpf(T), F_num=None, F_asym=None, dF_num=res.delta_f("tm"),
                        dF_th=None, R=None, pol="tm")
            for T, res in zip(grid, results)]


@pytest.fixture(scope="module")
def te_records():
    # t <= 0.082: the TE expansion holds only for t << 1
    return in_regime_curve(list(np.logspace(np.log10(0.01), np.log10(0.1), 12)),
                           "te")


def test_criterion_1_constants():
    t0 = time.monotonic()
    psi = psi_constant()
    d_levin = abs(levin_u_sum(log_power_series_terms(16)).value - psi)
    d_borel = abs(psi_from_borel() - psi)
    d_phi = abs(levin_u_sum(half_power_series_terms(16)).value - phi_constant())
    elapsed = time.monotonic() - t0
    ok = (abs(psi - mpf("0.0304484570584")) < 1e-10
          and abs(phi_constant() - mpf("-0.0254852018898")) < 1e-10
          and d_levin < 1e-9 and d_borel < 1e-9 and d_phi < 1e-9
          and elapsed < 1.0)
    report(1, ok, f"Psi/Phi by Levin/Borel/closed form agree: "
                  f"|d|={mpmath.nstr(max(d_levin, d_borel, d_phi), 2)} "
                  f"(<1e-9), {elapsed:.2f} s")


def test_criterion_2_te_coefficients_seven_digits():
    res = delta_f_te(SIGMA, A_M, 0.0, eps_bar=11.67)
    c2 = res.coefficient(2)
    c52 = abs(res.coefficient("5/2"))
    r2 = abs(c2 / mpf("1.6185719e-19") - 1)
    r52 = abs(c52 / mpf("2.5844373e-22") - 1)
    ok = r2 < 5e-7 and r52 < 5e-7
    report(2, ok, f"TE C2, C5/2 vs reference to 7 digits: rel "
                  f"{mpmath.nstr(r2, 3)}, {mpmath.nstr(r52, 3)} "
                  "(5-digit agreement is reached; the 7th digit is not)")


def test_criterion_3_reduced_parameters():
    t1 = reduced_temperature(1.0, SIGMA)
    al = alpha_param(A_M, SIGMA)
    ok = abs(t1 - mpf("0.8227")) < 0.005 and abs(al - mpf("6.67e-3")) < 0.05e-3
    report(3, ok, f"t(1 K) = {mpmath.nstr(t1, 5)} (0.8227+-0.005), "
                  f"alpha(1 um) = {mpmath.nstr(al, 4)} (6.67e-3+-0.05e-3)")


@pytest.mark.slow
def test_criterion_4_tm_oracle_equivalence(tm_low_records):
    k = mp_constants()
    d_th = mpmath.pi ** 2 * k.k_B ** 2 / (72 * k.hbar * mpf(SIGMA) * mpf(A_M) ** 2)
    d1_th = 72 * mpmath.zeta(3) * k.k_B / (mpmath.pi ** 3 * k.hbar * mpf(SIGMA))
    # T^4 and T^5 are unresolvable below 20 mK; fitting them is ill-conditioned
    fit = fit_expansion(tm_low_records, extra_powers=(2.0, 3.0))
    rd = abs(fit.D / d_th - 1)
    rd1 = abs(fit.D1 / d1_th - 1)
    t_min = tm_low_records[0].T
    r0 = abs(tm_low_records[0].R)
    slope = abs(r_slope(tm_low_records))
    ok = rd < 0.01 and rd1 < 0.10 and r0 < 0.05 and slope < 0.5
    report(4, ok,
           f"TM fit D rel {mpmath.nstr(rd, 3)} (<0.01), "
           f"D1 rel {mpmath.nstr(rd1, 3)} (<0.10), "
           f"|R({mpmath.nstr(t_min, 3)} K)| = {mpmath.nstr(r0, 3)} (<0.05), "
           f"|dR/dT| = {mpmath.nstr(slope, 3)} (<0.5 /K)")


@pytest.mark.slow
def test_criterion_5_te_quadratic_and_cubic(te_records):
    c2_th = delta_f_te(SIGMA, A_M, 0.0, eps_bar=11.67).coefficient(2)
    fit = fit_expansion(te_records, extra_powers=TE_FIT_POWERS)
    rc2 = abs(fit.D / c2_th - 1)
    template = PlateSystem(A_M, 1.0, SI_PAPER, Polarization.TE)
    rows = te_cube_comparison(template, te_records)
    signs_ok = all(row["same_sign"] for row in rows)
    ratios = [row["ratio"] for row in rows]
    ratios_ok = all(mpf("0.2") <= r <= 5 for r in ratios)
    ok = rc2 < 0.01 and signs_ok and ratios_ok
    report(5, ok,
           f"TE fitted C2 rel {mpmath.nstr(rc2, 3)} (<0.01); residual/T^3 "
           f"sign ok at {sum(row['same_sign'] for row in rows)}/{len(rows)} "
           f"points; ratio range [{mpmath.nstr(min(ratios), 3)}, "
           f"{mpmath.nstr(max(ratios), 3)}] (needs [0.2, 5] everywhere)")


@pytest.mark.slow
def test_criterion_6_leading_coefficient_eps_bar_independent(tm_records,
                                                             tm_eb1_records):
    d_ref = fit_expansion(tm_records).D
    d_eb1 = fit_expansion(tm_eb1_records).D
    change = abs(d_eb1 / d_ref - 1)
    report(6, change < 0.01,
           f"fitted TM D changes by {mpmath.nstr(mpf(change), 3)} (<0.01) "
           "when eps_bar 11.67 -> 1")


def test_criterion_7_anomaly_limits():
    k = mp_constants()
    s1 = linear_anomaly(1.0, A_M, 1.0)["entropy"]
    want = k.k_B * mpmath.zeta(3) / (16 * mpmath.pi * mpf(A_M) ** 2)
    exact_ok = abs(s1 / want - 1) < 1e-25
    s_large = linear_anomaly(1e8, A_M, 1.0)["entropy"]
    # the bracket scales as 1/eps_bar, so "S -> 0" is an absolute statement:
    # |S| drops below 1e-12 J/(K m^2) (here by eight further decades)
    vanish_ok = abs(s_large) < mpf("1e-12") and abs(s_large) < 1e-6 * abs(s1)
    ok = exact_ok and vanish_ok
    report(7, ok, f"S(eps_bar=1) exact; |S(1e8)| = "
                  f"{mpmath.nstr(abs(s_large), 3)} J/(K m^2) (<1e-12, "
                  f"suppression {mpmath.nstr(abs(s_large / s1), 3)})")


def test_criterion_8_structural_identities():
    x = mpf("0.3")
    refl = abs(mpmath.polylog(2, x) + mpmath.polylog(2, 1 - x)
               - (mpmath.pi ** 2 / 6 - mpmath.log(x) * mpmath.log(1 - x)))
    rec = abs(x * mpmath.diff(lambda v: mpmath.polylog(3, v), x) - mpmath.polylog(2, x))
    integ = abs(constant_a_integral(mpf("0.5")) + mpmath.polylog(3, mpf("0.5")))
    te_cf = abs(te_closed_form_g1(mpf("0.01"), 11.67)
                / te_g1_quadrature(mpf("0.01"), 11.67) - 1)
    f0 = zero_temperature_energy(PlateSystem(A_M, 0.0, IDEAL_METAL))
    k = mp_constants()
    ideal = abs(f0 / (-mpmath.pi ** 2 * k.hbar * k.c / (720 * mpf(A_M) ** 3)) - 1)
    with_sigma = zero_temperature_energy(PlateSystem(A_M, 0.0, SI_PAPER,
                                                     Polarization.TM))
    without = zero_temperature_energy(
        PlateSystem(A_M, 0.0, DielectricModel(11.67, 8e15, 0.0), Polarization.TM))
    frac = without / with_sigma
    ok = (refl < 1e-25 and rec < 1e-20 and integ < 1e-12 and te_cf < 1e-10
          and ideal < 1e-6 and mpf("0.994") <= frac <= 1)
    report(8, ok,
           f"polylog identities {mpmath.nstr(max(refl, rec, integ), 2)}; "
           f"TE closed form vs quadrature {mpmath.nstr(te_cf, 2)} (<1e-10); "
           f"ideal-conductor limit rel {mpmath.nstr(ideal, 2)} (<1e-6); "
           f"static fraction of F(0) = {mpmath.nstr(frac, 4)} (0.994..1)")


@pytest.mark.slow
def test_criterion_9_sign_and_shape(tm_records):
    df = delta_f_direct(PlateSystem(A_M, 0.1, SI_PAPER, Polarization.BOTH))
    d2 = fit_expansion(tm_records).D2
    ok = df["tm"] < 0 and df["te"] > 0 and d2 < 0
    report(9, ok, f"dF_tm(0.1 K) < 0, dF_te(0.1 K) > 0, fitted TM D2 = "
                  f"{mpmath.nstr(mpf(d2), 3)} (< 0)")
