"""Core free-energy numerics: mode integrals, Matsubara summation, the
sum-minus-integral correction, and their limiting cases."""

import math
from functools import lru_cache

import mpmath
import pytest
from mpmath import mp, mpf

from casimir_lowt import (IDEAL_METAL, SI_EPSBAR1, SI_PAPER, DielectricModel,
                          PlateSystem, Polarization, PrecisionError, QuadratureSpec,
                          delta_f_direct, free_energy, zero_temperature_energy)
from casimir_lowt import abel_plana, asymptotics, lifshitz
from casimir_lowt.constants import mp_constants
from casimir_lowt.dielectric import PermittivityMode, permittivity, susceptibility
import oracles
from oracles import (CancellationError, ModeScan, constant_a_integral, endpoint_sum,
                     free_energy_scans, g_of_m, gl_panel)
from oracles import delta_f as delta_f_oracle
from oracles import free_energy as free_energy_oracle
from oracles import zero_temperature_energies as zero_temperature_oracle

SIGMA0_SI = DielectricModel(eps_bar=11.67, omega0=8e15, four_pi_sigma=0.0)
VACUUM = DielectricModel(eps_bar=1.0, omega0=8e15, four_pi_sigma=0.0)


def _hbar_c():
    return mpf("1.054571817e-34") * mpf("299792458")


# --- limiting cases ---------------------------------------------------------

def test_ideal_conductor_zero_temperature():
    # perfectly reflecting plates at T = 0: -pi^2 hbar c / (720 a^3)
    a = 1e-6
    f0 = zero_temperature_energy(PlateSystem(a, 0.0, IDEAL_METAL))
    ref = -mpmath.pi ** 2 * _hbar_c() / (720 * mpf(a) ** 3)
    assert abs(f0 / ref - 1) < 1e-6


def test_vacuum_plates_zero_energy():
    sys_ = PlateSystem(1e-6, 0.5, VACUUM)
    res = free_energy(sys_)
    assert res.total == 0
    assert zero_temperature_energy(sys_) == 0


def test_m0_te_vanishes_for_conductor():
    assert g_of_m(PlateSystem(1e-6, 0.1, SI_PAPER), 0, "te") == 0


def test_m0_tm_conductor_is_zeta3():
    assert abs(g_of_m(PlateSystem(1e-6, 0.1, SI_PAPER), 0, "tm")
               + mpmath.zeta(3)) < 1e-30


def test_m0_tm_dielectric_polylog_dual_route():
    # analytic: -Li_3(A0); quadrature: direct x-integral with constant A0
    sys_ = PlateSystem(1e-6, 0.1, SIGMA0_SI)
    a0 = (mpf("10.67") / mpf("12.67")) ** 2
    analytic = g_of_m(sys_, 0, "tm")
    assert abs(analytic + mpmath.polylog(3, a0)) < 1e-15  # eps_bar is a float literal
    quadrature = constant_a_integral(a0)
    assert abs(quadrature - analytic) < 1e-12


# --- mode integrals ---------------------------------------------------------

def test_mode_summand_negative_and_small_error():
    sys_ = PlateSystem(1e-6, 0.5, SI_PAPER, Polarization.TM)
    fine = PlateSystem(1e-6, 0.5, SI_PAPER, Polarization.TM,
                       quadrature=QuadratureSpec().refined())
    g = g_of_m(sys_, 3, "tm")
    g_fine = g_of_m(fine, 3, "tm")
    assert g_fine < 0
    assert abs(g_fine - g) < 1e-20 * abs(g_fine)


def test_g_decreasing_magnitude_in_m():
    # the conductivity pole makes |g| largest at m = 0
    sys_ = PlateSystem(1e-6, 0.1, SI_PAPER)
    vals = [abs(g_of_m(sys_, m, "tm")) for m in [0, 1, 10, 100, 1000]]
    assert all(a > b for a, b in zip(vals, vals[1:]))


# --- free energy ------------------------------------------------------------

def test_free_energy_total_is_sum_of_modes():
    res = free_energy(PlateSystem(1e-6, 1.0, SI_PAPER, Polarization.BOTH))
    assert res.total == res.per_mode["tm"] + res.per_mode["te"]
    assert res.total < 0
    assert res.m_truncation >= 30


def test_free_energy_attractive_and_monotone_in_separation():
    vals = []
    for a_um in (0.5, 1.0, 2.0):
        res = free_energy(PlateSystem(a_um * 1e-6, 1.0, SI_PAPER, Polarization.BOTH))
        assert res.total < 0
        vals.append(abs(res.total))
    assert vals[0] > vals[1] > vals[2]


def test_quadrature_doubling_stability():
    base = PlateSystem(1e-6, 0.5, SI_PAPER, Polarization.TM)
    fine = PlateSystem(1e-6, 0.5, SI_PAPER, Polarization.TM,
                       quadrature=QuadratureSpec().refined())
    f1 = free_energy(base).per_mode["tm"]
    f2 = free_energy(fine).per_mode["tm"]
    assert abs(f1 / f2 - 1) < 1e-10


def test_golden_tm_value_at_1k():
    # frozen from an independent adaptive-quadrature run at 50 digits
    res = free_energy(PlateSystem(1e-6, 1.0, SI_PAPER, Polarization.TM))
    golden = mpf("-1.076163173412597086806701e-10")
    assert abs(res.per_mode["tm"] / golden - 1) < 1e-12


def test_sigma0_has_no_linear_thermal_term():
    # with the conductivity exactly zero the m = 0 summand equals the m -> 0
    # limit, so no linear-in-T anomaly survives: the thermal shift at 1 mK
    # must sit far below the would-be linear scale
    sys_cold = PlateSystem(1e-6, 1e-3, SIGMA0_SI, Polarization.TM)
    f = free_energy(sys_cold).per_mode["tm"]
    f0 = zero_temperature_energy(sys_cold)
    a0 = (mpf("10.67") / mpf("12.67")) ** 2
    k_b = mpf("1.380649e-23")
    linear_scale = k_b * mpf("1e-3") * abs(mpmath.polylog(3, a0) - mpmath.zeta(3)) / \
        (16 * mpmath.pi * mpf("1e-6") ** 2)
    assert abs(f - f0) < linear_scale / 100


@pytest.mark.parametrize("T, material", [(0.015, SI_PAPER), (0.3, SI_PAPER), (0.3, SI_EPSBAR1)],
                         ids=["0.015", "0.3", "0.3-si-fig2"])
@pytest.mark.parametrize("pol", ["tm", "te"])
def test_zero_t_energy_matches_scan_at_conductivity_knee(pol, T, material):
    # F(0) = F(T) - dF(T) holds exactly in the continuum, and the oracle's
    # F - dF at one cut-off M is its scans' tail plus m-integral, accurate
    # to ~1e-18 here; so F(0)'s y-layout must resolve the conductivity
    # knee at y = alpha = 6.7e-3 just as well.  A sweep's F_num = F(0) + dF
    # rests on this agreement, on si-paper and on the eps_bar = 1 plate
    # that criterion 6 sweeps.  (The float64 F minus the table would bring
    # in F's M = 30 error, up to 1.5e-12 on si-fig2 at 0.3 K.)  F and dF
    # come from one integer-m pass, which they share.
    sys_ = PlateSystem(1e-6, T, material, Polarization(pol))
    f, df = oracles.free_energy_and_delta_f(sys_)
    via_scan = f[pol] - df[pol]
    f0 = zero_temperature_energy(sys_)
    assert abs(f0 / via_scan - 1) < 1e-13


def test_static_term_dominates_zero_t_energy():
    # switching sigma on top of eps_bar barely moves F(0): the static
    # dielectric response carries ~99.7% of it
    with_sigma = zero_temperature_energy(PlateSystem(1e-6, 0.0, SI_PAPER,
                                                     Polarization.TM))
    without = zero_temperature_energy(PlateSystem(1e-6, 0.0, SIGMA0_SI,
                                                  Polarization.TM))
    frac = float(without / with_sigma)
    assert 0.994 <= frac <= 1.0


# --- thermal correction -----------------------------------------------------

def test_delta_f_signs_at_small_t():
    df = delta_f_direct(PlateSystem(1e-6, 0.1, SI_PAPER, Polarization.BOTH))
    assert df["tm"] < 0
    assert df["te"] > 0


def test_delta_f_scales_like_t2():
    tm1 = delta_f_direct(PlateSystem(1e-6, 0.05, SI_PAPER, Polarization.TM))["tm"]
    tm2 = delta_f_direct(PlateSystem(1e-6, 0.1, SI_PAPER, Polarization.TM))["tm"]
    ratio = float(tm2 / tm1)
    assert 3.3 < ratio < 4.5  # ~4 with a modest T^3 enhancement


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("name", ["separation_a", "temperature_T"])
def test_plate_system_rejects_non_finite(name, value):
    fields = {"separation_a": 1e-6, "temperature_T": 0.1, name: value}
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        PlateSystem(material=SI_PAPER, **fields)


def _brown_maclay(T):
    """F(0) and F(T) - F(0) = F0 [45 zeta(3)/pi^3 tau^3 - tau^4] of ideal plates
    1 um apart, tau = 2 a k_B T / (hbar c), exponentially small terms dropped."""
    k = mp_constants()
    a = mpf(1e-6)
    f0 = -mpmath.pi ** 2 * k.hbar * k.c / (720 * a ** 3)
    tau = 2 * a * k.k_B * mpf(T) / (k.hbar * k.c)
    return f0, f0 * (45 * mpmath.zeta(3) / mpmath.pi ** 3 * tau ** 3 - tau ** 4)


@pytest.mark.parametrize("T", [0.3, 1.0])
def test_ideal_metal_delta_f_is_brown_maclay(T):
    # half per polarization, from the closed forms; the M = 30 scan was
    # 4.5e-8 off it
    _, ref = _brown_maclay(T)
    res = delta_f_direct(PlateSystem(1e-6, T, IDEAL_METAL))
    assert abs((res["tm"] + res["te"]) / ref - 1) < 1e-13
    assert res["tm"] == res["te"]


def test_ideal_metal_delta_f_keeps_its_digits_at_20_digits():
    # F(0)/dF = 3.2e10 at 0.3 K: dF taken as F - F(0) at 20 digits was
    # 1.3e-11 off its 33-digit value
    sys_ = PlateSystem(1e-6, 0.3, IDEAL_METAL)
    at_33 = delta_f_direct(sys_)
    mp.dps = 20
    at_20 = delta_f_direct(sys_)
    for pol in ("tm", "te"):
        assert abs(at_20[pol] / at_33[pol] - 1) < 1e-18, pol


@pytest.mark.parametrize("T", [250.0, 300.0, 600.0])
def test_ideal_metal_delta_f_above_the_tau_bound_is_the_scan(T, monkeypatch):
    # tau = 0.22, 0.26 and 0.52: Brown-Maclay drops terms of order
    # e^{-2 pi/tau}, 1.9e-9 of dF at 300 K, so dF is the n-sum's F minus the
    # closed-form F(0); the oracle is the scan's F at M = 240 minus F(0).
    # (The scan's own dF is 6.6-8.2e-21 off it here, with 96 nodes on its
    # m-panel on [0, 1] in sqrt(m); 48 left g's m^2 ln m head at 2.6-3.2e-17.)
    res = delta_f_direct(PlateSystem(1e-6, T, IDEAL_METAL))
    monkeypatch.setattr(lifshitz, "_truncation_m", lambda system: 240)
    f = free_energy_oracle(PlateSystem(1e-6, T, IDEAL_METAL, Polarization.TM))["tm"]
    ref = f - _brown_maclay(T)[0] / 2
    for pol in ("tm", "te"):
        assert abs(res[pol] / ref - 1) < 1e-28, pol


def test_oracle_delta_f_resolves_the_m_head(monkeypatch):
    # the scan's dF against its own F minus the closed-form F(0) of ideal
    # plates at 300 K, M = 240: 6.8e-21 with the oracle's 96 nodes on the
    # sqrt(m) head panel, 2.6e-17 with 48
    monkeypatch.setattr(lifshitz, "_truncation_m", lambda system: 240)
    f, df = oracles.free_energy_and_delta_f(PlateSystem(1e-6, 300.0, IDEAL_METAL,
                                                        Polarization.TM))
    ref = f["tm"] - _brown_maclay(300.0)[0] / 2
    assert abs(df["tm"] / ref - 1) < 1e-19


def test_ideal_metal_closed_forms_agree_at_the_tau_bound():
    # at IDEAL_METAL_TAU_MAX Brown-Maclay's dropped e^{-2 pi/tau} terms are
    # 5.0e-17 of dF: the n-sum's F - F(0) takes over within 1e-16
    k = mp_constants()
    a, tau = mpf(1e-6), asymptotics.IDEAL_METAL_TAU_MAX
    T = tau * k.hbar * k.c / (2 * a * k.k_B)
    f0, df = asymptotics.ideal_metal(a, T)
    f = asymptotics._ideal_metal_free_energy(a, k.k_B * T, tau)
    assert abs((2 * f - f0) / df - 1) < 1e-16


def test_ideal_metal_at_high_temperature_is_the_m_zero_mode():
    # at 1e7 K (tau = 8.7e3) every mode but m = 0 is e^{-2 pi tau} small: F
    # is its -zeta(3) k_B T / (16 pi a^2) per polarization
    k = mp_constants()
    a, T = mpf(1e-6), mpf(1e7)
    res = free_energy(PlateSystem(1e-6, 1e7, IDEAL_METAL))
    ref = -mpmath.zeta(3) * k.k_B * T / (16 * mpmath.pi * a ** 2)
    for pol in ("tm", "te"):
        assert abs(res.per_mode[pol] / ref - 1) < 1e-32, pol
    assert res.g_evals == 0 and res.m_truncation == 0


def test_ideal_metal_never_reaches_the_node_loop(monkeypatch):
    # F and dF of the ideal metal are closed forms at every T: no G of the
    # dielectric node loop, above the tau bound as below it
    def no_gs(*args):
        raise AssertionError("node loop called")

    monkeypatch.setattr(lifshitz, "_real_axis_gs", no_gs)
    sys_ = PlateSystem(1e-6, 300.0, IDEAL_METAL)
    assert free_energy(sys_).total < 0
    assert delta_f_direct(sys_)["tm"] < 0


@pytest.mark.parametrize("T", [0.3, 1.0])
@pytest.mark.parametrize("material", [SI_PAPER, SI_EPSBAR1], ids=["si-paper", "si-fig2"])
def test_delta_f_matches_the_oracle_at_m_240(material, T, monkeypatch):
    # the one-point Abel-Plana table against the scan with its cut-off
    # raised from 30 to 240; the scan at M = 30 is up to 1.3e-8 off (TE, 1 K)
    res = delta_f_direct(PlateSystem(1e-6, T, material))
    monkeypatch.setattr(lifshitz, "_truncation_m", lambda system: 240)
    ref = delta_f_oracle(PlateSystem(1e-6, T, material))
    for pol in ("tm", "te"):
        assert abs(res[pol] / ref[pol] - 1) < 1e-11, pol


def test_delta_f_requires_conductivity(monkeypatch):
    # no Abel-Plana table for lossless plates, refused before any H
    def no_h(*args):
        raise AssertionError("H computed")

    monkeypatch.setattr(abel_plana, "_h", no_h)
    with pytest.raises(ValueError, match="sigma > 0"):
        delta_f_direct(PlateSystem(1e-6, 0.3, SIGMA0_SI))


@pytest.mark.parametrize("T", [0.3, 1.0])
def test_ideal_metal_free_energy_is_brown_maclay(T):
    # F(0) + dF from the closed forms, no scan; the M = 30 scan was 1.4e-18
    # (0.3 K) and 5.2e-17 (1 K) off
    f0, df = _brown_maclay(T)
    res = free_energy(PlateSystem(1e-6, T, IDEAL_METAL))
    assert abs(res.total / (f0 + df) - 1) < 1e-25
    assert res.g_evals == 0 and res.m_truncation == 0


def test_delta_f_requires_positive_t():
    with pytest.raises(ValueError):
        delta_f_direct(PlateSystem(1e-6, 0.0, SI_PAPER, Polarization.TM))


def test_precision_guard_raises(monkeypatch):
    starved = ModeScan(M=30, sum_part=mpf("-250"), integral=mpf("-250"),
                       d1=mpf(0), d3=mpf(0), d5=mpf(0))
    # fabricate a scan whose difference is ~1e-20 of its parts: at 15 digits
    # nothing trustworthy survives
    starved.sum_part = mpf("-250") + mpf("1e-18")
    monkeypatch.setattr(oracles, "_mode_scans",
                        lambda s, pols: ({p: starved for p in pols}, 0))
    mp.dps = 15
    with pytest.raises(CancellationError):
        delta_f_oracle(PlateSystem(1e-6, 0.1, SI_PAPER, Polarization.TM))


def test_cut_off_beyond_limit_is_rejected_before_any_g(monkeypatch):
    # sigma/eps0 = 1e18 s^-1 at 0.5 K: M = 5/t = 12,156,625
    def no_g(*args):
        raise AssertionError("g(m) evaluated")

    monkeypatch.setattr(lifshitz, "_real_axis_gs", no_g)
    mat = DielectricModel(eps_bar=11.67, omega0=8e15, four_pi_sigma=1e18,
                          mode=PermittivityMode.LOW_FREQ)
    with pytest.raises(ValueError,
                       match=r"cut-off M = 12156625 at t = 4\.113e-7 exceeds 100000"):
        free_energy(PlateSystem(1e-6, 0.5, mat))


def test_shared_kernel_consistency():
    # F and dF rest on the same endpoint-corrected sum of the integer-m
    # pass: the oracle's F / pref minus its tail integral, dF / pref plus
    # the m-integral over [0, M]
    sys_ = PlateSystem(1e-6, 0.3, SI_PAPER, Polarization.TM)
    pref = oracles._prefactor(sys_)
    head = oracles.mode_scan(sys_, "tm")
    tail = free_energy_scans(sys_, ("tm",))[0]["tm"]
    assert (head.M, head.sum_part, head.d1, head.d3, head.d5) == \
        (tail.M, tail.sum_part, tail.d1, tail.d3, tail.d5)
    df = delta_f_oracle(sys_)["tm"]
    assert df == pref * head.delta_gamma
    from_f = free_energy_oracle(sys_)["tm"] / pref - tail.integral
    from_df = df / pref + head.integral
    assert abs(from_f - endpoint_sum(head)) < 1e-25 * abs(endpoint_sum(head))
    assert abs(from_df - endpoint_sum(head)) < 1e-25 * abs(endpoint_sum(head))


def test_each_route_integrates_only_its_side_of_m():
    # g(m) evaluations: the integers 0..M+3 (34 at M = 30), then F adds its
    # tail nodes (108, 9 panels of 12) and the oracle's dF scan its [0, M]
    # nodes (216: 96 on [0, 1] in sqrt(m), 5 panels of 24); at 15 mK TM's
    # scan makes 410 + 312 (M = 406).  Either route evaluating the other's
    # side fails.
    both = PlateSystem(1e-6, 0.85, SI_PAPER)
    assert free_energy(both).g_evals == 142
    assert oracles._mode_scans(both, ("tm", "te"))[1] == 250
    tm_cold = PlateSystem(1e-6, 0.015, SI_PAPER, Polarization.TM)
    assert oracles._mode_scans(tm_cold, ("tm",))[1] == 722


# --- bit-identity of the raw x-panel loop -------------------------------------
#
# oracles._x_integral runs on mpmath.libmp tuples over a per-precision node
# table.  The reference below is the same layout and integrand written with
# mpf objects and gl_panel; the kernel must reproduce it bit for bit.  The
# ideal metal has no x-quadrature in the kernel: its g is in closed form and
# is checked against this reference at doubled panel orders.

# The reference keeps the fixed cut-off x = 256 of the original layout; the
# kernel stops at its precision horizon instead, since every panel beyond it
# adds exact zeros.
X_CUT = 256

# uncached Gauss-Legendre nodes behind their own cache, so that a kernel table
# kept at the wrong precision cannot hide behind a shared one
_reference_nodes = lru_cache(oracles._gauss_legendre_cached.__wrapped__)


def _reference_x_integral(f, xmin, nodes):
    total = mpf(0)
    if xmin < 1:
        u0 = mpmath.log(xmin)
        npan = max(1, int(mp.ceil(-u0 / 2)))
        du = -u0 / npan
        g2 = lambda u: (lambda xx: xx * f(xx))(mpmath.exp(u))
        for i in range(npan):
            total += gl_panel(g2, u0 + i * du, u0 + (i + 1) * du, nodes)
        lo = mpf(1)
    else:
        lo = xmin
    b = lo
    while b < X_CUT:
        nb = min(b * 2 if b > 2 else b + 2, mpf(X_CUT))
        total += gl_panel(f, b, nb, nodes)
        b = nb
    return total


def _reference_g_at_frequency(system, zeta, pol):
    k = mp_constants()
    xmin = 2 * mpf(system.separation_a) * mpf(zeta) / k.c
    if xmin >= X_CUT:
        return mpf(0)
    mat = system.material
    if mat.mode is PermittivityMode.IDEAL_METAL:
        f = lambda x: x * mpmath.log(-mpmath.expm1(-x))
    else:
        ep = permittivity(mat, zeta)
        zfac = xmin * xmin * (ep - 1)

        def f(x):
            z = zfac / (x * x)
            s = mpmath.sqrt(1 + z)
            r = (ep - s) / (ep + s) if pol == "tm" else -z / (1 + s) ** 2
            return x * mpmath.log(1 - r * r * mpmath.exp(-x))
    return _reference_x_integral(f, xmin, _reference_nodes(system.quadrature.nx, mp.prec))


def _reference_g(system, m, pol):
    k = mp_constants()
    zeta = 2 * mpmath.pi * mpf(m) * k.k_B * mpf(system.temperature_T) / k.hbar
    return _reference_g_at_frequency(system, zeta, pol)


def _xmin_per_m(system):
    k = mp_constants()
    return (4 * mpmath.pi * mpf(system.separation_a) * k.k_B
            * mpf(system.temperature_T) / (k.hbar * k.c))


def _m_grid(system):
    # integer m on the log-panel branch (x_min ~ 8e-5 m at 15 mK), non-integer
    # m with x_min = 0.6 on it too, then x_min from 1.93 to past X_CUT on the
    # branch whose panels start at x_min
    xm1 = _xmin_per_m(system)
    return list(range(1, 41)) + [c / xm1 for c in (0.6, 1.93, 2.5, 3.37, 47.1, 200.5, 300)]


@pytest.mark.parametrize("pol", ["tm", "te"])
@pytest.mark.parametrize("material", [SI_PAPER, SI_EPSBAR1], ids=["si-paper", "si-fig2"])
def test_g_bit_identical_to_reference(material, pol):
    sys_ = PlateSystem(1e-6, 0.015, material)
    for m in _m_grid(sys_):
        assert g_of_m(sys_, m, pol) == _reference_g(sys_, m, pol), m


@pytest.mark.parametrize("xmin", ["0.55", "0.6", "0.8"])
def test_g_below_x_one_matches_refined_panels(xmin):
    # log panels up to x = 1 for every x_min < 1: a first panel [x_min, x_min + 2]
    # this close to x = 0 puts g_TE of the eps_bar = 1 plate 1e-11 relative off
    k = mp_constants()
    zeta = mpf(xmin) * k.c / (2 * mpf(1e-6))
    sys_ = PlateSystem(1e-6, 0.3, SI_EPSBAR1)
    fine = PlateSystem(1e-6, 0.3, SI_EPSBAR1, quadrature=QuadratureSpec(nx=32))
    g, = oracles._g_at_frequency(sys_, zeta, ("te",))
    ref, = oracles._g_at_frequency(fine, zeta, ("te",))
    assert abs(g / ref - 1) < 1e-14


@pytest.mark.parametrize("lo, edges", [
    (1.0, [1.0]),
    (2.0, [1.0]),
    (math.nextafter(0.5, 0), [math.nextafter(0.5, 0), 0.5, 1.0])],
    ids=["lo-is-top", "lo-above-top", "lo-just-under-half"])
def test_halvings_makes_only_positive_width_panels(lo, edges):
    # the Abel-Plana table halves from u down to the integrand's smallest
    # scale, which can be u itself: then there is no panel, not [u, u]
    assert lifshitz._halvings(1.0, lo) == edges


@pytest.mark.parametrize("lo, edges", [
    (0.3, [0.3, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 45]),
    (1.0, [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 45]),
    (1.5, [1.5, 3.0, 6.0, 12.0, 24.0, 45]),
    (30.0, [30.0, 45]),
    (45.0, [45.0]),
    (50.0, [50.0])],
    ids=["below-1", "at-1", "above-1", "last-panel", "at-the-end", "past-the-end"])
def test_real_axis_edges_halve_below_1_and_double_above(lo, edges):
    assert lifshitz._real_axis_edges(lo) == edges


def test_g_walks_doubling_x_panels_past_x_1(monkeypatch):
    # 6 x-panels from x = 1 to 45, not 22 of width 2, and 12-node m- and
    # y-panels: 30,976 x-nodes for one F(0) pass on si-paper and 26,432
    # for F on si-paper plus si-fig2 at 0.85 K, both polarizations
    panels = lifshitz._real_axis_panels
    count = [0]

    def spy(*args):
        nodes = panels(*args)
        count[0] += len(nodes)
        return nodes

    monkeypatch.setattr(lifshitz, "_real_axis_panels", spy)
    lifshitz.zero_temperature_energies(PlateSystem(1e-6, 0.0, SI_PAPER))
    assert count[0] <= 31_000
    count[0] = 0
    for material in (SI_PAPER, SI_EPSBAR1):
        free_energy(PlateSystem(1e-6, 0.85, material))
    assert count[0] <= 26_500


OFF_PRESET_CASES = {
    "a-0.1um": (1e-7, SI_PAPER),
    "a-10um": (1e-5, SI_PAPER),
    "sigma-1e10": (1e-6, DielectricModel(eps_bar=11.67, omega0=8e15, four_pi_sigma=1e10)),
    "sigma-1e14": (1e-6, DielectricModel(eps_bar=11.67, omega0=8e15, four_pi_sigma=1e14)),
    "sigma-0": (1e-6, SIGMA0_SI),
}


@pytest.mark.parametrize("case", list(OFF_PRESET_CASES))
def test_off_the_presets_f_and_f0_match_doubled_x_orders(case):
    # the x-layout's error off the presets: F at 0.3 and 5 K and F(0)
    # against the same calls with 32 nodes per x-panel, within about twice
    # the measured difference (5.6e-16 for each, rounding); 8 nodes per
    # panel past x = 1 (16 at nx = 32) would be off by 7e-11 to 9e-11
    a, material = OFF_PRESET_CASES[case]
    fine = QuadratureSpec(nx=32)
    f0 = lifshitz.zero_temperature_energies(PlateSystem(a, 0.0, material))
    ref = lifshitz.zero_temperature_energies(PlateSystem(a, 0.0, material, quadrature=fine))
    for pol in ("tm", "te"):
        assert abs(f0[pol] / ref[pol] - 1) < 1.2e-15, ("F(0)", pol)
    for T in (0.3, 5.0):
        f = free_energy(PlateSystem(a, T, material)).per_mode
        ref = free_energy(PlateSystem(a, T, material, quadrature=fine)).per_mode
        for pol in ("tm", "te"):
            assert abs(f[pol] / ref[pol] - 1) < 1.2e-15, (T, pol)


M_ORDER_CASES = {
    "si-paper": (1e-6, SI_PAPER),
    "si-fig2": (1e-6, SI_EPSBAR1),
    **OFF_PRESET_CASES,
    "lowfreq": (1e-6, DielectricModel(eps_bar=11.67, omega0=8e15, four_pi_sigma=1e12,
                                      mode=PermittivityMode.LOW_FREQ)),
    "eps-3-a-3um": (3e-6, DielectricModel(eps_bar=3.0, omega0=8e15, four_pi_sigma=1e12)),
}


@pytest.mark.parametrize("case", list(M_ORDER_CASES))
def test_f_and_f0_match_doubled_m_and_y_orders(case):
    # the m- and y-layout's error: F from 15 mK to 30 K and F(0) against
    # the same calls with 96 nodes on F(0)'s sqrt(y) panel and 48 per
    # doubling panel, within about twice the largest measured difference
    # (4.2e-16); 10 nodes per doubling panel are up to 4.9e-15 off, 8 up
    # to 4.3e-12
    a, material = M_ORDER_CASES[case]
    fine = QuadratureSpec(nm_unit=96, nm_geo=48)
    f0 = lifshitz.zero_temperature_energies(PlateSystem(a, 0.0, material))
    ref = lifshitz.zero_temperature_energies(PlateSystem(a, 0.0, material, quadrature=fine))
    for pol in ("tm", "te"):
        assert abs(f0[pol] / ref[pol] - 1) < 1e-15, ("F(0)", pol)
    for T in (0.015, 0.3, 0.85, 30.0):
        f = free_energy(PlateSystem(a, T, material)).per_mode
        ref = free_energy(PlateSystem(a, T, material, quadrature=fine)).per_mode
        for pol in ("tm", "te"):
            assert abs(f[pol] / ref[pol] - 1) < 1e-15, (T, pol)


@pytest.mark.parametrize("y", [3.0, 7.0])
def test_g_keeps_its_digits_where_eps_is_close_to_1(y):
    # si-fig2 (eps_bar = 1) at a = 1 um has eps - 1 = 6.7e-3 / y.  Taken
    # from a rounded eps, eps - 1 put G 1.3e-13 (y = 3) and 3.1e-13 (y = 7)
    # off a 30-digit integral over the same x-panels on the model's own
    # eps - 1; from `susceptibility`, with r_TM's numerator (eps - 1) -
    # z/(1 + s), at most 6.5e-16
    sys_ = PlateSystem(1e-6, 0.0, SI_EPSBAR1)
    gs, = lifshitz._real_axis_gs(sys_, [y], ("tm", "te"), "G")
    mp.dps = 30
    zeta = y * float(mp_constants().c) / 2e-6
    chi = susceptibility(SI_EPSBAR1, mpf(zeta))
    for pol, g in zip(("tm", "te"), gs):
        def integrand(x):
            z = (y / x) ** 2 * chi
            s = mpmath.sqrt(1 + z)
            r = (1 + chi - s) / (1 + chi + s) if pol == "tm" else -z / (1 + s) ** 2
            return x * mpmath.log1p(-r * r * mpmath.exp(-x))
        ref = mpmath.quad(integrand, lifshitz._real_axis_edges(y))
        assert abs(g / ref - 1) < 2e-15, pol


@pytest.mark.parametrize("T", [0.015, 0.85])
def test_ideal_metal_g_closed_form_matches_refined_reference(T):
    sys_ = PlateSystem(1e-6, T, IDEAL_METAL)
    fine = PlateSystem(1e-6, T, IDEAL_METAL, quadrature=QuadratureSpec().refined())
    tol = mpf("1e-30") * mpmath.zeta(3)
    for m in _m_grid(sys_):
        assert abs(g_of_m(sys_, m, "tm") - _reference_g(fine, m, "tm")) < tol, m
    # towards m = 0 it joins -zeta(3), the m = 0 value, less the missing
    # integral_0^{x0} x ln x dx = x0^2 (ln x0 - 1/2) / 2 (the next term is x0^3)
    x0 = _xmin_per_m(sys_) * mpf("1e-12")
    near_zero = lifshitz._g_zero(sys_, "tm") - x0 * x0 * (mpmath.log(x0) - mpf(1) / 2) / 2
    assert abs(g_of_m(sys_, mpf("1e-12"), "tm") - near_zero) < tol


def test_zero_temperature_g_bit_identical_to_reference(monkeypatch):
    sys_ = PlateSystem(1e-6, 0.0, SI_PAPER)
    per_pol = {"tm": [], "te": []}
    kernel = oracles._g_at_frequency

    def spy(system, zeta, pols):
        gs = kernel(system, zeta, pols)
        for pol, g in zip(pols, gs):
            per_pol[pol].append((zeta, pol, g))
        return gs
    monkeypatch.setattr(oracles, "_g_at_frequency", spy)
    zero_temperature_oracle(sys_)
    calls = per_pol["tm"] + per_pol["te"]
    assert len(calls) == 864
    for zeta, pol, g in calls[::6]:
        assert g == _reference_g_at_frequency(sys_, zeta, pol), (zeta, pol)


@pytest.mark.parametrize("a_sq", ["0.5", "1"])
def test_constant_a_integral_bit_identical_to_reference(a_sq):
    a = mpf(a_sq)
    f = lambda x: x * mpmath.log(1 - a * mpmath.exp(-x))
    ref = _reference_x_integral(f, mpmath.exp(mpf(-40)),
                                _reference_nodes(QuadratureSpec().nx, mp.prec))
    assert constant_a_integral(a) == ref


def test_precision_change_rebuilds_node_tables():
    # prec 112 and 113 both read as 33 digits: a table keyed on digits, or on
    # the panel order alone, would serve nodes of another precision
    si = PlateSystem(1e-6, 0.015, SI_PAPER)
    xm1 = _xmin_per_m(si)
    for attr, value in (("dps", 33), ("dps", 50), ("dps", 20), ("dps", 33), ("prec", 112)):
        setattr(mp, attr, value)
        for sys_, m, pol in ((si, 3, "tm"), (si, 3, "te"), (si, mpf("1.7") / xm1, "tm")):
            assert g_of_m(sys_, m, pol) == _reference_g(sys_, m, pol), (attr, value)


@pytest.mark.parametrize("dps", [33, 150, "float"])
def test_gauss_legendre_exact_to_working_precision(dps):
    # n nodes integrate x^k over [-1, 1] exactly for k < 2n; at 150 digits
    # the Newton steps from the cosine seed must go on past six.  "float" is
    # the package's float64 rule, which every panel of F, F(0) and dF takes
    if dps == "float":
        rules = {n: lifshitz.gauss_legendre(n) for n in (1, 2, 12, 16, 24, 48)}
        one, total, tol = 1.0, sum, 1e-14
    else:
        mp.dps = dps
        rules = {n: oracles.gauss_legendre(n) for n in (1, 2, 5, 16, 48)}
        one, total, tol = mpf(1), mpmath.fsum, mpf(10) ** (3 - dps)
    for n, nodes in rules.items():
        assert [x for x, _ in nodes] == sorted(x for x, _ in nodes)
        for k in range(2 * n):
            exact = 2 * one / (k + 1) if k % 2 == 0 else 0
            assert abs(total(w * x ** k for x, w in nodes) - exact) < tol


@pytest.mark.parametrize("dps", [15, 33, 50])
def test_float_gauss_legendre_is_the_oracle_rule_at_53_bits(dps):
    # the package's float64 rule is the oracle's mpf rule at 53 bits, node for
    # node and bit for bit, whatever the working precision
    mp.dps = dps
    for n in (1, 2, 10, 12, 16, 24, 32, 48, 96):
        with mp.workprec(53):
            reference = [(float(x), float(w)) for x, w in oracles.gauss_legendre(n)]
        assert lifshitz.gauss_legendre(n) == reference, n


# F and F(0) at a = 1 um, (T, F_tm, F_te) in J/m^2 with T = 0 for F(0): the
# float64 kernel's values, frozen to the bit
FROZEN_ENERGIES = {
    "si-paper": (SI_PAPER, [
        (0.02, -1.0754079196349259e-10, -2.3332572306481642e-11),
        (0.3, -1.0755456813946467e-10, -2.333257229327611e-11),
        (1.0, -1.0761631734125978e-10, -2.3332572163364478e-11),
        (0.0, -1.0754069423836221e-10, -2.33325723065455e-11)]),
    "si-fig2": (SI_EPSBAR1, [
        (0.02, -3.497356637392925e-13, -9.059202172097427e-17),
        (0.3, -3.690129338623974e-13, -9.057980359731762e-17),
        (1.0, -5.030096622237501e-13, -9.048887135678873e-17),
        (0.0, -3.496373064610234e-13, -9.059208553482741e-17)]),
}


@pytest.mark.parametrize("case", list(FROZEN_ENERGIES))
def test_f_and_f0_are_the_frozen_values(case):
    # a change of node order, panel layout or rule that moves F or F(0) by
    # one bit shows here
    material, rows = FROZEN_ENERGIES[case]
    for T, f_tm, f_te in rows:
        system = PlateSystem(1e-6, T, material)
        values = (lifshitz.zero_temperature_energies(system) if T == 0
                  else free_energy(system).per_mode)
        assert (float(values["tm"]), float(values["te"])) == (f_tm, f_te), T


# --- one kernel pass for every polarization -----------------------------------

@pytest.mark.parametrize("T", [0.015, 0.85])
@pytest.mark.parametrize("material", [SI_PAPER, SI_EPSBAR1, IDEAL_METAL],
                         ids=["si-paper", "si-fig2", "ideal-metal-check"])
def test_joint_scan_equals_single_polarization_scans(material, T):
    both = free_energy(PlateSystem(1e-6, T, material, Polarization.BOTH))
    both_df = delta_f_direct(PlateSystem(1e-6, T, material, Polarization.BOTH))
    for pol in ("tm", "te"):
        single = free_energy(PlateSystem(1e-6, T, material, Polarization(pol)))
        single_df = delta_f_direct(PlateSystem(1e-6, T, material, Polarization(pol)))
        assert both.per_mode[pol] == single.per_mode[pol]
        assert both_df[pol] == single_df[pol]
        # one g(m) evaluation serves both polarizations
        assert both.g_evals == single.g_evals


def test_joint_zero_temperature_energy_is_tm_plus_te():
    for material in (SI_PAPER, IDEAL_METAL):
        f0 = {pol: zero_temperature_energy(PlateSystem(1e-6, 0.0, material, pol))
              for pol in (Polarization.BOTH, Polarization.TM, Polarization.TE)}
        assert f0[Polarization.BOTH] == f0[Polarization.TM] + f0[Polarization.TE]
        # the one joint pass gives each polarization its one-polarization F(0)
        joint = lifshitz.zero_temperature_energies(PlateSystem(1e-6, 0.0, material))
        assert joint == {"tm": f0[Polarization.TM], "te": f0[Polarization.TE]}


# --- F(0) on the float64 real-axis kernel ---------------------------------------

F0_CASES = {
    "si-paper": (1e-6, SI_PAPER),
    "si-fig2": (1e-6, SI_EPSBAR1),
    "sigma-0": (1e-6, SIGMA0_SI),
    "a-0.1um": (1e-7, SI_PAPER),
    "alpha-above-1": (1e-6, DielectricModel(eps_bar=11.67, omega0=8e15, four_pi_sigma=1e16)),
}


@pytest.mark.parametrize("case", list(F0_CASES))
def test_zero_temperature_energy_matches_the_oracle(case):
    # the float64 F(0) against the y-integral of the scan's kernel at 33 digits
    a, material = F0_CASES[case]
    sys_ = PlateSystem(a, 0.0, material)
    f0 = lifshitz.zero_temperature_energies(sys_)
    ref = zero_temperature_oracle(sys_)
    for pol in ("tm", "te"):
        assert abs(f0[pol] / ref[pol] - 1) < 1e-13, pol


def test_zero_temperature_energy_is_float64_at_any_working_precision():
    sys_ = PlateSystem(1e-6, 0.0, SI_PAPER)
    at_33 = lifshitz.zero_temperature_energies(sys_)
    assert all(v == float(v) for v in at_33.values())
    mp.dps = 20
    assert lifshitz.zero_temperature_energies(sys_) == at_33


def test_ideal_metal_zero_temperature_is_the_closed_form():
    a = 1e-6
    f0 = zero_temperature_energy(PlateSystem(a, 0.0, IDEAL_METAL))
    ref = -mpmath.pi ** 2 * _hbar_c() / (720 * mpf(a) ** 3)
    assert abs(f0 / ref - 1) < 1e-30


def test_non_finite_g_in_zero_temperature_energy_is_a_precision_error(monkeypatch):
    monkeypatch.setattr(lifshitz, "susceptibility", lambda model, zeta: mpf("nan"))
    with pytest.raises(PrecisionError, match=r"tm: G\(y = .*\) = nan in F\(0\)"):
        zero_temperature_energy(PlateSystem(1e-6, 0.0, SI_PAPER, Polarization.TM))


def test_ideal_metal_g_same_for_both_polarizations():
    sys_ = PlateSystem(1e-6, 0.015, IDEAL_METAL)
    xm1 = _xmin_per_m(sys_)
    for m in [0, 1, 7, 40] + [c / xm1 for c in (0.6, 2.5, 47.1)]:
        assert g_of_m(sys_, m, "tm") == g_of_m(sys_, m, "te"), m


# --- F on the float64 real-axis kernel -------------------------------------------

@pytest.mark.parametrize("T", [0.015, 0.3, 0.85])
@pytest.mark.parametrize("material", [SI_PAPER, SI_EPSBAR1, SIGMA0_SI],
                         ids=["si-paper", "si-fig2", "sigma-0"])
def test_free_energy_matches_the_oracle(material, T):
    # the float64 sum against the 33-digit mode scan it replaced, at the
    # same cut-off M (406 at 15 mK on si-paper and si-fig2, else 30)
    sys_ = PlateSystem(1e-6, T, material)
    res = free_energy(sys_)
    ref = free_energy_oracle(sys_)
    for pol in ("tm", "te"):
        assert abs(res.per_mode[pol] / ref[pol] - 1) < 1e-13, pol


@pytest.mark.parametrize("T", [250.0, 300.0, 600.0])
def test_ideal_metal_free_energy_above_the_tau_bound_is_the_scan(T, monkeypatch):
    # the n-sum, with no cut-off, against the oracle at M = 240
    res = free_energy(PlateSystem(1e-6, T, IDEAL_METAL))
    monkeypatch.setattr(lifshitz, "_truncation_m", lambda system: 240)
    ref = free_energy_oracle(PlateSystem(1e-6, T, IDEAL_METAL))
    for pol in ("tm", "te"):
        assert abs(res.per_mode[pol] / ref[pol] - 1) < 1e-30, pol
    assert res.m_truncation == 0 and res.g_evals == 0


@pytest.mark.parametrize("case", [(0.85, SI_PAPER)], ids=["si-paper"])
def test_free_energy_is_float64_at_any_working_precision(case):
    sys_ = PlateSystem(1e-6, *case)
    at_33 = free_energy(sys_).per_mode
    assert all(v == float(v) for v in at_33.values())
    mp.dps = 20
    assert free_energy(sys_).per_mode == at_33


def test_ideal_metal_free_energy_is_at_the_working_precision():
    # the n-sum above the tau bound is an mpf at the working precision, as
    # Brown-Maclay is below it
    sys_ = PlateSystem(1e-6, 300.0, IDEAL_METAL)
    at_33 = free_energy(sys_).per_mode
    mp.dps = 20
    at_20 = free_energy(sys_).per_mode
    for pol in ("tm", "te"):
        assert at_20[pol] != float(at_20[pol])
        assert abs(at_20[pol] / at_33[pol] - 1) < 1e-18, pol


def test_free_energy_never_calls_the_mode_scan_kernel(monkeypatch):
    # the 33-digit kernel is the oracles' now; F must not reach for the
    # other kernel the package has either, the Abel-Plana table's H
    def no_kernel(*args):
        raise AssertionError("H computed")

    monkeypatch.setattr(abel_plana, "_h", no_kernel)
    for material in (SI_PAPER, SIGMA0_SI):
        assert free_energy(PlateSystem(1e-6, 0.85, material)).total < 0
    assert free_energy(PlateSystem(1e-6, 300.0, IDEAL_METAL)).total < 0


def test_non_finite_g_in_free_energy_is_a_precision_error(monkeypatch):
    monkeypatch.setattr(lifshitz, "susceptibility", lambda model, zeta: mpf("nan"))
    with pytest.raises(PrecisionError, match=r"tm: G\(y = .*\) = nan in F$"):
        free_energy(PlateSystem(1e-6, 0.85, SI_PAPER, Polarization.TM))
