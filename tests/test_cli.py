"""Command-line interface: subcommands, exit codes, reproducibility."""

import dataclasses
import json
import multiprocessing

import mpmath
import pytest

from casimir_lowt import diagnostics, lifshitz
from casimir_lowt.cli import (EXIT_ASSERT, EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, _summary, fmt,
                              main)
from casimir_lowt.config import PRESETS, ConfigError, RunConfig, parse_config
from casimir_lowt.diagnostics import SweepRecord, theory_correction
from casimir_lowt.lifshitz import PlateSystem


CHEAP_TM = """\
[material]
eps_bar = 11.67
omega0 = 8e15
sigma_over_eps0 = 1e12

[geometry]
separation_um = 1.0

[run]
temperatures = 0.5 0.7
polarization = tm
"""


@pytest.fixture
def tm_config(tmp_path):
    p = tmp_path / "tm.ini"
    p.write_text(CHEAP_TM)
    return str(p)


# --- happy paths -------------------------------------------------------------

def test_energy_csv(tm_config, capsys):
    code = main(["energy", "--config", tm_config, "--no-timestamp"])
    out = capsys.readouterr().out.splitlines()
    assert code == EXIT_OK
    assert out[0] == "T_K,F_tm,F_total,m_truncation"
    assert len(out) == 3
    for line in out[1:]:
        fields = line.split(",")
        assert float(fields[1]) < 0
        assert int(fields[-1]) >= 30


def test_energy_json(tm_config, capsys):
    code = main(["energy", "--config", tm_config, "--format", "json", "--no-timestamp"])
    assert code == EXIT_OK
    rows = json.loads(capsys.readouterr().out)
    assert [r["T_K"] for r in rows] == [0.5, 0.7]
    assert set(rows[0]) == {"T_K", "F_tm", "F_total", "m_truncation"}


def test_energy_ideal_metal_preset(capsys):
    code = main(["energy", "--preset", "ideal-metal-check", "--no-timestamp"])
    assert code == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "T_K,F_tm,F_te,F_total,m_truncation"
    total = float(out[1].split(",")[3])
    # within a few percent of -pi^2 hbar c / (720 a^3) at 1 K, 1 um
    assert abs(total / -4.3337526e-10 - 1) < 0.05


def test_sweep_csv_header(tm_config, capsys):
    code = main(["sweep", "--config", tm_config, "--no-timestamp"])
    out = capsys.readouterr().out.splitlines()
    assert code == EXIT_OK
    assert out[0] == "T_K,F_num,F_asym,dF_num,dF_th,R,pol"
    assert len(out) == 3
    assert all(line.endswith(",tm") for line in out[1:])


def test_asymptotics_json(tm_config, capsys):
    code = main(["asymptotics", "--config", tm_config, "--pol", "both",
                 "--format", "json", "--no-timestamp"])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert [t["power_of_T"] for t in payload["tm"]["terms"]] == ["2", "3"]
    assert [t["power_of_T"] for t in payload["te"]["terms"]] == ["2", "5/2", "3"]
    assert payload["tm"]["t3_correction_ratio"] == pytest.approx(2.78e-6, rel=1e-2)
    assert payload["tm"]["terms"][0]["coefficient"] == pytest.approx(
        -2.4777509624486278e-13, rel=1e-12)


def test_anomaly(tm_config, capsys):
    code = main(["anomaly", "--config", tm_config, "--no-timestamp"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "NONZERO" in out
    assert "entropy" in out


def test_anomaly_json(tm_config, capsys):
    code = main(["anomaly", "--config", tm_config, "--format", "json", "--no-timestamp"])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"eps_bar", "a0", "T_K", "free_energy", "entropy", "anomalous"}
    assert payload["eps_bar"] == 11.67
    assert payload["T_K"] == 0.5
    assert payload["anomalous"] is True
    assert payload["entropy"] != 0


@pytest.mark.parametrize("pol", ["tm", "te"])
@pytest.mark.parametrize("t_min, t_max, noted", [(0.1, 1.0, True), (0.01, 0.1, False)])
def test_sweep_summary_notes_grid_outside_regime(pol, t_min, t_max, noted, capsys):
    # closed-form records, no scan: si-paper reaches t = 0.823 at 1 K, 0.0823 at 0.1 K
    cfg = dataclasses.replace(PRESETS["si-paper"], t_min=t_min, t_max=t_max,
                              points_per_decade=6, polarization=pol)
    th = theory_correction(PlateSystem(cfg.separation_m, 0.0, cfg.material), pol)
    curve = [SweepRecord(T=mpmath.mpf(T), F_num=None, F_asym=None,
                         dF_num=th.evaluate(T) * (1 + T / 100), dF_th=th.evaluate(T),
                         R=-mpmath.mpf(T) / 100, pol=pol, theory=th,
                         dR_dT=-mpmath.mpf(1) / 100) for T in cfg.grid()]
    _summary(cfg, curve, pol)
    summary = [line for line in capsys.readouterr().err.splitlines() if line.startswith("# ")]
    assert len(summary) > 1 and "skipped" not in "".join(summary)
    noted_lines = [line for line in summary if "outside t <= 0.1" in line]
    assert noted_lines == (summary[:1] if noted else [])
    if noted:
        assert summary[0].endswith("; grid reaches t = 0.822597, outside t <= 0.1")


def test_rdiag_te_warns_small_alpha(tm_config, capsys):
    code = main(["rdiag", "--config", tm_config, "--pol", "te", "--no-timestamp"])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    assert "small alpha" in captured.err
    assert captured.out.startswith("T_K,")


def test_rdiag_assert_fails_on_steep_slope(tmp_path, capsys):
    # at these temperatures |R| is small but dR/dT exceeds the 0.5 /K gate
    p = tmp_path / "c.ini"
    p.write_text(CHEAP_TM.replace("0.5 0.7", "0.05 0.06 0.07"))
    code = main(["rdiag", "--config", str(p), "--assert", "--no-timestamp"])
    captured = capsys.readouterr()
    assert code == EXIT_ASSERT
    assert "assertion failed" in captured.err


@pytest.mark.parametrize("preset, code, failed", [
    ("si-fig2", EXIT_OK, []),
    ("si-paper", EXIT_ASSERT, ["assertion failed: tm: |dR/dT| = 0.6142 >= 0.5 /K"])],
    ids=["si-fig2", "si-paper"])
def test_rdiag_assert_on_the_presets(preset, code, failed, capsys):
    # si-paper's R(0.02 K) = 0.0067 passes; its dR/dT = 0.614 /K does not
    assert main(["rdiag", "--preset", preset, "--assert", "--no-timestamp"]) == code
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if line.startswith("assertion failed")] == failed


def test_rdiag_assert_runs_on_a_two_point_grid(tm_config, capsys):
    # dR/dT needs no neighbouring points: the gate runs, where it was a usage
    # error.  R(0.5 K) = 0.414 fails it, named as the summary names T_min;
    # dR/dT = 0.41 /K passes
    assert main(["rdiag", "--config", tm_config, "--assert", "--no-timestamp"]) == EXIT_ASSERT
    err = capsys.readouterr().err.splitlines()
    assert not [line for line in err if line.startswith("error:")]
    assert [line for line in err if line.startswith("assertion failed")] == [
        "assertion failed: tm: |R(0.5 K)| = 0.414 >= 0.05"]


def test_sweep_and_rdiag_write_the_same_records(tm_config, capsys):
    assert main(["sweep", "--config", tm_config, "--no-timestamp"]) == EXIT_OK
    sweep = capsys.readouterr()
    assert main(["rdiag", "--config", tm_config, "--no-timestamp"]) == EXIT_OK
    rdiag = capsys.readouterr()
    assert sweep.out.encode() == rdiag.out.encode()


def test_sweep_both_is_tm_then_te(tm_config, capsys):
    # stdout is TM's records then TE's; stderr's summaries are in that order
    runs = {}
    for pol in ("both", "tm", "te"):
        assert main(["sweep", "--config", tm_config, "--pol", pol, "--no-timestamp"]) == EXIT_OK
        runs[pol] = capsys.readouterr()
    tm_out, te_out = runs["tm"].out.splitlines(), runs["te"].out.splitlines()
    assert runs["both"].out.splitlines() == tm_out + te_out[1:]
    summary = {pol: [line for line in run.err.splitlines() if line.startswith("# ")]
               for pol, run in runs.items()}
    assert summary["both"] == summary["tm"] + summary["te"]


def test_sweep_summary_skipped_on_short_grid(tm_config, capsys):
    # two points: R and dR/dT are the records' own, but too few for the fit (6)
    assert main(["sweep", "--config", tm_config, "--no-timestamp"]) == EXIT_OK
    summary = [line for line in capsys.readouterr().err.splitlines()
               if line.startswith("# ")]
    assert summary == ["# tm: R(0.5 K) = 0.41401, dR/dT = 0.4118 /K; "
                       "grid reaches t = 0.575818, outside t <= 0.1",
                       "# tm: skipped: need at least 6 records"]


def fake_points(monkeypatch):
    """Every point's dF and F(0) is -1 J/m^2 per polarization: no table is built."""
    monkeypatch.setattr(diagnostics, "delta_f_table",
                        lambda s, ts: {p: [(-1.0, 0.0)] * len(ts)
                                       for p in s.polarization.modes()})
    monkeypatch.setattr(diagnostics, "zero_temperature_energies",
                        lambda s: {p: mpmath.mpf(-1) for p in s.polarization.modes()})


def test_sweep_warnings_are_one_line_each(tm_config, monkeypatch, capsys):
    # the sweep reaches t = 0.41 and 0.58; its closed form is built once, at 0.58
    fake_points(monkeypatch)
    assert main(["sweep", "--config", tm_config, "--no-timestamp"]) == EXIT_OK
    err = capsys.readouterr().err
    assert [line.split(" > ")[0] for line in err.splitlines() if line.startswith("warning: ")] == [
        "warning: t = 0.5758"]
    assert ".py:" not in err


def test_preset_sweep_warns_once_per_polarization(monkeypatch, capsys):
    # 43 points on 0.02-1 K, 23 of them beyond t = 0.1
    fake_points(monkeypatch)
    assert main(["sweep", "--preset", "si-paper", "--no-timestamp"]) == EXIT_OK
    captured = capsys.readouterr()
    assert len(captured.out.splitlines()) == 87
    assert [line.split(" (")[0].split(" > ")[0] for line in captured.err.splitlines()
            if line.startswith("warning: ")] == [
        "warning: t = 0.8226", "warning: t = 0.8226",
        "warning: TE R-diagnostic unfeasible at small alpha"]


def test_sweep_prints_tm_fit_summary(tmp_path, capsys):
    # 7 points on 0.1-1 K: one more record than the default basis has parameters
    p = tmp_path / "fit.ini"
    p.write_text(CHEAP_TM.replace("temperatures = 0.5 0.7",
                                  "t_min = 0.1\nt_max = 1.0\npoints_per_decade = 6"))
    code = main(["sweep", "--config", str(p), "--no-timestamp"])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    assert len(captured.out.splitlines()) == 8
    summary = [line for line in captured.err.splitlines() if line.startswith("# ")]
    assert [line.split(" = ")[0] for line in summary] == [
        "# tm: R(0.1 K)", "# tm fit: D", "# tm fit: D1", "# tm fit: D2"]
    assert "dR/dT = " in summary[0]
    assert all("(theory " in line for line in summary[1:3])


def test_output_file_and_reproducibility(tm_config, tmp_path):
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sweep", "--config", tm_config, "--no-timestamp",
                 "--out", str(f1)]) == EXIT_OK
    assert main(["sweep", "--config", tm_config, "--no-timestamp",
                 "--out", str(f2)]) == EXIT_OK
    assert f1.read_bytes() == f2.read_bytes()


def test_timestamp_line(tm_config, tmp_path):
    f = tmp_path / "t.csv"
    assert main(["sweep", "--config", tm_config, "--out", str(f)]) == EXIT_OK
    assert f.read_text().startswith("# generated ")


# --- exit-code discipline ----------------------------------------------------

def test_config_and_preset_conflict(tm_config, capsys):
    assert main(["energy", "--config", tm_config,
                 "--preset", "si-paper"]) == EXIT_CONFIG
    assert "not both" in capsys.readouterr().err


def test_missing_config(capsys):
    assert main(["energy"]) == EXIT_CONFIG


def test_unknown_preset_rejected_by_parser():
    with pytest.raises(SystemExit) as exc:
        main(["energy", "--preset", "nope"])
    assert exc.value.code == 2


def test_bad_config_file(tmp_path, capsys):
    p = tmp_path / "bad.ini"
    p.write_text("[run]\npolarization = sideways\n")
    assert main(["energy", "--config", str(p)]) == EXIT_CONFIG
    assert "polarization" in capsys.readouterr().err


def test_unreadable_config(capsys):
    assert main(["energy", "--config", "/nonexistent.ini"]) == EXIT_CONFIG


def test_unwritable_output_is_config_error(tm_config, tmp_path, capsys):
    out = tmp_path / "missing" / "x.csv"
    code = main(["asymptotics", "--config", tm_config, "--out", str(out)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write output: ")
    assert "Traceback" not in err
    assert not out.exists()


def test_asymptotics_sigma_zero_is_config_error(tmp_path, capsys):
    p = tmp_path / "s0.ini"
    p.write_text(CHEAP_TM.replace("sigma_over_eps0 = 1e12",
                                  "sigma_over_eps0 = 0"))
    code = main(["asymptotics", "--config", str(p), "--pol", "tm"])
    assert code == EXIT_CONFIG
    assert "sigma" in capsys.readouterr().err


def test_precision_failure_exits_3(tm_config, nan_table, capsys):
    code = main(["sweep", "--config", tm_config, "--no-timestamp"])
    captured = capsys.readouterr()
    assert code == EXIT_NUMERICAL
    # after the one ValidityWarning of the grid's closed form
    assert captured.err.splitlines()[-1].startswith("numerical failure: tm: H(u = ")
    assert captured.out == ""
    assert multiprocessing.active_children() == []


def test_non_finite_g_in_energy_exits_3(tm_config, monkeypatch, capsys):
    monkeypatch.setattr(lifshitz, "susceptibility", lambda model, zeta: mpmath.mpf("nan"))
    assert main(["energy", "--config", tm_config, "--no-timestamp"]) == EXIT_NUMERICAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numerical failure: tm: G(y = ")


def test_lossless_te_sweep_is_config_error(tmp_path, nan_table, capsys):
    # sigma = 0 has a TE closed form, but no Abel-Plana table: refused before any H
    p = tmp_path / "s0.ini"
    p.write_text(CHEAP_TM.replace("sigma_over_eps0 = 1e12", "sigma_over_eps0 = 0"))
    assert main(["sweep", "--config", str(p), "--pol", "te", "--no-timestamp"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].startswith("error: the Abel-Plana table needs sigma > 0")


@pytest.mark.parametrize("source", ["ideal-metal-check", "sigma0"])
def test_refused_sweep_prints_only_its_error(source, tmp_path, capsys):
    # no closed form or no table: no data follows, so no "data emitted anyway" warning
    if source == "sigma0":
        p = tmp_path / "s0.ini"
        p.write_text(CHEAP_TM.replace("sigma_over_eps0 = 1e12", "sigma_over_eps0 = 0"))
        args = ["--config", str(p), "--pol", "both"]
    else:
        args = ["--preset", source]
    assert main(["sweep", *args, "--no-timestamp"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ")


def test_sweep_past_xm1_2_prints_only_its_error(tmp_path, nan_table, capsys):
    # xm1(547 K) = 3 at a = 1 um: the table refuses the grid before any H,
    # and before any closed form warns that t is far outside its regime
    p = tmp_path / "hot.ini"
    p.write_text(CHEAP_TM.replace("temperatures = 0.5 0.7", "temperatures = 1 547"))
    assert main(["sweep", "--config", str(p), "--pol", "both", "--no-timestamp"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: xm1 = 3.002 > 2 at the grid's hottest point")
    assert "casimir-lowt energy" in captured.err


def test_sweep_refused_by_the_table_prints_no_data_warning(tmp_path, capsys):
    # alpha = 6.7e-3 is small, the grid reaches t = 0.16, and omega0 = 1e12
    # s^-1 lies inside the table (8 zeta_1(0.2 K) = 1.3e12 s^-1): the table
    # refuses the sweep, so only the error follows, with neither the
    # t-regime warnings nor "data emitted anyway"
    p = tmp_path / "inside.ini"
    p.write_text(CHEAP_TM.replace("omega0 = 8e15", "omega0 = 1e12")
                 .replace("temperatures = 0.5 0.7", "temperatures = 0.02 0.2"))
    assert main(["sweep", "--config", str(p), "--pol", "both", "--no-timestamp"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert not [line for line in captured.err.splitlines() if line.startswith("warning: ")]
    assert captured.err.splitlines()[-1].startswith("error: omega0 = ")
    assert captured.err.endswith("inside the Abel-Plana table\n")


def test_asymptotics_of_the_ideal_metal_is_config_error(capsys):
    assert main(["asymptotics", "--preset", "ideal-metal-check"]) == EXIT_CONFIG
    assert capsys.readouterr().err == "error: no closed-form correction for the ideal-metal limit\n"


def test_cut_off_beyond_limit_is_config_error(tmp_path, monkeypatch, capsys):
    # sigma/eps0 = 1e18 s^-1 at 0.5 K: M = 5/t = 12,156,625
    def no_g(*args):
        raise AssertionError("g(m) evaluated")

    monkeypatch.setattr(lifshitz, "_real_axis_gs", no_g)
    p = tmp_path / "m.ini"
    p.write_text(CHEAP_TM.replace("sigma_over_eps0 = 1e12",
                                  "sigma_over_eps0 = 1e18\nmodel = lowfreq")
                 .replace("0.5 0.7", "0.5"))
    assert main(["energy", "--config", str(p), "--no-timestamp"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cut-off M = 12156625 at t = 4.113e-7 exceeds 100000")


@pytest.mark.parametrize("line, value", [("temperatures = 0.5 0.7", "inf"),
                                         ("temperatures = 0.5 0.7", "nan"),
                                         ("separation_um = 1.0", "nan")])
def test_non_finite_input_is_config_error(tmp_path, capsys, line, value):
    p = tmp_path / "nf.ini"
    p.write_text(CHEAP_TM.replace(line, line.split("=")[0] + "= " + value))
    assert main(["energy", "--config", str(p), "--no-timestamp"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be" in captured.err and "finite" in captured.err


def test_run_works_at_33_digits_whatever_the_environment(tm_config, monkeypatch):
    # the closed forms and the fit run at the default 33 digits, whatever
    # the process held before and whatever the environment says
    monkeypatch.setenv("CASIMIR_PRECISION", "20")
    mpmath.mp.dps = 15
    assert main(["asymptotics", "--config", tm_config, "--no-timestamp"]) == EXIT_OK
    assert mpmath.mp.dps == 33


def test_anomaly_rejects_ideal_metal(capsys):
    assert main(["anomaly", "--preset", "ideal-metal-check"]) == EXIT_CONFIG


# --- config parsing ----------------------------------------------------------

def test_parse_validation():
    with pytest.raises(ConfigError):
        parse_config("[geometry]\nseparation_um = -1\n")
    with pytest.raises(ConfigError):
        parse_config("[run]\nformat = yaml\n")
    with pytest.raises(ConfigError):
        parse_config("not an ini file at all [")
    for points in (0, -5):
        with pytest.raises(ConfigError, match="points_per_decade"):
            parse_config(f"[run]\nt_min = 0.1\nt_max = 1.0\npoints_per_decade = {points}\n")


@pytest.mark.parametrize("text, match", [
    ("[run]\npolarisation = tm\ntemperatures = 0.5\n", "unknown key 'polarisation' in \\[run\\]"),
    ("[run]\nprecision = 10\ntemperatures = 0.5\n", "unknown key 'precision' in \\[run\\]"),
    ("[geometery]\nseparation_um = 2\n", "unknown section \\[geometery\\]"),
    ("[DEFAULT]\npolarization = tm\n", "unknown section \\[DEFAULT\\]")],
    ids=["typo", "old-precision-key", "misspelt-section", "default-section"])
def test_unknown_keys_and_sections_refused(text, match, tmp_path, capsys):
    # a key or section the program does not read would otherwise run as
    # its default without a word: `polarisation = tm` as both
    with pytest.raises(ConfigError, match=match):
        parse_config(text)
    p = tmp_path / "typo.ini"
    p.write_text(text)
    assert main(["sweep", "--config", str(p), "--no-timestamp"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == "" and "unknown" in captured.err


@pytest.mark.parametrize("field, value", [("temperatures", (0.5, float("nan"))),
                                          ("temperatures", (float("inf"),)),
                                          ("t_min", float("nan")),
                                          ("t_max", float("inf"))])
def test_grid_rejects_non_finite(field, value):
    fields = {"t_min": 0.1, "t_max": 1.0, field: value}
    cfg = RunConfig(material=PRESETS["si-paper"].material, **fields)
    with pytest.raises(ConfigError, match=f"{field} must be finite"):
        cfg.grid()


@pytest.mark.parametrize("points", [0, -5])
def test_grid_built_in_code_rejects_points_per_decade_below_one(points):
    cfg = RunConfig(material=PRESETS["si-paper"].material, t_min=0.1, t_max=1.0,
                    points_per_decade=points)
    with pytest.raises(ValueError, match="points_per_decade"):
        cfg.grid()


def test_grid_requires_range_or_list():
    cfg = parse_config("[material]\neps_bar = 2\n")
    with pytest.raises(ConfigError):
        cfg.grid()


def test_fmt_17_digits():
    assert fmt(None) == ""
    assert len(fmt(1.0 / 3.0).replace("0.", "")) == 17
