"""Command-line interface: subcommands, exit codes, reproducibility."""

import json

import mpmath
import pytest

from casimir_lowt.cli import (EXIT_ASSERT, EXIT_CONFIG, EXIT_OK, fmt, main)
from casimir_lowt.config import (PRESETS, ConfigError, RunConfig, parse_config,
                                 serialize_config)
from casimir_lowt.precision import set_precision


def teardown_module():
    set_precision(33)


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
    code = main(["energy", "--config", tm_config, "--format", "json",
                 "--no-timestamp"])
    assert code == EXIT_OK
    rows = json.loads(capsys.readouterr().out)
    assert [r["T_K"] for r in rows] == [0.5, 0.7]
    assert set(rows[0]) == {"T_K", "F_tm", "F_total", "m_truncation", "est_error"}


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


def test_verify_constants(capsys):
    code = main(["verify-constants", "--no-timestamp"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "status: OK" in out
    assert "Psi Borel" in out and "Phi Levin" in out


def test_anomaly(tm_config, capsys):
    code = main(["anomaly", "--config", tm_config, "--no-timestamp"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "NONZERO" in out
    assert "entropy" in out


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


def test_sweep_and_rdiag_write_the_same_records(tm_config, capsys):
    assert main(["sweep", "--config", tm_config, "--no-timestamp"]) == EXIT_OK
    sweep = capsys.readouterr()
    assert main(["rdiag", "--config", tm_config, "--no-timestamp"]) == EXIT_OK
    rdiag = capsys.readouterr()
    assert sweep.out.encode() == rdiag.out.encode()


def test_sweep_summary_skipped_on_short_grid(tm_config, capsys):
    # two points: too few for dR/dT (3) and for the fit (6)
    assert main(["sweep", "--config", tm_config, "--no-timestamp"]) == EXIT_OK
    summary = [line for line in capsys.readouterr().err.splitlines()
               if line.startswith("# ")]
    assert summary == ["# tm: skipped: need at least 3 records"]


def test_sweep_prints_tm_fit_summary(tmp_path, capsys):
    # 7 points on 0.1-1 K: one more record than the default basis has parameters
    p = tmp_path / "fit.ini"
    p.write_text(CHEAP_TM.replace("temperatures = 0.5 0.7",
                                  "t_min = 0.1\nt_max = 1.0\npoints_per_decade = 6"))
    code = main(["sweep", "--config", str(p), "--precision", "20", "--no-timestamp"])
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


def test_asymptotics_sigma_zero_is_config_error(tmp_path, capsys):
    p = tmp_path / "s0.ini"
    p.write_text(CHEAP_TM.replace("sigma_over_eps0 = 1e12",
                                  "sigma_over_eps0 = 0"))
    code = main(["asymptotics", "--config", str(p), "--pol", "tm"])
    assert code == EXIT_CONFIG
    assert "sigma" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["asymptotics", "verify-constants"])
def test_precision_zero_rejected(command, capsys):
    argv = [command, "--precision", "0"]
    if command != "verify-constants":
        argv += ["--preset", "si-paper"]
    assert main(argv) == EXIT_CONFIG
    assert "working precision must be >= 15 digits" in capsys.readouterr().err


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


def test_precision_comes_from_config_not_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("CASIMIR_PRECISION", "20")
    assert set_precision() == 33
    p = tmp_path / "p.ini"
    p.write_text(CHEAP_TM + "precision = 25\n")
    try:
        assert main(["asymptotics", "--config", str(p), "--no-timestamp"]) == EXIT_OK
        assert mpmath.mp.dps == 25
    finally:
        set_precision(33)


def test_anomaly_rejects_ideal_metal(capsys):
    assert main(["anomaly", "--preset", "ideal-metal-check"]) == EXIT_CONFIG


# --- config round-trips ------------------------------------------------------

@pytest.mark.parametrize("name", sorted(PRESETS))
def test_preset_serialization_round_trip(name):
    cfg = PRESETS[name]
    assert parse_config(serialize_config(cfg)) == cfg


def test_parse_validation():
    with pytest.raises(ConfigError):
        parse_config("[geometry]\nseparation_um = -1\n")
    with pytest.raises(ConfigError):
        parse_config("[run]\nprecision = 10\n")
    with pytest.raises(ConfigError):
        parse_config("[run]\nformat = yaml\n")
    with pytest.raises(ConfigError):
        parse_config("not an ini file at all [")


@pytest.mark.parametrize("field, value", [("temperatures", (0.5, float("nan"))),
                                          ("temperatures", (float("inf"),)),
                                          ("t_min", float("nan")),
                                          ("t_max", float("inf"))])
def test_grid_rejects_non_finite(field, value):
    fields = {"t_min": 0.1, "t_max": 1.0, field: value}
    cfg = RunConfig(material=PRESETS["si-paper"].material, **fields)
    with pytest.raises(ConfigError, match=f"{field} must be finite"):
        cfg.grid()


def test_grid_requires_range_or_list():
    cfg = parse_config("[material]\neps_bar = 2\n")
    with pytest.raises(ConfigError):
        cfg.grid()


def test_fmt_17_digits():
    assert fmt(None) == ""
    assert len(fmt(1.0 / 3.0).replace("0.", "")) == 17
