"""Command-line surface.

Subcommands:
    energy            free energy at each configured temperature
    sweep             sweep records (F, dF, R) on stdout, fit summary on stderr
    rdiag             the same sweep; --assert gates TM R(T_min) and dR/dT
    asymptotics       closed-form correction terms and values
    anomaly           sigma = 0 linear term and residual entropy

Exit codes: 0 success, 1 assertion/tolerance failure, 2 usage or config
error, 3 numerical failure.  Output is reproducible: identical config ->
byte-identical file, modulo the timestamp line (suppress with
--no-timestamp).
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import json
import sys
import warnings

import mpmath
from mpmath import mpf

from . import asymptotics, diagnostics
from .config import PRESETS, ConfigError, RunConfig, load_config
from .constants import alpha_param, reduced_temperature
from .dielectric import PermittivityMode
from .lifshitz import PlateSystem, Polarization, PrecisionError, free_energy
from .precision import set_precision

EXIT_OK = 0
EXIT_ASSERT = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def fmt(x) -> str:
    """17 significant digits: lossless for any double-representable value."""
    if x is None:
        return ""
    return mpmath.nstr(mpf(x), 17, strip_zeros=False)


class Output:
    def __init__(self, path: str | None, timestamp: bool):
        self.path = path
        self.lines: list[str] = []
        if timestamp:
            self.lines.append(f"# generated {datetime.datetime.now(datetime.timezone.utc).isoformat()}")

    def emit(self, line: str) -> None:
        self.lines.append(line)

    def close(self) -> None:
        text = "\n".join(self.lines) + "\n"
        if self.path:
            try:
                with open(self.path, "w", encoding="utf-8") as fh:
                    fh.write(text)
            except OSError as exc:
                raise ConfigError(f"cannot write output: {exc}") from exc
        else:
            sys.stdout.write(text)


def _resolve_config(args) -> RunConfig:
    if args.config and args.preset:
        raise ConfigError("give either --config or --preset, not both")
    if args.config:
        cfg = load_config(args.config)
    elif args.preset:
        cfg = PRESETS[args.preset]   # the parser admits only PRESETS' names
    else:
        raise ConfigError("a --config file or --preset is required")
    updates = {"polarization": args.pol, "out": args.out, "format": args.format}
    return dataclasses.replace(cfg, **{k: v for k, v in updates.items() if v is not None})


def _system(cfg: RunConfig, T: float) -> PlateSystem:
    return PlateSystem(separation_a=cfg.separation_m, temperature_T=T,
                       material=cfg.material,
                       polarization=Polarization(cfg.polarization))


def cmd_energy(cfg: RunConfig, out: Output) -> int:
    rows = []
    for T in cfg.grid():
        res = free_energy(_system(cfg, T))
        rows.append({"T_K": float(T),
                     **{f"F_{p}": float(v) for p, v in res.per_mode.items()},
                     "F_total": float(res.total),
                     "m_truncation": res.m_truncation})
    if cfg.format == "json":
        out.emit(json.dumps(rows, indent=2))
    else:
        pols = Polarization(cfg.polarization).modes()
        out.emit("T_K," + ",".join(f"F_{p}" for p in pols) + ",F_total,m_truncation")
        for r in rows:
            out.emit(",".join([fmt(r["T_K"])] + [fmt(r[f"F_{p}"]) for p in pols]
                              + [fmt(r["F_total"]), str(r["m_truncation"])]))
    return EXIT_OK


def _emit_records(records, cfg: RunConfig, out: Output) -> None:
    if cfg.format == "json":
        out.emit(json.dumps([
            {"T_K": float(r.T), "F_num": float(r.F_num), "F_asym": float(r.F_asym),
             "dF_num": float(r.dF_num), "dF_th": float(r.dF_th),
             "R": None if r.R is None else float(r.R), "pol": r.pol}
            for r in records], indent=2))
        return
    out.emit("T_K,F_num,F_asym,dF_num,dF_th,R,pol")
    for r in records:
        out.emit(",".join([fmt(r.T), fmt(r.F_num), fmt(r.F_asym), fmt(r.dF_num),
                           fmt(r.dF_th), "" if r.R is None else fmt(r.R), r.pol]))


def cmd_asymptotics(cfg: RunConfig, out: Output) -> int:
    mat = cfg.material
    payload = {}
    for pol in Polarization(cfg.polarization).modes():
        th = diagnostics.theory_correction(_system(cfg, 0.0), pol)
        payload[pol] = {"terms": th.as_records(),
                        "values": {fmt(T): float(th.evaluate(T)) for T in cfg.grid()}}
        if pol == "tm":
            payload[pol]["t3_correction"] = asymptotics.delta_f_tm_correction(0.0).as_records()
            payload[pol]["t3_correction_ratio"] = float(
                asymptotics.tm_correction_ratio(mat.four_pi_sigma, cfg.separation_m))
    if cfg.format == "json":
        out.emit(json.dumps(payload, indent=2))
    else:
        out.emit("pol,power_of_T,coefficient")
        for pol, data in payload.items():
            for term in data["terms"]:
                out.emit(f"{pol},{term['power_of_T']},{fmt(term['coefficient'])}")
        out.emit("pol,T_K,dF_th")
        for pol, data in payload.items():
            for tk, v in data["values"].items():
                out.emit(f"{pol},{tk},{fmt(v)}")
    return EXIT_OK


def cmd_anomaly(cfg: RunConfig, out: Output) -> int:
    mat = cfg.material
    if mat.mode is PermittivityMode.IDEAL_METAL:
        raise ConfigError("anomaly analysis needs a dielectric (sigma = 0) material")
    grid = cfg.grid() if (cfg.temperatures or cfg.t_min is not None) else [1.0]
    res = asymptotics.linear_anomaly(mat.eps_bar, cfg.separation_m, grid[0])
    anomalous = abs(res["entropy"]) > 0
    if cfg.format == "json":
        out.emit(json.dumps({"eps_bar": float(mat.eps_bar), "a0": float(res["a0"]),
                             "T_K": float(grid[0]), "free_energy": float(res["free_energy"]),
                             "entropy": float(res["entropy"]), "anomalous": anomalous},
                            indent=2))
        return EXIT_OK
    out.emit(f"eps_bar                 : {fmt(mat.eps_bar)}")
    out.emit(f"A0                      : {fmt(res['a0'])}")
    out.emit(f"linear F at T={grid[0]} K : {fmt(res['free_energy'])} J/m^2")
    out.emit(f"entropy S(T=0)          : {fmt(res['entropy'])} J/(K m^2)")
    out.emit("residual entropy is " + ("NONZERO: thermodynamic anomaly present"
                                       if anomalous else "zero"))
    return EXIT_OK


def cmd_sweep(cfg: RunConfig, out: Output, check: bool = False) -> int:
    """`sweep` and `rdiag`: the records on stdout and a summary per
    polarization on stderr; with check (`rdiag --assert`), exit 1 unless
    the TM |R(T_min)| < 0.05 and |dR/dT| < 0.5 /K."""
    pols = Polarization(cfg.polarization).modes()
    records = diagnostics.r_curve(_system(cfg, 1.0), cfg.grid(), cfg.polarization)
    # only now: r_curve refuses some sweeps (sigma = 0, a resonance inside
    # the table), and no data follows those
    if "te" in pols and alpha_param(cfg.separation_m, cfg.material.four_pi_sigma) < mpf("0.05"):
        print("warning: TE R-diagnostic unfeasible at small alpha "
              "(correction terms nearly degenerate); data emitted anyway",
              file=sys.stderr)
    failures = []
    for pol in pols:
        curve = [r for r in records if r.pol == pol]
        _summary(cfg, curve, pol)
        if check and pol == "tm":
            r0, slope = curve[0].R, curve[0].dR_dT
            if abs(r0) >= mpf("0.05"):
                failures.append(f"tm: |R({_short(curve[0].T)} K)| = "
                                f"{mpmath.nstr(abs(r0), 4)} >= 0.05")
            if abs(slope) >= mpf("0.5"):
                failures.append(f"tm: |dR/dT| = {mpmath.nstr(abs(slope), 4)} >= 0.5 /K")
    _emit_records(records, cfg, out)
    if failures:
        for f in failures:
            print(f"assertion failed: {f}", file=sys.stderr)
        return EXIT_ASSERT
    return EXIT_OK


def _summary(cfg: RunConfig, curve, pol: str):
    """Write one polarization's summary of its sweep records to stderr: for
    TM R(T_min) and dR/dT at T_min, the records' own, then the fitted D,
    D1, D2; for TE the residual vs T^3 comparison and the fitted C2; each
    against the closed form that the records carry.  A grid too short for
    the fit ends it with one `skipped:` line; the lines before it are
    written on any grid.  When the grid reaches beyond the expansions'
    regime, t <= 0.1, the first line says so.
    """
    th = curve[0].theory
    sigma = cfg.material.four_pi_sigma
    t_max = reduced_temperature(curve[-1].T, sigma) if sigma > 0 else 0
    regime = (f"; grid reaches t = {_short(t_max)}, outside t <= 0.1"
              if t_max > asymptotics.T_REGIME_MAX else "")
    try:
        if pol == "tm":
            _note(f"tm: R({_short(curve[0].T)} K) = {_short(curve[0].R)}, "
                  f"dR/dT = {_short(curve[0].dR_dT)} /K{regime}")
            fit = diagnostics.fit_expansion(curve)
            d = -th.coefficient(2)
            _note(f"tm fit: {_vs_theory('D', fit.D, d)}")
            _note(f"tm fit: {_vs_theory('D1', fit.D1, th.coefficient(3) / d)}")
            _note(f"tm fit: D2 = {_short(fit.D2)}")
        else:
            rows = diagnostics.te_cube_comparison(curve)
            ratios = [row["ratio"] for row in rows]
            _note(f"te: residual/|C3 T^3| has the sign of C3 at "
                  f"{sum(row['same_sign'] for row in rows)}/{len(rows)} points, "
                  f"ratio in [{_short(min(ratios))}, {_short(max(ratios))}]{regime}")
            fit = diagnostics.fit_expansion(curve, diagnostics.TE_FIT_POWERS)
            _note(f"te fit: {_vs_theory('C2', fit.D, th.coefficient(2))}")
    except (diagnostics.FitError, ValueError) as exc:
        _note(f"{pol}: skipped: {exc}")


def _short(x) -> str:
    """6 significant digits, for the stderr summary."""
    return mpmath.nstr(mpf(x), 6)


def _vs_theory(name: str, fitted, theory) -> str:
    rel = "" if theory == 0 else f", rel {_short(mpf(fitted) / theory - 1)}"
    return f"{name} = {_short(fitted)} (theory {_short(theory)}{rel})"


def _note(line: str) -> None:
    print(f"# {line}", file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="casimir-lowt",
                                description="Free energy of weakly conducting plates: "
                                            "numerics, closed-form corrections, diagnostics")
    sub = p.add_subparsers(dest="command", required=True)
    for name, help_ in [("energy", "free energy at configured temperatures"),
                        ("sweep", "full sweep: F, corrections, R"),
                        ("asymptotics", "closed-form correction coefficients"),
                        ("anomaly", "sigma=0 linear term and residual entropy"),
                        ("rdiag", "R diagnostic curve")]:
        sp = sub.add_parser(name, help=help_)
        sp.add_argument("--config", metavar="PATH")
        sp.add_argument("--preset", choices=sorted(PRESETS))
        sp.add_argument("--out", metavar="PATH")
        sp.add_argument("--format", choices=["csv", "json"])
        sp.add_argument("--pol", choices=["tm", "te", "both"])
        sp.add_argument("--no-timestamp", action="store_true")
        if name == "rdiag":
            sp.add_argument("--assert", dest="check", action="store_true",
                            help="exit 1 unless the diagnostic meets thresholds")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():
        # one stderr line per warning, without the package's source location
        warnings.showwarning = lambda msg, *rest, **kw: print(f"warning: {msg}", file=sys.stderr)
        try:
            cfg = _resolve_config(args)
            set_precision()
            out = Output(args.out or cfg.out, timestamp=not args.no_timestamp)
            if args.command == "energy":
                code = cmd_energy(cfg, out)
            elif args.command in ("sweep", "rdiag"):
                code = cmd_sweep(cfg, out, check=getattr(args, "check", False))
            elif args.command == "asymptotics":
                code = cmd_asymptotics(cfg, out)
            elif args.command == "anomaly":
                code = cmd_anomaly(cfg, out)
            else:  # pragma: no cover
                raise ConfigError(f"unknown command {args.command!r}")
            out.close()
            return code
        except (ConfigError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        except (PrecisionError, ArithmeticError, diagnostics.FitError) as exc:
            print(f"numerical failure: {exc}", file=sys.stderr)
            return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
