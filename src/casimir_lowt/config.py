"""Run configuration: INI files with material / geometry / run sections.

Kept deliberately flat so a config written by hand or by another tool
parses identically.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass

from .dielectric import IDEAL_METAL, SI_EPSBAR1, SI_PAPER, DielectricModel, PermittivityMode


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    material: DielectricModel
    separation_um: float = 1.0
    # either an explicit list...
    temperatures: tuple = ()
    # ...or a log grid
    t_min: float | None = None
    t_max: float | None = None
    points_per_decade: int = 25
    polarization: str = "both"       # tm | te | both
    out: str | None = None
    format: str = "csv"              # csv | json

    @property
    def separation_m(self) -> float:
        return self.separation_um * 1e-6

    def grid(self) -> list:
        from .diagnostics import log_grid
        if self.temperatures:
            ts = sorted(float(T) for T in self.temperatures)
            if not all(math.isfinite(T) for T in ts):
                raise ConfigError(f"temperatures must be finite, got {ts}")
            if any(T <= 0 for T in ts):
                raise ConfigError("temperatures must be positive")
            return ts
        if self.t_min is None or self.t_max is None:
            raise ConfigError("config needs either temperatures or t_min/t_max")
        for name in ("t_min", "t_max"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        return log_grid(self.t_min, self.t_max, self.points_per_decade)


PRESETS = {
    # the weakly conducting silicon-like configuration used in the studies
    "si-paper": RunConfig(material=SI_PAPER, separation_um=1.0, t_min=0.02, t_max=1.0),
    # same but with the static dielectric response switched off
    "si-fig2": RunConfig(material=SI_EPSBAR1, separation_um=1.0, t_min=0.02, t_max=1.0),
    # perfectly reflecting plates; for checking against the ideal result
    "ideal-metal-check": RunConfig(material=IDEAL_METAL, separation_um=1.0,
                                   temperatures=(1.0,)),
}


# every key parse_config reads, by section; any other key or section is refused,
# so a typo cannot silently fall back to a default
_KEYS = {
    "material": ("model", "eps_bar", "omega0", "sigma_over_eps0"),
    "geometry": ("separation_um",),
    "run": ("temperatures", "t_min", "t_max", "points_per_decade", "polarization",
            "out", "format"),
}


def parse_config(text: str) -> RunConfig:
    cp = configparser.ConfigParser()
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"bad config syntax: {exc}") from exc
    if cp.defaults():
        raise ConfigError(f"unknown section [{cp.default_section}]; "
                          f"sections are {', '.join(_KEYS)}")
    for section in cp.sections():
        if section not in _KEYS:
            raise ConfigError(f"unknown section [{section}]; sections are {', '.join(_KEYS)}")
        for key in cp[section]:
            if key not in _KEYS[section]:
                raise ConfigError(f"unknown key {key!r} in [{section}]; "
                                  f"its keys are {', '.join(_KEYS[section])}")
    try:
        mat_mode = PermittivityMode(cp.get("material", "model", fallback="full"))
        if mat_mode is PermittivityMode.IDEAL_METAL:
            material = IDEAL_METAL
        else:
            material = DielectricModel(
                eps_bar=cp.getfloat("material", "eps_bar", fallback=1.0),
                omega0=cp.getfloat("material", "omega0", fallback=8e15),
                four_pi_sigma=cp.getfloat("material", "sigma_over_eps0", fallback=0.0),
                mode=mat_mode)
        temps = tuple(float(v) for v in
                      cp.get("run", "temperatures", fallback="").split())
        t_min = cp.getfloat("run", "t_min", fallback=None)
        t_max = cp.getfloat("run", "t_max", fallback=None)
        cfg = RunConfig(
            material=material,
            separation_um=cp.getfloat("geometry", "separation_um", fallback=1.0),
            temperatures=temps, t_min=t_min, t_max=t_max,
            points_per_decade=cp.getint("run", "points_per_decade", fallback=25),
            polarization=cp.get("run", "polarization", fallback="both").lower(),
            out=cp.get("run", "out", fallback=None),
            format=cp.get("run", "format", fallback="csv").lower())
    except (ValueError, configparser.Error) as exc:
        raise ConfigError(f"bad config value: {exc}") from exc
    if cfg.polarization not in ("tm", "te", "both"):
        raise ConfigError(f"polarization must be tm/te/both, got {cfg.polarization!r}")
    if cfg.format not in ("csv", "json"):
        raise ConfigError(f"format must be csv or json, got {cfg.format!r}")
    if not math.isfinite(cfg.separation_um) or cfg.separation_um <= 0:
        raise ConfigError(f"separation_um must be positive and finite, got {cfg.separation_um}")
    if cfg.points_per_decade < 1:
        raise ConfigError(f"points_per_decade must be >= 1, got {cfg.points_per_decade}")
    return cfg


def load_config(path: str) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
