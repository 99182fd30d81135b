"""Experiment configuration files.

Flat INI-style text with one section per concern:

    [scenario]      k_t, l_t, k_r, l_r, n_states, block_len
    [dimming]       p_m, alpha, columns (optional 1-based Hadamard columns)
    [experiment]    mode, snr_grid_db, alpha_grid, alpha_sweep_snr_db,
                    n_symbols_total, base_seed, receivers, channel_model,
                    noiseless
    [chromaticity]  channel_0 = x, y   (optional, one entry per color channel)
    [constellation] point_00 ... point_11 = intensity levels (optional)

`#` and `;` start comments.  Unknown sections and keys are rejected with a
"did you mean" hint.  See configs/qled2x2.cfg for an annotated example.
"""

from __future__ import annotations

import configparser
import difflib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .csk import Constellation
from .dimming import ChromaticityTable
from .experiments import ExperimentConfig, SystemConfig

MODES = ("ber", "alpha", "both")

# Accepted keys per section.  [chromaticity] takes channel_0 ... channel_{k_t - 1},
# which is known only once [scenario] is read.
_KEYS: dict[str, tuple[str, ...] | None] = {
    "scenario": ("k_t", "l_t", "k_r", "l_r", "n_states", "block_len"),
    "dimming": ("p_m", "alpha", "columns"),
    "experiment": (
        "mode", "snr_grid_db", "alpha_grid", "alpha_sweep_snr_db", "n_symbols_total",
        "base_seed", "receivers", "channel_model", "noiseless",
    ),
    "chromaticity": None,
    "constellation": ("point_00", "point_01", "point_10", "point_11"),
}


class ConfigError(ValueError):
    """Malformed or incomplete configuration file."""


@dataclass(frozen=True)
class ConfigBundle:
    """Everything a CLI command can draw from one config file.

    ``experiment`` is None for design-only files that carry no [experiment]
    section.
    """

    scenario: SystemConfig
    experiment: ExperimentConfig | None
    mode: str
    chromaticity: ChromaticityTable | None
    constellation: Constellation | None


def _split(raw: str) -> list[str]:
    return raw.replace(",", " ").split()


def _floats(raw: str, where: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in _split(raw))
    except ValueError:
        raise ConfigError(f"{where}: expected numbers, got {raw!r}") from None


def _unknown(what: str, name: str, accepted) -> ConfigError:
    """Error for an unknown ``what``, hinting the accepted name closest to ``name``."""
    hint = difflib.get_close_matches(name, accepted, n=1)
    suffix = f"did you mean {hint[0]!r}?" if hint else f"expected one of {', '.join(accepted)}"
    return ConfigError(f"unknown {what}; {suffix}")


def _ints(raw: str, where: str) -> tuple[int, ...]:
    vals = []
    for tok in _split(raw):
        try:
            vals.append(int(tok))
        except ValueError:
            raise ConfigError(f"{where}: expected integers, got {raw!r}") from None
    return tuple(vals)


class _Section:
    def __init__(self, parser: configparser.ConfigParser, name: str, keys=None):
        self.name = name
        self.data = parser[name] if parser.has_section(name) else None
        accepted = _KEYS[name] if keys is None else keys
        for key in self.data or ():
            if key not in accepted:
                raise _unknown(f"key {key!r} in section [{name}]", key, accepted)

    def __bool__(self) -> bool:
        return self.data is not None

    def raw(self, key: str, default: str | None = None) -> str:
        if self.data is None or key not in self.data:
            if default is not None:
                return default
            raise ConfigError(f"missing key {key!r} in section [{self.name}]")
        return self.data[key]

    def get_int(self, key: str, default: int | None = None) -> int:
        raw = self.raw(key, None if default is None else str(default))
        vals = _ints(raw, f"[{self.name}] {key}")
        if len(vals) != 1:
            raise ConfigError(f"[{self.name}] {key}: expected one integer, got {raw!r}")
        return vals[0]

    def get_float(self, key: str, default: float | None = None) -> float:
        raw = self.raw(key, None if default is None else repr(default))
        vals = _floats(raw, f"[{self.name}] {key}")
        if len(vals) != 1:
            raise ConfigError(f"[{self.name}] {key}: expected one number, got {raw!r}")
        return vals[0]

    def get_bool(self, key: str, default: bool) -> bool:
        raw = self.raw(key, str(default)).strip().lower()
        if raw in ("1", "true", "yes", "on"):
            return True
        if raw in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"[{self.name}] {key}: expected a boolean, got {raw!r}")


def _load_scenario(scenario: _Section, dimming: _Section) -> SystemConfig:
    if not scenario:
        raise ConfigError("config needs a [scenario] section")
    columns = None
    if dimming and dimming.data is not None and "columns" in dimming.data:
        columns = _ints(dimming.raw("columns"), "[dimming] columns")
    try:
        return SystemConfig(
            **{key: scenario.get_int(key) for key in _KEYS["scenario"]},
            p_m=dimming.get_float("p_m", 0.5) if dimming else 0.5,
            alpha=dimming.get_float("alpha", 0.4) if dimming else 0.4,
            code_columns=columns,
        )
    except ValueError as exc:
        raise ConfigError(f"[scenario]: {exc}") from exc


def _load_experiment(section: _Section, scenario: SystemConfig) -> ExperimentConfig | None:
    if not section:
        return None
    receivers = tuple(_split(section.raw("receivers", "ZF VLC-KRF")))
    try:
        return ExperimentConfig(
            scenario=scenario,
            snr_grid_db=_floats(section.raw("snr_grid_db", "20"), "[experiment] snr_grid_db"),
            alpha_grid=_floats(
                section.raw("alpha_grid", "0.1 0.2 0.3 0.4 0.5"), "[experiment] alpha_grid"
            ),
            alpha_sweep_snr_db=section.get_float("alpha_sweep_snr_db", 20.0),
            n_symbols_total=section.get_int("n_symbols_total", 10_000),
            base_seed=section.get_int("base_seed", 0),
            receivers=receivers,
            channel_model=section.raw("channel_model", "gaussian").strip(),
            noiseless=section.get_bool("noiseless", False),
        )
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"[experiment]: {exc}") from exc


def _load_chromaticity(section: _Section, k_t: int) -> ChromaticityTable | None:
    if not section:
        return None
    coords = []
    for ch in range(k_t):
        pair = _floats(section.raw(f"channel_{ch}"), f"[chromaticity] channel_{ch}")
        if len(pair) != 2:
            raise ConfigError(f"[chromaticity] channel_{ch}: expected 'x, y'")
        coords.append(pair)
    try:
        return ChromaticityTable(tuple(coords))
    except ValueError as exc:
        raise ConfigError(f"[chromaticity]: {exc}") from exc


def _load_constellation(section: _Section, k_t: int) -> Constellation | None:
    if not section:
        return None
    points = []
    for key in _KEYS["constellation"]:
        levels = _floats(section.raw(key), f"[constellation] {key}")
        if len(levels) != k_t:
            raise ConfigError(f"[constellation] {key}: expected {k_t} levels, got {len(levels)}")
        points.append(levels)
    try:
        return Constellation(np.array(points))
    except ValueError as exc:
        raise ConfigError(f"[constellation]: {exc}") from exc


def load_config(path) -> ConfigBundle:
    """Parse one configuration file into validated domain objects."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    for name in parser.sections():
        if name not in _KEYS:
            raise _unknown(f"section [{name}]", name, tuple(_KEYS))
    scenario_sec = _Section(parser, "scenario")
    dimming_sec = _Section(parser, "dimming")
    experiment_sec = _Section(parser, "experiment")

    scenario = _load_scenario(scenario_sec, dimming_sec)
    channels = tuple(f"channel_{ch}" for ch in range(scenario.k_t))
    mode = experiment_sec.raw("mode", "ber").strip().lower() if experiment_sec else "ber"
    if mode not in MODES:
        raise ConfigError(f"[experiment] mode: expected one of {MODES}, got {mode!r}")
    return ConfigBundle(
        scenario=scenario,
        experiment=_load_experiment(experiment_sec, scenario),
        mode=mode,
        chromaticity=_load_chromaticity(_Section(parser, "chromaticity", channels), scenario.k_t),
        constellation=_load_constellation(_Section(parser, "constellation"), scenario.k_t),
    )
