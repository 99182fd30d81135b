"""Experiment configuration files.

Flat INI-style text with one section per concern.  [scenario] and [dimming]
set the fields of ``SystemConfig`` (``columns`` is ``code_columns``),
[experiment] sets those of ``ExperimentConfig`` plus the sweep ``mode``, and
the optional [chromaticity] and [constellation] replace the defaults for
``k_t``.  ``_KEYS`` gives every accepted key its parser, and the epilog of
``dstc --help`` lists them.  A key left out takes the dataclass default.

`#` and `;` start comments.  Unknown sections and keys are rejected with a
"did you mean" hint.  See configs/qled2x2.cfg for an annotated example.
"""

from __future__ import annotations

import configparser
import dataclasses
import difflib
import textwrap
from dataclasses import dataclass
from pathlib import Path

from .channel import CHANNEL_MODELS
from .csk import Constellation
from .dimming import ChromaticityTable
from .experiments import ALL_RECEIVERS, ExperimentConfig, SystemConfig

# Sweep modes of [experiment]; the first is the default.
MODES = ("ber", "alpha", "both")


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


def _parser(convert, what: str, one: bool = False):
    """Parser of ``what`` values separated by commas or spaces; with ``one``, of exactly one."""

    def parse(raw: str, where: str):
        try:
            values = tuple(map(convert, raw.replace(",", " ").split()))
        except ValueError:
            raise ConfigError(f"{where}: expected {what}s, got {raw!r}") from None
        if one and len(values) != 1:
            raise ConfigError(f"{where}: expected one {what}, got {raw!r}")
        return values[0] if one else values

    return parse


def _bool(raw: str, where: str) -> bool:
    word = raw.strip().lower()
    if word not in configparser.ConfigParser.BOOLEAN_STATES:
        raise ConfigError(f"{where}: expected a boolean, got {word!r}")
    return configparser.ConfigParser.BOOLEAN_STATES[word]


_int, _ints = _parser(int, "integer", one=True), _parser(int, "integer")
_float, _floats = _parser(float, "number", one=True), _parser(float, "number")
_word, _words = _parser(str, "word", one=True), _parser(str, "word")

# Accepted keys per section, each with its parser.  [chromaticity] takes
# channel_0 ... channel_{k_t - 1}, which is known only once [scenario] is read.
_KEYS = {
    "scenario": dict.fromkeys(("k_t", "l_t", "k_r", "l_r", "n_states", "block_len"), _int),
    "dimming": {"p_m": _float, "alpha": _float, "columns": _ints},
    "experiment": {
        "mode": _word,
        "snr_grid_db": _floats,
        "alpha_grid": _floats,
        "alpha_sweep_snr_db": _float,
        "n_symbols_total": _int,
        "base_seed": _int,
        "receivers": _words,
        "channel_model": _word,
        "noiseless": _bool,
    },
    "chromaticity": None,
    "constellation": dict.fromkeys(("point_00", "point_01", "point_10", "point_11"), _floats),
}


def keys_help() -> str:
    """Every accepted section and key, and the words that the word-valued keys take."""
    rows = {
        f"[{name}]": ", ".join(keys or ["channel_0 ... channel_{k_t - 1} = x, y"])
        for name, keys in _KEYS.items()
    }
    rows.update(
        mode=" | ".join(MODES),
        receivers="any of " + ", ".join(ALL_RECEIVERS),
        channel_model=" | ".join(CHANNEL_MODELS),
    )
    lines = ["configuration file keys (see configs/qled2x2.cfg for an annotated example):"]
    for head, text in rows.items():
        lines += textwrap.wrap(text, 78, initial_indent=f"  {head:16}",
                               subsequent_indent=" " * 18, break_on_hyphens=False)
    return "\n".join(lines) + "\n"


def _unknown(what: str, name: str, accepted) -> ConfigError:
    """Error for an unknown ``what``, hinting the accepted name closest to ``name``."""
    hint = difflib.get_close_matches(name, accepted, n=1)
    suffix = f"did you mean {hint[0]!r}?" if hint else f"expected one of {', '.join(accepted)}"
    return ConfigError(f"unknown {what}; {suffix}")


def _section(parser: configparser.ConfigParser, name: str, keys=None) -> dict | None:
    """Parsed values of the keys that section ``name`` sets; None when it is absent."""
    if not parser.has_section(name):
        return None
    keys = _KEYS[name] if keys is None else keys
    values = {}
    for key, raw in parser[name].items():
        if key not in keys:
            raise _unknown(f"key {key!r} in section [{name}]", key, tuple(keys))
        values[key] = keys[key](raw, f"[{name}] {key}")
    return values


def _build(cls, name: str, values: dict):
    """``cls`` from section ``name``'s values; a field without a default must be set."""
    for field in dataclasses.fields(cls):
        if field.default is dataclasses.MISSING and field.name not in values:
            raise ConfigError(f"missing key {field.name!r} in section [{name}]")
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"[{name}]: {exc}") from exc


def _vectors(parser, name: str, keys: dict, length: int, unit: str) -> tuple | None:
    """Section ``name`` as ``length`` numbers per key, in ``keys`` order; every key is required."""
    values = _section(parser, name, keys)
    if values is None:
        return None
    for key in keys:
        if key not in values:
            raise ConfigError(f"missing key {key!r} in section [{name}]")
        if len(values[key]) != length:
            raise ConfigError(f"[{name}] {key}: expected {length} {unit}, got {len(values[key])}")
    return tuple(values[key] for key in keys)


def load_config(path) -> ConfigBundle:
    """Parse one configuration file into validated domain objects."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    for name in parser.sections():
        if name not in _KEYS:
            raise _unknown(f"section [{name}]", name, tuple(_KEYS))
    scenario = _section(parser, "scenario")
    if scenario is None:
        raise ConfigError("config needs a [scenario] section")
    dimming = _section(parser, "dimming") or {}
    if "columns" in dimming:
        dimming["code_columns"] = dimming.pop("columns")
    scenario = _build(SystemConfig, "scenario", {**scenario, **dimming})

    experiment = _section(parser, "experiment")
    mode = MODES[0] if experiment is None else experiment.pop("mode", MODES[0]).lower()
    if mode not in MODES:
        raise ConfigError(f"[experiment] mode: expected one of {MODES}, got {mode!r}")
    if experiment is not None:
        experiment = _build(ExperimentConfig, "experiment", {**experiment, "scenario": scenario})

    channels = dict.fromkeys((f"channel_{ch}" for ch in range(scenario.k_t)), _floats)
    coords = _vectors(parser, "chromaticity", channels, 2, "coordinates")
    points = _vectors(parser, "constellation", _KEYS["constellation"], scenario.k_t, "levels")
    return ConfigBundle(
        scenario=scenario,
        experiment=experiment,
        mode=mode,
        chromaticity=coords and _build(ChromaticityTable, "chromaticity", {"coords": coords}),
        constellation=points and _build(Constellation, "constellation", {"points": points}),
    )
