"""Command-line front end of the dstc toolbox.

Subcommands: ``design`` builds and validates a dimming code, ``audit``
measures its average power and chromaticity, ``simulate`` runs a config's
Monte Carlo sweeps, ``check`` runs its identifiability check, and ``eta``
prints spectral efficiencies.

Exit codes: 0 success, 1 usage or configuration error or an output path that
cannot be written, 2 infeasible code design (also a power swing too small for
a full-column-rank code), 3 failed identifiability check, 4 simulation
producing a sweep point where every trial failed or a block with no received
power, 5 input too large: an identifiability check too wide to decide (a
k-rank search over more columns than the brute-force limit), or an array over
``linalg.MAX_ARRAY_BYTES`` (the dimming code, one trial's stacked reception,
effective channel or symbol block, or the audit's bit draw), refused before it
is allocated.
``main`` maps every exception a command raises to its code through ``_ERRORS``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .configio import ConfigBundle, ConfigError, keys_help, load_config
from .csk import Constellation, default_constellation
from .dimming import (
    ConstraintViolationError,
    build_dimming_matrix,
    default_chromaticity,
    validate_dimming_matrix,
)
from .experiments import (
    ExperimentConfig,
    IdentifiabilityError,
    audit_power_color,
    check_scenario_identifiability,
    flatten_curves,
    run_sweep,
    spectral_efficiency,
    sweep_codes,
    write_curves_csv,
)
from .linalg import ArraySizeError, DegenerateInputError, SizeLimitError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_NOT_UNIQUE = 3
EXIT_DEGENERATE = 4
EXIT_SIZE_LIMIT = 5

# Reference operating points printed by `eta --table2` (block_len = 10).
_TABLE2_CASES = ((3, 2, 8), (3, 6, 20), (3, 10, 32), (4, 2, 12), (4, 2, 16))
_TABLE2_BLOCK_LEN = 10

# (sweep axis, CSV file, summary section) in the order `simulate` runs them.
_SWEEPS = (("ber", "ber_nmse.csv", "ber_nmse"), ("alpha", "alpha_sweep.csv", "alpha_sweep"))

# (exception, exit code, message prefix) for every error a command may raise.
_ERRORS = (
    (ConfigError, EXIT_USAGE, ""),
    (ConstraintViolationError, EXIT_INFEASIBLE, "infeasible dimming code: "),
    (IdentifiabilityError, EXIT_NOT_UNIQUE, "identifiability check failed: "),
    (DegenerateInputError, EXIT_DEGENERATE, "simulation failed: "),
    (SizeLimitError, EXIT_SIZE_LIMIT, "identifiability check too large: "),
    (ArraySizeError, EXIT_SIZE_LIMIT, "input too large: "),
    (OSError, EXIT_USAGE, "cannot write output: "),
)


class _ArgumentParser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; this tool reserves 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _fail(message: str, code: int) -> int:
    print(message, file=sys.stderr)
    return code


def _audit_rows(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _read_experiment(args) -> tuple[ConfigBundle, ExperimentConfig, Constellation]:
    """Config, seeded experiment and constellation shared by `check` and `simulate`.

    Raises ConfigError when the file does not load, has no [experiment]
    section, or has no [constellation] for a k_t without a default one.
    """
    bundle = load_config(args.config)
    if bundle.experiment is None:
        raise ConfigError(f"{args.config}: missing [experiment] section")
    cfg = bundle.experiment
    if args.seed is not None:
        try:
            cfg = dataclasses.replace(cfg, base_seed=args.seed)
        except ValueError as exc:
            raise ConfigError(f"--seed: {exc}") from None
    try:
        constellation = bundle.constellation or default_constellation(cfg.scenario.k_t)
    except ValueError as exc:
        raise ConfigError(f"{args.config}: {exc}; add a [constellation] section") from None
    return bundle, cfg, constellation


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def cmd_eta(args) -> int:
    if args.table2:
        if args.dims:
            return _fail("eta: --table2 takes no positional arguments", EXIT_USAGE)
        print("k_t l_t n_states | eta_zf | eta_krf | gain_%")
        for k_t, l_t, n_states in _TABLE2_CASES:
            se = spectral_efficiency(k_t, l_t, n_states, _TABLE2_BLOCK_LEN)
            print(
                f"{k_t:3d} {l_t:3d} {n_states:8d} | {se.zf:.4f} | {se.krf:.4f} | {se.gain_percent:.2f}"
            )
        return EXIT_OK
    if len(args.dims) != 4:
        return _fail("eta: expected k_t l_t n_states block_len (or --table2)", EXIT_USAGE)
    if any(v < 1 for v in args.dims):
        return _fail("eta: all arguments must be positive integers", EXIT_USAGE)
    try:
        se = spectral_efficiency(*args.dims)
    except OverflowError:
        return _fail("eta: arguments too large for a float result", EXIT_USAGE)
    print(f"eta_zf={se.zf:.4f} eta_krf={se.krf:.4f} gain_percent={se.gain_percent:.2f}")
    return EXIT_OK


def cmd_design(args) -> int:
    spec = load_config(args.config).scenario.dimming_spec()
    code = build_dimming_matrix(spec)
    report = validate_dimming_matrix(code, spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    matrix_path = out / "dimming_matrix.csv"
    with matrix_path.open("w") as fh:
        for row in code:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")

    def verdict(ok: bool) -> str:
        return "pass" if ok else "FAIL"

    lines = [
        "dimming code design report",
        f"n_states={spec.n_states} leds={spec.n_tx} p_m={spec.p_m} alpha={spec.alpha}",
        f"entries within [0, 1]: {verdict(report.entries_in_range)}",
        f"column means equal p_m (max error {report.column_mean_error:.3e}): "
        f"{verdict(report.means_ok)}",
        f"rank {report.rank} of {report.n_tx}: {verdict(report.rank_ok)}",
        f"kruskal rank {report.kruskal} of {report.n_tx}: {verdict(report.kruskal_ok)}",
        f"condition number: {report.condition_number:.6f}",
        f"all checks: {verdict(report.ok)}",
    ]
    report_path = out / "design_report.txt"
    report_path.write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    print(f"wrote {matrix_path} and {report_path}")
    return EXIT_OK if report.ok else EXIT_INFEASIBLE


def _summary_lines(name: str, curves) -> list[str]:
    lines = [f"[{name}]"]
    for p in flatten_curves(curves):
        lines.append(
            f"x={p.x:g} receiver={p.receiver} ber={p.ber:.6e} nmse={p.nmse:.6e} "
            f"cond={p.cond:.6f} bits={p.n_bits} errors={p.n_errors} "
            f"trials={p.n_trials} failures={p.failures}"
        )
    return lines


def _degenerate(curves) -> bool:
    return any(p.failures == p.n_trials for p in flatten_curves(curves))


def cmd_simulate(args) -> int:
    started = _utc_now()
    bundle, cfg, constellation = _read_experiment(args)
    if args.noiseless:
        cfg = dataclasses.replace(cfg, noiseless=True)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    sweeps = [sweep for sweep in _SWEEPS if bundle.mode in (sweep[0], "both")]
    summary_path, manifest_path = out / "summary.txt", out / "manifest.json"
    for path in [*(out / csv_name for _, csv_name, _ in sweeps), summary_path, manifest_path]:
        if path.exists():  # fail before the sweeps, as writing would; append changes nothing
            path.open("a").close()
    # an infeasible depth or an unidentifiable scenario exits before any sweep
    codes = sweep_codes(cfg, [mode for mode, _, _ in sweeps], constellation)
    outputs: list[Path] = []
    summary: list[str] = []
    degenerate = False
    for mode, csv_name, label in sweeps:
        curves = run_sweep(cfg, mode, constellation, codes)
        outputs.append(write_curves_csv(curves, out / csv_name))
        summary += _summary_lines(label, curves)
        degenerate |= _degenerate(curves)

    summary_path.write_text("\n".join(summary) + "\n")
    outputs.append(summary_path)

    manifest = {
        "config": str(args.config),
        "tool_version": __version__,
        "started_utc": started,
        "finished_utc": _utc_now(),
        "outputs": [p.name for p in outputs],
        "experiment": {**dataclasses.asdict(cfg), "mode": bundle.mode, "n_trials": cfg.n_trials},
    }
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")

    for line in summary:
        print(line)
    print(f"wrote {', '.join(str(p) for p in outputs + [manifest_path])}")
    if degenerate:
        return _fail("at least one sweep point lost every trial to receiver failures",
                     EXIT_DEGENERATE)
    return EXIT_OK


def cmd_check(args) -> int:
    _, cfg, constellation = _read_experiment(args)
    report = check_scenario_identifiability(cfg, constellation)
    print(f"k-rank(channel)={report.k_gains}")
    print(f"k-rank(symbols){'=' if report.k_symbols_exact else '>='}{report.k_symbols}")
    print(f"k-rank(code)={report.k_code}")
    print(f"columns={report.n_columns}")
    verdict = "yes" if report.unique else "no"
    print(f"k-rank sum {report.k_rank_sum} >= {report.threshold}: {verdict}")
    print(f"uniqueness: {'unique' if report.unique else 'NOT unique'}")
    return EXIT_OK if report.unique else EXIT_NOT_UNIQUE


def cmd_audit(args) -> int:
    bundle = load_config(args.config)
    k_t = bundle.scenario.k_t
    try:
        table = bundle.chromaticity or default_chromaticity(k_t)
        constellation = bundle.constellation or default_constellation(k_t)
    except ValueError as exc:  # no default chromaticity or constellation for this k_t
        raise ConfigError(f"{args.config}: {exc}") from None
    try:
        audit = audit_power_color(
            bundle.scenario, n_rows=args.rows, table=table, constellation=constellation
        )
    except DegenerateInputError as exc:  # a [constellation] that emits no light in these rows
        raise ConfigError(f"{args.config}: {exc}") from None
    before, after, shift = audit.chroma_before, audit.chroma_after, audit.chroma_shift
    print(f"scenario: {bundle.scenario}")
    print(f"average power target (p_m):   {audit.power_target}")
    print(f"average power after dimming:  {audit.relative_power:.6f}")
    print(f"chromaticity before dimming:  ({before[0]:.6f}, {before[1]:.6f})")
    print(f"chromaticity after dimming:   ({after[0]:.6f}, {after[1]:.6f})")
    print(f"chromaticity shift:           ({shift[0]:.3e}, {shift[1]:.3e})")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="dstc",
        description="Dimming-aware space-time coded VLC link toolbox.",
        epilog=keys_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_ArgumentParser)

    p_design = sub.add_parser("design", help="build and validate a dimming code")
    p_design.add_argument("--config", required=True, help="configuration file")
    p_design.add_argument("--out", default=".", help="output directory")
    p_design.set_defaults(func=cmd_design)

    p_audit = sub.add_parser("audit", help="measure a dimming code's average power and color")
    p_audit.add_argument("--config", required=True, help="configuration file")
    p_audit.add_argument("--rows", type=_audit_rows, default=10_000,
                         help="symbol rows in the audited stream (default 10000)")
    p_audit.set_defaults(func=cmd_audit)

    p_sim = sub.add_parser("simulate", help="run the Monte Carlo sweeps of a config")
    p_sim.add_argument("--config", required=True, help="configuration file")
    p_sim.add_argument("--seed", type=int, default=None, help="override base_seed")
    p_sim.add_argument("--noiseless", action="store_true", help="disable channel noise")
    p_sim.add_argument("--out", default=".", help="output directory")
    p_sim.set_defaults(func=cmd_simulate)

    p_eta = sub.add_parser("eta", help="print spectral efficiencies")
    p_eta.add_argument("dims", nargs="*", type=int, metavar="N",
                       help="k_t l_t n_states block_len")
    p_eta.add_argument("--table2", action="store_true",
                       help="print the five reference rows (block_len=10)")
    p_eta.set_defaults(func=cmd_eta)

    p_check = sub.add_parser("check", help="run the identifiability check of a config")
    p_check.add_argument("--config", required=True, help="configuration file")
    p_check.add_argument("--seed", type=int, default=None, help="override base_seed")
    p_check.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(error for error, _, _ in _ERRORS) as exc:
        code, prefix = next((c, p) for error, c, p in _ERRORS if isinstance(exc, error))
        return _fail(f"{prefix}{exc}", code)


if __name__ == "__main__":
    sys.exit(main())
