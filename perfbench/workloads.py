"""The benchmark's workloads, each driving dstc through its public entry points.

A workload has a ``setup`` (import dstc, load configs, build scenarios: the
part timed in fresh processes as ``setup_s``), a small ``warmup``, and ``run``,
one repetition at a given seed.  ``run`` returns a ``RunResult`` whose rows
are the outputs a user reads: per (sweep point, receiver) counts and means
for the trial workloads, per check the k-ranks and verdict for ``identify``.

Nothing here imports dstc or numpy at module level, so the set-up probe
times those imports.  Workloads call dstc through module attributes, never
through references saved at set-up, so the tracer's wrappers see the calls.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
from dataclasses import dataclass, field
from pathlib import Path

# The bundled configs' base_seed: at this seed `simulate-qled2x2` runs the
# unchanged configs, and the stored reference is recorded at it.
DEFAULT_SEED = 20260814

RECEIVERS = ("ZF", "VLC-KRF", "plain-CSK")


@dataclass
class RunResult:
    """Outputs of one repetition.

    ``ops`` counts trials (trial workloads) or uniqueness checks; ``pairs``
    counts (trial, receiver) pairs, or checks for ``identify``, and is the
    unit in which failures are counted.
    """

    rows: dict[str, list] = field(default_factory=dict)
    ops: int = 0
    pairs: int = 0
    failed_pairs: int = 0
    failures_by_receiver: dict[str, int] = field(default_factory=dict)


def _curve_row(n_bits, n_errors, n_trials, failures, nmse, cond) -> list:
    return [int(n_bits), int(n_errors), int(n_trials), int(failures), float(nmse), float(cond)]


def _tally(result: RunResult, key: str, receiver: str, row: list) -> None:
    result.rows[key] = row
    result.pairs += row[2]
    result.failed_pairs += row[3]
    result.failures_by_receiver[receiver] = result.failures_by_receiver.get(receiver, 0) + row[3]


class Workload:
    """Common constructor; ``weight`` is how many operations a mismatched row fails."""

    def __init__(self, root: Path, out: Path):
        self.root = root
        self.out = out

    @staticmethod
    def weight(row: list) -> int:
        return 1


class CurveWorkload(Workload):
    """A trial workload: rows are curve points of one ``scenario``.

    A mismatched row fails every trial in it.  Subclasses set ``scenario`` and
    ``expected_rows`` in ``setup``.
    """

    @staticmethod
    def weight(row: list) -> int:
        return row[2]

    def invariants(self, result: RunResult) -> list[str]:
        bits_per_trial = 2 * self.scenario.l_t * (self.scenario.block_len - 1)
        problems = []
        for key, (n_bits, n_errors, n_trials, failures, _, _) in result.rows.items():
            if n_bits != (n_trials - failures) * bits_per_trial:
                problems.append(
                    f"{key}: n_bits {n_bits} != ({n_trials} - {failures}) x {bits_per_trial}"
                )
            if not 0 <= n_errors <= n_bits or not 0 <= failures <= n_trials:
                problems.append(
                    f"{key}: counts out of range {n_errors}/{n_bits}, {failures}/{n_trials}"
                )
        if len(result.rows) != self.expected_rows:
            problems.append(f"{len(result.rows)} curve rows, expected {self.expected_rows}")
        return problems


class SimulateQled2x2(CurveWorkload):
    """`dstc simulate` in-process on the two bundled QLED 2x2 configs."""

    name = "simulate-qled2x2"
    configs = ("configs/qled2x2.cfg", "configs/alpha_qled2x2.cfg")
    csv_names = ("ber_nmse.csv", "alpha_sweep.csv")

    def setup(self) -> None:
        from dstc import cli, configio, experiments

        self.cli = cli
        self.experiments = experiments
        self.bundles = [configio.load_config(self.root / c) for c in self.configs]
        # Both configs describe the same link, so one scenario fixes bits per trial.
        self.scenario = self.bundles[0].scenario
        self.expected_rows = 0
        for b in self.bundles:
            grids = {"ber": len(b.experiment.snr_grid_db), "alpha": len(b.experiment.alpha_grid)}
            grids["both"] = grids["ber"] + grids["alpha"]
            self.expected_rows += grids[b.mode] * len(b.experiment.receivers)

    def warmup(self) -> None:
        cfg = self.bundles[0].experiment
        self.experiments.run_point(
            cfg.scenario, 20.0, 2, DEFAULT_SEED, cfg.receivers, cfg.channel_model
        )

    def run(self, seed: int) -> RunResult:
        result = RunResult()
        for config in self.configs:
            out = self.out / Path(config).stem
            for name in self.csv_names:
                (out / name).unlink(missing_ok=True)
            argv = ["simulate", "--config", str(self.root / config), "--seed", str(seed),
                    "--out", str(out)]
            with contextlib.redirect_stdout(io.StringIO()):
                code = self.cli.main(argv)
            if code != 0:
                raise RuntimeError(f"dstc simulate --config {config} exited with {code}")
            for name in self.csv_names:
                path = out / name
                if not path.exists():
                    continue
                points = set()
                with path.open(newline="") as fh:
                    for rec in csv.DictReader(fh):
                        row = _curve_row(rec["n_bits"], rec["n_errors"], rec["n_trials"],
                                         rec["failures"], rec["nmse"], rec["cond"])
                        _tally(result, f"{Path(config).stem}/{name}|{rec['x']}|{rec['receiver']}",
                               rec["receiver"], row)
                        if rec["x"] not in points:
                            points.add(rec["x"])
                            result.ops += row[2]
        return result


class McWide30(CurveWorkload):
    """`run_point` on the paper's 30-LED Table 2 geometry with all three receivers."""

    name = "mc-wide30"
    snr_db = (8.0, 14.0, 20.0)
    trials_per_point = 30
    expected_rows = len(snr_db) * len(RECEIVERS)

    def setup(self) -> None:
        from dstc import experiments

        self.experiments = experiments
        self.scenario = experiments.SystemConfig(
            k_t=3, l_t=10, k_r=3, l_r=10, n_states=32, block_len=100
        )

    def warmup(self) -> None:
        self.experiments.run_point(self.scenario, 20.0, 1, DEFAULT_SEED, RECEIVERS)

    def run(self, seed: int) -> RunResult:
        import numpy as np

        result = RunResult()
        for snr in self.snr_db:
            outcomes = self.experiments.run_point(
                self.scenario, snr, self.trials_per_point, seed, RECEIVERS
            )
            result.ops += self.trials_per_point
            for receiver in RECEIVERS:
                ok = [o for o in outcomes[receiver] if not o.failed]
                row = _curve_row(
                    sum(o.n_bits for o in ok),
                    sum(o.bit_errors for o in ok),
                    len(outcomes[receiver]),
                    len(outcomes[receiver]) - len(ok),
                    np.mean([o.nmse for o in ok]) if ok else math.nan,
                    np.mean([o.cond_effective for o in ok]) if ok else math.nan,
                )
                _tally(result, f"wide30|{snr:g}|{receiver}", receiver, row)
        return result


class Identify(Workload):
    """`dstc check` and `dstc design` work on the default scenarios; no trials."""

    name = "identify"
    seeds_per_scenario = 64

    def setup(self) -> None:
        from dstc import dimming, experiments

        self.dimming = dimming
        self.experiments = experiments
        self.scenarios = experiments.default_scenarios()

    def warmup(self) -> None:
        ex = self.experiments
        s = next(iter(self.scenarios.values()))
        ex.check_scenario_identifiability(
            ex.ExperimentConfig(scenario=s, snr_grid_db=(20.0,), base_seed=DEFAULT_SEED)
        )

    def run(self, seed: int) -> RunResult:
        ex, dm = self.experiments, self.dimming
        result = RunResult()
        for name, s in self.scenarios.items():
            spec = s.dimming_spec()
            report = dm.validate_dimming_matrix(dm.build_dimming_matrix(spec), spec)
            audit = ex.audit_power_color(s, seed=seed)
            result.rows[f"{name}|design"] = [
                int(report.rank), int(report.kruskal), bool(report.ok),
                float(report.condition_number), float(audit.relative_power),
                *map(float, audit.chroma_before), *map(float, audit.chroma_after),
            ]
            for i in range(self.seeds_per_scenario):
                cfg = ex.ExperimentConfig(scenario=s, snr_grid_db=(20.0,), base_seed=seed + i)
                r = ex.check_scenario_identifiability(cfg)
                result.rows[f"{name}|{i}"] = [
                    int(r.k_gains), int(r.k_symbols), int(r.k_code), int(r.n_columns),
                    bool(r.unique),
                ]
                result.ops += 1
        result.pairs = result.ops
        return result

    def invariants(self, result: RunResult) -> list[str]:
        problems = []
        for key, row in result.rows.items():
            if key.endswith("|design"):
                if not row[2]:
                    problems.append(f"{key}: dimming code fails its design checks")
            elif not all(0 <= k <= row[3] for k in row[:3]):
                problems.append(f"{key}: k-rank outside [0, {row[3]}]: {row[:3]}")
        expected = len(self.scenarios) * (self.seeds_per_scenario + 1)
        if len(result.rows) != expected:
            problems.append(f"{len(result.rows)} rows, expected {expected}")
        return problems


WORKLOADS = {w.name: w for w in (SimulateQled2x2, McWide30, Identify)}


def _same(a, b, rel: float) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        a, b = float(a), float(b)
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return a == b or math.isclose(a, b, rel_tol=rel, abs_tol=0.0)
    return a == b and type(a) is type(b)


def diff_rows(expected: dict[str, list], actual: dict[str, list], rel: float) -> list[str]:
    """Keys whose rows differ: integers and flags exactly, floats within ``rel``."""
    bad = []
    for key in sorted(set(expected) | set(actual)):
        e, a = expected.get(key), actual.get(key)
        if e is None or a is None or len(e) != len(a) or not all(
            _same(x, y, rel) for x, y in zip(e, a)
        ):
            bad.append(key)
    return bad
