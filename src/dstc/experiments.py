"""Monte Carlo harness: BER/NMSE and dimming-depth sweeps, link audits.

One trial transmits a single block of ``block_len`` slots (first slot is the
semi-blind receiver's training row) over a freshly drawn channel.  Trial
seeds are split deterministically from the base seed and are independent of
the sweep point, so every receiver at a given (trial, point) sees the same
channel and payload, and paired runs that share a base seed stay paired
across sweeps.  Since every point draws the same trials (common random
numbers), a sweep draws each trial once: its bits, channel and unit noise,
which each point scales to its own noise level.  The results equal those
of each point run alone.
"""

from __future__ import annotations

import csv
import dataclasses
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .channel import (
    CHANNEL_MODELS,
    add_stacked_noise,
    derive_seed,
    draw_channel,
    effective_cond,
    noise_variance,
    propagate,
)
from .csk import (
    Constellation,
    block_with_reference,
    default_constellation,
    demodulate,
    symbol_labels,
)
from .dimming import (
    ChromaticityTable,
    DimmingSpec,
    average_chromaticity,
    average_power,
    build_dimming_matrix,
    default_chromaticity,
)
from .identifiability import UniquenessReport, check_uniqueness
from .linalg import check_array_bytes
from .receivers import (
    RECEIVER_KRF,
    RECEIVER_PLAIN,
    RECEIVER_ZF,
    code_inverse,
    krf_detect,
    zf_detect,
)

ALL_RECEIVERS = (RECEIVER_ZF, RECEIVER_KRF, RECEIVER_PLAIN)

CSV_COLUMNS = ("x", "receiver", "ber", "nmse", "cond", "n_bits", "n_errors", "n_trials", "failures")

# Largest |SNR| in dB whose linear ratio and the noise variance it sets stay in float range.
MAX_ABS_SNR_DB = 3000.0


class IdentifiabilityError(RuntimeError):
    """The scenario's trilinear model fails the uniqueness pre-check."""


@dataclass(frozen=True)
class SystemConfig:
    """Link geometry and dimming operating point.

    ``k_t``/``l_t`` are color channels and groups at the transmitter (their
    product is the LED count), ``k_r``/``l_r`` the same on the receive side,
    ``n_states`` the number of dimming states per block, and ``block_len``
    the number of time slots per block.
    """

    k_t: int
    l_t: int
    k_r: int
    l_r: int
    n_states: int
    block_len: int
    p_m: float = 0.5
    alpha: float = 0.4
    code_columns: tuple[int, ...] | None = None

    def __post_init__(self):
        for name in ("k_t", "l_t", "k_r", "l_r", "n_states", "block_len"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be a positive integer")
        if self.block_len < 2:
            raise ValueError("block_len must leave room for one payload row")

    @property
    def n_tx(self) -> int:
        return self.k_t * self.l_t

    @property
    def n_rx(self) -> int:
        return self.k_r * self.l_r

    @property
    def reception_bytes(self) -> int:
        """Bytes of one trial's stacked reception, ``n_states * n_rx`` rows of ``block_len``."""
        return 8 * self.n_states * self.n_rx * self.block_len

    def check_size(self) -> None:
        """Refuse, before anything is allocated, a link whose trial arrays exceed the budget.

        One trial's stacked reception, its effective channel and its symbol
        block must each fit ``linalg.MAX_ARRAY_BYTES``; the code is checked by
        ``build_dimming_matrix``.  Raises ``ArraySizeError``.
        """
        check_array_bytes("one trial's stacked reception", self.reception_bytes)
        check_array_bytes(
            "one trial's effective channel", 8 * self.n_states * self.n_rx * self.n_tx
        )
        check_array_bytes("one trial's symbol block", 8 * self.block_len * self.n_tx)

    def dimming_spec(self) -> DimmingSpec:
        return DimmingSpec(
            n_states=self.n_states,
            n_tx=self.n_tx,
            p_m=self.p_m,
            alpha=self.alpha,
            columns=self.code_columns,
        )


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a sweep needs besides the code itself.

    ``n_symbols_total`` counts transmitted slots per sweep point and must be
    a whole number of at least one block; the trial count follows from it.
    """

    scenario: SystemConfig
    snr_grid_db: tuple[float, ...] = (20.0,)
    alpha_grid: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5)
    alpha_sweep_snr_db: float = 20.0
    n_symbols_total: int = 10_000
    base_seed: int = 0
    receivers: tuple[str, ...] = (RECEIVER_ZF, RECEIVER_KRF)
    channel_model: str = "gaussian"
    noiseless: bool = False

    def __post_init__(self):
        if not self.snr_grid_db:
            raise ValueError("snr_grid_db must not be empty")
        if not self.alpha_grid:
            raise ValueError("alpha_grid must not be empty")
        for snr_db in (*self.snr_grid_db, self.alpha_sweep_snr_db):
            if not abs(snr_db) <= MAX_ABS_SNR_DB:
                raise ValueError(
                    f"SNR {snr_db} dB is outside +-{MAX_ABS_SNR_DB:g} dB; "
                    "use noiseless = true for a noiseless run"
                )
        if self.n_symbols_total % self.scenario.block_len or self.n_symbols_total < 1:
            raise ValueError(
                f"n_symbols_total = {self.n_symbols_total} is not a whole number of "
                f"blocks of {self.scenario.block_len} slots, at least one"
            )
        if not self.receivers:
            raise ValueError("at least one receiver must be enabled")
        for r in self.receivers:
            if r not in ALL_RECEIVERS:
                raise ValueError(f"unknown receiver {r!r}; expected one of {ALL_RECEIVERS}")
        if self.channel_model not in CHANNEL_MODELS:
            raise ValueError(
                f"unknown channel model {self.channel_model!r}; expected one of {CHANNEL_MODELS}"
            )
        for needs_tall, what in (
            (RECEIVER_PLAIN in self.receivers, "plain CSK zero forcing"),
            (self.channel_model == "diagonal", "the diagonal channel model"),
        ):
            if needs_tall and self.scenario.n_rx < self.scenario.n_tx:
                raise ValueError(
                    f"{what} needs n_rx >= n_tx, got {self.scenario.n_rx} < {self.scenario.n_tx}"
                )

    @property
    def n_trials(self) -> int:
        return self.n_symbols_total // self.scenario.block_len


@dataclass(frozen=True)
class TrialOutcome:
    """Per-trial, per-receiver tallies; failures carry no bit or NMSE counts."""

    bit_errors: int
    n_bits: int
    nmse: float
    cond_effective: float
    failed: bool = False


@dataclass(frozen=True)
class CurvePoint:
    """Aggregated statistics of one receiver at one sweep point."""

    x: float
    receiver: str
    ber: float
    nmse: float
    cond: float
    n_bits: int
    n_errors: int
    n_trials: int
    failures: int


def _draw_chunk(scenario: SystemConfig, seeds, channel_model: str, constellation: Constellation):
    """The generators, bits, blocks and channels of ``seeds``, stacked along a leading axis.

    Each trial draws from its own generator in the recorded order, its
    payload bits and then its gains; the chunk's bits are modulated in one
    call.
    """
    rngs = [np.random.default_rng(s) for s in seeds]
    bits = np.empty((len(seeds), 2 * scenario.l_t * (scenario.block_len - 1)), dtype=np.uint8)
    gains = np.empty((len(seeds), scenario.n_rx, scenario.n_tx))
    for t, rng in enumerate(rngs):
        bits[t] = rng.integers(0, 2, size=bits.shape[1], dtype=np.uint8)
        gains[t] = draw_channel(scenario.n_rx, scenario.n_tx, channel_model, seed=rng)
    symbols = block_with_reference(bits, scenario.block_len, scenario.l_t, constellation)
    return rngs, bits, symbols, gains


def _propagate(gains, code, symbols, receivers):
    """The clean noise targets in draw order, their channels and power, and each receiver's cond.

    The targets are the data reception and ZF's pilot estimate under
    ``code``, which ZF and VLC-KRF share, then plain CSK's reception and
    pilot estimate under the one-state all-ones code (zero forcing without
    a dimming code).  Each target's channel is given as ``(effective,
    is_data)``: the clean reception is ``effective @ symbols.T``, and ZF's
    pilots are the identity, so its clean estimate is the effective channel
    itself.  ZF and VLC-KRF report the clean effective channel's cond by its
    Khatri-Rao Gram matrix (``effective_cond``); plain CSK's square channel
    can be too ill-conditioned for that and keeps the SVD.
    """
    stacked, effective, power = propagate(gains, code, symbols)
    on_code = [r for r in receivers if r != RECEIVER_PLAIN]  # ZF and VLC-KRF report its cond
    conds = dict.fromkeys(on_code, effective_cond(gains, code)) if on_code else {}
    clean, channels, powers = [stacked], [(effective, True)], [power]
    if RECEIVER_ZF in receivers:
        clean.append(effective)
        channels.append((effective, False))
        powers.append(power)
    if RECEIVER_PLAIN in receivers:
        plain_stacked, plain_effective, plain_power = propagate(
            gains, np.ones((1, gains.shape[-1])), symbols
        )
        conds[RECEIVER_PLAIN] = np.linalg.cond(plain_effective)
        clean += [plain_stacked, plain_effective]
        channels += [(plain_effective, True), (plain_effective, False)]
        powers += [plain_power, plain_power]
    return clean, channels, powers, conds


def _detect(received, code, inverse, symbols, bits, gains, conds, receivers, constellation):
    """Detect and score one point of a chunk: its outcomes keyed by receiver.

    ``received`` lists the noisy arrays in ``_propagate``'s order and is
    emptied: the arrays after the reception are taken out as they are used,
    and VLC-KRF detects last and is handed the reception's only reference,
    which it frees before its rank-one fit.
    """
    estimates = {}
    if RECEIVER_ZF in receivers:
        estimates[RECEIVER_ZF] = zf_detect(received[0], received.pop(1), code)
    if RECEIVER_PLAIN in receivers:
        one_state = np.ones((1, code.shape[1]))
        estimates[RECEIVER_PLAIN] = zf_detect(received.pop(1), received.pop(1), one_state)
    if RECEIVER_KRF in receivers:
        estimates[RECEIVER_KRF] = krf_detect(received.pop(0), inverse, symbols[:, 0])
    received.clear()  # without VLC-KRF, free the reception before the point is scored
    results = list(estimates.values())
    payload = np.stack([e.symbol_estimate[:, 1:] for e in results])
    detected = demodulate(payload.reshape(-1, code.shape[1]), constellation)
    errors = np.sum(detected.reshape(len(results), *bits.shape) != bits, axis=-1)
    nmse = np.stack(
        [np.sum((gains - e.channel_estimate) ** 2, axis=(-2, -1)) for e in results]
    ) / np.sum(gains**2, axis=(-2, -1))
    outcomes: dict[str, list[TrialOutcome]] = {}
    for (r, result), n_errors, nmses in zip(estimates.items(), errors.tolist(), nmse.tolist()):
        outcomes[r] = [
            TrialOutcome(0, 0, math.nan, cond, failed=True)
            if failed
            else TrialOutcome(e, bits.shape[1], m, cond)
            for failed, e, m, cond in zip(result.failed.tolist(), n_errors, nmses, conds[r].tolist())
        ]
    return outcomes


def _run_chunk(scenario, points, seeds, receivers, channel_model, constellation):
    """Trials stacked along a leading axis, run at every point of a grid.

    ``points`` lists ``(code, inverse, snr_db)``; the result lists, per
    point, the outcomes keyed by receiver.  Each trial draws its bits and
    channel from its own generator (see ``_draw_chunk``), and at the first
    noisy point its unit noise for each target of ``_propagate``, in that
    order.  Each noisy point scales a trial's draw by its own standard
    deviation, which is the draw that ``Generator.normal`` makes at that
    point alone (see ``add_stacked_noise``), so its outcomes equal its
    trials run one point at a time.  Consecutive points that share a code
    object share its propagation.  Everything but the draws runs once for
    the stack.

    A draw is kept only while a later point follows: a point before the last
    adds it scaled into a one-trial temporary, and the last point scales it
    in place.  A point after the first of its code forms its clean reception
    again, one matrix product, rather than keep it, and adds noise to copies
    of the clean pilot estimates; the first point of a code copies them only
    when a later point follows.
    """
    rngs, bits, symbols, gains = _draw_chunk(scenario, seeds, channel_model, constellation)
    kept = []  # the unit draws by target, then trial, while a later point reads them
    outcomes = []
    code = None
    for i, (point_code, inverse, snr_db) in enumerate(points):
        later = i + 1 < len(points)
        if point_code is not code:
            code = point_code
            received, channels, powers, conds = _propagate(gains, code, symbols, receivers)
            if later:  # later points need the clean channels: noise copies of the pilots
                received = [r if data else r.copy() for r, (_, data) in zip(received, channels)]
        else:  # form the clean reception again, one matrix product, rather than keep it
            received = [e @ symbols.swapaxes(-1, -2) if data else e.copy() for e, data in channels]
        if not math.isinf(snr_db):  # noiseless: the clean arrays are received as they are
            fresh, draws = not kept, iter(kept)
            for target, power in zip(received, powers):
                sd = np.sqrt(noise_variance(power, snr_db))
                shape = (scenario.n_rx, target.shape[-1], target.shape[-2] // scenario.n_rx)
                for t, rng in enumerate(rngs):
                    unit = rng.standard_normal(shape) if fresh else next(draws)
                    if later:
                        add_stacked_noise(target[t], unit * sd[t])
                        if fresh:
                            kept.append(unit)
                    else:  # no later point reads the draw
                        unit *= sd[t]
                        add_stacked_noise(target[t], unit)
                    del unit  # before the next draw
            del target  # the list keeps the only references, for VLC-KRF to take
        outcomes.append(
            _detect(received, code, inverse, symbols, bits, gains, conds, receivers, constellation)
        )
    return outcomes


# Bytes of a one-point chunk's stacked reception.  Stacking more trials saves
# per-call overhead but costs memory: a one-point chunk's traced peak is
# about 2.1 times its reception at 13 QLED trials (the reception next to
# VLC-KRF's residual) and 2.5 times at 30 LEDs (a one-trial temporary next
# to it).  A one-point chunk holds two reception-sized arrays, and a chunk
# of several points about four: the unit noise it keeps, the reception it
# forms at each point, VLC-KRF's residual next to that, and the smaller
# arrays of ZF, plain CSK and scoring (3.3 times its reception at 6 QLED
# trials).  The trial count per chunk follows from the point count alone,
# noiseless or not, and the link size: 13 and 6 on the QLED 2x2 link (one
# point, several), 3 and 1 at 18 LEDs and 20 states, and 1 at 30 LEDs, whose
# one reception is 750 KiB and whose points run one at a time.
_CHUNK_BYTES = 1024 * 1024


def _chunk_trials(scenario: SystemConfig, points) -> int:
    """Trials per chunk of ``points``: 0 if a chunk of several would not hold one trial."""
    several = len(points) > 1
    size = 2 * _CHUNK_BYTES // ((4 if several else 2) * scenario.reception_bytes)
    return size if several else max(1, size)


def _run_grid(scenario, points, n_trials, base_seed, receivers, channel_model, constellation):
    """Trials ``0 .. n_trials - 1`` at every point of ``points`` (see ``_run_chunk``).

    The result lists, per point, the outcomes keyed by receiver.  Trial t
    draws from ``derive_seed(base_seed, t)`` whatever the chunking, so a
    chunk of trials equals the same trials run one at a time.  A grid whose
    chunk would not hold one trial runs one point at a time.
    """
    size = _chunk_trials(scenario, points)
    if size == 0:
        return [
            _run_grid(scenario, [p], n_trials, base_seed, receivers, channel_model, constellation)[0]
            for p in points
        ]
    outcomes = [{r: [] for r in receivers} for _ in points]
    for start in range(0, n_trials, size):
        seeds = [derive_seed(base_seed, t) for t in range(start, min(start + size, n_trials))]
        chunk = _run_chunk(scenario, points, seeds, receivers, channel_model, constellation)
        for point, result in zip(outcomes, chunk):
            for r in receivers:
                point[r] += result[r]
    return outcomes


def run_point(
    scenario: SystemConfig,
    snr_db: float,
    n_trials: int,
    base_seed: int,
    receivers: tuple[str, ...] = (RECEIVER_ZF, RECEIVER_KRF),
    channel_model: str = "gaussian",
    constellation: Constellation | None = None,
) -> dict[str, list[TrialOutcome]]:
    """Independent trials at one sweep point, keyed by receiver; the code is built once.

    This is the sweep's engine on a one-point grid.  Trial t draws from
    ``derive_seed(base_seed, t)``, so a one-trial point with base seed s is
    the trial of seed s.  ZF and VLC-KRF share the payload, channel and
    data noise of the dimming code; plain CSK has its own data and pilot
    noise.  Use ``snr_db=math.inf`` for a noiseless run.
    """
    scenario.check_size()
    code = build_dimming_matrix(scenario.dimming_spec())
    constellation = constellation or default_constellation(scenario.k_t)
    inverse = code_inverse(code) if RECEIVER_KRF in receivers else None
    point = (code, inverse, snr_db)
    return _run_grid(
        scenario, [point], n_trials, base_seed, receivers, channel_model, constellation
    )[0]


def _aggregate(x: float, receiver: str, outcomes: list[TrialOutcome]) -> CurvePoint:
    ok = [o for o in outcomes if not o.failed]
    n_bits = sum(o.n_bits for o in ok)
    n_errors = sum(o.bit_errors for o in ok)
    return CurvePoint(
        x=x,
        receiver=receiver,
        ber=(n_errors / n_bits) if n_bits else 0.0,
        nmse=float(np.mean([o.nmse for o in ok])) if ok else math.nan,
        cond=float(np.mean([o.cond_effective for o in ok])) if ok else math.nan,
        n_bits=n_bits,
        n_errors=n_errors,
        n_trials=len(outcomes),
        failures=len(outcomes) - len(ok),
    )


def check_scenario_identifiability(
    cfg: ExperimentConfig, constellation: Constellation | None = None
) -> UniquenessReport:
    """Uniqueness report for a seeded representative draw of the scenario.

    The draw replays trial 0's payload and channel under the scenario's own
    dimming depth; ``None`` selects the default constellation.
    """
    cfg.scenario.check_size()
    code = build_dimming_matrix(cfg.scenario.dimming_spec())
    constellation = constellation or default_constellation(cfg.scenario.k_t)
    _, _, symbols, gains = _draw_chunk(
        cfg.scenario, [derive_seed(cfg.base_seed, 0)], cfg.channel_model, constellation
    )
    return check_uniqueness(gains[0], symbols[0], code)


def run_sweep(
    cfg: ExperimentConfig, mode: str, constellation: Constellation | None = None
) -> dict[str, list[CurvePoint]]:
    """BER, channel-NMSE and conditioning curves, one list per receiver.

    ``mode`` picks the axis: ``"ber"`` sweeps the SNR grid at the scenario's
    dimming depth, ``"alpha"`` sweeps the dimming-depth grid at
    ``alpha_sweep_snr_db``.  Every point's code is built, and the scenario's
    identifiability checked, before any trial runs.  Every point runs the
    same trials, so each trial is drawn once for the whole grid: its bits,
    channel and unit noise, and in BER mode its clean reception and cond
    too; each point then scales the noise to its SNR.  The curves equal
    those of each point run alone through ``run_point``.
    """
    if mode == "ber":
        points = [(snr_db, snr_db, cfg.scenario) for snr_db in cfg.snr_grid_db]
    elif mode == "alpha":
        points = [
            (alpha, cfg.alpha_sweep_snr_db, dataclasses.replace(cfg.scenario, alpha=alpha))
            for alpha in cfg.alpha_grid
        ]
    else:
        raise ValueError(f"unknown sweep mode {mode!r}; expected 'ber' or 'alpha'")
    cfg.scenario.check_size()  # every point shares the scenario's array sizes
    codes = {}  # (code, inverse) per dimming depth; fails fast if any point's code is infeasible
    for _, _, scenario in points:
        if scenario.alpha not in codes:
            code = build_dimming_matrix(scenario.dimming_spec())
            inverse = code_inverse(code) if RECEIVER_KRF in cfg.receivers else None
            codes[scenario.alpha] = (code, inverse)
    if RECEIVER_ZF in cfg.receivers or RECEIVER_KRF in cfg.receivers:
        report = check_scenario_identifiability(cfg, constellation)
        if not report.unique:
            raise IdentifiabilityError(
                f"scenario fails the k-rank sum condition: {report}"
            )
    grid = [
        (*codes[scenario.alpha], math.inf if cfg.noiseless else snr_db)
        for _, snr_db, scenario in points
    ]
    results = _run_grid(
        cfg.scenario,
        grid,
        cfg.n_trials,
        cfg.base_seed,
        cfg.receivers,
        cfg.channel_model,
        constellation or default_constellation(cfg.scenario.k_t),
    )
    return {
        r: [_aggregate(x, r, point[r]) for (x, _, _), point in zip(points, results)]
        for r in cfg.receivers
    }


@dataclass(frozen=True)
class SpectralEfficiency:
    """Exact per-receiver efficiencies (bits per slot per LED pair) and their gap."""

    zf: float
    krf: float
    gain_percent: float


def spectral_efficiency(k_t: int, l_t: int, n_states: int, block_len: int) -> SpectralEfficiency:
    """Training-overhead-aware spectral efficiencies of the two receivers.

    Zero forcing spends one pilot slot per LED; the semi-blind receiver
    spends a single training slot regardless of the array size.
    """
    for name, v in (("k_t", k_t), ("l_t", l_t), ("n_states", n_states), ("block_len", block_len)):
        if not isinstance(v, (int, np.integer)) or v < 1:
            raise ValueError(f"{name} must be a positive integer, got {v!r}")
    useful = 2 * l_t * block_len
    zf = Fraction(useful, block_len * n_states + k_t * l_t)
    krf = Fraction(useful, block_len * n_states + 1)
    gain = (krf / zf - 1) * 100
    return SpectralEfficiency(zf=float(zf), krf=float(krf), gain_percent=float(gain))


@dataclass(frozen=True)
class PowerColorAudit:
    """Measured optical effect of a dimming code on a random symbol stream."""

    power_target: float
    relative_power: float
    chroma_before: tuple[float, float]
    chroma_after: tuple[float, float]

    @property
    def chroma_shift(self) -> tuple[float, float]:
        return (
            abs(self.chroma_after[0] - self.chroma_before[0]),
            abs(self.chroma_after[1] - self.chroma_before[1]),
        )


def audit_power_color(
    scenario: SystemConfig,
    n_rows: int = 10_000,
    seed: int = 0,
    table: ChromaticityTable | None = None,
    constellation: Constellation | None = None,
) -> PowerColorAudit:
    """Check that dimming scales power to the target without moving the color point.

    The stream of ``n_rows`` random slots enters only through each LED's
    total level, so each group's four labels are counted instead of
    modulated.  ``None`` for ``table`` or ``constellation`` selects the
    default for ``k_t``.
    """
    table = table or default_chromaticity(scenario.k_t)
    constellation = constellation or default_constellation(scenario.k_t)
    check_array_bytes("the audited bit draw", 2 * scenario.l_t * n_rows)
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=2 * scenario.l_t * n_rows, dtype=np.uint8)
    labels = symbol_labels(bits, n_rows, scenario.l_t)
    del bits  # the counts need only the labels
    counts = np.stack([np.count_nonzero(labels == v, axis=0) for v in range(4)], axis=-1)
    totals = (counts @ constellation.points).reshape(-1)
    if scenario.alpha == 0.0 and 0.0 < scenario.p_m < 1.0:
        # constant dimming: useless as a code but a valid optical operating point;
        # build_dimming_matrix rejects any other P_m, as `design` does
        code = np.full((scenario.n_states, scenario.n_tx), float(scenario.p_m))
    else:
        code = build_dimming_matrix(scenario.dimming_spec())
    no_dimming = np.ones_like(code)
    return PowerColorAudit(
        power_target=scenario.p_m,
        relative_power=average_power(code, totals),
        chroma_before=average_chromaticity(no_dimming, totals, table),
        chroma_after=average_chromaticity(code, totals, table),
    )


def default_scenarios() -> dict[str, SystemConfig]:
    """Reference link geometries used by the bundled configs and checks."""
    return {
        "qled2x2-k12": SystemConfig(k_t=4, l_t=2, k_r=4, l_r=2, n_states=12, block_len=100),
        "qled2x2-k16": SystemConfig(k_t=4, l_t=2, k_r=4, l_r=2, n_states=16, block_len=100),
        "tled2x2-k12": SystemConfig(k_t=3, l_t=2, k_r=3, l_r=2, n_states=12, block_len=100),
    }


def flatten_curves(curves: dict[str, list[CurvePoint]]) -> list[CurvePoint]:
    """Row order used by the CSV emitters: by sweep point, then receiver."""
    rows: list[CurvePoint] = []
    receivers = list(curves)
    if not receivers:
        return rows
    n_points = len(curves[receivers[0]])
    for i in range(n_points):
        for r in receivers:
            rows.append(curves[r][i])
    return rows


def write_curves_csv(curves: dict[str, list[CurvePoint]], path) -> Path:
    """Emit one CSV with the fixed column set; formatting is deterministic."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for p in flatten_curves(curves):
            writer.writerow(
                [
                    f"{p.x:.10g}",
                    p.receiver,
                    f"{p.ber:.12g}",
                    f"{p.nmse:.12g}",
                    f"{p.cond:.12g}",
                    p.n_bits,
                    p.n_errors,
                    p.n_trials,
                    p.failures,
                ]
            )
    return path
