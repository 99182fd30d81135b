"""Monte Carlo harness: BER/NMSE and dimming-depth sweeps, link audits.

One trial transmits a single block of ``block_len`` slots (first slot is the
semi-blind receiver's training row) over a freshly drawn channel.  Trial
seeds are split deterministically from the base seed and are independent of
the sweep point, so every receiver at a given (trial, point) sees the same
channel and payload, and paired runs that share a base seed stay paired
across sweeps.  Since every point draws the same trials (common random
numbers), a sweep draws each trial once: its bits, channel and unit noise,
which each point scales to the noise level that its own clean reception's
power sets (each depth's products mix from draws that no depth changes).
The results equal those of each point run alone.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import itertools
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
    draw_unit_noise,
    effective_channel,
    noise_variance,
    received_power,
    stack_noise,
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
from .linalg import check_array_bytes, gram_cond
from .receivers import (
    RECEIVER_KRF,
    RECEIVER_PLAIN,
    RECEIVER_ZF,
    code_inverse,
    code_mixing,
    krf_detect,
    krf_detect_grid,
    krf_terms,
    zf_detect,
    zf_detect_grid,
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
    def payload_bits(self) -> int:
        """Bits of one block: two per LED group in each slot after the training row."""
        return 2 * self.l_t * (self.block_len - 1)

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
        if not 0 <= self.base_seed < 2**64:
            raise ValueError(f"base_seed = {self.base_seed} is outside [0, 2**64)")
        if not self.receivers:
            raise ValueError("at least one receiver must be enabled")
        for i, r in enumerate(self.receivers):
            if r not in ALL_RECEIVERS:
                raise ValueError(f"unknown receiver {r!r}; expected one of {ALL_RECEIVERS}")
            if r in self.receivers[:i]:
                raise ValueError(f"receiver {r!r} is listed twice")
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
    bits = np.empty((len(seeds), scenario.payload_bits), dtype=np.uint8)
    gains = np.empty((len(seeds), scenario.n_rx, scenario.n_tx))
    for t, rng in enumerate(rngs):
        bits[t] = rng.integers(0, 2, size=bits.shape[1], dtype=np.uint8)
        gains[t] = draw_channel(scenario.n_rx, scenario.n_tx, channel_model, seed=rng)
    symbols = block_with_reference(bits, scenario.block_len, scenario.l_t, constellation)
    return rngs, bits, symbols, gains


def _propagate(gains, code, receivers):
    """The links of a chunk in draw order and each receiver's cond.

    A link is the dimming ``code``, which ZF and VLC-KRF share, or plain
    CSK's one-state all-ones code (zero forcing without a dimming code).
    Each is given as ``(effective, link_code, pilot)``: its clean data
    reception is ``effective @ symbols.T``, and where ``pilot`` (ZF and
    plain CSK) it has a pilot estimate too, whose clean value is the
    effective channel itself, since ZF's pilots are the identity.  ZF and
    VLC-KRF report the clean effective channel's cond from its Khatri-Rao
    Gram matrix ``(code.T @ code) * (gains.T @ gains)`` (``linalg.gram_cond``)
    of the code scaled by a power of two to a largest |entry| in [0.5, 1),
    which is exact and leaves the cond as it is, but keeps the Gram matrix
    normal at any code scale; plain CSK's square channel can be too
    ill-conditioned for that and keeps the SVD.
    """
    effective = effective_channel(gains, code)
    on_code = [r for r in receivers if r != RECEIVER_PLAIN]  # ZF and VLC-KRF report its cond
    unit = np.ldexp(code, -np.frexp(np.abs(code).max())[1])
    gram = (unit.T @ unit) * (gains.swapaxes(-1, -2) @ gains)
    conds = dict.fromkeys(on_code, gram_cond(gram)) if on_code else {}
    links = [(effective, code, RECEIVER_ZF in receivers)]
    if RECEIVER_PLAIN in receivers:
        one_state = np.ones((1, gains.shape[-1]))
        plain = effective_channel(gains, one_state)
        conds[RECEIVER_PLAIN] = np.linalg.cond(plain)
        links.append((plain, one_state, True))
    return links, conds


def _score(result, bits, gains, cond, constellation):
    """Each block's ``(failed, errors, nmse, cond)`` under one receiver's estimates.

    ``result`` is an ``EstimationResult`` whose leading axes are ``(trials,)``
    for one point or ``(points, trials)``; each array is given as ``(points,
    trials)``.  A failed block has 0 errors and a NaN nmse; ``cond``, each
    trial's from ``_propagate``, is the same at every point.
    """
    payload = result.symbol_estimate[..., 1:, :]
    detected = demodulate(payload.reshape(-1, payload.shape[-1]), constellation)
    errors = np.sum(detected.reshape(*payload.shape[:-2], -1) != bits, axis=-1)
    nmse = np.sum((gains - result.channel_estimate) ** 2, axis=(-2, -1)) / np.sum(
        gains**2, axis=(-2, -1)
    )
    failed, errors, nmse = (a.reshape(-1, len(bits)) for a in (result.failed, errors, nmse))
    cond = np.broadcast_to(cond, failed.shape).copy()  # the route patches its open blocks in place
    return failed, np.where(failed, 0, errors), np.where(failed, np.nan, nmse), cond


def _run_formed(scenario, points, seeds, receivers, channel_model, constellation):
    """A chunk of ``_run_grid`` on one point or a noiseless grid, by forming each point's reception.

    Each point forms its links (``_propagate``) and their targets: the data
    reception, one matrix product, and the pilot estimate, the point's own
    effective channel, which shares the reception's standard deviation.  A
    noisy point, its grid's only one, adds each unit draw, scaled in place,
    as it is drawn.
    """
    rngs, bits, symbols, gains = _draw_chunk(scenario, seeds, channel_model, constellation)
    scores = []
    for code, inverse, snr_db in points:
        links, conds = _propagate(gains, code, receivers)
        received = []
        for e, link_code, pilot in links:
            received += [e @ symbols.swapaxes(-1, -2)] + [e] * pilot
            if not math.isinf(snr_db):  # each trial draws its targets in turn
                power = received_power(received[-1 - pilot], gains, link_code, symbols)
                sd = np.sqrt(noise_variance(power, snr_db))
                for i, (t, rng) in itertools.product(range(-1 - pilot, 0), enumerate(rngs)):
                    unit = draw_unit_noise(rng, scenario.n_rx, *received[i].shape[-2:])
                    unit *= sd[t]
                    add_stacked_noise(received[i][t], unit)
                    del unit  # before the next draw
        # VLC-KRF detects last, handed the reception's only reference, freed before its fit
        estimates = {}
        if RECEIVER_ZF in receivers:
            estimates[RECEIVER_ZF] = zf_detect(received[0], received.pop(1), code)
        if RECEIVER_PLAIN in receivers:  # on the one-state code of its link, the last
            estimates[RECEIVER_PLAIN] = zf_detect(received.pop(1), received.pop(1), links[-1][1])
        if RECEIVER_KRF in receivers:
            estimates[RECEIVER_KRF] = krf_detect(received.pop(0), inverse, symbols[:, 0])
        received.clear()  # without VLC-KRF, free the reception before the point is scored
        scores.append(
            {r: _score(e, bits, gains, conds[r], constellation) for r, e in estimates.items()}
        )
    return {r: tuple(map(np.vstack, zip(*(point[r] for point in scores)))) for r in receivers}


class _LinkProducts:
    """The dimming code's draws over the chunks of a grid, reduced to products that no point changes.

    Its arrays hold ``n_trials``, a chunk of the grid, and each chunk fills
    its trials' rows in place, so a larger chunk takes no fresh pages.  A
    chunk's draws are taken into ``draws`` and reduced at once.  Given
    ``mixing`` ``W`` (``receivers.code_mixing``), a reception draw ``N``
    keeps ``||N||`` and ``rows``, ``W @ N`` over ``N``'s state blocks, and
    where ``krf`` VLC-KRF's ``terms`` of them (``receivers.krf_terms``).
    Where ``pilot`` (ZF) it keeps ``max|N|``, and the pilot draw ``P``,
    stacked, and ``P.T @ N``.  ``rows`` and ``terms`` share one array,
    ``space``, with the chunk's clean receptions, which are read before its
    draws.
    """

    def __init__(self, n_trials, n_states, n_tx, n_rx, n_slots, pilot, mixing=None, krf=False):
        self.n_states, self.mixing, self.n_rx, self.n_slots = n_states, mixing, n_rx, n_slots
        self.peaks, self.norms = np.empty(n_trials), np.empty(n_trials)
        self.pilot = np.empty((n_trials, n_states * n_rx, n_tx)) if pilot else None
        self.product = np.empty((n_trials, n_tx, n_slots)) if pilot else None
        if mixing is not None:
            shapes = [(n_trials, len(mixing), n_rx, n_slots)] + [(n_trials, 3, *shape) for shape in (
                (n_rx, n_rx), (n_tx, n_rx, n_rx), (n_tx, n_rx))] * krf
            ends = np.cumsum([math.prod(shape) for shape in shapes])
            self.space = np.empty(max(ends[-1], n_trials * n_states * n_rx * n_slots))
            self.rows, *terms = (self.space[end - math.prod(shape):end].reshape(shape)
                                 for shape, end in zip(shapes, ends))
            self.terms = terms or None

    def draws(self, n_trials):
        """Arrays for ``n_trials`` trials' ``N`` and, where ``pilot``, ``P``, as ``draw_unit_noise`` draws them."""
        columns = (self.n_slots,) if self.pilot is None else (self.n_slots, self.pilot.shape[-1])
        return [np.empty((n_trials, self.n_rx, cols, self.n_states)) for cols in columns]

    def reduce(self, draws):
        """Reduce the chunk's ``draws`` to the link's products."""
        noise, n = draws[0], len(draws[0])
        flat = noise.reshape(n, -1)
        if self.mixing is not None:
            np.matmul(self.mixing, flat.reshape(n, -1, self.n_states).swapaxes(-1, -2),
                      out=self.rows[:n].reshape(n, len(self.mixing), -1))
            self.norms[:n] = np.sqrt(np.einsum("ti,ti->t", flat, flat))
        if self.pilot is None:
            return
        self.peaks[:n] = np.maximum(flat.max(axis=-1), -flat.min(axis=-1))
        pilot = draws[1]
        stack_noise(pilot, self.pilot[:n])
        product = self.product[:n]  # P.T @ N over the state blocks, a receiver at a time
        np.matmul(pilot[:, 0], noise[:, 0].swapaxes(-1, -2), out=product)
        for i in range(1, self.n_rx):
            product += pilot[:, i] @ noise[:, i].swapaxes(-1, -2)


def _stack(arrays):
    """``np.stack(arrays)``; a group on one code reads its one array as a view, not a copy."""
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


def _route_links(scenario, points, receivers, n_trials):
    """The grid's mixing coefficients and the arrays that every chunk of it fills.

    Returns ``(coefficients, coded, plain)`` for ``_run_route``:
    ``coefficients`` holds each point's ``receivers.code_mixing``
    coefficients, ZF's two and then VLC-KRF's three, and ``coded`` the
    dimming code's ``_LinkProducts``.  ``plain`` holds plain CSK's unit
    draws ``N`` and ``P`` as ``draw_unit_noise`` draws them, which on its
    one-state link are the stacked arrays with a trailing axis of one, or
    is ``None`` without plain CSK.
    """
    n_tx, n_rx, n_slots = scenario.n_tx, scenario.n_rx, scenario.block_len
    mixes = [code_mixing(code) for code, *_ in points]
    on_code = RECEIVER_ZF in receivers or RECEIVER_KRF in receivers
    coded = _LinkProducts(
        n_trials, scenario.n_states, n_tx, n_rx, n_slots, RECEIVER_ZF in receivers,
        mixes[0][0] if on_code else None, RECEIVER_KRF in receivers,
    )
    plain = None
    if RECEIVER_PLAIN in receivers:
        plain = [np.empty((n_trials, n_rx, cols, 1)) for cols in (n_slots, n_tx)]
    return np.array([m[1] for m in mixes]), coded, plain


def _run_route(scenario, points, seeds, receivers, channel_model, constellation, kept):
    """A chunk of ``_run_grid`` on a noisy grid of several points, without forming the code's reception.

    Each trial's draws on the dimming code are reduced once to products
    that no point changes, in the grid's ``kept`` arrays (``_route_links``).
    Every code is ``p + a * B`` for one ``B`` (``build_dimming_matrix`` at
    each depth), so one draw's rows ``W @ N`` serve every depth
    (``receivers.code_mixing``): ZF's ``E.T @ N`` and VLC-KRF's residual
    Gram terms (``receivers.krf_terms``) mix from them at each point within
    about 1e-15 of the formed product, relative to its largest entry.  The
    points are detected a group at a time, in one batched pass per receiver
    (``receivers.zf_detect_grid``, ``receivers.krf_detect_grid``), whatever
    their codes.  A block that those leave open is formed afterwards, a
    point at a time, on its open trials, by drawing those trials again
    (``_run_formed``).  Plain CSK's one-state link, which no point changes,
    is formed at every point from the draws that ``kept`` holds, as a point
    run alone forms it, and detected by ``zf_detect`` a group at a time.
    """
    rngs, bits, symbols, gains = _draw_chunk(scenario, seeds, channel_model, constellation)
    n_rx, n_slots, n_tx = scenario.n_rx, scenario.block_len, scenario.n_tx
    coefficients, coded, plain = kept
    on_code = tuple(r for r in receivers if r != RECEIVER_PLAIN)  # they read the dimming code
    links, conds = _propagate(gains, points[0][0], receivers)
    powers = []  # plain CSK's clean received power, the same at every point
    if plain is not None:
        (plain_effective, one_state, _), plain_cond = links.pop(), conds.pop(RECEIVER_PLAIN)
        plain_clean = plain_effective @ symbols.swapaxes(-1, -2)
        powers.append(received_power(plain_clean, gains, one_state, symbols))
    # each code once: its conds, and its clean reception's power and largest
    # |entry|, one clean reception at a time
    clean = {}
    for code, *_ in points:
        if id(code) not in clean:
            if clean:  # the first code's are propagated above
                links, conds = _propagate(gains, code, on_code)
            e = links.pop()[0]
            size = e.shape[0] * e.shape[1] * n_slots
            y0 = np.matmul(e, symbols.swapaxes(-1, -2), out=coded.space[:size].reshape(
                *e.shape[:2], n_slots) if on_code else None)
            peak = np.maximum(y0.max(axis=(-2, -1)), -y0.min(axis=(-2, -1)))
            clean[id(code)] = (conds, received_power(y0, gains, code, symbols), peak)
            del e, y0
    # every point's sd per link, checked point by point as a point run alone checks it
    sds = np.array([[np.sqrt(noise_variance(p, snr)) for p in (clean[id(code)][1], *powers)]
                    for code, _, snr in points])
    n, g = len(seeds), gains.swapaxes(-1, -2)
    drawn, plain_draws = coded.draws(n), [a[:n] for a in plain or ()]
    for t, rng in enumerate(rngs):  # the code's link, then plain CSK's, as a point run draws them
        for d in drawn + plain_draws:
            draw_unit_noise(rng, n_rx, n_rx * d.shape[-1], d.shape[-2], d[t])
    coded.reduce(drawn)
    del drawn
    rows = coded.rows[:n] if on_code else None
    if RECEIVER_KRF in receivers:
        terms = krf_terms(rows, symbols, [a[:n] for a in coded.terms])
    # a group's largest arrays (per point, receiver and trial, ZF's rows x n_tx
    # estimate, a block_len x n_tx symbol estimate or VLC-KRF's n_tx Gram
    # matrices) stay within a quarter of the chunk's rows x block_len
    # reception, and scoring them holds about four such arrays
    size = max(1, min(scenario.n_states * n_rx, n_slots) // (4 * n_tx))
    groups = np.array_split(np.arange(len(points)), -(-len(points) // size))
    scores = {}
    for r in on_code:
        if r == RECEIVER_ZF:  # block j of each code's E.T @ N is g_j.T @ (p * Z0 + a * Zj)
            shared = np.stack([g @ rows[:, 0], (g[..., None, :] @ rows[:, 2:])[..., 0, :]])
        parts = []
        for group in groups:
            codes = [points[i][0] for i in group]
            codes = codes[:1] if all(c is codes[0] for c in codes) else codes
            if r == RECEIVER_KRF:
                power = np.array([clean[id(points[i][0])][1] for i in group])
                result = krf_detect_grid(
                    gains, symbols, terms, coefficients[group, 2:],
                    np.stack([points[i][1] for i in group])[:, None],
                    (np.sqrt(power * scenario.n_states * n_rx * n_slots), coded.norms[:n]),
                    sds[group, 0], symbols[:, 0],
                )
            else:  # ZF
                products = np.tensordot(coefficients[group[:len(codes)], :2], shared, 1)
                result = zf_detect_grid(
                    _stack([effective_channel(gains, c) for c in codes]), coded.pilot[:n],
                    symbols, (products, coded.product[:n]),
                    (_stack([clean[id(c)][2] for c in codes]), coded.peaks[:n]),
                    sds[group, 0], _stack([c[None] for c in codes]),
                )
                del products  # before the group is scored
            cond = _stack([clean[id(c)][0][r] for c in codes])
            parts.append(_score(result, bits, gains, cond, constellation))
            del result
        scores[r] = tuple(map(np.vstack, zip(*parts)))
        shared = None  # ZF's, before the next receiver
    for i, point in enumerate(points):  # the open blocks, formed from their draws
        open_ = {r: score[0][i].copy() for r, score in scores.items() if score[0][i].any()}
        if open_:
            trials = np.flatnonzero(np.any(list(open_.values()), axis=0))
            formed = _run_formed(
                scenario, [point], [seeds[t] for t in trials], tuple(open_), channel_model,
                constellation,
            )
            for r, blocks in open_.items():
                for whole, part in zip(scores[r], formed[r]):
                    whole[i, trials] = np.where(blocks[trials], part[0], whole[i, trials])
    if plain is not None:  # formed at every point as a point run alone forms it
        noise, pilot = (d[..., 0] for d in plain_draws)
        parts = []
        for group in groups:
            scale = sds[group, -1, :, None, None]
            result = zf_detect(
                plain_clean + scale * noise, plain_effective + scale * pilot, one_state
            )
            parts.append(_score(result, bits, gains, plain_cond, constellation))
        scores[RECEIVER_PLAIN] = tuple(map(np.vstack, zip(*parts)))
    return scores


# Bytes of a chunk's stacked reception, and every chunk holds at least one
# trial: 13 on the QLED 2x2 link, 3 at 18 LEDs and 20 states, 1 at 30 LEDs.
# Stacking more trials saves per-call overhead but costs memory.  A one-point
# chunk (formed) holds about two reception-sized arrays, a chunk of several
# points (routed) up to four: its draws' depth-free rows and their terms
# next to one group's detection.  ``TestChunkMemory`` bounds the traced peaks.
_CHUNK_BYTES = 1024 * 1024


def _chunk_trials(scenario: SystemConfig) -> int:
    """Trials per chunk, at least one."""
    return max(1, _CHUNK_BYTES // scenario.reception_bytes)


def _run_grid(scenario, points, n_trials, base_seed, receivers, channel_model, constellation):
    """Trials ``0 .. n_trials - 1`` at every point of a grid, a chunk of trials at a time.

    ``points`` lists ``(code, inverse, snr_db)``; the result is each
    receiver's ``_score`` over ``(points, trials)``.  Trial t draws from
    ``derive_seed(base_seed, t)`` whatever the chunking, so a chunk of
    trials equals the same trials run one at a time.  Each trial draws its
    bits and channel from its own generator (see ``_draw_chunk``), and on a
    noisy grid, once for every point, its unit noise for each target of
    each link of ``_propagate``, in that order.  Each noisy point sets a
    link's noise from the received power of its clean data reception
    (``received_power``), and scales a trial's draw by that link's standard
    deviation, which is the draw that ``Generator.normal`` makes at that
    point alone (see ``channel.add_stacked_noise``), so its outcomes equal
    its trials run one point at a time.  Everything but the draws and the
    per-block mean squares runs once for the stack.

    The engine is chosen once for the grid, by its shape alone: a noisy
    grid of two or more points takes ``_run_route``, whatever its codes,
    with arrays allocated once for all its chunks; one point, where the
    route's reductions cost more than they save, or a noiseless grid, which
    draws no noise, takes ``_run_formed``.
    """
    routed = len(points) > 1 and not any(math.isinf(snr_db) for *_, snr_db in points)
    size = _chunk_trials(scenario)
    run = _run_formed
    if routed:
        kept = _route_links(scenario, points, receivers, min(size, n_trials))
        run = functools.partial(_run_route, kept=kept)
    chunks = []
    for start in range(0, n_trials, size):
        seeds = [derive_seed(base_seed, t) for t in range(start, min(start + size, n_trials))]
        chunks.append(run(scenario, points, seeds, receivers, channel_model, constellation))
    return {r: tuple(map(np.hstack, zip(*(chunk[r] for chunk in chunks)))) for r in receivers}


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
    grid = [(code, inverse, snr_db)]
    out = _run_grid(scenario, grid, n_trials, base_seed, receivers, channel_model, constellation)
    n_bits = scenario.payload_bits
    return {  # a failed trial's nmse is the math.nan object, so equal outcomes compare ==
        r: [
            TrialOutcome(0, 0, math.nan, c, failed=True) if f else TrialOutcome(e, n_bits, m, c)
            for f, e, m, c in zip(*(a[0].tolist() for a in score))
        ]
        for r, score in out.items()
    }


def _aggregate(x: float, receiver: str, score, n_bits: int) -> CurvePoint:
    """One point's ``(failed, errors, nmse, cond)`` over its trials; a block carries ``n_bits``."""
    failed, errors, nmse, cond = score
    ok = ~failed
    n_bits *= int(np.count_nonzero(ok))
    n_errors = int(errors.sum())  # a failed block has none
    return CurvePoint(
        x=x,
        receiver=receiver,
        ber=(n_errors / n_bits) if n_bits else 0.0,
        nmse=float(np.mean(nmse[ok])) if ok.any() else math.nan,
        cond=float(np.mean(cond[ok])) if ok.any() else math.nan,
        n_bits=n_bits,
        n_errors=n_errors,
        n_trials=len(failed),
        failures=int(failed.sum()),
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


def _sweep_points(cfg: ExperimentConfig, mode: str) -> list[tuple[float, float, float]]:
    """``(x, snr_db, alpha)`` of each point of the ``mode`` sweep."""
    if mode == "ber":
        return [(snr_db, snr_db, cfg.scenario.alpha) for snr_db in cfg.snr_grid_db]
    if mode == "alpha":
        return [(alpha, cfg.alpha_sweep_snr_db, alpha) for alpha in cfg.alpha_grid]
    raise ValueError(f"unknown sweep mode {mode!r}; expected 'ber' or 'alpha'")


def run_sweeps(
    cfg: ExperimentConfig, modes, constellation: Constellation | None = None
) -> dict[str, dict[str, list[CurvePoint]]]:
    """BER, channel-NMSE and conditioning curves of each sweep in ``modes``.

    The result maps each mode to one list of points per receiver.  ``"ber"``
    sweeps the SNR grid at the scenario's dimming depth, ``"alpha"`` sweeps
    the dimming-depth grid at ``alpha_sweep_snr_db``.  Every depth's code is
    built first and then, if ZF or VLC-KRF is enabled, the scenario's
    identifiability is checked once (``check_scenario_identifiability``), so
    an infeasible depth in any sweep raises ``ConstraintViolationError``, and
    a scenario that fails the check ``IdentifiabilityError``, before a trial
    of any sweep runs.  The distinct ``(snr_db, alpha)`` points of every
    sweep, keyed on the SNR as listed even when noiseless, make one grid
    whose trials are each drawn once (see ``_run_grid``), so the curves
    equal those of each point run alone through ``run_point``.
    """
    cfg.scenario.check_size()  # every point shares the scenario's array sizes
    sweeps = {mode: _sweep_points(cfg, mode) for mode in modes}
    codes, index = {}, {}  # each depth's code, and each distinct (snr_db, alpha)'s grid row
    for _, snr_db, alpha in itertools.chain(*sweeps.values()):
        if alpha not in codes:
            scenario = dataclasses.replace(cfg.scenario, alpha=alpha)
            code = build_dimming_matrix(scenario.dimming_spec())
            codes[alpha] = (code, code_inverse(code) if RECEIVER_KRF in cfg.receivers else None)
        index.setdefault((snr_db, alpha), len(index))
    if RECEIVER_ZF in cfg.receivers or RECEIVER_KRF in cfg.receivers:
        report = check_scenario_identifiability(cfg, constellation)
        if not report.unique:
            raise IdentifiabilityError(f"scenario fails the k-rank sum condition: {report}")
    constellation = constellation or default_constellation(cfg.scenario.k_t)
    grid = [(*codes[a], math.inf if cfg.noiseless else snr_db) for snr_db, a in index]
    results = _run_grid(
        cfg.scenario, grid, cfg.n_trials, cfg.base_seed, cfg.receivers, cfg.channel_model,
        constellation,
    )
    n_bits = cfg.scenario.payload_bits
    return {
        mode: {
            r: [
                _aggregate(x, r, [a[index[snr_db, alpha]] for a in results[r]], n_bits)
                for x, snr_db, alpha in points
            ]
            for r in cfg.receivers
        }
        for mode, points in sweeps.items()
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
