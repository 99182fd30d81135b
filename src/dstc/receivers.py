"""Receivers for dimming-coded CSK blocks.

Two detectors share the stacked received model: a pilot-assisted
zero-forcing receiver and a semi-blind receiver that exploits the trilinear
structure of the received block.  The zero-forcing receiver is trained with
one-LED-at-a-time pilots, so the pilot matrix is the identity and the
least-squares estimate of the effective (state-stacked) channel is the
effective channel plus one pilot-noise draw at the data noise level.  The
semi-blind receiver inverts the known dimming code out of the mode-3
unfolding, which leaves a Khatri-Rao product of symbols and channel; each of
its columns is a vectorized rank-one matrix, so one batched best rank-one
fit recovers both factors up to one scale per column, resolved by a single
known symbol row.
Conventional (uncoded) CSK is the zero-forcing receiver on the one-state
all-ones code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ReceivedTensor, unfold
from .csk import Constellation, demodulate
from .linalg import ZERO_RTOL, DegenerateInputError, leading_rank_one, pseudoinverse

RECEIVER_ZF = "ZF"
RECEIVER_KRF = "VLC-KRF"
RECEIVER_PLAIN = "plain-CSK"


class EqualizationError(RuntimeError):
    """The linear equalizer could not be formed (degenerate effective channel)."""


class AmbiguityError(RuntimeError):
    """Per-column scaling cannot be resolved from the known symbol row."""


@dataclass(frozen=True)
class EstimationResult:
    """Output of one detector run on one block.

    ``bits`` covers every row of the block, training slot included; callers
    that embed a training row slice it off when counting errors.
    ``channel_estimate`` is always the plain n_rx x n_tx gain matrix so that
    different receivers can be compared on the same object.
    """

    symbol_estimate: np.ndarray
    bits: np.ndarray
    channel_estimate: np.ndarray


def stack_received(tensor) -> np.ndarray:
    """Stack per-state receptions vertically: rows of block k are state k's rows."""
    data = tensor.data if isinstance(tensor, ReceivedTensor) else np.asarray(tensor, dtype=float)
    if data.ndim != 3:
        raise ValueError(f"expected a 3-way array, got shape {data.shape}")
    n_rx, n_slots, n_states = data.shape
    return data.transpose(2, 0, 1).reshape(n_states * n_rx, n_slots)


def effective_channel(gains: np.ndarray, code: np.ndarray) -> np.ndarray:
    """State-stacked channel: block k is the gain matrix scaled by dimming row k."""
    gains = np.asarray(gains, dtype=float)
    code = np.asarray(code, dtype=float)
    if gains.shape[1] != code.shape[1]:
        raise ValueError(
            f"gain columns ({gains.shape[1]}) must match code columns ({code.shape[1]})"
        )
    n_states, n_tx = code.shape
    return (code[:, None, :] * gains[None, :, :]).reshape(n_states * gains.shape[0], n_tx)


def channel_from_effective(effective: np.ndarray, code: np.ndarray) -> np.ndarray:
    """Collapse a state-stacked channel estimate back to plain gains.

    Block k scales column j by code[k, j]; dividing it out and averaging over
    the blocks gives one comparable n_rx x n_tx estimate.  States whose code
    entry is zero carry no information about that column (at full dimming
    depth half the states switch a LED off) and are left out of its average.
    """
    effective = np.asarray(effective, dtype=float)
    code = np.asarray(code, dtype=float)
    n_states, n_tx = code.shape
    if effective.shape[0] % n_states != 0 or effective.shape[1] != n_tx:
        raise ValueError(
            f"effective estimate of shape {effective.shape} does not stack "
            f"{n_states} blocks of {n_tx} columns"
        )
    usable = np.abs(code) > ZERO_RTOL * np.abs(code).max()
    if not np.all(usable.any(axis=0)):
        dark = int(np.flatnonzero(~usable.any(axis=0))[0])
        raise ValueError(f"dimming code column {dark} is all zeros; LED never lit")
    blocks = effective.reshape(n_states, -1, n_tx)
    safe = np.where(usable, code, 1.0)
    ratios = blocks / safe[:, None, :]
    weights = usable[:, None, :].astype(float)
    return (ratios * weights).sum(axis=0) / weights.sum(axis=0)


def zf_detect(
    stacked: np.ndarray,
    effective: np.ndarray,
    constellation: Constellation,
    code: np.ndarray,
) -> EstimationResult:
    """Zero-forcing detection against an effective-channel estimate.

    The dimming ``code`` collapses the estimate to plain gains for error
    reporting; the one-state all-ones code leaves it unchanged.  An estimate
    that is negligible next to the reception it must explain is refused.
    """
    stacked = np.asarray(stacked, dtype=float)
    effective = np.asarray(effective, dtype=float)
    if stacked.shape[0] != effective.shape[0]:
        raise ValueError(
            f"stacked rows ({stacked.shape[0]}) must match effective-channel rows "
            f"({effective.shape[0]})"
        )
    if np.abs(effective).max() <= ZERO_RTOL * np.abs(stacked).max():
        raise EqualizationError("effective-channel estimate is zero; nothing to invert")
    symbols = (pseudoinverse(effective) @ stacked).T
    bits = demodulate(symbols, constellation)
    return EstimationResult(
        symbol_estimate=symbols,
        bits=bits,
        channel_estimate=channel_from_effective(effective, code),
    )


def krf_detect(
    received: ReceivedTensor,
    code: np.ndarray,
    known_row: int,
    known_values: np.ndarray,
    constellation: Constellation,
) -> EstimationResult:
    """Semi-blind joint channel/symbol recovery from one block.

    Inverts the dimming code out of the mode-3 unfolding, fits each residual
    column with its best rank-one matrix (channel column times symbol
    column), and rescales every column pair so that the estimated symbol row
    ``known_row`` matches ``known_values``.  Neither those values nor the
    estimated row may be negligible next to the largest entry they are
    compared with, otherwise that column's scale is unobservable.

    Each mode-3 row stacks one state's reception column-major (receive index
    fastest), so column r of the residual is the column-major vec of the
    n_rx x n_slots matrix ``outer(gains[:, r], symbols[:, r])``.  All n_tx
    columns are un-vectorised at once and fitted by one batched SVD; the
    known-row rescale absorbs the SVD's arbitrary sign per column.
    """
    code = np.asarray(code, dtype=float)
    known_values = np.asarray(known_values, dtype=float).reshape(-1)
    n_states, n_tx = code.shape
    data = received.data if isinstance(received, ReceivedTensor) else np.asarray(received, dtype=float)
    n_rx, n_slots = data.shape[0], data.shape[1]
    if data.shape[2] != n_states:
        raise ValueError(
            f"received tensor has {data.shape[2]} states but the code has {n_states}"
        )
    if known_values.size != n_tx:
        raise ValueError(f"known row must have {n_tx} entries, got {known_values.size}")
    if not 0 <= known_row < n_slots:
        raise ValueError(f"known row {known_row} outside block of {n_slots} slots")
    zero_cols = np.flatnonzero(np.abs(known_values) <= ZERO_RTOL * np.abs(known_values).max())
    if zero_cols.size:
        raise AmbiguityError(
            f"known symbol row is zero in column {int(zero_cols[0])}; "
            "its scale cannot be resolved"
        )
    if np.linalg.matrix_rank(code) < n_tx:
        raise ValueError("dimming code must have full column rank")

    joint = unfold(data, 3).T @ pseudoinverse(code.T)
    blocks = joint.T.reshape(n_tx, n_slots, n_rx).transpose(0, 2, 1)
    dead = np.flatnonzero(~blocks.any(axis=(1, 2)))
    if dead.size:
        raise DegenerateInputError(
            f"residual column {int(dead[0])} is all zero; no rank-one direction"
        )
    sigma, u, v = leading_rank_one(blocks)
    gains = (sigma[:, None] * u).T
    symbols = v.T

    estimated_row = symbols[known_row]
    zero_est = np.flatnonzero(np.abs(estimated_row) <= ZERO_RTOL * np.abs(symbols).max(axis=0))
    if zero_est.size:
        raise AmbiguityError(
            f"estimated symbol row is zero in column {int(zero_est[0])}; "
            "scaling is unresolvable"
        )
    scales = known_values / estimated_row
    symbols = symbols * scales
    gains = gains / scales
    bits = demodulate(symbols, constellation)
    return EstimationResult(
        symbol_estimate=symbols,
        bits=bits,
        channel_estimate=gains,
    )

