"""Receivers for dimming-coded CSK blocks.

Both detectors take the state-stacked reception that ``channel.propagate``
returns and give back symbol and channel estimates only; the caller slices
and scores them.  The zero-forcing receiver inverts an estimate of the
effective (state-stacked) channel.  It is trained with one-LED-at-a-time
pilots, so the pilot matrix is the identity and the least-squares estimate
is the effective channel plus one pilot-noise draw at the data noise level.
The semi-blind receiver inverts the known dimming code out of the per-state
rows, which leaves one rank-one matrix (channel column times symbol column)
per LED; one batched best rank-one fit recovers both factors up to one
scale per column, resolved by the known training row in slot 0.
Conventional (uncoded) CSK is the zero-forcing receiver on the one-state
all-ones code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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

    ``symbol_estimate`` covers every slot of the block, training slot
    included.  ``channel_estimate`` is always the plain n_rx x n_tx gain
    matrix so that different receivers can be compared on the same object.
    """

    symbol_estimate: np.ndarray
    channel_estimate: np.ndarray


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


def zf_detect(stacked: np.ndarray, effective: np.ndarray, code: np.ndarray) -> EstimationResult:
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
    return EstimationResult(
        symbol_estimate=(pseudoinverse(effective) @ stacked).T,
        channel_estimate=channel_from_effective(effective, code),
    )


def krf_detect(
    stacked: np.ndarray, code: np.ndarray, known_values: np.ndarray
) -> EstimationResult:
    """Semi-blind joint channel/symbol recovery from one block.

    Row block k of ``stacked`` is state k's n_rx x n_slots reception, which
    is ``code[k]`` applied to one outer product ``outer(gains[:, r],
    symbols[:, r])`` per LED r.  Inverting the code out of the flattened
    state blocks leaves those n_tx rank-one matrices, fitted at once by one
    batched SVD.  Every column pair is then rescaled so that the estimated
    training row (slot 0) matches ``known_values``, which also absorbs the
    SVD's arbitrary sign.  Neither those values nor the estimated row may be
    negligible next to the largest entry they are compared with, otherwise
    that column's scale is unobservable.
    """
    stacked = np.asarray(stacked, dtype=float)
    code = np.asarray(code, dtype=float)
    known_values = np.asarray(known_values, dtype=float).reshape(-1)
    n_states, n_tx = code.shape
    if stacked.ndim != 2 or stacked.shape[0] % n_states:
        raise ValueError(
            f"stacked reception of shape {stacked.shape} does not stack {n_states} states"
        )
    if known_values.size != n_tx:
        raise ValueError(f"known row must have {n_tx} entries, got {known_values.size}")
    zero_cols = np.flatnonzero(np.abs(known_values) <= ZERO_RTOL * np.abs(known_values).max())
    if zero_cols.size:
        raise AmbiguityError(
            f"known symbol row is zero in column {int(zero_cols[0])}; "
            "its scale cannot be resolved"
        )
    if np.linalg.matrix_rank(code) < n_tx:
        raise ValueError("dimming code must have full column rank")

    residual = pseudoinverse(code) @ stacked.reshape(n_states, -1)
    blocks = residual.reshape(n_tx, stacked.shape[0] // n_states, stacked.shape[1])
    dead = np.flatnonzero(~blocks.any(axis=(1, 2)))
    if dead.size:
        raise DegenerateInputError(
            f"residual column {int(dead[0])} is all zero; no rank-one direction"
        )
    sigma, u, v = leading_rank_one(blocks)
    gains = (sigma[:, None] * u).T
    symbols = v.T

    zero_est = np.flatnonzero(np.abs(symbols[0]) <= ZERO_RTOL * np.abs(symbols).max(axis=0))
    if zero_est.size:
        raise AmbiguityError(
            f"estimated symbol row is zero in column {int(zero_est[0])}; "
            "scaling is unresolvable"
        )
    scales = known_values / symbols[0]
    return EstimationResult(symbol_estimate=symbols * scales, channel_estimate=gains / scales)
