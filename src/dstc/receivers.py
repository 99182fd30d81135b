"""Receivers for dimming-coded CSK blocks.

Both detectors take a noisy state-stacked reception, one block or a stack
of blocks along leading axes: the clean one, ``effective @ symbols.T``
of the effective channel that ``channel.effective_channel`` returns, plus
noise at the variance that ``channel.noise_variance`` sets for an SNR from
that clean reception's ``channel.received_power``, added by
``channel.add_stacked_noise``.  The detectors read
their inputs and never write them, so the experiment engine may hand them
arrays it forms again at each sweep point.  They give back symbol and
channel estimates plus a per-block failure mask; the caller slices and
scores them.  A degenerate block is flagged in the mask, never raised, so one bad
trial does not stop its neighbours; malformed shapes and arguments still
raise.  The zero-forcing receiver solves against an estimate of the
effective (state-stacked) channel by the normal equations, one small Gram
system per block, and falls back to the pseudoinverse on a block whose
estimate is too ill-conditioned for them (``linalg.least_squares``).  It is
trained with one-LED-at-a-time pilots, so the pilot matrix is the identity
and the least-squares estimate is the effective channel plus one
pilot-noise draw at the data noise level, which the experiment engine adds.
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

from .linalg import (
    ZERO_RTOL,
    full_column_rank,
    leading_rank_one,
    least_squares,
    pseudoinverse,
)

RECEIVER_ZF = "ZF"
RECEIVER_KRF = "VLC-KRF"
RECEIVER_PLAIN = "plain-CSK"


class AmbiguityError(RuntimeError):
    """Per-column scaling cannot be resolved from the known symbol row."""


@dataclass(frozen=True)
class EstimationResult:
    """Output of one detector run on a block or a stack of blocks.

    ``symbol_estimate`` ``(..., n_slots, n_tx)`` covers every slot of the
    block, training slot included.  ``channel_estimate`` ``(..., n_rx, n_tx)``
    is always the plain gain matrix so that different receivers can be
    compared on the same object.  ``failed`` ``(...)`` flags the blocks the
    receiver could not resolve; their estimates carry no meaning.
    """

    symbol_estimate: np.ndarray
    channel_estimate: np.ndarray
    failed: np.ndarray


def channel_from_effective(effective: np.ndarray, code: np.ndarray) -> np.ndarray:
    """Collapse a state-stacked channel estimate (or a stack of them) back to plain gains.

    Block k scales column j by code[k, j]; dividing it out and averaging over
    the blocks gives one comparable n_rx x n_tx estimate.  States whose code
    entry is zero carry no information about that column (at full dimming
    depth half the states switch a LED off) and are left out of its average.
    """
    effective = np.asarray(effective, dtype=float)
    code = np.asarray(code, dtype=float)
    n_states, n_tx = code.shape
    if effective.ndim < 2 or effective.shape[-2] % n_states != 0 or effective.shape[-1] != n_tx:
        raise ValueError(
            f"effective estimate of shape {effective.shape} does not stack "
            f"{n_states} blocks of {n_tx} columns"
        )
    usable = np.abs(code) > ZERO_RTOL * np.abs(code).max()
    if not np.all(usable.any(axis=0)):
        dark = int(np.flatnonzero(~usable.any(axis=0))[0])
        raise ValueError(f"dimming code column {dark} is all zeros; LED never lit")
    blocks = effective.reshape(*effective.shape[:-2], n_states, -1, n_tx)
    safe = np.where(usable, code, 1.0)
    ratios = blocks / safe[:, None, :]
    weights = usable[:, None, :].astype(float)
    return (ratios * weights).sum(axis=-3) / weights.sum(axis=0)


def zf_detect(stacked: np.ndarray, effective: np.ndarray, code: np.ndarray) -> EstimationResult:
    """Zero-forcing detection against an effective-channel estimate.

    ``stacked`` ``(..., n_states * n_rx, n_slots)`` and ``effective``
    ``(..., n_states * n_rx, n_tx)`` carry the same leading axes.  The
    dimming ``code`` collapses the estimate to plain gains for error
    reporting; the one-state all-ones code leaves it unchanged.  The
    symbols are ``pinv(effective) @ stacked``, taken by
    ``linalg.least_squares``.  A block whose estimate is negligible next to
    the reception it must explain is flagged as failed.
    """
    stacked = np.asarray(stacked, dtype=float)
    effective = np.asarray(effective, dtype=float)
    if stacked.ndim < 2 or stacked.shape[:-1] != effective.shape[:-1]:
        raise ValueError(
            f"stacked rows ({stacked.shape[:-1]}) must match effective-channel rows "
            f"({effective.shape[:-1]})"
        )
    largest = np.abs(effective).max(axis=(-2, -1))
    # the largest |entry| of the reception without an |stacked|-sized temporary
    peak = np.maximum(stacked.max(axis=(-2, -1)), -stacked.min(axis=(-2, -1)))
    failed = largest <= ZERO_RTOL * peak
    return EstimationResult(
        symbol_estimate=least_squares(effective, stacked).swapaxes(-1, -2),
        channel_estimate=channel_from_effective(effective, code),
        failed=failed,
    )


def code_inverse(code: np.ndarray) -> np.ndarray:
    """The pseudoinverse that ``krf_detect`` applies; the code must pass ``full_column_rank``.

    That is the rank test ``build_dimming_matrix`` applies too.  The inverse
    is the same for every trial under one code, so it is formed once per
    code.
    """
    code = np.asarray(code, dtype=float)
    if not full_column_rank(code):
        raise ValueError("dimming code must have full column rank")
    return pseudoinverse(code)


def krf_detect(
    stacked: np.ndarray, inverse: np.ndarray, known_values: np.ndarray
) -> EstimationResult:
    """Semi-blind joint channel/symbol recovery from a block or a stack of blocks.

    Row block k of ``stacked`` ``(..., n_states * n_rx, n_slots)`` is state
    k's n_rx x n_slots reception, which is ``code[k]`` applied to one outer
    product ``outer(gains[:, r], symbols[:, r])`` per LED r.  Applying
    ``inverse = code_inverse(code)`` to the flattened state blocks leaves
    those n_tx rank-one matrices, fitted at once by one batched rank-one
    fit.  Every column pair is then rescaled so that the estimated training
    row (slot 0) matches ``known_values`` (one row, or one per block), which
    also absorbs the fit's arbitrary sign.  A known value that is negligible
    next to the largest one is refused.  A block with an all-zero residual
    column, or whose estimated row is negligible next to that column's
    largest entry, has an unobservable scale and is flagged as failed.
    """
    stacked = np.asarray(stacked, dtype=float)
    inverse = np.asarray(inverse, dtype=float)
    known_values = np.asarray(known_values, dtype=float)
    n_tx, n_states = inverse.shape
    if stacked.ndim < 2 or stacked.shape[-2] % n_states:
        raise ValueError(
            f"stacked reception of shape {stacked.shape} does not stack {n_states} states"
        )
    if known_values.shape[-1:] != (n_tx,):
        raise ValueError(f"known row must have {n_tx} entries, got {known_values.shape}")
    zero_known = np.abs(known_values) <= ZERO_RTOL * np.abs(known_values).max(
        axis=-1, keepdims=True
    )
    if zero_known.any():
        raise AmbiguityError(
            f"known symbol row is zero in column {int(np.argwhere(zero_known)[0, -1])}; "
            "its scale cannot be resolved"
        )

    lead, (rows, n_slots) = stacked.shape[:-2], stacked.shape[-2:]
    residual = inverse @ stacked.reshape(*lead, n_states, -1)
    del stacked  # a caller that handed over its only reference frees the reception here
    blocks = residual.reshape(*lead, n_tx, rows // n_states, n_slots)
    sigma, u, v = leading_rank_one(blocks)
    gains = (sigma[..., None] * u).swapaxes(-1, -2)
    symbols = v.swapaxes(-1, -2)

    first = symbols[..., 0, :]
    unresolved = np.abs(first) <= ZERO_RTOL * np.abs(symbols).max(axis=-2)
    failed = (~blocks.any(axis=(-2, -1)) | unresolved).any(axis=-1)
    scales = known_values / np.where(failed[..., None], 1.0, first)
    return EstimationResult(
        symbol_estimate=symbols * scales[..., None, :],
        channel_estimate=gains / scales[..., None, :],
        failed=failed,
    )
