"""Optical MIMO channel: gain draws, state-stacked propagation and its noise.

The channel gain matrix is held constant across the K dimming states of a
block.  A reception is carried stacked: rows ``k * n_rx`` to
``(k + 1) * n_rx - 1`` hold dimming state k, one column per time slot.  The
stacked block is the effective (state-stacked) channel times the transposed
symbols, and each state's rows are linear in the dimming code's row k,
which is what both receivers exploit.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import ZERO_RTOL, DegenerateInputError, gram_cond

CHANNEL_MODELS = ("gaussian", "diagonal")

# Odd 64-bit Weyl increment used to split one base seed into per-trial seeds.
_SEED_STRIDE = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def derive_seed(base_seed: int, index: int) -> int:
    """Deterministic per-trial seed: base XOR an odd multiple of the index."""
    return (int(base_seed) ^ ((int(index) * _SEED_STRIDE) & _MASK64)) & _MASK64


def draw_channel(n_rx: int, n_tx: int, model: str = "gaussian", seed=None) -> np.ndarray:
    """Draw one channel gain matrix.

    ``gaussian`` fills every entry with a standard normal draw.  ``diagonal``
    models isolated color channels: zero everywhere except positive gains at
    (i, i), which needs at least as many receive as transmit elements.
    """
    if n_rx < 1 or n_tx < 1:
        raise ValueError(f"matrix dimensions must be positive, got {n_rx}x{n_tx}")
    rng = np.random.default_rng(seed)
    if model == "gaussian":
        return rng.standard_normal((n_rx, n_tx))
    if model == "diagonal":
        if n_rx < n_tx:
            raise ValueError(
                f"diagonal model needs n_rx >= n_tx, got {n_rx} < {n_tx}"
            )
        h = np.zeros((n_rx, n_tx))
        h[np.arange(n_tx), np.arange(n_tx)] = np.abs(rng.standard_normal(n_tx))
        return h
    raise ValueError(f"unknown channel model {model!r}; expected one of {CHANNEL_MODELS}")


def effective_channel(gains: np.ndarray, code: np.ndarray) -> np.ndarray:
    """State-stacked channel: block k is the gain matrix scaled by dimming row k.

    ``gains`` may be a stack ``(..., n_rx, n_tx)``; each matrix is stacked alone.
    """
    gains = np.asarray(gains, dtype=float)
    code = np.asarray(code, dtype=float)
    if gains.shape[-1] != code.shape[1]:
        raise ValueError(
            f"gain columns ({gains.shape[-1]}) must match code columns ({code.shape[1]})"
        )
    n_states, n_tx = code.shape
    stacked = code[:, None, :] * gains[..., None, :, :]
    return stacked.reshape(*gains.shape[:-2], n_states * gains.shape[-2], n_tx)


def effective_cond(gains: np.ndarray, code: np.ndarray) -> np.ndarray:
    """``np.linalg.cond(effective_channel(gains, code))`` without the stacked channel.

    The effective channel is the column-wise Khatri-Rao product of the code
    and the gains, so its Gram matrix is the Hadamard product ``(code.T @
    code) * (gains.T @ gains)`` (Kolda & Bader, SIAM Review 2009, 2.6), an
    ``n_tx x n_tx`` matrix per gain matrix in the stack; see
    ``linalg.gram_cond`` for its accuracy.
    """
    gains = np.asarray(gains, dtype=float)
    code = np.asarray(code, dtype=float)
    return gram_cond((code.T @ code) * (gains.swapaxes(-1, -2) @ gains))


def add_stacked_noise(target: np.ndarray, noise: np.ndarray) -> None:
    """Add ``noise`` in place to a stacked ``(..., n_states * n_rx, n_cols)`` array.

    ``noise`` ``(..., n_rx, n_cols, n_states)`` is in the order that the
    fixed-seed results were drawn in.  It is added through the
    state-by-state view of ``target``; splitting its row axis never copies.
    ``sd * rng.standard_normal(shape)`` is the draw that ``rng.normal(scale=sd,
    size=shape)`` makes, and leaves ``rng`` in the same place.
    """
    *lead, n_rx, n_cols, n_states = noise.shape
    by_state = target.reshape(*lead, n_states, n_rx, n_cols)
    by_state += np.moveaxis(noise, -1, -3)


def _mean_square(stacked: np.ndarray) -> np.ndarray:
    """``np.mean(stacked**2, axis=(-2, -1))``, squaring a quarter of the blocks at a time.

    The squares of a stack of blocks never all exist at once, and each
    block's mean is bit-identical to the one-call form: a block's sum never
    spans two slabs.
    """
    blocks = stacked.reshape(-1, *stacked.shape[-2:])
    power = np.empty(len(blocks))
    step = max(1, -(-len(blocks) // 4))
    for start in range(0, len(blocks), step):
        power[start:start + step] = np.mean(blocks[start:start + step] ** 2, axis=(-2, -1))
    return power.reshape(stacked.shape[:-2])


def propagate(
    gains: np.ndarray, code: np.ndarray, symbols: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Send a symbol block through the channel in every dimming state.

    Returns the noiseless stacked reception ``effective @ symbols.T``,
    ``effective = effective_channel(gains, code)``, and the received power,
    the mean squared entry of each noiseless block, from which
    ``noise_variance`` sets the noise of any SNR.  The caller adds the noise
    (see ``add_stacked_noise``) and the pilot phase reuses ``effective``.  A
    power that is rounding error next to the scale of the channel and the
    transmitted block leaves every SNR undefined, and is returned as NaN.

    ``gains`` ``(..., n_rx, n_tx)`` and ``symbols`` ``(..., n_slots, n_tx)``
    broadcast over their leading axes, and so the power has one entry per
    block.
    """
    gains = np.asarray(gains, dtype=float)
    code = np.asarray(code, dtype=float)
    symbols = np.asarray(symbols, dtype=float)
    n_tx = gains.shape[-1]
    if code.ndim != 2 or code.shape[1] != n_tx or symbols.ndim < 2 or symbols.shape[-1] != n_tx:
        raise ValueError(
            f"code and symbols must have {n_tx} columns, got {code.shape} and {symbols.shape}"
        )
    effective = effective_channel(gains, code)
    stacked = effective @ symbols.swapaxes(-1, -2)
    power = _mean_square(stacked)
    peak = np.abs(gains).max(axis=(-2, -1)) * np.abs(code).max()
    scale = peak * np.abs(symbols).max(axis=(-2, -1))
    power = np.where(power <= (ZERO_RTOL * scale) ** 2, np.nan, power)
    return stacked, effective, power


def noise_variance(power: np.ndarray, snr_db: float) -> np.ndarray:
    """The noise variance of each block whose received ``power`` sits ``snr_db`` above it.

    ``power`` is what ``propagate`` returns; the variance is 0 for a
    noiseless run (``snr_db=math.inf``).  A power that leaves the SNR
    undefined (NaN), or a finite SNR whose variance underflows, raises
    ``DegenerateInputError``.
    """
    if math.isinf(snr_db):
        return np.zeros_like(power)
    if np.isnan(power).any():
        raise DegenerateInputError("noiseless received power is zero; SNR undefined")
    variance = power / (10.0 ** (snr_db / 10.0))
    if not np.all(variance >= np.finfo(float).tiny):
        raise DegenerateInputError(
            f"noise variance underflows at {snr_db:g} dB (received power {np.min(power):.3g})"
        )
    return variance
