"""Optical MIMO channel: gain draws, state-stacked propagation and its noise.

The channel gain matrix is held constant across the K dimming states of a
block.  A reception is carried stacked: rows ``k * n_rx`` to
``(k + 1) * n_rx - 1`` hold dimming state k, one column per time slot.  The
stacked block is the effective (state-stacked) channel times the transposed
symbols, and each state's rows are linear in the dimming code's row k,
which is what both receivers exploit.  The noise of an SNR is set from the
mean square of that clean block (``received_power``, ``noise_variance``).
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import ZERO_RTOL, DegenerateInputError

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


def draw_unit_noise(
    rng: np.random.Generator, n_rx: int, rows: int, n_cols: int, out: np.ndarray | None = None
) -> np.ndarray:
    """One unit-variance noise draw for a stacked ``(n_states * n_rx, n_cols)`` array.

    It is drawn as ``(n_rx, n_cols, n_states)``, the order that the
    fixed-seed results were drawn in; ``add_stacked_noise`` and
    ``stack_noise`` read it in that order.  Given ``out``, a contiguous
    array of that shape, the draw fills it: the same draw, which leaves
    ``rng`` in the same state.
    """
    return rng.standard_normal((n_rx, n_cols, rows // n_rx), out=out)


def _by_state(noise: np.ndarray) -> np.ndarray:
    """The ``(..., n_states, n_rx, n_cols)`` view of a draw of ``draw_unit_noise``."""
    lead = range(noise.ndim - 3)
    return noise.transpose(*lead, noise.ndim - 1, noise.ndim - 3, noise.ndim - 2)


def add_stacked_noise(target: np.ndarray, noise: np.ndarray) -> None:
    """Add ``noise``, a (scaled) draw of ``draw_unit_noise``, in place to a stacked ``target``.

    ``target`` is ``(..., n_states * n_rx, n_cols)``, and ``noise`` is added
    through its state-by-state view; splitting its row axis never copies.
    ``sd * rng.standard_normal(shape)`` is the draw that ``rng.normal(scale=sd,
    size=shape)`` makes, and leaves ``rng`` in the same place.
    """
    by_state = _by_state(noise)
    view = target.reshape(by_state.shape)
    view += by_state


def stack_noise(noise: np.ndarray, out: np.ndarray) -> None:
    """Copy a ``draw_unit_noise`` draw into ``out``, the stacked array that ``add_stacked_noise`` adds."""
    by_state = _by_state(noise)
    out.reshape(by_state.shape)[...] = by_state


def received_power(clean, gains, code, symbols) -> np.ndarray:
    """The received power of each block: the mean squared entry of its clean reception.

    ``clean`` ``(..., rows, slots)`` holds the noiseless stacked receptions
    ``effective_channel(gains, code) @ symbols.T``, one block per leading
    index; each block is squared alone, so no temporary outgrows one block.
    A power within ``ZERO_RTOL`` of its block's scale, peak |gains| * peak
    |code| * peak |symbols|, is rounding error next to the channel and the
    transmitted block: it leaves every SNR undefined and is returned as NaN.
    """
    rows, slots = clean.shape[-2:]
    # np.mean's sum and division, bit for bit, without its per-call overhead
    sums = np.array([np.square(b).sum() for b in clean.reshape(-1, rows, slots)])
    power = sums.reshape(clean.shape[:-2]) / (rows * slots)
    peak = np.abs(gains).max(axis=(-2, -1)) * np.abs(code).max()
    scale = peak * np.abs(symbols).max(axis=(-2, -1))
    return np.where(power <= (ZERO_RTOL * scale) ** 2, np.nan, power)


def noise_variance(power: np.ndarray, snr_db: float) -> np.ndarray:
    """The noise variance of each block whose received ``power`` sits ``snr_db`` above it.

    ``power`` is what ``received_power`` returns; the variance is 0 for a
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
