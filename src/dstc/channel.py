"""Optical MIMO channel: gain draws, noisy propagation, tensor unfoldings.

The channel gain matrix is held constant across the K dimming states of a
block.  Stacking the per-state receptions along a third axis gives a
three-way array with receive elements on axis 0, time slots on axis 1, and
dimming states on axis 2; the received signal is then trilinear in the
channel, the symbols, and the dimming code, which is what the semi-blind
receiver exploits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import ZERO_RTOL, DegenerateInputError

CHANNEL_MODELS = ("gaussian", "diagonal")

# Odd 64-bit Weyl increment used to split one base seed into per-trial seeds.
_SEED_STRIDE = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def derive_seed(base_seed: int, index: int) -> int:
    """Deterministic per-trial seed: base XOR an odd multiple of the index."""
    return (int(base_seed) ^ ((int(index) * _SEED_STRIDE) & _MASK64)) & _MASK64


def _rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def draw_channel(n_rx: int, n_tx: int, model: str = "gaussian", seed=None) -> np.ndarray:
    """Draw one channel gain matrix.

    ``gaussian`` fills every entry with a standard normal draw.  ``diagonal``
    models isolated color channels: zero everywhere except positive gains at
    (i, i), which needs at least as many receive as transmit elements.
    """
    if n_rx < 1 or n_tx < 1:
        raise ValueError(f"matrix dimensions must be positive, got {n_rx}x{n_tx}")
    rng = _rng(seed)
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


@dataclass(frozen=True)
class ReceivedTensor:
    """Stacked per-state receptions (n_rx, n_slots, n_states) plus the noise level used."""

    data: np.ndarray
    noise_variance: float


def propagate(
    gains: np.ndarray,
    code: np.ndarray,
    symbols: np.ndarray,
    snr_db: float,
    seed=None,
) -> ReceivedTensor:
    """Send one symbol block through the channel in every dimming state and add noise.

    State k transmits ``np.diag(code[k]) @ symbols.T``.  The noise variance
    is calibrated so that the mean squared noiseless received entry over
    this block sits ``snr_db`` above it; pass ``snr_db=math.inf`` for a
    noiseless run.  The white Gaussian noise's variance is returned with the
    data, for the pilot phase to reuse.  A received power that is rounding
    error next to the scale of the channel and the transmitted block leaves
    the SNR undefined.
    """
    gains = np.asarray(gains, dtype=float)
    code = np.asarray(code, dtype=float)
    symbols = np.asarray(symbols, dtype=float)
    n_tx = gains.shape[1]
    if code.ndim != 2 or code.shape[1] != n_tx or symbols.ndim != 2 or symbols.shape[1] != n_tx:
        raise ValueError(
            f"code and symbols must have {n_tx} columns, got {code.shape} and {symbols.shape}"
        )
    blocks = code[:, :, None] * symbols.T[None, :, :]
    clean = np.einsum("ij,kjn->ink", gains, blocks)
    noise_variance = 0.0
    if not math.isinf(snr_db):
        power = float(np.mean(clean**2))
        scale = float(np.abs(gains).max() * np.abs(code).max() * np.abs(symbols).max())
        if power <= (ZERO_RTOL * scale) ** 2:
            raise DegenerateInputError("noiseless received power is zero; SNR undefined")
        noise_variance = power / (10.0 ** (snr_db / 10.0))
    data = clean
    if noise_variance > 0.0:
        data = clean + _rng(seed).normal(scale=math.sqrt(noise_variance), size=clean.shape)
    return ReceivedTensor(data, noise_variance)


def unfold(tensor, mode: int) -> np.ndarray:
    """Mode-n unfolding with the lower-numbered remaining mode varying fastest.

    With factor matrices ``h`` (axis 0), ``s`` (axis 1), ``c`` (axis 2) each
    unfolding is one factor times the transposed column-wise Kronecker
    (Khatri-Rao) product of the other two, e.g. mode 3 gives ``c`` times that
    of ``s`` and ``h``.  Each row of the mode-3 unfolding is one state's
    reception stacked column by column (receive index fastest).
    """
    data = tensor.data if isinstance(tensor, ReceivedTensor) else np.asarray(tensor, dtype=float)
    if data.ndim != 3:
        raise ValueError(f"expected a 3-way array, got shape {data.shape}")
    i1, i2, i3 = data.shape
    if mode == 1:
        return data.transpose(0, 2, 1).reshape(i1, i3 * i2)
    if mode == 2:
        return data.transpose(1, 2, 0).reshape(i2, i3 * i1)
    if mode == 3:
        return data.transpose(2, 1, 0).reshape(i3, i2 * i1)
    raise ValueError(f"mode must be 1, 2, or 3, got {mode}")
