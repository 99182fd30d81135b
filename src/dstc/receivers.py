"""Receivers for dimming-coded CSK blocks.

Both detectors take a noisy state-stacked reception, one block or a stack
of blocks along leading axes: the clean one, ``effective @ symbols.T``
of the effective channel that ``channel.effective_channel`` returns, plus
noise at the variance that ``channel.noise_variance`` sets for an SNR from
that clean reception's ``channel.received_power``, added by
``channel.add_stacked_noise``.  The detectors read their inputs and never
write them, so the experiment engine may hand them arrays it forms again at
each sweep point.  They give back symbol and channel estimates plus a
per-block failure mask; the caller slices and scores them.  A degenerate
block is flagged in the mask, never raised, so one bad trial does not stop
its neighbours; malformed shapes and arguments still raise.  The zero-forcing receiver solves against an estimate of the
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
all-ones code.  ``zf_detect_grid`` and ``krf_detect_grid`` run the two
detectors at every point of a grid of noise scales and dimming depths, from
the clean link's factors and products of the unit noise that neither
changes (``code_mixing``, ``krf_terms``).  They settle only the blocks whose
every test clearly passes, and flag all others as failed, for the caller to
detect from the formed reception.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    EIGENGAP_RTOL,
    ZERO_RTOL,
    full_column_rank,
    leading_eigenvector,
    leading_rank_one,
    least_squares,
    normal_solve,
    pseudoinverse,
)

RECEIVER_ZF = "ZF"
RECEIVER_KRF = "VLC-KRF"
RECEIVER_PLAIN = "plain-CSK"

# Largest distance, relative to its scale, between a quantity of the grid
# detectors and the same quantity of a detector run on the formed reception.
# Both are roundings of one value, about 1e-15 apart where the grid's
# rank-one fit converges and within 1e-10 where ``eigh`` settles it; a block
# passes a grid test only by more than this margin, and is flagged otherwise.
GRID_RTOL = 1e-9


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
    A stack of codes along leading axes broadcasts against the estimates.
    """
    effective = np.asarray(effective, dtype=float)
    code = np.asarray(code, dtype=float)
    n_states, n_tx = code.shape[-2:]
    if effective.ndim < 2 or effective.shape[-2] % n_states != 0 or effective.shape[-1] != n_tx:
        raise ValueError(
            f"effective estimate of shape {effective.shape} does not stack "
            f"{n_states} blocks of {n_tx} columns"
        )
    usable = np.abs(code) > ZERO_RTOL * np.abs(code).max(axis=(-2, -1), keepdims=True)
    if not np.all(usable.any(axis=-2)):
        dark = int(np.argwhere(~usable.any(axis=-2))[0, -1])
        raise ValueError(f"dimming code column {dark} is all zeros; LED never lit")
    blocks = effective.reshape(*effective.shape[:-2], n_states, -1, n_tx)
    safe = np.where(usable, code, 1.0)
    ratios = blocks / safe[..., None, :]
    weights = usable[..., None, :].astype(float)
    return (ratios * weights).sum(axis=-3) / weights.sum(axis=-3)


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
    unresolved = np.abs(v[..., 0]) <= ZERO_RTOL * np.abs(v).max(axis=-1)
    failed = (~blocks.any(axis=(-2, -1)) | unresolved).any(axis=-1)
    return _resolve_scales(sigma, u, v, known_values, failed)


def _resolve_scales(sigma, u, v, known_values, failed):
    """VLC-KRF's estimates from its rank-one fits, each column scaled to the known training row.

    ``sigma`` ``(..., n_tx)``, ``u`` ``(..., n_tx, n_rx)`` and ``v`` ``(..., n_tx,
    n_slots)`` are the fits of the LEDs' residuals.  The ``failed`` blocks are
    not divided by their training row.
    """
    gains = (sigma[..., None] * u).swapaxes(-1, -2)
    symbols = v.swapaxes(-1, -2)
    scales = known_values / np.where(failed[..., None], 1.0, symbols[..., 0, :])
    return EstimationResult(
        symbol_estimate=symbols * scales[..., None, :],
        channel_estimate=gains / scales[..., None, :],
        failed=failed,
    )


def zf_detect_grid(effective, pilot, symbols, products, peaks, sd, code):
    """``zf_detect`` at every noise scale of a grid, without forming the reception.

    At scale ``sd`` ZF takes the pilot estimate ``Ê = E + sd * P`` of the
    ``effective`` channel ``E`` and the unit pilot draw ``pilot`` ``P``
    ``(..., rows, n_tx)``, and the reception ``Y = E @ S.T + sd * N`` of the
    ``symbols`` ``S`` ``(..., n_slots, n_tx)`` and the unit draw ``N``.
    ``Ê`` is formed as the engine forms it, and ``Ê.T @ Y`` as
    ``(Ê.T @ E) @ S.T + sd * (E.T @ N + sd * P.T @ N)`` from ``products``
    ``(E.T @ N, P.T @ N)``, each ``(..., n_tx, n_slots)``.  The
    negligible-estimate test reads ``max|Y|``, which is at most ``max|E @
    S.T| + sd * max|N|`` (``peaks``, each ``(...)``) up to rounding.  ``sd``
    is ``(g, ...)``, one row per point, as are ``E``, ``E.T @ N``, ``max|E @
    S.T|`` and the ``code`` ``(g, 1, n_states, n_tx)`` of a grid of codes.

    The result's leading axes are ``(g, ...)``.  ``failed`` marks every block
    that this does not settle: its ``Ê`` fails the normal-equations test, or
    its estimate is not clearly above the negligible bound.  Those blocks
    carry no meaning, not even their verdict; every other block's verdict is
    ``zf_detect``'s.
    """
    scale = sd[..., None, None]
    estimate = effective + scale * pilot
    transposed = estimate.swapaxes(-1, -2)
    rhs = (transposed @ effective) @ symbols.swapaxes(-1, -2)
    rhs += scale * (products[0] + scale * products[1])
    x, normal = normal_solve(transposed @ estimate, rhs)
    del rhs  # before the channel estimate's temporaries
    largest = np.abs(estimate).max(axis=(-2, -1))
    high = (peaks[0] + sd * peaks[1]) * (1.0 + GRID_RTOL)
    failed = ~normal | (largest <= ZERO_RTOL * high)
    channel = channel_from_effective(estimate, code)
    return EstimationResult(x.swapaxes(-1, -2), channel, failed)


def code_mixing(code):
    """The rows of a draw that no dimming depth changes, and how the ``code``'s products mix from them.

    ``build_dimming_matrix`` builds ``C = p + a * B`` from +-1 Hadamard
    columns ``B`` with ``B.T @ B = K * I`` and ``1.T @ B = 0``, so ``C`` holds
    two values, ``p + a`` and ``p - a``; ``p`` and ``a`` are read from them as
    the code holds them.  ``W = [1.T; (B @ 1).T; B.T]`` takes a draw ``N``
    over the code's K state blocks to the rows ``W @ N``: ``Z0``, their sum
    ``S`` over the LEDs, and one row ``Zj`` per LED j, which every depth of
    ``B`` shares.  Block j of ``C.T @ N`` is ``p * Z0 + a * Zj``, and by
    Sherman-Morrison on ``C.T @ C = K * (a**2 * I + p**2 * 1 @ 1.T)``, block j
    of ``C+ @ N`` is ``m0 * Z0 + m1 * Zj + m2 * S``.  Returns ``(W, [p, a,
    m0, m1, m2])``; the last three are formed from ``p / a``, so none
    underflows where ``p`` and ``a`` are tiny.
    """
    code = np.asarray(code, dtype=float)
    n_states, n_tx = code.shape
    high, low = code.max(), code.min()
    level, swing = (high + low) / 2, (high - low) / 2
    signs = np.sign(code - level)
    rows = np.vstack([np.ones(n_states), signs.sum(axis=1), signs.T])
    ratio = level / swing
    m1 = 1.0 / (n_states * swing)
    m0 = ratio / (1.0 + n_tx * ratio**2) * m1
    return rows, np.array([level, swing, m0, m1, -ratio * m0])


def krf_terms(rows, symbols, out=None):
    """The products of a draw's depth-free rows that ``krf_detect_grid`` reads at every point.

    ``rows`` ``(..., n_tx + 2, n_rx, n_slots)`` are ``Z0``, ``S`` and ``Z1 ..
    Zn`` of ``code_mixing``, and ``symbols`` ``(..., n_slots, n_tx)`` the
    blocks, of columns ``s_j``.  Returns ``(rows, shared, by_led,
    products)``: ``shared`` ``(..., 3, n_rx, n_rx)`` holds ``Z0 @ Z0.T``, ``S
    @ Z0.T`` and ``S @ S.T``; ``by_led`` ``(..., 3, n_tx, n_rx, n_rx)`` LED
    j's ``Zj @ Zj.T``, ``Zj @ Z0.T`` and ``Zj @ S.T``; ``products`` ``(...,
    3, n_tx, n_rx)`` ``Z0 @ s_j``, ``S @ s_j`` and ``Zj @ s_j``.  Given
    ``out``, those three arrays, they are filled in place.
    """
    lead, n_tx, n_rx = rows.shape[:-3], rows.shape[-3] - 2, rows.shape[-2]
    if out is None:
        out = [np.empty((*lead, 3, *shape)) for shape in
               ((n_rx, n_rx), (n_tx, n_rx, n_rx), (n_tx, n_rx))]
    shared, by_led, products = out
    z0, total, each = rows[..., :1, :, :], rows[..., 1:2, :, :], rows[..., 2:, :, :]
    for i, (a, b) in enumerate(((z0, z0), (total, z0), (total, total))):
        np.matmul(a, b.swapaxes(-1, -2), out=shared[..., i:i + 1, :, :])
    for i, b in enumerate((each, z0, total)):
        np.matmul(each, b.swapaxes(-1, -2), out=by_led[..., i, :, :, :])
    s = symbols.swapaxes(-1, -2)
    for i, a in enumerate((z0, total)):
        np.matmul(s, a[..., 0, :, :].swapaxes(-1, -2), out=products[..., i, :, :])
    np.matmul(each, s[..., None], out=products[..., 2, :, :, None])
    return rows, shared, by_led, products


def krf_detect_grid(gains, symbols, terms, mixing, inverse, norms, sd, known_values):
    """``krf_detect`` at every point of a grid of codes, without forming the reception.

    At scale ``sd`` LED j's residual is ``R = C+ (Y0 + sd * N)``.  Its clean
    part ``C+ Y0`` is ``outer(g, s)``, of column j of ``gains`` ``(..., n_rx,
    n_tx)`` and of ``symbols`` ``(..., n_slots, n_tx)``, since ``C+ C = I``;
    its noise part mixes the rows of ``terms`` (``krf_terms``) by the point's
    ``mixing`` ``(m0, m1, m2)`` of ``code_mixing``: ``m0 * Z0 + m1 * Zj + m2 *
    S``.  So ``R @ R.T`` is a fixed combination of those terms; its leading
    eigenvector ``u`` (``linalg.leading_eigenvector``, ``krf_detect``'s rule)
    and ``v = R.T @ u / sigma``, taken from ``u @ Z0``, ``u @ Zj`` and ``u @
    S``, give the rank-one fit.  ``norms`` are ``(||Y0||, ||N||)`` per block,
    and ``inverse`` is ``C+``.  ``mixing`` is ``(g, 3)`` and ``sd`` ``(g,
    ...)``, one row per point of the grid, as are ``||Y0||`` and ``inverse``
    ``(g, 1, n_tx, n_states)`` of a grid of codes.

    The result's leading axes are ``(g, ...)``.  A residual is clear of its
    rounding where its Gram trace exceeds its bound ``||C+_j||_1 * (||Y0|| +
    sd * ||N||)`` times ``eps / (GRID_RTOL * EIGENGAP_RTOL)``, squared: the
    formed residual's rounding, about eps times the bound, then turns the fit
    by about ``GRID_RTOL`` at most.  Its training row is resolved where it
    exceeds ``ZERO_RTOL + GRID_RTOL`` times the column's largest entry.
    ``failed`` marks every block that this does not settle: an unsettled fit,
    or a test that does not clearly pass.  Those blocks carry no meaning, not
    even their verdict; every other block's verdict is ``krf_detect``'s.
    """
    rows, shared, by_led, products = terms
    g = gains.swapaxes(-1, -2)
    s = symbols.swapaxes(-1, -2)
    c0, c1, c2 = (sd * m.reshape(-1, *[1] * (sd.ndim - 1)) for m in mixing.T)
    gram = _krf_gram(g, s, shared, by_led, products, c0, c1, c2)
    trace = np.trace(gram, axis1=-2, axis2=-1)
    lam, u, settled = leading_eigenvector(gram)
    sigma = np.sqrt(np.maximum(lam, 0.0))
    # u @ R's noise part, sd * (m0 * u @ Z0 + m2 * u @ S + m1 * u @ Zj), plus u @ g times s
    both = np.concatenate([c0[..., None, None] * u, c2[..., None, None] * u], axis=-1)
    v = both @ rows[..., :2, :, :].reshape(*rows.shape[:-3], -1, rows.shape[-1])
    v += ((c1[..., None, None] * u)[..., None, :] @ rows[..., 2:, :, :])[..., 0, :]
    v += (u * g).sum(axis=-1)[..., None] * s
    v /= np.where(sigma > 0.0, sigma, 1.0)[..., None]
    bound = np.abs(inverse).sum(axis=-1) * (norms[0] + sd * norms[1])[..., None]
    clear = trace > (np.finfo(float).eps / (GRID_RTOL * EIGENGAP_RTOL) * bound) ** 2
    resolved = np.abs(v[..., 0]) > (ZERO_RTOL + GRID_RTOL) * np.abs(v).max(axis=-1)
    failed = ~(settled & clear & resolved).all(axis=-1)
    return _resolve_scales(sigma, u, v, known_values, failed)


def _krf_gram(g, s, shared, by_led, products, c0, c1, c2):
    """Each LED's ``R @ R.T`` at every point, from ``krf_terms`` and the point's scaled mixing.

    ``g`` ``(..., n_tx, n_rx)`` and ``s`` ``(..., n_tx, n_slots)`` are the
    LEDs' gains and symbols, and ``c0``, ``c1`` and ``c2`` ``(g, ...)`` the
    coefficients of ``Z0``, ``Zj`` and ``S`` in ``sd`` times the noise part.
    It is ``H + H.T`` of ``H = c0**2 / 2 * Z0 @ Z0.T + c0 * c2 * S @ Z0.T +
    c2**2 / 2 * S @ S.T + c1**2 / 2 * Zj @ Zj.T + c0 * c1 * Zj @ Z0.T + c1 *
    c2 * Zj @ S.T + outer(g, w + ||s||**2 / 2 * g)``, where ``w = c0 * Z0 @
    s + c2 * S @ s + c1 * Zj @ s`` is the noise part times ``s``.
    """
    weights = [np.stack(w, axis=-1)[..., None, :] for w in (
        (c0 * c0 / 2, c0 * c2, c2 * c2 / 2), (c1 * c1 / 2, c0 * c1, c1 * c2), (c0, c2, c1))]
    lead, (n_tx, n_rx) = c0.shape, g.shape[-2:]
    half = (weights[1] @ by_led.reshape(*by_led.shape[:-4], 3, -1)).reshape(*lead, n_tx, n_rx, n_rx)
    half += (weights[0] @ shared.reshape(*shared.shape[:-3], 3, -1)).reshape(*lead, 1, n_rx, n_rx)
    h = (weights[2] @ products.reshape(*products.shape[:-3], 3, -1)).reshape(*lead, n_tx, n_rx)
    h += np.square(s).sum(axis=-1)[..., None] / 2 * g
    half += g[..., :, None] * h[..., None, :]
    return half + half.swapaxes(-1, -2)
