"""Color-shift-keying modem.

Each LED group of ``k_t`` color channels carries one 4-point constellation
symbol per time slot: an intensity vector whose entries are the per-channel
drive levels.  A symbol block is a matrix with one row per slot and one
column per LED; row n concatenates the ``l_t`` group symbols of slot n.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

BITS_PER_SYMBOL = 2

# Margin, relative to |x|**2 + max|p|**2, within which ``demodulate`` decides a
# group again from its squared distances.  The score differences and the
# distances each carry a rounding error of about (k_t + 2) * eps times that
# scale (Higham 2002, section 3.1), some 1e6 times below the margin, so the
# two agree on every group they both decide.
SLICER_RTOL = 1e-9


@dataclass(frozen=True)
class Constellation:
    """Four intensity vectors, indexed by the natural value of their bit label."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] != 4:
            raise ValueError(f"expected 4 points, got array of shape {pts.shape}")
        if not np.all((pts >= 0.0) & (pts <= 1.0)):  # NaN fails both comparisons
            raise ValueError("intensity levels must lie in [0, 1]")
        object.__setattr__(self, "points", pts)

    @property
    def k_t(self) -> int:
        return self.points.shape[1]


@functools.cache
def default_constellation(k_t: int) -> Constellation:
    """Unit-vector constellation; with three channels the fourth point is the centroid.

    One instance per ``k_t`` serves every call, so its points are read-only.
    """
    if k_t == 4:
        points = np.eye(4)
    elif k_t == 3:
        points = np.vstack([np.eye(3), np.full(3, 1.0 / 3.0)])
    else:
        raise ValueError(f"no default constellation for k_t = {k_t}")
    points.setflags(write=False)
    return Constellation(points)


def symbol_labels(bits, n_rows: int, n_groups: int) -> np.ndarray:
    """Constellation labels ``2*b0 + b1`` of a bit row, two bits per group symbol.

    ``bits`` is one row of ``2 * n_groups * n_rows`` bits or a stack of such
    rows ``(..., 2 * n_groups * n_rows)``; the ``uint8`` labels have shape
    ``(..., n_rows, n_groups)``.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.max(initial=0) > 1:
        raise ValueError("bits must be 0/1 valued")
    needed = BITS_PER_SYMBOL * n_groups * n_rows
    if bits.shape[-1:] != (needed,):
        raise ValueError(
            f"need {needed} bits for {n_rows}x{n_groups} symbols, got shape {bits.shape}"
        )
    pairs = bits.reshape(*bits.shape[:-1], n_rows, n_groups, 2)
    return 2 * pairs[..., 0] + pairs[..., 1]


def modulate(bits, n_rows: int, n_groups: int, constellation: Constellation) -> np.ndarray:
    """Map a bit row onto a block of ``n_rows`` slots (see ``symbol_labels``).

    A stack of bit rows gives a stack of blocks with the same leading axes.
    """
    labels = symbol_labels(bits, n_rows, n_groups)
    return constellation.points[labels].reshape(
        *labels.shape[:-2], n_rows, n_groups * constellation.k_t
    )


def _nearest(groups, points) -> np.ndarray:
    """Index of the point nearest each row of ``groups`` by squared distance, lowest on ties."""
    distances = np.empty((len(groups), len(points)))
    for p, point in enumerate(points):
        diff = groups - point
        distances[:, p] = np.einsum("nk,nk->n", diff, diff)
    return np.argmin(distances, axis=1)


def demodulate(estimates, constellation: Constellation) -> np.ndarray:
    """Slice each group to the nearest constellation point and return its bits.

    Ties go to the lowest point index, which makes detection deterministic.
    One matrix product scores every group ``x`` against every point ``p`` as
    ``|p|**2 - 2 p.x``, its squared distance less ``|x|**2``.  The label's
    second bit compares points 0 with 1 and 2 with 3, its first bit the two
    winners.  A group whose best two scores lie within ``SLICER_RTOL *
    (|x|**2 + max|p|**2)``, or that is not finite, is decided again from
    its squared distances (``_nearest``).
    """
    est = np.asarray(estimates, dtype=float)
    k_t = constellation.k_t
    if est.ndim != 2 or est.shape[1] % k_t != 0:
        raise ValueError(f"estimate width {est.shape} is not a multiple of k_t = {k_t}")
    groups = est.reshape(-1, k_t)
    points = constellation.points
    squares = np.square(points).sum(axis=1)
    columns = np.ascontiguousarray(groups.T)  # one contiguous row per channel
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite group is decided again
        scores = (-2.0 * points) @ columns
        scores += squares[:, None]
        low01, low23 = np.minimum(scores[0], scores[1]), np.minimum(scores[2], scores[3])
        high = np.minimum(np.maximum(scores[0], scores[1]), np.maximum(scores[2], scores[3]))
        bits = np.empty((len(groups), 2), dtype=np.uint8)
        bits[:, 0] = first = low23 < low01
        bits[:, 1] = np.where(first, scores[3] < scores[2], scores[1] < scores[0])
        gap = np.minimum(np.maximum(low01, low23), high)  # the second-best score
        gap -= np.minimum(low01, low23)
        margin = np.einsum("kn,kn->n", columns, columns)
        margin += squares.max()
        margin *= SLICER_RTOL
    recheck = np.flatnonzero(~(gap > margin))  # NaN fails the comparison
    if recheck.size:
        idx = _nearest(groups[recheck], points)
        bits[recheck, 0] = idx >> 1
        bits[recheck, 1] = idx & 1
    return bits.reshape(-1)


def reference_row(constellation: Constellation, n_groups: int) -> np.ndarray:
    """Training row with every channel at 1/k_t, nonzero in all entries.

    With three channels this is the centroid constellation point repeated per
    group; with four it is a dedicated row outside the constellation.
    """
    return np.full(n_groups * constellation.k_t, 1.0 / constellation.k_t)


def block_with_reference(
    bits, n_rows: int, n_groups: int, constellation: Constellation
) -> np.ndarray:
    """Payload block of ``n_rows`` slots whose first row is the bit-free training row.

    ``bits`` is one row of payload bits or a stack of rows, one block each,
    and all of them are modulated in one call (see ``modulate``).
    """
    if n_rows < 2:
        raise ValueError("need at least one payload row besides the training row")
    payload = modulate(bits, n_rows - 1, n_groups, constellation)
    reference = reference_row(constellation, n_groups)
    lead = payload.shape[:-2]
    return np.concatenate(
        [np.broadcast_to(reference, (*lead, 1, reference.size)), payload], axis=-2
    )
