"""Construction and auditing of dimming space-time codes.

A code is a K x (K_T*L_T) matrix whose row k scales every LED during dimming
state k.  It is built from nonconstant columns of a Hadamard matrix:

    code = p_m + alpha * b

where the columns of ``b`` are zero-sum and mutually orthogonal.  Every entry
then lies in {p_m - alpha, p_m + alpha}, every column averages to exactly
p_m (the dimming target is met one LED at a time), and the matrix has full
column rank, so it can double as a diversity code.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .linalg import (
    DEFAULT_RANK_TOL,
    ZERO_RTOL,
    DegenerateInputError,
    HadamardOrderError,
    check_array_bytes,
    full_column_rank,
    hadamard,
    kruskal_rank,
)

COLUMN_MEAN_TOL = 1e-12


class ConstraintViolationError(ValueError):
    """A dimming-design constraint cannot be met; names the failed condition."""

    def __init__(self, constraint: str, detail: str = ""):
        self.constraint = constraint
        msg = constraint if not detail else f"{constraint}: {detail}"
        super().__init__(msg)


@dataclass(frozen=True)
class DimmingSpec:
    """Design request for a dimming code.

    ``columns`` optionally picks which Hadamard columns (1-based, never
    column 1, which is constant) supply the power variation; by default the
    first ``n_tx`` nonconstant columns are used.
    """

    n_states: int
    n_tx: int
    p_m: float
    alpha: float
    columns: tuple[int, ...] | None = None


@dataclass(frozen=True)
class ChromaticityTable:
    """CIE 1931 (x, y) coordinates for each color channel of a group."""

    coords: tuple[tuple[float, float], ...]

    def __post_init__(self):
        for x, y in self.coords:
            if not (0.0 <= x and 0.0 <= y and x + y <= 1.0):
                raise ValueError(f"({x}, {y}) is not a valid chromaticity point")

    def __len__(self) -> int:
        return len(self.coords)


_RGB = ((0.70, 0.29), (0.30, 0.60), (0.15, 0.06))
_YELLOW = (0.40, 0.50)


def default_chromaticity(n_channels: int) -> ChromaticityTable:
    """Red/green/blue primaries, plus yellow for four-channel transmitters."""
    if n_channels == 3:
        return ChromaticityTable(_RGB)
    if n_channels == 4:
        return ChromaticityTable(_RGB + (_YELLOW,))
    raise ValueError(f"no default chromaticity table for {n_channels} channels")


# The codes that ``build_dimming_matrix`` has built, by their spec's values,
# each read-only with its full-column-rank verdict, oldest first.  A code
# over _KEPT_CODE_BYTES is not kept, and at most _KEPT_CODES are, so the
# codes kept take at most 32 * 32 KiB = 1 MiB (a 30-LED, 32-state code
# takes 7.5 KiB).
_KEPT_CODES = 32
_KEPT_CODE_BYTES = 32 * 1024
_codes: dict[tuple, tuple[np.ndarray, bool]] = {}
_codes_lock = threading.Lock()


def build_dimming_matrix(spec: DimmingSpec) -> np.ndarray:
    """Construct the dimming code for ``spec``.

    Raises :class:`ConstraintViolationError` naming the violated condition
    when the request is infeasible (alpha out of range, too many LEDs for the
    state count, no Hadamard matrix of the requested order, bad column pick,
    or a swing so small next to P_m that the code fails ``full_column_rank``),
    and ``linalg.ArraySizeError`` before building a code over
    ``linalg.MAX_ARRAY_BYTES``.  Every call makes each of those checks; the
    construction and its rank verdict are kept per spec (``_codes``), and
    the caller gets its own writable array.
    """
    k, n_tx = spec.n_states, spec.n_tx
    if n_tx < 1:
        raise ConstraintViolationError("K_T*L_T >= 1", f"got {n_tx}")
    if not 0.0 < spec.p_m < 1.0:
        raise ConstraintViolationError("0 < P_m < 1", f"got P_m = {spec.p_m}")
    if not spec.alpha <= min(spec.p_m, 1.0 - spec.p_m):
        raise ConstraintViolationError(
            "alpha <= min(P_m, 1 - P_m)",
            f"got alpha = {spec.alpha} with P_m = {spec.p_m}",
        )
    if not spec.alpha >= np.finfo(float).tiny:  # so 1 / (alpha * sqrt(K)) stays in range
        raise ConstraintViolationError(
            "alpha > 0 and not subnormal (full column rank needs a swing whose inverse is finite)",
            f"got alpha = {spec.alpha}",
        )
    if n_tx > k - 1:
        raise ConstraintViolationError(
            "K_T*L_T <= K - 1",
            f"got K_T*L_T = {n_tx} with K = {k} (only K - 1 nonconstant columns exist)",
        )
    columns = spec.columns if spec.columns is not None else tuple(range(2, n_tx + 2))
    if len(columns) != n_tx:
        raise ConstraintViolationError(
            "len(columns) == K_T*L_T", f"got {len(columns)} indices for {n_tx} LEDs"
        )
    if len(set(columns)) != len(columns):
        raise ConstraintViolationError("column indices are distinct", f"got {columns}")
    for c in columns:
        if c == 1:
            raise ConstraintViolationError(
                "column 1 (constant) is excluded", "pick indices from 2..K"
            )
        if not 2 <= c <= k:
            raise ConstraintViolationError(
                "column indices lie in 2..K", f"got {c} with K = {k}"
            )
    check_array_bytes(f"the {k} x {n_tx} dimming code", 8 * k * n_tx)
    key = (k, tuple(columns), float(spec.p_m), float(spec.alpha))
    with _codes_lock:
        kept = _codes.get(key)
    if kept is None:
        kept = _construct(spec, columns)
        if kept[0].nbytes <= _KEPT_CODE_BYTES:
            kept[0].setflags(write=False)
            with _codes_lock:
                if len(_codes) >= _KEPT_CODES:
                    del _codes[next(iter(_codes))]  # the oldest
                _codes[key] = kept
    code, full_rank = kept
    if not full_rank:
        raise ConstraintViolationError(
            "full column rank", f"alpha = {spec.alpha} is too small a swing around P_m = {spec.p_m}"
        )
    return code if code.flags.writeable else code.copy()  # a kept code is read-only


def _construct(spec: DimmingSpec, columns) -> tuple[np.ndarray, bool]:
    """``p_m + alpha * B`` on the ``columns`` of the order-K Hadamard matrix, and its rank verdict.

    ``build_dimming_matrix`` has checked the spec and the code's size.
    """
    try:
        b = hadamard(spec.n_states, [c - 1 for c in columns]).astype(float)
    except HadamardOrderError as exc:
        raise ConstraintViolationError("K is a constructible Hadamard order", str(exc)) from exc
    code = spec.p_m + spec.alpha * b
    return code, full_column_rank(code)


def average_power(code: np.ndarray, totals: np.ndarray) -> float:
    """Mean emitted level across states, slots, and LEDs, relative to no dimming.

    ``totals`` holds each LED's symbol level summed over the slots.
    """
    code = np.asarray(code, dtype=float)
    totals = np.asarray(totals, dtype=float)
    baseline = float(totals.mean())
    if abs(baseline) <= ZERO_RTOL * float(np.abs(totals).mean()):
        raise DegenerateInputError("symbol block has zero mean; relative power undefined")
    return float(np.mean(code.mean(axis=0) * totals)) / baseline


def average_chromaticity(
    code: np.ndarray, totals: np.ndarray, table: ChromaticityTable
) -> tuple[float, float]:
    """Mixture chromaticity of the emitted light under color mixing.

    ``totals`` holds each LED's symbol level summed over the slots.  LEDs
    are assigned to color channels cyclically (LED i drives channel
    i mod len(table)), so each group contributes one LED per channel.  The
    mixture point is the per-channel-power weighted average of the table.
    """
    code = np.asarray(code, dtype=float)
    totals = np.asarray(totals, dtype=float)
    n_tx = code.shape[1]
    n_ch = len(table)
    if totals.shape != (n_tx,):
        raise ValueError(f"expected {n_tx} LED totals, got shape {totals.shape}")
    if n_tx % n_ch != 0:
        raise ValueError(f"{n_tx} LEDs cannot be split into {n_ch} color channels")
    per_led = code.sum(axis=0) * totals
    per_channel = np.array([per_led[ch::n_ch].sum() for ch in range(n_ch)])
    total = per_channel.sum()
    if total <= 0.0:
        raise DegenerateInputError("total emitted power is zero; chromaticity undefined")
    weights = per_channel / total
    coords = np.asarray(table.coords, dtype=float)
    x, y = weights @ coords
    return float(x), float(y)


@dataclass(frozen=True)
class DimmingReport:
    """Feasibility audit of a code against its design request, with every verdict."""

    entries_in_range: bool
    column_mean_error: float
    rank: int
    kruskal: int
    condition_number: float
    n_tx: int

    @property
    def means_ok(self) -> bool:
        return self.column_mean_error <= COLUMN_MEAN_TOL

    @property
    def rank_ok(self) -> bool:
        return self.rank == self.n_tx

    @property
    def kruskal_ok(self) -> bool:
        return self.kruskal == self.n_tx

    @property
    def ok(self) -> bool:
        return self.entries_in_range and self.means_ok and self.rank_ok and self.kruskal_ok


def validate_dimming_matrix(code: np.ndarray, spec: DimmingSpec) -> DimmingReport:
    """Check range, per-column mean, rank, k-rank and cond of a code from one SVD.

    The rank counts singular values above ``DEFAULT_RANK_TOL * sigma_max``, as
    ``full_column_rank`` does; at full column rank that is also the k-rank.
    """
    code = np.asarray(code, dtype=float)
    s = np.linalg.svd(code, compute_uv=False)
    rank = int(np.count_nonzero(s > DEFAULT_RANK_TOL * s[0]))
    return DimmingReport(
        entries_in_range=bool(np.all(code >= 0.0) and np.all(code <= 1.0)),
        column_mean_error=float(np.max(np.abs(code.mean(axis=0) - spec.p_m))),
        rank=rank,
        kruskal=rank if rank == code.shape[1] else kruskal_rank(code),
        condition_number=float(s[0] / s[-1]) if s[-1] > 0.0 else np.inf,
        n_tx=spec.n_tx,
    )
