"""Uniqueness checks for the trilinear received-block model.

The received block factors as a three-way array with factor matrices
``gains`` (receive side), ``symbols`` (time slots), and ``code`` (dimming
states), all sharing R = n_tx columns.  The essential-uniqueness test is the
classical k-rank sum condition

    krank(gains) + krank(symbols) + krank(code) >= 2 R + 2

(Kruskal 1977; Sidiropoulos & Bro, J. Chemometrics 2000), which alone
decides the verdict.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import kruskal_rank


@dataclass(frozen=True)
class UniquenessReport:
    """k-ranks of the three factors plus the resulting uniqueness verdict."""

    k_gains: int
    k_symbols: int
    k_code: int
    n_columns: int
    unique: bool


def check_uniqueness(gains, symbols, code) -> UniquenessReport:
    """Evaluate the k-rank sum condition."""
    gains = np.asarray(gains, dtype=float)
    symbols = np.asarray(symbols, dtype=float)
    code = np.asarray(code, dtype=float)
    widths = {gains.shape[1], symbols.shape[1], code.shape[1]}
    if len(widths) != 1:
        raise ValueError(
            f"factor column counts differ: gains {gains.shape[1]}, "
            f"symbols {symbols.shape[1]}, code {code.shape[1]}"
        )
    r = gains.shape[1]
    k_gains = kruskal_rank(gains)
    k_symbols = kruskal_rank(symbols)
    k_code = kruskal_rank(code)
    return UniquenessReport(
        k_gains=k_gains,
        k_symbols=k_symbols,
        k_code=k_code,
        n_columns=r,
        unique=k_gains + k_symbols + k_code >= 2 * r + 2,
    )
