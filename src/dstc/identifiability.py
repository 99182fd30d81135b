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

from dataclasses import dataclass, field

import numpy as np

from .linalg import kruskal_rank


@dataclass(frozen=True)
class UniquenessReport:
    """k-ranks of the three factors; ``unique`` follows from the k-rank sum rule."""

    k_gains: int
    k_symbols: int
    k_code: int
    n_columns: int
    unique: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "unique", self.k_rank_sum >= self.threshold)

    @property
    def k_rank_sum(self) -> int:
        return self.k_gains + self.k_symbols + self.k_code

    @property
    def threshold(self) -> int:
        """The sum that essential uniqueness needs, ``2 R + 2``."""
        return 2 * self.n_columns + 2


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
    return UniquenessReport(
        k_gains=kruskal_rank(gains),
        k_symbols=kruskal_rank(symbols),
        k_code=kruskal_rank(code),
        n_columns=gains.shape[1],
    )
