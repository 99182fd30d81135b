"""Uniqueness checks for the trilinear received-block model.

The received block factors as a three-way array with factor matrices
``gains`` (receive side), ``symbols`` (time slots), and ``code`` (dimming
states), all sharing R = n_tx columns.  The essential-uniqueness test is the
classical k-rank sum condition

    krank(gains) + krank(symbols) + krank(code) >= 2 R + 2

(Kruskal 1977; Sidiropoulos & Bro, J. Chemometrics 2000), which alone
decides the verdict.  The symbol factor's k-rank is searched only as far as
the verdict needs where its column count is over ``KRUSKAL_GUARD``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import kruskal_bound, kruskal_rank


@dataclass(frozen=True)
class UniquenessReport:
    """k-ranks of the three factors; ``unique`` follows from the k-rank sum rule.

    ``k_symbols`` is a lower bound on the symbol factor's k-rank, enough for
    the sum, where ``k_symbols_exact`` is false.
    """

    k_gains: int
    k_symbols: int
    k_code: int
    n_columns: int
    k_symbols_exact: bool = True
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
    """Evaluate the k-rank sum condition.

    ``k_gains`` and ``k_code`` are exact.  The symbols are searched in full
    within ``KRUSKAL_GUARD`` columns; a wider symbol factor only up to the
    k-rank the sum still needs, ``2 R + 2 - k_gains - k_code``
    (``linalg.kruskal_bound``).
    """
    gains = np.asarray(gains, dtype=float)
    symbols = np.asarray(symbols, dtype=float)
    code = np.asarray(code, dtype=float)
    widths = {gains.shape[1], symbols.shape[1], code.shape[1]}
    if len(widths) != 1:
        raise ValueError(
            f"factor column counts differ: gains {gains.shape[1]}, "
            f"symbols {symbols.shape[1]}, code {code.shape[1]}"
        )
    n_columns = gains.shape[1]
    k_gains, k_code = kruskal_rank(gains), kruskal_rank(code)
    k_symbols, exact = kruskal_bound(symbols, 2 * n_columns + 2 - k_gains - k_code)
    return UniquenessReport(k_gains, k_symbols, k_code, n_columns, exact)
