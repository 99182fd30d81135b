"""Reference tensor algebra that the channel and acceptance tests compare against.

``vec`` is column-major, so ``vec(h @ s.T) == np.kron(s, h)`` for column
vectors ``h`` and ``s``; ``khatri_rao`` is the column-wise Kronecker product;
``unfold`` gives the mode-n unfoldings of a three-way array;
``kruskal_rank_by_subsets`` is the k-rank search that tests every column
subset by its own SVD; ``demodulate_by_distances`` is the CSK slicer that
forms every squared distance; ``planted_rows`` is a matrix of given singular
values.
"""

from itertools import combinations

import numpy as np

from dstc.linalg import KRUSKAL_GUARD, SizeLimitError, full_column_rank


def _as_matrix(m, name: str = "matrix") -> np.ndarray:
    a = np.asarray(m, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def khatri_rao(a, b) -> np.ndarray:
    """Column-wise Kronecker product.

    Column ``r`` of the result is ``kron(a[:, r], b[:, r])``; the factors must
    have the same number of columns.
    """
    a = _as_matrix(a, "a")
    b = _as_matrix(b, "b")
    if a.shape[1] != b.shape[1]:
        raise ValueError(
            f"column-count mismatch: {a.shape[1]} vs {b.shape[1]}"
        )
    return (a[:, None, :] * b[None, :, :]).reshape(a.shape[0] * b.shape[0], a.shape[1])


def vec(m) -> np.ndarray:
    """Stack the columns of a matrix into one vector (column-major)."""
    return _as_matrix(m).reshape(-1, order="F")


def unfold(tensor, mode: int) -> np.ndarray:
    """Mode-n unfolding with the lower-numbered remaining mode varying fastest.

    With factor matrices ``h`` (axis 0), ``s`` (axis 1), ``c`` (axis 2) each
    unfolding is one factor times the transposed Khatri-Rao product of the
    other two, e.g. mode 3 gives ``c @ khatri_rao(s, h).T``.
    """
    data = np.asarray(tensor, dtype=float)
    order = {1: (0, 2, 1), 2: (1, 2, 0), 3: (2, 1, 0)}[mode]
    return data.transpose(order).reshape(data.shape[order[0]], -1)


def kruskal_rank_by_subsets(m) -> int:
    """k-rank by ``full_column_rank`` on every column subset, size by size.

    The search ``linalg.kruskal_rank`` made before it screened subsets by
    their Gram eigenvalues: a full-column-rank matrix returns its column
    count at once, and any other one over ``KRUSKAL_GUARD`` columns is
    refused.
    """
    a = _as_matrix(m)
    rows, cols = a.shape
    if full_column_rank(a):
        return cols
    if cols > KRUSKAL_GUARD:
        raise SizeLimitError(f"brute-force k-rank needs <= {KRUSKAL_GUARD} columns, got {cols}")
    best = 0
    for size in range(1, min(rows, cols) + 1):
        for idx in combinations(range(cols), size):
            if not full_column_rank(a[:, idx]):
                return best
        best = size
    return best


def demodulate_by_distances(estimates, constellation) -> np.ndarray:
    """Bits of the nearest constellation point to each group, lowest index on ties.

    The slicer ``csk.demodulate`` used before it scored groups by one matrix
    product: every squared distance is formed, point by point, and the
    smallest taken.
    """
    est = np.asarray(estimates, dtype=float)
    if est.ndim != 2 or est.shape[1] % constellation.k_t != 0:
        raise ValueError(
            f"estimate width {est.shape} is not a multiple of k_t = {constellation.k_t}"
        )
    n_rows = est.shape[0]
    n_groups = est.shape[1] // constellation.k_t
    grouped = est.reshape(n_rows, n_groups, constellation.k_t)
    distances = np.empty((n_rows, n_groups, len(constellation.points)))
    for p, point in enumerate(constellation.points):
        diff = grouped - point
        distances[:, :, p] = np.einsum("ngk,ngk->ng", diff, diff)
    idx = np.argmin(distances, axis=2)
    bits = np.empty((n_rows, n_groups, 2), dtype=np.uint8)
    bits[:, :, 0] = idx >> 1
    bits[:, :, 1] = idx & 1
    return bits.reshape(-1)


def planted_rows(seed, singular_values, n_cols) -> np.ndarray:
    """A random ``(len(singular_values), n_cols)`` matrix with exactly these singular values.

    Its Gram matrix ``a @ a.T`` has the squares as eigenvalues.
    """
    rng = np.random.default_rng(seed)
    n_rows = len(singular_values)
    left, _ = np.linalg.qr(rng.standard_normal((n_rows, n_rows)))
    right, _ = np.linalg.qr(rng.standard_normal((n_cols, n_rows)))
    return left @ np.diag(singular_values) @ right.T
