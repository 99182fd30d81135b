"""Dense linear-algebra kernel shared by the transmit and receive chains.

Everything works on plain float64 ndarrays. ``hadamard`` returns integer
columns of a matrix whose first column is all ones, which the dimming code
relies on.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

import numpy as np

# Relative cutoff for pseudoinverse truncation: sigma <= PINV_RTOL * max_dim * sigma_max.
PINV_RTOL = 1e-12

# Brute-force k-rank search is exponential in the column count; an exact search
# refuses beyond this, and a search up to a given subset size refuses more than
# 2**KRUSKAL_GUARD subsets.
KRUSKAL_GUARD = 14

DEFAULT_RANK_TOL = 1e-9

# Screen of ``kruskal_rank``: a column subset whose Gram matrix has
# lambda_min > KRUSKAL_SCREEN_RTOL * lambda_max (a sigma ratio above about
# 1e-3) passes ``full_column_rank`` without an SVD of its own.
KRUSKAL_SCREEN_RTOL = 1e-6

# Relative cutoff below which a value counts as zero next to the scale it is
# compared with, so that rounding error and underflow never pass for signal.
ZERO_RTOL = 1e-12

# Largest condition number at which ``least_squares`` takes the normal
# equations; their relative error grows as eps * cond**2, so about 1e-10 here.
NORMAL_EQUATIONS_MAX_COND = 1e3

# Largest relative eigen-residual |G u - lambda u| / lambda at which
# ``leading_rank_one`` accepts a Gram power's leading eigenvector.
RANK_ONE_RTOL = 1e-12


# Largest array, in bytes, that the dimming code, one trial (its stacked
# reception, effective channel and symbol block) or the audit's bit draw may
# take.  It is checked before anything is allocated.  A one-trial chunk's
# working set is about 2.5 times its reception for one sweep point and up to
# about 4 times for several (3.8 at 30 LEDs), and numpy and the interpreter
# take about 40 MiB more.
MAX_ARRAY_BYTES = 256 * 2**20


class HadamardOrderError(ValueError):
    """No supported Hadamard construction exists for the requested order."""


class SizeLimitError(ValueError):
    """Combinatorial search refused because the input is too wide."""


class DegenerateInputError(ValueError):
    """The input carries no usable signal (for example an all-zero matrix)."""


class ArraySizeError(ValueError):
    """An input would need an array larger than ``MAX_ARRAY_BYTES``."""


def check_array_bytes(what: str, n_bytes: int) -> None:
    """Raise ``ArraySizeError`` naming ``what`` if ``n_bytes`` exceeds ``MAX_ARRAY_BYTES``."""
    if n_bytes > MAX_ARRAY_BYTES:
        raise ArraySizeError(
            f"{what} would take {n_bytes / 2**20:.4g} MiB, over the "
            f"{MAX_ARRAY_BYTES / 2**20:g} MiB array budget"
        )


def _as_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"matrix must be 2-D, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains non-finite entries")
    return a


def pseudoinverse(m) -> np.ndarray:
    """Moore-Penrose pseudoinverse with relative singular-value truncation.

    ``m`` is one matrix or a stack of shape ``(..., rows, cols)``, inverted
    matrix by matrix.  Singular values at or below ``PINV_RTOL * max(rows,
    cols) * sigma_max`` are treated as zero, so rank-deficient inputs are
    handled gracefully.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim < 2:
        raise ValueError(f"matrix must be at least 2-D, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains non-finite entries")
    return np.linalg.pinv(a, rcond=PINV_RTOL * max(a.shape[-2:]))


def gram_cond(gram) -> np.ndarray:
    """Condition number of every ``a`` in a stack, from its Gram matrix ``a.T @ a``.

    ``gram`` has shape ``(..., n, n)``; one batched ``eigvalsh`` gives
    ``sqrt(lambda_max / lambda_min)``, which is ``inf`` where the smallest
    eigenvalue is not positive.  Rounding in the Gram matrix costs about
    ``eps * cond**2`` relative, against ``eps * cond`` by SVD of ``a``.
    """
    eigenvalues = np.linalg.eigvalsh(gram)
    lo, hi = eigenvalues[..., 0], eigenvalues[..., -1]
    positive = lo > 0.0
    return np.where(positive, np.sqrt(hi / np.where(positive, lo, 1.0)), np.inf)


def normal_solve(gram, rhs) -> tuple[np.ndarray, np.ndarray]:
    """``inv(gram) @ rhs`` for every Gram matrix ``a.T @ a`` in a stack that is safe to invert.

    ``gram`` ``(..., cols, cols)`` and ``rhs`` ``(..., cols, k)`` carry the
    same leading axes.  Returns ``(x, normal)``: ``normal`` marks the
    matrices whose ``gram_cond`` is at most ``NORMAL_EQUATIONS_MAX_COND``,
    and ``x`` carries no meaning at every other one.

    The stack is inverted first.  A symmetric ``A`` has ``max|lambda| /
    min|lambda| <= ||A||_F * ||inv(A)||_F``, so a matrix whose product of
    squared norms is at most ``NORMAL_EQUATIONS_MAX_COND**4 / 16`` has a
    ``cond(a)`` of at most half the limit and is normal without
    ``gram_cond``.  At that condition the rounding of either test is below
    1e-8 relative, far inside the factor of two.  A computed Gram matrix's
    eigenvalues lie within about ``rows * eps * trace`` of ``a``'s squared
    singular values, so one that is not positive definite has a ratio of
    at least about ``1 / (rows * cols * eps)``, over 1e8 for any ``a``
    within ``MAX_ARRAY_BYTES``, and fails the test.  Every other matrix takes
    ``gram_cond``, and a stack in which ``np.linalg.inv`` finds an exactly
    singular matrix takes it whole.
    """
    identity = np.eye(gram.shape[-1])
    try:
        inverse = np.linalg.inv(gram)
    except np.linalg.LinAlgError:  # an exactly singular matrix, all-zero included
        normal = gram_cond(gram) <= NORMAL_EQUATIONS_MAX_COND
        inverse = np.linalg.inv(np.where(normal[..., None, None], gram, identity))
        return inverse @ rhs, normal
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow leaves the test open
        spread = np.square(gram).sum(axis=(-2, -1)) * np.square(inverse).sum(axis=(-2, -1))
    normal = spread <= NORMAL_EQUATIONS_MAX_COND**4 / 16
    open_ = ~normal
    if open_.any():
        normal[open_] = gram_cond(gram[open_]) <= NORMAL_EQUATIONS_MAX_COND
        inverse[~normal] = identity
    return inverse @ rhs, normal


def least_squares(a, b) -> np.ndarray:
    """``pseudoinverse(a) @ b`` matrix by matrix, by the normal equations where they are safe.

    ``a`` ``(..., rows, cols)`` and ``b`` ``(..., rows, k)`` must carry the
    same leading axes.  A matrix whose ``gram_cond`` is at most
    ``NORMAL_EQUATIONS_MAX_COND`` is solved by the normal equations as
    ``inv(a.T @ a) @ (a.T @ b)`` (``normal_solve``), which for 8 x 8 Gram
    matrices and 100 right-hand sides runs about 4x faster than
    ``np.linalg.solve``; every other one, rank-deficient and all-zero
    matrices included, keeps the truncated ``pseudoinverse``.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains non-finite entries")
    lead, (rows, cols), k = a.shape[:-2], a.shape[-2:], b.shape[-1]
    a = a.reshape(-1, rows, cols)
    b = b.reshape(-1, rows, k)
    at = a.swapaxes(-1, -2)
    x, normal = normal_solve(at @ a, at @ b)
    if not normal.all():
        x[~normal] = pseudoinverse(a[~normal]) @ b[~normal]
    return x.reshape(*lead, cols, k)


def leading_eigenvector(gram) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Leading eigenpair of every symmetric positive semidefinite matrix in a stack, by powers.

    ``gram`` ``(..., m, m)`` is a Gram matrix ``G = B @ B.T`` or a sum of
    such; it is divided by its trace in place.  Returns ``(lam, u,
    converged)`` of shapes ``(...)``, ``(..., m)`` and ``(...)``.  ``u`` is the
    unit vector along the largest column of ``G**32`` (five squarings of ``G``
    over its trace), times ``G`` once more, and ``lam`` its Rayleigh
    quotient.  ``converged`` marks the matrices where that ``u`` leaves an
    eigen-residual within ``RANK_ONE_RTOL`` of its eigenvalue, which is
    itself clear of zero next to the trace; a small eigengap or a zero or
    underflowing ``G`` fails it, and ``u`` carries no meaning there.  The
    sign of ``u`` is arbitrary.
    """
    lead, m = gram.shape[:-2], gram.shape[-1]
    # three (m, m) arrays per matrix at most: G scaled in place, and G's
    # powers squared back and forth between two buffers
    scaled = gram.reshape(-1, m, m)
    trace = np.trace(scaled, axis1=-2, axis2=-1)
    # over its trace G's top eigenvalue lies in [1/m, 1], so G**32 stays in range
    scaled /= np.where(trace > 0.0, trace, 1.0)[:, None, None]
    power = scaled @ scaled
    spare = np.empty_like(power)
    for _ in range(4):
        np.matmul(power, power, out=spare)
        power, spare = spare, power
    np.multiply(power, power, out=spare)  # G**32's column norms as np.linalg.norm takes them
    column = np.argmax(np.sqrt(np.add.reduce(spare, axis=-2)), axis=-1)
    y = (scaled @ np.take_along_axis(power, column[:, None, None], axis=-1))[..., 0]
    del power, spare
    norm = np.linalg.norm(y, axis=-1)
    u = y / np.where(norm > 0.0, norm, 1.0)[:, None]
    gu = (scaled @ u[..., None])[..., 0]
    lam = (u * gu).sum(axis=-1)
    residual = np.linalg.norm(gu - lam[:, None] * u, axis=-1)
    # a zero G leaves u = 0 and lam = 0, which the second test refuses
    converged = (residual <= RANK_ONE_RTOL * lam) & (lam > ZERO_RTOL)
    lam *= trace
    return lam.reshape(lead), u.reshape(*lead, m), converged.reshape(lead)


def leading_rank_one(blocks) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Leading singular triplet of every matrix in a stack, by the Gram route.

    ``blocks`` has shape ``(..., m, n)``.  Returns ``(sigma, u, v)`` of shapes
    ``(...)``, ``(..., m)`` and ``(..., n)``; ``sigma * outer(u, v)`` is the best
    rank-one approximation of each matrix in Frobenius norm.  ``u`` is the
    unit leading eigenvector of ``G = B @ B.T`` (``leading_eigenvector``),
    ``sigma`` the root of its eigenvalue and ``v = B.T @ u / sigma``, so
    ``sigma * outer(u, v)`` is the exact projection ``outer(u, u) @ B``.
    Every matrix whose powers do not converge takes one batched ``eigh``.
    A zero matrix gives ``sigma = 0`` and ``v = 0``.  The sign of ``u`` and
    ``v`` is arbitrary.
    """
    b = np.asarray(blocks, dtype=float)
    lead, (m, n) = b.shape[:-2], b.shape[-2:]
    b = b.reshape(-1, m, n)
    lam, u, converged = leading_eigenvector(b @ b.swapaxes(-1, -2))
    slow = ~converged
    if slow.any():
        b_slow = b[slow]  # G again, by the same product as above
        eigenvalues, eigenvectors = np.linalg.eigh(b_slow @ b_slow.swapaxes(-1, -2))
        lam[slow] = eigenvalues[:, -1]
        u[slow] = eigenvectors[:, :, -1]
    sigma = np.sqrt(np.maximum(lam, 0.0))
    v = (u[:, None, :] @ b)[:, 0, :] / np.where(sigma > 0.0, sigma, 1.0)[:, None]
    return sigma.reshape(lead), u.reshape(*lead, m), v.reshape(*lead, n)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    p = 2
    while p * p <= n:
        if n % p == 0:
            return False
        p += 1
    return True


def hadamard(order: int, columns) -> np.ndarray:
    """Columns ``columns`` (0-based) of the order-``order`` Hadamard matrix, as int64.

    Only those columns are built.  Orders 1 and 2 are literals.  Paley's
    ``q + 1``, for a prime ``q = 3 (mod 4)``, gives column ``c > 0`` as a
    negated Jacobsthal column under a one.  Every other multiple of 4 doubles:
    column ``c`` is ``hadamard(half, c % half)`` over itself, the lower copy
    negated for ``c >= half``, and fails when the half has no construction.
    Powers of two always double, also where Paley applies (4, 8, 32).  Column
    0 is all ones, and all columns together satisfy ``h @ h.T == order * I``.
    """
    if not isinstance(order, (int, np.integer)) or order < 1:
        raise HadamardOrderError(f"order must be a positive integer, got {order!r}")
    order = int(order)
    cols = np.asarray(columns, dtype=np.int64)
    if cols.ndim != 1 or np.any((cols < 0) | (cols >= order)):
        raise ValueError(f"columns must be indices in 0..{order - 1}, got {columns!r}")
    if order <= 2:
        return np.array([[1, 1], [1, -1]], dtype=np.int64)[:order, cols]
    if order % 4 != 0:
        raise HadamardOrderError(
            f"no Hadamard matrix of order {order}: order must be 1, 2, or a multiple of 4"
        )
    # Sylvester stays ahead of Paley: at 4, 8 and 32 both apply and differ.
    if order & (order - 1) != 0 and _is_prime(order - 1) and (order - 1) % 4 == 3:
        q = order - 1
        chi = np.full(q, -1, dtype=np.int64)
        chi[np.arange(q) ** 2 % q] = 1  # 0 counts as a square: the identity term
        core = -chi[(cols - 1 - np.arange(q)[:, None]) % q]
        return np.vstack([np.ones_like(cols), np.where(cols > 0, core, 1)])
    half = order // 2
    try:
        h = hadamard(half, cols % half)
    except HadamardOrderError:
        raise HadamardOrderError(
            f"no construction available for order {order}; supported orders are 1, 2, "
            "powers of two (Sylvester), q+1 for prime q = 3 (mod 4) (Paley), and "
            "products of supported orders by doubling"
        ) from None
    return np.vstack([h, np.where(cols < half, h, -h)])


def full_column_rank(a: np.ndarray) -> bool:
    """Whether ``a`` is full column rank: sigma_min > ``DEFAULT_RANK_TOL`` * sigma_max."""
    if a.shape[1] > a.shape[0]:
        return False
    s = np.linalg.svd(a, compute_uv=False)
    return bool(s[-1] > DEFAULT_RANK_TOL * s[0])


def kruskal_rank(m) -> int:
    """Largest k such that every set of k columns is linearly independent.

    The exact search of ``kruskal_bound``, which refuses a matrix wider than
    ``KRUSKAL_GUARD`` columns that is not full column rank.
    """
    return kruskal_bound(m)[0]


def kruskal_bound(m, enough: int | None = None) -> tuple[int, bool]:
    """k-rank of ``m``, or a lower bound on it, and whether it is exact.

    A subset counts as independent when it passes ``full_column_rank``.  If
    the full matrix already passes that test, every column subset does too
    (dropping columns can only raise sigma_min and lower sigma_max), so the
    answer is the column count without any search.  Otherwise the k-rank is
    at most ``top = min(rows, cols - 1)``, and subsets of up to ``top``
    columns are searched.  That is only allowed up to ``KRUSKAL_GUARD``
    columns, unless ``enough`` is given: a wider matrix is then searched only
    up to subsets of ``enough`` columns, and refused if that search could
    take more than ``2**KRUSKAL_GUARD`` subsets, the most the guard admits.
    Where every subset of ``enough`` columns passes, ``enough`` is returned
    as a lower bound.  A matrix within the guard is always searched in full.

    The search screens before it tests.  The matrix is divided by its
    largest |entry|, which leaves every sigma ratio as it is and keeps
    ``G = s.T @ s`` in range, and ``G`` is formed once.  For one subset size
    one batched ``eigvalsh`` takes every principal submatrix of ``G`` of
    that size; a subset passes the screen where ``lambda_min >
    KRUSKAL_SCREEN_RTOL * lambda_max`` and ``lambda_min`` lies above
    ``rows * cols * tiny / KRUSKAL_SCREEN_RTOL``.  The largest size is
    screened first: if every subset of it passes, so does every smaller
    subset, which lies inside one of them, and the search ends there.
    Otherwise the sizes are screened from 1 up, every subset that does not
    pass takes ``full_column_rank`` itself, in ``combinations`` order, and
    the first failure ends the search.

    The screen never passes a subset that the SVD test refuses.  The Gram
    matrix's rounding error is at most ``rows * u * trace(G)`` in norm, and
    ``eigvalsh`` adds a backward error of about ``size * u * lambda_max``, so
    each eigenvalue is within ``(rows + size) * size * u * lambda_max`` of
    the subset's ``sigma**2`` (``u = 2**-53``; Higham 2002, sections 3.5 and
    4.6).  A factor within ``MAX_ARRAY_BYTES`` has ``rows * cols <= 2**25``,
    which puts that bound below 1e-8 * lambda_max, and gradual underflow
    adds at most ``rows * size * tiny`` more, which the floor on
    ``lambda_min`` keeps below ``KRUSKAL_SCREEN_RTOL * lambda_min``.  A
    subset that passes the screen thus has a sigma ratio of about 1e-3 or
    more, six orders of magnitude above ``DEFAULT_RANK_TOL``.
    """
    a = _as_matrix(m)
    rows, cols = a.shape
    if full_column_rank(a):
        return cols, True
    stop = top = min(rows, cols - 1)
    if cols > KRUSKAL_GUARD:
        if enough is None:
            raise SizeLimitError(
                f"brute-force k-rank needs <= {KRUSKAL_GUARD} columns, got {cols} "
                "(and the matrix is not full column rank)"
            )
        stop = min(top, enough)
        n_subsets = sum(comb(cols, size) for size in range(1, stop + 1))
        if n_subsets > 2**KRUSKAL_GUARD:
            raise SizeLimitError(
                f"k-rank search up to {stop} of {cols} columns needs {n_subsets} "
                f"subsets, over the budget of {2**KRUSKAL_GUARD}"
            )
    if stop < 1:
        return 0, stop == top
    peak = np.abs(a).max(initial=0.0)
    s = a / peak if peak > 0.0 else a
    gram = s.T @ s
    floor = rows * cols * np.finfo(float).tiny / KRUSKAL_SCREEN_RTOL

    def screen(size):
        idx = np.array(list(combinations(range(cols), size)))
        eigenvalues = np.linalg.eigvalsh(gram[idx[:, :, None], idx[:, None, :]])
        lo, hi = eigenvalues[:, 0], eigenvalues[:, -1]
        return idx, (lo > KRUSKAL_SCREEN_RTOL * hi) & (lo > floor)

    largest = screen(stop)
    if largest[1].all():
        return stop, stop == top
    for size in range(1, stop + 1):
        idx, passed = largest if size == stop else screen(size)
        for subset in idx[~passed]:
            if not full_column_rank(a[:, subset]):
                return size - 1, True
    return stop, stop == top
