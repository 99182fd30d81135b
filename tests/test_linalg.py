import hashlib
import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dstc import linalg
from tensor_oracles import khatri_rao, kruskal_rank_by_subsets, planted_rows, vec


def rand(seed, *shape):
    return np.random.default_rng(seed).standard_normal(shape)


# TestKhatriRao and TestVecUnvec check the test-side oracles that the
# unfolding tests in test_channel.py and test_acceptance.py compare against.
class TestKhatriRao:
    def test_single_column_is_kron(self):
        a, b = rand(4, 3, 1), rand(5, 2, 1)
        assert np.allclose(khatri_rao(a, b), np.kron(a, b))

    def test_columnwise_oracle(self):
        a, b = rand(6, 3, 4), rand(7, 5, 4)
        out = khatri_rao(a, b)
        assert out.shape == (15, 4)
        for r in range(4):
            assert np.allclose(out[:, r], np.kron(a[:, r], b[:, r]))

    def test_column_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            khatri_rao(rand(0, 2, 3), rand(1, 2, 4))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            khatri_rao(np.array([[np.nan]]), np.eye(2)[:, :1])

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_matches_kron_on_diagonal_weights(self, seed):
        # (s kron h) vec(diag(c)) equals khatri_rao(s, h) @ c for any weights c.
        rng = np.random.default_rng(seed)
        n, m, r = rng.integers(1, 6, size=3)
        s, h = rng.standard_normal((n, r)), rng.standard_normal((m, r))
        c = rng.standard_normal(r)
        lhs = np.kron(s, h) @ vec(np.diag(c))
        rhs = khatri_rao(s, h) @ c
        assert np.allclose(lhs, rhs, rtol=0.0, atol=1e-12)


class TestVecUnvec:
    def test_column_major(self):
        m = np.array([[1.0, 3.0], [2.0, 4.0]])
        assert np.array_equal(vec(m), np.array([1.0, 2.0, 3.0, 4.0]))

    def test_vec_of_outer_product(self):
        h, s = rand(0, 4), rand(1, 6)
        assert np.allclose(vec(np.outer(h, s)), np.kron(s, h))


class TestPseudoinverse:
    def test_identity(self):
        assert np.allclose(linalg.pseudoinverse(np.eye(3)), np.eye(3))

    def test_truncates_zero_singular_values(self):
        out = linalg.pseudoinverse(np.diag([2.0, 0.0]))
        assert np.allclose(out, np.diag([0.5, 0.0]))

    def test_left_inverse_of_tall_full_rank(self):
        m = rand(7, 6, 3)
        assert np.allclose(linalg.pseudoinverse(m) @ m, np.eye(3), rtol=0.0, atol=1e-9)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_moore_penrose_identities(self, seed):
        rng = np.random.default_rng(seed)
        rows, cols = rng.integers(1, 7, size=2)
        rank = int(rng.integers(1, min(rows, cols) + 1))
        m = rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))
        p = linalg.pseudoinverse(m)
        assert np.allclose(m @ p @ m, m, rtol=0.0, atol=1e-8)
        assert np.allclose(p @ m @ p, p, rtol=0.0, atol=1e-8)
        assert np.allclose((m @ p).T, m @ p, rtol=0.0, atol=1e-8)
        assert np.allclose((p @ m).T, p @ m, rtol=0.0, atol=1e-8)


class TestGramCond:
    def test_matches_svd_cond(self):
        a = rand(8, 5, 40, 6)
        assert np.allclose(
            linalg.gram_cond(a.swapaxes(-1, -2) @ a), np.linalg.cond(a), rtol=1e-12, atol=0.0
        )

    def test_singular_gram_is_infinite(self):
        assert linalg.gram_cond(np.zeros((3, 3))) == np.inf
        assert linalg.gram_cond(np.diag([1.0, 0.0])) == np.inf


def planted_stack(seed, rows, cols, singular):
    """Gram matrices ``a.T @ a`` around ``normal_solve``'s two thresholds, and right-hand sides.

    The stack mixes Gaussian blocks, blocks whose ``cond(a)`` is planted at
    ``NORMAL_EQUATIONS_MAX_COND * (1 +- 1e-6)``, and blocks whose product of
    squared Frobenius norms of ``a.T @ a`` and its inverse lies at ``(1 +-
    1e-6)`` times that of a ``cond(a)`` of half the limit; with
    ``singular``, also a block with a repeated column and an all-zero one.
    """
    rng = np.random.default_rng(seed)
    limit = linalg.NORMAL_EQUATIONS_MAX_COND
    # sigma = (1, t, ..., t) gives (1 + m t**4) (1 + m / t**4) = target, m = cols - 1
    m = cols - 1
    spectra = [1.0 / np.geomspace(1.0, limit * (1 + d), cols) for d in (-1e-6, 1e-6)]
    for d in (-1e-6, 1e-6):
        target = (limit / 2) ** 4 * (1 + d)
        b = (target - 1 - m * m) / m  # z = t**4 solves z**2 - b z + 1 = 0
        spectra.append(np.r_[1.0, np.full(m, (2 / (b + np.sqrt(b * b - 4))) ** 0.25)])
    blocks = [rng.standard_normal((rows, cols)) for _ in range(3)]
    for sigma in spectra:
        u = np.linalg.qr(rng.standard_normal((rows, cols)))[0]
        v = np.linalg.qr(rng.standard_normal((cols, cols)))[0]
        blocks.append((u * sigma) @ v.T)
    if singular:
        repeated = rng.standard_normal((rows, cols))
        repeated[:, -1] = repeated[:, 0]
        blocks += [repeated, np.zeros((rows, cols))]
    order = rng.permutation(len(blocks))
    a = np.stack(blocks)[order]
    return a.swapaxes(-1, -2) @ a, rng.standard_normal((len(blocks), cols, 3))


class TestNormalSolve:
    @pytest.mark.parametrize("singular", [False, True])
    @pytest.mark.parametrize("rows, cols", [(12, 8), (40, 30)])
    def test_mask_and_solution_as_gram_cond_and_inv_give_them(self, rows, cols, singular):
        gram, rhs = planted_stack(rows * cols, rows, cols, singular)
        x, normal = linalg.normal_solve(gram, rhs)
        cond = linalg.gram_cond(gram)
        assert np.array_equal(normal, cond <= linalg.NORMAL_EQUATIONS_MAX_COND)
        assert normal.sum() == len(gram) - 1 - 2 * singular  # one planted cond lies above
        expected = np.linalg.inv(gram[normal]) @ rhs[normal]
        assert np.array_equal(x[normal], expected)


class TestLeastSquares:
    def test_matches_pseudoinverse_on_well_conditioned_stack(self):
        a, b = rand(9, 6, 96, 8), rand(10, 6, 96, 30)
        assert np.all(np.linalg.cond(a) <= linalg.NORMAL_EQUATIONS_MAX_COND)
        expected = linalg.pseudoinverse(a) @ b
        assert np.allclose(linalg.least_squares(a, b), expected, rtol=0.0, atol=1e-12)

    def test_single_matrix(self):
        a, b = rand(11, 20, 4), rand(12, 20, 3)
        out = linalg.least_squares(a, b)
        assert out.shape == (4, 3)
        assert np.allclose(out, linalg.pseudoinverse(a) @ b, rtol=0.0, atol=1e-12)

    def test_ill_conditioned_blocks_take_the_pseudoinverse(self, monkeypatch):
        a, b = rand(13, 3, 12, 4), rand(14, 3, 12, 5)
        a[1, :, 3] = a[1, :, 0]  # duplicated columns: rank 3 of 4
        a[2] = 0.0
        inverted = []
        pseudoinverse = linalg.pseudoinverse

        def spy(m):
            inverted.append(np.array(m))
            return pseudoinverse(m)

        monkeypatch.setattr(linalg, "pseudoinverse", spy)
        out = linalg.least_squares(a, b)
        assert len(inverted) == 1 and np.array_equal(inverted[0], a[1:])
        for i in (1, 2):
            assert np.array_equal(out[i], pseudoinverse(a[i]) @ b[i])
        assert np.array_equal(out[2], np.zeros((4, 5)))
        assert np.allclose(out[0], pseudoinverse(a[0]) @ b[0], rtol=0.0, atol=1e-12)

    # a matrix scaled by 1e-160 has a subnormal Gram matrix: its cond reads
    # well, but its inverse overflows, so it must take the pseudoinverse too;
    # an all-zero matrix makes np.linalg.inv raise on the whole stack
    @pytest.mark.parametrize("singular", [False, True])
    def test_subnormal_gram_takes_the_pseudoinverse(self, singular):
        a, b = rand(15, 3, 12, 4), rand(16, 3, 12, 5)
        a[1] *= 1e-160
        if singular:
            a[2] = 0.0
        assert linalg.gram_cond(a[1].T @ a[1]) <= linalg.NORMAL_EQUATIONS_MAX_COND
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = linalg.least_squares(a, b)
        pseudoinverse = linalg.pseudoinverse(a) @ b
        assert np.array_equal(out[1], pseudoinverse[1])
        assert np.allclose(out[::2], pseudoinverse[::2], rtol=0.0, atol=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            linalg.least_squares(np.full((3, 2), np.nan), np.ones((3, 1)))


class TestLeadingSingularTriplet:
    def test_scaled_unit_outer_product(self):
        m = 3.0 * np.outer(np.eye(3)[:, 0], np.eye(3)[:, 0])
        sigma, u, v = linalg.leading_rank_one(m)
        assert sigma == pytest.approx(3.0)
        # the sign is LAPACK's; the pair's product is fixed
        assert np.allclose(np.abs(u), np.eye(3)[:, 0])
        assert np.allclose(np.abs(v), np.eye(3)[:, 0])
        assert np.allclose(sigma * np.outer(u, v), m)

    def test_outer_product_recovers_factors(self):
        # a stack of rank-one matrices is fitted exactly, one triplet each
        hs, ss = rand(10, 4, 5), rand(11, 4, 8)
        sigma, u, v = linalg.leading_rank_one(np.einsum("ri,rj->rij", hs, ss))
        assert sigma.shape == (4,) and u.shape == (4, 5) and v.shape == (4, 8)
        for r, (h, s) in enumerate(zip(hs, ss)):
            assert sigma[r] == pytest.approx(np.linalg.norm(h) * np.linalg.norm(s))
            assert np.allclose(np.abs(u[r]), np.abs(h) / np.linalg.norm(h), rtol=0.0, atol=1e-12)
            assert np.allclose(
                sigma[r] * np.outer(u[r], v[r]), np.outer(h, s), rtol=0.0, atol=1e-10
            )

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_is_best_rank_one(self, seed):
        rng = np.random.default_rng(seed)
        n_blocks, rows, cols = rng.integers(1, 6), *rng.integers(1, 8, size=2)
        stack = rng.standard_normal((n_blocks, rows, cols))
        sigmas, us, vs = linalg.leading_rank_one(stack)
        assert sigmas.shape == (n_blocks,) and us.shape == (n_blocks, rows)
        for m, sigma, u, v in zip(stack, sigmas, us, vs):
            assert np.allclose(m @ v, sigma * u, rtol=0.0, atol=1e-9 * max(1.0, sigma))
            best = np.linalg.norm(m - sigma * np.outer(u, v))
            # No sampled rank-one competitor does better.
            for _ in range(10):
                a = rng.standard_normal(rows)
                b = rng.standard_normal(cols)
                cand = np.outer(a, b) * (np.sum(m * np.outer(a, b)) / np.sum(np.outer(a, b) ** 2))
                assert np.linalg.norm(m - cand) >= best - 1e-9

    @staticmethod
    def mixed_stack():
        """Three near-rank-one blocks, then three the Gram powers cannot resolve."""
        rng = np.random.default_rng(21)
        stack = np.einsum("ki,kj->kij", rng.standard_normal((6, 5)), rng.standard_normal((6, 7)))
        stack += 0.05 * rng.standard_normal(stack.shape)
        # the top two eigenvalues of B @ B.T are 1 and 1 - 1e-6
        left, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        right, _ = np.linalg.qr(rng.standard_normal((7, 5)))
        stack[3] = left @ np.diag(np.sqrt([1.0, 1.0 - 1e-6, 0.3, 0.2, 0.1])) @ right.T
        stack[4] = 0.0
        stack[5] *= 1e-300
        return stack

    @staticmethod
    def eigh_rank_one(stack):
        """The fit as one batched eigh of every B @ B.T, which the Gram powers replace."""
        eigenvalues, eigenvectors = np.linalg.eigh(stack @ stack.swapaxes(-1, -2))
        sigma = np.sqrt(np.maximum(eigenvalues[:, -1], 0.0))
        u = eigenvectors[:, :, -1]
        v = (u[:, None, :] @ stack)[:, 0, :] / np.where(sigma > 0.0, sigma, 1.0)[:, None]
        return sigma, u, v

    def test_mixed_stack_matches_eigh(self):
        stack = self.mixed_stack()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            sigma, u, v = linalg.leading_rank_one(stack)
        expected_sigma, expected_u, expected_v = self.eigh_rank_one(stack)
        for out in (sigma, u, v):
            assert np.all(np.isfinite(out))
        assert np.allclose(np.linalg.norm(u, axis=-1), 1.0, rtol=0.0, atol=1e-14)
        assert np.allclose(sigma, expected_sigma, rtol=1e-12, atol=0.0)
        # the scaled block's B @ B.T underflows to zero as well
        assert np.array_equal(sigma[4:], [0.0, 0.0]) and not v[4].any()
        for k in range(len(stack)):
            assert np.allclose(
                sigma[k] * np.outer(u[k], v[k]),
                expected_sigma[k] * np.outer(expected_u[k], expected_v[k]),
                rtol=0.0,
                atol=1e-10,
            ), k

    def test_eigh_only_on_unresolved_blocks(self, monkeypatch):
        stack = self.mixed_stack()
        decomposed = []
        eigh = np.linalg.eigh

        def spy(a):
            decomposed.append(np.array(a))
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        linalg.leading_rank_one(stack)
        assert len(decomposed) == 1
        unresolved = stack[3:]
        gram = unresolved @ unresolved.swapaxes(-1, -2)
        trace = np.trace(gram, axis1=-2, axis2=-1)
        # the Gram matrices over their trace, as the powers took them
        scaled = gram / np.where(trace > 0.0, trace, 1.0)[:, None, None]
        assert np.allclose(decomposed[0], scaled, rtol=1e-14, atol=0.0)


class TestLeadingEigenvector:
    """A fit the Gram powers leave open settles by ``eigh`` where its eigengap is clear."""

    @pytest.mark.parametrize("side", [-1, 1], ids=["below", "above"])
    def test_planted_gap_on_each_side_of_the_rule(self, monkeypatch, side):
        # lambda_2 / lambda_1 = 1 - EIGENGAP_RTOL * (1 +- 1%), far too close
        # for the Gram powers to converge
        ratio = 1.0 - linalg.EIGENGAP_RTOL * (1.0 + 0.01 * side)
        spectrum = np.sqrt([1.0, ratio, 0.5, 0.3, 0.1])
        rows = np.stack([planted_rows(seed, spectrum, 9) for seed in range(4)])
        gram = rows @ rows.swapaxes(-1, -2)
        expected_lam, expected_u = np.linalg.eigh(gram)
        taken = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: taken.append(len(a)) or eigh(a))
        lam, u, settled = linalg.leading_eigenvector(gram.copy())
        assert taken == [4]
        assert np.array_equal(settled, np.full(4, side > 0))
        # Davis-Kahan: u is within 2 * delta / (lambda_1 - lambda_2) of eigh's
        # on the unscaled matrix, whose rounding delta against the scaled one
        # is a few m * eps * lambda_1
        bound = 2 * 5 * np.finfo(float).eps / (1.0 - ratio)
        sign = np.sign((u * expected_u[..., -1]).sum(axis=-1))[:, None]
        assert np.linalg.norm(u - sign * expected_u[..., -1], axis=-1).max() <= bound
        np.testing.assert_allclose(lam, expected_lam[:, -1], rtol=1e-14, atol=0.0)

    def test_one_row_without_a_second_eigenvalue(self):
        # a zero 1 x 1 Gram matrix takes eigh, which has no lambda_2
        lam, u, settled = linalg.leading_eigenvector(np.array([[[0.0]], [[4.0]]]))
        assert np.array_equal(lam, [0.0, 4.0]) and np.array_equal(np.abs(u), [[1.0], [1.0]])
        assert np.array_equal(settled, [False, True])


def full_hadamard(order):
    return linalg.hadamard(order, range(order))


# The 24 supported orders up to 128: 1, 2, Paley's q + 1 and their doublings.
SUPPORTED_ORDERS = [
    1, 2, 4, 8, 12, 16, 20, 24, 32, 40, 44, 48, 60, 64, 68, 72, 80, 84, 88, 96, 104, 108,
    120, 128,
]


class TestHadamard:
    def test_order_two(self):
        assert np.array_equal(full_hadamard(2), np.array([[1, 1], [1, -1]]))

    @pytest.mark.parametrize("order", [1, 2, 4, 8, 12, 16, 20, 24, 32])
    def test_orthogonal_with_ones_column(self, order):
        h = full_hadamard(order)
        assert h.dtype == np.int64
        assert np.array_equal(h @ h.T, order * np.eye(order, dtype=np.int64))
        assert np.all(np.abs(h) == 1)
        assert np.all(h[:, 0] == 1)
        # every other column of a normalized Hadamard matrix sums to zero
        assert np.all(h[:, 1:].sum(axis=0) == 0)

    # SHA-256 of hadamard(n, range(n)).tobytes(), the full matrix. The dimming
    # code takes its columns from these matrices, so any change in the
    # construction (for example Paley taking precedence over Sylvester at 4, 8
    # or 32) changes every curve.
    PINNED_DIGESTS = {
        4: "aa60fb6df530078eac7046de94dd6acfaf67c83ac155f77ae6b06e308b528d22",
        8: "5d6b6ffc8a5aca0cce07fe3aa8a0722a8bef21e28805479246232aa17a5c2abb",
        12: "6f74fe4e398913326015ffcecc6a5aceded9e4b6a33ce16a1443dee3ea9d5103",
        16: "a5d51a9007b290d37bd4ccd9a09e3c26c630bc5b0d5ee68ae24aa231d34af08e",
        20: "b8b24be30b7b9d0e52f02db453e3962dd0dff0fde7be34facb41dbf45c125534",
        24: "294bb13f596dc5cd24786d9dd85d4e4304983e78d7465805ab493924ee4f6caf",
        32: "9d00b9c44ffc2bdd4ca515c288c0d35792ff13ba8079da005eea47945b528e3c",
    }

    @pytest.mark.parametrize("order", sorted(PINNED_DIGESTS))
    def test_matrices_are_pinned(self, order):
        digest = hashlib.sha256(full_hadamard(order).tobytes()).hexdigest()
        assert digest == self.PINNED_DIGESTS[order]

    @pytest.mark.parametrize("order", SUPPORTED_ORDERS)
    def test_column_subsets_match_the_full_matrix(self, order):
        h = full_hadamard(order)
        assert np.array_equal(h @ h.T, order * np.eye(order, dtype=np.int64))
        rng = np.random.default_rng(order)
        for size in (0, 1, order // 2, order):
            columns = rng.choice(order, size=size, replace=False)
            sub = linalg.hadamard(order, columns)
            assert sub.shape == (order, size) and sub.dtype == np.int64
            assert np.array_equal(sub, h[:, columns])
        assert np.array_equal(linalg.hadamard(order, [0, 0]), h[:, [0, 0]])

    def test_no_other_order_up_to_128_is_supported(self):
        for order in set(range(1, 129)) - set(SUPPORTED_ORDERS):
            with pytest.raises(linalg.HadamardOrderError, match=rf"order {order}\b"):
                linalg.hadamard(order, [0])

    @pytest.mark.parametrize("columns", [[-1], [4], [[1]]])
    def test_rejects_columns_outside_the_order(self, columns):
        with pytest.raises(ValueError, match=r"indices in 0\.\.3"):
            linalg.hadamard(4, columns)

    @pytest.mark.parametrize("order", [3, 6, 10, 36])
    def test_unsupported_orders(self, order):
        with pytest.raises(linalg.HadamardOrderError, match=rf"order {order}\b"):
            linalg.hadamard(order, [0])


def k_rank_instance(seed, kind):
    """A matrix for the k-rank search, tall or wide, of one of ``K_RANK_KINDS``."""
    rng = np.random.default_rng(seed)
    cols = int(rng.integers(1, 10))
    rows = int(rng.integers(1, cols + 4))
    m = rng.standard_normal((rows, cols))
    if kind == "near-tolerance pair" and min(rows, cols) >= 2:
        # columns u and u + delta v, u and v orthonormal, have sigma ratio
        # delta / 2 to O(delta**3): here within 1e-5 relative of the tolerance
        u, v = np.linalg.qr(rng.standard_normal((rows, 2)))[0].T
        delta = 2 * linalg.DEFAULT_RANK_TOL * (1 + rng.uniform(-1e-5, 1e-5))
        i, j = rng.choice(cols, 2, replace=False)
        m[:, i], m[:, j] = u, u + delta * v
        m *= 10.0 ** rng.uniform(-3, 3)
    elif kind == "column scales":
        m *= 10.0 ** rng.uniform(-200, 200, cols)
    elif kind == "zero columns":
        m[:, rng.random(cols) < 0.3] = 0.0
    elif kind == "simplex block":
        # one unit vector per group and row, so each group's columns sum to ones
        k = int(rng.integers(2, 5))
        m = np.eye(k)[rng.integers(0, k, (rows, max(1, cols // k)))].reshape(rows, -1)
    elif kind == "low rank":
        r = int(rng.integers(1, cols + 1))
        m = rng.standard_normal((rows, r)) @ rng.standard_normal((r, cols))
    return m


K_RANK_KINDS = ["random", "near-tolerance pair", "column scales", "zero columns",
                "simplex block", "low rank"]


class TestKruskalRank:
    def test_identity(self):
        assert linalg.kruskal_rank(np.eye(3)) == 3

    def test_duplicated_column(self):
        m = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0], [2.0, 2.0, 0.0]])
        assert linalg.kruskal_rank(m) == 1

    def test_pairwise_independent_only(self):
        m = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        assert linalg.kruskal_rank(m) == 2

    def test_zero_column(self):
        assert linalg.kruskal_rank(np.array([[1.0, 0.0], [0.0, 0.0]])) == 0

    def test_guard_on_wide_rank_deficient(self):
        col = rand(0, 2, 1)
        with pytest.raises(linalg.SizeLimitError):
            linalg.kruskal_rank(np.hstack([col] * 15))

    def test_full_rank_fast_path_beyond_guard(self):
        m = rand(1, 40, 30)
        assert linalg.kruskal_rank(m) == 30

    @given(st.integers(0, 2**32 - 1), st.sampled_from(K_RANK_KINDS))
    @settings(max_examples=400, deadline=None)
    def test_equals_the_subset_oracle(self, seed, kind):
        m = k_rank_instance(seed, kind)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert linalg.kruskal_rank(m) == kruskal_rank_by_subsets(m)

    @pytest.mark.parametrize("side", [-1, 1])
    def test_near_tolerance_pair_on_each_side(self, side):
        # a wide matrix is searched; its pair's sigma ratio is 1e-5 relative
        # below or above the tolerance, so only the pair's own SVD decides
        u, v, w = np.linalg.qr(rand(8, 3, 3))[0].T
        delta = 2 * linalg.DEFAULT_RANK_TOL * (1 + side * 1e-5)
        m = np.column_stack([u, u + delta * v, w, u + v + w])
        k = linalg.kruskal_rank(m)
        assert k == kruskal_rank_by_subsets(m)
        assert k == (1 if side < 0 else 2)

    def test_huge_and_tiny_columns_without_warnings(self):
        m = rand(3, 6, 4) * np.array([1e200, 1e-200, 1.0, 1e200])
        m[:, 3] = m[:, 0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert linalg.kruskal_rank(m) == kruskal_rank_by_subsets(m) == 1

    @pytest.mark.parametrize("side", [-1, 1])
    def test_top_subset_on_each_side_of_the_screen(self, side, monkeypatch):
        # five columns in R^4, of which only the subset {0, 1, 2, 3} is ill
        # conditioned: its Gram eigenvalues are 1 - cos t, 1, 1 and 1 + cos t,
        # a ratio 1e-4 relative inside or outside KRUSKAL_SCREEN_RTOL
        ratio = linalg.KRUSKAL_SCREEN_RTOL * (1 - side * 1e-4)
        t = 2 * np.arctan(np.sqrt(ratio))
        m = np.zeros((4, 5))
        m[:3, :3] = np.eye(3)
        m[:3, 3], m[3, 3] = np.cos(t) / np.sqrt(3), np.sin(t)
        m[3, 4] = 1.0
        m = np.linalg.qr(rand(9, 4, 4))[0] @ m
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda g: calls.append(len(g)) or eigvalsh(g))
        assert linalg.kruskal_rank(m) == kruskal_rank_by_subsets(m) == 4
        # inside, the five subsets of four clear in one call; outside, the
        # sizes 1 to 3 are screened after them and the planted subset's SVD decides
        assert calls == ([5] if side < 0 else [5, 5, 10, 10])

    @pytest.mark.parametrize("seed", range(9))
    def test_fewer_rows_than_columns_less_one(self, seed):
        # the largest subsets are ``rows`` wide, not ``cols - 1``
        rng = np.random.default_rng(seed)
        rows = int(rng.integers(1, 5))
        cols = int(rng.integers(rows + 2, 12))
        m = rng.standard_normal((rows, cols))
        if seed % 3 == 1:
            i, j = rng.choice(cols, 2, replace=False)
            m[:, i] = m[:, j]
        elif seed % 3 == 2:
            m = rng.standard_normal((rows, 1)) @ rng.standard_normal((1, cols))
        assert linalg.kruskal_rank(m) == kruskal_rank_by_subsets(m)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_agrees_with_rank_when_full_column_rank(self, seed):
        rng = np.random.default_rng(seed)
        cols = int(rng.integers(1, 6))
        rows = cols + int(rng.integers(0, 4))
        m = rng.standard_normal((rows, cols))
        if np.linalg.matrix_rank(m) == cols:
            assert linalg.kruskal_rank(m) == cols


def every_subset_independent(m, size):
    return all(linalg.full_column_rank(m[:, list(s)]) for s in combinations(range(m.shape[1]), size))


class TestKruskalBound:
    """The search up to ``enough`` columns of a factor wider than ``KRUSKAL_GUARD``."""

    @staticmethod
    def wide(seed, rows=100, rank=21, cols=30):
        return rand(seed, rows, rank) @ rand(seed + 1, rank, cols)

    @pytest.mark.parametrize("enough", [1, 2, 3])
    def test_bound_where_every_subset_of_enough_columns_passes(self, enough):
        m = self.wide(0)
        assert linalg.kruskal_bound(m, enough) == (enough, False)
        assert every_subset_independent(m, enough)

    def test_exact_where_a_subset_fails_first(self):
        m = self.wide(1)
        m[:, 17] = 3.0 * m[:, 4]
        assert linalg.kruskal_bound(m, 2) == (1, True)
        m[:, 9] = 0.0
        assert linalg.kruskal_bound(m, 2) == (0, True)

    def test_exact_where_enough_is_past_the_rows(self):
        m = rand(2, 3, 20)
        assert linalg.kruskal_bound(m, 5) == (3, True)
        assert every_subset_independent(m, 3)

    def test_full_column_rank_is_exact_whatever_enough(self):
        assert linalg.kruskal_bound(rand(3, 40, 30), 2) == (30, True)

    def test_within_the_guard_the_search_is_exact(self):
        m = self.wide(4, rank=9, cols=14)
        assert linalg.kruskal_bound(m, 2) == (9, True) == (kruskal_rank_by_subsets(m), True)

    def test_refuses_a_search_over_the_subset_budget(self):
        # up to 3 of 30 columns is 4525 subsets, up to 4 is 31930
        m = self.wide(5)
        assert linalg.kruskal_bound(m, 3) == (3, False)
        with pytest.raises(linalg.SizeLimitError, match="31930 subsets, over the budget of 16384"):
            linalg.kruskal_bound(m, 4)
        with pytest.raises(linalg.SizeLimitError, match="<= 14 columns, got 30"):
            linalg.kruskal_bound(m)
