import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dstc.csk import (
    Constellation,
    block_with_reference,
    default_constellation,
    demodulate,
    modulate,
    reference_row,
)
from tensor_oracles import demodulate_by_distances


def d_min(c):
    """Smallest distance between two distinct constellation points."""
    diffs = c.points[:, None, :] - c.points[None, :, :]
    dists = np.linalg.norm(diffs, axis=2)
    return float(dists[np.triu_indices(4, k=1)].min())


class TestConstellation:
    def test_four_channel_min_distance(self):
        c = default_constellation(4)
        assert np.array_equal(c.points, np.eye(4))
        # nearest pair of distinct unit vectors
        assert d_min(c) == pytest.approx(np.sqrt(2.0))

    def test_three_channel_min_distance(self):
        c = default_constellation(3)
        # centroid-to-vertex distance is the tightest
        expect = np.linalg.norm(np.array([1.0, 0.0, 0.0]) - np.full(3, 1 / 3))
        assert d_min(c) == pytest.approx(expect)
        assert d_min(c) == pytest.approx(np.sqrt(2.0 / 3.0))

    def test_unsupported_size(self):
        with pytest.raises(ValueError):
            default_constellation(5)

    @pytest.mark.parametrize("k_t", [3, 4])
    def test_one_read_only_instance_per_size(self, k_t):
        c = default_constellation(k_t)
        assert default_constellation(k_t) is c
        assert not c.points.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            c.points[0, 0] = 0.5
        fresh = np.eye(4) if k_t == 4 else np.vstack([np.eye(3), np.full(3, 1.0 / 3.0)])
        assert np.array_equal(c.points, fresh)

    def test_unsupported_size_raises_on_every_call(self):
        for _ in range(2):
            with pytest.raises(ValueError, match="k_t = 5"):
                default_constellation(5)

    def test_rejects_out_of_range_levels(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            Constellation(np.vstack([np.eye(3) * 1.5, np.zeros(3)]))

    def test_rejects_nan_levels(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            Constellation(np.vstack([[np.nan, 0.0, 0.0], np.eye(3)]))

    def test_labels_follow_index_order(self):
        # bit label b0 b1 selects point 2*b0 + b1
        c = default_constellation(4)
        symbols = modulate(np.array([0, 0, 0, 1, 1, 0, 1, 1], dtype=np.uint8), 4, 1, c)
        assert np.array_equal(symbols, c.points)


class TestModulate:
    def test_all_zero_bits(self):
        c = default_constellation(4)
        symbols = modulate(np.zeros(12, dtype=np.uint8), 3, 2, c)
        assert symbols.shape == (3, 8)
        assert np.array_equal(symbols, np.tile(np.r_[c.points[0], c.points[0]], (3, 1)))

    def test_label_11_selects_last_point(self):
        c = default_constellation(3)
        symbols = modulate(np.array([1, 1], dtype=np.uint8), 1, 1, c)
        assert np.allclose(symbols[0], np.full(3, 1 / 3))

    def test_bit_count_mismatch(self):
        with pytest.raises(ValueError, match="bits"):
            modulate(np.zeros(10, dtype=np.uint8), 3, 2, default_constellation(4))

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError):
            modulate(np.array([0, 2], dtype=np.uint8), 1, 1, default_constellation(4))


class TestDemodulate:
    @pytest.mark.parametrize("k_t", [3, 4])
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip(self, k_t, seed):
        rng = np.random.default_rng(seed)
        c = default_constellation(k_t)
        n_rows, n_groups = int(rng.integers(1, 12)), int(rng.integers(1, 4))
        bits = rng.integers(0, 2, size=2 * n_groups * n_rows, dtype=np.uint8)
        symbols = modulate(bits, n_rows, n_groups, c)
        assert np.array_equal(demodulate(symbols, c), bits)

    def test_small_perturbation_is_absorbed(self):
        c = default_constellation(4)
        rng = np.random.default_rng(7)
        bits = rng.integers(0, 2, size=40, dtype=np.uint8)
        symbols = modulate(bits, 10, 2, c)
        noise = rng.standard_normal(symbols.shape)
        noise *= 0.49 * d_min(c) / np.linalg.norm(noise, axis=1, keepdims=True)
        # per-row perturbation norm < d_min/2 cannot flip any group decision
        assert np.array_equal(demodulate(symbols + noise, c), bits)

    def test_zero_vector_maps_to_nearest_point(self):
        c = default_constellation(3)
        dists = np.linalg.norm(c.points - 0.0, axis=1)
        expect_idx = int(np.argmin(dists))
        assert expect_idx == 3  # the centroid is closest to the origin
        assert np.array_equal(demodulate(np.zeros((1, 3)), c), [1, 1])

    def test_tie_breaks_to_lowest_index(self):
        c = default_constellation(4)
        assert np.array_equal(demodulate(np.full((1, 4), 0.25), c), [0, 0])

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            demodulate(np.zeros((2, 5)), default_constellation(4))

    @given(
        seed=st.integers(0, 2**32 - 1),
        k_t=st.sampled_from([3, 4, 1, 2, 5, 6]),
        default=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_the_distance_oracle(self, seed, k_t, default):
        c, est = slicer_instance(seed, k_t, default)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(demodulate(est, c), demodulate_by_distances(est, c))


def slicer_instance(seed, k_t, default):
    """A constellation and an estimate block whose groups mix every hard case of the slicer.

    The groups are shuffled together: noisy symbols, groups planted within
    1e-12 (relative) of the bisector of two points or exactly on it, the
    centroid of the points, groups scaled by 1e-150 .. 1e150, and groups
    with NaN or infinite entries.  ``default`` takes the default
    constellation where ``k_t`` has one, and otherwise four random points
    in [0, 1]**k_t.
    """
    rng = np.random.default_rng(seed)
    if default and k_t in (3, 4):
        c = default_constellation(k_t)
    else:
        c = Constellation(rng.random((4, k_t)))
    pts = c.points
    groups = [pts[rng.integers(0, 4, 20)] + 0.3 * rng.standard_normal((20, k_t))]
    for _ in range(20):
        p, q = rng.choice(4, size=2, replace=False)
        axis = pts[q] - pts[p]
        across = rng.standard_normal(k_t) * rng.choice([0.0, 1.0])
        if axis.any():  # keep the offset on the bisector
            across -= axis * (across @ axis) / (axis @ axis)
        shift = rng.choice([0.0, 1.0]) * rng.uniform(-1e-12, 1e-12)
        groups.append([(pts[p] + pts[q]) / 2 + across + shift * axis])
    groups.append([pts.mean(axis=0)])
    groups.append(rng.standard_normal((8, k_t)) * 10.0 ** rng.integers(-150, 151, (8, 1)))
    bad = rng.standard_normal((4, k_t))
    bad[np.arange(4), rng.integers(0, k_t, 4)] = [np.nan, np.inf, -np.inf, np.inf]
    groups.append(bad)
    groups = np.concatenate(groups)
    groups = groups[rng.permutation(len(groups))]
    n_groups = int(rng.integers(1, 4))
    n_rows = len(groups) // n_groups
    return c, groups[: n_rows * n_groups].reshape(n_rows, n_groups * k_t)


class TestReferenceRow:
    @pytest.mark.parametrize("k_t", [3, 4])
    def test_uniform_and_nonzero(self, k_t):
        row = reference_row(default_constellation(k_t), 2)
        assert row.shape == (2 * k_t,)
        assert np.all(row == 1.0 / k_t)
        assert np.all(row != 0.0)

    def test_three_channel_row_is_a_constellation_point(self):
        c = default_constellation(3)
        row = reference_row(c, 1)
        assert np.allclose(row, c.points[3])


class TestBlockWithReference:
    def test_layout(self):
        c = default_constellation(4)
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2, size=2 * 2 * 9, dtype=np.uint8)
        symbols = block_with_reference(bits, 10, 2, c)
        assert symbols.shape == (10, 8)
        assert np.all(symbols[0] == 0.25)
        assert np.array_equal(demodulate(symbols[1:], c), bits)

    def test_needs_payload_row(self):
        with pytest.raises(ValueError):
            block_with_reference(np.zeros(0, dtype=np.uint8), 1, 1, default_constellation(4))
