import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dstc.channel import (
    add_stacked_noise,
    derive_seed,
    draw_channel,
    effective_channel,
    effective_cond,
    propagate,
)
from dstc.dimming import DimmingSpec, build_dimming_matrix
from dstc.experiments import SystemConfig, default_scenarios
from dstc.linalg import DegenerateInputError
from tensor_oracles import khatri_rao, unfold, vec


def trilinear_oracle(h, s, c):
    """Entrywise forward model, written independently of the library routines."""
    n_rx, r = h.shape
    n_slots = s.shape[0]
    n_states = c.shape[0]
    y = np.zeros((n_rx, n_slots, n_states))
    for i in range(n_rx):
        for n in range(n_slots):
            for k in range(n_states):
                y[i, n, k] = sum(h[i, j] * c[k, j] * s[n, j] for j in range(r))
    return y


def stack(y):
    """The stacked layout of a three-way (n_rx, n_slots, n_states) array."""
    n_rx, n_slots, n_states = y.shape
    return y.transpose(2, 0, 1).reshape(n_states * n_rx, n_slots)


class TestDeriveSeed:
    def test_index_zero_is_base(self):
        assert derive_seed(12345, 0) == 12345

    def test_distinct_and_deterministic(self):
        seeds = [derive_seed(99, i) for i in range(1000)]
        assert len(set(seeds)) == 1000
        assert seeds == [derive_seed(99, i) for i in range(1000)]


class TestDrawChannel:
    def test_deterministic_given_seed(self):
        a = draw_channel(4, 3, "gaussian", seed=7)
        b = draw_channel(4, 3, "gaussian", seed=7)
        assert np.array_equal(a, b)

    def test_gaussian_moments(self):
        h = draw_channel(1000, 1, "gaussian", seed=0)
        assert abs(h.mean()) < 0.1
        assert abs(h.std() - 1.0) < 0.1

    def test_diagonal_structure(self):
        h = draw_channel(5, 3, "diagonal", seed=1)
        assert h.shape == (5, 3)
        diag = h[np.arange(3), np.arange(3)]
        assert np.all(diag > 0.0)
        mask = np.ones_like(h, dtype=bool)
        mask[np.arange(3), np.arange(3)] = False
        assert np.all(h[mask] == 0.0)

    def test_diagonal_needs_enough_receivers(self):
        with pytest.raises(ValueError, match="n_rx >= n_tx"):
            draw_channel(2, 3, "diagonal")

    def test_unknown_model(self):
        with pytest.raises(ValueError, match="model"):
            draw_channel(2, 2, "rician")


class TestPropagate:
    def test_noiseless_identity_channel(self):
        rng = np.random.default_rng(0)
        s = rng.random((6, 4))
        stacked, noise_variance, _ = propagate(np.eye(4), np.ones((3, 4)), s, math.inf)
        assert noise_variance == 0.0
        for k in range(3):
            assert np.allclose(stacked[4 * k:4 * k + 4], s.T)

    def test_noiseless_matches_oracle(self):
        rng = np.random.default_rng(1)
        h = rng.standard_normal((4, 6))
        s = rng.random((5, 6))
        c = build_dimming_matrix(DimmingSpec(8, 6, 0.5, 0.4))
        stacked, _, _ = propagate(h, c, s, math.inf)
        assert np.allclose(stacked, stack(trilinear_oracle(h, s, c)), atol=1e-12)

    def test_empirical_snr_calibration(self):
        rng = np.random.default_rng(2)
        h = rng.standard_normal((4, 6))
        s = rng.random((500, 6))
        c = build_dimming_matrix(DimmingSpec(12, 6, 0.5, 0.4))
        clean, noise_variance, _ = propagate(h, c, s, 20.0)
        noisy = clean.copy()
        add_stacked_noise(noisy, 3, noise_variance, 12)
        measured = 10.0 * np.log10(np.mean(clean**2) / np.mean((noisy - clean) ** 2))
        assert measured == pytest.approx(20.0, abs=0.2)

    def test_zero_signal_rejected(self):
        with pytest.raises(DegenerateInputError):
            propagate(np.eye(2), np.ones((2, 2)), np.zeros((3, 2)), 20.0)

    def test_rounding_error_signal_rejected(self):
        # the two LEDs cancel at the receiver up to one unit in the last place
        h = np.array([[1.0, -(1.0 - 2.0**-52)]])
        with pytest.raises(DegenerateInputError):
            propagate(h, np.ones((2, 2)), np.ones((3, 2)), 20.0)

    def test_underflowing_noise_variance_rejected(self):
        # the received power is subnormal, so its 60 dB noise variance rounds to
        # 0, which would make this noisy point a noiseless one
        rng = np.random.default_rng(8)
        c = build_dimming_matrix(DimmingSpec(12, 8, 1e-160, 1e-160))
        with pytest.raises(DegenerateInputError, match="underflows at 60 dB"):
            propagate(rng.standard_normal((8, 8)), c, rng.random((100, 8)), 60.0)

    def test_seed_determinism(self):
        clean, noise_variance, _ = propagate(np.eye(2), np.ones((2, 2)), np.ones((3, 2)), 10.0)
        a, b = clean.copy(), clean.copy()
        add_stacked_noise(a, 42, noise_variance, 2)
        add_stacked_noise(b, 42, noise_variance, 2)
        assert np.array_equal(a, b)

    def test_noise_is_the_restacked_draw(self):
        rng = np.random.default_rng(9)
        h = rng.standard_normal((3, 4))
        s = rng.random((7, 4))
        c = build_dimming_matrix(DimmingSpec(8, 4, 0.5, 0.4))
        clean, _, _ = propagate(h, c, s, math.inf)
        received, noise_variance, _ = propagate(h, c, s, 10.0)
        assert np.array_equal(received, clean)  # the reception comes back noiseless
        add_stacked_noise(received, 5, noise_variance, 8)
        # the noise is drawn in (n_rx, n_slots, n_states) order and added stacked
        draw = np.random.default_rng(5).normal(size=(3, 7, 8)) * math.sqrt(noise_variance)
        noise = np.zeros_like(clean)
        add_stacked_noise(noise, 5, noise_variance, 8)
        assert np.array_equal(noise, stack(draw))
        assert np.array_equal(received, clean + stack(draw))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="columns"):
            propagate(np.eye(2), np.ones((2, 3)), np.ones((4, 3)), 10.0)

    @pytest.mark.parametrize("snr_db", [10.0, math.inf])
    def test_stack_equals_each_block(self, snr_db):
        rng = np.random.default_rng(10)
        h = rng.standard_normal((5, 3, 4))
        s = rng.random((5, 7, 4))
        c = build_dimming_matrix(DimmingSpec(8, 4, 0.5, 0.4))
        stacked, noise_variance, effective = propagate(h, c, s, snr_db)
        assert noise_variance.shape == (5,)
        for t in range(5):
            block, block_variance, block_effective = propagate(h[t], c, s[t], snr_db)
            assert np.array_equal(stacked[t], block)
            assert noise_variance[t] == block_variance
            assert np.array_equal(effective[t], block_effective)


class TestEffectiveCond:
    SCENARIOS = {
        **default_scenarios(),
        "3-10-32": SystemConfig(k_t=3, l_t=10, k_r=3, l_r=10, n_states=32, block_len=100),
    }

    @pytest.mark.parametrize("model", ["gaussian", "diagonal"])
    @pytest.mark.parametrize("name", list(SCENARIOS))
    def test_matches_cond_of_the_stacked_channel(self, name, model):
        scenario = self.SCENARIOS[name]
        code = build_dimming_matrix(scenario.dimming_spec())
        rng = np.random.default_rng(17)
        gains = np.stack(
            [draw_channel(scenario.n_rx, scenario.n_tx, model, seed=rng) for _ in range(4)]
        )
        expected = np.linalg.cond(effective_channel(gains, code))
        assert np.allclose(effective_cond(gains, code), expected, rtol=1e-12, atol=0.0)


class TestUnfold:
    """The mode unfoldings (a test-side oracle) and the stacked reception.

    Row k of the stacked reception reshaped to K rows is state k's reception
    flattened slot-fastest, so the reshape is the code times the transposed
    Khatri-Rao product of channel and symbols.
    """

    def test_one_by_one(self):
        y = np.full((1, 1, 1), 2.5)
        for mode in (1, 2, 3):
            assert np.array_equal(unfold(y, mode), [[2.5]])

    def test_factor_products(self):
        rng = np.random.default_rng(4)
        h = rng.standard_normal((4, 3))
        s = rng.random((5, 3))
        c = build_dimming_matrix(DimmingSpec(4, 3, 0.5, 0.25))
        y = trilinear_oracle(h, s, c)
        assert np.allclose(unfold(y, 1), h @ khatri_rao(c, s).T, atol=1e-10)
        assert np.allclose(unfold(y, 2), s @ khatri_rao(c, h).T, atol=1e-10)
        assert np.allclose(unfold(y, 3), c @ khatri_rao(s, h).T, atol=1e-10)
        stacked, _, _ = propagate(h, c, s, math.inf)
        assert np.allclose(stacked, effective_channel(h, c) @ s.T, atol=1e-10)
        assert np.allclose(stacked.reshape(4, -1), c @ khatri_rao(h, s).T, atol=1e-10)

    def test_state_rows_are_vec_of_receptions(self):
        rng = np.random.default_rng(5)
        h = rng.standard_normal((3, 3))
        s = rng.random((6, 3))
        c = build_dimming_matrix(DimmingSpec(4, 3, 0.5, 0.25))
        y = trilinear_oracle(h, s, c)
        rows = propagate(h, c, s, math.inf)[0].reshape(4, -1)
        for k in range(4):
            assert np.allclose(rows[k], vec(y[:, :, k].T), atol=1e-12)
            # each state's row is the dimming row pushed through the joint factor
            assert np.allclose(rows[k], khatri_rao(h, s) @ c[k], atol=1e-12)

    def test_multiset_of_entries_preserved(self):
        y = np.random.default_rng(6).random((3, 4, 5))
        flat = np.sort(y.ravel())
        for mode in (1, 2, 3):
            assert np.array_equal(np.sort(unfold(y, mode).ravel()), flat)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_unfoldings_match_factors_on_random_instances(self, seed):
        rng = np.random.default_rng(seed)
        n_rx, n_slots, r = (int(v) for v in rng.integers(1, 6, size=3))
        n_states = int(rng.integers(r, 9))
        h = rng.standard_normal((n_rx, r))
        s = rng.standard_normal((n_slots, r))
        c = rng.standard_normal((n_states, r))
        y = np.einsum("ir,nr,kr->ink", h, s, c)
        assert np.allclose(unfold(y, 1), h @ khatri_rao(c, s).T, atol=1e-10)
        assert np.allclose(unfold(y, 2), s @ khatri_rao(c, h).T, atol=1e-10)
        assert np.allclose(unfold(y, 3), c @ khatri_rao(s, h).T, atol=1e-10)
        stacked, _, _ = propagate(h, c, s, math.inf)
        assert np.allclose(stacked, stack(y), atol=1e-10)
        assert np.allclose(stacked.reshape(n_states, -1), c @ khatri_rao(h, s).T, atol=1e-10)
