import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dstc.channel import (
    add_stacked_noise,
    derive_seed,
    draw_channel,
    effective_channel,
    noise_variance,
    received_power,
)
from dstc.dimming import DimmingSpec, build_dimming_matrix
from dstc.experiments import SystemConfig, _propagate, default_scenarios
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


def reception(h, c, s):
    """The effective channel, the clean stacked reception and its received power."""
    effective = effective_channel(h, c)
    clean = effective @ s.swapaxes(-1, -2)
    return effective, clean, received_power(clean, h, c, s)


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
        _, stacked, power = reception(np.eye(4), np.ones((3, 4)), s)
        assert noise_variance(power, math.inf) == 0.0
        for k in range(3):
            assert np.allclose(stacked[4 * k:4 * k + 4], s.T)

    def test_noiseless_matches_oracle(self):
        rng = np.random.default_rng(1)
        h = rng.standard_normal((4, 6))
        s = rng.random((5, 6))
        c = build_dimming_matrix(DimmingSpec(8, 6, 0.5, 0.4))
        stacked = effective_channel(h, c) @ s.T
        assert np.allclose(stacked, stack(trilinear_oracle(h, s, c)), rtol=0.0, atol=1e-12)

    def test_empirical_snr_calibration(self):
        rng = np.random.default_rng(2)
        h = rng.standard_normal((4, 6))
        s = rng.random((500, 6))
        c = build_dimming_matrix(DimmingSpec(12, 6, 0.5, 0.4))
        _, clean, power = reception(h, c, s)
        noisy = clean.copy()
        sd = math.sqrt(noise_variance(power, 20.0))
        add_stacked_noise(noisy, sd * np.random.default_rng(3).standard_normal((4, 500, 12)))
        measured = 10.0 * np.log10(np.mean(clean**2) / np.mean((noisy - clean) ** 2))
        assert measured == pytest.approx(20.0, abs=0.2)

    def test_zero_signal_rejected(self):
        _, _, power = reception(np.eye(2), np.ones((2, 2)), np.zeros((3, 2)))
        assert noise_variance(power, math.inf) == 0.0  # a noiseless run needs no power
        with pytest.raises(DegenerateInputError):
            noise_variance(power, 20.0)

    def test_rounding_error_signal_rejected(self):
        # the two LEDs cancel at the receiver up to one unit in the last place
        h = np.array([[1.0, -(1.0 - 2.0**-52)]])
        with pytest.raises(DegenerateInputError):
            noise_variance(reception(h, np.ones((2, 2)), np.ones((3, 2)))[2], 20.0)

    def test_rounding_error_in_one_block_of_a_stack(self):
        # block 0's LEDs cancel to one ulp, block 1's do not: only block 0
        # leaves the SNR undefined, and block 1 keeps its own mean square
        h = np.array([[[1.0, -(1.0 - 2.0**-52)]], [[1.0, 0.5]]])
        s = np.ones((3, 2))
        _, clean, power = reception(h, np.ones((2, 2)), s)
        assert power.shape == (2,)
        assert np.isnan(power[0])
        assert power[1] == np.mean(clean[1] ** 2)
        with pytest.raises(DegenerateInputError, match="power is zero"):
            noise_variance(power, 20.0)
        assert noise_variance(power[1:], 20.0) == power[1] / 100.0

    def test_underflowing_noise_variance_rejected(self):
        # the received power is subnormal, so its 60 dB noise variance rounds to
        # 0, which would make this noisy point a noiseless one
        rng = np.random.default_rng(8)
        c = build_dimming_matrix(DimmingSpec(12, 8, 1e-160, 1e-160))
        _, _, power = reception(rng.standard_normal((8, 8)), c, rng.random((100, 8)))
        with pytest.raises(DegenerateInputError, match="underflows at 60 dB"):
            noise_variance(power, 60.0)

    def test_seed_determinism(self):
        _, clean, power = reception(np.eye(2), np.ones((2, 2)), np.ones((3, 2)))
        sd = math.sqrt(noise_variance(power, 10.0))
        a, b = clean.copy(), clean.copy()
        for target in (a, b):
            add_stacked_noise(target, sd * np.random.default_rng(42).standard_normal((2, 3, 2)))
        assert np.array_equal(a, b)

    def test_noise_is_the_restacked_draw(self):
        rng = np.random.default_rng(9)
        h = rng.standard_normal((3, 4))
        s = rng.random((7, 4))
        c = build_dimming_matrix(DimmingSpec(8, 4, 0.5, 0.4))
        _, clean, power = reception(h, c, s)
        sd = math.sqrt(noise_variance(power, 10.0))
        # the scaled unit draw is Generator.normal's draw, and the noise is
        # added stacked from its (n_rx, n_slots, n_states) order
        noise = sd * np.random.default_rng(5).standard_normal((3, 7, 8))
        draw = np.random.default_rng(5).normal(scale=sd, size=(3, 7, 8))
        assert np.array_equal(noise, draw)
        received = clean.copy()
        add_stacked_noise(received, noise)
        assert np.array_equal(received, clean + stack(draw))

    def test_stacked_noise_broadcasts_over_blocks(self):
        rng = np.random.default_rng(11)
        clean = rng.standard_normal((4, 8 * 3, 7))
        noise = rng.standard_normal((4, 3, 7, 8))
        received = clean.copy()
        add_stacked_noise(received, noise)
        for t in range(4):
            assert np.array_equal(received[t], clean[t] + stack(noise[t]))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="columns"):
            effective_channel(np.eye(2), np.ones((2, 3)))

    @pytest.mark.parametrize("snr_db", [10.0, math.inf])
    def test_stack_equals_each_block(self, snr_db):
        rng = np.random.default_rng(10)
        h = rng.standard_normal((5, 3, 4))
        s = rng.random((5, 7, 4))
        c = build_dimming_matrix(DimmingSpec(8, 4, 0.5, 0.4))
        effective, stacked, power = reception(h, c, s)
        variance = noise_variance(power, snr_db)
        assert variance.shape == (5,)
        for t in range(5):
            block_effective, block_stacked, block_power = reception(h[t], c, s[t])
            assert np.array_equal(stacked[t], block_stacked)
            assert noise_variance(block_power, snr_db) == variance[t]
            assert np.array_equal(effective[t], block_effective)


class TestEffectiveCond:
    SCENARIOS = {
        **default_scenarios(),
        "3-10-32": SystemConfig(k_t=3, l_t=10, k_r=3, l_r=10, n_states=32, block_len=100),
    }

    @pytest.mark.parametrize("model", ["gaussian", "diagonal"])
    @pytest.mark.parametrize("name", list(SCENARIOS))
    def test_matches_cond_of_the_stacked_channel(self, name, model):
        # the engine's Khatri-Rao Gram matrix gives the stacked channel's cond
        scenario = self.SCENARIOS[name]
        code = build_dimming_matrix(scenario.dimming_spec())
        rng = np.random.default_rng(17)
        gains = np.stack(
            [draw_channel(scenario.n_rx, scenario.n_tx, model, seed=rng) for _ in range(4)]
        )
        _, conds = _propagate(gains, code, ("ZF", "VLC-KRF"))
        expected = np.linalg.cond(effective_channel(gains, code))
        for cond in conds.values():
            assert np.allclose(cond, expected, rtol=1e-12, atol=0.0)


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
        assert np.allclose(unfold(y, 1), h @ khatri_rao(c, s).T, rtol=0.0, atol=1e-10)
        assert np.allclose(unfold(y, 2), s @ khatri_rao(c, h).T, rtol=0.0, atol=1e-10)
        assert np.allclose(unfold(y, 3), c @ khatri_rao(s, h).T, rtol=0.0, atol=1e-10)
        stacked = effective_channel(h, c) @ s.T
        assert np.allclose(stacked.reshape(4, -1), c @ khatri_rao(h, s).T, rtol=0.0, atol=1e-10)

    def test_state_rows_are_vec_of_receptions(self):
        rng = np.random.default_rng(5)
        h = rng.standard_normal((3, 3))
        s = rng.random((6, 3))
        c = build_dimming_matrix(DimmingSpec(4, 3, 0.5, 0.25))
        y = trilinear_oracle(h, s, c)
        rows = (effective_channel(h, c) @ s.T).reshape(4, -1)
        for k in range(4):
            assert np.allclose(rows[k], vec(y[:, :, k].T), rtol=0.0, atol=1e-12)
            # each state's row is the dimming row pushed through the joint factor
            assert np.allclose(rows[k], khatri_rao(h, s) @ c[k], rtol=0.0, atol=1e-12)

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
        assert np.allclose(unfold(y, 1), h @ khatri_rao(c, s).T, rtol=0.0, atol=1e-10)
        assert np.allclose(unfold(y, 2), s @ khatri_rao(c, h).T, rtol=0.0, atol=1e-10)
        assert np.allclose(unfold(y, 3), c @ khatri_rao(s, h).T, rtol=0.0, atol=1e-10)
        stacked = effective_channel(h, c) @ s.T
        assert np.allclose(stacked, stack(y), rtol=0.0, atol=1e-10)
        assert np.allclose(
            stacked.reshape(n_states, -1), c @ khatri_rao(h, s).T, rtol=0.0, atol=1e-10
        )
