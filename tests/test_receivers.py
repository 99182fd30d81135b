import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dstc.channel import (
    add_stacked_noise,
    draw_channel,
    effective_channel,
    noise_variance,
)
from dstc.csk import block_with_reference, default_constellation, demodulate
from dstc.dimming import DimmingSpec, build_dimming_matrix
from dstc.experiments import ExperimentConfig, SystemConfig, run_point
from dstc import receivers
from dstc.linalg import (
    EIGENGAP_RTOL,
    NORMAL_EQUATIONS_MAX_COND,
    gram_cond,
    leading_eigenvector,
    pseudoinverse,
)
from dstc.receivers import (
    GRID_RTOL,
    AmbiguityError,
    channel_from_effective,
    code_inverse,
    code_mixing,
    krf_detect,
    krf_detect_grid,
    krf_terms,
    zf_detect,
    zf_detect_grid,
)
from tensor_oracles import planted_rows, vec


def dstc_link(seed, spec, k_t, l_t, n_rx, n_slots, snr_db):
    """Transmit one random block and return everything a receiver needs."""
    rng = np.random.default_rng(seed)
    constellation = default_constellation(k_t)
    code = build_dimming_matrix(spec)
    bits = rng.integers(0, 2, size=2 * l_t * (n_slots - 1), dtype=np.uint8)
    symbols = block_with_reference(bits, n_slots, l_t, constellation)
    gains = draw_channel(n_rx, spec.n_tx, "gaussian", seed=rng)
    stacked = effective_channel(gains, code) @ symbols.T
    if not math.isinf(snr_db):
        # the received power is the mean square of the clean reception
        sd = np.sqrt(noise_variance(np.mean(np.square(stacked)), snr_db))
        add_stacked_noise(stacked, sd * rng.standard_normal((n_rx, n_slots, spec.n_states)))
    return constellation, code, symbols, bits, gains, stacked, rng


def payload(est, constellation):
    """Detected bits of every slot after the training slot."""
    return demodulate(est.symbol_estimate[1:], constellation)


class TestStacking:
    """``effective_channel`` stacks state k's n_rx rows as row block k."""

    def test_single_state(self):
        rng = np.random.default_rng(0)
        gains, symbols = rng.random((3, 4)), rng.random((5, 4))
        stacked = effective_channel(gains, np.ones((1, 4))) @ symbols.T
        assert np.allclose(stacked, gains @ symbols.T, rtol=0.0, atol=1e-15)

    def test_blocks_follow_state_order(self):
        rng = np.random.default_rng(1)
        gains, code, symbols = rng.random((2, 3)), rng.random((3, 3)), rng.random((4, 3))
        stacked = effective_channel(gains, code) @ symbols.T
        assert stacked.shape == (6, 4)
        for k in range(3):
            block = gains @ np.diag(code[k]) @ symbols.T
            assert np.allclose(stacked[2 * k:2 * k + 2], block, rtol=0.0, atol=1e-15)

    def test_noiseless_consistency_with_effective_channel(self):
        rng = np.random.default_rng(2)
        spec = DimmingSpec(8, 6, 0.5, 0.4)
        code = build_dimming_matrix(spec)
        gains = rng.standard_normal((4, 6))
        symbols = rng.random((9, 6))
        stacked = effective_channel(gains, code) @ symbols.T
        # entry (k, i, n) is sum_j code[k, j] gains[i, j] symbols[n, j]
        trilinear = np.einsum("kj,ij,nj->kin", code, gains, symbols).reshape(stacked.shape)
        assert np.allclose(stacked, trilinear, rtol=0.0, atol=1e-12)


class TestEffectiveChannel:
    def test_disabled_dimming_tiles_gains(self):
        gains = np.random.default_rng(0).standard_normal((3, 4))
        out = effective_channel(gains, np.ones((2, 4)))
        assert np.array_equal(out, np.vstack([gains, gains]))

    def test_elementwise_oracle(self):
        rng = np.random.default_rng(1)
        gains = rng.standard_normal((3, 4))
        code = rng.random((5, 4))
        out = effective_channel(gains, code)
        for k in range(5):
            for i in range(3):
                for j in range(4):
                    assert out[3 * k + i, j] == pytest.approx(code[k, j] * gains[i, j])

    def test_mismatch(self):
        with pytest.raises(ValueError):
            effective_channel(np.ones((2, 3)), np.ones((4, 5)))


# A 4 + 4 LED link with 4 + 4 photodiodes and 12 dimming states, short blocks.
QLED_SHORT = SystemConfig(k_t=4, l_t=2, k_r=4, l_r=2, n_states=12, block_len=30)


class TestZfChannelEstimate:
    """ZF is trained with identity pilots, whose least-squares estimate is the reception."""

    def test_identity_pilots_pass_through(self):
        for n in (1, 6, 8, 30):
            rx = np.random.default_rng(n).random((2 * n, n))
            assert np.array_equal(pseudoinverse(np.eye(n)), np.eye(n))
            assert np.array_equal(rx @ pseudoinverse(np.eye(n).T), rx)

    def test_noiseless_recovery(self):
        outcome = run_point(QLED_SHORT, math.inf, 1, 1, receivers=("ZF",))["ZF"][0]
        assert outcome.bit_errors == 0 and not outcome.failed
        assert outcome.nmse <= 1e-20

    def test_error_shrinks_with_snr(self):
        nmse = [
            np.mean([o.nmse for o in run_point(QLED_SHORT, snr, 100, 2, ("ZF",))["ZF"]])
            for snr in (10.0, 20.0, 30.0)
        ]
        assert nmse[0] > nmse[1] > nmse[2]


class TestChannelFromEffective:
    def test_noiseless_collapse_is_exact(self):
        rng = np.random.default_rng(3)
        code = build_dimming_matrix(DimmingSpec(12, 8, 0.5, 0.4))
        gains = rng.standard_normal((8, 8))
        assert np.allclose(channel_from_effective(effective_channel(gains, code), code), gains)

    def test_zero_code_entries_use_only_lit_states(self):
        # full dimming depth: half the states switch each LED off
        code = build_dimming_matrix(DimmingSpec(12, 8, 0.5, 0.5))
        assert np.any(code == 0.0)
        rng = np.random.default_rng(4)
        gains = rng.standard_normal((8, 8))
        assert np.allclose(channel_from_effective(effective_channel(gains, code), code), gains)

    def test_dim_code_is_not_dark(self):
        # which states light a LED is relative to the code's own scale
        code = 1e-30 * build_dimming_matrix(DimmingSpec(12, 8, 0.5, 0.4))
        gains = np.random.default_rng(5).standard_normal((8, 8))
        assert np.allclose(channel_from_effective(effective_channel(gains, code), code), gains)

    def test_all_dark_column_rejected(self):
        code = np.array([[0.5, 0.0], [0.5, 0.0]])
        with pytest.raises(ValueError, match="never lit"):
            channel_from_effective(np.ones((4, 2)), code)


class TestZfDetect:
    def test_noiseless_block_is_error_free(self):
        constellation, code, symbols, bits, gains, stacked, _ = dstc_link(
            0, DimmingSpec(12, 8, 0.5, 0.4), 4, 2, 8, 30, math.inf
        )
        est = zf_detect(stacked, effective_channel(gains, code), code)
        assert np.array_equal(payload(est, constellation), bits)
        assert np.allclose(est.channel_estimate, gains, rtol=0.0, atol=1e-10)

    def test_high_snr_low_error(self):
        outcomes = run_point(QLED_SHORT, 40.0, 20, 0, ("ZF",))["ZF"]
        errors = sum(o.bit_errors for o in outcomes)
        bits = sum(o.n_bits for o in outcomes)
        assert errors / bits <= 1e-3

    def test_row_mismatch(self):
        with pytest.raises(ValueError, match="rows"):
            zf_detect(np.ones((8, 4)), np.ones((6, 3)), np.ones((2, 3)))

    def test_zero_effective_channel(self):
        assert zf_detect(np.ones((6, 4)), np.zeros((6, 3)), np.ones((2, 3))).failed

    def test_negligible_effective_channel(self):
        tiny = np.full((6, 3), 1e-300)
        assert zf_detect(np.ones((6, 4)), tiny, np.ones((2, 3))).failed


class TestKrfDetect:
    def test_noiseless_joint_recovery(self):
        constellation, code, symbols, bits, gains, stacked, _ = dstc_link(
            4, DimmingSpec(8, 6, 0.5, 0.4), 3, 2, 4, 40, math.inf
        )
        est = krf_detect(stacked, code_inverse(code), symbols[0])
        assert np.array_equal(payload(est, constellation), bits)
        rel = np.linalg.norm(est.channel_estimate - gains) / np.linalg.norm(gains)
        assert rel <= 1e-8
        assert np.allclose(est.symbol_estimate, symbols, rtol=0.0, atol=1e-8)

    def test_scaling_cancels_in_reconstruction(self):
        # the per-column scale moves between factors without changing their product
        constellation, code, symbols, bits, gains, stacked, _ = dstc_link(
            5, DimmingSpec(8, 6, 0.5, 0.4), 3, 2, 4, 40, math.inf
        )
        est = krf_detect(stacked, code_inverse(code), symbols[0])
        assert np.allclose(
            est.channel_estimate @ est.symbol_estimate.T,
            gains @ symbols.T,
            rtol=0.0, atol=1e-8,
        )

    def test_batched_fit_matches_per_column_svd(self):
        # every column pair is the leading rank-one term of the matching column
        # of the Khatri-Rao estimate, whatever scale the known row assigns it
        constellation, code, symbols, bits, gains, stacked, _ = dstc_link(
            11, DimmingSpec(8, 6, 0.5, 0.4), 3, 2, 4, 30, 10.0
        )
        est = krf_detect(stacked, code_inverse(code), symbols[0])
        n_states, n_slots = code.shape[0], stacked.shape[1]
        n_rx = stacked.shape[0] // n_states
        receptions = stacked.reshape(n_states, n_rx, n_slots)
        mode3 = np.stack([vec(receptions[k]) for k in range(n_states)])
        joint = mode3.T @ np.linalg.pinv(code.T)
        for r in range(code.shape[1]):
            u, sigma, vt = np.linalg.svd(joint[:, r].reshape(n_rx, n_slots, order="F"))
            leading = sigma[0] * np.outer(u[:, 0], vt[0])
            fitted = np.outer(est.channel_estimate[:, r], est.symbol_estimate[:, r])
            assert np.allclose(fitted, leading, rtol=0.0, atol=1e-10)
        assert np.allclose(est.symbol_estimate[0], symbols[0], rtol=1e-12, atol=0.0)

    def test_all_zero_reception_rejected(self):
        code = build_dimming_matrix(DimmingSpec(8, 6, 0.5, 0.4))
        assert krf_detect(np.zeros((8 * 4, 20)), code_inverse(code), np.full(6, 1 / 3)).failed

    def test_needs_fewer_receivers_than_leds(self):
        # works even when the stacked-channel inverse would be the only other option
        constellation, code, symbols, bits, gains, stacked, _ = dstc_link(
            6, DimmingSpec(8, 6, 0.5, 0.4), 3, 2, 2, 40, math.inf
        )
        est = krf_detect(stacked, code_inverse(code), symbols[0])
        assert np.array_equal(payload(est, constellation), bits)

    def test_zero_in_known_row_rejected(self):
        constellation, code, symbols, bits, gains, stacked, _ = dstc_link(
            7, DimmingSpec(8, 6, 0.5, 0.4), 3, 2, 4, 20, math.inf
        )
        bad = symbols[0].copy()
        bad[2] = 0.0
        with pytest.raises(AmbiguityError, match="column 2"):
            krf_detect(stacked, code_inverse(code), bad)

    def test_negligible_known_value_rejected(self):
        constellation, code, symbols, bits, gains, stacked, _ = dstc_link(
            7, DimmingSpec(8, 6, 0.5, 0.4), 3, 2, 4, 20, math.inf
        )
        bad = symbols[0].copy()
        bad[2] = 1e-300
        with pytest.raises(AmbiguityError, match="known symbol row is zero in column 2"):
            krf_detect(stacked, code_inverse(code), bad)

    def test_negligible_estimated_row_rejected(self):
        # LED 2 is dark to rounding error in the training slot, but the
        # receiver is told it is lit
        rng = np.random.default_rng(12)
        code = build_dimming_matrix(DimmingSpec(8, 6, 0.5, 0.4))
        symbols = rng.random((20, 6))
        symbols[0, 2] = 1e-15
        stacked = effective_channel(rng.standard_normal((4, 6)), code) @ symbols.T
        assert krf_detect(stacked, code_inverse(code), np.full(6, 1 / 3)).failed

    def test_known_row_length_checked(self):
        constellation, code, symbols, bits, gains, stacked, _ = dstc_link(
            8, DimmingSpec(8, 6, 0.5, 0.4), 3, 2, 4, 20, math.inf
        )
        with pytest.raises(ValueError, match="entries"):
            krf_detect(stacked, code_inverse(code), np.ones(4))

    def test_stacked_rows_must_stack_every_state(self):
        code = build_dimming_matrix(DimmingSpec(8, 6, 0.5, 0.4))
        with pytest.raises(ValueError, match="does not stack 8 states"):
            krf_detect(np.ones((12, 20)), code_inverse(code), np.full(6, 1 / 3))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_noiseless_exactness_random_geometry(self, seed):
        rng = np.random.default_rng(seed)
        k_t = int(rng.choice([3, 4]))
        l_t = int(rng.integers(1, 3))
        n_tx = k_t * l_t
        order = int(rng.choice([8, 12]))
        if n_tx > order - 1:
            l_t, n_tx = 1, k_t
        n_rx = int(rng.integers(2, 7))
        n_slots = int(rng.integers(6, 30))
        spec = DimmingSpec(order, n_tx, 0.5, 0.4)
        constellation, code, symbols, bits, gains, stacked, _ = dstc_link(
            int(rng.integers(2**31)), spec, k_t, l_t, n_rx, n_slots, math.inf
        )
        est = krf_detect(stacked, code_inverse(code), symbols[0])
        assert np.array_equal(payload(est, constellation), bits)
        rel = np.linalg.norm(est.channel_estimate - gains) / np.linalg.norm(gains)
        assert rel <= 1e-8


class TestStackedBlocks:
    """A stack of blocks is detected block by block; a degenerate block fails alone."""

    SPEC = DimmingSpec(8, 6, 0.5, 0.4)

    def stack(self):
        links = [dstc_link(20 + i, self.SPEC, 3, 2, 4, 20, 15.0) for i in range(4)]
        code = links[0][1]
        stacked = np.stack([link[5] for link in links])
        effective = np.stack([effective_channel(link[4], code) for link in links])
        known = np.stack([link[2][0] for link in links])
        return code, stacked, effective, known

    @staticmethod
    def assert_only_flagged(batch, singles, bad):
        assert batch.failed.tolist() == [i == bad for i in range(len(singles))]
        for i, single in enumerate(singles):
            assert single.failed == (i == bad)
            if i != bad:
                assert np.array_equal(batch.symbol_estimate[i], single.symbol_estimate)
                assert np.array_equal(batch.channel_estimate[i], single.channel_estimate)

    def test_zero_effective_estimate(self):
        code, stacked, effective, _ = self.stack()
        effective[2] = 0.0
        batch = zf_detect(stacked, effective, code)
        singles = [zf_detect(stacked[i], effective[i], code) for i in range(4)]
        self.assert_only_flagged(batch, singles, 2)

    def test_ill_conditioned_estimates_take_the_pseudoinverse(self):
        code, stacked, effective, _ = self.stack()
        effective[1][:, 4] = effective[1][:, 0]  # duplicated columns
        effective[2] = 0.0
        batch = zf_detect(stacked, effective, code)
        assert batch.failed.tolist() == [False, False, True, False]
        for i in (1, 2):
            expected = (pseudoinverse(effective[i]) @ stacked[i]).T
            assert np.array_equal(batch.symbol_estimate[i], expected)
        assert np.allclose(
            batch.symbol_estimate[0], (pseudoinverse(effective[0]) @ stacked[0]).T,
            rtol=0.0, atol=1e-12,
        )

    def test_all_zero_reception(self):
        code, stacked, _, known = self.stack()
        stacked[1] = 0.0
        inverse = code_inverse(code)
        batch = krf_detect(stacked, inverse, known)
        singles = [krf_detect(stacked[i], inverse, known[i]) for i in range(4)]
        self.assert_only_flagged(batch, singles, 1)

    def test_zero_estimated_training_row(self):
        code, stacked, _, known = self.stack()
        # LED 2 is dark to rounding error in block 3's training slot
        rng = np.random.default_rng(12)
        symbols = rng.random((20, 6))
        symbols[0, 2] = 1e-15
        stacked[3] = effective_channel(rng.standard_normal((4, 6)), code) @ symbols.T
        inverse = code_inverse(code)
        batch = krf_detect(stacked, inverse, known[0])
        singles = [krf_detect(stacked[i], inverse, known[0]) for i in range(4)]
        self.assert_only_flagged(batch, singles, 3)

    def test_rank_deficient_code_refused(self):
        code = build_dimming_matrix(self.SPEC)
        code[:, 1] = code[:, 0]
        with pytest.raises(ValueError, match="full column rank"):
            code_inverse(code)

    def test_nearly_rank_deficient_code_refused(self):
        # sigma_min / sigma_max = 1e-11 is full rank to matrix_rank's default
        # tolerance but not to full_column_rank, which build_dimming_matrix applies
        rng = np.random.default_rng(13)
        left, _ = np.linalg.qr(rng.standard_normal((8, 6)))
        right, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        code = left @ np.diag([1.0, 0.5, 0.3, 0.2, 0.1, 1e-11]) @ right.T
        assert np.linalg.matrix_rank(code) == 6
        with pytest.raises(ValueError, match="full column rank"):
            code_inverse(code)


class GridLink:
    """A stack of blocks at a grid of noise scales, for the grid detectors and the formed ones.

    ``sd`` is ``(points, trials)``.  Each block's reception is ``Y0 + sd *
    N`` and ZF's pilot estimate ``E + sd * P``, of unit draws ``noise``
    ``N`` and ``pilot`` ``P``.
    """

    SPEC = DimmingSpec(12, 8, 0.5, 0.4)

    def __init__(self, seed, n_trials, channel_model, snr_grid_db, n_slots=40):
        rng = np.random.default_rng(seed)
        self.code = build_dimming_matrix(self.SPEC)
        self.inverse = code_inverse(self.code)
        bits = rng.integers(0, 2, size=(n_trials, 2 * 2 * (n_slots - 1)), dtype=np.uint8)
        self.symbols = block_with_reference(bits, n_slots, 2, default_constellation(4))
        self.gains = np.stack([draw_channel(8, 8, channel_model, seed=rng) for _ in bits])
        self.relink()
        self.noise = rng.standard_normal((n_trials, 96, n_slots))
        self.pilot = rng.standard_normal(self.effective.shape)
        power = np.mean(np.square(self.clean), axis=(-2, -1))
        self.sd = np.array([np.sqrt(noise_variance(power, snr)) for snr in snr_grid_db])

    def relink(self):
        """Form the effective channels and clean receptions from ``gains``."""
        self.effective = effective_channel(self.gains, self.code)
        self.clean = self.effective @ self.symbols.swapaxes(-1, -2)

    def zf_grid(self):
        t = self.effective.swapaxes(-1, -2)
        products = (t @ self.noise, self.pilot.swapaxes(-1, -2) @ self.noise)
        peaks = tuple(np.abs(a).max(axis=(-2, -1)) for a in (self.clean, self.noise))
        return zf_detect_grid(
            self.effective, self.pilot, self.symbols, products, peaks, self.sd, self.code
        )

    def krf_grid(self):
        n_trials, _, n_slots = self.noise.shape
        mixing, coefficients = code_mixing(self.code)
        rows = (mixing @ self.noise.reshape(n_trials, 12, -1)).reshape(n_trials, 10, 8, n_slots)
        norms = tuple(np.linalg.norm(a, axis=(-2, -1)) for a in (self.clean, self.noise))
        return krf_detect_grid(
            self.gains, self.symbols, krf_terms(rows, self.symbols),
            np.broadcast_to(coefficients[2:], (len(self.sd), 3)), self.inverse[None, None], norms,
            self.sd, self.symbols[:, 0],
        )

    def darken(self, led, noise_residual=None):
        """Switch ``led`` off; ``noise_residual`` (n_rx x n_slots) is then its residual's noise.

        Given it, ``sd`` is one, and the noise is what leaves that residual
        under the code's inverse and none on any other LED.
        """
        self.gains[:, :, led] = 0.0
        self.relink()
        if noise_residual is not None:
            self.sd[:] = 1.0
            residual = np.zeros((len(self.gains), 8, *noise_residual.shape))
            residual[:, led] = noise_residual
            self.noise = (self.code @ residual.reshape(len(residual), 8, -1)).reshape(
                self.noise.shape
            )

    def formed(self, i):
        """Point ``i``'s reception and ZF's pilot estimate, formed."""
        scale = self.sd[i][:, None, None]
        return self.clean + scale * self.noise, self.effective + scale * self.pilot


class TestCodeMixing:
    """One draw's depth-free rows give every depth's products, as formed from the code."""

    # (states, LEDs): the QLED links at 12 and 16 states and the 18- and 30-LED rows of Table 2
    LINKS = ((12, 8), (16, 8), (20, 18), (32, 30))

    @staticmethod
    def codes(n_states, n_tx):
        """The codes of every feasible depth 0.1 .. 0.5 at P_m = 0.3, 0.5 and 0.7, and a tiny one."""
        specs = [DimmingSpec(n_states, n_tx, p_m, alpha) for p_m in (0.3, 0.5, 0.7)
                 for alpha in (0.1, 0.2, 0.3, 0.4, 0.5) if alpha <= min(p_m, 1.0 - p_m) + 1e-12]
        # p_m**2 / (alpha**2 + n * p_m**2) of this code is formed from p_m / alpha alone
        specs.append(DimmingSpec(n_states, n_tx, 1e-150, 1e-150))
        return [build_dimming_matrix(spec) for spec in specs]

    @staticmethod
    def exact_mixing(code, w):
        """``C+ @ W.T / K`` and ``C.T @ W.T / K`` of the float ``code`` in exact arithmetic.

        ``C`` holds two values; over their common power-of-two denominator
        ``unit`` it is an integer matrix ``c``, whose Gram matrix, checked
        to be ``K * (a**2 * I + p**2 * 1 @ 1.T)``, is inverted by
        Sherman-Morrison in Fractions.  Returns two object arrays of
        Fractions, ``n_tx x (1 + n_tx)``.
        """
        n_states, n_tx = code.shape
        hi, lo = Fraction(code.max()), Fraction(code.min())
        assert np.isin(code, (code.max(), code.min())).all()
        unit = max(hi.denominator, lo.denominator)  # a power of two, so it clears both
        c = np.where(code == code.max(), int(hi * unit), int(lo * unit)).astype(object)
        p, a = (c.max() + c.min()) / Fraction(2), (c.max() - c.min()) / Fraction(2)
        gram = c.T @ c
        assert (gram == n_states * (a**2 * np.eye(n_tx, dtype=int) + p**2)).all()
        cw = c.T @ w.T.astype(int).astype(object)  # unit * C.T @ W.T
        r = p**2 / (a**2 + n_tx * p**2)
        solved = (cw - r * cw.sum(axis=0)) / (n_states * a**2)  # inv(gram) @ cw
        return solved * Fraction(unit, n_states), cw / (unit * n_states)

    @pytest.mark.parametrize("n_states,n_tx", LINKS)
    def test_coefficients_reproduce_the_formed_mixing(self, n_states, n_tx):
        for code in self.codes(n_states, n_tx):
            rows, coefficients = code_mixing(code)
            level, swing, m0, m1, m2 = map(Fraction, coefficients.tolist())
            signs = rows[2:].T
            assert np.array_equal(signs.T @ signs, n_states * np.eye(n_tx))
            assert np.array_equal(rows[0], np.ones(n_states)) and not (rows[0] @ signs).any()
            assert np.array_equal(rows[1], signs.sum(axis=1))
            w = rows[[0, *range(2, n_tx + 2)]]  # [1.T; B.T]
            own = np.eye(n_tx, dtype=bool)
            krf, zf = self.exact_mixing(code, w)
            # C+ @ W.T / K: m0 on Z0, m2 on each row of S and m1 more on the
            # LED's own row, as the route mixes them
            krf_errors = (m0 - krf[:, 0], m2 - krf[:, 1:][~own], m1 + m2 - krf[:, 1:][own])
            # C.T @ W.T / K: p on Z0 and a on the LED's own row
            zf_errors = (level - zf[:, 0], zf[:, 1:][~own], swing - zf[:, 1:][own])
            for want, errors in ((krf, krf_errors), (zf, zf_errors)):
                worst = max(np.abs(e).max(initial=0) for e in errors)
                largest = np.abs(want).max()
                assert worst <= Fraction(1e-15) * largest, (code[0], float(worst / largest))

    @pytest.mark.parametrize("n_states,n_tx", LINKS)
    def test_terms_give_the_formed_residual_gram(self, n_states, n_tx):
        # within the rounding delta <= 2 * n_slots * eps * lambda_1 that
        # linalg.leading_eigenvector's eigengap rule assumes, at a low and a
        # high SNR and at every depth
        n_rx, n_slots, n_trials = n_tx, 100, 3
        rng = np.random.default_rng(n_states)
        symbols = rng.random((n_trials, n_slots, n_tx))
        gains = rng.standard_normal((n_trials, n_rx, n_tx))
        noise = rng.standard_normal((n_trials, n_states * n_rx, n_slots))
        codes = self.codes(n_states, n_tx)
        rows = code_mixing(codes[0])[0] @ noise.reshape(n_trials, n_states, -1)
        terms = krf_terms(rows.reshape(n_trials, n_tx + 2, n_rx, n_slots), symbols)
        worst = 0.0
        for code in codes:
            inverse, (m0, m1, m2) = code_inverse(code), code_mixing(code)[1][2:]
            clean = effective_channel(gains, code) @ symbols.swapaxes(-1, -2)
            power = np.mean(np.square(clean), axis=(-2, -1))
            sd = np.array([np.sqrt(noise_variance(power, snr_db)) for snr_db in (0.0, 30.0)])
            gram = receivers._krf_gram(
                gains.swapaxes(-1, -2), symbols.swapaxes(-1, -2), *terms[1:],
                sd * m0, sd * m1, sd * m2,
            )
            for i, scale in enumerate(sd):
                residual = inverse @ (clean + scale[:, None, None] * noise).reshape(
                    n_trials, n_states, -1)
                residual = residual.reshape(n_trials, n_tx, n_rx, n_slots)
                formed = residual @ residual.swapaxes(-1, -2)
                top = np.linalg.eigvalsh(formed)[..., -1]
                delta = np.abs(gram[i] - formed).max(axis=(-2, -1))
                worst = max(worst, (delta / top).max())
        assert worst <= 2 * n_slots * np.finfo(float).eps, worst


class TestGridDetectors:
    """A block the grid detectors do not flag has the detector's verdict on the formed reception."""

    # SNRs from -5 dB, where many Gram powers do not converge, to 40 dB, on
    # both channel models; a raised ZERO_RTOL makes the formed detectors fail
    # some blocks, of VLC-KRF at 0.2 and of both at 0.7, and at the default
    # every block settles
    @pytest.mark.parametrize("channel_model", ["gaussian", "diagonal"])
    @pytest.mark.parametrize("zero_rtol", [None, 0.2, 0.7])
    def test_unflagged_blocks_match_the_formed_detectors(
        self, monkeypatch, channel_model, zero_rtol
    ):
        if zero_rtol:
            monkeypatch.setattr(receivers, "ZERO_RTOL", zero_rtol)
        link = GridLink(3, 24, channel_model, (-5.0, 4.0, 12.0, 24.0, 40.0))
        taken = []
        eigh = np.linalg.eigh
        with monkeypatch.context() as m:
            m.setattr(np.linalg, "eigh", lambda a: taken.append(len(a)) or eigh(a))
            krf = link.krf_grid()
        assert taken  # the fits whose Gram powers do not converge
        zf = link.zf_grid()
        settled = failing = 0
        for i in range(len(link.sd)):
            received, estimate = link.formed(i)
            for name, grid, alone in (
                ("ZF", zf, zf_detect(received, estimate, link.code)),
                ("VLC-KRF", krf, krf_detect(received, link.inverse, link.symbols[:, 0])),
            ):
                failing += int(alone.failed.sum())
                keep = ~grid.failed[i]
                settled += int(keep.sum())
                # a block the grid settles passes every test of the formed detector
                assert not alone.failed[keep].any(), name
                if not keep.any():
                    continue
                got, want = grid.symbol_estimate[i][keep], alone.symbol_estimate[keep]
                np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-9 * np.abs(want).max())
                got, want = grid.channel_estimate[i][keep], alone.channel_estimate[keep]
                if name == "ZF":  # the same pilot estimate, formed the same way
                    assert np.array_equal(got, want)
                else:
                    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-9 * np.abs(want).max())
        if zero_rtol:
            assert 0 < settled < 2 * link.sd.size, settled
        else:
            assert settled == 2 * link.sd.size
        assert (failing > 0) == bool(zero_rtol)

    def test_ill_conditioned_estimate_is_flagged(self):
        # nearly noiseless: a dim LED on the diagonal channel, and an all-zero
        # gains column, leave ZF's pilot estimate ill-conditioned
        link = GridLink(4, 2, "diagonal", (200.0,))
        link.gains[0, 5, 5] = 1e-5
        link.gains[1, :, 2] = 0.0
        link.relink()
        _, estimate = link.formed(0)
        assert (gram_cond(estimate.swapaxes(-1, -2) @ estimate) > NORMAL_EQUATIONS_MAX_COND).all()
        assert link.zf_grid().failed.all()

    @pytest.mark.parametrize("residual", ["zero", "no eigengap"])
    def test_unconverged_fit_is_flagged(self, residual):
        # LED 3 is dark, so its residual is its noise alone: none, or two rows
        # whose Gram matrix has eigenvalues 1 and 0.9999**2 along the diagonals,
        # a gap of 2e-4, too close for the fit to settle
        link = GridLink(6, 1, "gaussian", (30.0,))
        dark = np.zeros((8, link.noise.shape[-1]))
        if residual == "no eigengap":
            dark[:2, 1] = 1.0 / np.sqrt(2.0)
            dark[:2, 2] = [0.9999 / np.sqrt(2.0), -0.9999 / np.sqrt(2.0)]
        link.darken(3, dark)
        assert not leading_eigenvector((dark @ dark.T)[None])[2].any()
        assert link.krf_grid().failed.all()
        assert not link.zf_grid().failed.any()  # ZF's pilot estimate is noisy on the dark LED

    @pytest.mark.parametrize("side", [-1, 1], ids=["below", "above"])
    def test_planted_gap_on_each_side_of_the_rule(self, side):
        # the dark LED's residual has lambda_2 / lambda_1 = 1 - EIGENGAP_RTOL *
        # (1 +- 1%): just inside the rule its fit settles with krf_detect's
        # estimates, just outside it is flagged
        link = GridLink(6, 1, "gaussian", (30.0,))
        ratio = 1.0 - EIGENGAP_RTOL * (1.0 + 0.01 * side)
        spectrum = np.sqrt([1.0, ratio, 0.5, 0.4, 0.3, 0.2, 0.1, 0.05])
        link.darken(3, planted_rows(7, spectrum, link.noise.shape[-1]))
        grid = link.krf_grid()
        if side < 0:
            assert grid.failed.all()
            return
        assert not grid.failed.any()
        received, _ = link.formed(0)
        alone = krf_detect(received, link.inverse, link.symbols[:, 0])
        for got, want in (
            (grid.symbol_estimate[0], alone.symbol_estimate),
            (grid.channel_estimate[0], alone.channel_estimate),
        ):
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-9 * np.abs(want).max())

    @pytest.mark.parametrize("sd", [1e-14, 1e-6])
    def test_residual_within_rounding_of_its_bound_is_flagged(self, sd):
        # a dark LED at a small noise scale: its residual is noise alone, whose
        # fit settles and whose training row is clear, but the formed
        # residual's rounding of the other LEDs' clean parts is not within
        # GRID_RTOL * EIGENGAP_RTOL of it, so the fits could differ by more
        # than GRID_RTOL and only the Gram-trace test refuses the block
        link = GridLink(6, 1, "gaussian", (30.0,))
        link.darken(3)
        link.sd[:] = sd
        noise_residual = (link.inverse @ link.noise[0].reshape(12, -1))[3].reshape(8, -1)
        lam, u, settled = leading_eigenvector((noise_residual @ noise_residual.T)[None])
        v = u[0] @ noise_residual
        assert settled.all() and abs(v[0]) > 1e-3 * np.abs(v).max()
        rounding = np.linalg.norm((link.inverse @ link.clean[0].reshape(12, -1))[3])
        assert rounding > GRID_RTOL * EIGENGAP_RTOL * np.linalg.norm(sd * noise_residual)
        assert link.krf_grid().failed.all()


class TestPlainCskBaseline:
    """Conventional CSK: zero forcing on the one-state all-ones code."""

    def test_noiseless_exact(self):
        rng = np.random.default_rng(9)
        constellation = default_constellation(4)
        bits = rng.integers(0, 2, size=2 * 2 * 19, dtype=np.uint8)
        symbols = block_with_reference(bits, 20, 2, constellation)
        gains = draw_channel(8, 8, "gaussian", seed=rng)
        one_state = np.ones((1, 8))
        estimate = effective_channel(gains, one_state)
        stacked = estimate @ symbols.T
        # noiseless identity pilots return the effective channel itself
        est = zf_detect(stacked, estimate, one_state)
        assert np.array_equal(payload(est, constellation), bits)
        assert np.allclose(est.channel_estimate, gains, rtol=0.0, atol=1e-10)
        # the one-state code leaves the effective-channel estimate as it is
        assert np.array_equal(est.channel_estimate, estimate)

    def test_needs_square_or_tall_channel(self):
        short = SystemConfig(k_t=4, l_t=2, k_r=3, l_r=2, n_states=12, block_len=100)
        with pytest.raises(ValueError, match="n_rx >= n_tx"):
            ExperimentConfig(scenario=short, snr_grid_db=(20.0,), receivers=("plain-CSK",))
        # the rule is plain CSK's alone: the coded receivers stack every state
        ExperimentConfig(scenario=short, snr_grid_db=(20.0,), receivers=("ZF", "VLC-KRF"))
