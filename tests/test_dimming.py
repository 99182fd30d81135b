import dataclasses
import math
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dstc import dimming
from dstc.channel import effective_channel
from dstc.configio import load_config
from dstc.dimming import (
    ChromaticityTable,
    ConstraintViolationError,
    DimmingSpec,
    average_chromaticity,
    average_power,
    build_dimming_matrix,
    default_chromaticity,
    validate_dimming_matrix,
)
from dstc.linalg import hadamard, kruskal_rank

FEASIBLE = [
    DimmingSpec(n_states=8, n_tx=6, p_m=0.5, alpha=0.4),
    DimmingSpec(n_states=12, n_tx=6, p_m=0.5, alpha=0.4),
    DimmingSpec(n_states=12, n_tx=8, p_m=0.5, alpha=0.4),
    DimmingSpec(n_states=16, n_tx=8, p_m=0.5, alpha=0.4),
    DimmingSpec(n_states=20, n_tx=18, p_m=0.5, alpha=0.4),
    DimmingSpec(n_states=32, n_tx=30, p_m=0.5, alpha=0.4),
    DimmingSpec(n_states=12, n_tx=6, p_m=0.3, alpha=0.25),
    DimmingSpec(n_states=4, n_tx=3, p_m=0.5, alpha=0.25),
]


class TestBuild:
    def test_two_level_entries(self):
        c = build_dimming_matrix(DimmingSpec(4, 3, 0.5, 0.25))
        assert c.shape == (4, 3)
        assert set(np.round(c.ravel(), 12)) == {0.25, 0.75}

    def test_qled_k12_levels(self):
        c = build_dimming_matrix(DimmingSpec(12, 8, 0.5, 0.4))
        assert set(np.round(c.ravel(), 12)) == {0.1, 0.9}

    @pytest.mark.parametrize("spec", FEASIBLE)
    def test_feasible_designs(self, spec):
        c = build_dimming_matrix(spec)
        report = validate_dimming_matrix(c, spec)
        assert report.entries_in_range
        assert report.column_mean_error <= 1e-12
        assert report.rank == spec.n_tx
        assert report.kruskal == spec.n_tx
        assert report.ok

    @pytest.mark.parametrize("spec", FEASIBLE)
    def test_gram_structure(self, spec):
        # columns share a constant inner product: c_i . c_j = K*(p_m^2 + alpha^2*[i==j])
        c = build_dimming_matrix(spec)
        k = spec.n_states
        expect = k * (
            spec.p_m**2 * np.ones((spec.n_tx, spec.n_tx))
            + spec.alpha**2 * np.eye(spec.n_tx)
        )
        assert np.allclose(c.T @ c, expect, rtol=0.0, atol=1e-10)

    def test_alpha_too_large(self):
        with pytest.raises(ConstraintViolationError, match=r"alpha <= min\(P_m, 1 - P_m\)"):
            build_dimming_matrix(DimmingSpec(12, 6, 0.5, 0.6))

    def test_alpha_zero(self):
        with pytest.raises(ConstraintViolationError, match="alpha > 0"):
            build_dimming_matrix(DimmingSpec(12, 6, 0.5, 0.0))

    def test_alpha_subnormal(self):
        # 1 / (alpha * sqrt(K)), the scale of the code's inverse, would overflow
        with pytest.raises(ConstraintViolationError, match="not subnormal"):
            build_dimming_matrix(DimmingSpec(12, 6, 1e-310, 1e-310))
        tiny = np.finfo(float).tiny
        code = build_dimming_matrix(DimmingSpec(12, 6, tiny, tiny))
        assert np.all(np.isfinite(np.linalg.pinv(code)))

    def test_alpha_nan(self):
        with pytest.raises(ConstraintViolationError, match="alpha"):
            build_dimming_matrix(DimmingSpec(12, 6, 0.5, math.nan))

    def test_too_many_leds(self):
        with pytest.raises(ConstraintViolationError, match="K_T\\*L_T <= K - 1"):
            build_dimming_matrix(DimmingSpec(8, 8, 0.5, 0.4))

    def test_unsupported_state_count(self):
        with pytest.raises(ConstraintViolationError, match="Hadamard order"):
            build_dimming_matrix(DimmingSpec(36, 6, 0.5, 0.4))

    def test_bad_dimming_target(self):
        with pytest.raises(ConstraintViolationError, match="0 < P_m < 1"):
            build_dimming_matrix(DimmingSpec(12, 6, 1.0, 0.0))

    def test_constant_column_rejected(self):
        with pytest.raises(ConstraintViolationError, match="constant"):
            build_dimming_matrix(DimmingSpec(12, 3, 0.5, 0.4, columns=(1, 2, 3)))

    def test_custom_columns(self):
        spec = DimmingSpec(12, 3, 0.5, 0.4, columns=(5, 2, 9))
        c = build_dimming_matrix(spec)
        assert validate_dimming_matrix(c, spec).ok

    def test_duplicate_columns_rejected(self):
        with pytest.raises(ConstraintViolationError, match="distinct"):
            build_dimming_matrix(DimmingSpec(12, 3, 0.5, 0.4, columns=(2, 2, 3)))

    @given(
        st.sampled_from([4, 8, 12, 16, 20]),
        st.floats(0.1, 0.9),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_feasibility_properties(self, n_states, p_m, seed):
        rng = np.random.default_rng(seed)
        n_tx = int(rng.integers(1, min(n_states - 1, 10) + 1))
        cap = min(p_m, 1.0 - p_m)
        alpha = float(rng.uniform(0.05, 1.0)) * cap
        if alpha <= 0.0:
            return
        spec = DimmingSpec(n_states, n_tx, p_m, alpha)
        c = build_dimming_matrix(spec)
        assert np.all(c >= 0.0) and np.all(c <= 1.0)
        assert np.max(np.abs(c.mean(axis=0) - p_m)) <= 1e-12
        assert np.linalg.matrix_rank(c) == n_tx

    def test_builds_only_the_picked_columns(self, monkeypatch):
        requested = []

        def spy(order, columns):
            requested.append((order, list(columns)))
            return hadamard(order, columns)

        monkeypatch.setattr(dimming, "hadamard", spy)
        monkeypatch.setattr(dimming, "_codes", {})  # no code is kept from an earlier test
        build_dimming_matrix(DimmingSpec(12, 3, 0.5, 0.4, columns=(5, 2, 9)))
        build_dimming_matrix(DimmingSpec(65536, 2, 0.5, 0.4))
        assert requested == [(12, [4, 1, 8]), (65536, [1, 2])]


class TestKeptCodes:
    """``build_dimming_matrix`` keeps each code it builds, and hands out copies of it."""

    CONFIGS = sorted((Path(__file__).parent.parent / "configs").glob("*.cfg"))

    @staticmethod
    def specs(path):
        """The specs of a config: its scenario's, and one per depth of its alpha grid."""
        bundle = load_config(path)
        grid = bundle.experiment.alpha_grid if bundle.experiment else ()
        alphas = (bundle.scenario.alpha, *grid)
        return [dataclasses.replace(bundle.scenario, alpha=a).dimming_spec() for a in alphas]

    @pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
    def test_kept_code_equals_a_fresh_construction(self, path, monkeypatch):
        built = []
        monkeypatch.setattr(dimming, "_codes", {})
        monkeypatch.setattr(dimming, "hadamard", lambda *args: built.append(1) or hadamard(*args))
        for spec in self.specs(path):
            columns = spec.columns or range(2, spec.n_tx + 2)
            fresh = spec.p_m + spec.alpha * hadamard(spec.n_states, [c - 1 for c in columns])
            assert np.array_equal(build_dimming_matrix(spec), fresh)
            n_built = len(built)
            assert np.array_equal(build_dimming_matrix(spec), fresh)  # the kept code
            assert len(built) == n_built

    def test_a_returned_code_is_the_callers_own(self):
        spec = DimmingSpec(12, 8, 0.5, 0.4)
        want = build_dimming_matrix(spec)
        code = build_dimming_matrix(spec)
        assert code.flags.writeable and not np.shares_memory(code, want)
        code[:] = 0.0
        assert np.array_equal(build_dimming_matrix(spec), want)

    @pytest.mark.parametrize(
        "spec,constraint",
        [
            (DimmingSpec(32, 30, 0.5, 1e-9), "full column rank"),
            (DimmingSpec(28, 3, 0.5, 0.4), "K is a constructible Hadamard order"),
            (DimmingSpec(12, 8, 0.5, 0.6), "alpha <= min(P_m, 1 - P_m)"),
        ],
        ids=["vanishing-swing", "no-hadamard-order", "deep-alpha"],
    )
    def test_infeasible_spec_raises_on_every_call(self, spec, constraint):
        for _ in range(3):
            with pytest.raises(ConstraintViolationError) as info:
                build_dimming_matrix(spec)
            assert info.value.constraint == constraint

    def test_kept_bytes_stay_within_the_stated_bound(self, monkeypatch):
        monkeypatch.setattr(dimming, "_codes", {})
        bound = dimming._KEPT_CODES * dimming._KEPT_CODE_BYTES
        assert bound == 2**20  # the bound the comment states
        alphas = np.linspace(0.01, 0.5, 2 * dimming._KEPT_CODES)
        specs = [DimmingSpec(32, 30, 0.5, a) for a in alphas]
        for spec in specs:
            build_dimming_matrix(spec)
            assert sum(code.nbytes for code, _ in dimming._codes.values()) <= bound
        assert len(dimming._codes) == dimming._KEPT_CODES
        big = DimmingSpec(128, 64, 0.5, 0.4)  # 64 KiB, more than a kept code may take
        assert build_dimming_matrix(big).flags.writeable
        assert all(code.shape != (128, 64) for code, _ in dimming._codes.values())

    def test_threads_keep_the_bound_and_the_codes(self, monkeypatch):
        monkeypatch.setattr(dimming, "_codes", {})
        alphas = np.linspace(0.01, 0.5, 3 * dimming._KEPT_CODES)
        wrong = []

        def build(offset):
            try:
                for a in np.roll(alphas, offset):
                    code = build_dimming_matrix(DimmingSpec(12, 8, 0.5, a))
                    if not np.array_equal(code, 0.5 + a * hadamard(12, range(1, 9))):
                        wrong.append(a)
            except Exception as exc:  # a thread's failure fails the test
                wrong.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build, args=(17 * i,)) for i in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == [] and len(dimming._codes) <= dimming._KEPT_CODES


class TestValidate:
    def test_one_svd_for_a_full_column_rank_code(self, monkeypatch):
        spec = DimmingSpec(32, 30, 0.5, 0.4)
        code = build_dimming_matrix(spec)
        cond = np.linalg.cond(code)
        calls = []
        svd = np.linalg.svd

        def counted(*args, **kwargs):
            calls.append(1)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        # cond and matrix_rank reach svd through numpy's private module
        monkeypatch.setattr(getattr(np.linalg, "_linalg", np.linalg), "svd", counted)
        report = validate_dimming_matrix(code, spec)
        assert len(calls) == 1
        assert report.rank == report.kruskal == 30 and report.ok
        assert report.condition_number == cond  # bit for bit

    def test_rank_follows_full_column_rank(self):
        # sigma_min / sigma_max = 1e-11 is full rank to matrix_rank's default
        # tolerance, but not to the rule that build_dimming_matrix applies
        rng = np.random.default_rng(13)
        left, _ = np.linalg.qr(rng.standard_normal((8, 6)))
        right, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        code = left @ np.diag([1.0, 0.5, 0.3, 0.2, 0.1, 1e-11]) @ right.T
        assert np.linalg.matrix_rank(code) == 6
        report = validate_dimming_matrix(code, DimmingSpec(8, 6, 0.5, 0.4))
        assert report.rank == 5 and not report.rank_ok
        assert report.kruskal == kruskal_rank(code) < 6 and not report.kruskal_ok
        assert report.condition_number == pytest.approx(1e11, rel=1e-3)
        assert not report.ok

    def test_zero_code_is_infinitely_conditioned(self):
        report = validate_dimming_matrix(np.zeros((4, 3)), DimmingSpec(4, 3, 0.5, 0.4))
        assert report.rank == report.kruskal == 0
        assert report.condition_number == math.inf and not report.means_ok

    def test_each_verdict_decides_ok(self):
        good = dimming.DimmingReport(
            entries_in_range=True, column_mean_error=0.0, rank=3, kruskal=3,
            condition_number=1.0, n_tx=3,
        )
        assert good.means_ok and good.rank_ok and good.kruskal_ok and good.ok
        for change in (
            {"entries_in_range": False},
            {"column_mean_error": 2 * dimming.COLUMN_MEAN_TOL},
            {"rank": 2},
            {"kruskal": 2},
        ):
            assert not dataclasses.replace(good, **change).ok, change

    def test_n_tx_is_required(self):
        with pytest.raises(TypeError, match="n_tx"):
            dimming.DimmingReport(True, 0.0, 3, 3, 1.0)


def transmitted(code, symbols):
    """What the code sends per state, read through an identity channel.

    The channel has one photodiode per symbol column, so ``effective_channel``
    refuses symbols whose columns do not match the code's.
    """
    stacked = effective_channel(np.eye(symbols.shape[-1]), code) @ symbols.swapaxes(-1, -2)
    return stacked.reshape(code.shape[0], code.shape[1], -1)


class TestTransmitBlock:
    def test_disabled_dimming_is_transpose(self):
        s = np.random.default_rng(0).random((5, 4))
        x = transmitted(np.ones((3, 4)), s)
        for k in range(3):
            assert np.array_equal(x[k], s.T)

    def test_elementwise_oracle(self):
        rng = np.random.default_rng(1)
        c = build_dimming_matrix(DimmingSpec(8, 6, 0.5, 0.4))
        s = rng.random((7, 6))
        x = transmitted(c, s)
        assert x.shape == (8, 6, 7)
        for k in range(8):
            for i in range(6):
                for n in range(7):
                    assert x[k, i, n] == pytest.approx(c[k, i] * s[n, i])

    def test_states_average_to_target(self):
        c = build_dimming_matrix(DimmingSpec(12, 6, 0.5, 0.4))
        s = np.random.default_rng(2).random((9, 6))
        x = transmitted(c, s)
        assert np.allclose(x.mean(axis=0), 0.5 * s.T, rtol=0.0, atol=1e-12)

    def test_column_mismatch(self):
        with pytest.raises(ValueError, match="columns"):
            transmitted(np.ones((3, 4)), np.ones((5, 3)))


class TestAveragePower:
    def test_no_dimming(self):
        s = np.random.default_rng(0).random((50, 4))
        assert average_power(np.ones((6, 4)), s.sum(axis=0)) == pytest.approx(1.0)

    def test_constant_half_code(self):
        s = np.random.default_rng(1).random((50, 4))
        assert average_power(np.full((6, 4), 0.5), s.sum(axis=0)) == pytest.approx(0.5)

    def test_structured_code_hits_target_exactly(self):
        c = build_dimming_matrix(DimmingSpec(12, 6, 0.5, 0.4))
        s = np.random.default_rng(2).random((500, 6))
        assert average_power(c, s.sum(axis=0)) == pytest.approx(0.5, abs=1e-12)

    def test_zero_block_rejected(self):
        with pytest.raises(dimming.DegenerateInputError):
            average_power(np.ones((2, 3)), np.zeros((4, 3)).sum(axis=0))

    def test_rounding_error_mean_rejected(self):
        # the block's mean is one unit in the last place of its entries
        s = np.array([[1.0, -(1.0 - 2.0**-52)]])
        with pytest.raises(dimming.DegenerateInputError):
            average_power(np.ones((2, 2)), s.sum(axis=0))


class TestChromaticity:
    def test_single_channel_hits_its_coordinate(self):
        table = default_chromaticity(3)
        s = np.zeros((10, 3))
        s[:, 1] = 1.0  # only the green LED emits
        xy = average_chromaticity(np.ones((4, 3)), s.sum(axis=0), table)
        assert xy == pytest.approx((0.30, 0.60))

    def test_equal_power_mix_is_centroid(self):
        table = default_chromaticity(3)
        s = np.ones((10, 3))
        x, y = average_chromaticity(np.ones((4, 3)), s.sum(axis=0), table)
        coords = np.array(table.coords)
        assert (x, y) == pytest.approx(tuple(coords.mean(axis=0)))

    def test_dimming_leaves_mixture_unchanged(self):
        # every LED is dimmed to the same mean, so channel weights cancel
        rng = np.random.default_rng(3)
        table = default_chromaticity(3)
        c = build_dimming_matrix(DimmingSpec(12, 6, 0.5, 0.4))
        s = rng.random((10_000, 6))
        before = average_chromaticity(np.ones_like(c), s.sum(axis=0), table)
        after = average_chromaticity(c, s.sum(axis=0), table)
        assert abs(before[0] - after[0]) < 1e-3
        assert abs(before[1] - after[1]) < 1e-3

    def test_table_validation(self):
        with pytest.raises(ValueError):
            ChromaticityTable(((0.8, 0.3),))

    def test_default_table_sizes(self):
        assert len(default_chromaticity(3)) == 3
        assert len(default_chromaticity(4)) == 4
        with pytest.raises(ValueError):
            default_chromaticity(5)

    def test_zero_power_rejected(self):
        with pytest.raises(dimming.DegenerateInputError):
            average_chromaticity(
                np.ones((2, 3)), np.zeros((4, 3)).sum(axis=0), default_chromaticity(3)
            )
