import dataclasses
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dstc import experiments, linalg
from dstc.channel import CHANNEL_MODELS, derive_seed
from dstc.csk import Constellation, default_constellation, modulate
from dstc.dimming import (
    ChromaticityTable,
    ConstraintViolationError,
    build_dimming_matrix,
    default_chromaticity,
)
from dstc.linalg import DegenerateInputError
from dstc.receivers import code_inverse, krf_detect
from dstc.experiments import (
    ALL_RECEIVERS,
    CSV_COLUMNS,
    CurvePoint,
    ExperimentConfig,
    IdentifiabilityError,
    SystemConfig,
    TrialOutcome,
    _aggregate,
    audit_power_color,
    check_scenario_identifiability,
    default_scenarios,
    flatten_curves,
    run_point,
    run_sweep,
    spectral_efficiency,
    write_curves_csv,
)

QLED12 = SystemConfig(k_t=4, l_t=2, k_r=4, l_r=2, n_states=12, block_len=50)

# Frozen reference rows for the efficiency table: (k_t, l_t, n_states, block_len)
# -> (eta_zf, eta_krf, gain_percent) at the printed precision.
REFERENCE_ROWS = (
    ((3, 2, 8, 10), (0.4651, 0.4938, 6.1)),
    ((3, 6, 20, 10), (0.5505, 0.5970, 8.4)),
    ((3, 10, 32, 10), (0.5714, 0.6231, 9.0)),
    ((4, 2, 12, 10), (0.3125, 0.3306, 5.8)),
    ((4, 2, 16, 10), (0.2381, 0.2484, 4.3)),
)


class TestSpectralEfficiency:
    @pytest.mark.parametrize("args,expected", REFERENCE_ROWS)
    def test_reference_rows(self, args, expected):
        se = spectral_efficiency(*args)
        assert round(se.zf, 4) == expected[0]
        assert round(se.krf, 4) == expected[1]
        # printed gains mix rounding and truncation, so allow 0.1 pp
        assert abs(se.gain_percent - expected[2]) <= 0.1

    @given(
        k_t=st.integers(1, 8),
        l_t=st.integers(1, 8),
        n_states=st.integers(1, 64),
        block_len=st.integers(1, 1000),
    )
    def test_matches_float_formulas(self, k_t, l_t, n_states, block_len):
        se = spectral_efficiency(k_t, l_t, n_states, block_len)
        zf = 2 * l_t * block_len / (block_len * n_states + k_t * l_t)
        krf = 2 * l_t * block_len / (block_len * n_states + 1)
        assert se.zf == pytest.approx(zf, rel=1e-12)
        assert se.krf == pytest.approx(krf, rel=1e-12)
        assert se.gain_percent == pytest.approx((krf / zf - 1) * 100, rel=1e-9)
        assert se.krf > se.zf or k_t * l_t == 1

    def test_gain_vanishes_for_long_blocks(self):
        se = spectral_efficiency(4, 2, 12, 10**6)
        assert se.gain_percent < 0.01

    @pytest.mark.parametrize("bad", [0, -1, 2.5])
    def test_rejects_nonpositive_counts(self, bad):
        with pytest.raises(ValueError):
            spectral_efficiency(bad, 2, 12, 10)


class TestConfigValidation:
    def test_block_len_must_divide_symbol_budget(self):
        with pytest.raises(ValueError, match="whole number of blocks"):
            ExperimentConfig(scenario=QLED12, snr_grid_db=(20.0,), n_symbols_total=7)

    @pytest.mark.parametrize("n_symbols_total", [0, -50])
    def test_symbol_budget_below_one_block_rejected(self, n_symbols_total):
        with pytest.raises(ValueError, match="at least one"):
            ExperimentConfig(
                scenario=QLED12, snr_grid_db=(20.0,), n_symbols_total=n_symbols_total
            )

    @pytest.mark.parametrize("snr_db", [math.nan, math.inf, -math.inf, 1e308, -1e308])
    @pytest.mark.parametrize("field", ["snr_grid_db", "alpha_sweep_snr_db"])
    def test_unusable_snr_rejected(self, field, snr_db):
        cfg = ExperimentConfig(scenario=QLED12, snr_grid_db=(20.0,), n_symbols_total=500)
        value = (20.0, snr_db) if field == "snr_grid_db" else snr_db
        with pytest.raises(ValueError, match="noiseless = true"):
            dataclasses.replace(cfg, **{field: value})

    def test_diagonal_model_needs_enough_receivers(self):
        short = dataclasses.replace(QLED12, k_r=3)
        with pytest.raises(ValueError, match="diagonal channel model needs n_rx >= n_tx"):
            ExperimentConfig(scenario=short, snr_grid_db=(20.0,), n_symbols_total=500,
                             channel_model="diagonal")
        ExperimentConfig(scenario=short, snr_grid_db=(20.0,), n_symbols_total=500)

    def test_trial_count_is_derived(self):
        cfg = ExperimentConfig(scenario=QLED12, snr_grid_db=(20.0,), n_symbols_total=500)
        assert cfg.n_trials == 10

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="snr_grid_db"):
            ExperimentConfig(scenario=QLED12, snr_grid_db=(), n_symbols_total=500)

    def test_unknown_receiver_rejected(self):
        with pytest.raises(ValueError, match="unknown receiver"):
            ExperimentConfig(
                scenario=QLED12, snr_grid_db=(20.0,), n_symbols_total=500, receivers=("MMSE",)
            )

    def test_unknown_channel_model_rejected(self):
        with pytest.raises(ValueError, match="channel model"):
            ExperimentConfig(
                scenario=QLED12, snr_grid_db=(20.0,), n_symbols_total=500, channel_model="rician"
            )

    def test_scenario_geometry(self):
        scen = default_scenarios()
        assert scen["qled2x2-k12"].n_tx == 8 and scen["qled2x2-k12"].n_rx == 8
        assert scen["qled2x2-k16"].n_states == 16
        assert scen["tled2x2-k12"].n_tx == 6


def one_trial(scenario, snr_db, seed, receivers=("ZF", "VLC-KRF"), channel_model="gaussian"):
    """The trial of ``seed``: a one-trial point, since ``derive_seed(seed, 0) == seed``."""
    out = run_point(scenario, snr_db, 1, seed, receivers, channel_model)
    return {r: trials[0] for r, trials in out.items()}


class TestRunTrial:
    def test_noiseless_trial_is_exact(self):
        out = one_trial(QLED12, math.inf, 5, receivers=("ZF", "VLC-KRF", "plain-CSK"))
        for r, o in out.items():
            assert o.bit_errors == 0 and not o.failed, r
            assert o.n_bits == 2 * 2 * (QLED12.block_len - 1)
            assert o.nmse < 1e-16
        assert out["ZF"].cond_effective == out["VLC-KRF"].cond_effective

    def test_same_seed_reproduces(self):
        a = one_trial(QLED12, 15.0, 9)
        b = one_trial(QLED12, 15.0, 9)
        assert a == b

    def test_receiver_failure_is_counted_not_raised(self, monkeypatch):
        def flagged(*args):
            result = krf_detect(*args)
            return dataclasses.replace(result, failed=np.ones_like(result.failed))

        monkeypatch.setattr("dstc.experiments.krf_detect", flagged)
        out = one_trial(QLED12, 20.0, 3, receivers=("ZF", "VLC-KRF"))
        assert out["VLC-KRF"].failed and out["VLC-KRF"].n_bits == 0
        assert not out["ZF"].failed and out["ZF"].n_bits > 0


class TestRunPoint:
    # run_point on qled2x2-k12 at 6 dB, 20 trials from seed 20260814, every
    # receiver enabled: (n_errors, n_bits, failures, mean nmse, mean cond).
    PINNED = {
        "ZF": (23, 7920, 0, 0.8639046244820776, 3.343136900295781),
        "VLC-KRF": (285, 7920, 0, 0.19726736372645995, 3.343136900295781),
        "plain-CSK": (2896, 7920, 0, 0.47565340876502055, 39.56863773157608),
    }

    @staticmethod
    def assert_pinned(out, pinned):
        assert set(out) == set(pinned)
        for r, (n_errors, n_bits, failures, nmse, cond) in pinned.items():
            ok = [t for t in out[r] if not t.failed]
            assert len(out[r]) == 20, r
            assert sum(t.bit_errors for t in ok) == n_errors, r
            assert sum(t.n_bits for t in ok) == n_bits, r
            assert len(out[r]) - len(ok) == failures, r
            assert np.mean([t.nmse for t in ok]) == pytest.approx(nmse, rel=1e-12, abs=0.0), r
            assert np.mean([t.cond_effective for t in ok]) == pytest.approx(
                cond, rel=1e-12, abs=0.0
            ), r

    def test_pinned_point_with_every_receiver(self):
        out = run_point(
            default_scenarios()["qled2x2-k12"], 6.0, 20, 20260814, ("ZF", "VLC-KRF", "plain-CSK")
        )
        self.assert_pinned(out, self.PINNED)

    # run_point on qled2x2-k12 with the diagonal channel at 12 dB, 20 trials from
    # seed 20260814: 11 of its 160 rank-one fits have too small an eigengap for
    # the Gram powers and fall back to eigh, so both routes of the fit run
    PINNED_DIAGONAL = {
        "ZF": (157, 7920, 0, 0.22682942540359075, 37.14605217326793),
        "VLC-KRF": (404, 7920, 0, 0.05342988413110664, 37.14605217326793),
    }

    def test_pinned_diagonal_point(self):
        out = run_point(
            default_scenarios()["qled2x2-k12"], 12.0, 20, 20260814, ("ZF", "VLC-KRF"), "diagonal"
        )
        self.assert_pinned(out, self.PINNED_DIAGONAL)

    def test_wide_point_takes_no_svd_per_trial(self, monkeypatch):
        # ZF solves and both receivers' conds go by n_tx x n_tx Gram matrices, so
        # the 960 x 30 effective channel of a trial is never decomposed
        calls = []
        svd = np.linalg.svd

        def counted(*args, **kwargs):
            calls.append(1)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        # pinv, cond and matrix_rank reach svd through numpy's private module
        monkeypatch.setattr(getattr(np.linalg, "_linalg", np.linalg), "svd", counted)
        wide = SystemConfig(k_t=3, l_t=10, k_r=3, l_r=10, n_states=32, block_len=100)
        per_point = []
        for n_trials in (1, 4):
            calls.clear()
            run_point(wide, 20.0, n_trials, 20260814, ("ZF", "VLC-KRF"))
            per_point.append(len(calls))
        assert per_point[0] == per_point[1] < 4, per_point

    def test_wide_point_takes_no_eigh_per_trial(self, monkeypatch):
        # on a Gaussian channel every rank-one fit converges by Gram powers, so
        # VLC-KRF never falls back to eigh (gram_cond's eigvalsh is another function)
        calls = []
        eigh = np.linalg.eigh

        def counted(*args, **kwargs):
            calls.append(1)
            return eigh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        wide = SystemConfig(k_t=3, l_t=10, k_r=3, l_r=10, n_states=32, block_len=100)
        for n_trials in (1, 4):
            run_point(wide, 20.0, n_trials, 20260814, ("ZF", "VLC-KRF"), "gaussian")
        assert calls == []


    # 18 + 18 LEDs, 20 states: 3 trials per chunk at the default budget, against
    # 13 on qled2x2-k12; 2**16 bytes leaves one trial per chunk on both
    WIDE18 = SystemConfig(k_t=3, l_t=6, k_r=3, l_r=6, n_states=20, block_len=100)

    @pytest.mark.parametrize("budget", [None, 2**16])
    @pytest.mark.parametrize("snr_db", [12.0, math.inf])
    @pytest.mark.parametrize("channel_model", CHANNEL_MODELS)
    @pytest.mark.parametrize(
        "scenario", [default_scenarios()["qled2x2-k12"], WIDE18], ids=["qled2x2-k12", "3-6-20"]
    )
    def test_outcomes_do_not_depend_on_chunking(
        self, monkeypatch, scenario, channel_model, snr_db, budget
    ):
        # 23 trials are not a multiple of any chunk size either budget gives
        if budget is not None:
            monkeypatch.setattr(experiments, "_CHUNK_BYTES", budget)
        out = run_point(scenario, snr_db, 23, 301, ALL_RECEIVERS, channel_model)
        for t in range(23):
            single = one_trial(scenario, snr_db, derive_seed(301, t), ALL_RECEIVERS, channel_model)
            assert {r: out[r][t] for r in ALL_RECEIVERS} == single, t


class TestChunkMemory:
    """A chunk's working set stays a small multiple of its stacked reception."""

    WIDE30 = SystemConfig(k_t=3, l_t=10, k_r=3, l_r=10, n_states=32, block_len=100)
    QLED_GRID = (12.0, 16.0, 20.0, 24.0, 28.0, 32.0, 36.0)

    # (scenario, SNR grid, trials per chunk at the default budget, bound on
    # peak / the chunk's reception); the 7-point chunk keeps one reception of
    # unit noise and adds each point's scaled noise one trial at a time
    @pytest.mark.skipif(
        sys.version_info < (3, 11),
        reason="before 3.11 a caller keeps its call's arguments alive until the call "
        "returns, so VLC-KRF cannot free the reception before its fit",
    )
    @pytest.mark.parametrize(
        "scenario,grid,n_trials,bound",
        [
            (default_scenarios()["qled2x2-k12"], (20.0,), 13, 2.1),
            (WIDE30, (20.0,), 1, 2.5),
            (default_scenarios()["qled2x2-k12"], QLED_GRID, 6, 3.5),
        ],
        ids=["qled2x2-k12", "3-10-32", "qled2x2-k12-7-points"],
    )
    def test_traced_peak_is_bounded_by_the_reception(self, scenario, grid, n_trials, bound):
        code = build_dimming_matrix(scenario.dimming_spec())
        points = [(code, code_inverse(code), snr_db) for snr_db in grid]
        assert experiments._chunk_trials(scenario, points) == n_trials
        args = (
            scenario,
            points,
            [derive_seed(5, t) for t in range(n_trials)],
            ALL_RECEIVERS,
            "gaussian",
            default_constellation(scenario.k_t),
        )
        experiments._run_chunk(*args)  # warm: numpy's one-off allocations are not the chunk's
        tracemalloc.start()
        try:
            experiments._run_chunk(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * n_trials * scenario.reception_bytes, peak

    def test_grid_too_wide_for_kept_noise_runs_point_by_point(self):
        code = build_dimming_matrix(self.WIDE30.dimming_spec())
        points = [(code, None, snr_db) for snr_db in (8.0, 20.0)]
        assert experiments._chunk_trials(self.WIDE30, points) == 0
        assert experiments._chunk_trials(self.WIDE30, points[:1]) == 1


class TestSweepEngine:
    """A sweep draws each trial once for its grid, and equals its points run alone."""

    QLED = default_scenarios()["qled2x2-k12"]  # 6 trials per chunk of several points

    @staticmethod
    def sweep_outcomes(monkeypatch, cfg, mode):
        """Per point, the trial outcomes that ``run_sweep`` aggregated."""
        returned = []
        run_grid = experiments._run_grid

        def recording(*args):
            returned.append(run_grid(*args))
            return returned[-1]

        with monkeypatch.context() as m:
            m.setattr(experiments, "_run_grid", recording)
            run_sweep(cfg, mode)
        return returned[-1]  # the outermost call returns last

    # 23 trials leave a partial last chunk at 6, 2 and 1 trials per chunk
    @pytest.mark.parametrize("budget", ["default", "one trial per chunk", "point by point"])
    @pytest.mark.parametrize(
        "mode,changes",
        [
            ("ber", dict(receivers=ALL_RECEIVERS)),
            ("alpha", dict(receivers=("ZF", "VLC-KRF"))),
            ("ber", dict(receivers=ALL_RECEIVERS, noiseless=True)),
            ("ber", dict(receivers=("plain-CSK",))),
            ("ber", dict(receivers=("ZF", "VLC-KRF"), channel_model="diagonal")),
        ],
        ids=["ber", "alpha", "noiseless", "plain-only", "diagonal"],
    )
    def test_sweep_equals_each_point_run_alone(self, monkeypatch, mode, changes, budget):
        cfg = ExperimentConfig(
            scenario=self.QLED,
            snr_grid_db=(4.0, 10.0, 16.0),
            alpha_grid=(0.2, 0.4),
            alpha_sweep_snr_db=8.0,
            n_symbols_total=23 * self.QLED.block_len,
            base_seed=41,
            **changes,
        )
        # "one trial per chunk" gives a chunk of several points one trial; a
        # grid at "point by point" holds none and runs one point at a time
        # (two trials per chunk)
        budgets = {"one trial per chunk": 2, "point by point": 1}
        if budget in budgets:
            monkeypatch.setattr(
                experiments, "_CHUNK_BYTES", budgets[budget] * self.QLED.reception_bytes
            )
        swept = self.sweep_outcomes(monkeypatch, cfg, mode)
        if mode == "ber":
            alone = [(cfg.scenario, snr_db) for snr_db in cfg.snr_grid_db]
        else:
            alone = [
                (dataclasses.replace(cfg.scenario, alpha=alpha), cfg.alpha_sweep_snr_db)
                for alpha in cfg.alpha_grid
            ]
        assert len(swept) == len(alone)
        for point, (scenario, snr_db) in zip(swept, alone):
            expected = run_point(
                scenario,
                math.inf if cfg.noiseless else snr_db,
                cfg.n_trials,
                cfg.base_seed,
                cfg.receivers,
                cfg.channel_model,
            )
            assert point == expected, snr_db

    def test_snr_checks_run_at_every_point(self):
        # the received power is ~1e-303: its 20 dB noise variance is normal,
        # its 60 dB one underflows in every trial
        dim = SystemConfig(
            k_t=4, l_t=2, k_r=4, l_r=2, n_states=12, block_len=25, p_m=1e-152, alpha=1e-152
        )
        cfg = ExperimentConfig(scenario=dim, snr_grid_db=(20.0, 60.0), n_symbols_total=250)
        run_point(dim, 20.0, cfg.n_trials, cfg.base_seed)
        with pytest.raises(DegenerateInputError, match="underflows at 60 dB"):
            run_sweep(cfg, "ber")


class TestArrayBudget:
    def test_reception_bytes(self):
        assert QLED12.reception_bytes == 8 * 12 * 8 * 50

    # links whose largest trial array is the one named, and its size in bytes
    @pytest.mark.parametrize(
        "scenario,what,n_bytes",
        [
            (QLED12, "stacked reception", 8 * 12 * 8 * 50),
            (dataclasses.replace(QLED12, block_len=2), "effective channel", 8 * 12 * 8 * 8),
            (dataclasses.replace(QLED12, k_r=1, l_r=1, n_states=2), "symbol block", 8 * 50 * 8),
        ],
    )
    def test_largest_trial_array_sets_the_limit(self, monkeypatch, scenario, what, n_bytes):
        monkeypatch.setattr(linalg, "MAX_ARRAY_BYTES", n_bytes)
        scenario.check_size()
        monkeypatch.setattr(linalg, "MAX_ARRAY_BYTES", n_bytes - 1)
        with pytest.raises(linalg.ArraySizeError, match=what):
            scenario.check_size()

    def test_runs_refuse_before_drawing(self, monkeypatch):
        monkeypatch.setattr(linalg, "MAX_ARRAY_BYTES", QLED12.reception_bytes - 1)
        monkeypatch.setattr(experiments, "_run_chunk", None)  # any trial would fail here
        cfg = ExperimentConfig(scenario=QLED12, snr_grid_db=(20.0,), n_symbols_total=500)
        for run in (
            lambda: run_point(QLED12, 20.0, 2, 1),
            lambda: run_sweep(cfg, "ber"),
            lambda: check_scenario_identifiability(cfg),
        ):
            with pytest.raises(linalg.ArraySizeError, match="stacked reception"):
                run()

    def test_code_and_audit_stream_are_checked(self, monkeypatch):
        monkeypatch.setattr(linalg, "MAX_ARRAY_BYTES", 8 * 12 * 8 - 1)
        with pytest.raises(linalg.ArraySizeError, match="12 x 8 dimming code"):
            build_dimming_matrix(QLED12.dimming_spec())
        # the audit's largest array is its bit draw, 2 * l_t bytes per row
        monkeypatch.setattr(linalg, "MAX_ARRAY_BYTES", 2 * 2 * 200)
        audit_power_color(QLED12, n_rows=200)
        with pytest.raises(linalg.ArraySizeError, match="audited bit draw"):
            audit_power_color(QLED12, n_rows=201)


class TestSweeps:
    def test_noiseless_sweep_has_zero_ber(self):
        cfg = ExperimentConfig(
            scenario=QLED12,
            snr_grid_db=(12.0, 24.0),
            n_symbols_total=500,
            receivers=("ZF", "VLC-KRF"),
            noiseless=True,
        )
        curves = run_sweep(cfg, "ber")
        for pts in curves.values():
            for p in pts:
                assert p.ber == 0.0 and p.n_errors == 0 and p.failures == 0

    def test_sweep_is_reproducible(self):
        cfg = ExperimentConfig(
            scenario=QLED12, snr_grid_db=(14.0,), n_symbols_total=500, base_seed=11
        )
        assert run_sweep(cfg, "ber") == run_sweep(cfg, "ber")

    def test_channels_are_paired_across_points(self):
        # same trial seeds at every sweep point: identical channel draws,
        # hence identical mean effective conditioning
        cfg = ExperimentConfig(
            scenario=QLED12, snr_grid_db=(10.0, 30.0), n_symbols_total=500, base_seed=2
        )
        curves = run_sweep(cfg, "ber")
        assert curves["ZF"][0].cond == curves["ZF"][1].cond

    def test_ber_nonincreasing_in_snr(self):
        cfg = ExperimentConfig(
            scenario=QLED12,
            snr_grid_db=(0.0, 4.0, 8.0, 12.0),
            n_symbols_total=5_000,
            base_seed=13,
            receivers=("ZF", "VLC-KRF"),
        )
        curves = run_sweep(cfg, "ber")
        for r, pts in curves.items():
            bers = [p.ber for p in pts]
            inversions = sum(1 for a, b in zip(bers, bers[1:]) if b > a)
            assert inversions <= 1, (r, bers)

    def test_unidentifiable_scenario_is_rejected(self):
        # single photodiode and a two-slot block: k-rank sum cannot reach 2R+2
        starved = SystemConfig(k_t=4, l_t=2, k_r=1, l_r=1, n_states=12, block_len=2)
        cfg = ExperimentConfig(scenario=starved, snr_grid_db=(20.0,), n_symbols_total=10)
        assert not check_scenario_identifiability(cfg).unique
        with pytest.raises(IdentifiabilityError):
            run_sweep(cfg, "ber")
        with pytest.raises(IdentifiabilityError):
            run_sweep(cfg, "alpha")

    def test_plain_only_sweep_skips_identifiability(self):
        starved = SystemConfig(k_t=4, l_t=2, k_r=4, l_r=2, n_states=12, block_len=2)
        cfg = ExperimentConfig(
            scenario=starved,
            snr_grid_db=(20.0,),
            n_symbols_total=10,
            receivers=("plain-CSK",),
        )
        curves = run_sweep(cfg, "ber")
        assert curves["plain-CSK"][0].n_trials == 5

    def test_alpha_zero_rejected_before_running(self):
        cfg = ExperimentConfig(
            scenario=QLED12, snr_grid_db=(20.0,), alpha_grid=(0.0, 0.4), n_symbols_total=500
        )
        with pytest.raises(ConstraintViolationError):
            run_sweep(cfg, "alpha")

    def test_infeasible_code_rejected_before_any_trial_in_ber_mode(self, monkeypatch):
        def no_trials(*args, **kwargs):
            raise AssertionError("a trial ran before the feasibility check")

        monkeypatch.setattr("dstc.experiments._run_chunk", no_trials)
        cfg = ExperimentConfig(
            scenario=dataclasses.replace(QLED12, alpha=0.7),
            snr_grid_db=(20.0,),
            n_symbols_total=500,
            receivers=("plain-CSK",),
        )
        with pytest.raises(ConstraintViolationError):
            run_sweep(cfg, "ber")

    def test_unknown_mode_rejected(self):
        cfg = ExperimentConfig(scenario=QLED12, snr_grid_db=(20.0,), n_symbols_total=500)
        with pytest.raises(ValueError, match="sweep mode"):
            run_sweep(cfg, "snr")

    def test_alpha_sweep_spans_full_depth(self):
        cfg = ExperimentConfig(
            scenario=QLED12,
            snr_grid_db=(20.0,),
            alpha_grid=(0.1, 0.5),
            n_symbols_total=500,
            receivers=("ZF", "VLC-KRF"),
        )
        curves = run_sweep(cfg, "alpha")
        for pts in curves.values():
            assert [p.x for p in pts] == [0.1, 0.5]
            assert all(p.failures == 0 for p in pts)
        # wider power swing conditions the effective channel better
        assert curves["ZF"][0].cond > curves["ZF"][1].cond


class TestAggregation:
    def test_failed_trials_carry_no_bits(self):
        outcomes = [
            TrialOutcome(bit_errors=3, n_bits=100, nmse=0.5, cond_effective=2.0),
            TrialOutcome(bit_errors=0, n_bits=0, nmse=math.nan, cond_effective=9.0, failed=True),
            TrialOutcome(bit_errors=1, n_bits=100, nmse=0.3, cond_effective=4.0),
        ]
        p = _aggregate(20.0, "ZF", outcomes)
        assert p.n_bits == 200 and p.n_errors == 4
        assert p.ber == pytest.approx(0.02)
        assert p.nmse == pytest.approx(0.4)
        assert p.cond == pytest.approx(3.0)
        assert p.n_trials == 3 and p.failures == 1

    def test_all_failed_point(self):
        outcomes = [
            TrialOutcome(0, 0, math.nan, math.nan, failed=True) for _ in range(3)
        ]
        p = _aggregate(20.0, "ZF", outcomes)
        assert p.ber == 0.0 and p.n_bits == 0 and p.failures == 3


class TestCsvOutput:
    def _small_curves(self):
        cfg = ExperimentConfig(
            scenario=QLED12,
            snr_grid_db=(10.0, 20.0),
            n_symbols_total=250,
            base_seed=4,
            receivers=("ZF", "VLC-KRF"),
        )
        return run_sweep(cfg, "ber")

    def test_header_and_rows(self, tmp_path):
        curves = self._small_curves()
        out = write_curves_csv(curves, tmp_path / "curves.csv")
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + 2 * 2
        first = lines[1].split(",")
        assert first[0] == "10" and first[1] == "ZF"
        assert int(first[5]) > 0

    def test_flatten_orders_by_point_then_receiver(self):
        curves = self._small_curves()
        rows = flatten_curves(curves)
        assert [(r.x, r.receiver) for r in rows] == [
            (10.0, "ZF"),
            (10.0, "VLC-KRF"),
            (20.0, "ZF"),
            (20.0, "VLC-KRF"),
        ]

    def test_bytes_identical_across_runs(self, tmp_path):
        a = write_curves_csv(self._small_curves(), tmp_path / "a.csv")
        b = write_curves_csv(self._small_curves(), tmp_path / "b.csv")
        assert a.read_bytes() == b.read_bytes()


class TestPowerColorAudit:
    def test_power_and_chromaticity_hold(self):
        scen = SystemConfig(k_t=3, l_t=2, k_r=3, l_r=2, n_states=12, block_len=100)
        audit = audit_power_color(scen, n_rows=10_000, seed=1)
        assert audit.power_target == 0.5
        assert abs(audit.relative_power - 0.5) < 1e-2
        assert audit.chroma_shift[0] < 1e-3 and audit.chroma_shift[1] < 1e-3

    def test_constant_dimming_is_exact(self):
        scen = dataclasses.replace(default_scenarios()["tled2x2-k12"], alpha=0.0)
        audit = audit_power_color(scen, n_rows=500, seed=2)
        assert audit.relative_power == pytest.approx(0.5, abs=1e-15)
        assert audit.chroma_shift == pytest.approx((0.0, 0.0), abs=1e-15)

    @staticmethod
    def stream_audit(scenario, n_rows, seed, table, constellation):
        """Power and chromaticities summed over the modulated stream, the audit's reference."""
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, size=2 * scenario.l_t * n_rows, dtype=np.uint8)
        symbols = modulate(bits, n_rows, scenario.l_t, constellation)
        if scenario.alpha == 0.0:
            code = np.full((scenario.n_states, scenario.n_tx), scenario.p_m)
        else:
            code = build_dimming_matrix(scenario.dimming_spec())

        def chromaticity(c):
            per_led = c.sum(axis=0) * symbols.sum(axis=0)
            per_channel = np.array([per_led[ch::len(table)].sum() for ch in range(len(table))])
            return tuple(per_channel / per_channel.sum() @ np.array(table.coords))

        power = np.mean(code.mean(axis=0) * symbols.mean(axis=0)) / symbols.mean()
        return power, chromaticity(np.ones_like(code)), chromaticity(code)

    @settings(max_examples=60, deadline=None)
    @given(
        k_t=st.sampled_from([3, 4, 5]),
        l_t=st.integers(1, 10),
        n_rows=st.sampled_from([1, 2, 7, 100, 1001, 4096]),
        seed=st.integers(0, 2**32 - 1),
        alpha=st.sampled_from([0.0, 0.4]),
    )
    def test_label_counts_match_the_stream(self, k_t, l_t, n_rows, seed, alpha):
        n_states = 1 << (k_t * l_t).bit_length()  # a Sylvester order above n_tx
        scen = SystemConfig(k_t, l_t, 1, 1, n_states, 2, alpha=alpha)
        if k_t == 5:  # no default: a [constellation] and [chromaticity] of its own
            constellation = Constellation(np.random.default_rng(seed).random((4, 5)))
            table = ChromaticityTable(((0.7, 0.29), (0.3, 0.6), (0.15, 0.06), (0.4, 0.5),
                                       (0.33, 0.33)))
        else:
            constellation, table = default_constellation(k_t), default_chromaticity(k_t)
        audit = audit_power_color(scen, n_rows, seed, table, constellation)
        power, before, after = self.stream_audit(scen, n_rows, seed, table, constellation)
        assert audit.relative_power == pytest.approx(power, rel=1e-12, abs=0.0)
        assert audit.chroma_before == pytest.approx(before, rel=1e-12, abs=0.0)
        assert audit.chroma_after == pytest.approx(after, rel=1e-12, abs=0.0)


class TestCurvePointInvariants:
    def test_ber_is_exact_ratio(self):
        cfg = ExperimentConfig(
            scenario=QLED12, snr_grid_db=(6.0,), n_symbols_total=2_500, base_seed=21
        )
        curves = run_sweep(cfg, "ber")
        for pts in curves.values():
            p = pts[0]
            assert p.ber == p.n_errors / p.n_bits
            assert isinstance(p.n_errors, int) and isinstance(p.n_bits, int)
