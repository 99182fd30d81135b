import dataclasses
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dstc import dimming, experiments, linalg, receivers
from dstc.channel import CHANNEL_MODELS, derive_seed
from dstc.configio import load_config
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
    run_sweeps,
    spectral_efficiency,
    write_curves_csv,
)

QLED12 = SystemConfig(k_t=4, l_t=2, k_r=4, l_r=2, n_states=12, block_len=50)
# the 18- and 30-LED rows of Table 2
WIDE18 = SystemConfig(k_t=3, l_t=6, k_r=3, l_r=6, n_states=20, block_len=100)
WIDE30 = SystemConfig(k_t=3, l_t=10, k_r=3, l_r=10, n_states=32, block_len=100)

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

    def test_failed_outcomes_compare_equal(self, monkeypatch):
        # a failed outcome's nmse is the math.nan object, so that outcomes, and
        # two identical runs' results, compare == (nan == nan is False)
        def flagged(*args):
            result = krf_detect(*args)
            return dataclasses.replace(result, failed=np.ones_like(result.failed))

        monkeypatch.setattr("dstc.experiments.krf_detect", flagged)
        a, b = (run_point(QLED12, 20.0, 3, 3) for _ in range(2))
        assert a == b
        assert a["VLC-KRF"] == [
            TrialOutcome(0, 0, math.nan, zf.cond_effective, failed=True) for zf in a["ZF"]
        ]


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
        per_point = []
        for n_trials in (1, 4):
            calls.clear()
            monkeypatch.setattr(dimming, "_codes", {})  # each point builds its code
            run_point(WIDE30, 20.0, n_trials, 20260814, ("ZF", "VLC-KRF"))
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
        for n_trials in (1, 4):
            run_point(WIDE30, 20.0, n_trials, 20260814, ("ZF", "VLC-KRF"), "gaussian")
        assert calls == []

    # 18 + 18 LEDs, 20 states: 3 trials per chunk at the default budget, against
    # 13 on qled2x2-k12; 2**16 bytes leaves one trial per chunk on both
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

    QLED = default_scenarios()["qled2x2-k12"]
    GRID = (12.0, 16.0, 20.0, 24.0, 28.0, 32.0, 36.0)
    ALPHAS = (0.1, 0.2, 0.3, 0.4, 0.5)

    # (scenario, SNR grid or dimming depths at 20 dB, trials per chunk at the
    # default budget, bound on peak / the chunk's reception).  A one-point
    # chunk is formed and holds two reception-sized arrays (traced peaks 2.05
    # and 2.42 times the reception), and a chunk of several points is routed
    # and holds up to four: it keeps the code's draws only as their
    # depth-free rows, the rows' terms and the pilot's products, and plain
    # CSK's one-state draws as drawn, and scores its points in groups (3.02
    # on QLED, 3.20 at three 18-LED trials and 3.82 at one 30-LED trial on
    # the 7-point grids), and an alpha grid, one code per depth, holds ZF's
    # groups of depths next to them (3.21 on QLED, 3.82 at one 30-LED trial)
    @pytest.mark.skipif(
        sys.version_info < (3, 11),
        reason="before 3.11 a caller keeps its call's arguments alive until the call "
        "returns, so VLC-KRF cannot free the reception before its fit",
    )
    @pytest.mark.parametrize(
        "scenario,grid,n_trials,bound",
        [
            (QLED, (20.0,), 13, 2.1),
            (WIDE30, (20.0,), 1, 2.5),
            (QLED, GRID, 13, 3.5),
            (QLED, ALPHAS, 13, 3.5),
            (WIDE18, GRID, 3, 4.0),
            (WIDE30, GRID, 1, 4.0),
            (WIDE30, ALPHAS, 1, 4.0),
        ],
        ids=[
            "qled2x2-k12",
            "3-10-32",
            "qled2x2-k12-7-points",
            "qled2x2-k12-alpha-5-points",
            "3-6-20-7-points",
            "3-10-32-7-points",
            "3-10-32-alpha-5-points",
        ],
    )
    def test_traced_peak_is_bounded_by_the_reception(self, scenario, grid, n_trials, bound):
        if grid is self.ALPHAS:  # one code per dimming depth, at 20 dB
            codes = [
                build_dimming_matrix(dataclasses.replace(scenario, alpha=a).dimming_spec())
                for a in grid
            ]
            points = [(code, code_inverse(code), 20.0) for code in codes]
        else:
            code = build_dimming_matrix(scenario.dimming_spec())
            points = [(code, code_inverse(code), snr_db) for snr_db in grid]
        assert experiments._chunk_trials(scenario) == n_trials
        # one chunk: the grid's trials per chunk, from base seed 5
        args = (
            scenario, points, n_trials, 5, ALL_RECEIVERS, "gaussian",
            default_constellation(scenario.k_t),
        )
        experiments._run_grid(*args)  # warm: numpy's one-off allocations are not the chunk's
        tracemalloc.start()
        try:
            experiments._run_grid(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * n_trials * scenario.reception_bytes, peak


def assert_grid_equals_points(grid, alone, krf_nmse_rtol=0.0):
    """``_run_grid``'s arrays equal, point by point, the ``run_point`` outcomes of ``alone``.

    Each receiver's ``(failed, errors, nmse, cond)`` over ``(points, trials)``
    must equal its outcomes' fields exactly, NaN equal to NaN, but for
    VLC-KRF's nmse, which may differ by ``krf_nmse_rtol``.
    """
    assert all(grid.keys() == point.keys() for point in alone)
    fields = ("failed", "bit_errors", "nmse", "cond_effective")
    for r, arrays in grid.items():
        for field, got in zip(fields, arrays, strict=True):
            want = np.array([[getattr(o, field) for o in point[r]] for point in alone])
            if r == "VLC-KRF" and field == "nmse" and krf_nmse_rtol:
                assert got.shape == want.shape, r
                np.testing.assert_allclose(
                    got, want, rtol=krf_nmse_rtol, atol=0.0, equal_nan=True, err_msg=r
                )
            else:
                np.testing.assert_array_equal(got, want, err_msg=f"{r} {field}", strict=True)


# The tolerance on VLC-KRF's nmse where a grid takes the route: its fit
# comes from the residual's Gram matrix, formed from the clean and noise
# parts apart, so it differs from the point run alone by rounding.
ROUTE_KRF_NMSE_RTOL = 1e-12


class TestSweepEngine:
    """A sweep draws each trial once for its grid, and equals its points run alone."""

    QLED = default_scenarios()["qled2x2-k12"]  # 13 trials per chunk

    @staticmethod
    def sweep_scores(monkeypatch, cfg, modes):
        """Per receiver, the ``(points, trials)`` arrays of ``run_sweeps``'s ``modes`` grid."""
        returned = []
        run_grid = experiments._run_grid

        def recording(*args):
            returned.append(run_grid(*args))
            return returned[-1]

        with monkeypatch.context() as m:
            m.setattr(experiments, "_run_grid", recording)
            run_sweeps(cfg, modes)
        assert len(returned) == 1  # the run's one grid
        return returned[0]

    @staticmethod
    def distinct_points(cfg, modes):
        """``(snr_db, alpha)`` of each distinct point of the ``modes`` sweeps, in listed order."""
        points = []
        if "ber" in modes:
            points += [(snr_db, cfg.scenario.alpha) for snr_db in cfg.snr_grid_db]
        if "alpha" in modes:
            points += [(cfg.alpha_sweep_snr_db, alpha) for alpha in cfg.alpha_grid]
        return list(dict.fromkeys(points))

    # 23 trials leave a partial last chunk at 13 trials per chunk
    @pytest.mark.parametrize("budget", ["default", "one trial per chunk"])
    @pytest.mark.parametrize(
        "mode,changes",
        [
            ("ber", dict(receivers=ALL_RECEIVERS)),
            ("alpha", dict(receivers=("ZF", "VLC-KRF"))),
            ("ber", dict(receivers=ALL_RECEIVERS, noiseless=True)),
            ("ber", dict(receivers=("plain-CSK",))),
            ("ber", dict(receivers=("ZF", "VLC-KRF"), channel_model="diagonal")),
            ("ber", dict(receivers=ALL_RECEIVERS, snr_grid_db=(-5.0, 0.0, 4.0))),
            ("ber", dict(receivers=("ZF",))),
            ("ber", dict(receivers=("VLC-KRF",))),
            ("alpha", dict(receivers=ALL_RECEIVERS, noiseless=True)),
            ("alpha", dict(receivers=("ZF", "VLC-KRF"), channel_model="diagonal")),
            ("alpha", dict(receivers=ALL_RECEIVERS, alpha_sweep_snr_db=-5.0)),
            ("alpha", dict(receivers=("plain-CSK",))),
            # one grid for both sweeps, which share their point at 10 dB and depth 0.4
            ("both", dict(receivers=ALL_RECEIVERS, alpha_sweep_snr_db=10.0)),
            ("both", dict(receivers=("ZF", "VLC-KRF"), channel_model="diagonal")),
            ("both", dict(receivers=ALL_RECEIVERS, noiseless=True)),
        ],
        ids=["ber", "alpha", "noiseless", "plain-only", "diagonal", "low-snr", "zf-only",
             "krf-only", "alpha-noiseless", "alpha-diagonal", "alpha-low-snr", "alpha-plain-only",
             "both", "both-diagonal", "both-noiseless"],
    )
    def test_sweep_equals_each_point_run_alone(self, monkeypatch, mode, changes, budget):
        cfg = ExperimentConfig(
            **{
                "scenario": self.QLED,
                "snr_grid_db": (4.0, 10.0, 16.0),
                "alpha_grid": (0.2, 0.4),
                "alpha_sweep_snr_db": 8.0,
                "n_symbols_total": 23 * self.QLED.block_len,
                "base_seed": 41,
                **changes,
            }
        )
        # "one trial per chunk" gives every chunk one trial
        if budget == "one trial per chunk":
            monkeypatch.setattr(experiments, "_CHUNK_BYTES", self.QLED.reception_bytes)
        modes = ("ber", "alpha") if mode == "both" else (mode,)
        swept = self.sweep_scores(monkeypatch, cfg, modes)
        alone = [
            (dataclasses.replace(cfg.scenario, alpha=alpha), snr_db)
            for snr_db, alpha in self.distinct_points(cfg, modes)
        ]
        # a noisy grid of several points takes the route; a point run alone is formed
        routed = not cfg.noiseless
        expected = [
            run_point(
                scenario,
                math.inf if cfg.noiseless else snr_db,
                cfg.n_trials,
                cfg.base_seed,
                cfg.receivers,
                cfg.channel_model,
            )
            for scenario, snr_db in alone
        ]
        assert_grid_equals_points(swept, expected, ROUTE_KRF_NMSE_RTOL if routed else 0.0)

    @pytest.mark.parametrize("noiseless", [False, True])
    def test_both_sweeps_make_one_grid_that_draws_each_trial_once(self, monkeypatch, noiseless):
        cfg = ExperimentConfig(
            scenario=self.QLED,
            snr_grid_db=(4.0, 8.0, 16.0),
            alpha_grid=(0.2, 0.4),
            alpha_sweep_snr_db=8.0,
            n_symbols_total=23 * self.QLED.block_len,
            receivers=("ZF", "VLC-KRF"),
            noiseless=noiseless,
        )
        grids, seeds = [], []
        run_grid, draw_chunk = experiments._run_grid, experiments._draw_chunk

        def recording(scenario, points, *args):
            grids.append([(snr_db, code.tobytes()) for code, _, snr_db in points])
            return run_grid(scenario, points, *args)

        def drawing(scenario, trial_seeds, *args):
            seeds.extend(trial_seeds)
            return draw_chunk(scenario, trial_seeds, *args)

        monkeypatch.setattr(experiments, "_run_grid", recording)
        monkeypatch.setattr(experiments, "_draw_chunk", drawing)
        run_sweeps(cfg, ("ber", "alpha"))
        # (8 dB, 0.4) is both sweeps' point; a noiseless grid keeps each listed SNR
        codes = {
            alpha: build_dimming_matrix(dataclasses.replace(self.QLED, alpha=alpha).dimming_spec())
            for alpha in cfg.alpha_grid
        }
        expected = [
            (math.inf if noiseless else snr_db, codes[alpha].tobytes())
            for snr_db, alpha in [(4.0, 0.4), (8.0, 0.4), (16.0, 0.4), (8.0, 0.2)]
        ]
        assert grids == [expected]
        # trial 0 once for the identifiability check, then each trial once
        trials = [derive_seed(cfg.base_seed, t) for t in range(cfg.n_trials)]
        assert seeds == trials[:1] + trials

    def test_repeated_grid_values_give_equal_points(self):
        cfg = ExperimentConfig(
            scenario=self.QLED,
            snr_grid_db=(10.0, 20.0),
            alpha_grid=(0.2, 0.4),
            alpha_sweep_snr_db=20.0,
            n_symbols_total=10 * self.QLED.block_len,
            receivers=ALL_RECEIVERS,
        )
        once = run_sweeps(cfg, ("ber", "alpha"))
        repeated = dataclasses.replace(
            cfg, snr_grid_db=(10.0, 20.0, 10.0), alpha_grid=(0.2, 0.4, 0.2)
        )
        curves = run_sweeps(repeated, ("ber", "alpha"))
        for r in cfg.receivers:
            assert curves["ber"][r] == [*once["ber"][r], once["ber"][r][0]]
            assert curves["alpha"][r] == [*once["alpha"][r], once["alpha"][r][0]]

    # a noisy alpha grid takes the route, whose trials draw their unit noise
    # once for every depth: one draw per trial for each target, the reception
    # of each link and the pilot estimate of ZF and of plain CSK
    @pytest.mark.parametrize(
        "receivers,noiseless,n_targets",
        [
            (ALL_RECEIVERS, False, 4),
            (("ZF", "VLC-KRF"), False, 2),
            (("VLC-KRF",), False, 1),
            (ALL_RECEIVERS, True, 0),
        ],
        ids=["all", "zf-krf", "krf-only", "noiseless"],
    )
    def test_alpha_grid_draws_each_trial_once(self, monkeypatch, receivers, noiseless, n_targets):
        cfg = ExperimentConfig(
            scenario=self.QLED,
            snr_grid_db=(8.0,),
            alpha_grid=(0.2, 0.3, 0.4),
            alpha_sweep_snr_db=8.0,
            n_symbols_total=23 * self.QLED.block_len,
            receivers=receivers,
            noiseless=noiseless,
        )
        calls = []
        draw = experiments.draw_unit_noise
        monkeypatch.setattr(
            experiments, "draw_unit_noise", lambda *args: calls.append(1) or draw(*args)
        )
        run_sweeps(cfg, ("alpha",))
        assert len(calls) == 23 * n_targets

    # VLC-KRF detects an alpha grid's depths in ZF's groups: on the QLED link a
    # group holds three points, so the 5-depth grid takes two krf_detect_grid
    # calls per 13-trial chunk (one per depth before), and no depth forms a
    # residual of its code's inverse
    def test_alpha_grid_detects_krf_once_per_group(self, monkeypatch):
        class Unmixed(np.ndarray):
            """A code inverse that no draw may be multiplied by."""

            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                assert ufunc is not np.matmul, "a residual was formed"
                inputs = [x.view(np.ndarray) if isinstance(x, Unmixed) else x for x in inputs]
                return getattr(ufunc, method)(*inputs, **kwargs)

        codes = [
            build_dimming_matrix(dataclasses.replace(self.QLED, alpha=a).dimming_spec())
            for a in (0.1, 0.2, 0.3, 0.4, 0.5)
        ]
        points = [(code, code_inverse(code).view(Unmixed), 20.0) for code in codes]
        calls, formed = [], []
        real = experiments.krf_detect_grid
        monkeypatch.setattr(experiments, "krf_detect_grid",
                            lambda *args: calls.append(len(args[3])) or real(*args))
        monkeypatch.setattr(experiments, "krf_detect", lambda *args: formed.append(1))
        assert experiments._chunk_trials(self.QLED) == 13
        experiments._run_grid(
            self.QLED, points, 26, 20260814, ("ZF", "VLC-KRF"), "gaussian",
            default_constellation(self.QLED.k_t),
        )
        assert calls == [3, 2, 3, 2] and formed == []

    def test_wide_grid_equals_each_point_run_alone(self):
        # the 30-LED row of Table 2 over 0-12 dB: one trial per routed chunk
        grid = (0.0, 4.0, 8.0, 12.0)
        code = build_dimming_matrix(WIDE30.dimming_spec())
        points = [(code, code_inverse(code), snr_db) for snr_db in grid]
        assert experiments._chunk_trials(WIDE30) == 1
        constellation = default_constellation(WIDE30.k_t)
        routed = experiments._run_grid(
            WIDE30, points, 3, 20260814, ALL_RECEIVERS, "gaussian", constellation
        )
        alone = [run_point(WIDE30, snr_db, 3, 20260814, ALL_RECEIVERS) for snr_db in grid]
        assert_grid_equals_points(routed, alone, ROUTE_KRF_NMSE_RTOL)

    def test_snr_checks_run_at_every_point(self):
        # the received power is ~1e-303: its 20 dB noise variance is normal,
        # its 60 dB one underflows in every trial
        dim = SystemConfig(
            k_t=4, l_t=2, k_r=4, l_r=2, n_states=12, block_len=25, p_m=1e-152, alpha=1e-152
        )
        cfg = ExperimentConfig(scenario=dim, snr_grid_db=(20.0, 60.0), n_symbols_total=250)
        run_point(dim, 20.0, cfg.n_trials, cfg.base_seed)
        with pytest.raises(DegenerateInputError, match="underflows at 60 dB"):
            run_sweeps(cfg, ("ber",))


class TestRouteFallbacks:
    """A block that the route's bounds leave open is formed as its point run alone forms it."""

    QLED = default_scenarios()["qled2x2-k12"]

    def run(self, monkeypatch, grid, n_trials, seed, receivers, detector):
        """The routed grid's arrays, checked against its points run alone, and how many
        ``detector`` calls formed its open blocks."""
        code = build_dimming_matrix(self.QLED.dimming_spec())
        points = [(code, code_inverse(code), snr_db) for snr_db in grid]
        formed = []
        real = getattr(experiments, detector)
        with monkeypatch.context() as m:
            m.setattr(experiments, detector, lambda *args: formed.append(1) or real(*args))
            routed = experiments._run_grid(
                self.QLED, points, n_trials, seed, receivers, "gaussian",
                default_constellation(self.QLED.k_t),
            )
        alone = [run_point(self.QLED, snr_db, n_trials, seed, receivers) for snr_db in grid]
        assert_grid_equals_points(routed, alone, ROUTE_KRF_NMSE_RTOL)
        return routed, len(formed)

    def test_ill_conditioned_plain_estimates(self, monkeypatch):
        # the draws of the bundled qled2x2 config (VLC-KRF draws nothing of its
        # own): one of its first 30 trials has a plain-CSK pilot estimate over
        # NORMAL_EQUATIONS_MAX_COND, which takes the pseudoinverse of its
        # formed reception
        grid = (12.0, 16.0, 20.0, 24.0, 28.0, 32.0, 36.0)
        _, formed = self.run(monkeypatch, grid, 30, 20260814, ("ZF", "plain-CSK"), "zf_detect")
        assert formed > 0

    # ZF's bounds on max|Y| are tight where the noise is small next to the
    # reception, so its grid runs at high SNR
    @pytest.mark.parametrize(
        "receiver,detector,zero_rtol,grid",
        [
            ("ZF", "zf_detect", 0.7, (30.0, 40.0, 50.0)),
            ("VLC-KRF", "krf_detect", 0.1, (4.0, 10.0, 16.0)),
        ],
    )
    def test_failures_take_the_verdict_of_the_point_alone(
        self, monkeypatch, receiver, detector, zero_rtol, grid
    ):
        # a raised ZERO_RTOL fails some blocks of each point and clears others,
        # and a wide GRID_RTOL leaves the blocks near the test to be formed
        monkeypatch.setattr(receivers, "ZERO_RTOL", zero_rtol)
        monkeypatch.setattr(receivers, "GRID_RTOL", 0.01)
        routed, formed = self.run(monkeypatch, grid, 12, 41, (receiver,), detector)
        failed = routed[receiver][0]
        assert 0 < failed.sum() < failed.size
        assert 0 < formed < failed.size


    # the bundled qled2x2 BER sweep leaves none of ZF's blocks open, and the
    # route forms plain CSK's at every point from the draws it keeps: each of
    # its 7 x 100 blocks reaches zf_detect once, no ZF block does, and no
    # trial is drawn again
    @pytest.mark.parametrize("seed", [None, 7], ids=["config-seed", "seed-7"])
    def test_formed_detectors_see_only_open_blocks(self, monkeypatch, seed):
        cfg = load_config("configs/qled2x2.cfg").experiment
        if seed is not None:
            cfg = dataclasses.replace(cfg, base_seed=seed)
        assert (len(cfg.snr_grid_db), cfg.n_trials) == (7, 100)
        seen = {"ZF": 0, "plain-CSK": 0}
        real = experiments.zf_detect

        def counted(stacked, effective, code):  # blocks, whatever their leading axes
            seen["plain-CSK" if len(code) == 1 else "ZF"] += stacked[..., 0, 0].size
            return real(stacked, effective, code)

        drawn, draw = [], experiments._draw_chunk

        def counted_draws(scenario, seeds, *args):
            drawn.append(len(seeds))
            return draw(scenario, seeds, *args)

        monkeypatch.setattr(experiments, "zf_detect", counted)
        monkeypatch.setattr(experiments, "_draw_chunk", counted_draws)
        run_sweeps(cfg, ("ber",))
        assert seen == {"ZF": 0, "plain-CSK": 7 * 100}
        assert sum(drawn) == cfg.n_trials + 1  # and the precheck's trial 0


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
        monkeypatch.setattr(experiments, "_draw_chunk", None)  # any trial would fail here
        cfg = ExperimentConfig(scenario=QLED12, snr_grid_db=(20.0,), n_symbols_total=500)
        for run in (
            lambda: run_point(QLED12, 20.0, 2, 1),
            lambda: run_sweeps(cfg, ("ber",)),
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
    def test_one_call_equals_each_mode_alone(self, monkeypatch):
        cfg = ExperimentConfig(
            scenario=default_scenarios()["qled2x2-k12"],
            snr_grid_db=(10.0, 20.0),
            n_symbols_total=500,
            receivers=ALL_RECEIVERS,
            base_seed=11,
        )
        alone = {mode: run_sweeps(cfg, (mode,))[mode] for mode in ("ber", "alpha")}
        depths = []
        build = experiments.build_dimming_matrix
        monkeypatch.setattr(
            experiments,
            "build_dimming_matrix",
            lambda spec: depths.append(spec.alpha) or build(spec),
        )
        assert run_sweeps(cfg, ("ber", "alpha")) == alone
        # each depth's code once, then the identifiability check's
        assert depths == [0.4, 0.1, 0.2, 0.3, 0.5, 0.4]

    def test_alpha_point_at_the_scenario_depth_equals_the_ber_point(self):
        # both grids take the route: the alpha grid mixes each depth's
        # products from the same draws, so its point at the scenario's own
        # depth is the BER grid's point at the alpha sweep's SNR
        cfg = ExperimentConfig(
            scenario=default_scenarios()["qled2x2-k12"],
            snr_grid_db=(8.0, 14.0),
            alpha_sweep_snr_db=8.0,
            n_symbols_total=2000,
            receivers=ALL_RECEIVERS,
            base_seed=11,
        )
        curves = run_sweeps(cfg, ("ber", "alpha"))
        depth = cfg.alpha_grid.index(cfg.scenario.alpha)
        snr = cfg.snr_grid_db.index(cfg.alpha_sweep_snr_db)
        for r in cfg.receivers:
            ber, alpha = curves["ber"][r][snr], curves["alpha"][r][depth]
            assert ber.n_errors > 0, r
            assert dataclasses.replace(alpha, x=ber.x, nmse=ber.nmse) == ber, r
            rtol = ROUTE_KRF_NMSE_RTOL if r == "VLC-KRF" else 0.0
            assert alpha.nmse == pytest.approx(ber.nmse, rel=rtol, abs=0.0), r

    def test_noiseless_sweep_has_zero_ber(self):
        cfg = ExperimentConfig(
            scenario=QLED12,
            snr_grid_db=(12.0, 24.0),
            n_symbols_total=500,
            receivers=("ZF", "VLC-KRF"),
            noiseless=True,
        )
        curves = run_sweeps(cfg, ("ber",))["ber"]
        for pts in curves.values():
            for p in pts:
                assert p.ber == 0.0 and p.n_errors == 0 and p.failures == 0

    def test_sweep_is_reproducible(self):
        cfg = ExperimentConfig(
            scenario=QLED12, snr_grid_db=(14.0,), n_symbols_total=500, base_seed=11
        )
        assert run_sweeps(cfg, ("ber",)) == run_sweeps(cfg, ("ber",))

    def test_channels_are_paired_across_points(self):
        # same trial seeds at every sweep point: identical channel draws,
        # hence identical mean effective conditioning
        cfg = ExperimentConfig(
            scenario=QLED12, snr_grid_db=(10.0, 30.0), n_symbols_total=500, base_seed=2
        )
        curves = run_sweeps(cfg, ("ber",))["ber"]
        assert curves["ZF"][0].cond == curves["ZF"][1].cond

    def test_ber_nonincreasing_in_snr(self):
        cfg = ExperimentConfig(
            scenario=QLED12,
            snr_grid_db=(0.0, 4.0, 8.0, 12.0),
            n_symbols_total=5_000,
            base_seed=13,
            receivers=("ZF", "VLC-KRF"),
        )
        curves = run_sweeps(cfg, ("ber",))["ber"]
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
            run_sweeps(cfg, ("ber",))
        with pytest.raises(IdentifiabilityError):
            run_sweeps(cfg, ("alpha",))

    def test_plain_only_sweep_skips_identifiability(self):
        starved = SystemConfig(k_t=4, l_t=2, k_r=4, l_r=2, n_states=12, block_len=2)
        cfg = ExperimentConfig(
            scenario=starved,
            snr_grid_db=(20.0,),
            n_symbols_total=10,
            receivers=("plain-CSK",),
        )
        curves = run_sweeps(cfg, ("ber",))["ber"]
        assert curves["plain-CSK"][0].n_trials == 5

    def test_alpha_zero_rejected_before_running(self):
        cfg = ExperimentConfig(
            scenario=QLED12, snr_grid_db=(20.0,), alpha_grid=(0.0, 0.4), n_symbols_total=500
        )
        with pytest.raises(ConstraintViolationError):
            run_sweeps(cfg, ("alpha",))

    def test_infeasible_code_rejected_before_any_trial_in_ber_mode(self, monkeypatch):
        def no_trials(*args, **kwargs):
            raise AssertionError("a trial ran before the feasibility check")

        monkeypatch.setattr("dstc.experiments._draw_chunk", no_trials)
        cfg = ExperimentConfig(
            scenario=dataclasses.replace(QLED12, alpha=0.7),
            snr_grid_db=(20.0,),
            n_symbols_total=500,
            receivers=("plain-CSK",),
        )
        with pytest.raises(ConstraintViolationError):
            run_sweeps(cfg, ("ber",))

    def test_unknown_mode_rejected(self):
        cfg = ExperimentConfig(scenario=QLED12, snr_grid_db=(20.0,), n_symbols_total=500)
        with pytest.raises(ValueError, match="sweep mode"):
            run_sweeps(cfg, ("snr",))

    def test_alpha_sweep_spans_full_depth(self):
        cfg = ExperimentConfig(
            scenario=QLED12,
            snr_grid_db=(20.0,),
            alpha_grid=(0.1, 0.5),
            n_symbols_total=500,
            receivers=("ZF", "VLC-KRF"),
        )
        curves = run_sweeps(cfg, ("alpha",))["alpha"]
        for pts in curves.values():
            assert [p.x for p in pts] == [0.1, 0.5]
            assert all(p.failures == 0 for p in pts)
        # wider power swing conditions the effective channel better
        assert curves["ZF"][0].cond > curves["ZF"][1].cond


class TestAggregation:
    # one point's (failed, errors, nmse, cond) over three trials of 100-bit blocks
    def test_failed_trials_carry_no_bits(self):
        score = (
            np.array([False, True, False]),
            np.array([3, 0, 1]),
            np.array([0.5, math.nan, 0.3]),
            np.array([2.0, 9.0, 4.0]),
        )
        p = _aggregate(20.0, "ZF", score, 100)
        assert p.n_bits == 200 and p.n_errors == 4
        assert isinstance(p.n_bits, int) and isinstance(p.n_errors, int)
        assert p.ber == pytest.approx(0.02)
        assert p.nmse == pytest.approx(0.4)
        assert p.cond == pytest.approx(3.0)
        assert p.n_trials == 3 and p.failures == 1

    def test_all_failed_point(self):
        score = (np.ones(3, dtype=bool), np.zeros(3, dtype=int), *np.full((2, 3), math.nan))
        p = _aggregate(20.0, "ZF", score, 100)
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
        return run_sweeps(cfg, ("ber",))["ber"]

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
        curves = run_sweeps(cfg, ("ber",))["ber"]
        for pts in curves.values():
            p = pts[0]
            assert p.ber == p.n_errors / p.n_bits
            assert isinstance(p.n_errors, int) and isinstance(p.n_bits, int)
