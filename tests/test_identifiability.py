import numpy as np
import pytest

from dstc.channel import draw_channel
from dstc.csk import block_with_reference, default_constellation
from dstc.dimming import DimmingSpec, build_dimming_matrix
from dstc.identifiability import check_uniqueness
from dstc.experiments import ExperimentConfig, check_scenario_identifiability, default_scenarios
from dstc.linalg import SizeLimitError, kruskal_rank


def typical_factors(seed, n_rx=4, n_slots=20, order=8, n_tx=6, k_t=3, l_t=2):
    rng = np.random.default_rng(seed)
    constellation = default_constellation(k_t)
    bits = rng.integers(0, 2, size=2 * l_t * (n_slots - 1), dtype=np.uint8)
    symbols = block_with_reference(bits, n_slots, l_t, constellation)
    gains = draw_channel(n_rx, n_tx, "gaussian", seed=rng)
    code = build_dimming_matrix(DimmingSpec(order, n_tx, 0.5, 0.4))
    return gains, symbols, code


class TestCheckUniqueness:
    def test_typical_link_is_unique(self):
        gains, symbols, code = typical_factors(0)
        report = check_uniqueness(gains, symbols, code)
        assert report.k_gains == 4
        # every constellation point sums to one, so the two groups' column sums
        # coincide and one direction is lost: k-rank 5, not 6
        assert report.k_symbols == 5
        assert report.k_code == 6
        # 4 + 5 + 6 = 15 >= 2*6 + 2
        assert report.unique

    def test_duplicated_channel_column_breaks_uniqueness(self):
        rng = np.random.default_rng(1)
        gains = rng.standard_normal((4, 3))
        gains[:, 1] = gains[:, 0]
        symbols = rng.random((10, 3))
        code = build_dimming_matrix(DimmingSpec(4, 3, 0.5, 0.25))
        report = check_uniqueness(gains, symbols, code)
        assert report.k_gains == 1
        # 1 + 3 + 3 = 7 < 2*3 + 2
        assert not report.unique

    def test_identity_factors(self):
        report = check_uniqueness(np.eye(3), np.eye(3), np.eye(3))
        assert (report.k_gains, report.k_symbols, report.k_code) == (3, 3, 3)
        assert report.unique

    def test_full_rank_symbol_path(self):
        # a generic (non-simplex) symbol matrix has full k-rank, so with a
        # full-rank code a channel k-rank of 2 meets the sum: 2 + 6 + 6 >= 14
        rng = np.random.default_rng(2)
        symbols = rng.random((20, 6))
        gains = rng.standard_normal((2, 6))
        code = build_dimming_matrix(DimmingSpec(8, 6, 0.5, 0.4))
        report = check_uniqueness(gains, symbols, code)
        assert (report.k_gains, report.k_symbols, report.k_code) == (2, 6, 6)
        assert report.unique

    def test_simplex_symbols_never_take_the_full_rank_path(self):
        # simplex symbols lose one direction, and the sum still holds
        gains, symbols, code = typical_factors(3)
        report = check_uniqueness(gains, symbols, code)
        assert report.k_symbols < report.n_columns
        assert report.unique

    def test_diagonal_channel_short_block_path(self):
        # fewer slots than LEDs: a tall diagonal channel carries the sum,
        # 3 + 2 + 3 >= 8
        rng = np.random.default_rng(4)
        gains = draw_channel(5, 3, "diagonal", seed=rng)
        symbols = rng.random((2, 3))
        code = build_dimming_matrix(DimmingSpec(4, 3, 0.5, 0.25))
        report = check_uniqueness(gains, symbols, code)
        assert (report.k_gains, report.k_symbols, report.k_code) == (3, 2, 3)
        assert report.unique

    def test_column_count_mismatch(self):
        with pytest.raises(ValueError, match="column counts"):
            check_uniqueness(np.eye(3), np.eye(4), np.eye(4))

    def test_width_guard(self):
        # 15 columns in 10 rows cannot be full column rank, so the k-rank
        # search has to enumerate subsets, which the guard refuses
        wide = np.random.default_rng(6).standard_normal((10, 15))
        with pytest.raises(SizeLimitError):
            check_uniqueness(wide, wide, wide)

    def test_full_column_rank_passes_the_width_guard(self):
        tall = np.random.default_rng(6).standard_normal((40, 15))
        report = check_uniqueness(tall, tall, tall)
        assert (report.k_gains, report.k_symbols, report.k_code) == (15, 15, 15)
        assert report.unique

    def test_default_geometry_unique_with_high_probability(self):
        # random square channels almost always keep the k-rank sum condition alive;
        # only the channel changes between draws, so only its k-rank is recomputed
        code = build_dimming_matrix(DimmingSpec(12, 8, 0.5, 0.4))
        constellation = default_constellation(4)
        ok = 0
        trials = 1000
        rng = np.random.default_rng(7)
        bits = rng.integers(0, 2, size=2 * 2 * 99, dtype=np.uint8)
        symbols = block_with_reference(bits, 100, 2, constellation)
        fixed = kruskal_rank(symbols) + kruskal_rank(code)
        for draw in range(trials):
            gains = draw_channel(8, 8, "gaussian", seed=rng)
            unique = kruskal_rank(gains) + fixed >= 2 * 8 + 2
            if draw < 20:
                assert check_uniqueness(gains, symbols, code).unique == unique
            ok += unique
        assert ok / trials >= 0.99


@pytest.mark.parametrize("name", sorted(default_scenarios()))
def test_default_check_takes_at_most_five_svds(name, monkeypatch):
    # the symbol block is never full column rank, so its k-rank is searched;
    # the Gram screen clears its subsets without an SVD each
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    # cond and matrix_rank reach svd through numpy's private module
    monkeypatch.setattr(getattr(np.linalg, "_linalg", np.linalg), "svd", counted)
    report = check_scenario_identifiability(ExperimentConfig(scenario=default_scenarios()[name]))
    assert report.unique and report.k_symbols == report.n_columns - 1
    assert len(calls) <= 5, len(calls)
