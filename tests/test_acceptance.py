"""Acceptance gate: one test per criterion, each printing a labeled verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.  Each
test also asserts its stated runtime budget; the Monte Carlo checks use
fixed seeds so verdicts are reproducible bit for bit.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from dstc.channel import (
    add_stacked_noise,
    derive_seed,
    draw_channel,
    effective_channel,
    noise_variance,
)
from dstc.cli import main
from dstc.csk import (
    block_with_reference,
    default_constellation,
    demodulate,
)
from dstc.dimming import (
    ConstraintViolationError,
    DimmingSpec,
    build_dimming_matrix,
    validate_dimming_matrix,
)
from dstc.experiments import (
    ExperimentConfig,
    SystemConfig,
    audit_power_color,
    check_scenario_identifiability,
    default_scenarios,
    run_point,
    run_sweeps,
)
from dstc.identifiability import check_uniqueness
from dstc.receivers import code_inverse, krf_detect, zf_detect
from tensor_oracles import khatri_rao, unfold

BASE_SEED = 20260814

# Reference efficiency rows at block_len = 10: (k_t, l_t, n_states) ->
# (eta_zf, eta_krf, gain_percent) at printed precision.
TABLE_ROWS = {
    (3, 2, 8): (0.4651, 0.4938, 6.1),
    (3, 6, 20): (0.5505, 0.5970, 8.4),
    (3, 10, 32): (0.5714, 0.6231, 9.0),
    (4, 2, 12): (0.3125, 0.3306, 5.8),
    (4, 2, 16): (0.2381, 0.2484, 4.3),
}


def _report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


class Stopwatch:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0


def test_01_spectral_efficiency_table(capsys):
    with Stopwatch() as sw:
        assert main(["eta", "--table2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()[1:]
    ok = len(lines) == len(TABLE_ROWS)
    for line in lines:
        dims, zf, krf, gain = (part.strip() for part in line.split("|"))
        k_t, l_t, n_states = (int(tok) for tok in dims.split())
        ref = TABLE_ROWS[(k_t, l_t, n_states)]
        ok &= zf == f"{ref[0]:.4f}" and krf == f"{ref[1]:.4f}"
        ok &= abs(float(gain) - ref[2]) <= 0.1
    ok &= sw.elapsed < 1.0
    with capsys.disabled():
        assert _report(
            "1 efficiency table",
            ok,
            f"5 rows at 4 decimals, gains within 0.1 pp, {sw.elapsed:.2f}s < 1s",
        )


def test_02_dimming_code_feasibility():
    cases = [(3, 2, 8), (3, 6, 20), (3, 10, 32), (4, 2, 12), (4, 2, 16), (3, 2, 12)]
    with Stopwatch() as sw:
        worst_mean_err = 0.0
        all_ok = True
        for k_t, l_t, n_states in cases:
            spec = DimmingSpec(n_states=n_states, n_tx=k_t * l_t, p_m=0.5, alpha=0.4)
            report = validate_dimming_matrix(build_dimming_matrix(spec), spec)
            all_ok &= report.entries_in_range
            all_ok &= report.column_mean_error <= 1e-12
            all_ok &= report.rank == spec.n_tx and report.kruskal == spec.n_tx
            worst_mean_err = max(worst_mean_err, report.column_mean_error)
    ok = all_ok and sw.elapsed < 1.0
    assert _report(
        "2 code feasibility",
        ok,
        f"6 scenarios up to 30 LEDs, worst column-mean error {worst_mean_err:.1e}, "
        f"{sw.elapsed:.2f}s < 1s",
    )


def test_03_power_color_audit():
    with Stopwatch() as sw:
        scen = SystemConfig(k_t=3, l_t=2, k_r=3, l_r=2, n_states=12, block_len=100)
        audit = audit_power_color(scen, n_rows=10_000, seed=BASE_SEED)
    ok = abs(audit.relative_power - 0.5) < 1e-2
    ok &= audit.chroma_shift[0] < 1e-3 and audit.chroma_shift[1] < 1e-3
    ok &= sw.elapsed < 5.0
    assert _report(
        "3 power/color audit",
        ok,
        f"power {audit.relative_power:.6f} (target 0.5), shift "
        f"({audit.chroma_shift[0]:.1e}, {audit.chroma_shift[1]:.1e}), {sw.elapsed:.2f}s < 5s",
    )


def test_04_noiseless_exactness():
    rng = np.random.default_rng(BASE_SEED)
    with Stopwatch() as sw:
        worst_nmse = 0.0
        errors = 0
        for i in range(100):
            k_t = int(rng.choice([3, 4]))
            l_t = int(rng.choice([1, 2, 3] if k_t == 3 else [1, 2]))
            n_tx = k_t * l_t
            n_states = int(rng.choice([k for k in (4, 8, 12) if k - 1 >= n_tx]))
            scen = SystemConfig(
                k_t=k_t,
                l_t=l_t,
                k_r=int(rng.choice([3, 4])),
                l_r=int(rng.choice([1, 2])),
                n_states=n_states,
                block_len=int(rng.integers(10, 40)),
                alpha=float(rng.choice([0.1, 0.2, 0.3, 0.4, 0.5])),
            )
            out = run_point(scen, math.inf, 1, int(rng.integers(2**63)))
            errors += out["ZF"][0].bit_errors + out["VLC-KRF"][0].bit_errors
            worst_nmse = max(worst_nmse, out["VLC-KRF"][0].nmse)
    ok = errors == 0 and worst_nmse <= 1e-16 and sw.elapsed < 30.0
    assert _report(
        "4 noiseless exactness",
        ok,
        f"100 random configs, {errors} bit errors, worst KRF channel error "
        f"{math.sqrt(worst_nmse):.1e} <= 1e-8, {sw.elapsed:.1f}s < 30s",
    )


def test_05_tensor_identities():
    rng = np.random.default_rng(BASE_SEED)
    with Stopwatch() as sw:
        worst = 0.0
        for _ in range(100):
            n_rx, n_slots, n_states, r = (int(v) for v in rng.integers(2, 9, size=4))
            h = rng.standard_normal((n_rx, r))
            s = rng.standard_normal((n_slots, r))
            c = rng.standard_normal((n_states, r))
            tensor = np.einsum("ir,nr,kr->ink", h, s, c)
            for k in range(n_states):
                slice_err = np.linalg.norm(tensor[:, :, k] - h @ np.diag(c[k]) @ s.T)
                worst = max(worst, slice_err / np.linalg.norm(tensor[:, :, k]))
            for mode, lhs in (
                (1, h @ khatri_rao(c, s).T),
                (2, s @ khatri_rao(c, h).T),
                (3, c @ khatri_rao(s, h).T),
            ):
                err = np.linalg.norm(unfold(tensor, mode) - lhs) / np.linalg.norm(lhs)
                worst = max(worst, err)
    ok = worst <= 1e-10 and sw.elapsed < 10.0
    assert _report(
        "5 tensor identities",
        ok,
        f"100 instances, worst relative error {worst:.1e} <= 1e-10, {sw.elapsed:.1f}s < 10s",
    )


def _qled_scenario(n_states: int) -> SystemConfig:
    return replace(default_scenarios()["qled2x2-k12"], n_states=n_states)


def _qled_run(n_states: int, snr_db: float, receivers, n_symbols=10_000):
    scen = _qled_scenario(n_states)
    return run_point(
        scen, snr_db, n_symbols // scen.block_len, BASE_SEED, receivers=receivers
    )


def _pooled_counts(outcomes):
    """Pooled (bit errors, bits) per receiver, failed trials left out."""
    return {
        r: (
            sum(t.bit_errors for t in trials if not t.failed),
            sum(t.n_bits for t in trials if not t.failed),
        )
        for r, trials in outcomes.items()
    }


def _qled_point(n_states: int, snr_db: float, receivers, n_symbols=10_000):
    counts = _pooled_counts(_qled_run(n_states, snr_db, receivers, n_symbols))
    return {r: errs / bits if bits else 0.0 for r, (errs, bits) in counts.items()}


def _soft_symbol_error(n_states: int, snr_db: float, n_symbols=10_000):
    """BER and per-trial mean squared pre-slicer symbol error of ZF and VLC-KRF.

    Replays `run_point`'s trials with the public dstc functions in
    the engine's per-trial draw order (bits, channel, data noise, pilot
    noise), so both receivers see the same blocks as the BER tally.  The
    pilots are the identity, so ZF's channel estimate is the effective
    channel plus the pilot noise, drawn in the reception's layout.  The
    soft error is `symbol_estimate` minus the sent symbols over the payload
    rows, slot 1 onward; the training slot 0 is left out.  At high SNR both BERs are 0, but
    the soft error still orders the receivers.  The replay's bit-error
    counts must equal `run_point`'s, and so must its per-trial channel NMSE,
    which stays nonzero where the counts are all 0.
    """
    scen = _qled_scenario(n_states)
    constellation = default_constellation(scen.k_t)
    code = build_dimming_matrix(scen.dimming_spec())
    receivers = ("ZF", "VLC-KRF")
    soft = {r: [] for r in receivers}
    nmse = {r: [] for r in receivers}
    counts = {r: [0, 0] for r in receivers}
    for trial in range(n_symbols // scen.block_len):
        rng = np.random.default_rng(derive_seed(BASE_SEED, trial))
        bits = rng.integers(
            0, 2, size=2 * scen.l_t * (scen.block_len - 1), dtype=np.uint8
        )
        symbols = block_with_reference(bits, scen.block_len, scen.l_t, constellation)
        gains = draw_channel(scen.n_rx, scen.n_tx, seed=rng)
        effective = effective_channel(gains, code)
        stacked = effective @ symbols.T
        # the received power is the mean square of the clean reception
        sd = np.sqrt(noise_variance(np.mean(np.square(stacked)), snr_db))
        for target, n_cols in ((stacked, scen.block_len), (effective, scen.n_tx)):
            add_stacked_noise(target, sd * rng.standard_normal((scen.n_rx, n_cols, scen.n_states)))
        results = {
            "ZF": zf_detect(stacked, effective, code),
            "VLC-KRF": krf_detect(stacked, code_inverse(code), symbols[0]),
        }
        for r, result in results.items():
            err = result.symbol_estimate[1:] - symbols[1:]
            soft[r].append(float(np.mean(err**2)))
            nmse[r].append(
                np.linalg.norm(gains - result.channel_estimate) ** 2
                / np.linalg.norm(gains) ** 2
            )
            detected = demodulate(result.symbol_estimate[1:], constellation)
            counts[r][0] += int(np.sum(detected != bits))
            counts[r][1] += int(bits.size)
    outcomes = _qled_run(n_states, snr_db, receivers, n_symbols)
    expected = _pooled_counts(outcomes)
    assert {r: tuple(c) for r, c in counts.items()} == expected
    for r in receivers:
        np.testing.assert_allclose(
            nmse[r], [t.nmse for t in outcomes[r]], rtol=1e-12, atol=0
        )
    bers = {r: errs / bits for r, (errs, bits) in expected.items()}
    return bers, {r: np.array(v) for r, v in soft.items()}


def test_06a_zf_beats_krf_at_24db():
    with Stopwatch() as sw:
        bers, soft = _soft_symbol_error(12, 24.0)
    mse = {r: float(np.mean(v)) for r, v in soft.items()}
    wins = int(np.sum(soft["ZF"] < soft["VLC-KRF"]))
    ok = bers["ZF"] <= bers["VLC-KRF"] and mse["ZF"] < mse["VLC-KRF"]
    assert _report(
        "6a ZF < KRF at 24 dB (K=12)",
        ok,
        f"BER ZF {bers['ZF']:.2e} <= KRF {bers['VLC-KRF']:.2e}, soft symbol error "
        f"ZF {mse['ZF']:.2e} < KRF {mse['VLC-KRF']:.2e}, ZF lower in {wins} of "
        f"{soft['ZF'].size} trials, 10^4 symbols, {sw.elapsed:.1f}s",
    )


def test_06b_more_states_never_hurt_at_24db():
    with Stopwatch() as sw:
        b12, s12 = _soft_symbol_error(12, 24.0)
        b16, s16 = _soft_symbol_error(16, 24.0)
    m12 = {r: float(np.mean(v)) for r, v in s12.items()}
    m16 = {r: float(np.mean(v)) for r, v in s16.items()}
    ok = all(b16[r] <= b12[r] and m16[r] <= m12[r] for r in ("ZF", "VLC-KRF"))
    assert _report(
        "6b K=16 <= K=12 at 24 dB",
        ok,
        f"BER ZF {b16['ZF']:.2e} <= {b12['ZF']:.2e}, KRF {b16['VLC-KRF']:.2e} <= "
        f"{b12['VLC-KRF']:.2e}; soft symbol error ZF {m16['ZF']:.2e} <= "
        f"{m12['ZF']:.2e}, KRF {m16['VLC-KRF']:.2e} <= {m12['VLC-KRF']:.2e}, "
        f"{sw.elapsed:.1f}s",
    )


def test_06c_dstc_beats_plain_csk_everywhere():
    grid = tuple(float(s) for s in range(12, 37, 4))
    with Stopwatch() as sw:
        cfg = ExperimentConfig(
            scenario=default_scenarios()["qled2x2-k12"],
            snr_grid_db=grid,
            n_symbols_total=10_000,
            base_seed=BASE_SEED,
            receivers=("ZF", "VLC-KRF", "plain-CSK"),
        )
        curves = run_sweeps(cfg, ("ber",))["ber"]
    margins = []
    ok = True
    for i in range(len(grid)):
        plain = curves["plain-CSK"][i].ber
        ok &= curves["ZF"][i].ber < plain and curves["VLC-KRF"][i].ber < plain
        margins.append(plain - max(curves["ZF"][i].ber, curves["VLC-KRF"][i].ber))
    assert _report(
        "6c DSTC < plain CSK on 12..36 dB",
        ok,
        f"7 points, smallest margin {min(margins):.2e}, {sw.elapsed:.1f}s",
    )


def test_06d_plain_csk_error_floor():
    with Stopwatch() as sw:
        bers = _qled_point(12, 60.0, ("plain-CSK",), n_symbols=100_000)
    ok = bers["plain-CSK"] > 1e-4 and sw.elapsed < 600.0
    assert _report(
        "6d plain CSK > 1e-4 at 60 dB",
        ok,
        f"BER {bers['plain-CSK']:.2e} on 10^5 symbols, {sw.elapsed:.1f}s < 600s shared budget",
    )


def test_07_nmse_ordering():
    with Stopwatch() as sw:
        outcomes = run_point(
            default_scenarios()["qled2x2-k12"], 20.0, 250, BASE_SEED,
            receivers=("ZF", "VLC-KRF"),
        )
        med = {
            r: float(np.median([t.nmse for t in trials if not t.failed]))
            for r, trials in outcomes.items()
        }
    ok = med["VLC-KRF"] < med["ZF"] and sw.elapsed < 120.0
    assert _report(
        "7 NMSE ordering at 20 dB",
        ok,
        f"median KRF {med['VLC-KRF']:.2e} < ZF {med['ZF']:.2e} over 250 trials, "
        f"{sw.elapsed:.1f}s < 120s",
    )


def test_08_alpha_sweep_conditioning_and_ber():
    with Stopwatch() as sw:
        cfg = ExperimentConfig(
            scenario=default_scenarios()["qled2x2-k12"],
            snr_grid_db=(20.0,),
            alpha_grid=(0.1, 0.2, 0.3, 0.4, 0.5),
            alpha_sweep_snr_db=20.0,
            n_symbols_total=10_000,
            base_seed=BASE_SEED,
            receivers=("ZF", "VLC-KRF"),
        )
        curves = run_sweeps(cfg, ("alpha",))["alpha"]
    conds = [p.cond for p in curves["ZF"]]
    ok = all(a > b for a, b in zip(conds, conds[1:]))
    for r in ("ZF", "VLC-KRF"):
        ok &= curves[r][-1].ber < curves[r][0].ber
    ok &= sw.elapsed < 300.0
    assert _report(
        "8 dimming-depth sweep",
        ok,
        f"mean cond(H_e) {conds[0]:.2f} -> {conds[-1]:.2f} strictly decreasing over "
        f"100 trials/point, BER(0.5) < BER(0.1) for both receivers, "
        f"{sw.elapsed:.1f}s < 300s",
    )


def test_09_identifiability_verdicts():
    with Stopwatch() as sw:
        ok = True
        for name, scen in default_scenarios().items():
            cfg = ExperimentConfig(
                scenario=scen, snr_grid_db=(20.0,), n_symbols_total=scen.block_len
            )
            ok &= check_scenario_identifiability(cfg).unique
        # duplicated channel column: k-rank of the gains collapses to 1
        rng = np.random.default_rng(BASE_SEED)
        gains = rng.standard_normal((8, 8))
        gains[:, 1] = gains[:, 0]
        scen = default_scenarios()["qled2x2-k12"]
        code = build_dimming_matrix(scen.dimming_spec())
        symbols = rng.random((scen.block_len, 8))
        degenerate = check_uniqueness(gains, symbols, code)
        ok &= not degenerate.unique
        # more LEDs than states allow is rejected before any code exists
        with pytest.raises(ConstraintViolationError):
            build_dimming_matrix(DimmingSpec(n_states=8, n_tx=8, p_m=0.5, alpha=0.4))
    ok &= sw.elapsed < 5.0
    assert _report(
        "9 identifiability verdicts",
        ok,
        f"3 default scenarios unique, duplicated-column channel flagged, oversized "
        f"array rejected, {sw.elapsed:.1f}s < 5s",
    )


def test_10_simulation_determinism(tmp_path):
    config = tmp_path / "det.cfg"
    config.write_text(
        "[scenario]\nk_t = 4\nl_t = 2\nk_r = 4\nl_r = 2\nn_states = 12\nblock_len = 50\n"
        "[dimming]\np_m = 0.5\nalpha = 0.4\n"
        "[experiment]\nmode = both\nsnr_grid_db = 12 20\nalpha_grid = 0.2 0.4\n"
        "n_symbols_total = 1000\nbase_seed = 3\nreceivers = ZF VLC-KRF plain-CSK\n"
    )
    with Stopwatch() as sw:
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", str(config), "--out", str(a)]) == 0
        assert main(["simulate", "--config", str(config), "--out", str(b)]) == 0
        same = all(
            (a / name).read_bytes() == (b / name).read_bytes()
            for name in ("ber_nmse.csv", "alpha_sweep.csv")
        )
    assert _report(
        "10 determinism",
        same,
        f"two runs, byte-identical BER and dimming-depth CSVs, {sw.elapsed:.1f}s",
    )
