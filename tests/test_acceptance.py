"""Acceptance suite: one test per criterion, each printing a single
PASS/FAIL line with its measured numbers (run with ``pytest -s`` or
``-rA`` to see the lines for passing criteria).

Every sub-check, including the per-criterion runtime budget, is asserted;
budgets assume a fully serial run. Criterion 9 needs a local copy of the
public recordings in canonical format and is skipped unless
``LOCODEC_DATASET`` points at that directory.
"""

import os
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from locodec.cli import entrypoint
from locodec.decoders import TRAINABLE_FAMILIES, DecoderSpec, gradcheck_decoder
from locodec.dsp import (
    CANONICAL_BANDS,
    DEFAULT_NFFT,
    autocorrelation,
    band_sos,
    design_butterworth,
    filtfilt,
    welch_psd,
)
from locodec.errors import LeakageError
from locodec.protocols import (
    ExperimentPlan,
    autocorrelation_results,
    check_no_test_leakage,
    run_band_analysis,
    run_baseline,
    run_offset_analysis,
    run_region_analysis,
    run_single_session,
    run_transfer,
)
from locodec.sessions import Session, apply_inclusion_gate, ingest_session
from locodec.stats import (
    bonferroni,
    bootstrap_median_ci,
    friedman,
    polyfit2,
    wilcoxon_signed_rank,
)
from locodec.synthetic import REGIONS, FleetSpec, generate_synthetic_fleet
from locodec.trainer import TrainConfig

BUDGETS_S = {1: 120, 2: 60, 3: 180, 4: 600, 5: 900, 6: 600, 7: 600, 8: 300, 9: 600}

# Shared experiment-scale specs. The linear spec still sizes the LSTM and
# head so the same object can drive the companion speed-history model.
LIN = DecoderSpec(family="linear", n_channels=32, lstm_hidden=32, head_hidden=(16,))
FFN = DecoderSpec(family="ffnn", n_channels=32, ffnn_hidden=(128, 32))
CFG = TrainConfig(max_epochs=60, patience=10, learning_rate=3e-3, batch_size=64)
CFG32 = TrainConfig(max_epochs=45, patience=8, learning_rate=2e-3, batch_size=32)


def _verdict(num: int, label: str, t0: float, checks: list[tuple[str, bool]]) -> None:
    elapsed = time.monotonic() - t0
    budget = BUDGETS_S[num]
    checks = checks + [(f"runtime {elapsed:.1f}s < {budget}s", elapsed < budget)]
    bad = [name for name, ok in checks if not ok]
    status = "PASS" if not bad else "FAIL(" + "; ".join(bad) + ")"
    print(f"criterion {num} [{label}]: {status} | " + "; ".join(name for name, _ in checks))
    assert not bad, f"criterion {num} [{label}]: " + "; ".join(bad)


def _median_r(rows) -> float:
    return float(np.median([r.r for r in rows]))


def test_criterion_1_gradient_correctness():
    t0 = time.monotonic()
    checks = []
    assert len(TRAINABLE_FAMILIES) == 5
    for family in TRAINABLE_FAMILIES:
        spec = DecoderSpec(family=family, n_channels=1 if family == "speed_rnn" else 8)
        report = gradcheck_decoder(spec, n_samples=60, h=1e-5, tolerance=1e-4)
        checks.append(
            (
                f"{family} max rel err {report.max_rel_err:.1e} <= 1e-4 "
                f"({report.n_checked} params)",
                report.max_rel_err <= 1e-4 and report.n_checked >= 50,
            )
        )
    _verdict(1, "gradient correctness", t0, checks)


def test_criterion_2_dsp_oracles():
    t0 = time.monotonic()
    checks = []
    fs = 100.0

    # (a) forward-backward filtering is zero-phase: the cross-correlation
    # of an in-band sinusoid with its filtered copy peaks at lag 0.
    centers = {"delta": 2.5, "theta": 6.0, "alpha": 10.0, "beta": 20.0, "gamma": 40.0}
    n = 4000
    t = np.arange(n) / fs
    for bspec in CANONICAL_BANDS:
        if bspec.name == "fullband":
            continue
        x = np.sin(2 * np.pi * centers[bspec.name] * t)
        y = filtfilt(band_sos(bspec, fs), x)
        xs, ys = x[400:-400], y[400:-400]
        xcorr = np.correlate(ys - ys.mean(), xs - xs.mean(), "full")
        lag = int(np.argmax(xcorr)) - (xs.size - 1)
        checks.append((f"{bspec.name} xcorr peak lag {lag} == 0", lag == 0))

    # (b) 2nd-order 45 Hz lowpass: evaluate the transfer function directly
    # at the corner; a single application must attenuate by exactly 1/sqrt(2).
    sos = design_butterworth(2, "lowpass", 45.0, fs)
    z = np.exp(-2j * np.pi * 45.0 / fs)
    gain = 1.0
    for b0, b1, b2, a0, a1, a2 in np.atleast_2d(sos):
        gain *= (b0 + b1 * z + b2 * z * z) / (a0 + a1 * z + a2 * z * z)
    corner_err = abs(abs(gain) - 2.0**-0.5)
    checks.append((f"45 Hz corner gain err {corner_err:.1e} <= 1e-6", corner_err <= 1e-6))

    # (c) Parseval on a bin-centered sinusoid: integrated density equals
    # the signal power A^2/2 within 3%.
    amp = 1.7
    f_bin = 32 * fs / DEFAULT_NFFT
    x = amp * np.sin(2 * np.pi * f_bin * np.arange(51200) / fs)
    est = welch_psd(x, fs_hz=fs, nfft=DEFAULT_NFFT)
    total = float(np.sum(est.power) * (est.frequencies[1] - est.frequencies[0]))
    rel = abs(total - amp**2 / 2) / (amp**2 / 2)
    checks.append((f"parseval rel err {rel:.2%} <= 3%", rel <= 0.03))

    # (d) AR(1) autocorrelation decays as phi^k.
    rng = np.random.default_rng(5)
    n = 100_000
    phi = 0.95
    eps = rng.standard_normal(n)
    ar = np.empty(n)
    ar[0] = eps[0] / np.sqrt(1 - phi * phi)
    for i in range(1, n):
        ar[i] = phi * ar[i - 1] + eps[i]
    err = float(np.max(np.abs(autocorrelation(ar, 100) - phi ** np.arange(101))))
    checks.append((f"AR(1) autocorr max err {err:.3f} <= 0.05 (k<=100)", err <= 0.05))

    _verdict(2, "dsp oracles", t0, checks)


def test_criterion_3_statistics_oracles():
    t0 = time.monotonic()
    checks = []

    out = wilcoxon_signed_rank(np.arange(1.0, 11.0), np.zeros(10))
    checks.append((f"wilcoxon all-positive n=10 p {out.p_raw} == 2/1024", out.p_raw == 2 / 1024))

    # Friedman against a from-scratch rank computation (continuous values,
    # so no ties and the plain chi-square formula applies).
    agree = True
    for i in range(25):
        table = np.random.default_rng(300 + i).standard_normal((10, 3))
        stat, _ = friedman(table)
        order = np.argsort(table, axis=1)
        ranks = np.empty_like(order, dtype=np.float64)
        ranks[np.arange(10)[:, None], order] = np.arange(1.0, 4.0)[None, :]
        brute = 12 * 10 / (3 * 4) * float(np.sum((ranks.mean(axis=0) - 2.0) ** 2))
        agree = agree and bool(np.isclose(stat, brute, rtol=1e-12))
    checks.append(("friedman == brute-force ranks on 25 random 10x3 tables", agree))

    adj = bonferroni([0.4, 0.01, 0.2], m=5)
    clamp_ok = np.array_equal(adj, [1.0, 0.05, 1.0])
    p_sorted = np.array([0.001, 0.02, 0.3])
    order_ok = bool(np.all(np.diff(bonferroni(p_sorted)) >= 0))
    checks.append(("bonferroni clamps at 1 and preserves order", clamp_ok and order_ok))

    hits = 0
    n_trials = 200
    for i in range(n_trials):
        x = np.random.default_rng(1000 + i).standard_normal(40)
        _, lo, hi = bootstrap_median_ci(x, n_boot=2000, level=0.95, seed=i)
        hits += lo <= 0.0 <= hi
    coverage = hits / n_trials
    checks.append(
        (f"bootstrap 95% CI coverage {coverage:.3f} in [0.92, 0.98]", 0.92 <= coverage <= 0.98)
    )

    xs = np.arange(-3.0, 4.0)
    coeffs = polyfit2(xs, 3.0 - 2.0 * xs + 0.5 * xs * xs)
    quad_ok = np.allclose(coeffs, [3.0, -2.0, 0.5], atol=1e-9)
    flat = polyfit2(xs, np.full_like(xs, 4.0))
    flat_ok = np.allclose(flat, [4.0, 0.0, 0.0], atol=1e-9)
    checks.append(("polyfit2 exact on quadratic and constant fixtures", quad_ok and flat_ok))

    _verdict(3, "statistics oracles", t0, checks)


def test_criterion_4_synthetic_decoding_ladder():
    t0 = time.monotonic()
    fleet = generate_synthetic_fleet(
        FleetSpec(
            n_rats=4,
            sessions_per_rat=2,
            duration_s=40.0,
            encoding="am",
            noise_scale=0.65,
            seed=11,
        )
    )
    medians = {}
    for family in ("linear", "ffnn", "lstm_rnn"):
        plan = ExperimentPlan(
            decoder=DecoderSpec(family=family, n_channels=32), train=CFG32, master_seed=1
        )
        out = run_baseline(fleet, plan)
        assert len(out.results) >= 8
        medians[family] = _median_r(out.results)
    lin, ffn, lstm = medians["linear"], medians["ffnn"], medians["lstm_rnn"]
    checks = [
        (f"lstm {lstm:.3f} >= ffnn {ffn:.3f}", lstm >= ffn),
        (f"ffnn {ffn:.3f} >= linear {lin:.3f}", ffn >= lin),
        (f"lstm {lstm:.3f} >= 0.9", lstm >= 0.9),
        (f"lstm - linear {lstm - lin:.3f} >= 0.1", lstm - lin >= 0.1),
        (f"median over {len(fleet)} sessions >= 8", len(fleet) >= 8),
    ]
    _verdict(4, "synthetic decoding ladder", t0, checks)


def _pair_count_formulas(sessions):
    """Ordered (source, target) pair counts implied by the roster: within-rat
    uses n_i(n_i - 1); across-rat uses n_i(N - n_i), summed over rats."""
    counts = Counter(s.rat_id for s in sessions)
    total = sum(counts.values())
    within = sum(n * (n - 1) for n in counts.values())
    across = sum(n * (total - n) for n in counts.values())
    return within, across


def test_criterion_5_transfer_construction():
    t0 = time.monotonic()
    checks = []

    shared = generate_synthetic_fleet(
        FleetSpec(n_rats=3, sessions_per_rat=2, duration_s=40.0, encoding="linear",
                  noise_scale=0.3, seed=21)
    )
    _, across = _pair_count_formulas(shared)
    zs_shared = run_transfer(
        shared, ExperimentPlan(decoder=LIN, train=CFG, strategy="zeroshot_cross_subject", master_seed=2)
    )
    med_shared = _median_r(zs_shared.results)
    checks.append((f"shared-map zero-shot cross-subject median {med_shared:.3f} >= 0.8", med_shared >= 0.8))
    checks.append(
        (f"cross-subject count {len(zs_shared.pairs)} == formula {across}",
         len(zs_shared.pairs) == across)
    )

    scrambled = generate_synthetic_fleet(
        FleetSpec(n_rats=3, sessions_per_rat=2, duration_s=60.0, encoding="linear",
                  noise_scale=0.3, speed_tau_s=0.5, speed_bias=1.0,
                  scramble_channels=True, seed=22)
    )
    within, across = _pair_count_formulas(scrambled)
    zs_cs = run_transfer(
        scrambled, ExperimentPlan(decoder=LIN, train=CFG, strategy="zeroshot_cross_session", master_seed=2)
    )
    med_cs = _median_r(zs_cs.results)
    checks.append((f"scrambled zero-shot cross-session median {med_cs:.3f} >= 0.7", med_cs >= 0.7))
    checks.append(
        (f"cross-session count {len(zs_cs.pairs)} == formula {within}",
         len(zs_cs.pairs) == within)
    )

    zs_xs = run_transfer(
        scrambled, ExperimentPlan(decoder=LIN, train=CFG, strategy="zeroshot_cross_subject", master_seed=2)
    )
    med_xs = _median_r(zs_xs.results)
    checks.append((f"scrambled zero-shot cross-subject median {med_xs:.3f} <= 0.2", med_xs <= 0.2))
    checks.append(
        (f"cross-subject count {len(zs_xs.pairs)} == formula {across}",
         len(zs_xs.pairs) == across)
    )

    ft = run_transfer(
        scrambled, ExperimentPlan(decoder=LIN, train=CFG, strategy="finetune_cross_subject", master_seed=2)
    )
    med_ft = _median_r(ft.results)
    gain = med_ft - med_xs
    checks.append((f"fine-tune-head gain {gain:.3f} >= 0.2 over zero-shot", gain >= 0.2))
    checks.append(
        (f"fine-tune count {len(ft.pairs)} == formula {across}", len(ft.pairs) == across)
    )

    _verdict(5, "transfer construction", t0, checks)


def test_criterion_6_attribution_constructions():
    t0 = time.monotonic()
    checks = []

    region_fleet = generate_synthetic_fleet(
        FleetSpec(n_rats=2, sessions_per_rat=2, duration_s=40.0, encoding="linear",
                  signal_regions=("visual",), noise_scale=0.3, speed_bias=1.0, seed=31)
    )
    reg = run_region_analysis(
        region_fleet, ExperimentPlan(decoder=LIN, train=CFG, master_seed=3), include_pairs=False
    )
    by_region: dict[str, list[float]] = {}
    for row in reg.results:
        if row.region_set in REGIONS:
            by_region.setdefault(row.region_set, []).append(row.r)
    assert set(by_region) == set(REGIONS)
    med_visual = float(np.median(by_region["visual"]))
    worst_other = max(
        float(np.median(by_region[name])) for name in REGIONS if name != "visual"
    )
    checks.append((f"injected region (visual) median {med_visual:.3f} >= 0.9", med_visual >= 0.9))
    checks.append((f"other single-region medians <= {worst_other:.3f} <= 0.2", worst_other <= 0.2))

    band_fleet = generate_synthetic_fleet(
        FleetSpec(n_rats=2, sessions_per_rat=2, duration_s=40.0, encoding="am",
                  carrier_band=(5.0, 7.0), noise_scale=0.2, speed_bias=1.0, seed=32)
    )
    bnd = run_band_analysis(
        band_fleet,
        ExperimentPlan(decoder=FFN, train=CFG32, master_seed=3),
        bands=("fullband", "theta", "beta"),
    )
    by_band: dict[str, list[float]] = {}
    for row in bnd.results:
        by_band.setdefault(row.band, []).append(row.r)
    med_full = float(np.median(by_band["fullband"]))
    med_theta = float(np.median(by_band["theta"]))
    med_beta = float(np.median(by_band["beta"]))
    checks.append(
        (f"driving band (theta {med_theta:.3f}) within 0.05 of fullband ({med_full:.3f})",
         abs(med_theta - med_full) <= 0.05)
    )
    checks.append((f"non-driving band (beta) median {med_beta:.3f} <= 0.2", med_beta <= 0.2))

    _verdict(6, "attribution constructions", t0, checks)


def _ar1_probe_session() -> Session:
    """AR(1) speed with throwaway EEG, for offset-curve symmetry checks."""
    rng = np.random.default_rng(7)
    n = 20000
    eps = rng.standard_normal(n)
    ar = np.empty(n)
    ar[0] = rng.standard_normal()
    for i in range(1, n):
        ar[i] = 0.9 * ar[i - 1] + eps[i]
    return Session(
        id="ar01_s01",
        rat_id="ar01",
        sample_rate_hz=100.0,
        eeg=rng.standard_normal((2, n)),
        speed=ar - ar.min(),
        region_map=("motor", "motor"),
        side_map=("left", "right"),
    )


def test_criterion_7_offset_protocol():
    t0 = time.monotonic()
    checks = []

    lead_fleet = generate_synthetic_fleet(
        FleetSpec(n_rats=2, sessions_per_rat=2, duration_s=40.0, encoding="lead",
                  lead_ms=500.0, noise_scale=0.3, speed_bias=1.0, seed=41)
    )
    plan = ExperimentPlan(decoder=LIN, train=CFG, strategy="single_80", master_seed=4)
    base = run_baseline(lead_fleet, plan)
    off = run_offset_analysis(
        lead_fleet, plan, offsets_ms=(0, 500), include_speed_rnn=True,
        include_autocorrelation=False,
    )
    zero_rows = sorted(
        (r for r in off.results if r.offset_ms == 0 and r.model == "linear"),
        key=lambda r: r.session_id,
    )
    base_rows = sorted(base.results, key=lambda r: r.session_id)
    checks.append(("offset-0 rows bitwise-equal to baseline rows", zero_rows == base_rows))

    eeg500 = [r.r for r in off.results if r.offset_ms == 500 and r.model == "linear"]
    spd500 = [r.r for r in off.results if r.offset_ms == 500 and r.model == "speed_rnn"]
    med_eeg, med_spd = float(np.median(eeg500)), float(np.median(spd500))
    checks.append(
        (f"lead-encoded eeg at +500 ms ({med_eeg:.3f}) > speed history ({med_spd:.3f})",
         med_eeg > med_spd)
    )

    rows = autocorrelation_results(_ar1_probe_session())
    by_offset = {r.offset_ms: r.r for r in rows}
    asym = max(abs(by_offset[k] - by_offset[-k]) for k in range(10, 1001, 10))
    checks.append((f"AR(1) autocorr +/- asymmetry {asym:.1e} <= 1e-3", asym <= 1e-3))
    checks.append(("autocorr at offset 0 is 1", by_offset[0] == 1.0))

    _verdict(7, "offset protocol", t0, checks)


def test_criterion_8_hygiene_and_reproducibility(tmp_path):
    t0 = time.monotonic()
    checks = []

    fleet = generate_synthetic_fleet(
        FleetSpec(n_rats=2, sessions_per_rat=2, n_channels=8, duration_s=20.0,
                  encoding="linear", noise_scale=0.3, speed_tau_s=0.5,
                  speed_bias=1.0, seed=81)
    )
    spec = DecoderSpec(family="linear", n_channels=8, lstm_hidden=16, head_hidden=(8,))
    cfg = TrainConfig(max_epochs=10, patience=4, learning_rate=3e-3)
    records = []
    for strategy in ("single_80", "single_10"):
        out = run_single_session(
            fleet[0], ExperimentPlan(decoder=spec, train=cfg, strategy=strategy, master_seed=8)
        )
        records.append(out.hygiene)
    for strategy in (
        "zeroshot_cross_session",
        "zeroshot_cross_subject",
        "finetune_cross_session",
        "finetune_cross_subject",
    ):
        tr = run_transfer(
            fleet, ExperimentPlan(decoder=spec, train=cfg, strategy=strategy, master_seed=8)
        )
        records.extend(tr.hygiene)

    for rec in records:
        check_no_test_leakage(rec)  # raises on any intersection
        assert rec.test_stop > rec.test_start
        # zero-shot target records fit nothing by design; every record must
        # still have evaluated inside a non-empty test range
        assert rec.test_target_indices.size
    strategies_seen = {rec.strategy for rec in records}
    checks.append(
        (f"leakage intersections empty across {len(records)} runs, "
         f"{len(strategies_seen)} strategies", len(strategies_seen) >= 6)
    )

    # The assertion must be live: a record doctored to fit on a test sample
    # has to raise.
    doctored = replace(records[0], fit_input_indices=np.array([records[0].test_start]))
    with pytest.raises(LeakageError):
        check_no_test_leakage(doctored)
    checks.append(("doctored record raises LeakageError", True))

    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(
        "run.seed = 8\n"
        "dataset.synthetic = true\n"
        "dataset.synthetic.n_rats = 2\n"
        "dataset.synthetic.sessions_per_rat = 2\n"
        "dataset.synthetic.n_channels = 8\n"
        "dataset.synthetic.duration_s = 20.0\n"
        "dataset.synthetic.speed_tau_s = 0.5\n"
        "dataset.synthetic.speed_bias = 1.0\n"
        "decoder.family = linear\n"
        "train.max_epochs = 10\n"
        "train.patience = 4\n"
        "train.learning_rate = 3e-3\n"
    )
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert entrypoint(["experiment", "--config", str(cfg_path), "--out", str(out1), "--jobs", "1"]) == 0
    assert entrypoint(["experiment", "--config", str(cfg_path), "--out", str(out2), "--jobs", "1"]) == 0
    same = (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()
    checks.append(("two serial same-seed runs produce bitwise-identical results tables", same))

    _verdict(8, "hygiene and reproducibility", t0, checks)


@pytest.mark.skipif(
    "LOCODEC_DATASET" not in os.environ,
    reason="long mode: set LOCODEC_DATASET to the converted-recordings directory",
)
def test_criterion_9_inclusion_gate_long_mode():
    t0 = time.monotonic()
    root = Path(os.environ["LOCODEC_DATASET"])
    paths = sorted(p for p in root.iterdir() if p.suffix in (".bin", ".csv"))
    sessions = [ingest_session(p) for p in paths]
    gate = apply_inclusion_gate(sessions, threshold=0.46)
    checks = [
        (f"{len(sessions)} sessions ingested == 276", len(sessions) == 276),
        (f"{len(gate.included)} retained at 0.46 == 225", len(gate.included) == 225),
    ]
    _verdict(9, "inclusion gate, long mode", t0, checks)
