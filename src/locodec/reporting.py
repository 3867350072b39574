"""Summary tables derived from a results table.

Everything here is a pure transformation from :class:`EvalResult` rows (or
session files, for spectra) to CSV text: per-variant medians with
bootstrapped confidence intervals, Friedman/Wilcoxon test outcomes with
Bonferroni adjustment, offset-curve summaries with a quadratic fit, and
speed-decile spectra. Bootstrap seeds are derived from the group labels, so
reports are reproducible from the results table alone.
"""

from __future__ import annotations

import numpy as np

from .dsp import aggregate_decile_spectra, speed_decile_spectra
from .protocols import EvalResult, derive_seed, table_text
from .stats import (
    PairedScores,
    bootstrap_median_ci,
    compare_variants,
    polyfit2,
)
from .errors import FitError

N_BOOT = 2000


def _group_key(res: EvalResult) -> tuple:
    return (res.strategy, res.region_set, res.band, res.offset_ms, res.model)


def _median_ci(values: list[float], seed_label: str) -> tuple[float, float, float]:
    arr = np.asarray(values, dtype=np.float64)
    if arr.size < 3:
        med = float(np.median(arr))
        return med, med, med
    return bootstrap_median_ci(arr, n_boot=N_BOOT, seed=derive_seed("report", seed_label))


def median_rows(results: list[EvalResult]) -> list[tuple]:
    """One row per variant in :data:`MEDIANS_COLUMNS` order."""
    groups: dict[tuple, list[EvalResult]] = {}
    for res in results:
        groups.setdefault(_group_key(res), []).append(res)
    rows = []
    for key in sorted(groups):
        members = groups[key]
        label = "|".join(str(k) for k in key)
        rows.append(
            (
                *key,
                len(members),
                *_median_ci([m.r for m in members], label + "|r"),
                *_median_ci([m.r2 for m in members], label + "|r2"),
            )
        )
    return rows


MEDIANS_COLUMNS = (
    "strategy",
    "region_set",
    "band",
    "offset_ms",
    "model",
    "n_sessions",
    "median_r",
    "ci_lo_r",
    "ci_hi_r",
    "median_r2",
    "ci_lo_r2",
    "ci_hi_r2",
)


def medians_csv_text(results, config_hash: str = "", seed: int = 0) -> str:
    return table_text(MEDIANS_COLUMNS, median_rows(results), config_hash, seed)


def variant_tests(results: list[EvalResult], metric: str = "r"):
    """Friedman omnibus plus Bonferroni-adjusted pairwise Wilcoxon outcomes
    for every (strategy, region_set, band, offset_ms) group holding at least
    two decoding variants over at least three shared sessions, yielded as
    (group, outcome) pairs. Autocorrelation rows are reference curves, not
    decoders, and are excluded. The speed-history reference (``speed_rnn``)
    reads no EEG, so its rows, labelled all/fullband, join every group of
    their strategy and offset once, and form their own group only where no
    EEG row shares that strategy and offset."""
    slots: dict[tuple, dict[str, dict[str, float]]] = {}
    speed_rows = []
    for res in results:
        if res.model == "autocorrelation":
            continue
        if res.model == "speed_rnn":
            speed_rows.append(res)
            continue
        ctx = (res.strategy, res.region_set, res.band, res.offset_ms)
        slots.setdefault(ctx, {}).setdefault(res.model, {})[res.session_id] = getattr(res, metric)
    eeg_ctxs = list(slots)
    for res in speed_rows:
        ctxs = [c for c in eeg_ctxs if (c[0], c[3]) == (res.strategy, res.offset_ms)]
        for ctx in ctxs or [(res.strategy, res.region_set, res.band, res.offset_ms)]:
            slots.setdefault(ctx, {}).setdefault(res.model, {})[res.session_id] = getattr(res, metric)
    for ctx in sorted(slots):
        table = slots[ctx]
        if len(table) < 2:
            continue
        scores = PairedScores.from_mapping(metric, table)
        if scores.table.shape[0] < 3:
            continue
        for outcome in compare_variants(scores):
            yield ctx, outcome


TESTS_COLUMNS = (
    "strategy", "region_set", "band", "offset_ms",
    "comparison", "metric", "statistic", "p_raw", "p_bonferroni", "n", "method",
)


def tests_csv_text(results, metric: str = "r", config_hash: str = "", seed: int = 0) -> str:
    rows = (
        (*ctx, t.comparison, t.metric, t.statistic, t.p_raw, t.p_adjusted, t.n, t.method)
        for ctx, t in variant_tests(results, metric)
    )
    return table_text(TESTS_COLUMNS, rows, config_hash, seed)


def offset_curve_rows(results: list[EvalResult]) -> tuple[list[tuple], list[tuple]]:
    """Per-model offset curves (median r with CI per offset) and quadratic
    fits r(offset_ms) for models spanning at least three distinct offsets,
    in :data:`CURVES_COLUMNS` and :data:`FITS_COLUMNS` order."""
    by_model: dict[str, dict[int, list[float]]] = {}
    for res in results:
        by_model.setdefault(res.model, {}).setdefault(res.offset_ms, []).append(res.r)
    curve_rows, fit_rows = [], []
    for model in sorted(by_model):
        offsets = sorted(by_model[model])
        medians = []
        for off in offsets:
            med, lo, hi = _median_ci(by_model[model][off], f"curve|{model}|{off}")
            medians.append(med)
            curve_rows.append((model, off, len(by_model[model][off]), med, lo, hi))
        if len(offsets) >= 3:
            try:
                c0, c1, c2 = polyfit2(np.asarray(offsets, dtype=np.float64), np.asarray(medians))
            except FitError:
                continue
            fit_rows.append((model, c0, c1, c2))
    return curve_rows, fit_rows


CURVES_COLUMNS = ("model", "offset_ms", "n_sessions", "median_r", "ci_lo_r", "ci_hi_r")
FITS_COLUMNS = ("model", "c0", "c1", "c2")


def curves_csv_text(results, config_hash: str = "", seed: int = 0) -> tuple[str, str]:
    curve_rows, fit_rows = offset_curve_rows(results)
    return (
        table_text(CURVES_COLUMNS, curve_rows, config_hash, seed),
        table_text(FITS_COLUMNS, fit_rows, config_hash, seed),
    )


SPECTRA_COLUMNS = ("decile", "freq_hz", "f_times_psd_mean", "f_times_psd_sem", "n_sessions")


def spectra_csv_text(sessions, config_hash: str = "", seed: int = 0) -> str:
    """Speed-decile f·P(f) spectra averaged across sessions.

    A decile that no session filled gets no rows, so the table can hold
    fewer than ten deciles: a session fills a decile only with a contiguous
    run of at least ``nfft`` samples in it (see :func:`speed_decile_spectra`),
    and on short sessions deciles 2-8 are often left empty."""
    agg = aggregate_decile_spectra([speed_decile_spectra(s) for s in sessions])
    rows = (
        (d + 1, f, agg.mean[d, j], agg.sem[d, j], int(agg.n_sessions[d]))
        for d in range(agg.mean.shape[0])
        if not np.all(np.isnan(agg.mean[d]))
        for j, f in enumerate(agg.frequencies)
    )
    return table_text(SPECTRA_COLUMNS, rows, config_hash, seed)
