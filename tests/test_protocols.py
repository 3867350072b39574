"""Orchestration-layer tests.

The expensive end-to-end constructions (transfer collapse, attribution
recovery, offset crossover) live in the acceptance suite; here we pin the
bookkeeping that makes those runs trustworthy: strategy-specific splits,
evaluation-count formulas, window trimming at nonzero offsets, leakage
assertions, seed derivation, identity configurations, and the results
table format.
"""

import pickle
import tracemalloc
import weakref
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from locodec import protocols
from locodec.decoders import DecoderSpec, new_decoder
from locodec.dsp import BAND_NAMES
from locodec.errors import DegenerateDataError, DivergenceError, FormatError, LeakageError, PlanError, SplitError
from locodec.protocols import (
    DEFAULT_OFFSETS_MS,
    STRATEGIES,
    EvalResult,
    ExperimentOutput,
    ExperimentPlan,
    HygieneRecord,
    UnitFailure,
    _map_jobs,
    _split_windows,
    autocorrelation_results,
    check_no_test_leakage,
    derive_seed,
    evaluate_saved,
    expected_evaluation_count,
    parse_results_csv,
    results_to_csv_text,
    run_band_analysis,
    run_baseline,
    run_offset_analysis,
    run_region_analysis,
    run_single_session,
    run_transfer,
    strategy_ranges,
    timings_to_csv_text,
    transfer_pairs,
)
from locodec.sessions import (
    REGIONS,
    WINDOW_LEN,
    fit_normalizer,
    offset_samples_for,
    speed_window_arrays,
    split_ranges,
    window_arrays,
)
from locodec.stats import r_squared
from locodec.synthetic import FleetSpec, generate_synthetic_fleet
from locodec.trainer import TrainConfig

from conftest import make_session

LIN = DecoderSpec(family="linear", n_channels=8)
FAST = TrainConfig(max_epochs=8, patience=3, learning_rate=3e-3)


def tiny_fleet(**kw):
    base = dict(n_rats=1, sessions_per_rat=1, n_channels=8, duration_s=20.0,
                encoding="linear", noise_scale=0.2, seed=0)
    base.update(kw)
    return generate_synthetic_fleet(FleetSpec(**base))


def result_fields(res: EvalResult) -> tuple:
    return (res.session_id, res.r, res.r2, res.n_test_windows, res.seed)


# ---------------------------------------------------------------------------
# plans, seeds, ranges


def test_plan_rejects_unknown_names():
    with pytest.raises(PlanError):
        ExperimentPlan(decoder=LIN, strategy="single_50")
    with pytest.raises(PlanError):
        ExperimentPlan(decoder=LIN, band="mu")
    with pytest.raises(PlanError):
        ExperimentPlan(decoder=LIN, region_set=("thalamus",))
    with pytest.raises(PlanError):
        ExperimentPlan(decoder=LIN, region_set=("motor", "motor"))


def test_region_label_and_cell_id():
    assert ExperimentPlan(decoder=LIN).region_label == "all"
    assert ExperimentPlan(decoder=LIN, region_set=tuple(REGIONS)).region_label == "all"
    assert ExperimentPlan(decoder=LIN, region_set=("visual", "motor")).region_label == "motor+visual"
    plan = ExperimentPlan(decoder=LIN, strategy="single_10", band="theta", offset_ms=-200)
    assert plan.cell_id == "single_10|linear|all|theta|-200"


def test_derive_seed_is_stable_and_order_sensitive():
    assert derive_seed("a", 1, "x") == derive_seed("a", 1, "x")
    assert derive_seed("a", 1, "x") != derive_seed("x", 1, "a")
    assert 0 <= derive_seed("anything") < 2**64


def test_identity_configurations_share_seeds():
    # all-regions explicit vs empty region set is the same cell, so every
    # derived job seed coincides and results reproduce bitwise.
    a = ExperimentPlan(decoder=LIN, region_set=tuple(REGIONS))
    b = ExperimentPlan(decoder=LIN, region_set=())
    assert a.cell_id == b.cell_id
    assert derive_seed(0, "s", a.cell_id, "init") == derive_seed(0, "s", b.cell_id, "init")


def test_strategy_ranges_single_80_matches_split():
    assert strategy_ranges("single_80", 4000) == split_ranges(4000)


def test_strategy_ranges_head_calibration():
    fit, val, test = strategy_ranges("single_10", 4000)
    assert fit == range(0, 400)
    assert val == range(400, 800)
    assert test == split_ranges(4000)[2]
    ft_fit, ft_val, ft_test = strategy_ranges("finetune_cross_subject", 4000)
    assert (ft_fit, ft_val, ft_test) == (fit, val, test)


def test_strategy_ranges_too_short_for_head_calibration():
    with pytest.raises(SplitError):
        strategy_ranges("single_10", 150)  # first 10% = 15 samples < one window


# ---------------------------------------------------------------------------
# window assembly at offsets


def _norm_session():
    (s,) = tiny_fleet(duration_s=40.0)
    return s


def _windows_of(session, rng, test, offset_ms, evaluate=False):
    """``_split_windows``' set as (starts, x, y, targets), its two ranges
    expanded to one start and one target per window of its stacks."""
    inputs, targets, x, y = _split_windows(session, rng, test, offset_ms, evaluate=evaluate)
    starts = np.arange(inputs.start, inputs.stop - WINDOW_LEN + 1, dtype=np.int64)
    targets = np.arange(targets.start, targets.stop, dtype=np.int64)
    assert len(starts) == len(targets) == len(x) == len(y)
    return starts, x, y, targets


def _mask_rule_windows(session, rng, test, offset_ms, evaluate=False):
    """The (starts, targets) of the windows of ``window_arrays`` over
    ``rng`` that the fitting or, with ``evaluate``, the evaluation target
    rule keeps, by a boolean mask over every window."""
    starts, _, _ = window_arrays(session, rng, offset_ms)
    targets = starts + WINDOW_LEN - 1 + offset_samples_for(offset_ms)
    if evaluate:
        keep = (targets >= test.start + WINDOW_LEN - 1) & (targets < test.stop)
    else:
        keep = (targets < test.start) | (targets >= test.stop)
    return starts[keep], targets[keep]


@pytest.mark.parametrize("offset_ms", [-500, -100, 0, 100, 500])
def test_eval_window_trimming_is_exact(offset_ms):
    session = _norm_session()
    _, _, test = split_ranges(session.n_samples)
    starts0, _, _, targets0 = _windows_of(session, test, test, 0, evaluate=True)
    starts, _, _, targets = _windows_of(session, test, test, offset_ms, evaluate=True)
    lost = abs(offset_ms) // 10
    assert starts.size == starts0.size - lost
    assert np.all(targets >= test.start + WINDOW_LEN - 1)
    assert np.all(targets < test.stop)
    # evaluated targets are a subset of the offset-0 targets
    assert np.all(np.isin(targets, targets0))


@pytest.mark.parametrize("offset_ms", [-300, 0, 300])
def test_fit_windows_never_target_the_test_range(offset_ms):
    session = _norm_session()
    fit, val, test = split_ranges(session.n_samples)
    for rng in (fit, val):
        starts, x, y, targets = _windows_of(session, rng, test, offset_ms)
        assert starts.size > 0
        assert not np.any((targets >= test.start) & (targets < test.stop))
        assert x.shape[1:] == (WINDOW_LEN, session.n_channels)
        np.testing.assert_array_equal(y, session.speed[targets])


@pytest.mark.parametrize("offset_ms", [-500, 0, 500])
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_split_windows_are_views_of_the_mask_rule_windows(monkeypatch, strategy, offset_ms):
    """Each split keeps the windows the target rule's mask picks, bitwise,
    as a view of the stack it looked up as ``protocols.window_arrays``
    rather than a copy."""
    session = _norm_session()
    fit, val, test = strategy_ranges(strategy, session.n_samples)
    k = offset_samples_for(offset_ms)
    made = []

    def spy_window_arrays(s, r, off):
        made.append(window_arrays(s, r, off))
        return made[-1]

    monkeypatch.setattr(protocols, "window_arrays", spy_window_arrays)
    for rng, evaluate in ((fit, False), (val, False), (test, True)):
        made.clear()
        got = _windows_of(session, rng, test, offset_ms, evaluate=evaluate)
        (src_starts, src_x, src_y), = made
        src_targets = src_starts + WINDOW_LEN - 1 + k
        if evaluate:
            keep = (src_targets >= test.start + WINDOW_LEN - 1) & (src_targets < test.stop)
        else:
            keep = (src_targets < test.start) | (src_targets >= test.stop)
        assert got[0].size > 0
        for a, b in zip(got, (src_starts, src_x, src_y, src_targets)):
            assert a.shape == b[keep].shape and a.tobytes() == b[keep].tobytes()
        assert np.shares_memory(got[1], src_x)


# ---------------------------------------------------------------------------
# hygiene records


def _record(**kw):
    base = dict(
        session_id="s",
        strategy="single_80",
        test_start=100,
        test_stop=200,
        fit_inputs=(range(0, 80),),
        fit_targets=(range(19, 80),),
        test_inputs=range(100, 200),
        test_targets=range(119, 200),
    )
    base.update(kw)
    return HygieneRecord(**base)


def _expand(spans):
    """The sorted, de-duplicated int64 samples of ``spans``."""
    return np.unique(np.concatenate([np.empty(0, dtype=np.int64), *(np.arange(r.start, r.stop) for r in spans)]))


def test_leakage_clean_record_passes():
    check_no_test_leakage(_record())


def test_leakage_detects_fit_input_in_test_range():
    with pytest.raises(LeakageError, match=r"fitting input samples range\(150, 151\) inside"):
        check_no_test_leakage(_record(fit_inputs=(range(50, 51), range(150, 151))))


def test_leakage_detects_fit_target_in_test_range():
    with pytest.raises(LeakageError, match="fitting target"):
        check_no_test_leakage(_record(fit_targets=(range(199, 200),)))


def test_leakage_detects_eval_escaping_test_range():
    with pytest.raises(LeakageError, match="leave the test range"):
        check_no_test_leakage(_record(test_targets=range(150, 206)))


def _array_rule_flags(rec):
    """The audit as it was over index arrays: a fitting sample (input or
    target) in the test range, or an evaluated sample outside it."""
    test = np.arange(rec.test_start, rec.test_stop)
    fit = [np.arange(r.start, r.stop) for r in (*rec.fit_inputs, *rec.fit_targets)]
    evaluated = [np.arange(r.start, r.stop) for r in (rec.test_inputs, rec.test_targets)]
    return any(np.isin(a, test).any() for a in fit) or any((~np.isin(a, test)).any() for a in evaluated)


_SPAN = st.builds(lambda start, n: range(start, start + n), st.integers(0, 60), st.integers(0, 12))


@settings(max_examples=300, deadline=None)
@given(
    test_start=st.integers(0, 40),
    n_test=st.integers(1, 20),
    fit_inputs=st.lists(_SPAN, max_size=3),
    fit_targets=st.lists(_SPAN, max_size=2),
    test_inputs=_SPAN,
    test_targets=_SPAN,
)
# fit ranges that end at test_start (clean) or at test_start + 1 (one sample in)
@example(test_start=20, n_test=10, fit_inputs=[range(0, 20)], fit_targets=[], test_inputs=range(20, 30),
         test_targets=range(25, 30))
@example(test_start=20, n_test=10, fit_inputs=[range(0, 21)], fit_targets=[], test_inputs=range(20, 30),
         test_targets=range(25, 30))
@example(test_start=20, n_test=10, fit_inputs=[], fit_targets=[range(5, 20)], test_inputs=range(20, 30),
         test_targets=range(25, 30))
@example(test_start=20, n_test=10, fit_inputs=[], fit_targets=[range(5, 21)], test_inputs=range(20, 30),
         test_targets=range(25, 30))
# test ranges that stop at test_stop (clean) or at test_stop + 1 (one sample out)
@example(test_start=20, n_test=10, fit_inputs=[], fit_targets=[], test_inputs=range(20, 30),
         test_targets=range(25, 30))
@example(test_start=20, n_test=10, fit_inputs=[], fit_targets=[], test_inputs=range(20, 31),
         test_targets=range(25, 30))
@example(test_start=20, n_test=10, fit_inputs=[], fit_targets=[], test_inputs=range(20, 30),
         test_targets=range(25, 31))
def test_range_audit_flags_exactly_what_the_array_rule_flags(
    test_start, n_test, fit_inputs, fit_targets, test_inputs, test_targets
):
    rec = _record(
        test_start=test_start,
        test_stop=test_start + n_test,
        fit_inputs=tuple(fit_inputs),
        fit_targets=tuple(fit_targets),
        test_inputs=test_inputs,
        test_targets=test_targets,
    )
    try:
        check_no_test_leakage(rec)
        raised = False
    except LeakageError:
        raised = True
    assert raised == _array_rule_flags(rec)


@pytest.mark.parametrize(
    "strategy, fits_normalizer, offset_ms",
    [
        ("single_80", True, 0),
        ("single_80", True, -1000),
        ("single_10", True, 0),
        ("zeroshot_cross_session", False, 0),
        ("finetune_cross_session", True, 0),
        ("finetune_cross_session", True, -1000),
    ],
)
def test_hygiene_records_the_normalizer_fit_range(strategy, fits_normalizer, offset_ms):
    # A normalizer fit on the session is a fitted quantity: its range must
    # be audited like training inputs. Single-session and fine-tune units
    # fit one; a zero-shot unit reuses the source normalizer, fits nothing
    # on the target, and so records no inputs.
    # At a negative offset the first inputs of the fit range feed no
    # window (their targets fall before sample 0), so only the normalizer
    # range itself can cover them.
    sessions = tiny_fleet(n_rats=1, sessions_per_rat=2, duration_s=30.0)
    plan = ExperimentPlan(decoder=LIN, train=FAST, strategy=strategy, offset_ms=offset_ms)
    n = sessions[0].n_samples
    if strategy.startswith("single"):
        records = [run_single_session(sessions[0], plan).hygiene]
        norm_range = strategy_ranges(strategy, n)[0]
    else:
        records = run_transfer(sessions, plan).hygiene[len(sessions) :]  # the pair units
        norm_range = strategy_ranges("single_10", n)[0]
    assert len(records) >= 1
    for rec in records:
        if fits_normalizer:
            assert rec.fit_inputs[0] == norm_range
        else:
            assert rec.fit_inputs == ()


def _broadcast_input_indices(starts):
    if starts.size == 0:
        return np.empty(0, dtype=np.int64)
    return np.unique(starts[:, None] + np.arange(WINDOW_LEN)[None, :])


def _broadcast_record_arrays(fit_sets, test_set, norm_range):
    """A unit's four hygiene arrays, built from the (starts, targets) of its
    window sets the way the audit built them before it relied on each set
    being one contiguous run: every window's WINDOW_LEN input indices,
    broadcast and de-duplicated."""
    empty = np.empty(0, dtype=np.int64)
    return (
        np.union1d(
            _broadcast_input_indices(np.concatenate([empty, *(f[0] for f in fit_sets)])),
            np.arange(norm_range.start, norm_range.stop),
        ),
        np.unique(np.concatenate([empty, *(f[1] for f in fit_sets)])),
        _broadcast_input_indices(test_set[0]),
        np.unique(test_set[1]),
    )


@pytest.mark.parametrize("offset_ms", [-500, 0, 500])
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_hygiene_arrays_equal_the_broadcast_construction(monkeypatch, strategy, offset_ms):
    """Each record's ranges, expanded to samples, are bitwise the arrays of
    the per-window broadcast construction over the windows that the mask
    rule keeps of each set's ``window_arrays`` stack."""
    references, unit = [], {"fit_sets": [], "norm_range": range(0)}
    split_windows, fit_norm = protocols._split_windows, protocols.fit_normalizer

    def spy_fit_normalizer(s, rng):
        unit["norm_range"] = rng
        return fit_norm(s, rng)

    def spy_split_windows(prep, rng, test, offset_ms, evaluate=False):
        kept = _mask_rule_windows(prep, rng, test, offset_ms, evaluate)
        if not evaluate:
            unit["fit_sets"].append(kept)
        else:  # a unit's test set is its last
            references.append(_broadcast_record_arrays(unit["fit_sets"], kept, unit["norm_range"]))
            unit.update(fit_sets=[], norm_range=range(0))
        return split_windows(prep, rng, test, offset_ms, evaluate)

    monkeypatch.setattr(protocols, "fit_normalizer", spy_fit_normalizer)
    monkeypatch.setattr(protocols, "_split_windows", spy_split_windows)
    sessions = tiny_fleet(n_rats=2, sessions_per_rat=2, duration_s=30.0, speed_bias=1.0)
    plan = ExperimentPlan(decoder=LIN, train=TrainConfig(max_epochs=1), strategy=strategy, offset_ms=offset_ms)
    if strategy.startswith("single"):
        records = [run_single_session(s, plan).hygiene for s in sessions]
    else:
        records = run_transfer(sessions, plan).hygiene
    assert len(records) == len(references) >= len(sessions)
    for rec, ref in zip(records, references):
        got = (_expand(rec.fit_inputs), _expand(rec.fit_targets), _expand([rec.test_inputs]), _expand([rec.test_targets]))
        for a, b in zip(got, ref):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_a_long_unit_audits_without_per_window_indices():
    """One single_80 linear unit over 173,000 samples (about 29 min) of 2
    channels, with no training epochs. Its audit holds a few sample ranges,
    not every window's WINDOW_LEN indices, so the unit's traced peak stays
    below 30 MB (about 60 MB with per-window indices) and its record
    pickles to a few hundred bytes."""
    session = make_session(n_channels=2, n_samples=173_000)
    plan = ExperimentPlan(decoder=DecoderSpec(family="linear", n_channels=2), train=TrainConfig(max_epochs=0))
    tracemalloc.start()
    try:
        run = run_single_session(session, plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 30e6, f"peak {peak / 1e6:.1f} MB"
    assert len(pickle.dumps(run.hygiene)) < 1000


# Cells whose fitted quantities move with the target's test-range data:
# band_isolate filters the whole session with a zero-phase filter before the
# split, so test-range EEG reaches the fit and validation windows (ROADMAP
# item 2). single_80 validates on the samples just before the test range; the
# head strategies fit on the first 20%, which only delta's long response reaches.
_TEST_RANGE_LEAKS = {("single_80", b) for b in BAND_NAMES if b != "fullband"} | {
    (s, "delta") for s in ("single_10", "finetune_cross_session", "finetune_cross_subject")
}


def _fitted_quantities(run):
    report = None if run.report is None else run.report.to_jsonl()
    return run.decoder.checksum(), run.normalizer.mean.tobytes(), run.normalizer.std.tobytes(), report


_LEAKS_TODAY = pytest.mark.xfail(strict=True, reason="ROADMAP item 2")


@pytest.mark.parametrize(
    "strategy, band_name",
    [
        pytest.param(s, b, marks=_LEAKS_TODAY if (s, b) in _TEST_RANGE_LEAKS else ())
        for s in STRATEGIES
        for b in BAND_NAMES
    ],
)
def test_the_test_range_reaches_no_fitted_quantity(strategy, band_name):
    """Changing a target session's test-range EEG and speed leaves the
    unit's fitted decoder, its normalizer and its training history bitwise
    unchanged. A transfer unit is scored on the first canonical pair's
    target, with the source trained once."""
    sessions = tiny_fleet(n_rats=2, sessions_per_rat=2, duration_s=30.0, speed_bias=1.0)
    plan = ExperimentPlan(decoder=LIN, train=FAST, strategy=strategy, band=band_name)
    if strategy.startswith("single"):
        source, target = None, sessions[0]
    else:
        source, target = transfer_pairs(sessions, strategy)[0]
    test = strategy_ranges(strategy, target.n_samples)[2]
    eeg, speed = target.eeg.copy(), target.speed.copy()
    eeg[:, test.start : test.stop] += np.random.default_rng(1).normal(size=(target.n_channels, len(test)))
    speed[test.start : test.stop] *= 2.0
    perturbed = replace(target, eeg=eeg, speed=speed)
    if source is None:
        runs = [run_single_session(t, plan) for t in (target, perturbed)]
    else:
        src = run_single_session(source, replace(plan, strategy="single_80"))
        unit = protocols._transfer_unit
        runs = [unit(source.id, src.decoder, src.normalizer, t, plan) for t in (target, perturbed)]
    assert _fitted_quantities(runs[0]) == _fitted_quantities(runs[1])


def test_a_band_unit_frees_its_unnormalized_copy_before_fitting(monkeypatch):
    """A band unit filters a copy of the session; only the normalized copy
    is held while the decoder trains."""
    copies, alive_at_fit = [], []
    normalized_session, train = protocols.normalized_session, protocols.train

    def spy_normalized_session(s, norm):
        copies.append(weakref.ref(s))
        return normalized_session(s, norm)

    def spy_train(*args, **kwargs):
        alive_at_fit.append([ref() is not None for ref in copies])
        return train(*args, **kwargs)

    monkeypatch.setattr(protocols, "normalized_session", spy_normalized_session)
    monkeypatch.setattr(protocols, "train", spy_train)
    (session,) = tiny_fleet(speed_bias=1.0)
    run_single_session(session, ExperimentPlan(decoder=LIN, train=TrainConfig(max_epochs=1), band="theta"))
    assert alive_at_fit == [[False]]


# ---------------------------------------------------------------------------
# the speed-history reference


@pytest.mark.parametrize("offset_ms", [-500, 0, 500])
@pytest.mark.parametrize("band_name, region_set", [("fullband", ()), ("theta", ("visual",))])
def test_speed_reference_is_an_eeg_unit_over_the_speed_trace(monkeypatch, band_name, region_set, offset_ms):
    """The reference reads windows of the speed trace z-scored on its fit
    range, unfiltered in any band, and is scored against the recorded speed
    at the window targets; its row is all/fullband with the EEG cell's seed."""
    evaluated = []
    split_windows = protocols._split_windows

    def spy_split_windows(prep, rng, test, offset_ms, evaluate=False):
        got = split_windows(prep, rng, test, offset_ms, evaluate)
        if evaluate:
            evaluated.append(got)
        return got

    monkeypatch.setattr(protocols, "_split_windows", spy_split_windows)
    (session,) = tiny_fleet(duration_s=30.0, speed_bias=1.0)
    spec = DecoderSpec(family="linear", n_channels=8, lstm_hidden=4, head_hidden=(4,))
    plan = ExperimentPlan(
        decoder=spec, train=TrainConfig(max_epochs=1), band=band_name, region_set=region_set, offset_ms=offset_ms
    )
    run = protocols._speed_reference(session, plan)
    ((_, targets, x, y),) = evaluated
    targets = np.arange(targets.start, targets.stop, dtype=np.int64)

    fit, _, test = strategy_ranges("single_80", session.n_samples)
    chunk = session.speed[fit.start : fit.stop]
    z = (session.speed - chunk.mean()) / chunk.std()
    ref_starts, ref_x, _ = speed_window_arrays(z, test, offset_ms)
    ref_targets = ref_starts + WINDOW_LEN - 1 + offset_samples_for(offset_ms)
    keep = (ref_targets >= test.start + WINDOW_LEN - 1) & (ref_targets < test.stop)
    assert x.shape == ref_x[keep].shape and x.tobytes() == ref_x[keep].tobytes()
    assert targets.tobytes() == ref_targets[keep].tobytes()
    assert y.tobytes() == session.speed[targets].tobytes()

    pred = run.decoder.predict_batch(x)
    res = run.result
    assert res.r == protocols._safe_r(pred, session.speed[targets])
    assert res.r2 == r_squared(pred, session.speed[targets])
    assert (res.model, res.region_set, res.band, res.offset_ms) == ("speed_rnn", "all", "fullband", offset_ms)
    assert res.seed == derive_seed(plan.master_seed, session.id, plan.cell_id, "init")


# ---------------------------------------------------------------------------
# single-session runs


def test_single_session_result_row_and_hygiene():
    (session,) = tiny_fleet(duration_s=40.0)
    plan = ExperimentPlan(decoder=LIN, train=FAST, master_seed=3)
    out = run_single_session(session, plan)
    assert out.result.session_id == session.id
    assert out.result.model == "linear"
    assert -1.0 <= out.result.r <= 1.0
    assert out.result.n_test_windows == 381
    assert out.report is not None
    rec = out.hygiene
    test_set = np.arange(rec.test_start, rec.test_stop)
    assert np.intersect1d(_expand(rec.fit_inputs), test_set).size == 0
    assert np.intersect1d(_expand(rec.fit_targets), test_set).size == 0


def test_single_session_rejects_transfer_strategies():
    (session,) = tiny_fleet()
    plan = ExperimentPlan(decoder=LIN, train=FAST, strategy="zeroshot_cross_session")
    with pytest.raises(PlanError):
        run_single_session(session, plan)


def test_mean_predictor_has_zero_r_squared():
    y = np.array([0.4, 1.2, 0.9, 2.2, 0.1])
    pred = np.full_like(y, y.mean())
    assert r_squared(pred, y) == 0.0


def test_constant_test_speed_is_a_data_defect():
    import dataclasses

    (session,) = tiny_fleet(duration_s=40.0)
    flat = dataclasses.replace(session, speed=np.full(session.n_samples, 1.5))
    plan = ExperimentPlan(decoder=LIN, train=FAST)
    with pytest.raises(DegenerateDataError):
        run_single_session(flat, plan)


def _seed3_fleet():
    # rat01_s01's test speed is constant on this fleet (default speed_bias)
    return generate_synthetic_fleet(FleetSpec(seed=3, n_channels=8, duration_s=20.0))


def test_a_data_defect_fails_its_unit_and_the_grid_runs():
    sessions = _seed3_fleet()
    plan = ExperimentPlan(decoder=LIN, train=TrainConfig(max_epochs=1))
    out = run_baseline(sessions, plan)
    assert [r.session_id for r in out.results] == [s.id for s in sessions[1:]]
    assert len(out.hygiene) == len(out.timings) == len(sessions) - 1
    assert out.failures == [
        ("single", "rat01_s01", plan.cell_id, "DegenerateDataError", "test speed trace is constant")
    ]


def test_a_failed_transfer_source_fails_each_of_its_pairs():
    sessions = _seed3_fleet()
    plan = ExperimentPlan(decoder=LIN, train=TrainConfig(max_epochs=1), strategy="finetune_cross_session")
    out = run_transfer(sessions, plan, jobs=2)
    failed = {(kind, unit) for kind, unit, *_ in out.failures}
    # rat01_s02 trains, but its pair scores the defective rat01_s01 segment
    assert failed == {("train", "rat01_s01"), ("pair", "rat01_s01->rat01_s02"), ("pair", "rat01_s02->rat01_s01")}
    assert out.failures[1][3:] == ("DegenerateDataError", "source rat01_s01 failed: test speed trace is constant")
    assert sorted((r.source_id, r.session_id) for r in out.pairs) == [
        ("rat02_s01", "rat02_s02"), ("rat02_s02", "rat02_s01"), ("rat03_s01", "rat03_s02"), ("rat03_s02", "rat03_s01")
    ]
    assert [r.session_id for r in out.results] == ["rat02_s01", "rat02_s02", "rat03_s01", "rat03_s02"]


def _raise(exc):
    raise exc


def test_only_unit_errors_are_recorded():
    out = ExperimentOutput([], [], [])
    runs = _map_jobs(out, [("single", "u1", "cell", _raise, (DivergenceError(3, 0.1),))], 1)
    assert runs == [UnitFailure("DivergenceError", "non-finite training loss at epoch 3 (lr=0.1)")]
    assert out.failures == [("single", "u1", "cell", *astuple(runs[0]))]
    for exc in (LeakageError("leak"), SplitError("short"), ValueError("bug")):
        with pytest.raises(type(exc)):
            _map_jobs(out, [("single", "u2", "cell", _raise, (exc,))], 1)


@pytest.mark.parametrize(
    "run",
    [
        lambda sessions, plan: run_region_analysis(sessions, plan, include_pairs=False, jobs=2),
        lambda sessions, plan: run_band_analysis(sessions, plan, bands=("fullband", "theta"), jobs=2),
        lambda sessions, plan: run_offset_analysis(sessions, plan, offsets_ms=(0, 100), jobs=2),
    ],
    ids=["regions", "bands", "offsets"],
)
def test_a_grid_kind_starts_one_worker_pool(monkeypatch, run):
    """Every cell of the grid goes through one _map_jobs call, so one pool."""
    started = []

    class CountingPool(protocols.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            started.append(kwargs)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(protocols, "ProcessPoolExecutor", CountingPool)
    sessions = tiny_fleet(sessions_per_rat=2)
    out = run(sessions, ExperimentPlan(decoder=LIN, train=TrainConfig(max_epochs=1)))
    assert len(out.timings) >= 2 * len(sessions)  # two cells or more
    assert started == [{"max_workers": 2}]


@pytest.mark.parametrize(
    "run",
    [
        lambda sessions, plan, jobs: run_region_analysis(sessions, plan, include_pairs=False, jobs=jobs),
        lambda sessions, plan, jobs: run_band_analysis(sessions, plan, bands=("fullband", "theta"), jobs=jobs),
        lambda sessions, plan, jobs: run_offset_analysis(sessions, plan, offsets_ms=(-100, 0, 100), jobs=jobs),
        lambda sessions, plan, jobs: run_transfer(
            sessions, replace(plan, strategy="finetune_cross_session"), jobs=jobs
        ),
    ],
    ids=["regions", "bands", "offsets", "finetune"],
)
def test_hygiene_records_agree_across_worker_counts(run):
    """The audit is part of a run's output: --jobs 2 and --jobs 1 give equal
    records, in the same order."""
    sessions = tiny_fleet(n_rats=1, sessions_per_rat=2, speed_bias=1.0)
    plan = ExperimentPlan(decoder=LIN, train=TrainConfig(max_epochs=1))
    serial = run(sessions, plan, 1).hygiene
    assert len(serial) >= 2 * len(sessions)
    assert run(sessions, plan, 2).hygiene == serial


def test_single_10_trains_on_less_data_than_single_80():
    # Data-scaling direction, in expectation over seeds: the first-10%
    # calibration model cannot beat the 80% model on average.
    diffs = []
    for seed in range(10):
        (session,) = tiny_fleet(duration_s=30.0, noise_scale=1.2, speed_bias=1.0, seed=seed)
        cfg = TrainConfig(max_epochs=25, patience=8, learning_rate=3e-3)
        r80 = run_single_session(session, ExperimentPlan(decoder=LIN, train=cfg)).result.r
        r10 = run_single_session(
            session, ExperimentPlan(decoder=LIN, train=cfg, strategy="single_10")
        ).result.r
        diffs.append(r80 - r10)
    assert np.mean(diffs) > 0.0


def test_evaluate_saved_reproduces_training_row_at_offset_zero():
    (session,) = tiny_fleet(duration_s=40.0)
    plan = ExperimentPlan(decoder=LIN, train=FAST, master_seed=9)
    out = run_single_session(session, plan)
    again = evaluate_saved(out.decoder, out.normalizer, session, plan)
    assert result_fields(again) == result_fields(out.result)


def test_clip_nonnegative_flag():
    """Every prediction of a unit is clipped at 0 before scoring when the
    plan asks for it, and scored as is otherwise."""
    (session,) = tiny_fleet()
    d = new_decoder(LIN)
    d.params["head.w0"].data[:] = 0.0
    d.params["head.b0"].data[:] = -1.5
    norm = fit_normalizer(session, range(0, 100))
    test = strategy_ranges("single_80", session.n_samples)[2]
    y = session.speed[test.start + WINDOW_LEN - 1 : test.stop]
    for clip, pred in ((False, -1.5), (True, 0.0)):
        res = evaluate_saved(d, norm, session, ExperimentPlan(decoder=LIN, clip_nonnegative=clip))
        assert res.n_test_windows == y.size
        assert res.r == 0.0  # a constant prediction
        assert res.r2 == r_squared(np.full(y.size, pred), y)


# ---------------------------------------------------------------------------
# transfer bookkeeping


def test_evaluation_count_formulas_from_roster():
    assert expected_evaluation_count([3, 2], "zeroshot_cross_session") == 8
    assert expected_evaluation_count([3, 2], "finetune_cross_session") == 8
    assert expected_evaluation_count([3, 2], "zeroshot_cross_subject") == 12
    assert expected_evaluation_count([3, 2], "finetune_cross_subject") == 12
    with pytest.raises(PlanError):
        expected_evaluation_count([3, 2], "single_80")


@given(
    counts=st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=5),
)
@settings(max_examples=50, deadline=None)
def test_evaluation_counts_match_brute_force(counts):
    total = sum(counts)
    cross_session = sum(n * (n - 1) for n in counts)
    cross_subject = sum(n * (total - n) for n in counts)
    assert expected_evaluation_count(counts, "zeroshot_cross_session") == cross_session
    assert expected_evaluation_count(counts, "zeroshot_cross_subject") == cross_subject
    assert cross_session + cross_subject == total * (total - 1)


def test_transfer_pairs_partition_all_ordered_pairs():
    sessions = tiny_fleet(n_rats=3, sessions_per_rat=2, duration_s=20.0)
    cs = transfer_pairs(sessions, "zeroshot_cross_session")
    xs = transfer_pairs(sessions, "zeroshot_cross_subject")
    assert len(cs) == expected_evaluation_count([2, 2, 2], "zeroshot_cross_session")
    assert len(xs) == expected_evaluation_count([2, 2, 2], "zeroshot_cross_subject")
    all_pairs = {(a.id, b.id) for a, b in cs} | {(a.id, b.id) for a, b in xs}
    assert len(all_pairs) == 6 * 5
    for a, b in cs:
        assert a.rat_id == b.rat_id and a.id != b.id
    for a, b in xs:
        assert a.rat_id != b.rat_id


def test_transfer_pairs_too_small_roster():
    sessions = tiny_fleet(n_rats=1, sessions_per_rat=1)
    with pytest.raises(PlanError):
        transfer_pairs(sessions, "zeroshot_cross_subject")


def test_single_source_aggregation_is_identity():
    sessions = tiny_fleet(n_rats=1, sessions_per_rat=2, duration_s=30.0)
    plan = ExperimentPlan(
        decoder=LIN, train=FAST, strategy="zeroshot_cross_session", master_seed=2
    )
    out = run_transfer(sessions, plan)
    assert len(out.pairs) == 2
    pair_by_target = {r.session_id: r for r in out.pairs}
    for agg in out.results:
        assert agg.r == pair_by_target[agg.session_id].r
        assert agg.r2 == pair_by_target[agg.session_id].r2
        assert agg.source_id == ""
    assert {r.source_id for r in out.pairs} == {s.id for s in sessions}


def test_run_transfer_rejects_single_strategies():
    sessions = tiny_fleet(n_rats=1, sessions_per_rat=2)
    with pytest.raises(PlanError):
        run_transfer(sessions, ExperimentPlan(decoder=LIN, train=FAST))


# ---------------------------------------------------------------------------
# attribution and offsets: identity configurations


def test_all_regions_cell_reproduces_baseline_bitwise():
    (session,) = tiny_fleet(duration_s=40.0)
    base = run_single_session(session, ExperimentPlan(decoder=LIN, train=FAST, master_seed=7))
    allr = run_single_session(
        session,
        ExperimentPlan(decoder=LIN, train=FAST, master_seed=7, region_set=tuple(REGIONS)),
    )
    assert result_fields(base.result) == result_fields(allr.result)
    assert base.decoder.checksum() == allr.decoder.checksum()


def test_fullband_cell_reproduces_baseline_bitwise():
    sessions = tiny_fleet(duration_s=40.0)
    plan = ExperimentPlan(decoder=LIN, train=FAST, master_seed=7)
    base = run_baseline(sessions, plan)
    bands = run_band_analysis(sessions, plan, bands=("fullband",))
    assert [result_fields(r) for r in bands.results] == [result_fields(r) for r in base.results]
    assert bands.band_energies[0][1] == "fullband"


def test_region_analysis_skips_sessions_without_the_region():
    sessions = tiny_fleet(n_channels=2, duration_s=40.0)  # only medial_prefrontal present
    plan = ExperimentPlan(decoder=DecoderSpec(family="linear", n_channels=2), train=FAST)
    out = run_region_analysis(sessions, plan, include_pairs=False)
    ran_cells = {r.region_set for r in out.results}
    assert ran_cells == {"medial_prefrontal"}
    skipped_cells = {cell for _, cell in out.skipped}
    assert skipped_cells == {"motor", "somatomotor", "visual"}


def test_region_channel_subset_shrinks_input_width():
    (session,) = tiny_fleet(n_channels=8, duration_s=40.0)
    plan = ExperimentPlan(decoder=LIN, train=FAST, region_set=("motor",))
    out = run_single_session(session, plan)
    # 8 channels cycle mpfc,mpfc,smc,smc,motor,motor,visual,visual
    assert out.decoder.spec.n_channels == 2


def test_autocorrelation_rows_shape_and_symmetry():
    (session,) = tiny_fleet(duration_s=30.0)
    rows = autocorrelation_results(session)
    offsets = [r.offset_ms for r in rows]
    assert offsets == list(range(-1000, 1010, 10))
    by_off = {r.offset_ms: r for r in rows}
    assert by_off[0].r == 1.0
    for k in (10, 250, 990):
        assert by_off[k].r == by_off[-k].r
        assert by_off[k].r2 == pytest.approx(by_off[k].r ** 2)
        assert by_off[k].n_test_windows == session.n_samples - k // 10
        assert by_off[k].model == "autocorrelation"


# ---------------------------------------------------------------------------
# results table round-trips


def _some_rows():
    return [
        EvalResult("r1_s1", "r1", "single_80", "all", "fullband", 0, "linear",
                   0.5, 0.25, 100, 7),
        EvalResult("r1_s2", "r1", "single_80", "all", "fullband", 0, "linear",
                   -0.125, -0.39, 100, 8),
        EvalResult("r1_s1", "r1", "single_80", "all", "theta", -500, "lstm_rnn",
                   0.875, 0.75, 50, 9),
    ]


def test_results_csv_roundtrip_and_header():
    text = results_to_csv_text(_some_rows(), config_hash="abc123", master_seed=4)
    lines = text.splitlines()
    assert lines[0] == "# config_hash=abc123 seed=4"
    assert lines[1].startswith("session_id,rat_id,strategy,")
    assert lines[1].endswith(",n_test_windows,seed")
    parsed = parse_results_csv(text)
    assert sorted(parsed, key=lambda r: (r.model, r.session_id)) == sorted(
        _some_rows(), key=lambda r: (r.model, r.session_id)
    )


def test_results_csv_row_order_is_canonical():
    rows = _some_rows()
    assert results_to_csv_text(rows) == results_to_csv_text(rows[::-1])


def test_results_csv_floats_roundtrip_exactly():
    rows = [
        EvalResult("a_s1", "a", "single_80", "all", "fullband", 0, "linear",
                   0.12345678901234567, -0.9876543210987654, 3, 1)
    ]
    (parsed,) = parse_results_csv(results_to_csv_text(rows))
    assert parsed.r == rows[0].r
    assert parsed.r2 == rows[0].r2


def test_parse_rejects_foreign_header():
    with pytest.raises(FormatError):
        parse_results_csv("a,b,c\n1,2,3\n")
    # tables from before the always-zero wall_time_s column was dropped
    old = results_to_csv_text(_some_rows()).splitlines()
    old[1] += ",wall_time_s"
    with pytest.raises(FormatError, match="header"):
        parse_results_csv("\n".join(old[:2] + [row + ",0.0" for row in old[2:]]) + "\n")


def test_parse_rejects_field_count_mismatch():
    good = results_to_csv_text([], config_hash="x", master_seed=0)
    with pytest.raises(FormatError, match="fields"):
        parse_results_csv(good + "a,b,c\n")


def test_timings_csv_shape():
    text = timings_to_csv_text([("single:s1:cell", 1.25), ("pair:s1->s2:cell", 0.5)])
    lines = text.splitlines()
    assert lines[0] == "label,wall_time_s"
    assert lines[1] == "single:s1:cell,1.25"


def test_eval_result_validation():
    with pytest.raises(ValueError):
        EvalResult("s", "r", "single_80", "all", "fullband", 0, "linear", 1.5, 0.2, 10, 0)
    with pytest.raises(ValueError):
        EvalResult("s", "r", "single_80", "all", "fullband", 0, "linear", 0.5, 1.2, 10, 0)
    with pytest.raises(ValueError):
        EvalResult("s", "r", "single_80", "all", "fullband", 0, "linear", 0.5, 0.2, 0, 0)


def test_default_offsets_cover_the_grid():
    assert DEFAULT_OFFSETS_MS == (-1000, -500, -200, -100, 0, 100, 200, 500, 1000)
