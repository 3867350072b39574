"""Experiment orchestration: strategies, transfer matrices, attributions.

One :class:`ExperimentPlan` describes a cell of the experiment grid (a
strategy, a decoder family, a region set, a band, a target offset). Running
a plan over a session roster yields :class:`EvalResult` rows plus hygiene
records proving, by range arithmetic on the sample ranges each unit used,
that no test-segment sample ever reached normalizer fitting, training,
validation, or fine-tuning.

Seeding: every job seed is derived by hashing (master seed, session id,
cell id, role) with SHA-256, so runs are reproducible regardless of
execution order, and configurations that are definitionally identical to
the all-channels/fullband/offset-0 baseline hash to the same seeds and
therefore reproduce it bitwise.

Each experiment kind builds one flat list of units, ``(kind, unit_id,
cell_id, worker, args)``, and runs it with one :func:`_map_jobs` call per
phase; transfer has two, sources over the worker pool and then pairs in
this process. Rows, hygiene records, timings and failures are kept in unit
order, so no output depends on scheduling. The speed-history reference of
``offsets`` is a unit like the others, run on a one-channel session whose
EEG is the speed trace.

Window bookkeeping at nonzero offsets follows two rules. Fitting windows
(train/validation/fine-tune) may keep shifted targets that fall in earlier
non-test segments but never a target inside the test range. Evaluated test
windows require the target to be a valid decode time of the test segment
itself, so exactly ``|offset|/stride`` windows disappear at the boundary
the shift crosses, and the evaluated target set is always a subset of the
offset-0 one.
"""

from __future__ import annotations

import hashlib
import itertools
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .decoders import Decoder, DecoderSpec, fit_forest_decoder, new_decoder
from .dsp import BAND_NAMES, autocorrelation, band, band_isolate
from .errors import DegenerateDataError, DivergenceError, FormatError, LeakageError, PlanError, SplitError
from .sessions import (
    REGIONS,
    SIDES,
    STRIDE_MS,
    WINDOW_LEN,
    Normalizer,
    Session,
    fit_normalizer,
    normalized_session,
    offset_samples_for,
    split_ranges,
    window_arrays,
)
# perfbench/tracing.py wraps locodec.protocols.speed_window_arrays
from .sessions import speed_window_arrays  # noqa: F401
from .stats import pearson_r, r_squared
from .trainer import TrainConfig, TrainReport, fine_tune, train

STRATEGIES = (
    "single_80",
    "single_10",
    "zeroshot_cross_session",
    "zeroshot_cross_subject",
    "finetune_cross_session",
    "finetune_cross_subject",
)

DEFAULT_OFFSETS_MS = (-1000, -500, -200, -100, 0, 100, 200, 500, 1000)
AUTOCORR_MAX_LAG_MS = 1000


def derive_seed(*parts) -> int:
    """Stable 64-bit seed from string-able parts (order matters)."""
    text = "|".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "little")


@dataclass(frozen=True)
class ExperimentPlan:
    decoder: DecoderSpec
    train: TrainConfig = TrainConfig()
    strategy: str = "single_80"
    region_set: tuple[str, ...] = ()
    band: str = "fullband"
    offset_ms: int = 0
    clip_nonnegative: bool = False
    master_seed: int = 0

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise PlanError(f"unknown strategy {self.strategy!r}; known: {STRATEGIES}")
        if self.band not in BAND_NAMES:
            raise PlanError(f"unknown band {self.band!r}; known: {BAND_NAMES}")
        unknown = set(self.region_set) - set(REGIONS)
        if unknown:
            raise PlanError(f"unknown regions {sorted(unknown)}; known: {REGIONS}")
        if len(self.region_set) != len(set(self.region_set)):
            raise PlanError("region_set contains duplicates")

    @property
    def region_label(self) -> str:
        # "+" keeps multi-region labels one CSV field
        if not self.region_set or set(self.region_set) == set(REGIONS):
            return "all"
        return "+".join(sorted(self.region_set))

    @property
    def cell_id(self) -> str:
        return "|".join(
            [self.strategy, self.decoder.family, self.region_label, self.band, str(self.offset_ms)]
        )


@dataclass(frozen=True)
class EvalResult:
    session_id: str
    rat_id: str
    strategy: str
    region_set: str
    band: str
    offset_ms: int
    model: str
    r: float
    r2: float
    n_test_windows: int
    seed: int
    source_id: str = ""

    def __post_init__(self):
        if not -1.0 <= self.r <= 1.0:
            raise ValueError(f"r out of range: {self.r}")
        if self.r2 > 1.0 + 1e-12:
            raise ValueError(f"r2 above 1: {self.r2}")
        if self.n_test_windows <= 0:
            raise ValueError("n_test_windows must be positive")


@dataclass(frozen=True)
class HygieneRecord:
    """Sample ranges one unit used, for leakage assertions: the normalizer's
    fit range (if it fit one) and each fit or validation window set's inputs,
    each such set's targets, and the test set's inputs and targets."""

    session_id: str
    strategy: str
    test_start: int
    test_stop: int
    fit_inputs: tuple[range, ...]
    fit_targets: tuple[range, ...]
    test_inputs: range
    test_targets: range


def check_no_test_leakage(rec: HygieneRecord) -> None:
    """Raise :class:`LeakageError` unless fitting stayed strictly outside the
    test range and evaluation stayed strictly inside it."""
    test = range(rec.test_start, rec.test_stop)
    for what, spans in (("input samples", rec.fit_inputs), ("targets", rec.fit_targets)):
        for span in spans:
            if max(span.start, test.start) < min(span.stop, test.stop):
                raise LeakageError(f"{rec.session_id}/{rec.strategy}: fitting {what} {span} inside test {test}")
    for name, span in (("inputs", rec.test_inputs), ("targets", rec.test_targets)):
        if span and (span.start < test.start or span.stop > test.stop):
            raise LeakageError(f"{rec.session_id}/{rec.strategy}: evaluated {name} leave the test range {test}")


def _spans(starts: np.ndarray, targets: np.ndarray) -> tuple[range, range]:
    """The (input, target) sample ranges of one contiguous run of windows."""
    if starts.size == 0:
        return range(0), range(0)
    return range(starts[0], starts[-1] + WINDOW_LEN), range(targets[0], targets[-1] + 1)


# ---------------------------------------------------------------------------
# ranges and window assembly


def strategy_ranges(strategy: str, n_samples: int) -> tuple[range, range, range]:
    """(fit, early-stop, test) index ranges for a strategy on one session.

    ``single_80`` uses the 80/10/10 sequential split. ``single_10`` and both
    fine-tune calibrations fit on the first 10% with the next 10% for early
    stopping; the final 10% is the test segment in every strategy.
    """
    train80, val80, test = split_ranges(n_samples)
    if strategy in ("single_80", "zeroshot_cross_session", "zeroshot_cross_subject"):
        return train80, val80, test
    b1 = int(np.floor(n_samples * 0.1))
    b2 = int(np.floor(n_samples * 0.2))
    head_train, head_val = range(0, b1), range(b1, b2)
    for seg_name, seg in (("first-10% train", head_train), ("second-10% val", head_val)):
        if 0 < len(seg) < WINDOW_LEN:
            raise SplitError(f"{seg_name} segment too short for one window ({len(seg)} samples)")
    return head_train, head_val, test


def _split_windows(windows, rng: range, test: range, k: int, evaluate: bool = False):
    """Windows of ``rng`` from the window source ``windows`` (range ->
    (starts, x, y)) that obey the fitting or, with ``evaluate``, the
    evaluation target rule of the module docstring, as (starts, x, y,
    targets); ``k`` is the offset in samples.

    Targets increase with the starts, and ``test`` ends the session, so no
    target lies past it and either rule keeps one contiguous run of
    windows. A slice selects it, and ``x`` stays a view of the source."""
    starts, x, y = windows(rng)
    targets = starts + WINDOW_LEN - 1 + k
    if evaluate:
        lo, hi = np.searchsorted(targets, (test.start + WINDOW_LEN - 1, test.stop))
    else:
        lo, hi = 0, np.searchsorted(targets, test.start)
    keep = slice(lo, hi)
    return starts[keep], x[keep], y[keep], targets[keep]


def _prepare(session: Session, plan: ExperimentPlan) -> Session:
    if plan.region_label != "all":
        wanted = set(plan.region_set)
        idx = [i for i, r in enumerate(session.region_map) if r in wanted]
        if not idx:
            raise PlanError(f"session {session.id} has no channels in {sorted(wanted)}")
        session = session.select_channels(idx)
    return band_isolate(session, band(plan.band))


def _safe_r(pred: np.ndarray, actual: np.ndarray) -> float:
    """Pearson r, with a constant *prediction* scored as 0 (no measurable
    linear association). A constant actual trace is a data defect and
    propagates as DegenerateDataError."""
    if np.ptp(actual) == 0.0:
        raise DegenerateDataError("test speed trace is constant")
    if np.ptp(pred) == 0.0:
        return 0.0
    return pearson_r(pred, actual)


# ---------------------------------------------------------------------------
# the unit of work


@dataclass
class SingleRunOutput:
    result: EvalResult
    decoder: Decoder
    normalizer: Normalizer
    report: TrainReport | None
    hygiene: HygieneRecord
    wall_time_s: float


def _run_unit(
    session: Session,
    plan: ExperimentPlan,
    ranges: tuple[range, range, range],
    normalizer: Normalizer | range,
    fit,
    seed: int,
    source_id: str = "",
) -> SingleRunOutput:
    """The one unit of work behind every protocol: prepare, normalize,
    window, fit, predict, score and audit.

    ``ranges`` are the unit's (fit, early-stop, test) ranges on ``session``.
    ``normalizer`` is used as given, or fit on the range given in its place
    (and that range is then recorded as a fitting input). ``fit`` maps a
    fresh decoder spec and the (x, y, x_val, y_val) window stacks to
    (decoder, report); an already-trained Decoder in its place is only
    evaluated.
    ``seed`` is the fresh spec's seed and the result row's.
    """
    t0 = time.perf_counter()
    fit_rng, val_rng, test_rng = ranges
    prep = _prepare(session, plan)
    norm_ranges = ()
    if isinstance(normalizer, range):
        norm_ranges, normalizer = (normalizer,), fit_normalizer(prep, normalizer)
    # rebound, so that a filtered or channel-selected copy is not held
    # through training
    prep = normalized_session(prep, normalizer)

    def windows(rng: range):
        return window_arrays(prep, rng, plan.offset_ms)

    k = offset_samples_for(plan.offset_ms)
    fit_sets = [] if isinstance(fit, Decoder) else [
        _split_windows(windows, rng, test_rng, k) for rng in (fit_rng, val_rng)
    ]
    s_te, x_te, y_te, t_te = _split_windows(windows, test_rng, test_rng, k, evaluate=True)
    if s_te.size == 0 or (fit_sets and fit_sets[0][0].size == 0):
        raise SplitError(f"session {session.id}: empty fit or test window set")

    decoder, report = fit, None
    if fit_sets:
        (_, x_tr, y_tr, _), (_, x_va, y_va, _) = fit_sets
        spec = replace(plan.decoder, n_channels=x_tr.shape[2], seed=seed)
        decoder, report = fit(spec, x_tr, y_tr, x_va, y_va)
    pred = decoder.predict_batch(x_te)
    if plan.clip_nonnegative:
        pred = np.maximum(pred, 0.0)
    result = EvalResult(
        session_id=session.id,
        rat_id=session.rat_id,
        strategy=plan.strategy,
        region_set=plan.region_label,
        band=plan.band,
        offset_ms=plan.offset_ms,
        model=decoder.spec.family,
        r=_safe_r(pred, y_te),
        r2=r_squared(pred, y_te),
        n_test_windows=int(s_te.size),
        seed=seed,
        source_id=source_id,
    )
    fit_spans = [_spans(f[0], f[3]) for f in fit_sets]
    test_inputs, test_targets = _spans(s_te, t_te)
    hygiene = HygieneRecord(
        session_id=session.id,
        strategy=plan.strategy,
        test_start=test_rng.start,
        test_stop=test_rng.stop,
        fit_inputs=(*norm_ranges, *(inputs for inputs, _ in fit_spans)),
        fit_targets=tuple(targets for _, targets in fit_spans),
        test_inputs=test_inputs,
        test_targets=test_targets,
    )
    check_no_test_leakage(hygiene)
    return SingleRunOutput(result, decoder, normalizer, report, hygiene, time.perf_counter() - t0)


def _train_unit(session: Session, plan: ExperimentPlan, cell_id: str):
    """A unit that fits a fresh decoder, and its normalizer, on the session's
    own fit range, with seeds derived from ``cell_id``."""
    ranges = strategy_ranges(plan.strategy, session.n_samples)
    cfg = replace(plan.train, shuffle_seed=derive_seed(plan.master_seed, session.id, cell_id, "shuffle"))

    def fit(spec, x, y, x_val, y_val):
        if spec.family == "random_forest":
            return fit_forest_decoder(spec, x, y), None
        return train(new_decoder(spec), x, y, x_val, y_val, cfg)

    seed = derive_seed(plan.master_seed, session.id, cell_id, "init")
    return _run_unit(session, plan, ranges, ranges[0], fit, seed)


def run_single_session(session: Session, plan: ExperimentPlan) -> SingleRunOutput:
    if plan.strategy not in ("single_80", "single_10"):
        raise PlanError(f"run_single_session cannot execute strategy {plan.strategy!r}")
    return _train_unit(session, plan, plan.cell_id)


def evaluate_saved(
    decoder: Decoder, normalizer: Normalizer, session: Session, plan: ExperimentPlan
) -> EvalResult:
    """Evaluate an already-trained decoder on a session's test segment. At
    offset 0 this reproduces the training-time result row bitwise: same
    preparation, windowing, metric code, and derived seed label."""
    ranges = strategy_ranges("single_80", session.n_samples)
    seed = derive_seed(plan.master_seed, session.id, plan.cell_id, "init")
    return _run_unit(session, plan, ranges, normalizer, decoder, seed).result


# ---------------------------------------------------------------------------
# transfer


def expected_evaluation_count(session_counts, strategy: str) -> int:
    counts = list(session_counts)
    total = sum(counts)
    if strategy in ("zeroshot_cross_session", "finetune_cross_session"):
        return sum(n * (n - 1) for n in counts)
    if strategy in ("zeroshot_cross_subject", "finetune_cross_subject"):
        return sum(n * (total - n) for n in counts)
    raise PlanError(f"strategy {strategy!r} has no transfer count formula")


def transfer_pairs(sessions: list[Session], strategy: str) -> list[tuple[Session, Session]]:
    """(source, target) pairs in canonical order, count-checked against the
    roster formulas."""
    cross_session = strategy in ("zeroshot_cross_session", "finetune_cross_session")
    roster = sorted(sessions, key=lambda s: s.id)
    pairs = [(src, tgt) for src in roster for tgt in roster
             if src.id != tgt.id and (src.rat_id == tgt.rat_id) == cross_session]
    expected = expected_evaluation_count(Counter(s.rat_id for s in sessions).values(), strategy)
    if len(pairs) != expected:
        raise PlanError(f"pair construction bug: {len(pairs)} pairs != formula {expected}")
    if not pairs:
        raise PlanError(f"roster too small for {strategy} (no valid source/target pairs)")
    return pairs


def _transfer_unit(
    source_id: str, decoder: Decoder, source_norm: Normalizer, target: Session, plan: ExperimentPlan
) -> SingleRunOutput:
    """One (source, target) pair: the source model scored on the target's
    test segment, either as is under the source normalizer, or after
    refitting the normalizer and fine-tuning the head on the target's first
    10%."""
    ranges = strategy_ranges(plan.strategy, target.n_samples)
    if not plan.strategy.startswith("finetune"):
        seed = derive_seed(plan.master_seed, target.id, plan.cell_id, "eval")
        return _run_unit(target, plan, ranges, source_norm, decoder, seed, source_id)
    seed = derive_seed(plan.master_seed, f"{source_id}->{target.id}", plan.cell_id, "finetune")
    cfg = replace(plan.train, freeze_body=True, shuffle_seed=seed)
    return _run_unit(
        target, plan, ranges, ranges[0], lambda spec, *data: fine_tune(decoder, *data, cfg), seed, source_id
    )


def _aggregate_per_target(pair_results: list[EvalResult], plan: ExperimentPlan) -> list[EvalResult]:
    """Per target session, the reported r/R² is the median over all source
    models evaluated on it (the identity when there is a single source)."""
    by_target: dict[str, list[EvalResult]] = {}
    for res in pair_results:
        by_target.setdefault(res.session_id, []).append(res)
    out = []
    for sid in sorted(by_target):
        group = by_target[sid]
        out.append(
            replace(
                group[0],
                r=float(np.median([g.r for g in group])),
                r2=float(np.median([g.r2 for g in group])),
                seed=derive_seed(plan.master_seed, sid, plan.cell_id, "aggregate"),
                source_id="",
            )
        )
    return out


def run_transfer(sessions: list[Session], plan: ExperimentPlan, jobs: int = 1) -> ExperimentOutput:
    """Per-target rows in ``results``, one row per (source, target) pair in
    ``pairs``. A source that fails is recorded, and so is each of its
    pairs."""
    if plan.strategy not in STRATEGIES[2:]:
        raise PlanError(f"run_transfer cannot execute strategy {plan.strategy!r}")
    pairs = transfer_pairs(sessions, plan.strategy)
    sources = sorted({src.id for src, _ in pairs})
    by_id = {s.id: s for s in sessions}
    out = ExperimentOutput([], [], [])
    source_plan = replace(plan, strategy="single_80")
    units = [("train", sid, plan.cell_id, run_single_session, (by_id[sid], source_plan)) for sid in sources]
    runs = dict(zip(sources, _map_jobs(out, units, jobs, keep=True)))
    n_trained = len(out.results)
    # pairs run here, in pair order, since spans traced in a worker process are
    # lost; a failed source's pair returns its failure
    units = []
    for src, tgt in pairs:
        run = runs[src.id]
        if isinstance(run, UnitFailure):
            worker, args = UnitFailure, (run.error, f"source {src.id} failed: {run.message}")
        else:
            worker, args = _transfer_unit, (src.id, run.decoder, run.normalizer, tgt, plan)
        units.append(("pair", f"{src.id}->{tgt.id}", plan.cell_id, worker, args))
    _map_jobs(out, units, 1)
    out.pairs = out.results[n_trained:]
    out.results = _aggregate_per_target(out.pairs, plan)
    return out


# ---------------------------------------------------------------------------
# attribution and offset drivers


@dataclass
class ExperimentOutput:
    results: list[EvalResult]
    hygiene: list[HygieneRecord]
    timings: list[tuple[str, float]]
    skipped: list[tuple[str, str]] = field(default_factory=list)
    band_energies: list[tuple[str, str, float]] = field(default_factory=list)
    pairs: list[EvalResult] = field(default_factory=list)
    # (kind, unit_id, cell_id, error class, message) per failed unit
    failures: list[tuple[str, str, str, str, str]] = field(default_factory=list)


# Errors that a unit's own data or training can raise; the unit is recorded
# as failed and the rest of the grid runs. Any other error aborts the run.
UNIT_ERRORS = (DegenerateDataError, DivergenceError)


@dataclass(frozen=True)
class UnitFailure:
    """A unit that raised one of :data:`UNIT_ERRORS`: the error's class name
    and message."""

    error: str
    message: str


def _guarded(worker, args, keep: bool):
    """``worker(*args)``, or the :class:`UnitFailure` of a unit error; a
    plain record, so it returns intact from a worker process. Without
    ``keep``, the run's decoder, normalizer and report are freed here."""
    try:
        run = worker(*args)
    except UNIT_ERRORS as exc:
        return UnitFailure(type(exc).__name__, str(exc))
    if not (keep or isinstance(run, UnitFailure)):
        run.decoder = run.normalizer = run.report = None
    return run


def _map_jobs(out: ExperimentOutput, units, jobs: int, keep: bool = False):
    """Run ``worker(*args)`` for each ``(kind, unit_id, cell_id, worker,
    args)`` of ``units`` over ``jobs`` worker processes (here when 1), and
    record each unit's result, hygiene record and ``kind:unit_id:cell_id``
    timing in ``out``, in unit order, or the failure of a unit that raised
    one of :data:`UNIT_ERRORS` or returned a :class:`UnitFailure`. Returns
    the runs; only ``keep`` leaves their decoders, normalizers and reports in."""
    if jobs <= 1 or len(units) <= 1:
        runs = [_guarded(worker, args, keep) for *_, worker, args in units]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as ex:
            futures = [ex.submit(_guarded, worker, args, keep) for *_, worker, args in units]
            runs = [f.result() for f in futures]
    for (kind, unit_id, cell_id, _, _), run in zip(units, runs):
        if isinstance(run, UnitFailure):
            out.failures.append((kind, unit_id, cell_id, run.error, run.message))
            continue
        out.results.append(run.result)
        out.hygiene.append(run.hygiene)
        out.timings.append((f"{kind}:{unit_id}:{cell_id}", run.wall_time_s))
    return runs


def run_baseline(sessions: list[Session], plan: ExperimentPlan, jobs: int = 1) -> ExperimentOutput:
    out = ExperimentOutput([], [], [])
    _map_jobs(out, [("single", s.id, plan.cell_id, run_single_session, (s, plan)) for s in sessions], jobs)
    return out


def region_cells(include_pairs: bool = True) -> list[tuple[str, ...]]:
    cells = [(r,) for r in REGIONS]
    if include_pairs:
        cells += [tuple(sorted(p)) for p in itertools.combinations(REGIONS, 2)]
    return cells


def run_region_analysis(
    sessions: list[Session],
    plan: ExperimentPlan,
    include_pairs: bool = True,
    jobs: int = 1,
) -> ExperimentOutput:
    """Single-region (diagonal) and region-pair cells under the baseline
    protocol; sessions lacking a cell's channels are skipped and recorded."""
    out = ExperimentOutput([], [], [])
    units = []
    for cell in region_cells(include_pairs):
        cell_plan = replace(plan, region_set=cell)
        for s in sessions:
            if any(r in cell for r in s.region_map):
                units.append(("region", s.id, cell_plan.cell_id, run_single_session, (s, cell_plan)))
            else:
                out.skipped.append((s.id, cell_plan.region_label))
    _map_jobs(out, units, jobs)
    return out


def run_band_analysis(
    sessions: list[Session],
    plan: ExperimentPlan,
    bands: tuple[str, ...] = BAND_NAMES,
    jobs: int = 1,
) -> ExperimentOutput:
    out = ExperimentOutput([], [], [])
    plans = [replace(plan, band=b) for b in bands]
    units = [("band", s.id, p.cell_id, run_single_session, (s, p)) for p in plans for s in sessions]
    _map_jobs(out, units, jobs)
    out.band_energies = [
        (s.id, b, float(np.mean(np.var(band_isolate(s, band(b)).eeg, axis=1)))) for b in bands for s in sessions
    ]
    return out


def _speed_reference(session: Session, plan: ExperimentPlan) -> SingleRunOutput:
    """Speed-history reference model: ``plan``'s EEG decoder unit, with its
    splits and seeds, run on a one-channel session whose EEG is the speed
    trace. The trace is never band-filtered, so its row is all/fullband."""
    spec = DecoderSpec(
        family="speed_rnn",
        n_channels=1,
        lstm_hidden=plan.decoder.lstm_hidden,
        head_hidden=plan.decoder.head_hidden,
    )
    # nothing reads the one channel's region and side labels
    trace = replace(session, eeg=session.speed[None, :], region_map=REGIONS[:1], side_map=SIDES[:1])
    return _train_unit(trace, replace(plan, decoder=spec, region_set=(), band="fullband"), plan.cell_id)


def autocorrelation_results(session: Session, max_lag_ms: int = AUTOCORR_MAX_LAG_MS) -> list[EvalResult]:
    """Speed autocorrelation at every stride lag out to ±max_lag_ms, shaped
    like decoder rows (model "autocorrelation", r2 = r²). The negative side
    mirrors the positive one; lagged Pearson on a single trace is symmetric."""
    max_lag = offset_samples_for(max_lag_ms)
    curve = autocorrelation(session.speed, max_lag)
    n = session.n_samples
    rows = []
    for k in range(-max_lag, max_lag + 1):
        r = float(curve[abs(k)])
        rows.append(
            EvalResult(
                session_id=session.id,
                rat_id=session.rat_id,
                strategy="single_80",
                region_set="all",
                band="fullband",
                offset_ms=int(round(k * STRIDE_MS)),
                model="autocorrelation",
                r=r,
                r2=r * r,
                n_test_windows=n - abs(k),
                seed=0,
            )
        )
    return rows


def run_offset_analysis(
    sessions: list[Session],
    plan: ExperimentPlan,
    offsets_ms: tuple[int, ...] = DEFAULT_OFFSETS_MS,
    include_speed_rnn: bool = True,
    include_autocorrelation: bool = True,
    jobs: int = 1,
) -> ExperimentOutput:
    """Shifted-target decoding per offset for the EEG decoder and the
    speed-history reference, plus the speed autocorrelation curve."""
    out = ExperimentOutput([], [], [])
    plans = [replace(plan, strategy="single_80", offset_ms=offset) for offset in offsets_ms]
    roles = [("offset", run_single_session)] + [("offset_speed", _speed_reference)] * include_speed_rnn
    units = [(kind, s.id, p.cell_id, worker, (s, p)) for p in plans for kind, worker in roles for s in sessions]
    _map_jobs(out, units, jobs)
    if include_autocorrelation:
        for session in sessions:
            out.results.extend(autocorrelation_results(session))
    return out


# ---------------------------------------------------------------------------
# results tables


RESULTS_COLUMNS = (
    "session_id",
    "rat_id",
    "strategy",
    "region_set",
    "band",
    "offset_ms",
    "model",
    "r",
    "r2",
    "n_test_windows",
    "seed",
)


def _cell(value) -> str:
    # repr keeps every float exact on read-back; numpy floats are written
    # as the plain number, not as np.float64(...)
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def table_text(columns, rows, config_hash: str | None = None, seed: int = 0) -> str:
    """The one CSV format of every output table: a ``# config_hash=... seed=...``
    line unless ``config_hash`` is None, the column names, then one line per
    row, each a sequence in column order; floats are written with ``repr``
    so they read back exactly."""
    lines = [] if config_hash is None else [f"# config_hash={config_hash} seed={seed}"]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def table_header(text: str) -> tuple[str, int]:
    """(config_hash, seed) from a table's leading comment line, or ("", 0)."""
    first = next(iter(text.splitlines()), "")
    if not first.startswith("#"):
        return "", 0
    parts = dict(kv.split("=", 1) for kv in first.lstrip("# ").split() if "=" in kv)
    return parts.get("config_hash", ""), int(parts.get("seed", 0) or 0)


def results_sort_key(res: EvalResult):
    return (
        res.strategy,
        res.model,
        res.region_set,
        res.band,
        res.offset_ms,
        res.session_id,
        res.source_id,
    )


def results_to_csv_text(results, config_hash: str = "", master_seed: int = 0) -> str:
    """Canonical results table. Rows are sorted deterministically and carry
    no durations, so identical configurations serialize bitwise identically;
    real durations live in the timings table."""
    rows = ([getattr(res, c) for c in RESULTS_COLUMNS] for res in sorted(results, key=results_sort_key))
    return table_text(RESULTS_COLUMNS, rows, config_hash, master_seed)


def timings_to_csv_text(timings) -> str:
    return table_text(("label", "wall_time_s"), timings)


# field annotations are strings here (postponed evaluation)
_CELL_TYPES = {"str": str, "int": int, "float": float}
_RESULT_TYPES = {f.name: _CELL_TYPES[f.type] for f in fields(EvalResult)}


def parse_results_csv(text: str) -> list[EvalResult]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines:
        raise FormatError("results table is empty")
    header = lines[0].split(",")
    if list(header) != list(RESULTS_COLUMNS):
        raise FormatError(f"unexpected results header: {header}")
    out = []
    for i, ln in enumerate(lines[1:], start=2):
        f = ln.split(",")
        if len(f) != len(RESULTS_COLUMNS):
            raise FormatError(f"results line {i}: {len(f)} fields, expected {len(RESULTS_COLUMNS)}")
        try:
            out.append(EvalResult(**{c: _RESULT_TYPES[c](v) for c, v in zip(RESULTS_COLUMNS, f)}))
        except ValueError as exc:
            raise FormatError(f"results line {i}: {exc}") from exc
    return out
