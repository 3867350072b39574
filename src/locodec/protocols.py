"""Experiment orchestration: strategies, transfer matrices, attributions.

One :class:`ExperimentPlan` describes a cell of the experiment grid (a
strategy, a decoder family, a region set, a band, a target offset). Running
a plan over a session roster yields :class:`EvalResult` rows plus hygiene
records proving, by explicit index-set intersection, that no test-segment
sample ever reached normalizer fitting, training, validation, or
fine-tuning.

Seeding: every job seed is derived by hashing (master seed, session id,
cell id, role) with SHA-256, so runs are reproducible regardless of
execution order, and configurations that are definitionally identical to
the all-channels/fullband/offset-0 baseline hash to the same seeds and
therefore reproduce it bitwise.

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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .decoders import Decoder, DecoderSpec, fit_forest_decoder, new_decoder
from .dsp import BAND_NAMES, autocorrelation, band, band_isolate
from .errors import DegenerateDataError, FormatError, LeakageError, PlanError, SplitError
from .sessions import (
    REGIONS,
    WINDOW_LEN,
    Normalizer,
    Session,
    fit_normalizer,
    normalized_session,
    offset_samples_for,
    speed_window_arrays,
    split_ranges,
    window_arrays,
)
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
    refit_normalizer: bool = False  # zero-shot: refit stats on target first-10%
    refresh_normalizer: bool = True  # fine-tune: refresh stats on target first-10%
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
    """Index sets actually used by one run, for leakage assertions."""

    session_id: str
    strategy: str
    test_start: int
    test_stop: int
    fit_input_indices: np.ndarray
    fit_target_indices: np.ndarray
    test_input_indices: np.ndarray
    test_target_indices: np.ndarray


def check_no_test_leakage(rec: HygieneRecord) -> None:
    """Raise :class:`LeakageError` unless fitting stayed strictly outside the
    test range and evaluation stayed strictly inside it."""
    test_set = np.arange(rec.test_start, rec.test_stop)
    bad_fit = np.intersect1d(rec.fit_input_indices, test_set)
    if bad_fit.size:
        raise LeakageError(
            f"{rec.session_id}/{rec.strategy}: {bad_fit.size} fitting input samples inside test range"
        )
    bad_tgt = np.intersect1d(rec.fit_target_indices, test_set)
    if bad_tgt.size:
        raise LeakageError(
            f"{rec.session_id}/{rec.strategy}: {bad_tgt.size} fitting targets inside test range"
        )
    for name, arr in (("inputs", rec.test_input_indices), ("targets", rec.test_target_indices)):
        if arr.size and (arr.min() < rec.test_start or arr.max() >= rec.test_stop):
            raise LeakageError(
                f"{rec.session_id}/{rec.strategy}: evaluated {name} leave the test range"
            )


def _input_indices(starts: np.ndarray) -> np.ndarray:
    if starts.size == 0:
        return np.empty(0, dtype=np.int64)
    return np.unique(starts[:, None] + np.arange(WINDOW_LEN)[None, :])


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
    targets); ``k`` is the offset in samples. The unfiltered stacks are
    freed on return."""
    starts, x, y = windows(rng)
    targets = starts + WINDOW_LEN - 1 + k
    if evaluate:
        keep = (targets >= test.start + WINDOW_LEN - 1) & (targets < test.stop)
    else:
        keep = (targets < test.start) | (targets >= test.stop)
    return starts[keep], x[keep], y[keep], targets[keep]


def _prepare(session: Session, plan: ExperimentPlan) -> Session:
    prepared = session
    if plan.region_label != "all":
        wanted = set(plan.region_set)
        idx = [i for i, r in enumerate(session.region_map) if r in wanted]
        if not idx:
            raise PlanError(f"session {session.id} has no channels in {sorted(wanted)}")
        prepared = prepared.select_channels(idx)
    prepared = band_isolate(prepared, band(plan.band))
    return prepared


def _eeg_source(session: Session, plan: ExperimentPlan, normalizer: Normalizer | range):
    """Window source over the session's EEG, prepared for ``plan`` and
    normalized by ``normalizer``, or by one fit on the prepared session when
    a range is given. Returns (windows, normalizer, normalizer fit range)."""
    prep = _prepare(session, plan)
    fit_range = range(0)
    if isinstance(normalizer, range):
        fit_range, normalizer = normalizer, fit_normalizer(prep, normalizer)
    norm = normalized_session(prep, normalizer)
    return (lambda rng: window_arrays(norm, rng, plan.offset_ms)), normalizer, fit_range


def _speed_source(session: Session, plan: ExperimentPlan, fit_range: range):
    """Window source over the speed trace itself, z-scored on ``fit_range``,
    for the speed-history reference model."""
    mu = float(np.mean(session.speed[fit_range.start : fit_range.stop]))
    sd = max(float(np.std(session.speed[fit_range.start : fit_range.stop])), 1e-8)
    z = (session.speed - mu) / sd

    def speed_windows(rng: range):
        starts, x, y = speed_window_arrays(z, rng, plan.offset_ms, session.sample_rate_hz)
        # targets come back as z[t]*sd + mu, not speed[t]: the two differ
        # in the last bit, and training amplifies that
        return starts, x, y * sd + mu

    return speed_windows, None, fit_range


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
    source=_eeg_source,
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
    windows, normalizer, norm_range = source(session, plan, normalizer)
    k = offset_samples_for(plan.offset_ms, session.sample_rate_hz)
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
    empty = np.empty(0, dtype=np.int64)
    hygiene = HygieneRecord(
        session_id=session.id,
        strategy=plan.strategy,
        test_start=test_rng.start,
        test_stop=test_rng.stop,
        fit_input_indices=np.union1d(
            _input_indices(np.concatenate([empty, *(f[0] for f in fit_sets)])),
            np.arange(norm_range.start, norm_range.stop),
        ),
        fit_target_indices=np.unique(np.concatenate([empty, *(f[3] for f in fit_sets)])),
        test_input_indices=_input_indices(s_te),
        test_target_indices=np.unique(t_te),
    )
    check_no_test_leakage(hygiene)
    return SingleRunOutput(result, decoder, normalizer, report, hygiene, time.perf_counter() - t0)


def _train_unit(session: Session, plan: ExperimentPlan, cell_id: str, source=_eeg_source):
    """A unit that fits a fresh decoder, and its normalizer, on the session's
    own fit range, with seeds derived from ``cell_id``."""
    ranges = strategy_ranges(plan.strategy, session.n_samples)
    cfg = replace(plan.train, shuffle_seed=derive_seed(plan.master_seed, session.id, cell_id, "shuffle"))

    def fit(spec, x, y, x_val, y_val):
        if spec.family == "random_forest":
            return fit_forest_decoder(spec, x, y), None
        return train(new_decoder(spec), x, y, x_val, y_val, cfg)

    seed = derive_seed(plan.master_seed, session.id, cell_id, "init")
    return _run_unit(session, plan, ranges, ranges[0], fit, seed, source=source)


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
    by_rat: dict[str, list[Session]] = {}
    for s in sessions:
        by_rat.setdefault(s.rat_id, []).append(s)
    for members in by_rat.values():
        members.sort(key=lambda s: s.id)
    rats = sorted(by_rat)
    pairs = []
    for src in sorted(sessions, key=lambda s: s.id):
        for tgt in sorted(sessions, key=lambda s: s.id):
            if src.id == tgt.id:
                continue
            same_rat = src.rat_id == tgt.rat_id
            if cross_session and same_rat:
                pairs.append((src, tgt))
            elif not cross_session and not same_rat:
                pairs.append((src, tgt))
    expected = expected_evaluation_count([len(by_rat[r]) for r in rats], strategy)
    if len(pairs) != expected:
        raise PlanError(f"pair construction bug: {len(pairs)} pairs != formula {expected}")
    if not pairs:
        raise PlanError(f"roster too small for {strategy} (no valid source/target pairs)")
    return pairs


@dataclass
class TransferOutput:
    pair_results: list[EvalResult]
    aggregated: list[EvalResult]
    hygiene: list[HygieneRecord]
    timings: list[tuple[str, float]]
    n_evaluations: int


def _transfer_unit(
    source_id: str, decoder: Decoder, source_norm: Normalizer, target: Session, plan: ExperimentPlan
) -> SingleRunOutput:
    """One (source, target) pair: the source model scored on the target's
    test segment, as is or after head-only fine-tuning on its first 10%.
    Either may first refit the normalizer on that first 10%."""
    ranges = strategy_ranges(plan.strategy, target.n_samples)
    head = range(0, int(np.floor(target.n_samples * 0.1)))
    if plan.strategy.startswith("finetune"):
        seed = derive_seed(plan.master_seed, f"{source_id}->{target.id}", plan.cell_id, "finetune")
        cfg = replace(plan.train, freeze_body=True, shuffle_seed=seed)
        refit, fit = plan.refresh_normalizer, lambda spec, *data: fine_tune(decoder, *data, cfg)
    else:
        seed = derive_seed(plan.master_seed, target.id, plan.cell_id, "eval")
        refit, fit = plan.refit_normalizer, decoder
    return _run_unit(target, plan, ranges, head if refit else source_norm, fit, seed, source_id)


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


def run_transfer(sessions: list[Session], plan: ExperimentPlan, jobs: int = 1) -> TransferOutput:
    if plan.strategy not in STRATEGIES[2:]:
        raise PlanError(f"run_transfer cannot execute strategy {plan.strategy!r}")
    pairs = transfer_pairs(sessions, plan.strategy)
    sources = sorted({src.id for src, _ in pairs})
    by_id = {s.id: s for s in sessions}
    out = ExperimentOutput([], [], [])
    source_plan = replace(plan, strategy="single_80")
    units = [(sid, (by_id[sid], source_plan)) for sid in sources]
    runs = _map_jobs(out, "train", plan.cell_id, run_single_session, units, jobs)
    models = {sid: (run.decoder, run.normalizer) for sid, run in zip(sources, runs)}
    # pairs run here one at a time, so each tuned decoder is freed before the next
    for src, tgt in pairs:
        unit = (f"{src.id}->{tgt.id}", (src.id, *models[src.id], tgt, plan))
        _map_jobs(out, "pair", plan.cell_id, _transfer_unit, [unit], 1)
    pair_results = out.results[len(sources) :]
    aggregated = _aggregate_per_target(pair_results, plan)
    return TransferOutput(pair_results, aggregated, out.hygiene, out.timings, len(pair_results))


# ---------------------------------------------------------------------------
# attribution and offset drivers


@dataclass
class ExperimentOutput:
    results: list[EvalResult]
    hygiene: list[HygieneRecord]
    timings: list[tuple[str, float]]
    skipped: list[tuple[str, str]] = field(default_factory=list)
    band_energies: list[tuple[str, str, float]] = field(default_factory=list)


def _map_jobs(out: ExperimentOutput, kind: str, cell_id: str, worker, units, jobs: int):
    """Run ``worker(*args)`` for each ``(unit_id, args)`` of ``units`` over
    ``jobs`` worker processes (here when 1), and record each unit's result,
    hygiene record and ``kind:unit_id:cell_id`` timing in ``out``, in unit
    order. Returns the runs."""
    if jobs <= 1 or len(units) <= 1:
        runs = [worker(*args) for _, args in units]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as ex:
            futures = [ex.submit(worker, *args) for _, args in units]
            runs = [f.result() for f in futures]
    for (unit_id, _), run in zip(units, runs):
        out.results.append(run.result)
        out.hygiene.append(run.hygiene)
        out.timings.append((f"{kind}:{unit_id}:{cell_id}", run.wall_time_s))
    return runs


def run_baseline(sessions: list[Session], plan: ExperimentPlan, jobs: int = 1) -> ExperimentOutput:
    out = ExperimentOutput([], [], [])
    units = [(s.id, (s, plan)) for s in sessions]
    _map_jobs(out, "single", plan.cell_id, run_single_session, units, jobs)
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
    for cell in region_cells(include_pairs):
        cell_plan = replace(plan, region_set=cell)
        units = []
        for s in sessions:
            if any(r in cell for r in s.region_map):
                units.append((s.id, (s, cell_plan)))
            else:
                out.skipped.append((s.id, cell_plan.region_label))
        _map_jobs(out, "region", cell_plan.cell_id, run_single_session, units, jobs)
    return out


def run_band_analysis(
    sessions: list[Session],
    plan: ExperimentPlan,
    bands: tuple[str, ...] = BAND_NAMES,
    jobs: int = 1,
) -> ExperimentOutput:
    out = ExperimentOutput([], [], [])
    for band_name in bands:
        band_plan = replace(plan, band=band_name)
        units = [(s.id, (s, band_plan)) for s in sessions]
        _map_jobs(out, "band", band_plan.cell_id, run_single_session, units, jobs)
        for s in sessions:
            energy = float(np.mean(np.var(band_isolate(s, band(band_name)).eeg, axis=1)))
            out.band_energies.append((s.id, band_name, energy))
    return out


def _speed_reference(session: Session, plan: ExperimentPlan) -> SingleRunOutput:
    """Speed-history reference model: the splits, windowing and seeds of
    ``plan``'s EEG decoder unit, but the input is the past speed trace."""
    spec = DecoderSpec(
        family="speed_rnn",
        n_channels=1,
        window_len=WINDOW_LEN,
        lstm_hidden=plan.decoder.lstm_hidden,
        head_hidden=plan.decoder.head_hidden,
        dropout=plan.decoder.dropout,
    )
    speed_plan = replace(plan, decoder=spec, region_set=())
    return _train_unit(session, speed_plan, plan.cell_id, _speed_source)


def autocorrelation_results(session: Session, max_lag_ms: int = AUTOCORR_MAX_LAG_MS) -> list[EvalResult]:
    """Speed autocorrelation at every stride lag out to ±max_lag_ms, shaped
    like decoder rows (model "autocorrelation", r2 = r²). The negative side
    mirrors the positive one; lagged Pearson on a single trace is symmetric."""
    step_ms = 1000.0 / session.sample_rate_hz
    max_lag = int(round(max_lag_ms / step_ms))
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
                offset_ms=int(round(k * step_ms)),
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
    for offset in offsets_ms:
        off_plan = replace(plan, strategy="single_80", offset_ms=offset)
        units = [(s.id, (s, off_plan)) for s in sessions]
        _map_jobs(out, "offset", off_plan.cell_id, run_single_session, units, jobs)
        if include_speed_rnn:
            _map_jobs(out, "offset_speed", off_plan.cell_id, _speed_reference, units, jobs)
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


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


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
    lines = [f"# config_hash={config_hash} seed={master_seed}", ",".join(RESULTS_COLUMNS)]
    for res in sorted(results, key=results_sort_key):
        lines.append(
            ",".join(
                [
                    res.session_id,
                    res.rat_id,
                    res.strategy,
                    res.region_set,
                    res.band,
                    str(res.offset_ms),
                    res.model,
                    _fmt(res.r),
                    _fmt(res.r2),
                    str(res.n_test_windows),
                    str(res.seed),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def timings_to_csv_text(timings) -> str:
    lines = ["label,wall_time_s"]
    for label, secs in timings:
        lines.append(f"{label},{_fmt(float(secs))}")
    return "\n".join(lines) + "\n"


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
            out.append(
                EvalResult(
                    session_id=f[0],
                    rat_id=f[1],
                    strategy=f[2],
                    region_set=f[3],
                    band=f[4],
                    offset_ms=int(f[5]),
                    model=f[6],
                    r=float(f[7]),
                    r2=float(f[8]),
                    n_test_windows=int(f[9]),
                    seed=int(f[10]),
                )
            )
        except ValueError as exc:
            raise FormatError(f"results line {i}: {exc}") from exc
    return out
