"""Command-line surface: synth, ingest, train, eval, experiment, report.

Every run writes its fully-resolved configuration next to its outputs.
Tables are written by :func:`protocols.table_text`; all but timings,
skipped cells, failed units and band energies embed the config hash and
master seed on a leading comment line. Outputs are written atomically
(temp file + rename). Exit codes: 0 success, 1 pipeline error, 2 malformed
input or configuration.
"""

from __future__ import annotations

import argparse
import glob
import os
import sys
from pathlib import Path

import numpy as np

from .config import ResolvedRun, load_config, resolve
from .decoders import load_state, save_state
from .errors import (
    ConfigError,
    FormatError,
    IntegrityError,
    LocodecError,
    ModelLoadError,
    UnsupportedRateError,
)
from .protocols import (
    DEFAULT_OFFSETS_MS,
    ExperimentPlan,
    evaluate_saved,
    results_to_csv_text,
    run_band_analysis,
    run_baseline,
    run_offset_analysis,
    run_region_analysis,
    run_single_session,
    run_transfer,
    table_header,
    table_text,
    timings_to_csv_text,
    parse_results_csv,
)
from .reporting import (
    curves_csv_text,
    medians_csv_text,
    spectra_csv_text,
    tests_csv_text,
)
from .sessions import (
    Normalizer,
    Session,
    apply_inclusion_gate,
    ingest_session,
    write_session,
)
from .synthetic import generate_synthetic_fleet

_INPUT_ERRORS = (ConfigError, FormatError, IntegrityError, ModelLoadError, UnsupportedRateError, FileNotFoundError)


def _write_atomic(path: Path, data) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    mode = "wb" if isinstance(data, bytes) else "w"
    with open(tmp, mode) as fh:
        fh.write(data)
    os.replace(tmp, path)


def _expand_paths(patterns) -> list[str]:
    out: list[str] = []
    for pattern in patterns:
        hits = sorted(glob.glob(pattern))
        out.extend(hits if hits else [pattern])
    return out


def _ingest_new(path, seen: dict) -> Session:
    """The session at ``path``; its id must not be in ``seen`` (id -> path),
    which records it."""
    s = ingest_session(path)
    if s.id in seen:
        raise IntegrityError(f"session id {s.id!r} is in both {seen[s.id]} and {path}")
    seen[s.id] = path
    return s


def _ingest_all(patterns) -> list[Session]:
    seen: dict = {}
    return [_ingest_new(p, seen) for p in _expand_paths(patterns)]


def _load_sessions(cfg: ResolvedRun):
    """Sessions per the dataset config, plus the gate outcome if gating."""
    if cfg.use_synthetic:
        sessions = generate_synthetic_fleet(cfg.fleet)
    else:
        if not cfg.dataset_paths:
            raise ConfigError("dataset.paths is empty and dataset.synthetic is false")
        sessions = _ingest_all(cfg.dataset_paths)
    gate = None
    if cfg.apply_gate:
        gate = apply_inclusion_gate(sessions, threshold=cfg.iqr_threshold)
        sessions = list(gate.included)
    return sessions, gate


def _gate_report_text(gate, config_hash: str | None, seed: int) -> str:
    included_ids = {s.id for s in gate.included}
    rows = (
        (sid, iqr, gate.threshold, "true" if sid in included_ids else "false")
        for sid, iqr in sorted(gate.iqrs.items())
    )
    return table_text(("session_id", "iqr", "threshold", "included"), rows, config_hash, seed)


def _resolve_from_args(args, overrides: dict[str, str] | None = None) -> ResolvedRun:
    overrides = dict(overrides or {})
    if getattr(args, "out", None):
        overrides["run.out_dir"] = args.out
    if getattr(args, "jobs", None) is not None:
        overrides["run.jobs"] = str(args.jobs)
    if getattr(args, "band", None):
        overrides["plan.band"] = args.band
    if getattr(args, "seed", None) is not None:
        overrides["run.seed"] = str(args.seed)
    if args.config:
        return load_config(args.config, overrides)
    return resolve({}, overrides)


def _write_run_preamble(cfg: ResolvedRun, out_dir: Path) -> None:
    _write_atomic(out_dir / "config.resolved", cfg.resolved_text)


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args) -> int:
    # --seed also seeds the fleet, and config.resolved records it there
    fleet_seed = {} if args.seed is None else {"dataset.synthetic.seed": str(args.seed)}
    cfg = _resolve_from_args(args, fleet_seed)
    out_dir = Path(cfg.out_dir)
    fmt = args.format or "canonical_bin"
    sessions = generate_synthetic_fleet(cfg.fleet)
    _write_run_preamble(cfg, out_dir)
    ext = ".csv" if fmt == "canonical_csv" else ".bin"
    for s in sessions:
        write_session(s, out_dir / f"{s.id}{ext}", fmt=fmt)
    print(f"wrote {len(sessions)} synthetic sessions to {out_dir} ({fmt})")
    return 0


def cmd_ingest(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    fmt = args.format or "canonical_bin"
    ext = ".csv" if fmt == "canonical_csv" else ".bin"
    sessions: list[Session] = []
    failures: list[tuple[str, str]] = []
    seen: dict = {}
    for path in _expand_paths(args.paths):
        try:
            s = _ingest_new(path, seen)
            write_session(s, out_dir / f"{s.id}{ext}", fmt=fmt)
            sessions.append(s)
        except _INPUT_ERRORS as exc:
            failures.append((path, str(exc)))
            print(f"error: {path}: {exc}", file=sys.stderr)
    if sessions:
        gate = apply_inclusion_gate(sessions, threshold=args.iqr_threshold)
        _write_atomic(out_dir / "gate_report.csv", _gate_report_text(gate, None, 0))
        print(
            f"ingested {len(sessions)} sessions; gate retained "
            f"{len(gate.included)} at threshold {gate.threshold:.6g}"
        )
    if failures:
        print(f"{len(failures)} input file(s) failed", file=sys.stderr)
        return 2
    return 0


def _normalizer_extras(norm: Normalizer) -> dict:
    return {
        "norm_mean": np.asarray(norm.mean, dtype=np.float64),
        "norm_std": np.asarray(norm.std, dtype=np.float64),
        "norm_floored": np.asarray(norm.floored, dtype=np.int64),
    }


def _normalizer_from_extras(extras: dict, path) -> Normalizer:
    missing = [k for k in ("norm_mean", "norm_std", "norm_floored") if k not in extras]
    if missing:
        raise ModelLoadError(f"{path}: no normalizer statistics {', '.join(missing)}")
    return Normalizer(
        mean=np.asarray(extras["norm_mean"], dtype=np.float64),
        std=np.asarray(extras["norm_std"], dtype=np.float64),
        floored=tuple(int(i) for i in np.asarray(extras["norm_floored"], dtype=np.int64)),
    )


def cmd_train(args) -> int:
    cfg = _resolve_from_args(args)
    if cfg.plan.strategy not in ("single_80", "single_10"):
        raise ConfigError("cmd_train runs single-session strategies only (single_80 or single_10)")
    sessions, _ = _load_sessions(cfg)
    if cfg.train_session:
        matches = [s for s in sessions if s.id == cfg.train_session]
        if not matches:
            raise ConfigError(f"train.session {cfg.train_session!r} not found in dataset")
        session = matches[0]
    elif len(sessions) == 1:
        session = sessions[0]
    else:
        raise ConfigError("dataset holds several sessions; set train.session to pick one")

    out_dir = Path(cfg.out_dir)
    _write_run_preamble(cfg, out_dir)
    run = run_single_session(session, cfg.plan)
    meta = {
        "session_id": session.id,
        "rat_id": session.rat_id,
        "strategy": cfg.plan.strategy,
        "region_set": cfg.plan.region_label,
        "band": cfg.plan.band,
        "clip_nonnegative": cfg.plan.clip_nonnegative,
        "master_seed": cfg.plan.master_seed,
        "config_hash": cfg.config_hash,
    }
    model_path = out_dir / f"{session.id}.model"
    save_state(run.decoder, model_path, extras=_normalizer_extras(run.normalizer), meta=meta)
    if run.report is not None:
        _write_atomic(out_dir / f"{session.id}.report.jsonl", run.report.to_jsonl())
    _write_atomic(
        out_dir / "results.csv",
        results_to_csv_text([run.result], cfg.config_hash, cfg.seed),
    )
    print(
        f"trained {cfg.decoder.family} on {session.id}: "
        f"r={run.result.r:.4f} r2={run.result.r2:.4f} -> {model_path}"
    )
    return 0


def cmd_eval(args) -> int:
    decoder, extras, meta = load_state(args.model)
    session = ingest_session(args.session)
    normalizer = _normalizer_from_extras(extras, args.model)
    region = meta.get("region_set", "all")
    plan = ExperimentPlan(
        decoder=decoder.spec,
        strategy=meta.get("strategy", "single_80"),
        region_set=() if region == "all" else tuple(region.split("+")),
        band=meta.get("band", "fullband"),
        offset_ms=args.offset_ms,
        clip_nonnegative=bool(meta.get("clip_nonnegative", False)),
        master_seed=int(meta.get("master_seed", 0)),
    )
    result = evaluate_saved(decoder, normalizer, session, plan)
    text = results_to_csv_text([result], meta.get("config_hash", ""), plan.master_seed)
    if args.out:
        _write_atomic(Path(args.out), text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_experiment(args) -> int:
    cfg = _resolve_from_args(args)
    sessions, gate = _load_sessions(cfg)
    out_dir = Path(cfg.out_dir)
    _write_run_preamble(cfg, out_dir)
    jobs = cfg.jobs

    if cfg.kind == "baseline":
        out = run_baseline(sessions, cfg.plan, jobs=jobs)
    elif cfg.kind == "transfer":
        out = run_transfer(sessions, cfg.plan, jobs=jobs)
    elif cfg.kind == "regions":
        out = run_region_analysis(sessions, cfg.plan, include_pairs=cfg.include_pairs, jobs=jobs)
    elif cfg.kind == "bands":
        out = run_band_analysis(sessions, cfg.plan, bands=cfg.bands, jobs=jobs)
    else:  # offsets; resolve admits no other kind
        out = run_offset_analysis(
            sessions,
            cfg.plan,
            offsets_ms=cfg.offsets_ms or DEFAULT_OFFSETS_MS,
            include_speed_rnn=cfg.include_speed_rnn,
            include_autocorrelation=cfg.include_autocorrelation,
            jobs=jobs,
        )

    if gate is not None:
        _write_atomic(out_dir / "gate_report.csv", _gate_report_text(gate, cfg.config_hash, cfg.seed))
    _write_atomic(out_dir / "results.csv", results_to_csv_text(out.results, cfg.config_hash, cfg.seed))
    _write_atomic(out_dir / "timings.csv", timings_to_csv_text(out.timings))
    if out.pairs:
        pairs = sorted(out.pairs, key=lambda r: (r.source_id, r.session_id))
        rows = ((r.source_id, r.session_id, r.r, r.r2, r.n_test_windows) for r in pairs)
        columns = ("source_id", "target_id", "r", "r2", "n_test_windows")
        _write_atomic(out_dir / "results_pairs.csv", table_text(columns, rows, cfg.config_hash, cfg.seed))
    if out.skipped:
        _write_atomic(out_dir / "skipped.csv", table_text(("session_id", "region_set"), out.skipped))
    if out.failures:
        columns = ("kind", "unit_id", "cell_id", "error", "message")
        _write_atomic(out_dir / "failures.csv", table_text(columns, out.failures))
    if out.band_energies:
        columns = ("session_id", "band", "mean_channel_variance")
        _write_atomic(out_dir / "band_energies.csv", table_text(columns, out.band_energies))
    print(f"{cfg.kind} experiment: {len(out.results)} result rows -> {out_dir / 'results.csv'}")
    return 0


def cmd_report(args) -> int:
    text = Path(args.results).read_text(encoding="utf-8")
    config_hash, seed = table_header(text)
    results = parse_results_csv(text)
    out_dir = Path(args.out)
    _write_atomic(out_dir / "medians.csv", medians_csv_text(results, config_hash, seed))
    _write_atomic(out_dir / "tests.csv", tests_csv_text(results, "r", config_hash, seed))
    curves, fits = curves_csv_text(results, config_hash, seed)
    _write_atomic(out_dir / "offset_curves.csv", curves)
    _write_atomic(out_dir / "offset_curve_fits.csv", fits)
    written = ["medians.csv", "tests.csv", "offset_curves.csv", "offset_curve_fits.csv"]
    if args.sessions:
        sessions = _ingest_all(args.sessions)
        _write_atomic(out_dir / "spectra.csv", spectra_csv_text(sessions, config_hash, seed))
        written.append("spectra.csv")
    print(f"report: wrote {', '.join(written)} to {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="locodec",
        description="Continuous EEG-to-speed decoding pipeline (sessions, decoders, transfer, attribution, offsets).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, config=True):
        if config:
            p.add_argument("--config", help="dotted-key config file")
        p.add_argument("--out", help="output directory")
        p.add_argument("--seed", type=int, help="master seed (overrides the config)")

    p = sub.add_parser("synth", help="generate a synthetic session fleet")
    add_common(p)
    p.add_argument("--format", choices=("canonical_csv", "canonical_bin"), help="output file format")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("ingest", help="convert sessions to canonical format and gate them")
    p.add_argument("paths", nargs="+", help="session files (canonical csv/bin)")
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("canonical_csv", "canonical_bin"))
    p.add_argument("--iqr-threshold", type=float, default=None, help="inclusion gate threshold (default: 10th percentile)")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("train", help="train one decoder on one session")
    add_common(p)
    p.add_argument("--band", help="band isolation before training")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a saved model file on a session")
    p.add_argument("model", help="model file from `locodec train`")
    p.add_argument("session", help="canonical session file")
    p.add_argument("--offset-ms", type=int, default=0)
    p.add_argument("--out", help="write the one-row results CSV here instead of stdout")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("experiment", help="run an experiment grid from a config")
    add_common(p)
    p.add_argument("--jobs", type=int, help="worker processes (1 = serial reference run)")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("report", help="summarize a results table into report CSVs")
    p.add_argument("results", help="results.csv from `locodec experiment`")
    p.add_argument("--out", required=True)
    p.add_argument("--sessions", nargs="*", help="session files for speed-decile spectra")
    p.set_defaults(func=cmd_report)
    return parser


def entrypoint(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LocodecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(entrypoint())
