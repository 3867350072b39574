"""The four workloads: their inputs, set-up, timed phase and output checks.

Every workload drives the package from outside: through ``locodec`` CLI
subcommands (called in-process via ``locodec.cli.entrypoint``) and the
public functions of its modules. The program sees only the session files
and config files written here. Every fit runs a fixed number of epochs
(``train.patience`` equals ``train.max_epochs``), so the amount of work
does not depend on float rounding.

Expected values in the checks are computed here, apart from the program:
window counts from the documented 80/10/10 split, pair counts from the
roster, correlations and medians with numpy.

A workload's ``setup(work, seed)`` writes its inputs and returns what the
rounds need. Its ``spans`` are the traced spans every traced round must
record, so that a refactor which moves a call away from a wrapped attribute
cannot silently zero a layer metric. ``timed(info, out, seed, jobs)`` runs
one round's operations and returns the round's check; the caller stops its
clock before calling it, and it returns a :class:`RoundOutput`.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WINDOW = 20  # samples per decoding window: 200 ms at 100 Hz
STRIDE_MS = 10
EPOCHS = 2
FOREST_TREES = 3
FOREST_BANDS = ("fullband", "theta", "beta")
LADDER_OFFSETS_MS = (0, 500)
SPECTRA_NFFT = 128

# The spectra check runs on a fleet with a fixed seed: it is the one check
# that fails today (spectra.csv writes the whole per-decile count array
# into every row), and a failure kept in the benchmark must see the same
# inputs on every seed.
SPECTRA_FLEET_SEED = 7
KNOWN_FAULTS = ("spectra_n_sessions",)

# Quality thresholds. Each holds with a margin on every seed tried
# (README.md lists the observed ranges).
LADDER_LSTM_MIN_R = 0.5
LADDER_LINEAR_MAX_ABS_R = 0.25
FOREST_THETA_MAX_GAP = 0.2
FOREST_BETA_MAX_R = 0.25
TRANSFER_MIN_R = 0.4
ONLINE_MIN_R = 0.4

# The lstm_rnn shape of ladder_train and of the online_decode model.
READOUT_KEYS = {"decoder.lstm_hidden": 32, "decoder.head_hidden": 8}

# 32 channels: the paper's EEG montage and the program's default
# (dataset.synthetic.n_channels, decoder.n_channels). The forest's split
# search, the recurrent input matmuls and band filtering all scale with it.
BASE_FLEET = {
    "n_channels": 32,
    "duration_s": 40.0,
    "noise_scale": 0.1,
    "speed_tau_s": 0.5,
    "speed_bias": 1.0,
}
TRAIN_KEYS = {
    "train.learning_rate": 0.01,
    "train.batch_size": 32,
    "train.max_epochs": EPOCHS,
    "train.patience": EPOCHS,
}


# ---------------------------------------------------------------------------
# helpers


def config_text(keys: dict) -> str:
    return "".join(f"{k} = {v}\n" for k, v in keys.items())


def fleet_keys(**spec) -> dict:
    return {f"dataset.synthetic.{k}": v for k, v in {**BASE_FLEET, **spec}.items()}


def run_cli(argv: list[str]) -> None:
    """One ``locodec`` invocation, in-process. Its messages go to stderr so
    that the benchmark's standard output stays its own."""
    from locodec import cli

    with contextlib.redirect_stdout(sys.stderr):
        code = cli.entrypoint([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"locodec {' '.join(map(str, argv))} exited {code}")


def synth(work: Path, name: str, keys: dict, seed: int) -> list[Path]:
    cfg = work / f"{name}.cfg"
    cfg.write_text(config_text(keys))
    out = work / name
    run_cli(["synth", "--config", cfg, "--out", out, "--seed", seed])
    return sorted(out.glob("*.bin"))


def read_rows(path: Path) -> list[dict]:
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    return list(csv.DictReader(lines))


def eval_segment(n: int) -> range:
    """Final 10% of a session: the test segment of every strategy."""
    return range(math.floor(0.9 * n), n)


def fit_windows(n: int, strategy: str, offset_ms: int) -> int:
    """Training windows of one fit: every window inside the fitting range
    whose shifted target lies in the session and outside the test range."""
    stop = math.floor((0.8 if strategy == "single_80" else 0.1) * n)
    starts = np.arange(0, stop - WINDOW + 1)
    targets = starts + WINDOW - 1 + offset_ms // STRIDE_MS
    return int(np.sum((targets >= 0) & (targets < eval_segment(n).start)))


def eval_windows(n: int, offset_ms: int) -> int:
    """Test windows: ``len(test) - 19``, minus one per 10 ms of offset."""
    return len(eval_segment(n)) - WINDOW + 1 - abs(offset_ms) // STRIDE_MS


def pearson(a, b) -> float:
    return float(np.corrcoef(np.asarray(a, float), np.asarray(b, float))[0, 1])


@dataclass
class Readout:
    """Closed-loop replay of one stream: predictions, their targets and the
    latency of each readout (sample arrival to prediction returned)."""

    preds: list[float] = field(default_factory=list)
    targets: list[float] = field(default_factory=list)
    latencies_s: list[float] = field(default_factory=list)
    gc_gen2: int = 0


def stream(decoder, mean, std, session, samples: range, out: Readout) -> None:
    """Push the samples one at a time. Each is normalized with the given
    statistics and appended to the latest 20-sample window; once the window
    is full, ``Decoder.predict_batch`` runs on a batch of one. The next
    sample is pushed only after the readout returns."""
    eeg, speed = session.eeg, session.speed
    window = np.zeros((1, WINDOW, eeg.shape[0]))
    gen2 = gc.get_stats()[2]["collections"]
    for i, t in enumerate(samples):
        t0 = time.perf_counter()
        window[0, :-1] = window[0, 1:]
        window[0, -1] = (eeg[:, t] - mean) / std
        if i >= WINDOW - 1:
            out.preds.append(float(decoder.predict_batch(window)[0]))
            out.latencies_s.append(time.perf_counter() - t0)
            out.targets.append(float(speed[t]))
    out.gc_gen2 += gc.get_stats()[2]["collections"] - gen2


@dataclass
class RoundOutput:
    """What one timed round hands back: its checks, its headline quality,
    the training work it did and, for online_decode, its readout stream."""

    checks: list[tuple[str, bool, str]]
    median_r: float
    train_work: float  # windows x epochs (trees for the forest)
    readout: Readout = field(default_factory=Readout)
    timings: list[Path] = field(default_factory=list)


def load_sessions(files: list[str]) -> list:
    """The round's session files, read for the checks."""
    from locodec import sessions

    return [sessions.ingest_session(f) for f in files]


def window_checks(name: str, rows: list[dict], n_by_session: dict[str, int]) -> tuple[str, bool, str]:
    bad = [
        r for r in rows
        if int(r["n_test_windows"]) != eval_windows(n_by_session[r["session_id"]], int(r["offset_ms"]))
    ]
    return (f"windows:{name}", not bad and bool(rows), f"{len(bad)} of {len(rows)} rows off")


# ---------------------------------------------------------------------------
# ladder_train


class LadderTrain:
    """One ``locodec experiment`` per trainable family on an ``am`` fleet,
    where linear readouts fail and nonlinear decoders succeed."""

    fleet = fleet_keys(n_rats=2, sessions_per_rat=1, encoding="am")
    spans = {
        "sessions.ingest", "sessions.window", "sessions.normalize", "dsp.band_isolate",
        "autodiff.backward", "decoders.loss_batch", "decoders.predict_batch", "trainer.train",
    }
    experiments = {
        "linear": {"experiment.kind": "baseline", "decoder.family": "linear"},
        "ffnn": {"experiment.kind": "baseline", "decoder.family": "ffnn", "decoder.ffnn_hidden": 32},
        # The transformer builds one graph per window, the costliest family
        # per window by far; it fits on the first 10% (single_10).
        "transformer_encoder": {
            "experiment.kind": "baseline",
            "decoder.family": "transformer_encoder",
            "plan.strategy": "single_10",
            "decoder.embed_dim": 8,
            "decoder.n_heads": 1,
            "decoder.head_hidden": 8,
            "train.learning_rate": 0.003,
        },
        "lstm_rnn": {
            "experiment.kind": "offsets",
            "decoder.family": "lstm_rnn",
            "experiment.offsets_ms": ",".join(map(str, LADDER_OFFSETS_MS)),
            "experiment.include_speed_rnn": "true",
            "experiment.include_autocorrelation": "true",
            **READOUT_KEYS,
        },
    }

    def setup(self, work: Path, seed: int) -> dict:
        files = synth(work, "fleet", self.fleet, seed)
        cfgs = {}
        for name, keys in self.experiments.items():
            cfgs[name] = work / f"{name}.cfg"
            cfgs[name].write_text(
                config_text({"run.seed": seed, "dataset.paths": f"{work / 'fleet'}/*.bin", **TRAIN_KEYS, **keys})
            )
        return {"files": [str(f) for f in files], "configs": {k: str(v) for k, v in cfgs.items()}}

    def timed(self, info: dict, out: Path, seed: int, jobs: int):
        for name, cfg in info["configs"].items():
            run_cli(["experiment", "--config", cfg, "--out", out / name, "--jobs", 1])
        return lambda: self.check(out, info)

    def check(self, out: Path, info: dict) -> RoundOutput:
        loaded = load_sessions(info["files"])
        n_by = {s.id: s.n_samples for s in loaded}
        checks = []
        rows = {name: read_rows(out / name / "results.csv") for name in self.experiments}
        work = 0.0
        for name, table in rows.items():
            models = [r for r in table if r["model"] != "autocorrelation"]
            strategy = self.experiments[name].get("plan.strategy", "single_80")
            if name == "lstm_rnn":
                want = len(loaded) * len(LADDER_OFFSETS_MS) * 2
                for off in LADDER_OFFSETS_MS:
                    work += 2 * sum(fit_windows(n, strategy, off) for n in n_by.values()) * EPOCHS
            else:
                want = len(loaded)
                work += sum(fit_windows(n, strategy, 0) for n in n_by.values()) * EPOCHS
            checks.append((f"rows:{name}", len(models) == want, f"{len(models)} == {want}"))
            checks.append(window_checks(name, models, n_by))

        # Speed autocorrelation rows: exactly 1 at offset 0, symmetric, and
        # equal to numpy's lagged Pearson r.
        auto = [r for r in rows["lstm_rnn"] if r["model"] == "autocorrelation"]
        by_key = {(r["session_id"], int(r["offset_ms"])): float(r["r"]) for r in auto}
        ok = bool(auto)
        worst = 0.0
        for s in loaded:
            ok = ok and by_key.get((s.id, 0)) == 1.0
            for lag_ms in range(STRIDE_MS, 1001, STRIDE_MS):
                ok = ok and by_key.get((s.id, lag_ms)) == by_key.get((s.id, -lag_ms))
            k = 500 // STRIDE_MS
            worst = max(worst, abs(by_key.get((s.id, 500), 2.0) - pearson(s.speed[:-k], s.speed[k:])))
        checks.append(("autocorrelation", ok and worst <= 1e-9, f"lag-500 max err {worst:.1e}"))

        lstm = float(np.median([float(r["r"]) for r in rows["lstm_rnn"] if r["model"] == "lstm_rnn" and r["offset_ms"] == "0"]))
        linear = float(np.median([float(r["r"]) for r in rows["linear"]]))
        checks.append(("ladder_lstm", lstm >= LADDER_LSTM_MIN_R, f"lstm_rnn median r {lstm:.3f} >= {LADDER_LSTM_MIN_R}"))
        checks.append(("ladder_linear", abs(linear) <= LADDER_LINEAR_MAX_ABS_R, f"|linear median r| {abs(linear):.3f} <= {LADDER_LINEAR_MAX_ABS_R}"))
        timings = [out / name / "timings.csv" for name in self.experiments]
        return RoundOutput(checks, lstm, work, timings=timings)


# ---------------------------------------------------------------------------
# forest_bands


class ForestBands:
    """``locodec experiment`` kind ``bands`` with a small random forest on a
    fleet whose speed drives a 5-7 Hz carrier, then ``locodec report``."""

    # single_10 on 160 s sessions: the forest fits on 16 s and is scored on
    # 16 s, long enough for a steady r, at half the fitting cost of
    # single_80 on 40 s.
    fleet = fleet_keys(n_rats=3, sessions_per_rat=1, encoding="am", carrier_band="5.0,7.0", duration_s=160.0)
    spectra_fleet = fleet_keys(n_rats=3, sessions_per_rat=1, encoding="am", eight_hz_gain=0.5)
    spans = {
        "sessions.ingest", "sessions.window", "sessions.normalize", "dsp.band_isolate",
        "dsp.spectra", "decoders.predict_batch", "forest.fit", "forest.predict",
        "reporting.report",
    }
    experiment = {
        "experiment.kind": "bands",
        "experiment.bands": ",".join(FOREST_BANDS),
        "plan.strategy": "single_10",
        "decoder.family": "random_forest",
        "decoder.n_trees": FOREST_TREES,
        "decoder.max_depth": 5,
    }

    def setup(self, work: Path, seed: int) -> dict:
        files = synth(work, "fleet", self.fleet, seed)
        spectra = synth(work, "spectra", self.spectra_fleet, SPECTRA_FLEET_SEED)
        cfg = work / "bands.cfg"
        cfg.write_text(config_text({"run.seed": seed, "dataset.paths": f"{work / 'fleet'}/*.bin", **self.experiment}))
        return {"files": [str(f) for f in files], "spectra": [str(f) for f in spectra], "config": str(cfg)}

    def timed(self, info: dict, out: Path, seed: int, jobs: int):
        run_cli(["experiment", "--config", info["config"], "--out", out / "bands", "--jobs", 1])
        run_cli(["report", out / "bands" / "results.csv", "--out", out / "report", "--sessions", *info["spectra"]])
        return lambda: self.check(out, info)

    def check(self, out: Path, info: dict) -> RoundOutput:
        loaded = load_sessions(info["files"])
        n_by = {s.id: s.n_samples for s in loaded}
        rows = read_rows(out / "bands" / "results.csv")
        want = len(loaded) * len(FOREST_BANDS)
        checks = [("rows:bands", len(rows) == want, f"{len(rows)} == {want}"), window_checks("bands", rows, n_by)]
        by_band = {b: [float(r["r"]) for r in rows if r["band"] == b] for b in FOREST_BANDS}
        med = {b: float(np.median(v)) for b, v in by_band.items()}
        gap = abs(med["theta"] - med["fullband"])
        checks.append(("band_theta", gap <= FOREST_THETA_MAX_GAP, f"|theta - fullband| {gap:.3f} <= {FOREST_THETA_MAX_GAP}"))
        checks.append(("band_beta", med["beta"] <= FOREST_BETA_MAX_R, f"beta median r {med['beta']:.3f} <= {FOREST_BETA_MAX_R}"))

        energies = read_rows(out / "bands" / "band_energies.csv")
        energy = {(e["session_id"], e["band"]): float(e["mean_channel_variance"]) for e in energies}
        ok = len(energies) == want
        for s in loaded:
            full = float(np.mean(np.var(s.eeg, axis=1)))
            ok = ok and math.isclose(energy.get((s.id, "fullband"), -1.0), full, rel_tol=1e-12)
            ok = ok and energy.get((s.id, "beta"), math.inf) < full
        checks.append(("band_energies", ok, "fullband energy equals numpy variance; beta below it"))

        medians = read_rows(out / "report" / "medians.csv")
        ok = len(medians) == len(FOREST_BANDS)
        for m in medians:
            values = by_band.get(m["band"], [])
            ok = ok and int(m["n_sessions"]) == len(values)
            ok = ok and float(m["median_r"]) == float(np.median(values))
            ok = ok and float(m["ci_lo_r"]) <= float(m["median_r"]) <= float(m["ci_hi_r"])
        checks.append(("report_medians", ok, "medians.csv rows equal numpy medians inside their CIs"))

        checks += self.spectra_checks(out / "report" / "spectra.csv", info["spectra"])
        work = len(FOREST_BANDS) * sum(fit_windows(n, "single_10", 0) for n in n_by.values()) * FOREST_TREES
        return RoundOutput(checks, med["fullband"], work, timings=[out / "bands" / "timings.csv"])

    @staticmethod
    def spectra_checks(path: Path, files: list[str]) -> list[tuple[str, bool, str]]:
        """Per speed decile, the number of sessions with at least one
        contiguous run of that decile as long as one Welch segment."""
        counts = np.zeros(10, dtype=int)
        for s in load_sessions(files):
            speed = s.speed
            deciles = np.minimum(np.searchsorted(np.percentile(speed, np.arange(10, 101, 10)), speed), 9)
            for d in range(10):
                idx = np.flatnonzero(deciles == d)
                runs = np.split(idx, np.flatnonzero(np.diff(idx) > 1) + 1) if idx.size else []
                counts[d] += any(len(run) >= SPECTRA_NFFT for run in runs)
        rows = read_rows(path)
        present = sorted({int(r["decile"]) for r in rows})
        want = [d + 1 for d in range(10) if counts[d]]
        bad = [r for r in rows if r["n_sessions"] != str(counts[int(r["decile"]) - 1])]
        return [
            ("spectra_deciles", present == want, f"deciles {present} == {want}"),
            ("spectra_n_sessions", not bad and bool(rows), f"{len(bad)} of {len(rows)} rows disagree, e.g. {bad[0]['n_sessions'] if bad else ''}"),
        ]


# ---------------------------------------------------------------------------
# transfer_finetune


class TransferFinetune:
    """``locodec experiment`` kind ``transfer``, head-only fine-tuning across
    subjects on a fleet with per-rat channel scrambling."""

    # Three sessions per rat: each target's row is the median over three
    # sources, which keeps one failed fine-tune from moving it.
    fleet = fleet_keys(n_rats=2, sessions_per_rat=3, encoding="linear", noise_scale=0.3, scramble_channels="true")
    # Source training runs in --jobs workers, whose spans are not collected.
    spans = {
        "sessions.ingest", "sessions.window", "sessions.normalize", "dsp.band_isolate",
        "autodiff.backward", "decoders.loss_batch", "decoders.predict_batch",
        "trainer.fine_tune",
    }
    experiment = {
        "experiment.kind": "transfer",
        "plan.strategy": "finetune_cross_subject",
        "decoder.family": "lstm_rnn",
        "decoder.lstm_hidden": 16,
        "decoder.head_hidden": 8,
    }

    def setup(self, work: Path, seed: int) -> dict:
        files = synth(work, "fleet", self.fleet, seed)
        cfg = work / "transfer.cfg"
        cfg.write_text(config_text({"run.seed": seed, "dataset.paths": f"{work / 'fleet'}/*.bin", **TRAIN_KEYS, **self.experiment}))
        return {"files": [str(f) for f in files], "config": str(cfg)}

    def timed(self, info: dict, out: Path, seed: int, jobs: int):
        run_cli(["experiment", "--config", info["config"], "--out", out / "transfer", "--jobs", jobs])
        return lambda: self.check(out, info)

    def check(self, out: Path, info: dict) -> RoundOutput:
        loaded = load_sessions(info["files"])
        n_by = {s.id: s.n_samples for s in loaded}
        rat_of = {s.id: s.rat_id for s in loaded}
        roster: dict[str, int] = {}
        for s in loaded:
            roster[s.rat_id] = roster.get(s.rat_id, 0) + 1
        total = sum(roster.values())
        want_pairs = sum(n * (total - n) for n in roster.values())

        pairs = read_rows(out / "transfer" / "results_pairs.csv")
        pair_keys = {(p["source_id"], p["target_id"]) for p in pairs}
        cross = {(a, b) for a in rat_of for b in rat_of if rat_of[a] != rat_of[b]}
        checks = [
            ("pair_count", len(pairs) == want_pairs, f"{len(pairs)} == sum n_i(N - n_i) = {want_pairs}"),
            ("pair_set", pair_keys == cross, "pairs are exactly the cross-rat ordered pairs"),
        ]
        bad = [p for p in pairs if int(p["n_test_windows"]) != eval_windows(n_by[p["target_id"]], 0)]
        checks.append(("windows:pairs", not bad, f"{len(bad)} of {len(pairs)} pairs off"))

        agg = read_rows(out / "transfer" / "results.csv")
        ok = sorted(r["session_id"] for r in agg) == sorted(n_by)
        for r in agg:
            per_pair = [float(p["r"]) for p in pairs if p["target_id"] == r["session_id"]]
            ok = ok and float(r["r"]) == float(np.median(per_pair))
        checks.append(("aggregate_medians", ok, "one row per target, r = numpy median over its sources"))
        checks.append(window_checks("aggregated", agg, n_by))

        labels = [ln.split(",")[0] for ln in (out / "transfer" / "timings.csv").read_text().splitlines()[1:]]
        n_train = sum(lab.startswith("train:") for lab in labels)
        n_pair = sum(lab.startswith("pair:") for lab in labels)
        checks.append(("timings", (n_train, n_pair) == (len(n_by), want_pairs), f"{n_train} train, {n_pair} pair rows"))

        med = float(np.median([float(r["r"]) for r in agg]))
        checks.append(("transfer_quality", med >= TRANSFER_MIN_R, f"median fine-tune r {med:.3f} >= {TRANSFER_MIN_R}"))
        work = (
            sum(fit_windows(n, "single_80", 0) for n in n_by.values())
            + sum(fit_windows(n_by[p["target_id"]], "finetune_cross_subject", 0) for p in pairs)
        ) * EPOCHS
        return RoundOutput(checks, med, work, timings=[out / "transfer" / "timings.csv"])


# ---------------------------------------------------------------------------
# online_decode


class OnlineDecode:
    """An ``lstm_rnn`` trained on a short session decodes, one window at a
    time, the test segment of a long session of the same rat that it never
    saw; ``locodec eval`` then scores the same model on the same session in
    one batch."""

    fleet = {"encoding": "am", "n_rats": 1}
    short_s, long_s = 30.0, 120.0
    spans = {"sessions.ingest", "sessions.window", "sessions.normalize", "decoders.predict_batch"}

    def setup(self, work: Path, seed: int) -> dict:
        short = synth(work, "short", fleet_keys(**self.fleet, sessions_per_rat=1, duration_s=self.short_s), seed)
        long = synth(work, "long", fleet_keys(**self.fleet, sessions_per_rat=2, duration_s=self.long_s), seed)
        cfg = work / "train.cfg"
        cfg.write_text(
            config_text({"run.seed": seed, "dataset.paths": str(short[0]), "decoder.family": "lstm_rnn", **READOUT_KEYS, **TRAIN_KEYS})
        )
        t0 = time.perf_counter()
        run_cli(["train", "--config", cfg, "--out", work / "model"])
        train_s = time.perf_counter() - t0
        n = round(self.short_s * 100)
        model = next((work / "model").glob("*.model"))
        return {
            "model": str(model),
            "session": str(long[-1]),
            "train_samples_per_s": fit_windows(n, "single_80", 0) * EPOCHS / train_s,
        }

    def timed(self, info: dict, out: Path, seed: int, jobs: int):
        from locodec import decoders, sessions

        decoder, extras, _ = decoders.load_state(info["model"])
        session = sessions.ingest_session(info["session"])
        readout = Readout()
        stream(decoder, extras["norm_mean"], extras["norm_std"], session, eval_segment(session.n_samples), readout)
        run_cli(["eval", info["model"], info["session"], "--out", out / "eval.csv"])
        return lambda: self.check(out, readout, session)

    def check(self, out: Path, readout: Readout, session) -> RoundOutput:
        row = read_rows(out / "eval.csv")[0]
        r_stream = pearson(readout.preds, readout.targets)
        r_eval = float(row["r"])
        want = eval_windows(session.n_samples, 0)
        got = (len(readout.preds), int(row["n_test_windows"]))
        checks = [
            ("stream_windows", got == (want, want), f"stream, eval windows {got} == {want}"),
            ("stream_r_equals_eval", abs(r_stream - r_eval) <= 1e-9, f"|{r_stream!r} - {r_eval!r}| <= 1e-9"),
            ("stream_finite", bool(np.all(np.isfinite(readout.preds))), "all streamed predictions finite"),
            ("online_quality", r_stream >= ONLINE_MIN_R, f"streamed r {r_stream:.3f} >= {ONLINE_MIN_R}"),
        ]
        return RoundOutput(checks, r_stream, 0.0, readout)

    @staticmethod
    def predict_peak_mb(info: dict) -> float:
        """Traced allocation peak of one ``predict_batch`` over the whole test
        segment, the batch ``locodec eval`` runs."""
        import tracemalloc

        from locodec import decoders, sessions

        decoder, extras, _ = decoders.load_state(info["model"])
        s = sessions.ingest_session(info["session"])
        z = (s.eeg - extras["norm_mean"][:, None]) / extras["norm_std"][:, None]
        starts = np.arange(eval_segment(s.n_samples).start, s.n_samples - WINDOW + 1)
        x = np.stack([z[:, a : a + WINDOW].T for a in starts])
        tracemalloc.start()
        try:
            decoder.predict_batch(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / 2**20


WORKLOADS = {
    "ladder_train": LadderTrain(),
    "forest_bands": ForestBands(),
    "transfer_finetune": TransferFinetune(),
    "online_decode": OnlineDecode(),
}
