"""SHA-256 of every output file of one fixed command set.

Usage::

    python scripts/output_digest.py SRC OUTDIR [--jobs N] > digests.txt

Imports ``locodec`` from ``SRC/src`` (a checkout of this repository) and
runs, in-process, one fixed set of commands on a 2-rat x 2-session,
8-channel synthetic fleet:

- sixteen experiments, each followed by ``report``: ``baseline`` (ffnn,
  clipped), ``forest``, ``forest_bands`` (a 3-tree, depth-5 forest in
  every band, so that band-filtered forest fits are compared too),
  ``regions`` (on 4 channels, so that some region cells are skipped),
  ``bands``, ``offsets`` (three offsets, so the quadratic fit has a row)
  and the same in the ``theta`` band (the speed-history rows keep the
  ``fullband`` label of their unfiltered trace, and ``tests.csv`` pairs
  them with the theta rows), ``finetune_cross_subject``,
  ``zeroshot_cross_session`` (the source normalizer reused), a gated
  ``baseline``, a ``transformer_encoder`` baseline, and three fine-tunes of
  families with a frozen body: ``lstm_rnn`` with
  ``finetune_cross_subject``, and ``ffnn`` and ``transformer_encoder``
  with ``finetune_cross_session``; then a ``regions`` run and a
  ``finetune_cross_session`` transfer on a 3-rat fleet of seed 3, where
  ``rat01_s01``'s test speed is constant, so that the failed units and
  the order of ``failures.csv`` are compared too;
- ``synth``, then ``train`` in the ``theta`` band on one written session;
- ``synth --seed``, the form of ``synth`` the benchmark runs;
- ``synth --format canonical_csv``, then ``ingest`` of those CSV files, so
  that the CSV session reader and writer run too;
- ``eval`` of that model at -100, 0 and 200 ms;
- ``train`` of a 4-tree ``random_forest`` on the same session, and its
  ``eval`` at 0 ms, so that the forest's model file is read back too;
- ``ingest`` of the written sessions, then ``report --sessions``.

It then prints one ``<sha256>  <path>`` line per output file, sorted by
path, except ``timings.csv`` (wall times) and the ``*.cfg`` inputs it
writes. Commands run inside OUTDIR with relative output paths, so
``config.resolved`` names the same directories whatever OUTDIR is. Two source trees give the same outputs exactly when
their printed digests are the same::

    python scripts/output_digest.py old/ out_old > old.txt
    python scripts/output_digest.py new/ out_new > new.txt
    diff old.txt new.txt

``--jobs`` sets the worker count of the experiments (default 1); only the
experiments' ``config.resolved`` files, which record ``run.jobs``, differ
between worker counts. The commands' own output goes to stderr; OUTDIR
must be new or empty.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import os
import sys
from pathlib import Path

FLEET = {
    "run.seed": "3",
    "dataset.synthetic": "true",
    "dataset.synthetic.n_rats": "2",
    "dataset.synthetic.sessions_per_rat": "2",
    "dataset.synthetic.n_channels": "8",
    "dataset.synthetic.duration_s": "20.0",
    "decoder.family": "linear",
    "decoder.ffnn_hidden": "16,8",
    "decoder.lstm_hidden": "8",
    "train.max_epochs": "4",
    "train.patience": "2",
}

# rat01_s01's test speed is constant on this fleet, so its units fail
FAILING_FLEET = {"dataset.synthetic.seed": "3", "dataset.synthetic.n_rats": "3"}

EXPERIMENTS = {
    "baseline": {"decoder.family": "ffnn", "plan.clip_nonnegative": "true"},
    "forest": {"decoder.family": "random_forest", "decoder.n_trees": "4", "decoder.max_depth": "4"},
    "forest_bands": {
        "experiment.kind": "bands",
        "decoder.family": "random_forest",
        "decoder.n_trees": "3",
        "decoder.max_depth": "5",
    },
    "regions": {"experiment.kind": "regions", "dataset.synthetic.n_channels": "4"},
    "bands": {"experiment.kind": "bands"},
    "offsets": {"experiment.kind": "offsets", "experiment.offsets_ms": "-100,0,100"},
    "offsets_theta": {"experiment.kind": "offsets", "experiment.offsets_ms": "-100,0,100", "plan.band": "theta"},
    "finetune": {"experiment.kind": "transfer", "plan.strategy": "finetune_cross_subject"},
    "zeroshot": {"experiment.kind": "transfer", "plan.strategy": "zeroshot_cross_session"},
    "gated": {"dataset.apply_gate": "true"},
    "transformer": {"decoder.family": "transformer_encoder", "decoder.embed_dim": "8", "decoder.n_heads": "2"},
    "finetune_lstm": {"experiment.kind": "transfer", "plan.strategy": "finetune_cross_subject", "decoder.family": "lstm_rnn"},
    "finetune_ffnn": {"experiment.kind": "transfer", "plan.strategy": "finetune_cross_session", "decoder.family": "ffnn"},
    "finetune_transformer": {
        "experiment.kind": "transfer",
        "plan.strategy": "finetune_cross_session",
        "decoder.family": "transformer_encoder",
        "decoder.embed_dim": "8",
        "decoder.n_heads": "2",
    },
    "regions_failures": {"experiment.kind": "regions", **FAILING_FLEET},
    "finetune_failures": {"experiment.kind": "transfer", "plan.strategy": "finetune_cross_session", **FAILING_FLEET},
}


def _write_cfg(path: Path, entries: dict) -> str:
    path.write_text("".join(f"{k} = {v}\n" for k, v in entries.items()))
    return str(path)


def run_commands(entrypoint, jobs: int) -> None:
    """The fixed command set, run in the current directory."""

    def run(*argv):
        if entrypoint([str(a) for a in argv]) != 0:
            raise SystemExit(f"command failed: locodec {' '.join(map(str, argv))}")

    for name, extra in EXPERIMENTS.items():
        cfg = _write_cfg(Path(f"{name}.cfg"), {**FLEET, **extra})
        run("experiment", "--config", cfg, "--out", name, "--jobs", jobs)
        run("report", f"{name}/results.csv", "--out", f"{name}/report")

    run("synth", "--config", _write_cfg(Path("synth.cfg"), FLEET), "--out", "synth")
    run("synth", "--config", "synth.cfg", "--out", "synth_seed", "--seed", 11)
    run("synth", "--config", "synth.cfg", "--out", "synth_csv", "--format", "canonical_csv")
    run("ingest", *sorted(Path("synth_csv").glob("*.csv")), "--out", "ingest_csv")
    disk = {**FLEET, "dataset.synthetic": "false", "dataset.paths": "synth/*.bin", "train.session": "rat01_s01"}
    run("train", "--config", _write_cfg(Path("train.cfg"), disk), "--out", "train", "--band", "theta")
    for offset in (-100, 0, 200):
        run("eval", "train/rat01_s01.model", "synth/rat01_s01.bin", "--offset-ms", offset, "--out", f"eval/offset_{offset}.csv")
    forest = {**disk, "decoder.family": "random_forest", "decoder.n_trees": "4", "decoder.max_depth": "4"}
    run("train", "--config", _write_cfg(Path("train_forest.cfg"), forest), "--out", "train_forest")
    run("eval", "train_forest/rat01_s01.model", "synth/rat01_s01.bin", "--out", "eval/forest_offset_0.csv")

    run("ingest", *sorted(Path("synth").glob("*.bin")), "--out", "ingest")
    run("report", "baseline/results.csv", "--out", "report_sessions", "--sessions", *sorted(Path("ingest").glob("*.bin")))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", type=Path, help="repository checkout whose src/ holds locodec")
    parser.add_argument("outdir", type=Path, help="new or empty directory for the outputs")
    parser.add_argument("--jobs", type=int, default=1, help="worker processes per experiment")
    args = parser.parse_args(argv)

    src = (args.src / "src").resolve()
    if not (src / "locodec").is_dir():
        parser.error(f"{src} holds no locodec package")
    if args.outdir.exists() and any(args.outdir.iterdir()):
        parser.error(f"{args.outdir} is not empty")
    sys.path.insert(0, str(src))
    from locodec.cli import entrypoint

    args.outdir.mkdir(parents=True, exist_ok=True)
    os.chdir(args.outdir)
    with contextlib.redirect_stdout(sys.stderr):
        run_commands(entrypoint, args.jobs)

    outputs = (p for p in Path(".").rglob("*") if p.is_file() and p.suffix != ".cfg" and p.name != "timings.csv")
    for path in sorted(outputs):
        print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
