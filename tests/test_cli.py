"""End-to-end command-line checks, all in-process via entrypoint().

Fleets are kept tiny (one or two short sessions, linear readouts, few
epochs) so the whole file runs in seconds; the full-scale pipeline runs
live in the acceptance suite.
"""

import json
import shutil

import numpy as np
import pytest

from locodec.cli import entrypoint
from locodec.decoders import load_state, save_state
from locodec.protocols import EvalResult, results_to_csv_text
from locodec.sessions import ingest_session

from conftest import declare_200_hz

BASE_CFG = {
    "run.seed": "5",
    "dataset.synthetic": "true",
    "dataset.synthetic.n_rats": "1",
    "dataset.synthetic.sessions_per_rat": "1",
    "dataset.synthetic.n_channels": "8",
    "dataset.synthetic.duration_s": "30.0",
    "dataset.synthetic.encoding": "linear",
    "dataset.synthetic.noise_scale": "0.2",
    "dataset.synthetic.speed_bias": "1.0",
    "decoder.family": "linear",
    "train.max_epochs": "6",
    "train.patience": "3",
    "train.learning_rate": "3e-3",
}


def write_cfg(tmp_path, name: str = "run.cfg", **overrides):
    entries = dict(BASE_CFG)
    entries.update({k.replace("__", "."): v for k, v in overrides.items()})
    path = tmp_path / name
    path.write_text("".join(f"{k} = {v}\n" for k, v in entries.items()))
    return path


def rows_of(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    return lines[1], lines[2:]


def test_synth_writes_sessions_and_resolved_config(tmp_path):
    cfg = write_cfg(tmp_path, dataset__synthetic__n_rats="2")
    out = tmp_path / "fleet"
    assert entrypoint(["synth", "--config", str(cfg), "--out", str(out)]) == 0
    files = sorted(p.name for p in out.glob("*.bin"))
    assert files == ["rat01_s01.bin", "rat02_s01.bin"]
    assert (out / "config.resolved").exists()
    session = ingest_session(out / "rat01_s01.bin")
    assert session.n_channels == 8
    assert session.n_samples == 3000


def test_synth_seed_flag_changes_the_fleet(tmp_path):
    cfg = write_cfg(tmp_path)
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    entrypoint(["synth", "--config", str(cfg), "--out", str(a)])
    entrypoint(["synth", "--config", str(cfg), "--out", str(b), "--seed", "99"])
    entrypoint(["synth", "--config", str(cfg), "--out", str(c), "--seed", "99"])
    sa = ingest_session(a / "rat01_s01.bin")
    sb = ingest_session(b / "rat01_s01.bin")
    sc = ingest_session(c / "rat01_s01.bin")
    assert not np.array_equal(sa.eeg, sb.eeg)
    np.testing.assert_array_equal(sb.eeg, sc.eeg)


def test_synth_seed_round_trips_through_config_resolved(tmp_path):
    cfg = write_cfg(tmp_path, dataset__synthetic__n_rats="2")
    first, again = tmp_path / "first", tmp_path / "again"
    assert entrypoint(["synth", "--config", str(cfg), "--out", str(first), "--seed", "99"]) == 0
    assert "dataset.synthetic.seed = 99" in (first / "config.resolved").read_text()
    assert entrypoint(["synth", "--config", str(first / "config.resolved"), "--out", str(again)]) == 0
    names = sorted(p.name for p in first.glob("*.bin"))
    assert names == sorted(p.name for p in again.glob("*.bin")) and len(names) == 2
    for name in names:
        assert (first / name).read_bytes() == (again / name).read_bytes()


@pytest.fixture()
def ten_session_dir(tmp_path):
    cfg = write_cfg(
        tmp_path,
        name="fleet.cfg",
        dataset__synthetic__n_rats="5",
        dataset__synthetic__sessions_per_rat="2",
        dataset__synthetic__duration_s="20.0",
    )
    out = tmp_path / "raw"
    assert entrypoint(["synth", "--config", str(cfg), "--out", str(out)]) == 0
    return out


def test_ingest_gate_report_and_idempotence(ten_session_dir, tmp_path):
    out = tmp_path / "canon"
    paths = sorted(str(p) for p in ten_session_dir.glob("*.bin"))
    assert entrypoint(["ingest", *paths, "--out", str(out)]) == 0
    report = out / "gate_report.csv"
    header, *rows = report.read_text().splitlines()
    assert header == "session_id,iqr,threshold,included"  # ingest has no config to name
    assert len(rows) == 10
    excluded = [r for r in rows if r.endswith(",false")]
    assert len(excluded) == 1
    first = report.read_bytes()
    assert entrypoint(["ingest", *paths, "--out", str(out)]) == 0
    assert report.read_bytes() == first


def test_ingest_threshold_override_honored(ten_session_dir, tmp_path):
    out = tmp_path / "canon"
    paths = sorted(str(p) for p in ten_session_dir.glob("*.bin"))
    assert entrypoint(["ingest", *paths, "--out", str(out), "--iqr-threshold", "0.46"]) == 0
    _, *rows = (out / "gate_report.csv").read_text().splitlines()
    assert all(r.split(",")[2] == "0.46" for r in rows)


def test_ingest_malformed_input_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("not,a,session\n1,2,3\n")
    assert entrypoint(["ingest", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert "error" in capsys.readouterr().err


def test_a_session_at_another_rate_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, dataset__synthetic__n_channels="4")
    fleet_dir, train_dir = tmp_path / "fleet", tmp_path / "trained"
    assert entrypoint(["synth", "--config", str(cfg), "--out", str(fleet_dir)]) == 0
    assert entrypoint(["train", "--config", str(cfg), "--out", str(train_dir)]) == 0
    # the same samples, declared at 200 Hz, would make every window 100 ms
    fast = fleet_dir / "fast.bin"
    shutil.copyfile(fleet_dir / "rat01_s01.bin", fast)
    declare_200_hz(fast)
    capsys.readouterr()
    assert entrypoint(["ingest", str(fast), "--out", str(tmp_path / "ingested")]) == 2
    disk = write_cfg(tmp_path, name="disk.cfg", dataset__synthetic="false", dataset__paths=str(fast))
    assert entrypoint(["experiment", "--config", str(disk), "--out", str(tmp_path / "exp")]) == 2
    assert entrypoint(["eval", str(train_dir / "rat01_s01.model"), str(fast)]) == 2
    err = capsys.readouterr().err
    assert err.count("preprocess_raw") == 3


def _trained_model(tmp_path):
    """A written 4-channel session and a linear model trained on it."""
    cfg = write_cfg(tmp_path, dataset__synthetic__n_channels="4")
    fleet_dir, train_dir = tmp_path / "fleet", tmp_path / "trained"
    assert entrypoint(["synth", "--config", str(cfg), "--out", str(fleet_dir)]) == 0
    assert entrypoint(["train", "--config", str(cfg), "--out", str(train_dir)]) == 0
    return fleet_dir / "rat01_s01.bin", train_dir / "rat01_s01.model"


def test_a_bad_model_file_exits_2(tmp_path, capsys):
    session, model = _trained_model(tmp_path)
    blob = model.read_bytes()
    truncated, old = tmp_path / "truncated.model", tmp_path / "v3.model"
    truncated.write_bytes(blob[: len(blob) // 2])
    # version 3 is the last format whose header spec names window_len
    with np.load(model, allow_pickle=False) as archive:
        members = {name: archive[name] for name in archive.files}
    header = json.loads(str(members["header"]))
    header.update(version=3, spec={**header["spec"], "window_len": 20})
    with open(old, "wb") as fh:
        np.savez(fh, **{**members, "header": np.array(json.dumps(header))})
    for model in (truncated, old):
        capsys.readouterr()
        assert entrypoint(["eval", str(model), str(session)]) == 2
        assert capsys.readouterr().err.startswith("error:")


def test_a_model_file_with_a_flipped_weight_byte_exits_2(tmp_path, capsys):
    session, model = _trained_model(tmp_path)
    weights = load_state(model)[0].params["head.w0"].data.astype(np.float32).tobytes()
    blob = bytearray(model.read_bytes())
    blob[blob.index(weights) + 3] ^= 0x01
    model.write_bytes(bytes(blob))
    capsys.readouterr()
    assert entrypoint(["eval", str(model), str(session)]) == 2
    assert "CRC-32" in capsys.readouterr().err


def test_a_model_file_without_normalizer_statistics_exits_2(tmp_path, capsys):
    session, model = _trained_model(tmp_path)
    decoder, extras, meta = load_state(model)
    for missing in extras:
        save_state(decoder, model, extras={k: v for k, v in extras.items() if k != missing}, meta=meta)
        capsys.readouterr()
        assert entrypoint(["eval", str(model), str(session)]) == 2
        assert missing in capsys.readouterr().err


def _train_then_eval_rows(tmp_path, **overrides):
    """Train on one on-disk session, then score the saved model on the same
    file with `locodec eval` at offset 0: (training rows, eval rows)."""
    # Both commands must consume the same on-disk file: the canonical
    # binary stores float32 matrices, so a file round trip quantizes the
    # in-memory synthetic fleet and would shift r in the 8th decimal.
    cfg = write_cfg(tmp_path, **overrides)
    fleet_dir, train_dir = tmp_path / "fleet", tmp_path / "trained"
    assert entrypoint(["synth", "--config", str(cfg), "--out", str(fleet_dir)]) == 0
    disk_cfg = write_cfg(
        tmp_path,
        name="disk.cfg",
        dataset__synthetic="false",
        dataset__paths=f"{fleet_dir}/*.bin",
        **overrides,
    )
    assert entrypoint(["train", "--config", str(disk_cfg), "--out", str(train_dir)]) == 0
    model = train_dir / "rat01_s01.model"
    assert model.exists()
    _, train_rows = rows_of(train_dir / "results.csv")

    out_csv = tmp_path / "eval.csv"
    assert entrypoint(
        ["eval", str(model), str(fleet_dir / "rat01_s01.bin"), "--out", str(out_csv)]
    ) == 0
    _, eval_rows = rows_of(out_csv)
    return train_rows, eval_rows


def test_train_then_eval_reproduces_the_row_bitwise(tmp_path):
    train_rows, eval_rows = _train_then_eval_rows(tmp_path)
    assert eval_rows == train_rows
    assert (tmp_path / "trained" / "rat01_s01.report.jsonl").exists()


def test_forest_train_then_eval_reproduces_the_row_bitwise(tmp_path):
    train_rows, eval_rows = _train_then_eval_rows(
        tmp_path, decoder__family="random_forest", decoder__n_trees="4", decoder__max_depth="4"
    )
    assert train_rows[0].split(",")[6] == "random_forest"
    assert eval_rows == train_rows
    assert not (tmp_path / "trained" / "rat01_s01.report.jsonl").exists()  # a forest has no epochs


def test_eval_clips_like_training_when_the_model_was_trained_clipped(tmp_path):
    # On this fleet some test-segment predictions are negative, so scoring
    # them unclipped would change r.
    train_rows, eval_rows = _train_then_eval_rows(
        tmp_path,
        run__seed="0",
        dataset__synthetic__speed_bias="0.3",
        plan__clip_nonnegative="true",
    )
    assert eval_rows == train_rows


def test_eval_offset_flag_trims_windows(tmp_path):
    cfg = write_cfg(tmp_path)
    fleet_dir, train_dir = tmp_path / "fleet", tmp_path / "trained"
    entrypoint(["synth", "--config", str(cfg), "--out", str(fleet_dir)])
    entrypoint(["train", "--config", str(cfg), "--out", str(train_dir)])
    out_csv = tmp_path / "eval.csv"
    assert entrypoint(
        [
            "eval",
            str(train_dir / "rat01_s01.model"),
            str(fleet_dir / "rat01_s01.bin"),
            "--offset-ms",
            "200",
            "--out",
            str(out_csv),
        ]
    ) == 0
    _, (row,) = rows_of(out_csv)
    fields = row.split(",")
    assert fields[5] == "200"
    _, (row0,) = rows_of(train_dir / "results.csv")
    assert int(fields[9]) == int(row0.split(",")[9]) - 20


def test_eval_without_out_writes_the_row_to_stdout(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    fleet_dir, train_dir, out_csv = tmp_path / "fleet", tmp_path / "trained", tmp_path / "eval.csv"
    assert entrypoint(["synth", "--config", str(cfg), "--out", str(fleet_dir)]) == 0
    assert entrypoint(["train", "--config", str(cfg), "--out", str(train_dir)]) == 0
    argv = ["eval", str(train_dir / "rat01_s01.model"), str(fleet_dir / "rat01_s01.bin")]
    assert entrypoint(argv + ["--out", str(out_csv)]) == 0
    capsys.readouterr()
    assert entrypoint(argv) == 0
    printed = capsys.readouterr().out
    assert printed == out_csv.read_text()
    assert len(printed.splitlines()) == 3  # hash line, header, one row


def test_eval_on_a_session_with_other_channels_exits_1(tmp_path, capsys):
    four = write_cfg(tmp_path, name="four.cfg", dataset__synthetic__n_channels="4")
    fleet_dir, train_dir = tmp_path / "fleet", tmp_path / "trained"
    assert entrypoint(["train", "--config", str(four), "--out", str(train_dir)]) == 0
    assert entrypoint(["synth", "--config", str(write_cfg(tmp_path)), "--out", str(fleet_dir)]) == 0
    capsys.readouterr()
    argv = ["eval", str(train_dir / "rat01_s01.model"), str(fleet_dir / "rat01_s01.bin")]
    assert entrypoint(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "has 8 channels" in err and "fit on 4" in err


def test_train_exits_2_unless_one_session_is_named(tmp_path, capsys):
    several = write_cfg(tmp_path, dataset__synthetic__sessions_per_rat="2")
    assert entrypoint(["train", "--config", str(several), "--out", str(tmp_path / "a")]) == 2
    assert "set train.session" in capsys.readouterr().err
    unknown = write_cfg(tmp_path, dataset__synthetic__sessions_per_rat="2", train__session="rat09_s01")
    assert entrypoint(["train", "--config", str(unknown), "--out", str(tmp_path / "b")]) == 2
    assert "'rat09_s01' not found" in capsys.readouterr().err


def test_experiment_baseline_outputs_and_input_hygiene(tmp_path):
    cfg = write_cfg(tmp_path, dataset__synthetic__sessions_per_rat="2")
    out = tmp_path / "exp"
    assert entrypoint(["experiment", "--config", str(cfg), "--out", str(out)]) == 0
    header, rows = rows_of(out / "results.csv")
    assert header.startswith("session_id,")
    assert len(rows) == 2
    assert (out / "timings.csv").exists()
    assert (out / "config.resolved").exists()


def test_experiment_same_seed_is_bitwise_idempotent(tmp_path):
    cfg = write_cfg(tmp_path, dataset__synthetic__sessions_per_rat="2")
    out1, out2 = tmp_path / "e1", tmp_path / "e2"
    assert entrypoint(["experiment", "--config", str(cfg), "--out", str(out1), "--jobs", "1"]) == 0
    assert entrypoint(["experiment", "--config", str(cfg), "--out", str(out2), "--jobs", "1"]) == 0
    assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()


@pytest.mark.parametrize(
    "overrides, tables",
    [
        ({}, ("results.csv",)),
        (
            {"experiment__kind": "transfer", "plan__strategy": "finetune_cross_subject"},
            ("results.csv", "results_pairs.csv"),
        ),
        # 4 channels leave some region cells without a session's channels
        (
            {"experiment__kind": "regions", "dataset__synthetic__n_channels": "4"},
            ("results.csv", "skipped.csv"),
        ),
        ({"experiment__kind": "bands"}, ("results.csv", "band_energies.csv")),
        (
            {
                "experiment__kind": "offsets",
                "experiment__offsets_ms": "-100,0,100",
                "experiment__include_speed_rnn": "true",
                "experiment__include_autocorrelation": "true",
                "decoder__lstm_hidden": "8",  # the speed-history reference's width
            },
            ("results.csv",),
        ),
    ],
)
def test_experiment_jobs_2_matches_jobs_1_bitwise(tmp_path, overrides, tables):
    cfg = write_cfg(
        tmp_path,
        dataset__synthetic__n_rats="2",
        dataset__synthetic__sessions_per_rat="2",
        dataset__synthetic__duration_s="20.0",
        **overrides,
    )
    outs = {jobs: tmp_path / f"j{jobs}" for jobs in (1, 2)}
    for jobs, out in outs.items():
        assert entrypoint(["experiment", "--config", str(cfg), "--out", str(out), "--jobs", str(jobs)]) == 0
    for name in tables:
        assert (outs[1] / name).read_bytes() == (outs[2] / name).read_bytes()


def test_experiment_never_mutates_input_files(ten_session_dir, tmp_path):
    paths = sorted(ten_session_dir.glob("*.bin"))
    before = [p.read_bytes() for p in paths]
    cfg_path = tmp_path / "disk.cfg"
    cfg_path.write_text(
        "run.seed = 5\n"
        f"dataset.paths = {ten_session_dir}/*.bin\n"
        "dataset.apply_gate = true\n"
        "decoder.family = linear\n"
        "train.max_epochs = 4\n"
        "train.patience = 2\n"
    )
    out = tmp_path / "exp"
    assert entrypoint(["experiment", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert [p.read_bytes() for p in paths] == before
    header, rows = rows_of(out / "gate_report.csv")
    assert len(rows) == 10
    _, result_rows = rows_of(out / "results.csv")
    assert len(result_rows) == 9  # one session gated out


@pytest.fixture()
def twin_dirs(tmp_path):
    """A 1-rat x 2-session fleet written to a/, and a copy of it in b/: two
    paths for each session id."""
    cfg = write_cfg(tmp_path, name="fleet.cfg", dataset__synthetic__sessions_per_rat="2",
                    dataset__synthetic__duration_s="20.0")
    a, b = tmp_path / "a", tmp_path / "b"
    assert entrypoint(["synth", "--config", str(cfg), "--out", str(a)]) == 0
    shutil.copytree(a, b)
    return a, b


def _names_the_twins(err, a, b, sid="rat01_s01"):
    return f"'{sid}'" in err and str(a / f"{sid}.bin") in err and str(b / f"{sid}.bin") in err


@pytest.mark.parametrize("command", ["experiment", "train"])
def test_a_repeated_session_id_in_the_dataset_exits_2(twin_dirs, tmp_path, capsys, command):
    a, b = twin_dirs
    cfg = write_cfg(tmp_path, dataset__synthetic="false", dataset__paths=f"{a}/*.bin,{b}/*.bin",
                    train__session="rat01_s01")
    out = tmp_path / "out"
    capsys.readouterr()
    assert entrypoint([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert _names_the_twins(capsys.readouterr().err, a, b)
    assert not (out / "results.csv").exists()


def test_ingest_fails_the_later_file_of_a_repeated_session_id(twin_dirs, tmp_path, capsys):
    a, b = twin_dirs
    out = tmp_path / "canon"
    paths = [str(p) for d in (a, b) for p in sorted(d.glob("*.bin"))]
    capsys.readouterr()
    assert entrypoint(["ingest", *paths, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("error: ") == 2
    assert f"error: {b / 'rat01_s01.bin'}: " in err and _names_the_twins(err, a, b)
    assert f"error: {b / 'rat01_s02.bin'}: " in err and _names_the_twins(err, a, b, "rat01_s02")
    # the earlier files are kept, and the rest of the run went on
    assert sorted(p.name for p in out.glob("*.bin")) == ["rat01_s01.bin", "rat01_s02.bin"]
    _, *rows = (out / "gate_report.csv").read_text().splitlines()
    assert len(rows) == 2


def test_report_sessions_with_a_repeated_id_exits_2(twin_dirs, tmp_path, capsys):
    a, b = twin_dirs
    rows = [EvalResult(sid, "rat01", "single_80", "all", "fullband", 0, "linear", 0.5, 0.25, 90, 0)
            for sid in ("rat01_s01", "rat01_s02")]
    results, rep = tmp_path / "results.csv", tmp_path / "rep"
    results.write_text(results_to_csv_text(rows))
    capsys.readouterr()
    argv = ["report", str(results), "--out", str(rep), "--sessions", f"{a}/*.bin", f"{b}/*.bin"]
    assert entrypoint(argv) == 2
    assert _names_the_twins(capsys.readouterr().err, a, b)
    assert not (rep / "spectra.csv").exists()


def test_experiment_strategy_mismatch_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, experiment__kind="transfer")
    assert entrypoint(["experiment", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    assert "zeroshot" in capsys.readouterr().err


def test_report_single_variant_emits_no_tests(tmp_path):
    cfg = write_cfg(tmp_path, dataset__synthetic__sessions_per_rat="3")
    exp, rep = tmp_path / "exp", tmp_path / "rep"
    assert entrypoint(["experiment", "--config", str(cfg), "--out", str(exp)]) == 0
    assert entrypoint(["report", str(exp / "results.csv"), "--out", str(rep)]) == 0
    _, median_rows = rows_of(rep / "medians.csv")
    assert len(median_rows) == 1
    assert median_rows[0].split(",")[5] == "3"  # n_sessions
    _, test_rows = rows_of(rep / "tests.csv")
    assert test_rows == []
    _, curve_rows = rows_of(rep / "offset_curves.csv")
    assert len(curve_rows) == 1
    _, fit_rows = rows_of(rep / "offset_curve_fits.csv")
    assert fit_rows == []  # quadratic fit needs >= 3 offsets


def test_report_fit_coefficients_are_plain_numbers(tmp_path):
    rows = [
        EvalResult(sid, sid[:5], "single_80", "all", "fullband", off, "linear", r, r * r, 90, 0)
        for off, rs in ((-100, (0.5, 0.4, 0.6)), (0, (0.7, 0.6, 0.65)), (100, (0.55, 0.5, 0.6)))
        for sid, r in zip(("rat01_s01", "rat01_s02", "rat02_s01"), rs)
    ]
    results, rep = tmp_path / "results.csv", tmp_path / "rep"
    results.write_text(results_to_csv_text(rows))
    assert entrypoint(["report", str(results), "--out", str(rep)]) == 0
    header, fit_rows = rows_of(rep / "offset_curve_fits.csv")
    assert header == "model,c0,c1,c2"
    assert len(fit_rows) == 1
    for cell in fit_rows[0].split(",")[1:]:
        float(cell)


def test_report_embeds_the_source_config_hash(tmp_path):
    cfg = write_cfg(tmp_path)
    exp, rep = tmp_path / "exp", tmp_path / "rep"
    entrypoint(["experiment", "--config", str(cfg), "--out", str(exp)])
    entrypoint(["report", str(exp / "results.csv"), "--out", str(rep)])
    src_head = (exp / "results.csv").read_text().splitlines()[0]
    rep_head = (rep / "medians.csv").read_text().splitlines()[0]
    assert rep_head == src_head


def test_missing_model_file_exits_2(tmp_path, capsys):
    missing = tmp_path / "no.model"
    session = tmp_path / "no.bin"
    assert entrypoint(["eval", str(missing), str(session)]) == 2
    assert "error" in capsys.readouterr().err
