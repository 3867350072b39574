"""Exact text of every output table.

Each case pins one table byte for byte, from hand-built inputs where the
writer is a plain function and from a small command-line run where the
table is written inside ``locodec experiment``. A change to the shared
table format shows up here as a diff against the expected text.
"""

from types import SimpleNamespace

import pytest

from locodec import reporting  # by module: pytest collects a bare tests_csv_text
from locodec.cli import _gate_report_text, entrypoint
from locodec.protocols import EvalResult, results_to_csv_text, timings_to_csv_text
from locodec.sessions import GateResult


def _row(session_id, model, offset_ms, r, source_id=""):
    return EvalResult(
        session_id=session_id,
        rat_id=session_id.split("_")[0],
        strategy="single_80",
        region_set="all",
        band="fullband",
        offset_ms=offset_ms,
        model=model,
        r=r,
        r2=r * r,
        n_test_windows=100 - abs(offset_ms) // 10,
        seed=len(session_id) + offset_ms,
        source_id=source_id,
    )


RESULTS = [
    _row("r2_s1", "linear", 0, 0.5),
    _row("r1_s1", "lstm_rnn", -500, -0.125),
    _row("r1_s2", "linear", 0, 0.12345678901234567, source_id="r2_s1"),
    _row("r1_s2", "linear", 0, 1e-05, source_id="r1_s1"),
]

# Three models on four sessions at offset 0, and the linear model at two
# more offsets: medians with bootstrapped CIs, a Friedman test with its
# pairwise Wilcoxon tests, and one quadratic offset-curve fit.
R_BY_MODEL = {
    "linear": (0.61, 0.55, 0.72, 0.4),
    "ffnn": (0.66, 0.5, 0.75, 0.47),
    "lstm_rnn": (0.7, 0.64, 0.81, 0.52),
}
REPORT_ROWS = [
    _row(f"r{i // 2 + 1}_s{i % 2 + 1}", model, 0, r)
    for model, rs in R_BY_MODEL.items()
    for i, r in enumerate(rs)
] + [
    _row(f"r{i // 2 + 1}_s{i % 2 + 1}", "linear", offset, r)
    for offset, rs in ((-100, (0.5, 0.45, 0.6, 0.3)), (100, (0.58, 0.49, 0.7, 0.33)))
    for i, r in enumerate(rs)
]

GATE = GateResult(
    included=(SimpleNamespace(id="r1_s1"), SimpleNamespace(id="r2_s1")),
    excluded=(SimpleNamespace(id="r1_s2"),),
    threshold=0.3,
    iqrs={"r2_s1": 0.75, "r1_s1": 1.0 / 3.0, "r1_s2": 0.25},
)

WRITERS = {
    "results": lambda: results_to_csv_text(RESULTS, "abc123", 4),
    "timings": lambda: timings_to_csv_text([("single:r1_s1:cell", 1.25), ("pair:r1_s1->r2_s1:cell", 0.1)]),
    "gate_report": lambda: _gate_report_text(GATE, "abc123", 4),
    "medians": lambda: reporting.medians_csv_text(REPORT_ROWS, "abc123", 4),
    "tests": lambda: reporting.tests_csv_text(REPORT_ROWS, "r", "abc123", 4),
    "offset_curves": lambda: reporting.curves_csv_text(REPORT_ROWS, "abc123", 4)[0],
    "offset_curve_fits": lambda: reporting.curves_csv_text(REPORT_ROWS, "abc123", 4)[1],
}

EXPECTED = {
    "results": (
        "# config_hash=abc123 seed=4\n"
        "session_id,rat_id,strategy,region_set,band,offset_ms,model,r,r2,n_test_windows,seed\n"
        "r1_s2,r1,single_80,all,fullband,0,linear,1e-05,1.0000000000000002e-10,100,5\n"
        "r1_s2,r1,single_80,all,fullband,0,linear,0.12345678901234566,0.015241578753238833,100,5\n"
        "r2_s1,r2,single_80,all,fullband,0,linear,0.5,0.25,100,5\n"
        "r1_s1,r1,single_80,all,fullband,-500,lstm_rnn,-0.125,0.015625,50,-495\n"
    ),
    "timings": (
        "label,wall_time_s\n"
        "single:r1_s1:cell,1.25\n"
        "pair:r1_s1->r2_s1:cell,0.1\n"
    ),
    "gate_report": (
        "# config_hash=abc123 seed=4\n"
        "session_id,iqr,threshold,included\n"
        "r1_s1,0.3333333333333333,0.3,true\n"
        "r1_s2,0.25,0.3,false\n"
        "r2_s1,0.75,0.3,true\n"
    ),
    "medians": (
        "# config_hash=abc123 seed=4\n"
        "strategy,region_set,band,offset_ms,model,n_sessions,"
        "median_r,ci_lo_r,ci_hi_r,median_r2,ci_lo_r2,ci_hi_r2\n"
        "single_80,all,fullband,-100,linear,4,0.475,0.3,0.6,0.22625,0.09,0.36\n"
        "single_80,all,fullband,0,ffnn,4,0.5800000000000001,0.47,0.75,"
        "0.3428,0.22089999999999999,0.5625\n"
        "single_80,all,fullband,0,linear,4,0.5800000000000001,0.4,0.72,"
        "0.33730000000000004,0.16000000000000003,0.5184\n"
        "single_80,all,fullband,0,lstm_rnn,4,0.6699999999999999,0.52,0.81,"
        "0.4498,0.27040000000000003,0.6561000000000001\n"
        "single_80,all,fullband,100,linear,4,0.5349999999999999,0.33,0.7,"
        "0.28825,0.10890000000000001,0.48999999999999994\n"
    ),
    "tests": (
        "# config_hash=abc123 seed=4\n"
        "strategy,region_set,band,offset_ms,"
        "comparison,metric,statistic,p_raw,p_bonferroni,n,method\n"
        "single_80,all,fullband,0,ffnn|linear|lstm_rnn,r,6.5,"
        "0.03877420783172202,0.03877420783172202,4,friedman\n"
        "single_80,all,fullband,0,ffnn_vs_linear,r,2.5,0.5,1.0,4,wilcoxon_exact\n"
        "single_80,all,fullband,0,ffnn_vs_lstm_rnn,r,0.0,0.125,0.375,4,wilcoxon_exact\n"
        "single_80,all,fullband,0,linear_vs_lstm_rnn,r,0.0,0.125,0.375,4,wilcoxon_exact\n"
    ),
    "offset_curves": (
        "# config_hash=abc123 seed=4\n"
        "model,offset_ms,n_sessions,median_r,ci_lo_r,ci_hi_r\n"
        "ffnn,0,4,0.5800000000000001,0.47,0.75\n"
        "linear,-100,4,0.475,0.3,0.6\n"
        "linear,0,4,0.5800000000000001,0.4,0.72\n"
        "linear,100,4,0.5349999999999999,0.33,0.7\n"
        "lstm_rnn,0,4,0.6699999999999999,0.52,0.81\n"
    ),
    "offset_curve_fits": (
        "# config_hash=abc123 seed=4\n"
        "model,c0,c1,c2\n"
        "linear,0.5800000000000003,0.0002999999999999999,-7.50000000000002e-06\n"
    ),
    "results_pairs": (
        "# config_hash=9e9db3d28a6740f9 seed=5\n"
        "source_id,target_id,r,r2,n_test_windows\n"
        "rat01_s01,rat02_s01,0.9089549585426965,-1.0081358939350182,181\n"
        "rat02_s01,rat01_s01,0.8517913417828886,-4.994383361920928,181\n"
    ),
    "skipped": (
        "session_id,region_set\n"
        "rat01_s01,motor\n"
        "rat02_s01,motor\n"
        "rat01_s01,visual\n"
        "rat02_s01,visual\n"
    ),
    "failures": (
        "kind,unit_id,cell_id,error,message\n"
        "single,rat01_s01,single_80|linear|all|fullband|0,DegenerateDataError,test speed trace is constant\n"
    ),
    "band_energies": (
        "session_id,band,mean_channel_variance\n"
        "rat01_s01,theta,0.010328428386573631\n"
        "rat02_s01,theta,0.009815717083031932\n"
        "rat01_s01,beta,0.030118703734369152\n"
        "rat02_s01,beta,0.03024581760463798\n"
    ),
}


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_writer_text_is_pinned(name):
    assert WRITERS[name]() == EXPECTED[name]


def test_tests_rows_name_their_offset():
    """One Friedman family per offset: each row carries the offset it tests."""
    rows = [
        _row(f"r{i // 2 + 1}_s{i % 2 + 1}", model, offset, r)
        for offset in (-100, 0, 100)
        for model, rs in R_BY_MODEL.items()
        for i, r in enumerate(rs)
    ]
    lines = reporting.tests_csv_text(rows).splitlines()
    columns = lines[1].split(",")
    friedman = [dict(zip(columns, line.split(","))) for line in lines[2:] if line.endswith(",friedman")]
    assert sorted(row["offset_ms"] for row in friedman) == ["-100", "0", "100"]
    assert len({row["comparison"] for row in friedman}) == 1


CLI_CFG = {
    "run.seed": "5",
    "dataset.synthetic": "true",
    "dataset.synthetic.n_rats": "2",
    "dataset.synthetic.sessions_per_rat": "1",
    "dataset.synthetic.n_channels": "4",
    "dataset.synthetic.duration_s": "20.0",
    "dataset.synthetic.encoding": "linear",
    "dataset.synthetic.speed_bias": "1.0",
    "decoder.family": "linear",
    "train.max_epochs": "3",
    "train.patience": "2",
    "experiment.include_pairs": "false",
    "experiment.bands": "theta,beta",
}

# the fleet of seed 3 with the default speed_bias, on which rat01_s01's
# test speed is constant
DEFECT_FLEET = {
    "dataset.synthetic.seed": "3",
    "dataset.synthetic.n_rats": "3",
    "dataset.synthetic.sessions_per_rat": "2",
    "dataset.synthetic.n_channels": "8",
    "dataset.synthetic.speed_bias": "0.3",
    "train.max_epochs": "1",
}

# (experiment kind, strategy, table it writes besides results.csv, config
# entries that replace CLI_CFG's)
CLI_TABLES = {
    "results_pairs": ("transfer", "zeroshot_cross_subject", "results_pairs.csv", {}),
    "skipped": ("regions", "single_80", "skipped.csv", {}),
    "band_energies": ("bands", "single_80", "band_energies.csv", {}),
    "failures": ("baseline", "single_80", "failures.csv", DEFECT_FLEET),
}


@pytest.fixture(scope="module")
def cli_tables(tmp_path_factory):
    root = tmp_path_factory.mktemp("tables")
    texts = {}
    for name, (kind, strategy, table, overrides) in CLI_TABLES.items():
        cfg = root / f"{name}.cfg"
        entries = dict(CLI_CFG, **{"experiment.kind": kind, "plan.strategy": strategy}, **overrides)
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in entries.items()))
        out = root / name
        assert entrypoint(["experiment", "--config", str(cfg), "--out", str(out)]) == 0
        texts[name] = (out / table).read_text()
    return texts


@pytest.mark.parametrize("name", sorted(CLI_TABLES))
def test_experiment_table_text_is_pinned(cli_tables, name):
    assert cli_tables[name] == EXPECTED[name]
