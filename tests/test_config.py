"""Config parsing, typed resolution, and hash stability."""

from dataclasses import fields

import pytest

from locodec.config import (
    EXPERIMENT_KINDS,
    KIND_STRATEGIES,
    REGISTRY,
    load_config,
    parse_config_text,
    resolve,
)
from locodec.decoders import DecoderSpec
from locodec.errors import ConfigError
from locodec.protocols import STRATEGIES, ExperimentPlan
from locodec.synthetic import FleetSpec
from locodec.trainer import TrainConfig

GOOD = """
# comment and blank lines are fine

run.seed = 42
experiment.kind = bands
dataset.synthetic = true
dataset.synthetic.encoding = am
dataset.synthetic.carrier_band = 5.0, 7.0
decoder.family = ffnn
decoder.ffnn_hidden = 128,32
train.learning_rate = 2e-3
plan.band = theta
"""


def test_parse_and_resolve_good_config():
    cfg = resolve(parse_config_text(GOOD))
    assert cfg.seed == 42
    assert cfg.kind == "bands"
    assert cfg.use_synthetic is True
    assert cfg.fleet.encoding == "am"
    assert cfg.fleet.carrier_band == (5.0, 7.0)
    assert cfg.decoder.family == "ffnn"
    assert cfg.decoder.ffnn_hidden == (128, 32)
    assert cfg.train.learning_rate == 2e-3
    assert cfg.plan.band == "theta"
    assert cfg.plan.master_seed == 42


def test_defaults_fill_every_key():
    cfg = resolve({})
    assert set(cfg.values) == set(REGISTRY)
    assert cfg.kind == "baseline"
    assert cfg.jobs == 1
    assert cfg.plan.strategy == "single_80"
    assert cfg.decoder.family == "lstm_rnn"
    assert cfg.train.max_epochs == 60


@pytest.mark.parametrize(
    "attr,spec",
    [
        ("fleet", FleetSpec()),
        ("decoder", DecoderSpec(family="lstm_rnn")),
        ("train", TrainConfig()),
        ("plan", ExperimentPlan(decoder=DecoderSpec(family="lstm_rnn"))),
    ],
)
def test_an_empty_config_builds_the_default_specs(attr, spec):
    built = getattr(resolve({}), attr)
    for f in fields(spec):
        assert getattr(built, f.name) == getattr(spec, f.name), f.name


@pytest.mark.parametrize(
    "line,complaint",
    [
        ("run.sedd = 1", "unknown config key"),
        ("run.seed 1", "expected 'key = value'"),
        ("run.seed = x", "expected an integer"),
        ("run.jobs = 1.5", "expected an integer"),
        ("dataset.synthetic = maybe", "expected a boolean"),
        ("dataset.synthetic.carrier_band = 4.0", "two comma-separated numbers"),
        ("train.learning_rate = fast", "expected a number"),
    ],
)
def test_malformed_lines_fail_loudly(line, complaint):
    with pytest.raises(ConfigError, match=complaint):
        resolve(parse_config_text(line))


# settings that became constants: the canonical rate, the speed scale, the
# one-block positional transformer, no dropout, Adam's defaults, and the
# normalizer rule of each transfer strategy
REMOVED_KEYS = (
    "dataset.synthetic.sample_rate_hz",
    "dataset.synthetic.speed_scale",
    "decoder.n_blocks",
    "decoder.conv_kernel",
    "decoder.use_positional",
    "decoder.dropout",
    "train.optimizer",
    "train.beta1",
    "train.beta2",
    "train.adam_eps",
    "plan.refit_normalizer",
    "plan.refresh_normalizer",
)


@pytest.mark.parametrize("key", REMOVED_KEYS)
def test_removed_settings_are_unknown_keys(key):
    with pytest.raises(ConfigError, match="unknown config key"):
        parse_config_text(f"{key} = 1\n")
    with pytest.raises(ConfigError, match="override"):
        resolve({}, overrides={key: "1"})


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("run.seed = 1\nrun.seed = 2\n")


def test_unknown_enum_values_rejected():
    with pytest.raises(ConfigError, match="experiment.kind"):
        resolve({"experiment.kind": "ablation"})
    with pytest.raises(ConfigError, match="decoder.family"):
        resolve({"decoder.family": "cnn"})
    with pytest.raises(ConfigError, match="plan.strategy"):
        resolve({"plan.strategy": "single_5"})
    with pytest.raises(ConfigError, match="plan.band"):
        resolve({"plan.band": "mu"})


def test_nested_spec_errors_become_config_errors():
    with pytest.raises(ConfigError):
        resolve({"dataset.synthetic.encoding": "fm"})
    with pytest.raises(ConfigError):
        resolve({"plan.region_set": "motor,motor"})
    with pytest.raises(ConfigError):
        resolve({"train.max_epochs": "-3"})


def test_overrides_beat_file_values():
    raw = parse_config_text("run.seed = 1\nplan.band = theta\n")
    cfg = resolve(raw, overrides={"run.seed": "7"})
    assert cfg.seed == 7
    assert cfg.plan.band == "theta"
    with pytest.raises(ConfigError, match="override"):
        resolve(raw, overrides={"not.a.key": "1"})


def test_resolved_text_is_canonical_and_hash_stable():
    a = resolve(parse_config_text("run.seed = 5\ndecoder.family = linear\n"))
    b = resolve(parse_config_text("decoder.family = linear\nrun.seed = 5\n"))
    assert a.resolved_text == b.resolved_text
    assert a.config_hash == b.config_hash
    assert len(a.config_hash) == 16
    # every registry key appears exactly once in the resolved text
    keys = [line.split(" = ")[0] for line in a.resolved_text.splitlines()]
    assert keys == sorted(REGISTRY)


def test_resolved_text_roundtrips_through_the_parser():
    cfg = resolve(parse_config_text(GOOD))
    again = resolve(parse_config_text(cfg.resolved_text))
    assert again.resolved_text == cfg.resolved_text
    assert again.config_hash == cfg.config_hash


def test_hash_changes_with_any_value():
    base = resolve({})
    changed = resolve({"train.patience": "6"})
    assert base.config_hash != changed.config_hash


def test_speed_rnn_family_is_rejected():
    # speed_rnn decodes speed history, not EEG; experiments add it as a reference
    with pytest.raises(ConfigError, match="decoder.family"):
        resolve({"decoder.family": "speed_rnn"})


def test_optional_values_parse_none():
    cfg = resolve({"dataset.iqr_threshold": "none", "decoder.max_depth": "none"})
    assert cfg.iqr_threshold is None
    assert cfg.decoder.max_depth is None
    cfg2 = resolve({"dataset.iqr_threshold": "0.46"})
    assert cfg2.iqr_threshold == 0.46


def test_load_config_reports_origin(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("run.seed = oops\n")
    with pytest.raises(ConfigError, match="expected an integer"):
        load_config(path)
    path2 = tmp_path / "bad.cfg"
    path2.write_text("mystery = 1\n")
    with pytest.raises(ConfigError, match=r"bad\.cfg:1"):
        load_config(path2)


def test_experiment_kinds_registry():
    assert EXPERIMENT_KINDS == ("baseline", "transfer", "regions", "bands", "offsets")


@pytest.mark.parametrize(
    "kind,strategy",
    [
        ("regions", "zeroshot_cross_subject"),
        ("bands", "finetune_cross_session"),
        ("offsets", "single_10"),
        ("baseline", "finetune_cross_subject"),
        ("transfer", "single_80"),
    ],
)
def test_kind_rejects_strategies_it_cannot_run(kind, strategy):
    with pytest.raises(ConfigError, match=f"experiment.kind={kind}"):
        resolve({"experiment.kind": kind, "plan.strategy": strategy})


def test_kind_accepts_its_strategies():
    for kind, strategies in KIND_STRATEGIES.items():
        for strategy in strategies:
            assert resolve({"experiment.kind": kind, "plan.strategy": strategy}).plan.strategy == strategy
    assert KIND_STRATEGIES["offsets"] == ("single_80",)
    assert set(KIND_STRATEGIES["transfer"]) == set(STRATEGIES[2:])
