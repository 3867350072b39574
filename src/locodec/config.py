"""Plain-text run configuration.

Config files are ``dotted.key = value`` lines (``#`` comments allowed).
Every key is typed against a registry; unknown keys and duplicate keys are
rejected so typos fail loudly. Each key is ``<section>.<field>``, and the
field of the section's spec dataclass (RunSettings, ExperimentSettings,
DatasetSettings, FleetSpec, DecoderSpec, TrainConfig or ExperimentPlan)
gives its type and default and checks its value; ``train.session`` is the
one exception. :func:`resolve` builds the specs into a :class:`ResolvedRun`,
and the fully-resolved canonical text (written next to every run's outputs)
hashes to the config_hash embedded in output files.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields

from .decoders import DecoderSpec, FAMILIES
from .dsp import BAND_NAMES
from .errors import ConfigError, PlanError
from .protocols import STRATEGIES, DEFAULT_OFFSETS_MS, ExperimentPlan
from .sessions import offset_samples_for
from .synthetic import FleetSpec
from .trainer import TrainConfig

# experiment kind -> the plan strategies it runs
KIND_STRATEGIES = {
    "baseline": STRATEGIES[:2],
    "transfer": STRATEGIES[2:],
    "regions": STRATEGIES[:2],
    "bands": STRATEGIES[:2],
    "offsets": ("single_80",),
}
EXPERIMENT_KINDS = tuple(KIND_STRATEGIES)


def _bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {raw!r}")


def _int(raw: str) -> int:
    try:
        return int(raw.strip())
    except ValueError:
        raise ConfigError(f"expected an integer, got {raw!r}")


def _float(raw: str) -> float:
    try:
        return float(raw.strip())
    except ValueError:
        raise ConfigError(f"expected a number, got {raw!r}")


def _str(raw: str) -> str:
    return raw.strip()


def _str_tuple(raw: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in raw.split(",") if part.strip())


def _int_tuple(raw: str) -> tuple[int, ...]:
    return tuple(_int(p) for p in raw.split(",") if p.strip())


def _float_pair(raw: str) -> tuple[float, float]:
    parts = [p for p in raw.split(",") if p.strip()]
    if len(parts) != 2:
        raise ConfigError(f"expected two comma-separated numbers, got {raw!r}")
    return (_float(parts[0]), _float(parts[1]))


def _opt_float(raw: str):
    return None if raw.strip().lower() in ("", "none") else _float(raw)


def _opt_int(raw: str):
    return None if raw.strip().lower() in ("", "none") else _int(raw)


# a spec field's annotation text -> the parser of its config values
_PARSERS = {
    "bool": _bool,
    "int": _int,
    "float": _float,
    "str": _str,
    "float | None": _opt_float,
    "int | None": _opt_int,
    "tuple[int, ...]": _int_tuple,
    "tuple[str, ...]": _str_tuple,
    "tuple[float, float]": _float_pair,
}


def _spec_keys(prefix: str, spec, filled=(), **defaults) -> dict[str, tuple]:
    """One registry entry per field of ``spec``: the key is ``prefix`` plus
    the field name, parsed by the field's annotation, defaulting to the
    field's default unless ``defaults`` names one. Fields in ``filled`` are
    set by :func:`resolve` itself and have no key."""
    return {
        prefix + f.name: (_PARSERS[f.type], defaults.get(f.name, f.default))
        for f in fields(spec)
        if f.name not in filled
    }


@dataclass(frozen=True)
class RunSettings:
    out_dir: str = "runs/out"
    seed: int = 0
    jobs: int = 1


@dataclass(frozen=True)
class ExperimentSettings:
    kind: str = "baseline"
    offsets_ms: tuple[int, ...] = DEFAULT_OFFSETS_MS
    bands: tuple[str, ...] = BAND_NAMES
    include_pairs: bool = True
    include_speed_rnn: bool = True
    include_autocorrelation: bool = True

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ValueError(f"experiment.kind must be one of {EXPERIMENT_KINDS}, got {self.kind!r}")
        for name in ("bands", "offsets_ms"):
            values = getattr(self, name)
            if not values or len(set(values)) != len(values):
                raise ValueError(f"experiment.{name} must be non-empty with no value repeated, got {values}")
        unknown = sorted(set(self.bands) - set(BAND_NAMES))
        if unknown:
            raise ValueError(f"experiment.bands has unknown bands {unknown}; known: {BAND_NAMES}")
        for offset in self.offsets_ms:
            offset_samples_for(offset)  # an offset off the sample grid is an input error


@dataclass(frozen=True)
class DatasetSettings:
    paths: tuple[str, ...] = ()
    apply_gate: bool = False
    iqr_threshold: float | None = None
    synthetic: bool = False


# key -> (parser, default); a config may say nothing else. Every key but
# train.session is a spec field (module docstring).
REGISTRY: dict[str, tuple] = {
    **_spec_keys("run.", RunSettings),
    **_spec_keys("experiment.", ExperimentSettings),
    **_spec_keys("dataset.", DatasetSettings),
    **_spec_keys("dataset.synthetic.", FleetSpec),
    **_spec_keys("decoder.", DecoderSpec, ("n_channels", "seed"), family="lstm_rnn"),
    **_spec_keys("train.", TrainConfig, ("freeze_body", "shuffle_seed")),
    "train.session": (_str, ""),
    **_spec_keys("plan.", ExperimentPlan, ("decoder", "train", "master_seed")),
}


def parse_config_text(text: str, origin: str = "<config>") -> dict[str, str]:
    """Raw key -> value strings; unknown or duplicate keys are errors."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{origin}:{lineno}: expected 'key = value', got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in REGISTRY:
            raise ConfigError(f"{origin}:{lineno}: unknown config key {key!r}")
        if key in raw:
            raise ConfigError(f"{origin}:{lineno}: duplicate config key {key!r}")
        raw[key] = value.strip()
    return raw


def _render_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "none"
    if isinstance(value, (tuple, list)):
        return ",".join(_render_value(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


@dataclass(frozen=True)
class ResolvedRun:
    values: dict
    run: RunSettings
    experiment: ExperimentSettings
    dataset: DatasetSettings
    fleet: FleetSpec
    plan: ExperimentPlan
    train_session: str

    @property
    def resolved_text(self) -> str:
        lines = [f"{key} = {_render_value(self.values[key])}" for key in sorted(self.values)]
        return "\n".join(lines) + "\n"

    @property
    def config_hash(self) -> str:
        # Where outputs land and how many workers ran must not change the
        # identity of the computation, so those keys stay out of the hash.
        lines = [
            f"{key} = {_render_value(self.values[key])}"
            for key in sorted(self.values)
            if key not in ("run.out_dir", "run.jobs")
        ]
        text = "\n".join(lines) + "\n"
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _section(values: dict, prefix: str) -> dict:
    """Keyword arguments for one spec: the keys under ``prefix``, named by
    the rest of the key, which is the spec's field name. Keys of a nested
    section (``dataset.synthetic.*`` under ``dataset.``) are not its own."""
    return {key[len(prefix):]: value for key, value in values.items() if key.rpartition(".")[0] + "." == prefix}


def resolve(raw: dict[str, str], overrides: dict[str, str] | None = None) -> ResolvedRun:
    """Typed resolution with CLI overrides taking precedence over file values
    and both over registry defaults."""
    merged = dict(raw)
    for key, value in (overrides or {}).items():
        if key not in REGISTRY:
            raise ConfigError(f"unknown config key {key!r} (override)")
        merged[key] = value
    values: dict = {}
    for key, (parser, default) in REGISTRY.items():
        if key in merged:
            try:
                values[key] = parser(merged[key])
            except ConfigError as exc:
                raise ConfigError(f"{key}: {exc}")
        else:
            values[key] = default

    families = tuple(f for f in FAMILIES if f != "speed_rnn")  # speed_rnn is the speed-history reference
    try:
        run = RunSettings(**_section(values, "run."))
        experiment = ExperimentSettings(**_section(values, "experiment."))
        dataset = DatasetSettings(**_section(values, "dataset."))
        if values["decoder.family"] not in families:
            raise ConfigError(f"decoder.family must be one of {families}")
        if values["plan.strategy"] not in STRATEGIES:
            raise ConfigError(f"plan.strategy must be one of {STRATEGIES}")
        strategies = KIND_STRATEGIES[experiment.kind]
        if values["plan.strategy"] not in strategies:
            raise ConfigError(f"experiment.kind={experiment.kind} needs plan.strategy in {strategies}")
        if values["plan.band"] not in BAND_NAMES:
            raise ConfigError(f"plan.band must be one of {BAND_NAMES}")
        fleet = FleetSpec(**_section(values, "dataset.synthetic."))
        # fitting replaces n_channels with the prepared session's channel count
        decoder = DecoderSpec(**_section(values, "decoder."))
        train_args = _section(values, "train.")
        del train_args["session"]  # the session `locodec train` fits, not a training setting
        plan = ExperimentPlan(
            decoder=decoder, train=TrainConfig(**train_args), master_seed=run.seed, **_section(values, "plan.")
        )
    except (ValueError, PlanError) as exc:
        raise ConfigError(str(exc))

    return ResolvedRun(
        values=values,
        run=run,
        experiment=experiment,
        dataset=dataset,
        fleet=fleet,
        plan=plan,
        train_session=values["train.session"],
    )


def load_config(path, overrides: dict[str, str] | None = None) -> ResolvedRun:
    with open(path, "r", encoding="utf-8") as fh:
        raw = parse_config_text(fh.read(), origin=str(path))
    return resolve(raw, overrides)
