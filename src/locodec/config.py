"""Plain-text run configuration.

Config files are ``dotted.key = value`` lines (``#`` comments allowed).
Every key is typed against a registry; unknown keys and duplicate keys are
rejected so typos fail loudly. The keys of the fleet, decoder, trainer and
plan sections are the fields of their spec dataclasses, so their types and
defaults have one source. :func:`resolve` materializes all defaults
into a :class:`ResolvedRun`, and the fully-resolved canonical text (written
next to every run's outputs) hashes to the config_hash embedded in output
files.
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


# key -> (parser, default); a config may say nothing else. Under the
# prefixes dataset.synthetic., decoder., train. and plan. the rest of a key
# is a field name of FleetSpec, DecoderSpec, TrainConfig or ExperimentPlan
# (train.session excepted), and the field gives the key's default.
REGISTRY: dict[str, tuple] = {
    "run.out_dir": (_str, "runs/out"),
    "run.seed": (_int, 0),
    "run.jobs": (_int, 1),
    "experiment.kind": (_str, "baseline"),
    "experiment.offsets_ms": (_int_tuple, DEFAULT_OFFSETS_MS),
    "experiment.bands": (_str_tuple, BAND_NAMES),
    "experiment.include_pairs": (_bool, True),
    "experiment.include_speed_rnn": (_bool, True),
    "experiment.include_autocorrelation": (_bool, True),
    "dataset.paths": (_str_tuple, ()),
    "dataset.apply_gate": (_bool, False),
    "dataset.iqr_threshold": (_opt_float, None),
    "dataset.synthetic": (_bool, False),
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
    kind: str
    out_dir: str
    seed: int
    jobs: int
    dataset_paths: tuple[str, ...]
    use_synthetic: bool
    fleet: FleetSpec
    apply_gate: bool
    iqr_threshold: float | None
    decoder: DecoderSpec
    train: TrainConfig
    plan: ExperimentPlan
    offsets_ms: tuple[int, ...]
    bands: tuple[str, ...]
    include_pairs: bool
    include_speed_rnn: bool
    include_autocorrelation: bool
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
    the rest of the key, which is the spec's field name."""
    return {key[len(prefix):]: value for key, value in values.items() if key.startswith(prefix)}


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

    kind = values["experiment.kind"]
    if kind not in EXPERIMENT_KINDS:
        raise ConfigError(f"experiment.kind must be one of {EXPERIMENT_KINDS}, got {kind!r}")
    families = tuple(f for f in FAMILIES if f != "speed_rnn")  # speed_rnn is the speed-history reference
    if values["decoder.family"] not in families:
        raise ConfigError(f"decoder.family must be one of {families}")
    if values["plan.strategy"] not in STRATEGIES:
        raise ConfigError(f"plan.strategy must be one of {STRATEGIES}")
    if values["plan.strategy"] not in KIND_STRATEGIES[kind]:
        raise ConfigError(f"experiment.kind={kind} needs plan.strategy in {KIND_STRATEGIES[kind]}")
    if values["plan.band"] not in BAND_NAMES:
        raise ConfigError(f"plan.band must be one of {BAND_NAMES}")
    for offset in values["experiment.offsets_ms"]:
        offset_samples_for(offset)  # an OffsetError is a ConfigError

    try:
        fleet = FleetSpec(**_section(values, "dataset.synthetic."))
        # fitting replaces n_channels with the prepared session's channel count
        decoder = DecoderSpec(**_section(values, "decoder."))
        train_args = _section(values, "train.")
        del train_args["session"]  # the session `locodec train` fits, not a training setting
        train = TrainConfig(**train_args)
        plan = ExperimentPlan(
            decoder=decoder, train=train, master_seed=values["run.seed"], **_section(values, "plan.")
        )
    except (ValueError, PlanError) as exc:
        raise ConfigError(str(exc))

    return ResolvedRun(
        values=values,
        kind=kind,
        out_dir=values["run.out_dir"],
        seed=values["run.seed"],
        jobs=values["run.jobs"],
        dataset_paths=values["dataset.paths"],
        use_synthetic=values["dataset.synthetic"],
        fleet=fleet,
        apply_gate=values["dataset.apply_gate"],
        iqr_threshold=values["dataset.iqr_threshold"],
        decoder=decoder,
        train=train,
        plan=plan,
        offsets_ms=values["experiment.offsets_ms"],
        bands=values["experiment.bands"],
        include_pairs=values["experiment.include_pairs"],
        include_speed_rnn=values["experiment.include_speed_rnn"],
        include_autocorrelation=values["experiment.include_autocorrelation"],
        train_session=values["train.session"],
    )


def load_config(path, overrides: dict[str, str] | None = None) -> ResolvedRun:
    with open(path, "r", encoding="utf-8") as fh:
        raw = parse_config_text(fh.read(), origin=str(path))
    return resolve(raw, overrides)
