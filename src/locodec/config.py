"""Plain-text run configuration.

Config files are ``dotted.key = value`` lines (``#`` comments allowed).
Every key is typed against a registry; unknown keys and duplicate keys are
rejected so typos fail loudly. :func:`resolve` materializes all defaults
into a :class:`ResolvedRun`, and the fully-resolved canonical text (written
next to every run's outputs) hashes to the config_hash embedded in output
files.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .decoders import DecoderSpec, FAMILIES
from .dsp import BAND_NAMES
from .errors import ConfigError, PlanError
from .protocols import STRATEGIES, DEFAULT_OFFSETS_MS, ExperimentPlan
from .synthetic import FleetSpec
from .trainer import TrainConfig

EXPERIMENT_KINDS = ("baseline", "transfer", "regions", "bands", "offsets")


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


# key -> (parser, default). Defaults mirror the dataclass defaults; the
# registry is the single source of truth for what a config may say.
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
    "dataset.synthetic.n_rats": (_int, 3),
    "dataset.synthetic.sessions_per_rat": (_int, 2),
    "dataset.synthetic.n_channels": (_int, 32),
    "dataset.synthetic.duration_s": (_float, 60.0),
    "dataset.synthetic.sample_rate_hz": (_float, 100.0),
    "dataset.synthetic.encoding": (_str, "linear"),
    "dataset.synthetic.signal_regions": (_str_tuple, ("medial_prefrontal", "somatomotor", "motor", "visual")),
    "dataset.synthetic.carrier_band": (_float_pair, (4.0, 8.0)),
    "dataset.synthetic.noise_scale": (_float, 0.3),
    "dataset.synthetic.linear_mix": (_float, 0.35),
    "dataset.synthetic.lead_ms": (_float, 0.0),
    "dataset.synthetic.eight_hz_gain": (_float, 0.0),
    "dataset.synthetic.speed_tau_s": (_float, 2.0),
    "dataset.synthetic.speed_bias": (_float, 0.3),
    "dataset.synthetic.speed_scale": (_float, 2.5),
    "dataset.synthetic.session_gain_jitter": (_float, 0.0),
    "dataset.synthetic.scramble_channels": (_bool, False),
    "dataset.synthetic.seed": (_int, 0),
    "decoder.family": (_str, "lstm_rnn"),
    "decoder.ffnn_hidden": (_int_tuple, (256, 64)),
    "decoder.lstm_hidden": (_int, 64),
    "decoder.head_hidden": (_int_tuple, (32,)),
    "decoder.embed_dim": (_int, 64),
    "decoder.n_heads": (_int, 4),
    "decoder.n_blocks": (_int, 1),
    "decoder.conv_kernel": (_int, 3),
    "decoder.dropout": (_float, 0.0),
    "decoder.n_trees": (_int, 100),
    "decoder.max_depth": (_opt_int, 12),
    "decoder.use_positional": (_bool, True),
    "train.max_epochs": (_int, 60),
    "train.batch_size": (_int, 64),
    "train.learning_rate": (_float, 1e-3),
    "train.optimizer": (_str, "adam"),
    "train.beta1": (_float, 0.9),
    "train.beta2": (_float, 0.999),
    "train.adam_eps": (_float, 1e-8),
    "train.patience": (_int, 5),
    "train.session": (_str, ""),
    "plan.strategy": (_str, "single_80"),
    "plan.band": (_str, "fullband"),
    "plan.region_set": (_str_tuple, ()),
    "plan.offset_ms": (_int, 0),
    "plan.refit_normalizer": (_bool, False),
    "plan.refresh_normalizer": (_bool, True),
    "plan.clip_nonnegative": (_bool, False),
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
    if values["decoder.family"] not in FAMILIES:
        raise ConfigError(f"decoder.family must be one of {FAMILIES}")
    if values["plan.strategy"] not in STRATEGIES:
        raise ConfigError(f"plan.strategy must be one of {STRATEGIES}")
    if values["plan.band"] not in BAND_NAMES:
        raise ConfigError(f"plan.band must be one of {BAND_NAMES}")

    try:
        fleet = FleetSpec(
            n_rats=values["dataset.synthetic.n_rats"],
            sessions_per_rat=values["dataset.synthetic.sessions_per_rat"],
            n_channels=values["dataset.synthetic.n_channels"],
            duration_s=values["dataset.synthetic.duration_s"],
            sample_rate_hz=values["dataset.synthetic.sample_rate_hz"],
            encoding=values["dataset.synthetic.encoding"],
            signal_regions=values["dataset.synthetic.signal_regions"],
            carrier_band=values["dataset.synthetic.carrier_band"],
            noise_scale=values["dataset.synthetic.noise_scale"],
            linear_mix=values["dataset.synthetic.linear_mix"],
            lead_ms=values["dataset.synthetic.lead_ms"],
            eight_hz_gain=values["dataset.synthetic.eight_hz_gain"],
            speed_tau_s=values["dataset.synthetic.speed_tau_s"],
            speed_bias=values["dataset.synthetic.speed_bias"],
            speed_scale=values["dataset.synthetic.speed_scale"],
            session_gain_jitter=values["dataset.synthetic.session_gain_jitter"],
            scramble_channels=values["dataset.synthetic.scramble_channels"],
            seed=values["dataset.synthetic.seed"],
        )
        decoder = DecoderSpec(
            family=values["decoder.family"],
            # fitting replaces this with the prepared session's channel count
            n_channels=1 if values["decoder.family"] == "speed_rnn" else DecoderSpec.n_channels,
            ffnn_hidden=values["decoder.ffnn_hidden"],
            lstm_hidden=values["decoder.lstm_hidden"],
            head_hidden=values["decoder.head_hidden"],
            embed_dim=values["decoder.embed_dim"],
            n_heads=values["decoder.n_heads"],
            n_blocks=values["decoder.n_blocks"],
            conv_kernel=values["decoder.conv_kernel"],
            dropout=values["decoder.dropout"],
            n_trees=values["decoder.n_trees"],
            max_depth=values["decoder.max_depth"],
            use_positional=values["decoder.use_positional"],
        )
        train = TrainConfig(
            max_epochs=values["train.max_epochs"],
            batch_size=values["train.batch_size"],
            learning_rate=values["train.learning_rate"],
            optimizer=values["train.optimizer"],
            beta1=values["train.beta1"],
            beta2=values["train.beta2"],
            adam_eps=values["train.adam_eps"],
            patience=values["train.patience"],
        )
        plan = ExperimentPlan(
            decoder=decoder,
            train=train,
            strategy=values["plan.strategy"],
            region_set=values["plan.region_set"],
            band=values["plan.band"],
            offset_ms=values["plan.offset_ms"],
            refit_normalizer=values["plan.refit_normalizer"],
            refresh_normalizer=values["plan.refresh_normalizer"],
            clip_nonnegative=values["plan.clip_nonnegative"],
            master_seed=values["run.seed"],
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
