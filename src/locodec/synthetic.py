"""Synthetic session fleets with known ground truth.

Speed traces are rectified, smoothed Ornstein-Uhlenbeck paths; EEG channels
carry the latent speed directly, as the amplitude of a band-limited noise
carrier, or a fixed time ahead, plus white sensor noise. The three
encodings are chosen so that specific pipeline claims become checkable by
construction:

* ``linear``    - channels carry the latent directly; a linear readout is
                  sufficient and near-perfect at low noise.
* ``am``        - channels are amplitude-modulated carriers; the mean of the
                  raw samples is uninformative, so linear readouts fail while
                  nonlinear families succeed.
* ``lead``      - channels encode the latent ``lead_ms`` ahead of the speed
                  trace, so forward-shifted targets are easier for EEG
                  decoders than for speed-history extrapolation.

A per-rat channel permutation plus a per-rat polarity pattern
(``scramble_channels``) models subject-specific electrode-to-source
mappings: within-rat structure is preserved while across-rat transfer
collapses. The polarity patterns are rows of a Sylvester-Hadamard ±1 code,
mutually orthogonal when ``n_channels`` is a power of two, so a linear
readout learned under one rat's pattern cancels under another's by
construction instead of by luck. An optional 8 Hz carrier whose amplitude
ramps with speed supports the speed-resolved spectrum checks. Everything is
reproducible from the fleet seed alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter

from .dsp import design_butterworth, filtfilt
from .sessions import REGIONS, SIDES, Session

ENCODINGS = ("linear", "am", "lead")

AM_FLOOR = 0.2  # carrier amplitude at zero speed, keeps the carrier visible at rest


@dataclass(frozen=True)
class FleetSpec:
    n_rats: int = 3
    sessions_per_rat: int = 2
    n_channels: int = 32
    duration_s: float = 60.0
    sample_rate_hz: float = 100.0
    encoding: str = "linear"
    signal_regions: tuple[str, ...] = REGIONS
    carrier_band: tuple[float, float] = (4.0, 8.0)
    noise_scale: float = 0.3
    lead_ms: float = 0.0
    eight_hz_gain: float = 0.0
    speed_tau_s: float = 2.0
    speed_bias: float = 0.3
    speed_scale: float = 2.5
    scramble_channels: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.n_rats < 1 or self.sessions_per_rat < 1:
            raise ValueError("fleet needs at least one rat and one session per rat")
        if self.n_channels < 1:
            raise ValueError("n_channels must be positive")
        if self.encoding not in ENCODINGS:
            raise ValueError(f"unknown encoding {self.encoding!r}; known: {ENCODINGS}")
        unknown = set(self.signal_regions) - set(REGIONS)
        if unknown:
            raise ValueError(f"unknown regions {sorted(unknown)}; known: {REGIONS}")
        if not self.signal_regions:
            raise ValueError("signal_regions must not be empty")
        if self.n_samples < 20:
            raise ValueError("duration too short for a single window")
        if self.lead_ms and self.encoding != "lead":
            raise ValueError("lead_ms is only meaningful with encoding='lead'")
        if self.speed_tau_s <= 0 or self.speed_scale <= 0:
            raise ValueError("speed_tau_s and speed_scale must be positive")
        if self.noise_scale < 0 or self.eight_hz_gain < 0:
            raise ValueError("noise_scale and eight_hz_gain must be non-negative")

    @property
    def n_samples(self) -> int:
        return int(round(self.duration_s * self.sample_rate_hz))

    @property
    def lead_samples(self) -> int:
        k = self.lead_ms * self.sample_rate_hz / 1000.0
        if abs(k - round(k)) > 1e-9:
            raise ValueError(f"lead_ms {self.lead_ms} is not a whole number of samples")
        return int(round(k))


def orthogonal_signs(row: int, n_channels: int) -> np.ndarray:
    """Row ``row`` of the Sylvester-Hadamard ±1 code over ``n_channels``
    columns. Distinct rows below 2^ceil(log2 n) are exactly orthogonal for
    power-of-two widths and near-orthogonal otherwise; patterns repeat once
    ``row`` exceeds that bound."""
    return np.array(
        [1.0 if bin(row & c).count("1") % 2 == 0 else -1.0 for c in range(n_channels)]
    )


def region_layout(n_channels: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Default electrode labeling: regions cycle every channel pair, sides
    alternate within the pair, so each region is bilateral."""
    regions = tuple(REGIONS[(c // 2) % len(REGIONS)] for c in range(n_channels))
    sides = tuple(SIDES[c % 2] for c in range(n_channels))
    return regions, sides


def _rectified_ou(rng, n: int, fs: float, tau_s: float, bias: float) -> tuple[np.ndarray, np.ndarray]:
    """Latent locomotion drive: unit-variance OU path, lightly smoothed, then
    shifted and clipped at zero. Returns (latent u >= 0, raw OU path)."""
    alpha = float(np.exp(-1.0 / (fs * tau_s)))
    eps = rng.standard_normal(n)
    eps[0] = rng.standard_normal() / np.sqrt(1.0 - alpha * alpha)  # stationary start
    x = lfilter([np.sqrt(1.0 - alpha * alpha)], [1.0, -alpha], eps)
    sos = design_butterworth(2, "lowpass", (1.2,), fs)
    x = filtfilt(sos, x)
    u = np.maximum(x + bias, 0.0)
    return u, x


def _carrier(rng, n: int, fs: float, band: tuple[float, float]) -> np.ndarray:
    sos = design_butterworth(4, "bandpass", band, fs)
    c = filtfilt(sos, rng.standard_normal(n))
    sd = float(np.std(c))
    return c / sd if sd > 0 else c


def _session_eeg(
    spec: FleetSpec,
    rng,
    u_eeg: np.ndarray,
    gains: np.ndarray,
    signal_mask: np.ndarray,
) -> np.ndarray:
    n = u_eeg.size
    c_count = spec.n_channels
    eeg = np.empty((c_count, n))
    for c in range(c_count):
        noise = spec.noise_scale * rng.standard_normal(n)
        carrier = _carrier(rng, n, spec.sample_rate_hz, spec.carrier_band)
        if not signal_mask[c]:
            eeg[c] = AM_FLOOR * carrier + noise
            continue
        if spec.encoding == "am":
            sig = gains[c] * (AM_FLOOR + u_eeg) * carrier
        else:
            # linear and lead encode the (possibly shifted) latent directly;
            # the carrier floor is part of the disturbance there, so it rides
            # at the noise level and vanishes in the noise-free limit.
            sig = gains[c] * u_eeg + AM_FLOOR * spec.noise_scale * carrier
        if spec.eight_hz_gain > 0.0:
            sig = sig + spec.eight_hz_gain * u_eeg * _carrier(
                rng, n, spec.sample_rate_hz, (7.5, 8.5)
            )
        eeg[c] = sig + noise
    return eeg


def generate_synthetic_fleet(spec: FleetSpec) -> list[Session]:
    """Build ``n_rats * sessions_per_rat`` sessions, reproducible from
    ``spec.seed``. The channel-to-latent mapping is shared across the whole
    fleet unless ``scramble_channels`` applies a per-rat permutation and sign
    pattern (the same one for all of that rat's sessions)."""
    regions, sides = region_layout(spec.n_channels)
    signal_mask = np.array([r in spec.signal_regions for r in regions])

    # One mapping for the fleet: per-channel encoding gains in [0.7, 1.3],
    # drawn from their own stream, apart from every rat's.
    map_ss, *rat_ss = np.random.SeedSequence(spec.seed).spawn(1 + spec.n_rats)
    gains = np.random.default_rng(map_ss).uniform(0.7, 1.3, size=spec.n_channels)

    n = spec.n_samples
    lead = spec.lead_samples
    sessions: list[Session] = []
    for r, rss in enumerate(rat_ss):
        rat_rng_ss, *sess_ss = rss.spawn(1 + spec.sessions_per_rat)
        rat_rng = np.random.default_rng(rat_rng_ss)
        if spec.scramble_channels:
            perm = rat_rng.permutation(spec.n_channels)
            signs = orthogonal_signs(r + 1, spec.n_channels)
        else:
            perm = np.arange(spec.n_channels)
            signs = np.ones(spec.n_channels)
        rat_id = f"rat{r + 1:02d}"
        for k, sss in enumerate(sess_ss):
            rng = np.random.default_rng(sss)
            u_full, _ = _rectified_ou(rng, n + lead, spec.sample_rate_hz, spec.speed_tau_s, spec.speed_bias)
            u_now = u_full[:n]
            u_eeg = u_full[lead:] if lead else u_now
            speed = spec.speed_scale * u_now
            eeg = _session_eeg(spec, rng, u_eeg, gains, signal_mask)
            eeg = signs[:, None] * eeg[perm, :]
            sessions.append(
                Session(
                    id=f"{rat_id}_s{k + 1:02d}",
                    rat_id=rat_id,
                    sample_rate_hz=spec.sample_rate_hz,
                    eeg=eeg,
                    speed=speed,
                    region_map=regions,
                    side_map=sides,
                    meta={"origin": "synthetic", "encoding": spec.encoding},
                )
            )
    return sessions
