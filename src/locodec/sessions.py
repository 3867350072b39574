"""Session data model, canonical file formats, inclusion gating, sequential
splits, channel-wise normalization, and sliding-window extraction.

A session is an immutable pairing of a multichannel EEG matrix (channels x
time) with a speed trace sampled at the same rate, plus channel region/side
labels and provenance metadata. Two interchangeable on-disk forms are
supported: a CSV with a plain-text manifest sidecar, and a compact binary
with the manifest embedded.

This module owns the time base. Every session is sampled at
:data:`CANONICAL_RATE_HZ` (100 Hz; :func:`preprocess_raw` decimates raw
recordings to it, and a :class:`Session` at any other rate is rejected), so
one sample is :data:`STRIDE_MS` (10 ms), a window of :data:`WINDOW_LEN`
samples spans 200 ms, and :func:`offset_samples_for` is the one rule that
turns milliseconds into samples.

Window stacks (:func:`window_arrays`, :func:`speed_window_arrays`) are
read-only strided views over one time-major copy of the samples they cover,
so a sample is stored once however many windows hold it.
"""

from __future__ import annotations

import csv
import dataclasses
import math
import struct
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import dsp
from .errors import (
    FormatError,
    IntegrityError,
    OffsetError,
    ShapeError,
    SplitError,
    UnsupportedRateError,
)

CANONICAL_RATE_HZ = 100.0
STRIDE_MS = 1000.0 / CANONICAL_RATE_HZ  # ms between samples, and between windows
WINDOW_LEN = 20  # samples per decoding window (200 ms)
STD_FLOOR = 1e-8
REGIONS = ("medial_prefrontal", "somatomotor", "motor", "visual")
SIDES = ("left", "right")

BIN_MAGIC = b"LCDC1"


def channel_name(index: int, n_channels: int) -> str:
    width = max(2, len(str(n_channels)))
    return f"ch{index + 1:0{width}d}"


def _rate_error(session_id: str, rate: float) -> UnsupportedRateError:
    return UnsupportedRateError(
        f"session {session_id} is sampled at {rate} Hz; "
        f"sessions must be at {CANONICAL_RATE_HZ} Hz (decimate with preprocess_raw)"
    )


@dataclass(frozen=True)
class Session:
    """One recording: EEG (C, T), speed (T,), labels, provenance. The rate
    must be :data:`CANONICAL_RATE_HZ`."""

    id: str
    rat_id: str
    sample_rate_hz: float
    eeg: np.ndarray
    speed: np.ndarray
    region_map: tuple[str, ...]
    side_map: tuple[str, ...]
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.sample_rate_hz != CANONICAL_RATE_HZ:
            raise _rate_error(self.id, self.sample_rate_hz)
        eeg = np.ascontiguousarray(np.asarray(self.eeg, dtype=np.float64))
        speed = np.ascontiguousarray(np.asarray(self.speed, dtype=np.float64))
        if eeg.ndim != 2:
            raise IntegrityError(f"session {self.id}: eeg must be 2-d, got shape {eeg.shape}")
        if speed.ndim != 1:
            raise IntegrityError(f"session {self.id}: speed must be 1-d, got shape {speed.shape}")
        if eeg.shape[1] != speed.size:
            raise IntegrityError(
                f"session {self.id}: eeg has {eeg.shape[1]} samples but speed has {speed.size}"
            )
        if speed.size < WINDOW_LEN:
            raise IntegrityError(
                f"session {self.id}: {speed.size} samples is shorter than one window ({WINDOW_LEN})"
            )
        bad = np.argwhere(~np.isfinite(eeg))
        if bad.size:
            c, t = bad[0]
            raise IntegrityError(
                f"session {self.id}: non-finite value in channel "
                f"{channel_name(int(c), eeg.shape[0])} at sample {int(t)}"
            )
        if not np.all(np.isfinite(speed)):
            t = int(np.argmax(~np.isfinite(speed)))
            raise IntegrityError(f"session {self.id}: non-finite speed at sample {t}")
        if len(self.region_map) != eeg.shape[0] or len(self.side_map) != eeg.shape[0]:
            raise IntegrityError(
                f"session {self.id}: region/side maps must cover all {eeg.shape[0]} channels"
            )
        for i, (reg, side) in enumerate(zip(self.region_map, self.side_map)):
            if reg not in REGIONS:
                raise IntegrityError(
                    f"session {self.id}: unknown region {reg!r} for {channel_name(i, eeg.shape[0])}"
                )
            if side not in SIDES:
                raise IntegrityError(
                    f"session {self.id}: unknown side {side!r} for {channel_name(i, eeg.shape[0])}"
                )
        eeg.flags.writeable = False
        speed.flags.writeable = False
        object.__setattr__(self, "eeg", eeg)
        object.__setattr__(self, "speed", speed)
        object.__setattr__(self, "region_map", tuple(self.region_map))
        object.__setattr__(self, "side_map", tuple(self.side_map))

    @property
    def n_channels(self) -> int:
        return self.eeg.shape[0]

    @property
    def n_samples(self) -> int:
        return self.eeg.shape[1]

    def select_channels(self, indices) -> "Session":
        """New session restricted to the given channel indices (order kept)."""
        idx = list(indices)
        if not idx:
            raise IntegrityError(f"session {self.id}: channel selection is empty")
        return dataclasses.replace(
            self,
            eeg=self.eeg[idx],
            region_map=tuple(self.region_map[i] for i in idx),
            side_map=tuple(self.side_map[i] for i in idx),
        )


# ---------------------------------------------------------------------------
# manifest handling (plain text, dotted keys, one `key=value` per line)


def parse_manifest_text(text: str) -> dict[str, str]:
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise FormatError(f"manifest line {lineno}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        entries[key.strip()] = value.strip()
    return entries


def manifest_text(entries: dict[str, str]) -> str:
    return "".join(f"{k}={entries[k]}\n" for k in sorted(entries))


def manifest_from_session(s: Session) -> dict[str, str]:
    entries = {
        "session.id": s.id,
        "session.rat_id": s.rat_id,
        "session.sample_rate_hz": repr(float(s.sample_rate_hz)),
    }
    for key, value in s.meta.items():
        entries[f"session.{key}"] = str(value)
    for i in range(s.n_channels):
        name = channel_name(i, s.n_channels)
        entries[f"channel.{name}.region"] = s.region_map[i]
        entries[f"channel.{name}.side"] = s.side_map[i]
    return entries


def _session_from_arrays(
    eeg: np.ndarray,
    speed: np.ndarray,
    manifest: dict[str, str],
    fallback_id: str,
) -> Session:
    n_channels = eeg.shape[0]
    regions, sides = [], []
    for i in range(n_channels):
        name = channel_name(i, n_channels)
        reg = manifest.get(f"channel.{name}.region")
        side = manifest.get(f"channel.{name}.side")
        if reg is None:
            raise FormatError(f"manifest missing channel.{name}.region")
        if side is None:
            raise FormatError(f"manifest missing channel.{name}.side")
        regions.append(reg)
        sides.append(side)
    known_session = {"session.id", "session.rat_id", "session.sample_rate_hz"}
    meta = {
        k[len("session.") :]: v
        for k, v in manifest.items()
        if k.startswith("session.") and k not in known_session
    }
    try:
        rate = float(manifest.get("session.sample_rate_hz", CANONICAL_RATE_HZ))
    except ValueError:
        raise FormatError(
            f"manifest session.sample_rate_hz is not a number: "
            f"{manifest['session.sample_rate_hz']!r}"
        )
    return Session(
        id=manifest.get("session.id", fallback_id),
        rat_id=manifest.get("session.rat_id", fallback_id),
        sample_rate_hz=rate,
        eeg=eeg,
        speed=speed,
        region_map=tuple(regions),
        side_map=tuple(sides),
        meta=meta,
    )


# ---------------------------------------------------------------------------
# canonical CSV (header: time_s,speed,ch01..chNN + manifest sidecar)


def manifest_path_for(path: Path) -> Path:
    return path.with_suffix(".manifest")


def _ingest_csv(path: Path) -> Session:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise FormatError(f"{path}: empty file")
        if len(header) < 3 or header[0] != "time_s" or header[1] != "speed":
            raise FormatError(f"{path}: header must start with time_s,speed,ch01,...")
        n_channels = len(header) - 2
        expected = ["time_s", "speed"] + [channel_name(i, n_channels) for i in range(n_channels)]
        if header != expected:
            raise FormatError(f"{path}: channel columns must be named {expected[2:]} in order")
        rows: list[list[float]] = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(expected):
                raise IntegrityError(
                    f"{path}: line {lineno} has {len(row)} fields, expected {len(expected)}"
                )
            try:
                rows.append([float(v) for v in row])
            except ValueError as exc:
                raise FormatError(f"{path}: line {lineno}: {exc}")
    if not rows:
        raise FormatError(f"{path}: no data rows")
    table = np.asarray(rows, dtype=np.float64).T
    time_s, speed, eeg = table[0], table[1], table[2:]
    if not np.all(np.isfinite(time_s)):
        raise FormatError(f"{path}: time_s must be finite")
    mpath = manifest_path_for(path)
    if not mpath.exists():
        raise FormatError(f"{path}: manifest sidecar {mpath.name} not found")
    manifest = parse_manifest_text(mpath.read_text())
    # time_s is the file's own record of its rate: it must step by one sample
    step = np.diff(time_s)
    off = np.flatnonzero(np.abs(step - 1.0 / CANONICAL_RATE_HZ) > 1e-9)
    if off.size:
        rate = round(1.0 / step[off[0]], 6) if step[off[0]] else float("inf")
        raise _rate_error(manifest.get("session.id", path.stem), rate)
    return _session_from_arrays(eeg, speed, manifest, fallback_id=path.stem)


def _write_csv(s: Session, path: Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["time_s", "speed"] + [channel_name(i, s.n_channels) for i in range(s.n_channels)]
        )
        for t in range(s.n_samples):
            writer.writerow(
                [repr(t / CANONICAL_RATE_HZ), repr(float(s.speed[t]))]
                + [repr(float(v)) for v in s.eeg[:, t]]
            )
    manifest_path_for(path).write_text(manifest_text(manifest_from_session(s)))


# ---------------------------------------------------------------------------
# canonical binary (magic, channel-major float32 EEG, float32 speed, manifest)


def _ingest_bin(path: Path) -> Session:
    blob = path.read_bytes()
    if len(blob) < len(BIN_MAGIC) + 4 + 8 + 8 + 4:
        raise FormatError(f"{path}: truncated file")
    if blob[: len(BIN_MAGIC)] != BIN_MAGIC:
        raise FormatError(f"{path}: bad magic {blob[:len(BIN_MAGIC)]!r}, expected {BIN_MAGIC!r}")
    off = len(BIN_MAGIC)
    n_channels, n_samples, rate = struct.unpack_from("<IQd", blob, off)
    off += struct.calcsize("<IQd")
    want = n_channels * n_samples * 4
    if len(blob) < off + want + n_samples * 4 + 4:
        raise FormatError(f"{path}: truncated file")
    eeg = np.frombuffer(blob, dtype="<f4", count=n_channels * n_samples, offset=off)
    eeg = eeg.reshape(n_channels, n_samples).astype(np.float64)
    off += want
    speed = np.frombuffer(blob, dtype="<f4", count=n_samples, offset=off).astype(np.float64)
    off += n_samples * 4
    (mlen,) = struct.unpack_from("<I", blob, off)
    off += 4
    if len(blob) < off + mlen:
        raise FormatError(f"{path}: truncated manifest")
    manifest = parse_manifest_text(blob[off : off + mlen].decode("utf-8"))
    if rate != CANONICAL_RATE_HZ:
        raise _rate_error(manifest.get("session.id", path.stem), rate)
    return _session_from_arrays(eeg, speed, manifest, fallback_id=path.stem)


def _write_bin(s: Session, path: Path) -> None:
    mblob = manifest_text(manifest_from_session(s)).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(BIN_MAGIC)
        fh.write(struct.pack("<IQd", s.n_channels, s.n_samples, float(s.sample_rate_hz)))
        fh.write(np.ascontiguousarray(s.eeg, dtype="<f4").tobytes())
        fh.write(np.ascontiguousarray(s.speed, dtype="<f4").tobytes())
        fh.write(struct.pack("<I", len(mblob)))
        fh.write(mblob)


FORMATS = ("canonical_csv", "canonical_bin")


def ingest_session(path, fmt: str | None = None) -> Session:
    """Load one session. The format is inferred from the extension when not
    given (.csv vs anything else)."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such session file: {path}")
    if fmt is None:
        fmt = "canonical_csv" if path.suffix.lower() == ".csv" else "canonical_bin"
    if fmt == "canonical_csv":
        return _ingest_csv(path)
    if fmt == "canonical_bin":
        return _ingest_bin(path)
    raise FormatError(f"unknown session format {fmt!r}; known: {', '.join(FORMATS)}")


def write_session(s: Session, path, fmt: str = "canonical_bin") -> None:
    path = Path(path)
    if fmt == "canonical_csv":
        _write_csv(s, path)
    elif fmt == "canonical_bin":
        _write_bin(s, path)
    else:
        raise FormatError(f"unknown session format {fmt!r}; known: {', '.join(FORMATS)}")


# ---------------------------------------------------------------------------
# raw-rate preprocessing


def preprocess_raw(raw: np.ndarray, raw_rate_hz: float) -> np.ndarray:
    """Anti-alias and decimate a raw multichannel recording to 100 Hz.

    A 2nd-order Butterworth lowpass at 45 Hz is applied zero-phase, then every
    q-th sample is kept where q = raw_rate / 100 (must be a whole number).
    """
    raw = np.atleast_2d(np.asarray(raw, dtype=np.float64))
    q = raw_rate_hz / CANONICAL_RATE_HZ
    if abs(q - round(q)) > 1e-9 or q < 1:
        raise UnsupportedRateError(
            f"cannot decimate {raw_rate_hz} Hz to {CANONICAL_RATE_HZ} Hz by an integer factor"
        )
    q = int(round(q))
    sos = dsp.design_butterworth(2, "lowpass", 45.0, raw_rate_hz)
    smoothed = dsp.filtfilt(sos, raw, axis=1)
    return smoothed[:, ::q]


# ---------------------------------------------------------------------------
# inclusion gate (speed interquartile range)


def session_iqr(speed: np.ndarray) -> float:
    """Interquartile range of the speed trace (linear-interpolated quartiles)."""
    speed = np.asarray(speed, dtype=np.float64)
    if speed.size < 4:
        raise ValueError(f"IQR needs at least 4 samples, got {speed.size}")
    q1, q3 = np.percentile(speed, [25.0, 75.0])
    return float(q3 - q1)


@dataclass(frozen=True)
class GateResult:
    included: tuple
    excluded: tuple
    threshold: float
    iqrs: dict


def apply_inclusion_gate(sessions, threshold: float | None = None) -> GateResult:
    """Drop low-movement sessions whose speed IQR is at or below a threshold.

    With no explicit threshold, the 10th percentile of the IQR distribution
    over the input collection is used.
    """
    sessions = list(sessions)
    if not sessions:
        raise ValueError("inclusion gate needs at least one session")
    iqrs = {s.id: session_iqr(s.speed) for s in sessions}
    if threshold is None:
        threshold = float(np.percentile(np.array(list(iqrs.values())), 10.0))
    included = tuple(s for s in sessions if iqrs[s.id] > threshold)
    excluded = tuple(s for s in sessions if iqrs[s.id] <= threshold)
    return GateResult(included, excluded, float(threshold), iqrs)


# ---------------------------------------------------------------------------
# sequential splits


def split_ranges(n_samples: int) -> tuple[range, range, range]:
    """Sequential 80/10/10 train/val/test index ranges. Boundaries are
    floor(frac * T) so the remainder lands in the test segment; any nonempty
    segment shorter than one window is an error."""
    b1 = math.floor(0.8 * n_samples)
    b2 = math.floor(0.9 * n_samples)
    segments = (range(0, b1), range(b1, b2), range(b2, n_samples))
    for name, seg in zip(("train", "val", "test"), segments):
        if 0 < len(seg) < WINDOW_LEN:
            raise SplitError(
                f"{name} segment has {len(seg)} samples, "
                f"shorter than one window ({WINDOW_LEN})"
            )
    return segments


# ---------------------------------------------------------------------------
# channel-wise normalization


@dataclass(frozen=True)
class Normalizer:
    mean: np.ndarray
    std: np.ndarray
    floored: tuple[int, ...]


def fit_normalizer(s: Session, fit_range: range) -> Normalizer:
    """Channel-wise mean and population standard deviation over a sample
    range (the training segment). Standard deviations below 1e-8 are floored
    to 1e-8 with a warning so flat channels stay finite."""
    if len(fit_range) < 2:
        raise ValueError(f"normalizer fit range has {len(fit_range)} samples, need at least 2")
    chunk = s.eeg[:, fit_range.start : fit_range.stop]
    mean = chunk.mean(axis=1)
    std = chunk.std(axis=1)  # population (ddof=0)
    floored = tuple(int(i) for i in np.flatnonzero(std < STD_FLOOR))
    if floored:
        names = ", ".join(channel_name(i, s.n_channels) for i in floored)
        warnings.warn(f"session {s.id}: std floored to {STD_FLOOR} on {names}", stacklevel=2)
        std = np.maximum(std, STD_FLOOR)
    return Normalizer(mean=mean, std=std, floored=floored)


def apply_normalizer(norm: Normalizer, eeg: np.ndarray) -> np.ndarray:
    return (eeg - norm.mean[:, None]) / norm.std[:, None]


def normalized_session(s: Session, norm: Normalizer) -> Session:
    if norm.mean.size != s.n_channels:
        raise ShapeError(
            f"session {s.id} has {s.n_channels} channels; the normalizer was fit on {norm.mean.size}"
        )
    return dataclasses.replace(s, eeg=apply_normalizer(norm, s.eeg))


# ---------------------------------------------------------------------------
# sliding windows


def offset_samples_for(offset_ms: float) -> int:
    """The number of samples in ``offset_ms``, which must be a whole number
    of :data:`STRIDE_MS` steps (:class:`OffsetError` otherwise)."""
    k = offset_ms / STRIDE_MS
    if abs(k - round(k)) > 1e-9:
        raise OffsetError(f"{offset_ms} ms is not a whole number of {STRIDE_MS:g} ms samples")
    return int(round(k))


def _window_stack(
    signal: np.ndarray, target: np.ndarray, index_range: range, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one windowing rule: every window of ``signal`` (C, T) whose
    samples lie inside ``index_range`` and whose target index, the window's
    final sample shifted by ``k`` samples, lies inside the trace. Returns
    (starts, X, y) with X of shape (n, WINDOW_LEN, C), time-major.

    X is a read-only strided view over one time-major copy (T, C) of the
    samples the windows cover, so each sample is stored once, not once per
    window. Each window ``X[i]`` is one contiguous (WINDOW_LEN, C) block and
    each step ``X[:, t, :]`` a row-major (n, C) matrix; ``np.array(X)``
    gives a writable copy."""
    starts = np.arange(index_range.start, index_range.stop - WINDOW_LEN + 1, dtype=np.int64)
    targets = starts + WINDOW_LEN - 1 + k
    keep = (targets >= 0) & (targets < target.size)
    starts, targets = starts[keep], targets[keep]
    if starts.size == 0:
        return starts, np.empty((0, WINDOW_LEN, signal.shape[0])), np.empty((0,))
    rows = np.ascontiguousarray(signal[:, starts[0] : starts[-1] + WINDOW_LEN].T)
    x = np.lib.stride_tricks.sliding_window_view(rows, WINDOW_LEN, axis=0).transpose(0, 2, 1)
    return starts, x, target[targets]


def window_arrays(
    s: Session, index_range: range, offset_ms: int = 0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Windows over the session's EEG with speed targets: (starts, X, y),
    X a read-only view of shape (n, WINDOW_LEN, C), time-major."""
    return _window_stack(s.eeg, s.speed, index_range, offset_samples_for(offset_ms))


def speed_window_arrays(
    speed: np.ndarray, index_range: range, offset_ms: int = 0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Windows over a bare speed trace (single input channel), by the same
    windowing and target rules. No unit calls it: the speed-history
    reference windows a one-channel session with :func:`window_arrays`."""
    speed = np.asarray(speed, dtype=np.float64)
    return _window_stack(speed[None, :], speed, index_range, offset_samples_for(offset_ms))
