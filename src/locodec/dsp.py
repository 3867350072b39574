"""Signal-processing substrate: Butterworth filtering, Welch spectra,
speed-decile spectral profiles, and autocorrelation.

Filter design and zero-phase filtering wrap scipy.signal (second-order
sections, odd reflection padding of three times the filter order). Spectral
estimation keeps segment-level control so non-contiguous sample runs can be
pooled without concatenating across gaps.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np
from scipy import signal as sps

from .errors import DegenerateDataError, FilterDesignError
from .stats import pearson_r

DEFAULT_NFFT = 128
SPECTRA_FMAX_HZ = 45.0


@dataclass(frozen=True)
class BandSpec:
    """A named frequency band. A ``high_hz`` of None marks an open upper edge
    (a highpass); both None is the identity (no filtering)."""

    name: str
    low_hz: float | None
    high_hz: float | None

    def __post_init__(self):
        if self.low_hz is None and self.high_hz is not None:
            raise FilterDesignError(f"band {self.name}: an upper edge needs a lower edge")
        if self.low_hz is not None and self.high_hz is not None:
            if not (0.0 < self.low_hz < self.high_hz):
                raise FilterDesignError(
                    f"band {self.name}: need 0 < low < high, got ({self.low_hz}, {self.high_hz})"
                )


CANONICAL_BANDS: tuple[BandSpec, ...] = (
    BandSpec("delta", 1.0, 4.0),
    BandSpec("theta", 4.0, 8.0),
    BandSpec("alpha", 8.0, 12.0),
    BandSpec("beta", 12.0, 30.0),
    BandSpec("gamma", 30.0, None),
    BandSpec("fullband", None, None),
)

BAND_NAMES = tuple(b.name for b in CANONICAL_BANDS)


def band(name: str) -> BandSpec:
    for b in CANONICAL_BANDS:
        if b.name == name:
            return b
    raise FilterDesignError(f"unknown band {name!r}; known: {', '.join(BAND_NAMES)}")


def design_butterworth(order: int, kind: str, edges_hz, fs_hz: float) -> np.ndarray:
    """Digital Butterworth filter as second-order sections.

    ``order`` counts poles per edge, matching the usual butter(N, ...)
    convention: a bandpass of order 4 has 8 poles overall.
    """
    if order not in (2, 4):
        raise FilterDesignError(f"unsupported filter order {order}; expected 2 or 4")
    if kind not in ("lowpass", "highpass", "bandpass"):
        raise FilterDesignError(f"unsupported filter kind {kind!r}")
    edges = np.atleast_1d(np.asarray(edges_hz, dtype=float))
    nyq = fs_hz / 2.0
    if np.any(edges <= 0.0) or np.any(edges >= nyq):
        raise FilterDesignError(
            f"edges {edges.tolist()} must lie strictly inside (0, {nyq}) Hz at fs={fs_hz}"
        )
    if kind == "bandpass":
        if edges.size != 2 or edges[0] >= edges[1]:
            raise FilterDesignError(f"bandpass needs ascending (low, high), got {edges.tolist()}")
        wn = edges
    else:
        if edges.size != 1:
            raise FilterDesignError(f"{kind} takes a single edge, got {edges.tolist()}")
        wn = edges[0]
    sos = sps.butter(order, wn, btype=kind, fs=fs_hz, output="sos")
    return np.asarray(sos, dtype=np.float64)


def band_sos(bspec: BandSpec, fs_hz: float) -> np.ndarray | None:
    """Sections for a canonical band; None for the identity band."""
    if bspec.low_hz is None:
        return None
    if bspec.high_hz is None:
        return design_butterworth(4, "highpass", bspec.low_hz, fs_hz)
    return design_butterworth(4, "bandpass", (bspec.low_hz, bspec.high_hz), fs_hz)


def filter_order(sos: np.ndarray) -> int:
    return 2 * int(np.asarray(sos).shape[0])


def filtfilt(sos: np.ndarray, x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Zero-phase forward-backward filtering with odd reflection padding of
    three times the filter order."""
    x = np.asarray(x, dtype=np.float64)
    padlen = 3 * filter_order(sos)
    if x.shape[axis] <= padlen:
        raise ValueError(
            f"filtfilt needs more than {padlen} samples along axis {axis}, got {x.shape[axis]}"
        )
    return sps.sosfiltfilt(sos, x, axis=axis, padtype="odd", padlen=padlen)


def band_isolate(session, bspec: BandSpec):
    """Restrict a session's EEG to one band, zero-phase. The identity band
    returns the session object unchanged."""
    sos = band_sos(bspec, session.sample_rate_hz)
    if sos is None:
        return session
    filtered = filtfilt(sos, session.eeg, axis=1)
    return dataclasses.replace(session, eeg=filtered)


@dataclass(frozen=True)
class PsdEstimate:
    frequencies: np.ndarray
    power: np.ndarray
    nfft: int
    fs_hz: float
    n_segments: int


def _hann(nfft: int) -> np.ndarray:
    return sps.get_window("hann", nfft, fftbins=True)


def _segment_psds(segments: np.ndarray, fs_hz: float, nfft: int) -> np.ndarray:
    """One-sided density periodograms for pre-cut Hann-windowed segments.

    segments: (..., n_segments, nfft). Matches a Welch estimate with no
    detrending once averaged over the segment axis.
    """
    win = _hann(nfft)
    spec = np.fft.rfft(segments * win, n=nfft, axis=-1)
    psd = (spec.real**2 + spec.imag**2) / (fs_hz * (win * win).sum())
    psd[..., 1:-1] *= 2.0  # fold negative frequencies; DC and Nyquist stay single
    return psd


def welch_psd(x: np.ndarray, fs_hz: float = 100.0, nfft: int = DEFAULT_NFFT) -> PsdEstimate:
    """Welch power spectral density: Hann window, 50% overlap, one-sided,
    density scaling (sum(power) * df recovers the variance of a zero-mean
    stationary input)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"welch_psd expects a 1-d array, got shape {x.shape}")
    if x.size < nfft:
        raise ValueError(f"welch_psd needs at least nfft={nfft} samples, got {x.size}")
    hop = nfft // 2
    starts = np.arange(0, x.size - nfft + 1, hop)
    segments = np.stack([x[s : s + nfft] for s in starts])
    psd = _segment_psds(segments, fs_hz, nfft).mean(axis=0)
    freqs = np.fft.rfftfreq(nfft, d=1.0 / fs_hz)
    return PsdEstimate(freqs, psd, nfft, fs_hz, len(starts))


def _contiguous_runs(indices: np.ndarray) -> list[tuple[int, int]]:
    """[start, stop) spans of maximal consecutive stretches in a sorted index set."""
    if indices.size == 0:
        return []
    breaks = np.flatnonzero(np.diff(indices) > 1)
    starts = np.concatenate([[0], breaks + 1])
    stops = np.concatenate([breaks, [indices.size - 1]])
    return [(int(indices[a]), int(indices[b]) + 1) for a, b in zip(starts, stops)]


def decile_bounds(speed: np.ndarray) -> np.ndarray:
    """Upper decile bounds (10th..100th percentile, linear interpolation)."""
    return np.percentile(np.asarray(speed, dtype=np.float64), np.arange(10, 101, 10))


def assign_deciles(speed: np.ndarray) -> np.ndarray:
    """Each sample goes to the lowest decile whose upper bound covers it;
    a degenerate (constant) trace collapses into decile 0."""
    bounds = decile_bounds(speed)
    return np.minimum(np.searchsorted(bounds, np.asarray(speed, dtype=np.float64), side="left"), 9)


@dataclass(frozen=True)
class DecileSpectra:
    """Per-decile channel-averaged f*P(f) profiles for one session."""

    session_id: str
    frequencies: np.ndarray
    f_psd: tuple  # length 10; (M,) arrays, or None where the decile had no usable run
    n_segments: tuple


def speed_decile_spectra(
    session, nfft: int = DEFAULT_NFFT, fmax_hz: float = SPECTRA_FMAX_HZ
) -> DecileSpectra:
    """Spectral profile of EEG grouped by within-session speed decile.

    Samples in one decile rarely sit side by side, so they are grouped into
    maximal contiguous runs; runs shorter than nfft are dropped rather than
    concatenated across gaps. Welch segments (Hann, 50% overlap) from all
    surviving runs are pooled, averaged, averaged again across channels, and
    reported as f*P(f) up to ``fmax_hz``.

    A decile with no run of at least ``nfft`` samples gets no curve (None)
    and a segment count of 0. On short sessions, or ones whose speed changes
    quickly, this can leave several deciles empty (often deciles 2-8 of a
    short synthetic session); the aggregate then counts fewer sessions for
    them, and ``spectra.csv`` has no row for a decile no session filled.
    """
    fs = session.sample_rate_hz
    deciles = assign_deciles(session.speed)
    freqs = np.fft.rfftfreq(nfft, d=1.0 / fs)
    keep = freqs <= fmax_hz + 1e-12
    hop = nfft // 2

    curves: list[np.ndarray | None] = []
    seg_counts: list[int] = []
    for d in range(10):
        starts: list[int] = []
        for lo, hi in _contiguous_runs(np.flatnonzero(deciles == d)):
            if hi - lo >= nfft:
                starts.extend(range(lo, hi - nfft + 1, hop))
        if not starts:
            curves.append(None)
            seg_counts.append(0)
            continue
        idx = np.asarray(starts)[:, None] + np.arange(nfft)[None, :]
        segments = session.eeg[:, idx]  # (C, n_segments, nfft)
        psd = _segment_psds(segments, fs, nfft).mean(axis=(0, 1))
        curves.append((freqs * psd)[keep])
        seg_counts.append(len(starts))
    return DecileSpectra(session.id, freqs[keep], tuple(curves), tuple(seg_counts))


@dataclass(frozen=True)
class DecileSpectraAggregate:
    frequencies: np.ndarray
    mean: np.ndarray  # (10, M); nan rows where no session contributed
    sem: np.ndarray
    n_sessions: np.ndarray  # (10,)


def aggregate_decile_spectra(spectra: list[DecileSpectra]) -> DecileSpectraAggregate:
    """Across-session mean and standard error of the decile profiles."""
    if not spectra:
        raise ValueError("no spectra to aggregate")
    freqs = spectra[0].frequencies
    m = freqs.size
    mean = np.full((10, m), np.nan)
    sem = np.full((10, m), np.nan)
    counts = np.zeros(10, dtype=np.int64)
    for d in range(10):
        rows = [sp.f_psd[d] for sp in spectra if sp.f_psd[d] is not None]
        counts[d] = len(rows)
        if not rows:
            continue
        stack = np.stack(rows)
        mean[d] = stack.mean(axis=0)
        if len(rows) > 1:
            sem[d] = stack.std(axis=0, ddof=1) / np.sqrt(len(rows))
        else:
            sem[d] = 0.0
    return DecileSpectraAggregate(freqs, mean, sem, counts)


def autocorrelation(x: np.ndarray, max_lag: int) -> np.ndarray:
    """Pearson correlation of a series with itself at lags 0..max_lag.

    Lag k correlates x[0:n-k] against x[k:n]; lag 0 is exactly 1.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"autocorrelation expects a 1-d array, got shape {x.shape}")
    if max_lag < 0 or x.size - max_lag < 2:
        raise ValueError(f"max_lag {max_lag} too large for series of length {x.size}")
    if np.ptp(x) == 0.0:
        raise DegenerateDataError("autocorrelation undefined for a constant series")
    return np.array([1.0] + [pearson_r(x[: x.size - k], x[k:]) for k in range(1, max_lag + 1)])
