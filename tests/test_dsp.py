"""Filtering, spectra, and autocorrelation against analytic oracles.

Filter design delegates to scipy; the checks here evaluate the produced
coefficients through an independent route (direct transfer-function
evaluation, Parseval sums, AR(1) theory) so a wrong wrapper cannot hide.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locodec import dsp
from locodec.errors import DegenerateDataError, FilterDesignError
from locodec.reporting import spectra_csv_text

from conftest import make_session


def sos_response(sos: np.ndarray, f_hz: float, fs_hz: float) -> complex:
    """Evaluate H(e^{j 2 pi f / fs}) directly from the section polynomials."""
    z = np.exp(-2j * np.pi * f_hz / fs_hz)
    h = 1.0 + 0.0j
    for b0, b1, b2, a0, a1, a2 in np.asarray(sos):
        h *= (b0 + b1 * z + b2 * z * z) / (a0 + a1 * z + a2 * z * z)
    return h


# ---------------------------------------------------------------------------
# filter design
# ---------------------------------------------------------------------------


def test_theta_bandpass_passband_and_stopband():
    sos = dsp.design_butterworth(4, "bandpass", (4.0, 8.0), 100.0)
    assert abs(sos_response(sos, 6.0, 100.0)) >= 0.99
    assert abs(sos_response(sos, 20.0, 100.0)) <= 0.01


def test_lowpass_corner_gain_is_half_power():
    sos = dsp.design_butterworth(2, "lowpass", 45.0, 100.0)
    assert abs(sos_response(sos, 45.0, 100.0)) == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-6)


def test_edge_beyond_nyquist_rejected():
    with pytest.raises(FilterDesignError):
        dsp.design_butterworth(2, "lowpass", 60.0, 100.0)


def test_band_with_only_an_upper_edge_is_rejected():
    with pytest.raises(FilterDesignError, match="lower edge"):
        dsp.BandSpec("low", None, 4.0)


def test_filters_are_stable():
    for bspec in dsp.CANONICAL_BANDS:
        sos = dsp.band_sos(bspec, 100.0)
        if sos is None:
            continue
        for sec in sos:
            poles = np.roots(sec[3:])
            assert np.all(np.abs(poles) < 1.0), bspec.name


def test_lowpass_monotone_beyond_passband():
    sos = dsp.design_butterworth(2, "lowpass", 45.0, 100.0)
    grid = np.linspace(0.0, 49.99, 1000)
    mags = np.array([abs(sos_response(sos, f, 100.0)) for f in grid])
    assert np.all(np.diff(mags) <= 1e-12)


# ---------------------------------------------------------------------------
# zero-phase filtering
# ---------------------------------------------------------------------------


def _xcorr_peak_lag(a: np.ndarray, b: np.ndarray) -> int:
    a = a - a.mean()
    b = b - b.mean()
    corr = np.correlate(a, b, mode="full")
    return int(np.argmax(corr)) - (len(b) - 1)


def _quadrature_amplitude(x: np.ndarray, f_hz: float, fs_hz: float) -> float:
    t = np.arange(x.size) / fs_hz
    return 2.0 * abs(np.mean(x * np.exp(-2j * np.pi * f_hz * t)))


def test_filtfilt_zero_phase_and_unit_gain_in_band():
    t = np.arange(1000) / 100.0
    x = np.sin(2 * np.pi * 6.0 * t)
    sos = dsp.band_sos(dsp.band("theta"), 100.0)
    y = dsp.filtfilt(sos, x)
    assert _xcorr_peak_lag(y, x) == 0
    core = slice(100, 900)
    ratio = _quadrature_amplitude(y[core], 6.0, 100.0) / _quadrature_amplitude(x[core], 6.0, 100.0)
    assert 0.97 <= ratio <= 1.0 + 1e-9


def test_filtfilt_zero_phase_all_bands():
    probe_hz = {"delta": 2.0, "theta": 6.0, "alpha": 10.0, "beta": 20.0, "gamma": 35.0}
    t = np.arange(2000) / 100.0
    for name, f in probe_hz.items():
        x = np.sin(2 * np.pi * f * t)
        y = dsp.filtfilt(dsp.band_sos(dsp.band(name), 100.0), x)
        assert _xcorr_peak_lag(y, x) == 0, name


def test_filtfilt_constant_through_lowpass():
    sos = dsp.design_butterworth(2, "lowpass", 45.0, 100.0)
    y = dsp.filtfilt(sos, np.full(500, 3.7))
    np.testing.assert_allclose(y[50:-50], 3.7, atol=1e-6)


def test_filtfilt_time_reversal_symmetry_on_impulse():
    """A centered impulse keeps the edge transients negligible, so forward
    and reversed application must agree to 1e-9."""
    x = np.zeros(4001)
    x[2000] = 1.0
    for name in ("delta", "theta", "beta"):
        sos = dsp.band_sos(dsp.band(name), 100.0)
        fwd = dsp.filtfilt(sos, x)
        rev = dsp.filtfilt(sos, x[::-1])[::-1]
        np.testing.assert_allclose(fwd, rev, rtol=0, atol=1e-9)


def test_filtfilt_too_short_input():
    sos = dsp.band_sos(dsp.band("theta"), 100.0)  # order 8 -> padlen 24
    with pytest.raises(ValueError):
        dsp.filtfilt(sos, np.zeros(24))


# ---------------------------------------------------------------------------
# band isolation
# ---------------------------------------------------------------------------


def test_fullband_is_identity(session):
    out = dsp.band_isolate(session, dsp.band("fullband"))
    assert out is session


def test_delta_isolation_concentrates_low_frequency_mass():
    s = make_session(n_channels=1, n_samples=20_000, seed=2)
    out = dsp.band_isolate(s, dsp.band("delta"))
    est = dsp.welch_psd(out.eeg[0], 100.0, nfft=512)
    df = est.frequencies[1] - est.frequencies[0]
    total = est.power.sum() * df
    low = est.power[est.frequencies < 5.0].sum() * df
    assert low / total >= 0.95


def test_band_sum_reconstructs_energy_approximately():
    s = make_session(n_channels=1, n_samples=8_000, seed=3)
    parts = [
        dsp.band_isolate(s, dsp.band(n)).eeg[0]
        for n in ("delta", "theta", "alpha", "beta", "gamma")
    ]
    recon = np.sum(parts, axis=0)
    # edges overlap, so expect approximate energy accounting only
    core = slice(200, -200)
    e_orig = float((s.eeg[0][core] ** 2).sum())
    e_rec = float((recon[core] ** 2).sum())
    assert abs(e_rec - e_orig) / e_orig <= 0.15


def test_band_isolate_preserves_speed(session):
    out = dsp.band_isolate(session, dsp.band("theta"))
    assert out.speed is session.speed


# ---------------------------------------------------------------------------
# Welch PSD
# ---------------------------------------------------------------------------


def test_parseval_on_bin_centered_sinusoid():
    # 25 Hz is exactly bin 32 for nfft=128 at fs=100; mean power of sin is 1/2
    t = np.arange(12_800) / 100.0
    est = dsp.welch_psd(np.sin(2 * np.pi * 25.0 * t), 100.0, nfft=128)
    df = est.frequencies[1] - est.frequencies[0]
    mass = est.power.sum() * df
    assert mass == pytest.approx(0.5, rel=0.03)


def test_zero_signal_zero_power():
    est = dsp.welch_psd(np.zeros(1000), 100.0)
    np.testing.assert_array_equal(est.power, np.zeros_like(est.power))


def test_white_noise_density_flat():
    x = np.random.default_rng(7).normal(size=100_000)
    est = dsp.welch_psd(x, 100.0, nfft=128)
    # unit variance spread over [0, 50] Hz -> density 1/50 per Hz; the DC and
    # Nyquist bins carry half that in the one-sided convention
    np.testing.assert_allclose(est.power[1:-1], 1.0 / 50.0, rtol=0.10)
    np.testing.assert_allclose(est.power[[0, -1]], 1.0 / 100.0, rtol=0.10)


def test_welch_needs_one_full_segment():
    with pytest.raises(ValueError):
        dsp.welch_psd(np.zeros(100), 100.0, nfft=128)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_welch_power_nonnegative(seed):
    x = np.random.default_rng(seed).normal(size=600)
    est = dsp.welch_psd(x, 100.0)
    assert np.all(est.power >= 0.0)
    np.testing.assert_allclose(
        est.frequencies, np.arange(est.nfft // 2 + 1) * 100.0 / est.nfft, atol=0
    )


def test_welch_parseval_random_stationary():
    x = np.random.default_rng(11).normal(size=12_800) * 2.5
    est = dsp.welch_psd(x, 100.0, nfft=128)
    df = est.frequencies[1] - est.frequencies[0]
    assert est.power.sum() * df == pytest.approx(np.var(x), rel=0.03)


# ---------------------------------------------------------------------------
# decile spectra
# ---------------------------------------------------------------------------


def test_decile_spectra_recover_carriers_by_speed():
    """Low-speed half carries 3 Hz, high-speed half 8 Hz; the spectra for the
    bottom and top deciles must peak accordingly."""
    fs, n_half = 100.0, 6000
    t = np.arange(n_half) / fs
    eeg = np.concatenate([np.sin(2 * np.pi * 3.0 * t), np.sin(2 * np.pi * 8.0 * t)])[None, :]
    speed = np.concatenate([np.full(n_half, 1.0), np.full(n_half, 5.0)])
    speed = speed + np.linspace(0, 0.1, speed.size)  # break ties inside each half
    s = make_session(eeg=eeg, speed=speed)
    spec = dsp.speed_decile_spectra(s)
    lo, hi = spec.f_psd[0], spec.f_psd[9]
    assert lo is not None and hi is not None
    assert spec.frequencies[np.argmax(lo)] == pytest.approx(3.0, abs=1.0)
    assert spec.frequencies[np.argmax(hi)] == pytest.approx(8.0, abs=1.0)


def test_decile_spectra_constant_speed_collapses_to_decile_zero():
    s = make_session(n_channels=2, n_samples=2000, seed=5, speed=np.full(2000, 2.0))
    spec = dsp.speed_decile_spectra(s)
    assert spec.f_psd[0] is not None
    assert all(c is None for c in spec.f_psd[1:])


def _ramp_speed_session(n_samples, seed, session_id="ramp"):
    # slow monotone ramp: each decile is one contiguous run of n/10 samples
    speed = np.linspace(0.0, 5.0, n_samples)
    return make_session(n_samples=n_samples, seed=seed, speed=speed, session_id=session_id)


def test_f_times_psd_is_zero_at_dc():
    spec = dsp.speed_decile_spectra(_ramp_speed_session(4000, seed=6))
    populated = [c for c in spec.f_psd if c is not None]
    assert populated
    for curve in populated:
        assert curve[0] == 0.0
    assert spec.frequencies[0] == 0.0
    assert spec.frequencies[-1] <= dsp.SPECTRA_FMAX_HZ + 1e-12


def test_short_decile_runs_are_dropped_not_concatenated():
    # alternate speeds every 64 samples: every run is shorter than nfft=128
    n = 4096
    speed = np.where((np.arange(n) // 64) % 2 == 0, 1.0, 5.0).astype(float)
    s = make_session(n_channels=1, n_samples=n, seed=8, speed=speed)
    spec = dsp.speed_decile_spectra(s)
    assert all(c is None for c in spec.f_psd)


def test_aggregate_mean_and_sem():
    sessions = [_ramp_speed_session(3000, seed=i, session_id=f"s{i}") for i in range(3)]
    spectra = [dsp.speed_decile_spectra(s) for s in sessions]
    agg = dsp.aggregate_decile_spectra(spectra)
    contributing = [i for i in range(10) if agg.n_sessions[i] > 0]
    assert contributing, "expected at least one populated decile"
    d = contributing[0]
    rows = np.stack([sp.f_psd[d] for sp in spectra if sp.f_psd[d] is not None])
    np.testing.assert_allclose(agg.mean[d], rows.mean(axis=0), atol=1e-15)
    if len(rows) > 1:
        np.testing.assert_allclose(
            agg.sem[d], rows.std(axis=0, ddof=1) / np.sqrt(len(rows)), atol=1e-15
        )


def test_spectra_csv_gives_each_decile_its_own_session_count():
    # a constant-speed session adds to decile 1 only, so the counts differ
    sessions = [_ramp_speed_session(3000, seed=i, session_id=f"s{i}") for i in range(3)]
    sessions.append(make_session(n_samples=3000, seed=9, speed=np.full(3000, 2.0), session_id="flat"))
    agg = dsp.aggregate_decile_spectra([dsp.speed_decile_spectra(s) for s in sessions])
    rows = [ln.split(",") for ln in spectra_csv_text(sessions).splitlines()[2:]]
    counts = {}
    for row in rows:
        counts.setdefault(int(row[0]), set()).add(row[4])
    assert counts == {d + 1: {str(n)} for d, n in enumerate(agg.n_sessions) if n > 0}
    assert len({n for (n,) in counts.values()}) > 1


# ---------------------------------------------------------------------------
# autocorrelation
# ---------------------------------------------------------------------------


def test_autocorr_lag_zero_is_one():
    x = np.random.default_rng(9).normal(size=500)
    assert dsp.autocorrelation(x, 10)[0] == 1.0


def test_autocorr_ar1_matches_theory():
    rng = np.random.default_rng(10)
    phi, n = 0.95, 100_000
    eps = rng.normal(size=n)
    x = np.empty(n)
    x[0] = eps[0] / np.sqrt(1 - phi * phi)
    for i in range(1, n):
        x[i] = phi * x[i - 1] + eps[i]
    ac = dsp.autocorrelation(x, 100)
    np.testing.assert_allclose(ac, phi ** np.arange(101), atol=0.05)


def test_autocorr_periodic_signal():
    x = np.tile(np.sin(2 * np.pi * np.arange(50) / 50.0), 40)
    assert dsp.autocorrelation(x, 50)[50] >= 0.99


def test_autocorr_constant_rejected():
    with pytest.raises(DegenerateDataError):
        dsp.autocorrelation(np.full(100, 1.0), 5)


def test_autocorr_reversal_symmetry():
    x = np.random.default_rng(12).normal(size=2000).cumsum()
    fwd = dsp.autocorrelation(x, 40)
    bwd = dsp.autocorrelation(x[::-1], 40)
    np.testing.assert_allclose(fwd, bwd, atol=1e-12)
