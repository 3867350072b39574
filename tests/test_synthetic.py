"""Generator checks: determinism, encodings, and the constructed ground truth.

Most assertions here are structural (no training): channel/label layout,
seed reproducibility, and correlation patterns that must hold by
construction of each encoding. The one trained check is the noise-free
linear law, which a linear readout must solve near-perfectly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locodec import dsp
from locodec.decoders import DecoderSpec
from locodec.protocols import ExperimentPlan, run_single_session
from locodec.sessions import REGIONS, SIDES, apply_inclusion_gate
from locodec.synthetic import (
    AM_FLOOR,
    ENCODINGS,
    FleetSpec,
    generate_synthetic_fleet,
    region_layout,
)
from locodec.trainer import TrainConfig


def small_fleet(**kw) -> FleetSpec:
    base = dict(n_rats=1, sessions_per_rat=1, n_channels=8, duration_s=20.0, seed=0)
    base.update(kw)
    return FleetSpec(**base)


def test_same_seed_is_bitwise_identical():
    a = generate_synthetic_fleet(small_fleet(n_rats=2, sessions_per_rat=2, seed=5))
    b = generate_synthetic_fleet(small_fleet(n_rats=2, sessions_per_rat=2, seed=5))
    assert [s.id for s in a] == [s.id for s in b]
    for sa, sb in zip(a, b):
        np.testing.assert_array_equal(sa.eeg, sb.eeg)
        np.testing.assert_array_equal(sa.speed, sb.speed)


def test_growing_the_fleet_keeps_earlier_rats_identical():
    # Per-rat seed streams are spawned from the fleet seed, so adding a rat
    # must not disturb the sessions of the rats that were already there.
    small = generate_synthetic_fleet(small_fleet(n_rats=3, sessions_per_rat=2, seed=9))
    large = generate_synthetic_fleet(small_fleet(n_rats=4, sessions_per_rat=2, seed=9))
    assert [s.id for s in large[:6]] == [s.id for s in small]
    for sa, sb in zip(small, large[:6]):
        np.testing.assert_array_equal(sa.eeg, sb.eeg)
        np.testing.assert_array_equal(sa.speed, sb.speed)


def test_fleet_shape_ids_and_layout():
    sessions = generate_synthetic_fleet(small_fleet(n_rats=2, sessions_per_rat=3))
    assert len(sessions) == 6
    assert [s.id for s in sessions] == [
        "rat01_s01", "rat01_s02", "rat01_s03", "rat02_s01", "rat02_s02", "rat02_s03",
    ]
    for s in sessions:
        assert s.eeg.shape == (8, 2000)
        assert s.meta["origin"] == "synthetic"
        assert s.region_map == region_layout(8)[0]
        assert s.side_map == region_layout(8)[1]
        assert np.all(s.speed >= 0.0)


@given(n_channels=st.integers(min_value=1, max_value=64))
def test_region_layout_cycles_bilaterally(n_channels):
    regions, sides = region_layout(n_channels)
    assert len(regions) == len(sides) == n_channels
    assert set(regions) <= set(REGIONS)
    assert set(sides) <= set(SIDES)
    for c in range(n_channels):
        assert regions[c] == REGIONS[(c // 2) % 4]
        assert sides[c] == SIDES[c % 2]


def test_noise_free_linear_law_is_solved_by_linear_readout():
    fleet = generate_synthetic_fleet(
        small_fleet(n_channels=32, duration_s=40.0, encoding="linear", noise_scale=0.0)
    )
    plan = ExperimentPlan(
        decoder=DecoderSpec(family="linear", n_channels=32),
        train=TrainConfig(max_epochs=150, patience=25, learning_rate=3e-3),
    )
    out = run_single_session(fleet[0], plan)
    assert out.result.r >= 0.999


def test_gate_excludes_about_ten_percent_of_a_fleet():
    sessions = generate_synthetic_fleet(
        small_fleet(n_rats=5, sessions_per_rat=2, duration_s=30.0, seed=3)
    )
    iqrs = [np.percentile(s.speed, 75) - np.percentile(s.speed, 25) for s in sessions]
    assert len(set(np.round(iqrs, 12))) == 10  # distinct, so the gate is unambiguous
    gate = apply_inclusion_gate(sessions)
    assert len(gate.excluded) == 1
    assert len(gate.included) == 9


def _speed_corr_signs(session) -> np.ndarray:
    s = session.speed - session.speed.mean()
    out = []
    for c in range(session.n_channels):
        e = session.eeg[c] - session.eeg[c].mean()
        out.append(np.sign(float(np.dot(e, s))))
    return np.asarray(out)


def test_scramble_is_per_rat_not_per_session():
    spec = small_fleet(
        n_rats=2, sessions_per_rat=2, n_channels=16, duration_s=30.0,
        encoding="linear", noise_scale=0.1, scramble_channels=True, seed=12,
    )
    r1a, r1b, r2a, r2b = generate_synthetic_fleet(spec)
    # Sign of each channel's speed correlation reveals the rat's sign pattern.
    assert np.array_equal(_speed_corr_signs(r1a), _speed_corr_signs(r1b))
    assert np.array_equal(_speed_corr_signs(r2a), _speed_corr_signs(r2b))
    assert not np.array_equal(_speed_corr_signs(r1a), _speed_corr_signs(r2a))


def test_without_scramble_all_channels_encode_positively():
    spec = small_fleet(n_channels=16, duration_s=30.0, encoding="linear", noise_scale=0.1)
    (session,) = generate_synthetic_fleet(spec)
    assert np.all(_speed_corr_signs(session) == 1.0)


def test_lead_encoding_shifts_the_informative_lag():
    lead_ms = 500.0
    spec = small_fleet(
        n_channels=4, duration_s=40.0, encoding="lead", lead_ms=lead_ms,
        noise_scale=0.1, seed=7,
    )
    (session,) = generate_synthetic_fleet(spec)
    lag = int(lead_ms / 1000.0 * session.sample_rate_hz)
    ch = session.eeg[0]
    aligned = np.corrcoef(ch[:-lag], session.speed[lag:])[0, 1]
    unshifted = np.corrcoef(ch, session.speed)[0, 1]
    assert aligned > unshifted + 0.05
    assert aligned > 0.8


def test_am_carrier_energy_sits_in_its_band():
    spec = small_fleet(
        n_channels=8, duration_s=30.0, encoding="am",
        carrier_band=(5.0, 7.0), noise_scale=0.0,
    )
    (session,) = generate_synthetic_fleet(spec)
    theta = dsp.band_isolate(session, dsp.band("theta"))
    beta = dsp.band_isolate(session, dsp.band("beta"))
    theta_var = np.var(theta.eeg, axis=1)
    beta_var = np.var(beta.eeg, axis=1)
    assert np.all(theta_var > 5.0 * beta_var)


def test_am_encoding_has_uninformative_channel_mean():
    # The latent enters only through the carrier envelope, so raw samples
    # barely correlate with speed even though they fully determine it.
    spec = small_fleet(n_channels=8, duration_s=40.0, encoding="am", noise_scale=0.2)
    (session,) = generate_synthetic_fleet(spec)
    for c in range(session.n_channels):
        r = np.corrcoef(session.eeg[c], session.speed)[0, 1]
        assert abs(r) < 0.2


def test_signal_regions_restrict_the_informative_channels():
    spec = small_fleet(
        n_channels=32, duration_s=30.0, encoding="linear",
        signal_regions=("visual",), noise_scale=0.3,
    )
    (session,) = generate_synthetic_fleet(spec)
    for c in range(session.n_channels):
        r = abs(np.corrcoef(session.eeg[c], session.speed)[0, 1])
        if session.region_map[c] == "visual":
            assert r > 0.6
        else:
            assert r < 0.2


def test_eight_hz_carrier_ramps_with_speed():
    spec = small_fleet(
        n_channels=4, duration_s=180.0, encoding="linear",
        eight_hz_gain=1.5, noise_scale=0.2, seed=4,
    )
    (session,) = generate_synthetic_fleet(spec)
    spectra = dsp.speed_decile_spectra(session)
    present = [d for d in range(10) if spectra.f_psd[d] is not None]
    assert len(present) >= 2
    lo, hi = present[0], present[-1]
    band8 = (spectra.frequencies >= 7.0) & (spectra.frequencies <= 9.0)
    assert np.mean(spectra.f_psd[hi][band8]) > 2.0 * np.mean(spectra.f_psd[lo][band8])


def test_n_samples_rounds_from_duration():
    assert small_fleet(duration_s=0.2).n_samples == 20
    assert small_fleet(duration_s=1.999).n_samples == 200


@pytest.mark.parametrize(
    "kw",
    [
        dict(n_rats=0),
        dict(sessions_per_rat=0),
        dict(n_channels=0),
        dict(encoding="fm"),
        dict(signal_regions=("cerebellum",)),
        dict(signal_regions=()),
        dict(duration_s=0.1),
        dict(lead_ms=100.0),  # lead_ms without encoding="lead"
        dict(encoding="lead", lead_ms=3.3),  # not a whole number of samples
        dict(speed_tau_s=0.0),
        dict(noise_scale=-0.1),
    ],
)
def test_spec_validation_rejects(kw):
    with pytest.raises(ValueError):
        spec = small_fleet(**kw)
        spec.lead_samples  # lead rounding only checked on use


def test_encodings_registry():
    assert ENCODINGS == ("linear", "am", "lead")
    assert 0.0 < AM_FLOOR < 1.0
