"""Session model, file formats, gate, splits, normalization, windowing."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locodec import sessions as ss
from locodec.errors import FormatError, IntegrityError, SplitError, UnsupportedRateError

from conftest import declare_200_hz, make_session


# ---------------------------------------------------------------------------
# session invariants
# ---------------------------------------------------------------------------


def test_length_mismatch_rejected():
    with pytest.raises(IntegrityError):
        make_session(eeg=np.zeros((3, 100)), speed=np.zeros(99))


def test_too_short_session_rejected():
    with pytest.raises(IntegrityError):
        make_session(n_channels=2, n_samples=19)


def test_nonfinite_eeg_names_channel_and_index():
    eeg = np.zeros((3, 50))
    eeg[1, 7] = np.nan
    with pytest.raises(IntegrityError) as exc:
        make_session(eeg=eeg, speed=np.zeros(50))
    assert "ch02" in str(exc.value) and "7" in str(exc.value)


def test_session_arrays_are_read_only(session):
    with pytest.raises(ValueError):
        session.eeg[0, 0] = 1.0


def test_select_channels_keeps_labels(session):
    sub = session.select_channels([2, 0])
    assert sub.n_channels == 2
    assert sub.region_map == (session.region_map[2], session.region_map[0])
    np.testing.assert_array_equal(sub.eeg[1], session.eeg[0])


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------


def test_csv_readback_shape(tmp_path):
    s = make_session(n_channels=3, n_samples=100, seed=5)
    path = tmp_path / "a.csv"
    ss.write_session(s, path, fmt="canonical_csv")
    back = ss.ingest_session(path)
    assert back.n_channels == 3 and back.n_samples == 100
    assert back.id == s.id and back.rat_id == s.rat_id
    np.testing.assert_allclose(back.speed, s.speed, rtol=1e-15)


def test_csv_ragged_row_is_integrity_error(tmp_path):
    s = make_session(n_channels=2, n_samples=30, seed=6)
    path = tmp_path / "b.csv"
    ss.write_session(s, path, fmt="canonical_csv")
    lines = path.read_text().splitlines()
    lines[5] = ",".join(lines[5].split(",")[:-1])  # drop one eeg field
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(IntegrityError):
        ss.ingest_session(path)


def test_csv_missing_manifest_is_format_error(tmp_path):
    s = make_session(n_channels=2, n_samples=30)
    path = tmp_path / "c.csv"
    ss.write_session(s, path, fmt="canonical_csv")
    ss.manifest_path_for(path).unlink()
    with pytest.raises(FormatError):
        ss.ingest_session(path)


def test_csv_bad_header_is_format_error(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("speed,time_s,ch01\n0.0,0.0,0.0\n")
    with pytest.raises(FormatError):
        ss.ingest_session(path)


def _rewrite_csv_times(path, time_of):
    lines = path.read_text().splitlines()
    for i in range(1, len(lines)):
        fields = lines[i].split(",")
        fields[0] = time_of(i - 1)
        lines[i] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "time_of, rate",
    [
        (lambda i: repr(i / 200), "200.0"),  # every step 5 ms
        (lambda i: repr((i + (i >= 50)) / 100), "50.0"),  # one 20 ms gap
    ],
    ids=["200_hz", "one_gap"],
)
def test_csv_times_off_the_100_hz_step_are_rejected(tmp_path, time_of, rate):
    # the manifest still says 100 Hz; the time_s column must agree
    path = tmp_path / "fast.csv"
    ss.write_session(make_session(n_channels=3, n_samples=300, seed=9), path, fmt="canonical_csv")
    _rewrite_csv_times(path, time_of)
    with pytest.raises(UnsupportedRateError, match=rf"sampled at {rate} Hz.*preprocess_raw"):
        ss.ingest_session(path)


@pytest.mark.parametrize("bad", ["soon", "nan"])
def test_csv_nonnumeric_time_is_format_error(tmp_path, bad):
    path = tmp_path / "t.csv"
    ss.write_session(make_session(n_channels=2, n_samples=30), path, fmt="canonical_csv")
    _rewrite_csv_times(path, lambda i: bad if i == 7 else repr(i / 100))
    with pytest.raises(FormatError):
        ss.ingest_session(path)


def test_csv_times_need_not_start_at_zero(tmp_path):
    s = make_session(n_channels=2, n_samples=100, seed=4)
    path = tmp_path / "late.csv"
    ss.write_session(s, path, fmt="canonical_csv")
    _rewrite_csv_times(path, lambda i: repr((i + 6000) / 100))
    back = ss.ingest_session(path)
    assert back.eeg.tobytes() == s.eeg.tobytes()
    assert back.speed.tobytes() == s.speed.tobytes()


def test_bin_roundtrip_bitwise(tmp_path):
    s = make_session(n_channels=5, n_samples=137, seed=7)
    path = tmp_path / "e.bin"
    ss.write_session(s, path, fmt="canonical_bin")
    back = ss.ingest_session(path)
    # storage is f32, so compare against the f32 projection of the source
    np.testing.assert_array_equal(back.eeg, s.eeg.astype(np.float32).astype(np.float64))
    np.testing.assert_array_equal(back.speed, s.speed.astype(np.float32).astype(np.float64))
    # a second trip is the true identity
    path2 = tmp_path / "f.bin"
    ss.write_session(back, path2, fmt="canonical_bin")
    again = ss.ingest_session(path2)
    assert again.eeg.tobytes() == back.eeg.tobytes()
    assert again.speed.tobytes() == back.speed.tobytes()
    assert again.region_map == back.region_map and again.side_map == back.side_map


def test_bin_bad_magic_is_format_error(tmp_path):
    path = tmp_path / "g.bin"
    path.write_bytes(b"NOTME" + b"\x00" * 40)
    with pytest.raises(FormatError):
        ss.ingest_session(path, fmt="canonical_bin")


@pytest.mark.parametrize("rate", [200.0, 0.0])
def test_a_session_at_another_rate_is_rejected(rate):
    # a window of WINDOW_LEN samples is 200 ms only at the canonical rate
    with pytest.raises(UnsupportedRateError, match="preprocess_raw"):
        dataclasses.replace(make_session(n_channels=4, n_samples=300, seed=8), sample_rate_hz=rate)


@pytest.mark.parametrize("fmt, ext", [("canonical_bin", ".bin"), ("canonical_csv", ".csv")])
def test_ingest_rejects_a_noncanonical_rate(tmp_path, fmt, ext):
    path = tmp_path / f"fast{ext}"
    ss.write_session(make_session(n_channels=4, n_samples=300, seed=8), path, fmt=fmt)
    declare_200_hz(path, header=fmt == "canonical_bin")
    with pytest.raises(UnsupportedRateError, match="preprocess_raw"):
        ss.ingest_session(path)


def test_ingest_rejects_a_bin_header_at_another_rate(tmp_path):
    # the embedded manifest still says 100 Hz; the header's rate must agree
    path = tmp_path / "fast.bin"
    ss.write_session(make_session(n_channels=4, n_samples=300, seed=8), path)
    declare_200_hz(path, manifest=False)
    with pytest.raises(UnsupportedRateError, match="preprocess_raw"):
        ss.ingest_session(path)


# ---------------------------------------------------------------------------
# raw preprocessing
# ---------------------------------------------------------------------------


def test_preprocess_inband_sinusoid_amplitude_preserved():
    t = np.arange(10_000) / 1000.0  # 10 s at 1 kHz
    raw = np.sin(2 * np.pi * 6.0 * t)[None, :]
    out = ss.preprocess_raw(raw, 1000.0)
    assert out.shape == (1, 1000)
    mid = out[0, 100:-100]  # away from filtfilt edges
    assert abs(mid.max() - 1.0) < 0.01


def test_preprocess_60hz_attenuated():
    t = np.arange(10_000) / 1000.0
    raw = np.sin(2 * np.pi * 60.0 * t)[None, :]
    out = ss.preprocess_raw(raw, 1000.0)
    assert np.abs(out[0, 100:-100]).max() < 0.5


def test_preprocess_constant_unchanged():
    out = ss.preprocess_raw(np.full((2, 3000), 4.25), 300.0)
    np.testing.assert_allclose(out, 4.25, atol=1e-9)
    assert out.shape == (2, 1000)


def test_preprocess_noninteger_ratio_rejected():
    with pytest.raises(UnsupportedRateError):
        ss.preprocess_raw(np.zeros((1, 1000)), 250.0)


# ---------------------------------------------------------------------------
# IQR and inclusion gate
# ---------------------------------------------------------------------------


def test_iqr_constant_is_zero():
    assert ss.session_iqr(np.full(50, 3.3)) == 0.0


def test_iqr_linear_ramp():
    # brute-force linear-interpolation quantiles on 0..99: Q3 - Q1 = 74.25 - 24.75
    assert ss.session_iqr(np.arange(100.0)) == pytest.approx(49.5)


def test_iqr_uniform_monte_carlo():
    x = np.random.default_rng(13).uniform(0.0, 1.0, size=100_000)
    assert ss.session_iqr(x) == pytest.approx(0.5, abs=0.01)


def test_iqr_too_short():
    with pytest.raises(ValueError):
        ss.session_iqr(np.array([1.0, 2.0, 3.0]))


def test_gate_excludes_constant_speed_session():
    sessions = [
        make_session(n_samples=100, seed=i, session_id=f"s{i:02d}", speed=np.random.default_rng(i).uniform(0, 4, 100))
        for i in range(9)
    ]
    flat = make_session(n_samples=100, seed=99, session_id="flat", speed=np.full(100, 2.0))
    result = ss.apply_inclusion_gate(sessions + [flat])
    assert [s.id for s in result.excluded] == ["flat"]
    assert len(result.included) == 9


def test_gate_threshold_boundary_is_exclusionary():
    def with_iqr(iqr, sid):
        # IQR of linspace(0, 2q, 100) is exactly q under linear quantiles
        return make_session(n_samples=100, session_id=sid, speed=np.linspace(0.0, 2.0 * iqr, 100))

    trio = [with_iqr(0.3, "lo"), with_iqr(0.46, "mid"), with_iqr(0.5, "hi")]
    for s, q in zip(trio, (0.3, 0.46, 0.5)):
        assert ss.session_iqr(s.speed) == pytest.approx(q, abs=1e-12)
    result = ss.apply_inclusion_gate(trio, threshold=0.46)
    assert {s.id for s in result.included} == {"hi"}
    assert {s.id for s in result.excluded} == {"lo", "mid"}  # <= is exclusionary


def test_gate_empty_collection():
    with pytest.raises(ValueError):
        ss.apply_inclusion_gate([])


def test_gate_monotone_in_threshold():
    rng = np.random.default_rng(3)
    sessions = [
        make_session(n_samples=60, seed=i, session_id=f"m{i}", speed=rng.uniform(0, i + 1, 60))
        for i in range(8)
    ]
    lo = ss.apply_inclusion_gate(sessions, threshold=0.2)
    hi = ss.apply_inclusion_gate(sessions, threshold=1.5)
    assert {s.id for s in hi.included} <= {s.id for s in lo.included}


# ---------------------------------------------------------------------------
# splits
# ---------------------------------------------------------------------------


def test_split_1000():
    tr, va, te = ss.split_ranges(1000)
    assert (tr, va, te) == (range(0, 800), range(800, 900), range(900, 1000))


def test_split_999_floor_rule():
    tr, va, te = ss.split_ranges(999)
    assert (tr, va, te) == (range(0, 799), range(799, 899), range(899, 999))


def test_split_30_too_short():
    with pytest.raises(SplitError):
        ss.split_ranges(30)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=200, max_value=5000))
def test_split_partitions_exactly(n):
    tr, va, te = ss.split_ranges(n)
    joined = list(tr) + list(va) + list(te)
    assert joined == list(range(n))


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


def test_normalizer_small_analytic_case():
    eeg = np.tile(np.array([1.0, 2.0, 3.0]), (2, 1))
    s = make_session(eeg=np.concatenate([eeg, np.full((2, 17), 2.0)], axis=1), speed=np.zeros(20))
    norm = ss.fit_normalizer(s, range(0, 3))
    np.testing.assert_allclose(norm.mean, [2.0, 2.0])
    np.testing.assert_allclose(norm.std, np.sqrt(2.0 / 3.0), rtol=1e-12)
    z = ss.apply_normalizer(norm, s.eeg[:, :3])
    np.testing.assert_allclose(z[0], [-1.2247, 0.0, 1.2247], atol=1e-4)


def test_normalizer_self_application(session):
    norm = ss.fit_normalizer(session, range(0, 320))
    z = ss.apply_normalizer(norm, session.eeg[:, :320])
    np.testing.assert_allclose(z.mean(axis=1), 0.0, atol=1e-9)
    np.testing.assert_allclose(z.std(axis=1), 1.0, atol=1e-9)


def test_normalizer_floors_flat_channel():
    eeg = np.random.default_rng(1).normal(size=(3, 40))
    eeg[2] = 7.0
    s = make_session(n_channels=3, eeg=eeg, speed=np.zeros(40))
    with pytest.warns(UserWarning, match="ch03"):
        norm = ss.fit_normalizer(s, range(0, 40))
    assert norm.floored == (2,)
    assert norm.std[2] == ss.STD_FLOOR
    z = ss.apply_normalizer(norm, s.eeg)
    np.testing.assert_array_equal(z[2], np.zeros(40))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_normalizer_roundtrip(seed):
    s = make_session(seed=seed, n_channels=3, n_samples=64)
    norm = ss.fit_normalizer(s, range(0, 50))
    z = ss.apply_normalizer(norm, s.eeg)
    back = z * norm.std[:, None] + norm.mean[:, None]
    np.testing.assert_allclose(back, s.eeg, rtol=1e-10, atol=1e-12)


# ---------------------------------------------------------------------------
# windows
# ---------------------------------------------------------------------------


def test_window_count_offset_zero(session):
    starts, x, y = ss.window_arrays(session, range(0, 100))
    assert len(starts) == len(x) == len(y) == 81
    assert starts[0] == 0 and starts[-1] == 80


def test_window_layout_is_time_major(session):
    starts, x, _ = ss.window_arrays(session, range(10, 60))
    assert x.shape[1:] == (ss.WINDOW_LEN, session.n_channels)
    assert starts[0] == 10
    np.testing.assert_array_equal(x[0, 3], session.eeg[:, 13])


def test_positive_offset_drops_tail_windows():
    s = make_session(n_samples=500)
    full, _, _ = ss.window_arrays(s, range(400, 500), offset_ms=0)
    shifted, _, _ = ss.window_arrays(s, range(400, 500), offset_ms=1000)
    # 1000 ms = 100 samples: every target lands beyond T, so all windows vanish
    assert len(full) == 81 and len(shifted) == 0
    mild, _, _ = ss.window_arrays(s, range(400, 500), offset_ms=100)
    assert len(mild) == 81 - 10


def test_negative_offset_example():
    s = make_session(n_samples=60)
    starts, _, y = ss.window_arrays(s, range(0, 60), offset_ms=-100)
    # the first window's target is its final sample (19) shifted back 10
    assert starts[0] == 0
    assert y[0] == s.speed[9]


def test_offset_must_be_whole_samples(session):
    with pytest.raises(ValueError):
        ss.window_arrays(session, range(0, 100), offset_ms=15)
    with pytest.raises(ValueError):
        ss.speed_window_arrays(session.speed, range(0, 100), offset_ms=15)


def _reference_windows(s, index_range, k):
    """The windowing rule written out one window at a time."""
    for start in range(index_range.start, index_range.stop - ss.WINDOW_LEN + 1):
        tgt = start + ss.WINDOW_LEN - 1 + k
        if 0 <= tgt < s.n_samples:
            yield start, s.eeg[:, start : start + ss.WINDOW_LEN].T, s.speed[tgt]


def test_window_arrays_match_generator(session):
    for off in (-200, -10, 0, 10, 300):
        views = list(_reference_windows(session, range(40, 260), off // 10))
        starts, x, y = ss.window_arrays(session, range(40, 260), offset_ms=off)
        assert len(views) == len(starts)
        for i, (start, layout, target) in enumerate(views):
            assert start == starts[i]
            np.testing.assert_array_equal(x[i], layout)
            assert y[i] == target


@pytest.mark.parametrize("off", [-200, -10, 0, 10, 300, 5000])
def test_speed_windows_are_the_shared_core_on_one_channel(off):
    """speed_window_arrays is the EEG windowing applied to the speed trace
    as a single-channel signal: same starts, stacks and targets, bitwise."""
    speed = np.abs(np.random.default_rng(4).normal(size=300)) * np.pi
    one = make_session(eeg=speed[None, :], speed=speed)
    got = ss.speed_window_arrays(speed, range(40, 260), offset_ms=off)
    for want in (
        ss.window_arrays(one, range(40, 260), offset_ms=off),
        ss._window_stack(speed[None, :], speed, range(40, 260), off // 10),
    ):
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()


def _materialized_window_stack(signal, target, index_range, k):
    """Reference: the window stack gathered from a view over the session
    and copied out, one (WINDOW_LEN, C) block per window."""
    starts = np.arange(index_range.start, index_range.stop - ss.WINDOW_LEN + 1, dtype=np.int64)
    targets = starts + ss.WINDOW_LEN - 1 + k
    keep = (targets >= 0) & (targets < target.size)
    starts, targets = starts[keep], targets[keep]
    if starts.size == 0:
        return starts, np.empty((0, ss.WINDOW_LEN, signal.shape[0])), np.empty((0,))
    view = np.lib.stride_tricks.sliding_window_view(signal, ss.WINDOW_LEN, axis=1)
    x = view[:, starts, :].transpose(1, 2, 0).copy()
    return starts, x, target[targets].copy()


@pytest.mark.parametrize("n_channels", [1, 32])
@pytest.mark.parametrize(
    "where", [range(0, 200), range(200, 400), range(400, 600)], ids=["start", "middle", "end"]
)
@pytest.mark.parametrize("offset_ms", [-1000, -100, 0, 200, 1000])
def test_window_views_equal_materialized_stacks(offset_ms, where, n_channels):
    s = make_session(n_channels=n_channels, n_samples=600, seed=7)
    got = ss.window_arrays(s, where, offset_ms=offset_ms)
    want = _materialized_window_stack(s.eeg, s.speed, where, ss.offset_samples_for(offset_ms))
    assert got[0].size > 0
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def test_window_stacks_are_read_only(session):
    for _, x, _ in (
        ss.window_arrays(session, range(0, 100)),
        ss.speed_window_arrays(session.speed, range(0, 100)),
    ):
        assert not x.flags.writeable
        with pytest.raises(ValueError):
            x[0, 0, 0] = 1.0


def test_window_stack_memory_is_one_copy_of_its_range():
    """A stack holds each sample once: building the windows of a range
    allocates about that range's bytes, not WINDOW_LEN times them."""
    s = make_session(n_channels=32, n_samples=60_000, seed=3)
    fit = ss.split_ranges(s.n_samples)[0]
    range_bytes = s.n_channels * len(fit) * 8
    tracemalloc.start()
    try:
        starts, _, _ = ss.window_arrays(s, fit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert starts.size == len(fit) - ss.WINDOW_LEN + 1
    assert peak < 2 * range_bytes, f"peak {peak} B for a {range_bytes} B range"


@settings(max_examples=120, deadline=None)
@given(
    st.integers(min_value=20, max_value=200),
    st.integers(min_value=-12, max_value=12),
)
def test_window_count_formula_exhaustive(t_total, k):
    """count = max(0, L - 19 - boundary losses) for every (length, offset)."""
    s = make_session(n_samples=t_total, n_channels=2)
    starts, x, y = ss.window_arrays(s, range(0, t_total), offset_ms=10 * k)
    base = t_total - ss.WINDOW_LEN + 1
    start_floor = max(0, -(ss.WINDOW_LEN - 1 + k))  # targets before index 0
    start_ceil = min(base, t_total - ss.WINDOW_LEN + 1 - max(0, k))
    expected = max(0, start_ceil - start_floor)
    assert len(starts) == len(x) == len(y) == expected
    targets = starts + ss.WINDOW_LEN - 1 + k
    assert np.all((0 <= targets) & (targets < t_total))
