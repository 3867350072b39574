import os
import struct
from pathlib import Path

# One BLAS thread per test process, as perfbench/run.py sets it: the
# products here are small, and extra threads on a busy machine slow them
# down many times over. Set before numpy is first imported; a value
# already in the environment wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from locodec.sessions import REGIONS, SIDES, Session


def make_session(
    n_channels=4,
    n_samples=400,
    seed=0,
    session_id="s01",
    rat_id="rat01",
    speed=None,
    eeg=None,
):
    """Random but reproducible session for unit tests.

    Region/side labels follow the paired-electrode layout used by the
    synthetic generator: regions cycle every two channels, sides alternate.
    """
    rng = np.random.default_rng(seed)
    if eeg is None:
        eeg = rng.normal(size=(n_channels, n_samples))
    else:
        eeg = np.asarray(eeg, dtype=np.float64)
        n_channels = eeg.shape[0]
    if speed is None:
        speed = np.abs(rng.normal(loc=2.0, scale=1.0, size=eeg.shape[1]))
    return Session(
        id=session_id,
        rat_id=rat_id,
        sample_rate_hz=100.0,
        eeg=eeg,
        speed=speed,
        region_map=tuple(REGIONS[(c // 2) % len(REGIONS)] for c in range(n_channels)),
        side_map=tuple(SIDES[c % 2] for c in range(n_channels)),
    )


def declare_200_hz(path, header=True, manifest=True):
    """Rewrite the rate fields of a written 100 Hz session file to say
    200 Hz over the same samples: the rate in a .bin header, and the rate
    entry of its manifest (embedded in a .bin, or the CSV's sidecar)."""
    path = Path(path)
    target = path.with_suffix(".manifest") if path.suffix == ".csv" else path
    blob = bytearray(target.read_bytes())
    if header:
        assert struct.unpack_from("<d", blob, 17) == (100.0,)  # after magic, channels, samples
        struct.pack_into("<d", blob, 17, 200.0)
    if manifest:
        entry = b"session.sample_rate_hz=100.0"
        assert blob.count(entry) == 1
        blob = blob.replace(entry, b"session.sample_rate_hz=200.0")
    target.write_bytes(bytes(blob))


@pytest.fixture
def session():
    return make_session()
