import csv
import math

import numpy as np
import pytest

import switchsde as s
from switchsde.trajectory import JumpRecord, Trajectory, from_binary


def sample_traj():
    times = np.array([0.0, 0.1, 0.17, 0.2, 0.3])
    x = np.array([[0.0, 1.0], [0.2, 0.9], [0.25, 0.8], [0.3, 0.7], [0.1, 0.6]])
    regime = np.array([1, 1, 2, 2, 2], dtype=np.int64)
    jumps = [JumpRecord(0.17, 1, 2, 0.42)]
    return Trajectory(times=times, x=x, regime=regime, jumps=jumps,
                      eta=0.17, tau_k=math.inf, seed=9,
                      config_digest="abc123")


def test_csv_format(tmp_path):
    t = sample_traj()
    path = tmp_path / "traj.csv"
    t.to_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["time", "regime", "x0", "x1", "event"]
    assert len(rows) == 6
    assert rows[3][1] == "2" and rows[3][4] == "1"   # the jump row is flagged
    assert rows[1][4] == "0"
    # deterministic re-render
    again = tmp_path / "traj2.csv"
    t.to_csv(again)
    assert path.read_bytes() == again.read_bytes()


def test_binary_round_trip(tmp_path):
    t = sample_traj()
    path = tmp_path / "traj.bin"
    t.to_binary(path)
    back = from_binary(path)
    assert np.array_equal(back.times, t.times)
    assert np.array_equal(back.x, t.x)
    assert np.array_equal(back.regime, t.regime)
    assert back.eta == t.eta
    assert math.isinf(back.tau_k)
    assert back.seed == 9
    assert back.config_digest == "abc123"
    assert len(back.jumps) == 1
    assert back.jumps[0].mark == 0.42


def test_binary_rejects_garbage(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOTATRAJ" + b"\x00" * 32)
    try:
        from_binary(path)
    except ValueError as exc:
        assert "not a trajectory" in str(exc)
    else:
        raise AssertionError("expected ValueError")


def test_binary_rejects_other_archives_and_versions(tmp_path):
    other = tmp_path / "other.bin"
    with open(other, "wb") as fh:
        np.savez(fh, times=np.zeros(3))
    with pytest.raises(ValueError, match="not a trajectory"):
        from_binary(other)
    path = tmp_path / "traj.bin"
    sample_traj().to_binary(path)
    with np.load(path) as data:
        arrays = {name: data[name] for name in data.files}
    arrays["version"] = np.int64(3)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)
    with pytest.raises(ValueError, match="unsupported trajectory version 3"):
        from_binary(path)


def test_binary_refuses_version_1(tmp_path):
    # version 1 stored three markers (eta, tau_k and a coupling time)
    t = sample_traj()
    path = tmp_path / "v1.bin"
    with open(path, "wb") as fh:
        np.savez(fh, version=1, times=t.times, x=t.x, regime=t.regime,
                 jumps=np.array([[0.17, 1, 2, 0.42]]),
                 markers=np.array([t.eta, t.tau_k, np.nan]),
                 seed=np.int64(t.seed), digest=t.config_digest)
    with pytest.raises(ValueError, match="unsupported trajectory version 1"):
        from_binary(path)
