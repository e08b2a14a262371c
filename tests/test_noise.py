import numpy as np
import pytest
from scipy.special import ndtri

from switchsde import noise
from switchsde.noise import (LANE_EULER, LANE_JUMP, NoiseStream,
                             keyed_exponential, keyed_normal, keyed_uniform)


def test_deterministic_across_instances():
    a = NoiseStream(42)
    b = NoiseStream(42)
    reps = np.arange(100, dtype=np.uint64)
    assert np.array_equal(a.uniform(reps, LANE_EULER, np.uint64(5)),
                          b.uniform(reps, LANE_EULER, np.uint64(5)))


def test_batching_does_not_change_values():
    st = NoiseStream(7)
    reps = np.arange(1000, dtype=np.uint64)
    ctr = np.uint64(3)
    whole = st.normal(reps, LANE_JUMP, ctr)
    parts = np.concatenate([st.normal(reps[:311], LANE_JUMP, ctr),
                            st.normal(reps[311:], LANE_JUMP, ctr)])
    assert np.array_equal(whole, parts)


def test_keyed_route_matches_direct_route():
    st = NoiseStream(99, salt=3)
    reps = np.arange(64, dtype=np.uint64)
    ctr = np.arange(64, dtype=np.uint64)
    keys = st.replica_keys(reps)
    assert np.array_equal(st.uniform(reps, LANE_JUMP, ctr),
                          keyed_uniform(keys, LANE_JUMP, ctr))
    assert np.array_equal(st.normal(reps, LANE_EULER, ctr),
                          keyed_normal(keys, LANE_EULER, ctr))


def test_lanes_salts_and_seeds_decorrelate():
    st = NoiseStream(1)
    reps = np.arange(256, dtype=np.uint64)
    u0 = st.uniform(reps, LANE_EULER, np.uint64(0))
    u1 = st.uniform(reps, LANE_JUMP, np.uint64(0))
    u2 = NoiseStream(2).uniform(reps, LANE_EULER, np.uint64(0))
    u3 = NoiseStream(1, salt=1).uniform(reps, LANE_EULER, np.uint64(0))
    for other in (u1, u2, u3):
        assert not np.array_equal(u0, other)


def test_uniforms_open_interval_and_moments():
    st = NoiseStream(5)
    u = st.uniform(np.arange(200_000, dtype=np.uint64), LANE_EULER, np.uint64(1))
    assert u.min() > 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.005
    assert abs(u.std() - (1 / 12) ** 0.5) < 0.005


def test_normal_and_exponential_moments():
    st = NoiseStream(11)
    reps = np.arange(200_000, dtype=np.uint64)
    z = st.normal(reps, LANE_EULER, np.uint64(0))
    e = st.exponential(reps, LANE_JUMP, np.uint64(0))
    assert abs(z.mean()) < 0.01
    assert abs(z.var() - 1.0) < 0.02
    assert abs(e.mean() - 1.0) < 0.01
    assert e.min() > 0.0


@pytest.mark.parametrize("replica, index", [
    (5, 17),
    (np.arange(300, dtype=np.uint64), np.uint64(2)),
    (np.arange(40, dtype=np.uint64)[:, None], np.arange(3, dtype=np.uint64)),
])
def test_normals_are_ndtri_of_uniforms(replica, index):
    st = NoiseStream(13, salt=2)
    keys = st.replica_keys(replica)
    for lane in (LANE_EULER, LANE_JUMP):
        z = ndtri(keyed_uniform(keys, lane, index))
        assert np.array_equal(keyed_normal(keys, lane, index), z)
        assert np.array_equal(st.normal(replica, lane, index), z)


# (seed, salt, replica, lane, index) -> uniform, normal, exponential. A change
# to the hash moves the uniforms; a quantile off by 1e-10 moves the normals.
GOLDEN = [
    ((0, 0, 670790, LANE_EULER, 8050),
     0.36778088132509584, -0.33773650482526335, 1.000267949334556),
    ((1, 3, 22653, LANE_EULER, 8079),
     0.007890086169256516, -2.4139605149566563, 4.842148222858704),
    ((7, 0, 468851, LANE_EULER, 5153),
     0.6190082249362805, 0.30287706533971864, 0.4796367189281763),
    ((2 ** 63 - 1, 3, 630234, LANE_EULER, 2858),
     0.875428627052321, 1.1524340738901313, 0.13304165307814667),
    ((0, 3, 979523, LANE_JUMP, 539),
     0.941864009350984, 1.570615526332517, 0.05989437857352408),
    ((2024, 0, 277923, LANE_JUMP, 3833),
     0.9685146369408639, 1.8593981339578405, 0.03199168324891096),
    ((7, 3, 571184, LANE_JUMP, 4084),
     0.6332981159116327, 0.3406012767207717, 0.45681401049712805),
    ((2 ** 63 - 1, 0, 1015, LANE_JUMP, 487),
     0.8604194060123065, 1.0822055836623714, 0.15033532720285545),
]


@pytest.mark.parametrize("address, u, z, e", GOLDEN,
                         ids=[f"address{k}" for k in range(len(GOLDEN))])
def test_golden_variates(address, u, z, e):
    seed, salt, replica, lane, index = address
    st = NoiseStream(seed, salt)
    assert float(st.uniform(replica, lane, index)) == u
    assert float(st.normal(replica, lane, index)) == pytest.approx(z, rel=1e-13)
    assert float(st.exponential(replica, lane, index)) == pytest.approx(e, rel=1e-13)


def test_all_ones_bits_stay_inside_the_open_interval(monkeypatch):
    # the top 53 bits all set: the half-step offset alone would round to 1.0
    monkeypatch.setattr(noise, "keyed_bits",
                        lambda keys, lane, index: np.uint64(2 ** 64 - 1))
    keys = NoiseStream(1).replica_keys(0)
    assert keyed_uniform(keys, LANE_EULER, 0) < 1.0
    assert np.isfinite(keyed_normal(keys, LANE_EULER, 0))
    assert keyed_exponential(keys, LANE_JUMP, 0) > 0.0


def test_scalar_inputs_give_floats():
    st = NoiseStream(3)
    v = st.uniform(4, LANE_EULER, 9)
    assert np.ndim(v) == 0
    assert 0.0 < float(v) < 1.0


@pytest.mark.parametrize("seed", [0, 1, 2 ** 63 - 1])
def test_extreme_seeds_work(seed):
    st = NoiseStream(seed)
    assert 0.0 < float(st.uniform(0, LANE_EULER, 0)) < 1.0
