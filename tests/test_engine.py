import dataclasses
import math
import signal
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

import switchsde as s
from switchsde import engine, qmatrix
from switchsde.engine import (euler_step, first_switch_times, regime_groups,
                              run_chain, run_event_driven, run_frozen)
from switchsde.noise import LANE_EULER, LANE_JUMP, NoiseStream


def cfg(T=1.0, dt=0.01, scheme=s.FROZEN_RATE, seed=101, K=None):
    return s.SimConfig(horizon=T, dt=dt, truncation=K, seed=seed, scheme=scheme)


# --- the shared Euler kernel -----------------------------------------------------

def test_step_euler_deterministic_drift():
    # one call advances rows in different regimes through their own drifts
    m = s.linear_switching_model(dim=1, beta=(1.0, 2.0), a=(0.0, 0.0),
                                 s=(0.0, 0.0), rates=np.zeros((2, 2)))
    out = euler_step(m, 0.0, np.ones((3, 1)), np.array([1, 2, 1]), 0.1,
                     np.zeros((3, 1)))
    assert out[:, 0] == pytest.approx([0.9, 0.8, 0.9])


def test_step_euler_pure_noise():
    m = s.linear_switching_model(dim=2, beta=(0.0,), a=(0.0,), s=(1.0,),
                                 rates=np.zeros((1, 1)))
    h = np.array([0.05, 0.2])
    xi = np.array([[0.3, -0.2], [1.0, 0.5]]) / np.sqrt(h)[:, None]
    out = euler_step(m, 0.0, np.ones((2, 2)), np.array([1, 1]), h, xi)
    assert np.allclose(out, [[1.3, 0.8], [2.0, 1.5]])


def test_step_euler_blowup_carries_state():
    # regime 2's drift is infinite, regime 1's is not; no switching
    def drift(t, x, i):
        x = np.asarray(x, dtype=float)
        return np.full_like(x, np.inf) if i == 2 else -x
    m = s.ModelSpec(dim=1, drift=drift, diffusion=lambda t, x, i: 0.0,
                    q=s.QMatrixSpec(rate=lambda x, i, j: 0.0, kappa=1,
                                    n_regimes=2),
                    growth_c=lambda t: 1.0, dissipativity_c=lambda t, i: 1.0,
                    diffusion_mod_c=lambda t, i: 1.0,
                    ellipticity_lambda=lambda t: 1.0)
    out = euler_step(m, 0.5, np.full((3, 1), 2.0), np.array([1, 2, 1]), 0.1,
                     np.zeros((3, 1)))
    assert list(np.isfinite(out[:, 0])) == [True, False, True]
    # the runner flags the dead rows; the recorded path raises at the death
    for i0, dies in ((1, False), (2, True)):
        res = run_frozen(m, [2.0], i0, 0.5, 0.1, NoiseStream(3),
                         np.arange(4, dtype=np.uint64))
        assert list(res["aborted"]) == [dies] * 4
    with pytest.raises(s.NumericalBlowupError) as exc:
        s.simulate_path(m, [2.0], 2, cfg(T=0.5, dt=0.1))
    assert exc.value.t == 0.1
    assert exc.value.regime == 2
    assert not np.isfinite(exc.value.x).all()


def test_step_euler_strong_self_convergence():
    # 64 independent scalar OUs packed as one 64-dimensional state
    M = 64
    m = s.linear_switching_model(dim=M, beta=(1.0,), a=(0.0,), s=(1.0,),
                                 rates=np.zeros((1, 1)))
    one = np.array([1])
    rng = np.random.default_rng(12)
    n_fine = 2 ** 10
    dt_fine = 1.0 / n_fine
    dW = rng.normal(0.0, math.sqrt(dt_fine), size=(n_fine, M))
    x_ref = np.full((1, M), 1.0)
    for k in range(n_fine):
        x_ref = euler_step(m, k * dt_fine, x_ref, one, dt_fine,
                           dW[k:k + 1] / math.sqrt(dt_fine))
    errs = []
    dts = [2.0 ** -p for p in (4, 5, 6, 7, 8)]
    for dt in dts:
        stride = int(round(dt * n_fine))
        x = np.full((1, M), 1.0)
        for k in range(n_fine // stride):
            inc = dW[k * stride:(k + 1) * stride].sum(axis=0, keepdims=True)
            x = euler_step(m, k * dt, x, one, dt, inc / math.sqrt(dt))
        errs.append(math.sqrt(float(np.mean((x - x_ref) ** 2))))
    slope = np.polyfit(np.log2(dts), np.log2(errs), 1)[0]
    assert 0.7 < slope < 1.3


def test_regime_groups_partition_rows_by_index():
    assert regime_groups(np.array([4, 4, 4])) == [(4, slice(None))]
    assert regime_groups(np.array([7])) == [(7, slice(None))]
    assert regime_groups(np.array([], dtype=np.int64)) == []
    lam = np.random.default_rng(3).integers(1, 9, 200)
    groups = regime_groups(lam)
    assert [k for k, _ in groups] == sorted(set(lam.tolist()))
    for k, rows in groups:
        assert type(k) is int
        assert np.array_equal(rows, np.flatnonzero(lam == k))


def test_regime_groups_cost_ignores_regime_values():
    # a count table over [min, max] would need 8 PB here
    tracemalloc.start()
    try:
        groups = regime_groups(np.array([1, 10 ** 15, 1]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [k for k, _ in groups] == [1, 10 ** 15]
    assert [r.tolist() for _, r in groups] == [[0, 2], [1]]
    assert peak < 1 << 20


def test_step_euler_mixed_batch_equals_per_regime_calls():
    # callbacks that read t, x and the regime, with a full diffusion matrix
    def drift(t, x, i):
        x = np.asarray(x, dtype=float)
        return np.sin(x * i) - np.asarray(t)[..., None] * x / i

    def diffusion(t, x, i):
        x = np.asarray(x, dtype=float)
        sig = np.zeros(x.shape[:-1] + (2, 2))
        sig[..., 0, 0] = 1.0 + 0.1 * i
        sig[..., 0, 1] = np.cos(x[..., 1])
        sig[..., 1, 1] = 0.5 + x[..., 0] ** 2 / i
        return sig

    m = s.ModelSpec(dim=2, drift=drift, diffusion=diffusion,
                    q=s.QMatrixSpec(rate=lambda x, i, j: 0.0, kappa=1,
                                    n_regimes=6),
                    growth_c=lambda t: 1.0, dissipativity_c=lambda t, i: 1.0,
                    diffusion_mod_c=lambda t, i: 1.0,
                    ellipticity_lambda=lambda t: 1.0)
    rng = np.random.default_rng(8)
    n = 300
    X, xi = rng.normal(size=(n, 2)), rng.normal(size=(n, 2))
    lam = rng.integers(1, 7, n)
    t, h = rng.uniform(0, 1, n), rng.uniform(0.001, 0.1, n)
    for tt, hh in ((t, h), (0.3, 0.05)):
        out = euler_step(m, tt, X, lam, hh, xi)
        for k in range(1, 7):
            r = np.flatnonzero(lam == k)
            one = euler_step(m, tt[r] if np.ndim(tt) else tt, X[r],
                             np.full(len(r), k), hh[r] if np.ndim(hh) else hh,
                             xi[r])
            assert np.array_equal(out[r], one)


def _bits(a):
    a = np.asarray(a)
    return a.shape, a.dtype, a.tobytes()


def _banded_rates(n, kappa, seed, absorbing=()):
    rng = np.random.default_rng(seed)
    R = rng.uniform(0.3, 1.8, (n, n))
    far = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) > kappa
    R[far] = 0.0
    R[[k - 1 for k in absorbing]] = 0.0
    np.fill_diagonal(R, 0.0)
    return R


def _rate_table_q(R, kappa):
    return s.QMatrixSpec(rate=lambda x, i, j: float(R[i - 1, j - 1]),
                         kappa=kappa, linear_bound_alpha=float(R.sum()),
                         state_independent=True, n_regimes=len(R))


def _assert_reads_equal_rows(q, lam, U):
    # the packed reads against each row's own layout, bit for bit
    new, marks = engine._switch_targets(q, lam, U)
    totals = engine._regime_totals(q, lam)
    lays = [s.zero_layout(q, k) for k in lam.tolist()]
    assert _bits(new) == _bits(np.array(
        [b.destination(u) for b, u in zip(lays, U)], dtype=np.int64))
    assert _bits(marks) == _bits(np.array(
        [b.mark(u) for b, u in zip(lays, U.tolist())], dtype=float))
    assert _bits(totals) == _bits(np.array([b.total for b in lays],
                                           dtype=float))
    return new, totals


def test_skeleton_reads_equal_per_row_layouts():
    q = s.zoo("birth_death_switch").q
    rng = np.random.default_rng(9)
    lam = rng.integers(1, 12, 500)
    U = rng.uniform(size=500)
    lays = [s.zero_layout(q, k) for k in lam.tolist()]
    new, marks = engine._switch_targets(q, lam, U)
    assert np.array_equal(new, [b.destination(u) for b, u in zip(lays, U)])
    assert np.array_equal(marks, [b.mark(u) for b, u in zip(lays, U.tolist())])
    assert np.array_equal(engine._regime_totals(q, lam),
                          [b.total for b in lays])
    # a fresh spec whose rows the reads build, high regimes first
    q = s.zoo("birth_death_switch").q
    lam = rng.permutation(lam)
    for part in (lam[lam > 7], lam[lam < 5], lam):
        _assert_reads_equal_rows(q, part, rng.uniform(size=len(part)))
    # first and last rows have clipped bands
    q = _rate_table_q(_banded_rates(5, 2, seed=4), kappa=2)
    lam = rng.integers(1, 6, 400)
    _assert_reads_equal_rows(q, lam, rng.uniform(size=400))
    assert [len(s.zero_layout(q, k).dests) for k in range(1, 6)] == [2, 3, 4, 3, 2]


def test_skeleton_reads_keep_an_absorbing_regime():
    q = _rate_table_q(_banded_rates(4, 1, seed=5, absorbing=(3,)), kappa=1)
    lam = np.array([3, 1, 3, 2, 4, 3])
    new, totals = _assert_reads_equal_rows(q, lam, np.linspace(0.05, 0.95, 6))
    assert np.array_equal(new[lam == 3], [3, 3, 3])
    assert np.array_equal(totals[lam == 3], [0.0, 0.0, 0.0])
    keys = NoiseStream(3).replica_keys(np.arange(6, dtype=np.uint64))
    assert np.isinf(first_switch_times(q, lam, keys)[lam == 3]).all()
    out = run_chain(q, 3, 5.0, NoiseStream(3), np.arange(50, dtype=np.uint64),
                    t_marks=(1.0,))
    assert (out["regime"] == 3).all() and (out["regime_at"] == 3).all()


def test_skeleton_reads_of_an_empty_batch_are_empty():
    q = s.zoo("birth_death_switch").q  # no row built yet
    lam = np.empty(0, dtype=np.int64)
    new, marks = engine._switch_targets(q, lam, np.empty(0))
    assert _bits(new) == _bits(lam)
    assert _bits(marks) == _bits(np.empty(0))
    assert _bits(engine._regime_totals(q, lam)) == _bits(np.empty(0))


# --- trajectories ----------------------------------------------------------------

def test_no_switching_constant_path(frozen_model):
    traj = s.simulate_path(frozen_model, [2.5], 1, cfg(T=0.5))
    assert np.all(traj.x == 2.5)
    assert np.all(traj.regime == 1)
    assert math.isinf(traj.eta)
    assert len(traj.jumps) == 0


def test_trajectory_structure_random_models():
    rng = np.random.default_rng(5)
    for trial in range(10):
        n = int(rng.integers(2, 5))
        rates = rng.uniform(0.2, 2.0, size=(n, n))
        m = s.linear_switching_model(dim=2, beta=rng.uniform(0.3, 2, n),
                                     a=rng.uniform(-1, 1, n),
                                     s=rng.uniform(0.4, 1.5, n), rates=rates)
        scheme = s.FROZEN_RATE if trial % 2 else s.EVENT_DRIVEN
        traj = s.simulate_path(m, [0.1, -0.2], 1,
                               cfg(T=0.6, scheme=scheme, seed=trial),
                               replica=trial)
        assert np.all(np.diff(traj.times) > 0)
        assert traj.regime.min() >= 1
        for j in traj.jumps:
            assert abs(j.dst - j.src) <= m.q.kappa
        if traj.jumps:
            assert traj.eta == pytest.approx(traj.jumps[0].time)


def test_exponential_holding_law(ou_model):
    # from regime 1 the exit rate is 1 (single destination)
    keys = NoiseStream(77).replica_keys(np.arange(60_000, dtype=np.uint64))
    eta = first_switch_times(ou_model.q, 1, keys)
    assert abs(eta.mean() - 1.0) < 3.0 * eta.std() / math.sqrt(len(eta))


def test_first_destination_frequencies():
    rates = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    m3 = s.linear_switching_model(dim=1, beta=(1.0,) * 3, a=(0.0,) * 3,
                                  s=(1.0,) * 3, rates=rates)
    n = 40_000
    counts = {2: 0, 3: 0}
    st = NoiseStream(9)
    # long horizon guarantees the first jump happens; read regime right after eta
    for rep in range(200):
        traj = s.simulate_path(m3, [0.0], 1,
                               cfg(T=2.0, scheme=s.EVENT_DRIVEN, seed=9),
                               replica=rep)
        if traj.jumps:
            counts[traj.jumps[0].dst] += 1
    total = counts[2] + counts[3]
    p3 = counts[3] / total
    se = math.sqrt(2 / 3 * 1 / 3 / total)
    assert abs(p3 - 2 / 3) <= 3 * se + 0.01


def test_identical_drift_regimes_ignore_skeleton():
    m = s.linear_switching_model(dim=1, beta=(1.0, 1.0), a=(0.0, 0.0),
                                 s=(0.0, 0.0))
    total_jumps = 0
    for rep in range(10):
        traj = s.simulate_path(m, [1.0], 1,
                               cfg(T=1.0, dt=1e-3, scheme=s.EVENT_DRIVEN,
                                   seed=3),
                               replica=rep)
        # sigma = 0 and identical drift: X_T = e^{-T} x0, exactly
        assert traj.x[-1, 0] == pytest.approx(math.exp(-1.0), rel=1e-12)
        total_jumps += len(traj.jumps)
    assert total_jumps >= 1  # chains did switch; the paths didn't care


def test_reproducibility_and_coupling(ou_model):
    c = cfg(T=0.8, scheme=s.EVENT_DRIVEN, seed=22)
    t1 = s.simulate_path(ou_model, [0.4], 1, c, replica=5)
    t2 = s.simulate_path(ou_model, [0.4], 1, c, replica=5)
    assert np.array_equal(t1.x, t2.x)
    assert np.array_equal(t1.times, t2.times)
    assert np.array_equal(t1.regime, t2.regime)
    assert t1.jumps == t2.jumps
    assert t1.eta == t2.eta


def _switch_table(traj):
    return [(j.time, j.src, j.dst) for j in traj.jumps]


def test_state_independent_coupling_never_separates(ou_model):
    # one replica's clocks and marks do not read the position: the switch
    # tables of two starts agree
    for scheme in (s.FROZEN_RATE, s.EVENT_DRIVEN):
        for rep in range(8):
            c = cfg(T=1.0, scheme=scheme, seed=7)
            ta, tb = (s.simulate_path(ou_model, [x0], 1, c, replica=rep)
                      for x0 in (0.0, 3.0))
            assert _switch_table(ta) == _switch_table(tb)


def test_state_dependent_coupling_separates():
    def rate(x, i, j):
        if i == 1 and j == 2:
            return 1.0 + abs(float(np.atleast_1d(x)[0]))
        if i == 2 and j == 1:
            return 1.0
        return 0.0
    q = s.QMatrixSpec(rate=rate, kappa=1, lipschitz_cq=1.0,
                      linear_bound_alpha=3.0, linear_bound_beta=1.0,
                      n_regimes=2)
    m = s.ModelSpec(dim=1, drift=lambda t, x, i: -np.asarray(x, dtype=float),
                    diffusion=lambda t, x, i: 1.0, q=q,
                    growth_c=lambda t: 1.5, dissipativity_c=lambda t, i: 1.0,
                    diffusion_mod_c=lambda t, i: 1.0,
                    ellipticity_lambda=lambda t: 1.0, model_id="sd")
    c = cfg(T=2.0, dt=0.02, seed=13)
    seps = sum(
        _switch_table(s.simulate_path(m, [0.0], 1, c, replica=r))
        != _switch_table(s.simulate_path(m, [3.0], 1, c, replica=r))
        for r in range(40))
    assert seps >= 10


# --- truncation --------------------------------------------------------------------

def test_truncated_requires_room():
    bd = s.zoo("birth_death_switch")
    with pytest.raises(ValueError):
        s.simulate_truncated(bd, [3.0], 3, 5, cfg())


@pytest.mark.filterwarnings("ignore::switchsde.errors.StiffSwitchingWarning")
def test_truncated_agrees_until_exit():
    bd = s.zoo("birth_death_switch")
    hits = 0
    for rep in range(25):
        res = s.truncation_identity_check(bd, [0.5], 3, 5,
                                          cfg(T=2.0, dt=0.01, seed=900 + rep))
        assert res["identical"]
        hits += math.isfinite(res["tau_k"])
    assert hits >= 5  # the comparison must actually exercise exits


def test_truncated_identical_when_level_huge(ou_model):
    res = s.truncation_identity_check(ou_model, [0.1], 1, 60, cfg(T=1.0, seed=2))
    assert res["identical"]
    assert math.isinf(res["tau_k"])
    # tau never hit: the whole paths coincide
    full = s.simulate_path(ou_model, [0.1], 1, cfg(T=1.0, K=60))
    trunc = s.simulate_truncated(ou_model, [0.1], 1, 60, cfg(T=1.0))
    assert np.array_equal(full.x, trunc.x)


def test_truncated_model_and_fold_read_one_cutoff(monkeypatch):
    # a stand-in cutoff of 1/4 everywhere reaches the drift, the diffusion
    # and the folded rates alike, and engine keeps no cutoff of its own
    def quarter(x, K):
        return np.full(np.shape(x)[:-1], 0.25)[()]

    monkeypatch.setattr(qmatrix, "_radial_cutoff", quarter)
    monkeypatch.setattr(engine, "_radial_cutoff", quarter)
    assert not hasattr(engine, "smooth_cutoff")
    m = s.zoo("switching_ou", dim=2)
    tm = engine.truncated_model(m, 5)
    x, X = np.array([0.3, -0.2]), np.array([[0.3, -0.2], [1.0, 0.5]])
    assert np.array_equal(tm.drift(0.0, x, 1), 0.25 * m.drift(0.0, x, 1))
    assert np.array_equal(tm.drift(0.0, X, 2), 0.25 * m.drift(0.0, X, 2))
    assert np.array_equal(tm.diffusion(0.0, x, 1),
                          0.5 * np.asarray(m.diffusion(0.0, x, 1)))
    assert tm.q.rate(x, 1, 2) == 0.25 * m.q.rate(x, 1, 2)


def test_truncated_model_id_names_the_integer_level():
    bd = s.zoo("birth_death_switch")
    ids = {engine.truncated_model(bd, K).model_id
           for K in (5.0, 5, np.int64(5))}
    assert ids == {"birth_death_switch(d=1)|trunc5"}


def test_truncated_model_keeps_every_other_field(ou_model):
    @dataclasses.dataclass(frozen=True)
    class Tagged(s.ModelSpec):
        tag: str = "plain"

    fields = {f.name: getattr(ou_model, f.name)
              for f in dataclasses.fields(ou_model)}
    m = Tagged(**fields, tag="kept")
    tm = engine.truncated_model(m, 4)
    assert m.linear_coeffs is not None and tm.linear_coeffs is None
    assert tm.q.n_regimes == 4 + m.q.kappa + 1
    replaced = {"drift", "diffusion", "q", "linear_coeffs", "model_id"}
    for f in dataclasses.fields(m):
        if f.name not in replaced:
            assert getattr(tm, f.name) is getattr(m, f.name), f.name


# --- batch/single consistency ----------------------------------------------------

def test_batch_rows_match_singleton_runs(ou_model):
    st = NoiseStream(55)
    reps = np.array([3, 8, 21], dtype=np.uint64)
    out = run_event_driven(ou_model, np.zeros(1), 1, 0.7, 0.01, st, reps)
    for k, rep in enumerate(reps):
        single = run_event_driven(ou_model, np.zeros(1), 1, 0.7, 0.01,
                                  NoiseStream(55),
                                  np.array([rep], dtype=np.uint64))
        assert single["x"][0] == pytest.approx(out["x"][k], abs=0.0)
        assert single["regime"][0] == out["regime"][k]
        assert single["eta"][0] == out["eta"][k]


def test_chain_skeleton_matches_full_runner(ou_model):
    reps = np.arange(200, dtype=np.uint64)
    chain = run_chain(ou_model.q, 1, 0.9, NoiseStream(44), reps)
    full = run_event_driven(ou_model, np.zeros(1), 1, 0.9, 0.01,
                            NoiseStream(44), reps)
    first = first_switch_times(ou_model.q, 1, NoiseStream(44).replica_keys(reps))
    assert np.array_equal(chain["regime"], full["regime"])
    # every switch of this chain changes the regime: eta is the first clock
    switched = first <= 0.9
    assert 0 < switched.sum() < len(reps)
    assert np.array_equal(np.where(switched, first, np.inf), full["eta"])


def test_chain_marks_match_event_driven_runs():
    # the regime at each mark is, bit for bit, the final regime of the full
    # runner stopped at that mark, on the same stream and replicas
    rng = np.random.default_rng(8)
    n = 5
    band = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    rates = np.where((band > 0) & (band <= 2), rng.uniform(0.3, 2.0, (n, n)), 0.0)
    m = s.linear_switching_model(dim=1, beta=(1.0,) * n, a=(0.0,) * n,
                                 s=(1.0,) * n, rates=rates)
    reps = np.arange(3000, dtype=np.uint64)
    marks = (0.3, 0.9, 2.0)
    for i0 in (1, 3, 5):
        chain = run_chain(m.q, i0, 2.0, NoiseStream(61), reps, t_marks=marks)
        assert np.array_equal(chain["regime_at"][-1], chain["regime"])
        for mi, tm in enumerate(marks):
            full = run_event_driven(m, np.zeros(1), i0, tm, 0.01,
                                    NoiseStream(61), reps)
            assert np.array_equal(chain["regime_at"][mi], full["regime"])
        assert len(np.unique(chain["regime_at"][0])) == n


def _chain_with_per_pass_marks(q, i0, T, stream, replicas, t_marks):
    """Reference for ``run_chain``: one skeleton up to T, and after each pass
    every mark takes the switches at or before it."""
    n = len(replicas)
    keys = stream.replica_keys(replicas)
    lam = np.full(n, i0, dtype=np.int64)
    jump_ctr = np.ones(n, dtype=np.uint64)
    lam_at = np.full((len(t_marks), n), i0, dtype=np.int64)
    nxt = first_switch_times(q, i0, keys)
    while (jr := np.flatnonzero(nxt <= T)).size:
        new, hold, _ = engine._skeleton_switch(q, keys, jump_ctr, lam, jr)
        lam[jr] = new
        t = nxt[jr]
        for mi, tm in enumerate(t_marks):
            hit = t <= tm
            lam_at[mi, jr[hit]] = new[hit]
        nxt[jr] = t + hold
    return {"regime": lam, "regime_at": lam_at}


def test_chain_marks_as_barriers_equal_per_pass_marks():
    q = _rate_table_q(_banded_rates(5, 2, seed=12), kappa=2)
    reps = np.arange(2000, dtype=np.uint64)
    T = 2.0
    marks = (1.5, 0.3, 0.3, 0.0, T, 3.5, 1.0, -1.0)
    for i0 in (1, 4):
        got = run_chain(q, i0, T, NoiseStream(19), reps, t_marks=marks)
        want = _chain_with_per_pass_marks(q, i0, T, NoiseStream(19), reps,
                                          marks)
        assert _bits(got["regime"]) == _bits(want["regime"])
        assert _bits(got["regime_at"]) == _bits(want["regime_at"])
        assert len(np.unique(got["regime_at"][1])) == 5
    with pytest.raises(ValueError, match="mark times must be numbers"):
        run_chain(q, 1, T, NoiseStream(19), reps, t_marks=(0.5, math.nan))


def test_duplicate_replica_ids_share_randomness(ou_model):
    st = NoiseStream(31)
    reps = np.array([4, 4], dtype=np.uint64)
    x0 = np.array([[0.2], [0.2]])
    out = run_event_driven(ou_model, x0, 1, 0.5, 0.01, st, reps)
    assert out["x"][0] == out["x"][1]
    assert out["regime"][0] == out["regime"][1]


# --- exact OU segments -------------------------------------------------------------

def _ou_mean(beta, a, x, T):
    if beta == 0:
        return x + a * T
    return math.exp(-beta * T) * x + a * (1.0 - math.exp(-beta * T)) / beta


@pytest.mark.parametrize("beta", [1.3, 0.0, -0.8])
@pytest.mark.parametrize("track_xmax", [False, True])
def test_deterministic_linear_flow_is_exact(beta, track_xmax):
    # sigma = 0 and the same drift in both regimes: the chain switches, the
    # flow does not care, and X_T is the closed form whatever the grid
    m = s.linear_switching_model(dim=1, beta=(beta, beta), a=(0.7, 0.7),
                                 s=(0.0, 0.0))
    reps = np.arange(50, dtype=np.uint64)
    out = run_event_driven(m, np.array([1.5]), 1, 1.0, 1e-3, NoiseStream(8),
                           reps, track_xmax=track_xmax)
    assert np.isfinite(out["eta"]).any()
    want = _ou_mean(beta, 0.7, 1.5, 1.0)
    assert out["x"][:, 0] == pytest.approx(np.full(50, want), rel=1e-12)
    if track_xmax:
        assert np.all(out["xnorm_max"] >= np.abs(out["x"][:, 0]))


@pytest.mark.parametrize("beta", [1.5, 0.0, -0.6])
def test_one_regime_law_matches_closed_form(beta):
    a, sig, x, T, n = 0.4, 0.8, 1.0, 0.7, 200_000
    m = s.linear_switching_model(dim=1, beta=(beta,), a=(a,), s=(sig,),
                                 rates=np.zeros((1, 1)))
    out = run_event_driven(m, np.array([x]), 1, T, 1e-3, NoiseStream(19),
                           np.arange(n, dtype=np.uint64))
    X = out["x"][:, 0]
    mean = _ou_mean(beta, a, x, T)
    var = (sig ** 2 * T if beta == 0
           else sig ** 2 * (1.0 - math.exp(-2 * beta * T)) / (2 * beta))
    assert abs(X.mean() - mean) <= 3 * math.sqrt(var / n)
    assert abs(X.var(ddof=1) - var) <= 3 * var * math.sqrt(2.0 / (n - 1))


def test_stacked_rows_differ_by_the_decayed_start_gap():
    # one beta, regime-dependent offsets and noise: rows on one skeleton and
    # one noise stream differ by e^{-beta T} (x - y) alone
    beta, T, n = 1.2, 0.9, 400
    m = s.linear_switching_model(dim=2, beta=(beta, beta), a=(0.5, -0.3),
                                 s=(1.0, 0.4))
    x, y = np.array([0.8, -0.2]), np.array([-0.5, 0.6])
    ids = np.tile(np.arange(n, dtype=np.uint64), 2)
    x0 = np.vstack([np.tile(x, (n, 1)), np.tile(y, (n, 1))])
    out = run_event_driven(m, x0, 1, T, 1e-3, NoiseStream(3), ids)
    assert np.isfinite(out["eta"][:n]).any()
    assert np.array_equal(out["regime"][:n], out["regime"][n:])
    gap = out["x"][:n] - out["x"][n:]
    assert np.allclose(gap, math.exp(-beta * T) * (x - y), rtol=0, atol=1e-12)


def test_terminal_linear_run_draws_per_segment(monkeypatch):
    # terminal values of a linear model need one normal per segment, not one
    # per dt step (1000 here)
    drawn = []

    def counting(*args, draw=engine.keyed_normal):
        out = draw(*args)
        drawn.append(np.size(out))
        return out

    m = s.zoo("switching_ou")
    n = 2000
    monkeypatch.setattr(engine, "keyed_normal", counting)
    out = run_event_driven(m, np.zeros(1), 1, 1.0, 1e-3, NoiseStream(5),
                           np.arange(n, dtype=np.uint64))
    assert np.isfinite(out["x"]).all()
    assert 0 < sum(drawn) < 10 * n


def _random_state_dependent_model(rng, d):
    """Banded rates scaled by a bounded function of |x|; per-regime linear
    drift and a scalar or matrix diffusion, through callbacks only."""
    kappa = int(rng.integers(1, 3))
    base = rng.uniform(0.5, 3.0, size=(6, 2 * kappa + 1))

    def rate(x, i, j):
        if i == j or abs(j - i) > kappa or not 1 <= j <= 6:
            return 0.0
        r = float(np.linalg.norm(x))
        return float(base[i - 1, j - i + kappa] * (1.0 + r / (1.0 + r)))

    q = s.QMatrixSpec(rate=rate, kappa=kappa, lipschitz_cq=3.0,
                      linear_bound_alpha=12.0, n_regimes=6)
    beta = rng.uniform(0.3, 2.0, size=6)
    sig = rng.uniform(0.3, 1.2, size=(6, d, d))
    return s.ModelSpec(dim=d, q=q,
                       drift=lambda t, x, i: -beta[i - 1] * np.asarray(x, float),
                       diffusion=lambda t, x, i: (float(sig[i - 1, 0, 0]) if i % 2
                                                  else sig[i - 1]),
                       growth_c=lambda t: 2.0, dissipativity_c=lambda t, i: 1.0,
                       diffusion_mod_c=lambda t, i: 1.0,
                       ellipticity_lambda=lambda t: 0.3, model_id="sd_random")


def _frozen_reference(model, x0, i0, T, dt, stream, replica, K):
    """The frozen-rate scheme for one replica, one scalar step at a time
    (the loop ``run_frozen`` replaced): clock at jump index 2g, mark at
    2g + 1, Euler draws at 2dg + c before a switch and 2dg + d + c after it.
    Rates come straight from the callback, so the reference shares no code
    with the interval layout: the row sum adds the band's rates in
    ascending order, and the destination is the first whose running sum
    exceeds ``u * q_i``. Returns the final state, eta, tau_K and the maxima
    of |X| and regime."""
    d = model.dim
    q = model.q
    x, i = np.array(x0, dtype=float), int(i0)
    norm = lambda v: float(np.sqrt(np.add.reduce(v * v)))
    eta, tau = math.inf, 0.0 if norm(x) + i > K else math.inf
    xmax, imax = norm(x), i

    def euler(t, x, i, h, base):
        xi = stream.normal(replica, LANE_EULER,
                           np.arange(base, base + d, dtype=np.uint64))
        b = np.asarray(model.drift(t, x, i), dtype=float)
        return x + b * h + s.apply_diffusion(model.diffusion(t, x, i),
                                             math.sqrt(h) * xi)

    def row(x, i):
        js = q.band(i)
        return js, [float(q.rate(x, i, j)) for j in js]

    def total(rates):
        acc = 0.0
        for r in rates:
            acc += r
        return acc

    def destination(x, i, u):
        js, rates = row(x, i)
        qi = total(rates)
        if qi <= 0.0:
            return i  # an empty row at the switch point
        v, acc = u * qi, 0.0
        for j, r in zip(js, rates):
            acc += r
            if acc > v:
                return j
        return js[-1]  # u * q_i rounded up to q_i

    def seen(t, x, i):
        nonlocal tau, xmax, imax
        xmax, imax = max(xmax, norm(x)), max(imax, i)
        if math.isinf(tau) and norm(x) + i > K:
            tau = t

    for g in range(s.SimConfig(horizon=T, dt=dt).n_steps()):
        t0 = g * dt
        t1 = min(T, t0 + dt)
        qi = total(row(x, i)[1])
        E = float(stream.exponential(replica, LANE_JUMP, 2 * g))
        s_rel = E / qi if qi > 0 else math.inf
        x = euler(t0, x, i, min(s_rel, t1 - t0), 2 * d * g)
        if s_rel < t1 - t0:
            sw = t0 + s_rel
            u = float(stream.uniform(replica, LANE_JUMP, 2 * g + 1))
            j = destination(x, i, u)
            if j != i and math.isinf(eta):
                eta = sw
            i = j
            seen(sw, x, i)
            x = euler(sw, x, i, t1 - sw, 2 * d * g + d)
        seen(t1, x, i)
    return x, i, eta, tau, xmax, imax


@pytest.mark.filterwarnings("ignore::switchsde.errors.StiffSwitchingWarning")
def test_frozen_batch_rows_match_singleton_paths():
    rng = np.random.default_rng(41)
    reps = np.array([3, 8, 21, 8, 0], dtype=np.uint64)
    for trial in range(6):
        d = 1 + trial % 3
        m = _random_state_dependent_model(rng, d)
        x0 = rng.uniform(-1.0, 1.0, d)
        K = 2.5 + trial % 2
        c = cfg(T=0.6, dt=0.01, seed=60 + trial, K=K)
        out = run_frozen(m, x0, 1 + trial % 3, c.horizon, c.dt,
                         NoiseStream(c.seed), reps, trunc_level=K,
                         track_xmax=True)
        assert not out["aborted"].any()
        for k, rep in enumerate(reps):
            tr = s.simulate_path(m, x0, 1 + trial % 3, c, replica=int(rep))
            assert np.array_equal(out["x"][k], tr.x[-1])
            assert out["regime"][k] == tr.regime[-1]
            assert out["eta"][k] == tr.eta
            assert out["tau_k"][k] == tr.tau_k
            assert out["regime_max"][k] == tr.regime.max()
            assert out["xnorm_max"][k] == np.linalg.norm(tr.x, axis=1).max()
            x, i, eta, tau, xmax, imax = _frozen_reference(
                m, x0, 1 + trial % 3, c.horizon, c.dt, NoiseStream(c.seed),
                int(rep), K)
            assert np.array_equal(out["x"][k], x) and out["regime"][k] == i
            assert (out["eta"][k], out["tau_k"][k]) == (eta, tau)
            assert (out["xnorm_max"][k], out["regime_max"][k]) == (xmax, imax)
        # duplicated replica ids share every draw
        assert np.array_equal(out["x"][1], out["x"][3])
        assert out["eta"][1] == out["eta"][3]


def _recorded_cases(scheme):
    """(model, x0 (n, d), i0 (n,)) triples a recorded batch runs under
    ``scheme``; the overflowing model's rows started at 1 blow up."""
    rng = np.random.default_rng(29)
    n = 6
    bd = s.zoo("birth_death_switch")
    blowup = (_overflowing_model(state_independent=True),
              np.array([[1.0], [0.0], [1.0], [0.0]]), np.ones(4, dtype=int))
    models = [(bd, rng.uniform(-1.0, 1.0, (n, 1)), rng.integers(1, 5, n)),
              blowup]
    if scheme == s.EVENT_DRIVEN:
        ou = s.zoo("switching_ou", dim=2, beta=(1.0, 2.0), a=(0.0, 0.5),
                   s=(1.0, 0.5))
        models.append((ou, rng.uniform(-1.0, 1.0, (n, 2)),
                       rng.integers(1, 3, n)))
    else:
        sd = _random_state_dependent_model(rng, 2)
        models.append((sd, rng.uniform(-1.0, 1.0, (n, 2)),
                       rng.integers(1, 7, n)))
    return models


@pytest.mark.filterwarnings("ignore::switchsde.errors.StiffSwitchingWarning",
                            "ignore:overflow", "ignore:invalid value")
@pytest.mark.parametrize("scheme", [s.FROZEN_RATE, s.EVENT_DRIVEN])
def test_recorded_batch_rows_match_one_row_runs(scheme):
    runner = run_event_driven if scheme == s.EVENT_DRIVEN else run_frozen
    for m, x0, i0 in _recorded_cases(scheme):
        n = len(i0)
        seeds = [3 + 11 * r for r in range(n)]
        reps = np.array([7, 0, 7, 2 ** 33, 5, 1][:n], dtype=np.uint64)
        out = runner(m, x0, i0, 0.8, 0.02, NoiseStream(seeds), reps,
                     trunc_level=4.5, record=True)
        for r in range(n):
            c = cfg(T=0.8, dt=0.02, scheme=scheme, seed=seeds[r], K=4.5)
            try:
                one = s.simulate_path(m, x0[r], int(i0[r]), c,
                                      replica=int(reps[r]))
            except s.NumericalBlowupError as exc:
                with pytest.raises(s.NumericalBlowupError) as got:
                    engine.recorded_path(out, r)
                assert (got.value.t, got.value.regime) == (exc.t, exc.regime)
                assert np.array_equal(got.value.x, exc.x, equal_nan=True)
                continue
            row = engine.recorded_path(out, r, seed=seeds[r])
            assert np.array_equal(row.times, one.times)
            assert np.array_equal(row.x, one.x)
            assert np.array_equal(row.regime, one.regime)
            assert row.jumps == one.jumps
            assert (row.eta, row.tau_k, row.seed) == (one.eta, one.tau_k,
                                                      one.seed)
            assert row.x[-1] == pytest.approx(out["x"][r], abs=0.0)


@pytest.mark.filterwarnings("ignore::switchsde.errors.StiffSwitchingWarning")
def test_frozen_switch_restarts_in_new_regime():
    # regime 1 holds still, regime 2 moves at unit speed and never leaves:
    # the part of the switching step after the switch already moves
    q = s.QMatrixSpec(rate=lambda x, i, j: 3.0 if (i, j) == (1, 2) else 0.0,
                      kappa=1, n_regimes=2)
    m = s.ModelSpec(dim=1, q=q,
                    drift=lambda t, x, i: np.full_like(np.asarray(x, float),
                                                       float(i == 2)),
                    diffusion=lambda t, x, i: 0.0, growth_c=lambda t: 1.0,
                    dissipativity_c=lambda t, i: 1.0,
                    diffusion_mod_c=lambda t, i: 1.0,
                    ellipticity_lambda=lambda t: 1.0)
    switched = 0
    for rep in range(10):
        tr = s.simulate_path(m, [0.0], 1, cfg(T=1.0, dt=0.1, seed=4),
                             replica=rep)
        if math.isfinite(tr.eta):
            switched += 1
            assert tr.x[-1, 0] == pytest.approx(1.0 - tr.eta, abs=1e-12)
    assert switched >= 5


@pytest.mark.filterwarnings("ignore::switchsde.errors.StiffSwitchingWarning")
def test_frozen_switch_into_an_empty_row_is_logged_but_not_tabled():
    # q_12(x) = 30 max(x, 0): a clock armed where x > 0 may fire after the
    # Euler substep has carried x below 0, where row 1 is empty
    def rate(x, i, j):
        if (i, j) == (1, 2):
            return 30.0 * max(float(x[0]), 0.0)
        return 1.0 if (i, j) == (2, 1) else 0.0

    m = s.ModelSpec(dim=1, q=s.QMatrixSpec(rate=rate, kappa=1, n_regimes=2),
                    drift=lambda t, x, i: np.zeros_like(np.asarray(x, float)),
                    diffusion=lambda t, x, i: 2.0, growth_c=lambda t: 4.0,
                    dissipativity_c=lambda t, i: 1.0,
                    diffusion_mod_c=lambda t, i: 1.0,
                    ellipticity_lambda=lambda t: 2.0)
    out = run_frozen(m, [0.0], 1, 1.0, 0.05, NoiseStream(3),
                     np.arange(200, dtype=np.uint64), record=True)
    assert not out["aborted"].any()
    log, sw = out["log"], out["switches"]
    # off the step grid a row is logged only at a switch
    grid = [0.0] + [min(1.0, g * 0.05 + 0.05) for g in range(20)]
    at_switch = np.flatnonzero(~np.isin(log["t"], grid))
    moved = log["regime"][at_switch] != log["regime"][at_switch - 1]
    assert (log["row"][at_switch] == log["row"][at_switch - 1]).all()
    tabled = set(zip(sw["row"].tolist(), sw["t"].tolist()))
    switches = list(zip(log["row"][at_switch].tolist(),
                        log["t"][at_switch].tolist()))
    still = [k for k, mv in zip(switches, moved) if not mv]
    assert (len(switches), len(still)) == (302, 15)
    # every move is tabled, and no switch that left the regime unchanged is
    assert tabled == {k for k, mv in zip(switches, moved) if mv}
    assert len(sw["row"]) == len(tabled)
    # eta is the first tabled switch, never an earlier unchanged one
    for row in range(200):
        times = sw["t"][sw["row"] == row]
        assert out["eta"][row] == (times[0] if times.size else np.inf)
    assert any(out["eta"][r] > t for r, t in still)


# --- guards ------------------------------------------------------------------------

def test_event_driven_needs_state_independent(scalar_rate_q):
    m = s.ModelSpec(dim=1, drift=lambda t, x, i: 0.0 * np.asarray(x),
                    diffusion=lambda t, x, i: 1.0, q=scalar_rate_q,
                    growth_c=lambda t: 1.0, dissipativity_c=lambda t, i: 1.0,
                    diffusion_mod_c=lambda t, i: 1.0,
                    ellipticity_lambda=lambda t: 1.0)
    with pytest.raises(s.UnsupportedSchemeError):
        s.simulate_path(m, [0.0], 1, cfg(scheme=s.EVENT_DRIVEN))
    with pytest.raises(s.UnsupportedSchemeError):
        run_chain(scalar_rate_q, 1, 1.0, NoiseStream(1),
                  np.arange(4, dtype=np.uint64))
    with pytest.raises(s.UnsupportedSchemeError):
        s.zero_layout(scalar_rate_q, 1)


@pytest.mark.parametrize("runner", [run_event_driven, run_frozen])
@pytest.mark.parametrize("i0", [0, -1, 3])
def test_start_regime_outside_space_rejected(ou_model, runner, i0):
    reps = np.arange(4, dtype=np.uint64)
    with pytest.raises(ValueError, match=f"start regime {i0} "):
        runner(ou_model, np.zeros(1), i0, 0.5, 0.1, NoiseStream(1), reps)
    with pytest.raises(ValueError, match=f"start regime {i0} "):
        first_switch_times(ou_model.q, i0, NoiseStream(1).replica_keys(reps))


def test_per_row_start_regimes_name_the_smallest_outside():
    m = s.linear_switching_model(dim=1, beta=(1.0,) * 3, a=(0.0,) * 3,
                                 s=(1.0,) * 3, rates=np.ones((3, 3)))
    reps = np.arange(3, dtype=np.uint64)
    i0 = np.array([1, 9, 5])
    for runner in (run_event_driven, run_frozen):
        with pytest.raises(ValueError, match="start regime 5 "):
            runner(m, np.zeros(1), i0, 0.5, 0.1, NoiseStream(1), reps)
    with pytest.raises(ValueError, match="start regime 5 "):
        first_switch_times(m.q, i0, NoiseStream(1).replica_keys(reps))


@pytest.mark.parametrize("i0, named", [(1.7, "1.7"), (np.nan, "nan"),
                                       (np.array([1.0, 1.9, 2.2, 2.0]), "1.9")])
def test_non_integer_start_regimes_rejected(ou_model, i0, named):
    reps = np.arange(4, dtype=np.uint64)
    match = f"start regime {named} is not an integer"
    for runner in (run_event_driven, run_frozen):
        with pytest.raises(ValueError, match=match):
            runner(ou_model, np.zeros(1), i0, 0.5, 0.1, NoiseStream(1), reps)
    with pytest.raises(ValueError, match=match):
        first_switch_times(ou_model.q, i0, NoiseStream(1).replica_keys(reps))
    if np.ndim(i0) == 0:
        with pytest.raises(ValueError, match=match):
            s.simulate_path(ou_model, [0.0], i0, cfg(T=0.1))


def test_integral_float_start_regimes_accepted(ou_model):
    reps = np.arange(4, dtype=np.uint64)
    for runner in (run_event_driven, run_frozen):
        a = runner(ou_model, np.zeros(1), 2.0, 0.5, 0.1, NoiseStream(1), reps)
        b = runner(ou_model, np.zeros(1), 2, 0.5, 0.1, NoiseStream(1), reps)
        assert np.array_equal(a["x"], b["x"])
    keys = NoiseStream(1).replica_keys(reps)
    assert np.array_equal(first_switch_times(ou_model.q, np.full(4, 2.0), keys),
                          first_switch_times(ou_model.q, 2, keys))
    assert s.simulate_path(ou_model, [0.0], 2.0, cfg(T=0.1)).regime[0] == 2


def test_countable_space_has_no_top_regime():
    bd = s.zoo("birth_death_switch")
    out = run_event_driven(bd, np.zeros(1), 40, 0.1, 0.01, NoiseStream(2),
                           np.arange(8, dtype=np.uint64))
    assert np.isfinite(out["x"]).all()
    with pytest.raises(ValueError, match="start regime 0 "):
        run_frozen(bd, np.zeros(1), 0, 0.1, 0.01, NoiseStream(2),
                   np.arange(8, dtype=np.uint64))


def test_explosive_chain_raises_instead_of_hanging():
    # up-rate i^2 breaks the certificate q_i <= alpha i (alpha = 1) from
    # regime 2 on; such a chain explodes, so a run would never end
    q = s.QMatrixSpec(rate=lambda x, i, j: float(i * i) if j == i + 1 else 0.0,
                      kappa=1, linear_bound_alpha=1.0, state_independent=True)
    m = s.ModelSpec(dim=1, drift=lambda t, x, i: -np.asarray(x, dtype=float),
                    diffusion=lambda t, x, i: 1.0, q=q,
                    growth_c=lambda t: 1.0, dissipativity_c=lambda t, i: 1.0,
                    diffusion_mod_c=lambda t, i: 1.0,
                    ellipticity_lambda=lambda t: 1.0)
    reps = np.arange(20, dtype=np.uint64)
    message = r"q_2 = 4 exceeds the certificate alpha\*k = 2 at regime k = 2"
    with pytest.raises(s.InvalidModelError, match=message):
        run_event_driven(m, np.zeros(1), 1, 2.0, 0.01, NoiseStream(1), reps)
    with pytest.raises(s.InvalidModelError, match=message):
        run_chain(q, 1, 2.0, NoiseStream(1), reps)
    with pytest.raises(s.InvalidModelError, match=message):
        first_switch_times(q, 2, NoiseStream(1).replica_keys(reps))
    # a NaN certificate certifies nothing
    nan_q = s.QMatrixSpec(rate=lambda x, i, j: 1.0, kappa=1,
                          linear_bound_alpha=math.nan, state_independent=True)
    with pytest.raises(s.InvalidModelError, match="regime k = 1"):
        run_chain(nan_q, 1, 2.0, NoiseStream(1), reps)


def _pure_birth_q(bad_rows):
    # up-rate 1 from every regime but ``bad_rows``, whose rate 5 breaks the
    # certificate q_i <= alpha i (alpha = 1) on the infinite regime space
    return s.QMatrixSpec(
        rate=lambda x, i, j: (5.0 if i in bad_rows else 1.0) * (j == i + 1),
        kappa=1, linear_bound_alpha=1.0, state_independent=True)


def _drifting(q):
    return s.ModelSpec(dim=1, drift=lambda t, x, i: -np.asarray(x, dtype=float),
                       diffusion=lambda t, x, i: 1.0, q=q,
                       growth_c=lambda t: 1.0, dissipativity_c=lambda t, i: 1.0,
                       diffusion_mod_c=lambda t, i: 1.0,
                       ellipticity_lambda=lambda t: 1.0)


def test_rows_are_built_and_certified_only_where_the_chain_goes():
    reps = np.arange(30, dtype=np.uint64)
    # above the bad row the chain only climbs, so row 2 is never built
    q = _pure_birth_q({2})
    out = run_chain(q, 3, 2.0, NoiseStream(1), reps, t_marks=(1.0,))
    assert (out["regime"] > 3).any() and (out["regime"] >= 3).all()
    run_event_driven(_drifting(q), np.zeros(1), 3, 2.0, 0.1, NoiseStream(1),
                     reps)
    assert s.zero_layout(q, 3).total == 1.0
    assert 2 not in q._zero_rows[0].layouts
    # from below it reaches row 2 and fails as the per-row reads did
    message = (r"row sum q_2 = 5 exceeds the certificate alpha\*k = 2 at "
               r"regime k = 2; the chain may explode")
    for q in (_pure_birth_q({2}), _pure_birth_q({2, 3})):
        with pytest.raises(s.InvalidModelError, match=message):
            run_chain(q, 1, 2.0, NoiseStream(1), reps)
        with pytest.raises(s.InvalidModelError, match=message):
            run_event_driven(_drifting(q), np.zeros(1), 1, 2.0, 0.1,
                             NoiseStream(1), reps)
    # two bad rows in one batch: the lower one raises first
    keys = NoiseStream(1).replica_keys(np.arange(4, dtype=np.uint64))
    with pytest.raises(s.InvalidModelError, match=message):
        first_switch_times(_pure_birth_q({2, 3}), np.array([3, 2, 3, 2]), keys)


def test_state_independent_rows_are_built_once_per_spec():
    calls = []

    def rate(x, i, j):
        calls.append((i, j))
        return 0.3 * i + 0.2 * j

    q = s.QMatrixSpec(rate=rate, kappa=1, linear_bound_alpha=2.0,
                      state_independent=True, n_regimes=4)
    m = s.ModelSpec(dim=1, drift=lambda t, x, i: -np.asarray(x, dtype=float),
                    diffusion=lambda t, x, i: 1.0, q=q,
                    growth_c=lambda t: 1.0, dissipativity_c=lambda t, i: 1.0,
                    diffusion_mod_c=lambda t, i: 1.0,
                    ellipticity_lambda=lambda t: 1.0)
    reps = np.arange(40, dtype=np.uint64)

    def read_every_row():
        run_chain(q, 1, 3.0, NoiseStream(5), reps)
        run_event_driven(m, np.zeros(1), 2, 1.0, 0.1, NoiseStream(5), reps,
                         record=True)
        first_switch_times(q, 4, NoiseStream(5).replica_keys(reps))
        return s.chain_generator_matrix(q)

    G = read_every_row()
    assert calls
    n_calls = len(calls)
    assert np.array_equal(read_every_row(), G)
    assert len(calls) == n_calls  # every row came from the spec's cache
    # the generator holds the very rates the runners read
    for i in range(1, 5):
        lay = s.zero_layout(q, i)
        assert np.array_equal(G[i - 1, lay.dests - 1], lay.rates)
    # a copy of the spec starts with no rows
    assert np.array_equal(s.chain_generator_matrix(replace(q, rate=rate)), G)
    assert len(calls) > n_calls


# --- jump marks against the interval layout ----------------------------------

def _assert_marks_match_layout(q, traj, x_at_switch):
    for jr in traj.jumps:
        lay = s.row_layout(q, x_at_switch(traj, jr), jr.src)
        assert lay.start <= jr.mark < lay.start + lay.total
        assert int(lay.displacement(jr.mark)) == jr.dst - jr.src


def test_frozen_marks_land_in_destination_interval():
    # five regimes, kappa = 2, rates growing with |x|: every block but the
    # first starts past zero and most rows hold several nonempty intervals
    def rate(x, i, j):
        if i == j or abs(j - i) > 2 or not 1 <= j <= 5:
            return 0.0
        return (1.0 + abs(float(np.atleast_1d(x)[0]))) * (0.5 + 0.3 * j) / abs(j - i)
    q = s.QMatrixSpec(rate=rate, kappa=2, lipschitz_cq=2.0,
                      linear_bound_alpha=8.0, linear_bound_beta=8.0,
                      n_regimes=5)
    m = s.ModelSpec(dim=1, drift=lambda t, x, i: -np.asarray(x, dtype=float),
                    diffusion=lambda t, x, i: 1.0, q=q,
                    growth_c=lambda t: 1.5, dissipativity_c=lambda t, i: 1.0,
                    diffusion_mod_c=lambda t, i: 1.0,
                    ellipticity_lambda=lambda t: 1.0, model_id="sd5")

    def x_at_switch(traj, jr):
        k = int(np.searchsorted(traj.times, jr.time))
        assert traj.times[k] == jr.time and traj.regime[k] == jr.dst
        return traj.x[k]

    seen = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", s.StiffSwitchingWarning)
        for rep in range(20):
            traj = s.simulate_path(m, [0.3], 1 + rep % 5, cfg(T=2.0, seed=17),
                                   replica=rep)
            _assert_marks_match_layout(q, traj, x_at_switch)
            seen += len(traj.jumps)
    assert seen >= 50


def test_event_driven_marks_land_in_destination_interval():
    rates = np.array([[0.0, 1.0, 2.0, 0.0], [1.5, 0.0, 0.5, 1.0],
                      [0.7, 1.2, 0.0, 0.9], [0.0, 2.0, 1.0, 0.0]])
    m = s.linear_switching_model(dim=1, beta=(1.0,) * 4, a=(0.0,) * 4,
                                 s=(1.0,) * 4, rates=rates)
    seen = 0
    for rep in range(20):
        traj = s.simulate_path(
            m, [0.0], 1 + rep % 4, cfg(T=3.0, scheme=s.EVENT_DRIVEN, seed=23),
            replica=rep)
        _assert_marks_match_layout(m.q, traj, lambda traj, jr: np.zeros(1))
        seen += len(traj.jumps)
    assert seen >= 50


def test_stiff_switching_warns():
    rates = np.array([[0.0, 50.0], [50.0, 0.0]])
    m = s.linear_switching_model(beta=(1.0, 1.0), a=(0.0, 0.0), s=(1.0, 1.0),
                                 rates=rates)
    with pytest.warns(s.StiffSwitchingWarning):
        s.simulate_path(m, [0.0], 1, cfg(T=0.1, dt=0.05))


def test_sim_config_validation():
    with pytest.raises(ValueError):
        s.SimConfig(horizon=1.0, dt=0.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="dt"):
            s.SimConfig(horizon=1.0, dt=bad)
        with pytest.raises(ValueError, match="horizon"):
            s.SimConfig(horizon=bad, dt=0.1)
    with pytest.raises(ValueError):
        s.SimConfig(horizon=1.0, dt=0.1, scheme="magic")
    for bad in ("abc", [3], math.nan, math.inf):
        with pytest.raises(ValueError, match="truncation"):
            s.SimConfig(horizon=1.0, dt=0.1, truncation=bad)
    assert s.SimConfig(horizon=1.0, dt=0.1, truncation=2.5).truncation == 2.5


def _within(seconds, fn):
    """``fn()``, failed by an alarm after ``seconds`` instead of hanging."""
    def stop(signum, frame):
        raise AssertionError(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, stop)
    signal.alarm(seconds)
    try:
        return fn()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


@pytest.mark.parametrize("T, dt, named", [
    (math.inf, 0.1, "horizon"), (math.nan, 0.1, "horizon"),
    (-1.0, 0.1, "horizon"), (1.0, 0.0, "dt"), (1.0, math.nan, "dt")])
@pytest.mark.parametrize("runner", [run_frozen, run_event_driven])
def test_runners_refuse_a_bad_horizon(runner, T, dt, named):
    reps = np.arange(3, dtype=np.uint64)
    with pytest.raises(ValueError, match=rf"{named} must be"):
        _within(5, lambda: runner(s.zoo("switching_ou"), [0.0], 1, T, dt,
                                  NoiseStream(1), reps))


@pytest.mark.parametrize("T", [math.inf, math.nan, -1.0])
def test_run_chain_refuses_a_bad_horizon(T):
    q = s.zoo("switching_ou").q
    with pytest.raises(ValueError, match="horizon must be nonnegative"):
        _within(5, lambda: run_chain(q, 1, T, NoiseStream(1),
                                     np.arange(3, dtype=np.uint64)))
    with pytest.raises(ValueError, match="must be nonnegative"):
        _within(5, lambda: s.chain_marginal_check(
            s.zoo("switching_ou"), [T], 100,
            cfg(scheme=s.EVENT_DRIVEN)))


def test_zero_horizon_returns_the_start():
    reps = np.arange(3, dtype=np.uint64)
    for runner in (run_frozen, run_event_driven):
        out = runner(s.zoo("switching_ou"), [0.5], 2, 0.0, 0.1,
                     NoiseStream(1), reps)
        assert (out["x"] == 0.5).all() and (out["regime"] == 2).all()
    q = s.zoo("switching_ou").q
    assert (run_chain(q, 2, 0.0, NoiseStream(1), reps)["regime"] == 2).all()


def _overflowing_model(state_independent=False):
    return s.ModelSpec(dim=1,
                       drift=lambda t, x, i: 1e308 * np.asarray(x, float),
                       diffusion=lambda t, x, i: 0.0,
                       q=s.QMatrixSpec(rate=lambda x, i, j: 0.0, kappa=1,
                                       state_independent=state_independent),
                       growth_c=lambda t: 1.0,
                       dissipativity_c=lambda t, i: 1.0,
                       diffusion_mod_c=lambda t, i: 1.0,
                       ellipticity_lambda=lambda t: 1.0)


@pytest.mark.filterwarnings("ignore:overflow")
def test_frozen_path_blowup_raises():
    with pytest.raises(s.NumericalBlowupError) as exc:
        s.simulate_path(_overflowing_model(), [1.0], 1, cfg(T=0.5, dt=0.1))
    # x = 1e307 after the first step; the second step's drift overflows
    assert exc.value.t == 0.2
    assert exc.value.regime == 1


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
@pytest.mark.parametrize("scheme", [s.FROZEN_RATE, s.EVENT_DRIVEN])
def test_path_blowup_reports_where_it_died(scheme):
    # the event-driven runner keeps stepping a dead row to the horizon; the
    # recorded path still reports the first state that is not finite
    with pytest.raises(s.NumericalBlowupError) as exc:
        s.simulate_path(_overflowing_model(state_independent=True), [1.0], 1,
                        cfg(T=0.5, dt=0.1, scheme=scheme))
    assert exc.value.t == 0.2
    assert exc.value.regime == 1
    assert not np.isfinite(exc.value.x).all()


@pytest.mark.parametrize("runner", [run_frozen, run_event_driven])
@pytest.mark.parametrize("x0, named", [
    ([math.nan, 0.0], r"\[nan, 0\.0\]"), ([0.0, math.inf], r"\[0\.0, inf\]"),
    ([[0.0, 1.0], [-math.inf, 2.0], [math.nan, 0.0]], r"\[-inf, 2\.0\]"),
])
def test_non_finite_start_points_rejected(runner, x0, named):
    m = s.zoo("switching_ou", dim=2)
    reps = np.arange(3, dtype=np.uint64)
    with pytest.raises(ValueError, match=rf"start point {named} is not"):
        runner(m, x0, 1, 0.5, 0.1, NoiseStream(1), reps)


def test_nan_start_refused_before_truncation():
    with pytest.raises(ValueError, match="need"):
        engine.check_truncation_start([math.nan], 1, 5)
    with pytest.raises(ValueError, match="need"):
        s.simulate_truncated(s.zoo("birth_death_switch"), [math.nan], 1, 5,
                             cfg())


def test_nan_start_level_is_named_not_finite():
    with pytest.raises(ValueError, match=r"need \|x0\| \+ i0 < K, got a start "
                                         "level nan that is not finite"):
        engine.check_truncation_start([[0.0], [math.nan]], 1, 5)
    with pytest.raises(ValueError, match=r"got 8\.0 >= 5"):
        engine.check_truncation_start([7.0], 1, 5)
