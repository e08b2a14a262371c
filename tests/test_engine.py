import math
import warnings

import numpy as np
import pytest

import switchsde as s
from switchsde import engine
from switchsde.engine import (euler_step, first_switch_times, run_chain,
                              run_event_driven, run_frozen)
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

    ta, tb, zeta = s.coupled_simulate(ou_model, ([0.4], 1), ([0.4], 1), c,
                                      replica=5)
    assert np.array_equal(ta.x, tb.x)
    assert np.array_equal(ta.regime, tb.regime)
    assert math.isinf(zeta)


def test_state_independent_coupling_never_separates(ou_model):
    for scheme in (s.FROZEN_RATE, s.EVENT_DRIVEN):
        for rep in range(8):
            _, _, zeta = s.coupled_simulate(ou_model, ([0.0], 1), ([3.0], 1),
                                            cfg(T=1.0, scheme=scheme, seed=7),
                                            replica=rep)
            assert math.isinf(zeta)


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
    seps = sum(
        math.isfinite(s.coupled_simulate(m, ([0.0], 1), ([3.0], 1),
                                         cfg(T=2.0, dt=0.02, seed=13),
                                         replica=r)[2])
        for r in range(40))
    assert seps >= 10


def test_initially_different_regimes_separate_at_zero(ou_model):
    _, _, zeta = s.coupled_simulate(ou_model, ([0.0], 1), ([0.0], 2),
                                    cfg(T=0.3), replica=1)
    assert zeta == 0.0


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
    full = s.simulate_path(ou_model, [0.1], 1,
                           cfg(T=1.0, seed=2, K=60), stream=NoiseStream(101))
    trunc = s.simulate_truncated(ou_model, [0.1], 1, 60, cfg(T=1.0, seed=2),
                                 stream=NoiseStream(101))
    assert np.array_equal(full.x, trunc.x)


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
    Returns the final state, eta, tau_K and the maxima of |X| and regime."""
    d = model.dim
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

    def seen(t, x, i):
        nonlocal tau, xmax, imax
        xmax, imax = max(xmax, norm(x)), max(imax, i)
        if math.isinf(tau) and norm(x) + i > K:
            tau = t

    for g in range(s.SimConfig(horizon=T, dt=dt).n_steps()):
        t0 = g * dt
        t1 = min(T, t0 + dt)
        qi = model.q.total_rate(x, i)
        E = float(stream.exponential(replica, LANE_JUMP, 2 * g))
        s_rel = E / qi if qi > 0 else math.inf
        x = euler(t0, x, i, min(s_rel, t1 - t0), 2 * d * g)
        if s_rel < t1 - t0:
            sw = t0 + s_rel
            u = float(stream.uniform(replica, LANE_JUMP, 2 * g + 1))
            j = int(s.row_layout(model.q, x, i).destination(u))
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


# --- guards ------------------------------------------------------------------------

def test_event_driven_needs_state_independent(scalar_rate_q):
    m = s.ModelSpec(dim=1, drift=lambda t, x, i: 0.0 * np.asarray(x),
                    diffusion=lambda t, x, i: 1.0, q=scalar_rate_q,
                    growth_c=lambda t: 1.0, dissipativity_c=lambda t, i: 1.0,
                    diffusion_mod_c=lambda t, i: 1.0,
                    ellipticity_lambda=lambda t: 1.0)
    with pytest.raises(s.UnsupportedSchemeError):
        s.simulate_path(m, [0.0], 1, cfg(scheme=s.EVENT_DRIVEN))


@pytest.mark.parametrize("runner", [run_event_driven, run_frozen])
@pytest.mark.parametrize("i0", [0, -1, 3])
def test_start_regime_outside_space_rejected(ou_model, runner, i0):
    reps = np.arange(4, dtype=np.uint64)
    with pytest.raises(ValueError, match=f"start regime {i0} "):
        runner(ou_model, np.zeros(1), i0, 0.5, 0.1, NoiseStream(1), reps)
    with pytest.raises(ValueError, match=f"start regime {i0} "):
        first_switch_times(ou_model.q, i0, NoiseStream(1).replica_keys(reps))


def test_countable_space_has_no_top_regime():
    bd = s.zoo("birth_death_switch")
    out = run_event_driven(bd, np.zeros(1), 40, 0.1, 0.01, NoiseStream(2),
                           np.arange(8, dtype=np.uint64))
    assert np.isfinite(out["x"]).all()
    with pytest.raises(ValueError, match="start regime 0 "):
        run_frozen(bd, np.zeros(1), 0, 0.1, 0.01, NoiseStream(2),
                   np.arange(8, dtype=np.uint64))


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
