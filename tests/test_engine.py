import math
import warnings

import numpy as np
import pytest

import switchsde as s
from switchsde.engine import run_chain, run_event_driven
from switchsde.noise import NoiseStream


def cfg(T=1.0, dt=0.01, scheme=s.FROZEN_RATE, seed=101, K=None):
    return s.SimConfig(horizon=T, dt=dt, truncation=K, seed=seed, scheme=scheme)


# --- step_euler ---------------------------------------------------------------

def test_step_euler_deterministic_drift(ou_model):
    m = s.linear_switching_model(dim=1, beta=(1.0,), a=(0.0,), s=(0.0,),
                                 rates=np.zeros((1, 1)))
    out = s.step_euler(m, 0.0, [1.0], 1, 0.1, [0.0])
    assert out[0] == pytest.approx(0.9)


def test_step_euler_pure_noise():
    m = s.linear_switching_model(dim=2, beta=(0.0,), a=(0.0,), s=(1.0,),
                                 rates=np.zeros((1, 1)))
    dw = np.array([0.3, -0.2])
    out = s.step_euler(m, 0.0, [1.0, 1.0], 1, 0.05, dw)
    assert np.allclose(out, [1.3, 0.8])


def test_step_euler_blowup_carries_state():
    m = s.ModelSpec(dim=1, drift=lambda t, x, i: np.full_like(x, np.inf),
                    diffusion=lambda t, x, i: 0.0,
                    q=s.QMatrixSpec(rate=lambda x, i, j: 0.0, kappa=1),
                    growth_c=lambda t: 1.0, dissipativity_c=lambda t, i: 1.0,
                    diffusion_mod_c=lambda t, i: 1.0,
                    ellipticity_lambda=lambda t: 1.0)
    with pytest.raises(s.NumericalBlowupError) as exc:
        s.step_euler(m, 0.5, [2.0], 1, 0.1, [0.0])
    assert exc.value.t == 0.5
    assert exc.value.regime == 1


def test_step_euler_strong_self_convergence():
    # 64 independent scalar OUs packed as one 64-dimensional state
    M = 64
    m = s.linear_switching_model(dim=M, beta=(1.0,), a=(0.0,), s=(1.0,),
                                 rates=np.zeros((1, 1)))
    rng = np.random.default_rng(12)
    n_fine = 2 ** 10
    dt_fine = 1.0 / n_fine
    dW = rng.normal(0.0, math.sqrt(dt_fine), size=(n_fine, M))
    x_ref = np.full(M, 1.0)
    for k in range(n_fine):
        x_ref = s.step_euler(m, k * dt_fine, x_ref, 1, dt_fine, dW[k])
    errs = []
    dts = [2.0 ** -p for p in (4, 5, 6, 7, 8)]
    for dt in dts:
        stride = int(round(dt * n_fine))
        x = np.full(M, 1.0)
        for k in range(n_fine // stride):
            inc = dW[k * stride:(k + 1) * stride].sum(axis=0)
            x = s.step_euler(m, k * dt, x, 1, dt, inc)
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
        traj = s.simulate(m, [0.1, -0.2], 1, cfg(T=0.6, scheme=scheme,
                                                 seed=trial), replica=trial)
        assert np.all(np.diff(traj.times) > 0)
        assert traj.regime.min() >= 1
        for j in traj.jumps:
            assert abs(j.dst - j.src) <= m.q.kappa
        if traj.jumps:
            assert traj.eta == pytest.approx(traj.jumps[0].time)


def test_exponential_holding_law(ou_model):
    # from regime 1 the exit rate is 1 (single destination)
    st = NoiseStream(77)
    out = run_chain(ou_model.q, 1, 50.0, st, np.arange(60_000, dtype=np.uint64))
    eta = out["eta"]
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
        traj = s.simulate_state_independent(m3, [0.0], 1,
                                            cfg(T=2.0, scheme=s.EVENT_DRIVEN,
                                                seed=9), replica=rep)
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
        traj = s.simulate_state_independent(m, [1.0], 1,
                                            cfg(T=1.0, dt=1e-3,
                                                scheme=s.EVENT_DRIVEN, seed=3),
                                            replica=rep)
        # sigma = 0 and identical drift: X_T = e^{-T} x0 up to Euler bias
        assert traj.x[-1, 0] == pytest.approx(math.exp(-1.0), abs=2e-3)
        total_jumps += len(traj.jumps)
    assert total_jumps >= 1  # chains did switch; the paths didn't care


def test_reproducibility_and_coupling(ou_model):
    c = cfg(T=0.8, scheme=s.EVENT_DRIVEN, seed=22)
    t1 = s.simulate(ou_model, [0.4], 1, c, replica=5)
    t2 = s.simulate(ou_model, [0.4], 1, c, replica=5)
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
    assert np.array_equal(chain["regime"], full["regime"])
    assert np.array_equal(chain["eta"], full["eta"])


def test_duplicate_replica_ids_share_randomness(ou_model):
    st = NoiseStream(31)
    reps = np.array([4, 4], dtype=np.uint64)
    x0 = np.array([[0.2], [0.2]])
    out = run_event_driven(ou_model, x0, 1, 0.5, 0.01, st, reps)
    assert out["x"][0] == out["x"][1]
    assert out["regime"][0] == out["regime"][1]


# --- guards ------------------------------------------------------------------------

def test_event_driven_needs_state_independent(scalar_rate_q):
    m = s.ModelSpec(dim=1, drift=lambda t, x, i: 0.0 * np.asarray(x),
                    diffusion=lambda t, x, i: 1.0, q=scalar_rate_q,
                    growth_c=lambda t: 1.0, dissipativity_c=lambda t, i: 1.0,
                    diffusion_mod_c=lambda t, i: 1.0,
                    ellipticity_lambda=lambda t: 1.0)
    with pytest.raises(s.UnsupportedSchemeError):
        s.simulate_state_independent(m, [0.0], 1, cfg(scheme=s.EVENT_DRIVEN))


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
        traj = s.simulate_state_independent(
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


@pytest.mark.filterwarnings("ignore:overflow")
def test_frozen_path_blowup_raises():
    m = s.ModelSpec(dim=1,
                    drift=lambda t, x, i: 1e308 * np.asarray(x, float),
                    diffusion=lambda t, x, i: 0.0,
                    q=s.QMatrixSpec(rate=lambda x, i, j: 0.0, kappa=1),
                    growth_c=lambda t: 1.0, dissipativity_c=lambda t, i: 1.0,
                    diffusion_mod_c=lambda t, i: 1.0,
                    ellipticity_lambda=lambda t: 1.0)
    with pytest.raises(s.NumericalBlowupError):
        s.simulate_path(m, [1.0], 1, cfg(T=0.5, dt=0.1))
