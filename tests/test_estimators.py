import math
from dataclasses import replace

import numpy as np
import pytest

import switchsde as s
from switchsde import estimators, reports
from switchsde.estimators import mc_from_values, wilson_lower


def ecfg(T=1.0, dt=0.01, seed=501, n=10_000):
    return s.SimConfig(horizon=T, dt=dt, seed=seed, scheme=s.EVENT_DRIVEN,
                       replicas=n)


# --- containers ------------------------------------------------------------------

def test_mc_from_values_basic():
    est = mc_from_values(np.array([1.0, 2.0, 3.0, 4.0]))
    assert est.mean == 2.5
    assert est.stderr == pytest.approx(np.std([1, 2, 3, 4], ddof=1) / 2)
    assert est.n_aborted == 0 and not est.flagged


def test_mc_from_values_aborts_flagged():
    vals = np.ones(100)
    vals[:3] = np.nan
    est = mc_from_values(vals)
    assert est.n_aborted == 3
    assert est.flagged
    assert est.mean == 1.0


def test_wilson_lower_values():
    assert wilson_lower(0, 100) == 0.0
    assert wilson_lower(100, 100) == pytest.approx(1 / (1 + 9 / 100))
    w = wilson_lower(50, 100)
    assert 0.3 < w < 0.5
    # more data tightens the bound toward p
    assert wilson_lower(5000, 10000) > w


# --- semigroup / first jump --------------------------------------------------------

def test_semigroup_constant_function(ou_model):
    est = s.semigroup_estimate(ou_model, lambda X, lam: np.ones(len(X)), 0.5,
                               [0.0], 1, 4000, ecfg())
    assert est.mean == 1.0
    assert est.stderr == 0.0


def test_semigroup_pure_chain_oracle():
    m = s.linear_switching_model(dim=1, beta=(0.0, 0.0), a=(0.0, 0.0),
                                 s=(0.0, 0.0))
    est = s.semigroup_estimate(m, lambda X, lam: lam.astype(float), 1.0,
                               [0.0], 1, 60_000, ecfg(seed=71))
    target = 1.0 + (1 - math.exp(-2)) / 2     # 1 + p12(1)
    assert abs(est.mean - target) <= 3 * est.stderr


def test_semigroup_ou_mean():
    m = s.linear_switching_model(dim=1, beta=(1.0,), a=(0.0,), s=(1.0,),
                                 rates=np.zeros((1, 1)))
    est = s.semigroup_estimate(m, lambda X, lam: X[:, 0], 1.0, [1.0], 1,
                               60_000, ecfg(dt=1e-3, seed=72))
    assert abs(est.mean - math.exp(-1)) <= 3 * est.stderr + 1e-2


def test_first_jump_matches_semigroup(ou_model):
    f = s.gauss_function(0.8, [0.2])
    c = ecfg(T=0.6, dt=5e-3, seed=74)
    e1 = s.first_jump_estimate(ou_model, f, 0.6, [0.3], 2, 30_000, c)
    e2 = s.semigroup_estimate(ou_model, f, 0.6, [0.3], 2, 30_000, c)
    assert abs(e1.mean - e2.mean) <= 3 * math.hypot(e1.stderr, e2.stderr)
    assert e1.mean != e2.mean  # the salted substream is genuinely independent


def test_first_jump_needs_state_independence(scalar_rate_q):
    m = s.ModelSpec(dim=1, drift=lambda t, x, i: -np.asarray(x, float),
                    diffusion=lambda t, x, i: 1.0, q=scalar_rate_q,
                    growth_c=lambda t: 1.0, dissipativity_c=lambda t, i: 1.0,
                    diffusion_mod_c=lambda t, i: 1.0,
                    ellipticity_lambda=lambda t: 1.0)
    with pytest.raises(s.UnsupportedSchemeError):
        s.first_jump_estimate(m, s.gauss_function(), 0.5, [0.0], 1, 100, ecfg())


# --- bound checks -------------------------------------------------------------------

def test_moment_bound_constant_path(frozen_model):
    rep = s.moment_bound_check(frozen_model, [1.0], 1, 0.5, 2000, ecfg())
    assert rep.lhs.mean == 2.0       # |x|^2 + i^2 exactly, constant path
    assert rep.lhs.stderr == 0.0
    assert rep.passed
    # rhs = 16/3 * exp(16 kappa^2 (T+1) T) with alpha = beta = 0, c = 1e-9
    expo = (4 + 4 / 3 * 9) * 1e-9 * 0.5 + 8 * 1 * 2 * 1.5 * 0.5
    assert rep.rhs == pytest.approx(16 / 3 * math.exp(expo), rel=1e-9)


def test_moment_bound_on_zoo(ou_model):
    rep = s.moment_bound_check(ou_model, [0.5], 1, 0.5, 4000, ecfg(dt=1e-3))
    assert rep.passed and rep.margin > 0


def test_holding_time_reports(ou_model):
    bd = s.zoo("birth_death_switch")
    reps = s.holding_time_check(bd, [0.0], 2, 5, (0.0, 0.1, 0.5), 30_000,
                                ecfg(seed=81))
    assert all(r.passed for r in reps)
    r0 = reps[0]
    assert r0.lhs.mean == 1.0 and r0.rhs == 1.0   # t = 0: both sides one
    with pytest.raises(ValueError):
        s.holding_time_check(bd, [0.0], 6, 5, (0.1,), 100, ecfg())


_ONE = lambda X, lam: np.ones(len(X))  # noqa: E731
_ESTIMATORS = {
    "semigroup_estimate": lambda m, n: s.semigroup_estimate(
        m, _ONE, 0.5, [0.0], 1, n, ecfg()),
    "first_jump_estimate": lambda m, n: s.first_jump_estimate(
        m, _ONE, 0.5, [0.0], 1, n, ecfg()),
    "moment_bound_check": lambda m, n: s.moment_bound_check(
        m, [0.5], 1, 0.5, n, ecfg()),
    "holding_time_check": lambda m, n: s.holding_time_check(
        m, [0.0], 1, 2, (0.1,), n, ecfg()),
    "harnack_check": lambda m, n: s.harnack_check(
        m, _ONE, [0.1], [0.6], 1, 0.5, n, ecfg()),
    "feller_modulus": lambda m, n: s.feller_modulus(
        m, _ONE, 0.5, [0.0], 1, (0.1,), n, ecfg()),
    "chain_marginal_check": lambda m, n: s.chain_marginal_check(
        m, (0.5,), n, ecfg()),
    "truncation_exit_bound_check": lambda m, n: s.truncation_exit_bound_check(
        m, [0.0], 1, 5, 0.5, n, ecfg()),
}


@pytest.mark.parametrize("n", [0, -3])
@pytest.mark.parametrize("name", sorted(_ESTIMATORS))
def test_estimators_reject_fewer_than_one_replica(ou_model, name, n):
    with pytest.raises(ValueError, match=f"need n >= 1 replicas, got n = {n}"):
        _ESTIMATORS[name](ou_model, n)


def test_frozen_holding_check_rejects_fewer_than_one_replica(scalar_rate_q):
    m = s.ModelSpec(dim=1, drift=lambda t, x, i: -np.asarray(x, float),
                    diffusion=lambda t, x, i: 1.0, q=scalar_rate_q,
                    growth_c=lambda t: 1.0, dissipativity_c=lambda t, i: 1.0,
                    diffusion_mod_c=lambda t, i: 1.0,
                    ellipticity_lambda=lambda t: 1.0)
    with pytest.raises(ValueError, match="got n = 0"):
        _ESTIMATORS["holding_time_check"](m, 0)


# the conditions each bound checker's bound rests on, and a call of it
_MOMENTS = ("band_structure", "coefficient_growth", "rate_linear_growth")
_HOLDING = ("band_structure", "rate_regime_linear")
_TRUNCATION = ("band_structure", "rate_regime_linear", "coefficient_growth")
_GATED = {
    "moment_bound_check": (_MOMENTS, lambda m: s.moment_bound_check(
        m, [0.5], 1, 0.5, 100, ecfg())),
    "holding_time_check": (_HOLDING, lambda m: s.holding_time_check(
        m, [0.0], 1, 2, (0.1, 0.5), 100, ecfg())),
    "truncation_identity_batch": (_TRUNCATION, lambda m: (
        s.truncation_identity_batch(m, [0.0], 1, 5, ecfg(T=0.5), [1, 2]))),
    "truncation_exit_bound_check": (_TRUNCATION, lambda m: (
        s.truncation_exit_bound_check(m, [0.0], 1, 5, 0.5, 100, ecfg()))),
}
_THREE = s.linear_switching_model(dim=1, beta=(1.0,) * 3, a=(0.0,) * 3,
                                  s=(1.0,) * 3, rates=np.ones((3, 3)))
# each breaks the one condition it names, or (a ceiling alpha too low) both
# rate-growth certificates, of which every checker requires only one
_LOW_ALPHA = lambda m: replace(m, q=replace(m.q, linear_bound_alpha=0.1))  # noqa: E731
_BREAK = {
    "band_structure": lambda m: replace(m, q=replace(m.q, kappa=1)),
    "coefficient_growth": lambda m: replace(m, growth_c=lambda t: 1e-6),
    "rate_linear_growth": _LOW_ALPHA,
    "rate_regime_linear": _LOW_ALPHA,
}


@pytest.mark.parametrize("name, condition", [
    (name, cond) for name, (conds, _) in sorted(_GATED.items())
    for cond in conds])
def test_bound_checkers_require_their_conditions(monkeypatch, name,
                                                 condition):
    def runner(*args, **kwargs):
        raise AssertionError("a runner was called")

    for r in ("run_event_driven", "run_frozen", "first_switch_times"):
        monkeypatch.setattr(estimators, r, runner)
    conditions, call = _GATED[name]
    m = _BREAK[condition](_THREE)
    with pytest.raises(s.InvalidModelError,
                       match=f"assumption {condition} failed"):
        call(m)
    # one plan sampled, at t = 0 and the horizon, failing exactly one of
    # the conditions this checker requires
    (plan, report), = m._reports.items()
    assert plan.times == (0.0, 0.5)
    assert [c for c in conditions if not report[c].passed] == [condition]


def test_moment_check_samples_its_own_horizon():
    # the growth envelope collapses from t = 1.5 on
    ou = s.zoo("switching_ou")
    m = replace(ou, growth_c=lambda t: 1e-6 if t >= 1.5 else ou.growth_c(t))
    with pytest.raises(s.InvalidModelError,
                       match=r"coefficient_growth failed.*'t': 2\.0"):
        s.moment_bound_check(m, [0.5], 1, 2.0, 100, ecfg(T=2.0))
    assert s.moment_bound_check(m, [0.5], 1, 0.5, 100, ecfg()).passed


def test_harnack_trivial_cases(ou_model):
    c = ecfg(T=0.5, dt=2e-3, seed=82, n=4000)
    const = lambda X, lam: np.full(len(X), 0.3)
    rep = s.harnack_check(ou_model, const, [0.1], [0.6], 1, 0.5, 4000, c)
    assert rep.lhs.mean == pytest.approx(math.log(0.3))
    assert rep.lhs.stderr == 0.0
    assert rep.passed
    # x == y: pure Jensen with zero transport cost
    rep2 = s.harnack_check(ou_model, s.gauss_function(1.0), [0.4], [0.4], 1,
                           0.5, 4000, c)
    assert rep2.passed
    assert rep2.params["cost_mean"] == 0.0


def test_harnack_rejects_bad_inputs(scalar_rate_q):
    m = s.ModelSpec(dim=1, drift=lambda t, x, i: -np.asarray(x, float),
                    diffusion=lambda t, x, i: 1.0, q=scalar_rate_q,
                    growth_c=lambda t: 1.0, dissipativity_c=lambda t, i: 1.0,
                    diffusion_mod_c=lambda t, i: 1.0,
                    ellipticity_lambda=lambda t: 1.0)
    with pytest.raises(s.UnsupportedSchemeError):
        s.harnack_check(m, s.gauss_function(), [0.0], [1.0], 1, 0.5, 100, ecfg())
    dg = s.zoo("degenerate_regime")
    # the single check and the sweep fail with one message
    failed = "assumption uniform_ellipticity failed"
    with pytest.raises(s.InvalidModelError, match=failed):
        s.harnack_check(dg, s.gauss_function(), [0.0], [1.0], 1, 0.5, 100,
                        ecfg())
    with pytest.raises(s.InvalidModelError, match=failed):
        s.harnack_sweep(dg, 2, 100, ecfg())
    with pytest.raises(ValueError, match="horizon must be positive"):
        s.harnack_check(s.zoo("switching_ou"), s.gauss_function(), [0.0],
                        [1.0], 1, 0.0, 100, ecfg())
    # both check every horizon they run: the noise switches off after t = 1,
    # so the ellipticity floor fails at t = 2 only
    quiet = replace(s.zoo("switching_ou"),
                    diffusion=lambda t, x, i: 1.0 if t <= 1.0 else 0.0)
    with pytest.raises(s.InvalidModelError, match=failed) as single:
        s.harnack_check(quiet, s.gauss_function(), [0.0], [1.0], 1, 2.0, 100,
                        ecfg())
    with pytest.raises(s.InvalidModelError, match=failed) as sweep:
        s.harnack_sweep(quiet, 2, 100, ecfg(), T_choices=(2.0,))
    assert str(sweep.value) == str(single.value)


def test_harnack_sweep_checks_each_horizon_once(monkeypatch):
    # one plan per horizon, sampled at t = 0 and t = T, filled before any
    # case runs; the cases read those reports and add none
    ou = s.zoo("switching_ou")
    seen = []
    check = estimators.harnack_check

    def case(*args, **kwargs):
        seen.append(dict(ou._reports))
        return check(*args, **kwargs)

    monkeypatch.setattr(estimators, "harnack_check", case)
    assert len(s.harnack_sweep(ou, 4, 50, ecfg(), T_choices=(0.25, 0.5))) == 4
    times = sorted(plan.times for plan in ou._reports)
    assert times == [(0.0, 0.25), (0.0, 0.5)]
    assert all(kept == ou._reports for kept in seen)


def test_harnack_sweep_summary_classification(ou_model):
    reps = s.harnack_sweep(ou_model, 6, 2000, ecfg(T=0.25, dt=5e-3, seed=83))
    summary = s.harnack_sweep_summary(reps)
    assert summary["cases"] == 6
    assert summary["ok"]
    # an empty sweep verifies nothing
    assert not s.harnack_sweep_summary([])["ok"]


# --- Feller probes -------------------------------------------------------------------

def test_feller_gaps_shrink_for_continuous_function(ou_model):
    f = lambda X, lam: np.tanh(X[:, 0])
    gaps = s.feller_modulus(ou_model, f, 0.5, [0.0], 1,
                            [0.8, 0.2, 0.05], 8000, ecfg(dt=2e-3, seed=84))
    assert s.gap_trend_pass(gaps)
    assert gaps[-1].gap < gaps[0].gap
    # the verdict orders the gaps by radius, whatever order they come in
    assert s.gap_trend_pass(gaps[::-1])


def test_feller_degenerate_floor():
    dg = s.zoo("degenerate_regime")
    f = lambda X, lam: (X[:, 0] > 0).astype(float)
    r = 1e-3
    gaps = s.feller_modulus(dg, f, 1.0, [-r / 2], 1, [r], 20_000,
                            ecfg(dt=2e-3, seed=85))
    g = gaps[0]
    assert abs(g.gap - math.exp(-1)) <= 3 * g.stderr + 0.01
    cert = s.discontinuity_certificate(gaps)
    assert cert["certified"]


def test_feller_verdicts_fail_on_aborted_replicas():
    # every replica aborted: all gaps NaN
    dead = [s.GapEstimate(math.nan, math.nan, 200, 200, radius=r)
            for r in (0.5, 0.1)]
    assert not s.gap_trend_pass(dead)
    # a cubic escape drift overflows some replicas; the survivors' gaps alone
    # would read as a decreasing trend and a gap above any floor
    q = s.QMatrixSpec(rate=lambda x, i, j: 1.0, kappa=1,
                      linear_bound_alpha=2.0, state_independent=True,
                      n_regimes=2)
    m = s.ModelSpec(dim=1, drift=lambda t, x, i: np.asarray(x, float) ** 3,
                    diffusion=lambda t, x, i: 1.0, q=q,
                    growth_c=lambda t: 1.0, dissipativity_c=lambda t, i: 1.0,
                    diffusion_mod_c=lambda t, i: 1.0,
                    ellipticity_lambda=lambda t: 1.0)
    with np.errstate(all="ignore"):
        gaps = s.feller_modulus(m, s.gauss_function(1.0), 1.0, [0.5], 1,
                                [0.5, 0.1, 0.01], 400, ecfg(seed=5))
    assert all(g.flagged for g in gaps)
    assert not s.gap_trend_pass(gaps)
    assert not s.discontinuity_certificate(gaps, floor=-1.0)["certified"]


def test_feller_crn_pairing_reduces_variance(ou_model):
    f = lambda X, lam: np.tanh(X[:, 0])
    gaps = s.feller_modulus(ou_model, f, 0.5, [0.0], 1, [0.01], 4000,
                            ecfg(dt=2e-3, seed=86))
    # paired differences of a Lipschitz functional at radius 0.01 have tiny spread
    assert gaps[0].stderr < 0.005


def test_frozen_rate_agrees_with_event_driven(ou_model):
    # weak order-one consistency between the two schemes
    f = s.gauss_function(0.8, [0.2])
    dt = 0.01
    frozen = s.SimConfig(horizon=0.5, dt=dt, seed=91, scheme=s.FROZEN_RATE)
    exact = s.SimConfig(horizon=0.5, dt=dt, seed=92, scheme=s.EVENT_DRIVEN)
    ef = s.semigroup_estimate(ou_model, f, 0.5, [0.2], 1, 1500, frozen)
    ee = s.semigroup_estimate(ou_model, f, 0.5, [0.2], 1, 30_000, exact)
    tol = 3 * math.hypot(ef.stderr, ee.stderr) + 0.5 * dt
    assert abs(ef.mean - ee.mean) <= tol


@pytest.mark.parametrize("name", ["switching_ou", "degenerate_regime",
                                  "birth_death_switch"])
def test_exact_segments_agree_with_euler_twin(name):
    # the callback twin of a linear model still runs Euler on the dt grid;
    # the allowance for Euler's O(dt) weak error is fixed at 5 dt
    m = s.zoo(name)
    twin = replace(m, linear_coeffs=None)
    f = lambda X, lam: np.tanh(X[:, 0] - 0.3 * lam)
    dt = 2e-3
    c = ecfg(T=0.5, dt=dt, seed=93)
    exact = s.semigroup_estimate(m, f, 0.5, [0.5], 1, 10_000, c)
    euler = s.semigroup_estimate(twin, f, 0.5, [0.5], 1, 10_000, c)
    tol = 3 * math.hypot(exact.stderr, euler.stderr) + 5 * dt
    assert abs(exact.mean - euler.mean) <= tol


def _cubic_escape_model():
    """Regime 1 is a stable OU; regime 2 has drift 3 x^3, whose Euler steps
    escape to infinity from moderate |x|. Switching 1 -> 2 speeds up with
    |x|, so only some replicas blow up by T = 1."""
    def rate(x, i, j):
        if (i, j) == (1, 2):
            return 0.5 * (1.0 + math.tanh(float(np.linalg.norm(x))))
        return 0.5 if (i, j) == (2, 1) else 0.0
    q = s.QMatrixSpec(rate=rate, kappa=1, lipschitz_cq=0.5,
                      linear_bound_alpha=1.0, n_regimes=2)

    def drift(t, x, i):
        x = np.asarray(x, dtype=float)
        return -x if i == 1 else 3.0 * x ** 3
    return s.ModelSpec(dim=1, drift=drift, diffusion=lambda t, x, i: 1.0, q=q,
                       growth_c=lambda t: 1.0, dissipativity_c=lambda t, i: 1.0,
                       diffusion_mod_c=lambda t, i: 1.0,
                       ellipticity_lambda=lambda t: 1.0, model_id="cubic")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_frozen_semigroup_counts_blown_up_replicas():
    m = _cubic_escape_model()
    c = s.SimConfig(horizon=1.0, dt=0.02, seed=77, scheme=s.FROZEN_RATE)
    n = 120
    # finite even where X is not, so only the aborted mask can drop a row
    f = lambda X, lam: np.nan_to_num(np.tanh(X[:, 0]))
    est = s.semigroup_estimate(m, f, 1.0, [1.0], 1, n, c)
    raised = 0
    for rep in range(n):
        try:
            s.simulate_path(m, [1.0], 1, c, replica=rep)
        except s.NumericalBlowupError:
            raised += 1
    # the first switch times, read off one recorded batch's log, blown up
    # or not
    log = s.run_frozen(m, np.array([1.0]), 1, 1.0, c.dt, s.NoiseStream(c.seed),
                       np.arange(n, dtype=np.uint64), record=True)["log"]
    etas = [next((t for t, k in zip(log["t"][log["row"] == rep],
                                    log["regime"][log["row"] == rep])
                  if k != 1), math.inf)
            for rep in range(n)]
    assert 0 < raised < n
    assert est.n_aborted == raised
    # every blow-up comes after a switch into the cubic regime, so the holding
    # check scores the blown-up replicas by their first switch
    for rep in s.holding_time_check(m, [1.0], 1, 2, (0.3, 1.0), n, c):
        t = rep.params["t"]
        assert rep.lhs.mean == sum(e >= t for e in etas) / n
        assert rep.lhs.n_aborted == raised


def test_holding_check_scores_aborted_before_switch_as_not_held(monkeypatch):
    m = _cubic_escape_model()
    c = s.SimConfig(horizon=1.0, dt=0.02, seed=77, scheme=s.FROZEN_RATE)
    # replicas: held, switched at 0.5, aborted unswitched, aborted after a switch
    fake = {"eta": np.array([[np.inf, 0.5, np.inf, 0.8]]),
            "aborted": np.array([[False, False, True, True]])}
    monkeypatch.setattr(s.estimators, "_stacked_run", lambda *a, **k: fake)
    reps = s.holding_time_check(m, [1.0], 1, 2, (0.0, 0.25, 0.6, 1.0), 4, c)
    assert [r.lhs.mean for r in reps] == [1.0, 0.75, 0.5, 0.25]
    assert all(r.lhs.n_aborted == 2 for r in reps)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_bound_records_carry_aborted_count(tmp_path):
    m = _cubic_escape_model()
    c = s.SimConfig(horizon=1.0, dt=0.02, seed=77, scheme=s.FROZEN_RATE)
    reps = s.holding_time_check(m, [1.0], 1, 2, (0.3, 1.0), 120, c)
    path = tmp_path / "holding.jsonl"
    reports.write_jsonl(path, [reports.from_bound_report(r) for r in reps])
    assert [r["n_aborted"] for r in reports.read_jsonl(path)] == [32, 32]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_flagged_estimates_fail_their_check():
    # 32 of 120 replicas abort: the margins stay positive, the checks fail
    m = _cubic_escape_model()
    c = s.SimConfig(horizon=1.0, dt=0.02, seed=77, scheme=s.FROZEN_RATE)
    reps = s.holding_time_check(m, [1.0], 1, 2, (0.3, 1.0), 120, c)
    assert [r.params["t"] for r in reps] == [0.3, 1.0]
    for r in reps:
        assert r.lhs.flagged and r.margin > 0
        assert not r.passed


@pytest.mark.filterwarnings("ignore::switchsde.errors.StiffSwitchingWarning")
def test_frozen_estimators_identical_across_threads(monkeypatch):
    # small batches, so the two threads share the replicas between them
    monkeypatch.setattr(s.estimators, "BATCH_REPLICAS", 64)
    m = s.zoo("birth_death_switch")
    rate_q = s.QMatrixSpec(
        rate=lambda x, i, j: m.q.rate(x, i, j) * (1.0 + math.tanh(abs(float(x[0])))),
        kappa=1, lipschitz_cq=2.0, linear_bound_alpha=4.0, n_regimes=None)
    sdm = s.ModelSpec(dim=1, drift=m.drift, diffusion=m.diffusion, q=rate_q,
                      growth_c=m.growth_c, dissipativity_c=m.dissipativity_c,
                      diffusion_mod_c=m.diffusion_mod_c,
                      ellipticity_lambda=m.ellipticity_lambda, model_id="sd_bd")
    c = s.SimConfig(horizon=0.3, dt=0.01, seed=5, scheme=s.FROZEN_RATE)
    f = lambda X, lam: np.cos(X[:, 0]) * lam
    n = 200
    vals = []
    for rep in range(n):
        tr = s.simulate_path(sdm, [0.4], 2, c, replica=rep)
        vals.append(f(tr.x[-1:], tr.regime[-1:])[0])
    by_path = mc_from_values(np.array(vals))
    for threads in (1, 2):
        assert s.semigroup_estimate(sdm, f, 0.3, [0.4], 2, n, c,
                                    threads=threads) == by_path
    reps = [s.moment_bound_check(sdm, [0.4], 2, 0.3, n, c, threads=t)
            for t in (1, 2)]
    assert reps[0] == reps[1]


# --- oracle comparisons ---------------------------------------------------------------

def test_chain_marginal_check_small(ou_model):
    mc = s.chain_marginal_check(ou_model, (0.5, 1.0), 30_000, ecfg(seed=87))
    assert mc.entries == 8
    assert mc.fraction_within >= 0.99


def test_chain_marginal_oracle_is_computed_once_per_spec(ou_model, monkeypatch):
    calls = []
    real = estimators.transition_matrix
    monkeypatch.setattr(estimators, "transition_matrix",
                        lambda G, t: calls.append(t) or real(G, t))
    model = replace(ou_model, q=replace(ou_model.q))
    first = s.chain_marginal_check(model, (0.5, 1.0), 2_000, ecfg(seed=87))
    again = s.chain_marginal_check(model, (1.0, 0.5), 2_000, ecfg(seed=87))
    assert sorted(calls) == [0.5, 1.0]
    assert sorted(first.records, key=repr) == sorted(again.records, key=repr)
    s.chain_marginal_check(replace(model, q=replace(model.q)), (1.0,), 100, ecfg())
    assert sorted(calls) == [0.5, 1.0, 1.0]


def test_chain_marginal_needs_finite_space():
    bd = s.zoo("birth_death_switch")
    with pytest.raises(ValueError):
        s.chain_marginal_check(bd, (0.5,), 100, ecfg())


def test_chain_marginal_rejects_no_starts(ou_model):
    with pytest.raises(ValueError, match="at least one start regime"):
        s.chain_marginal_check(ou_model, (0.5,), 100, ecfg(), starts=[])


def test_chain_marginal_reads_starts_as_regimes(ou_model, monkeypatch):
    one = s.chain_marginal_check(ou_model, (0.5,), 500, ecfg(), starts=[2])
    same = s.chain_marginal_check(ou_model, (0.5,), 500, ecfg(), starts=[2.0])
    assert same.records == one.records
    # a start outside the space is refused before any run
    monkeypatch.setattr(estimators, "run_chain", None)
    with pytest.raises(ValueError, match="start regime 3 is outside"):
        s.chain_marginal_check(ou_model, (0.5,), 500, ecfg(), starts=[1, 3.0])


def test_checkers_refuse_a_negative_horizon(ou_model):
    bd = s.zoo("birth_death_switch")
    with pytest.raises(ValueError, match="horizon must be nonnegative"):
        s.truncation_exit_bound_check(bd, [0.0], 1, 5, -1.0, 50, ecfg())
    with pytest.raises(ValueError, match="horizon must be nonnegative"):
        s.semigroup_estimate(ou_model, s.gauss_function(), -1.0, [0.0], 1,
                             100, ecfg())


def test_truncation_exit_bound(ou_model):
    bd = s.zoo("birth_death_switch")
    rep = s.truncation_exit_bound_check(bd, [0.2], 2, 8, 0.5, 10_000,
                                        ecfg(dt=2e-3, seed=88))
    assert rep.passed
    # exits get rarer as the level grows
    rep2 = s.truncation_exit_bound_check(bd, [0.2], 2, 12, 0.5, 10_000,
                                         ecfg(dt=2e-3, seed=88))
    assert rep2.lhs.mean <= rep.lhs.mean + 3 * (rep.lhs.stderr + rep2.lhs.stderr)


def test_truncation_exit_bound_rejects_a_start_outside_the_window():
    bd = s.zoo("birth_death_switch")
    with pytest.raises(ValueError,
                       match=r"need \|x0\| \+ i0 < K, got 11\.0 >= 5"):
        s.truncation_exit_bound_check(bd, [10.0], 1, 5, 0.5, 1000, ecfg())


@pytest.mark.filterwarnings("ignore::switchsde.errors.StiffSwitchingWarning")
def test_truncation_batch_matches_one_case_calls():
    bd = s.zoo("birth_death_switch")
    rng = np.random.default_rng(23)
    n = 30
    x0 = rng.uniform(-0.5, 0.5, (n, 1))
    i0 = rng.integers(2, 5, n)
    K = 5 + np.arange(n) % 2
    seeds = 700 + 3 * np.arange(n)
    reps = rng.integers(0, 1000, n)
    c = s.SimConfig(horizon=1.5, dt=5e-3, scheme=s.FROZEN_RATE)
    batch = s.truncation_identity_batch(bd, x0, i0, K, c, seeds, reps)
    one = []
    for k in range(n):
        ik, Kk, rk = int(i0[k]), int(K[k]), int(reps[k])
        ck = replace(c, seed=int(seeds[k]))
        one.append(s.truncation_identity_check(bd, x0[k], ik, Kk, ck,
                                               replica=rk))
        # and the plain and truncated one-row paths it stands for
        full = s.simulate_path(bd, x0[k], ik, replace(ck, truncation=Kk),
                               replica=rk)
        trunc = s.simulate_truncated(bd, x0[k], ik, Kk, ck, replica=rk)
        assert (batch[k]["tau_full"], batch[k]["tau_trunc"]) == (full.tau_k,
                                                                 trunc.tau_k)
    assert batch == one
    assert all(r["identical"] for r in batch)
    assert sum(math.isfinite(r["tau_k"]) for r in batch) >= 10
    with pytest.raises(ValueError, match="need"):
        s.truncation_identity_batch(bd, x0, 5, 5, c, seeds, reps)


def test_displacement_sweep_records():
    recs = s.displacement_lipschitz_sweep(n_cases=50, seed=11)
    assert len(recs) == 50
    assert all(r["passed"] for r in recs)
    assert {r["p"] for r in recs} == {1.0, 2.0}
