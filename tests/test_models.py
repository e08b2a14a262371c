import dataclasses
import math
import sys
import threading
import time
import tracemalloc
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import switchsde as s
from switchsde import models
from switchsde.models import (_RADIUS, U_CLASSES, SamplingPlan, UClassFn,
                              _ball_sample, _sigma_stack, check_assumptions)


def quick_plan(**kw):
    defaults = dict(n_pairs=1500, n_rate_pairs=48, max_regime=10, seed=4)
    defaults.update(kw)
    return SamplingPlan(**defaults)


def test_switching_ou_passes_everything(ou_model):
    rep = check_assumptions(ou_model, quick_plan())
    assert rep.failed() == []


def test_degenerate_regime_fails_only_ellipticity():
    rep = check_assumptions(s.zoo("degenerate_regime"), quick_plan())
    assert rep.failed() == ["uniform_ellipticity"]
    assert rep["uniform_ellipticity"].witness is not None


def test_require_names_the_first_failed_assumption():
    rep = check_assumptions(s.zoo("degenerate_regime"), quick_plan())
    rep.require("band_structure", "no_such_condition")
    with pytest.raises(s.InvalidModelError,
                       match=r"assumption uniform_ellipticity failed "
                             r"\(violation .*\); witness: \{"):
        rep.require(*s.HARNACK_PREREQUISITES)


def test_zero_diffusion_regime_kills_ellipticity():
    m = s.zoo("switching_ou", beta=(1.0, 1.0), a=(0.0, 0.0), s=(0.0, 1.0))
    rep = check_assumptions(m, quick_plan())
    assert "uniform_ellipticity" in rep.failed()


def test_quadratic_rates_break_regime_linear_bound():
    def rate(x, i, j):
        return float(i * i) if j == i + 1 else 0.0
    q = s.QMatrixSpec(rate=rate, kappa=1, linear_bound_alpha=5.0,
                      state_independent=True)
    m = s.ModelSpec(dim=1, drift=lambda t, x, i: -np.asarray(x, dtype=float),
                    diffusion=lambda t, x, i: 1.0, q=q,
                    growth_c=lambda t: 1.0,
                    dissipativity_c=lambda t, i: 1.0,
                    diffusion_mod_c=lambda t, i: 1.0,
                    ellipticity_lambda=lambda t: 1.0, model_id="quad_rates")
    rep = check_assumptions(m, quick_plan(max_regime=20))
    res = rep["rate_regime_linear"]
    assert not res.passed
    assert res.witness["i"] > 5  # i^2 > 5 i only beyond i = 5


def test_other_zoo_models_pass_every_check():
    # switching_ou and degenerate_regime have their own tests above
    for name in ("birth_death_switch", "nonlipschitz_log"):
        rep = check_assumptions(s.zoo(name), quick_plan())
        assert rep.failed() == [], name


def test_reports_are_kept_per_model_and_plan():
    calls = Counter()

    def counted(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    ou = s.zoo("switching_ou")
    m = replace(ou, drift=counted("drift", ou.drift),
                diffusion=counted("diffusion", ou.diffusion),
                q=replace(ou.q, rate=counted("rate", ou.q.rate)))
    plan = quick_plan()
    first = check_assumptions(m, plan)
    assert set(calls) == {"drift", "diffusion", "rate"}
    sampled = dict(calls)
    assert check_assumptions(m, plan) is first
    assert calls == sampled  # no callback ran again
    other = check_assumptions(m, quick_plan(seed=5))
    assert other is not first and calls["drift"] > sampled["drift"]
    assert set(m._reports) == {plan, quick_plan(seed=5)}
    # a copy is a new spec: it starts with no reports
    assert replace(m)._reports == {}
    # callers share a kept report, so it cannot be edited
    with pytest.raises(TypeError):
        first.results["band_structure"] = first["band_structure"]


def test_racing_checks_share_one_kept_report():
    # threads racing on an empty cache may each sample, but all of them get
    # the one report the model keeps
    m = s.zoo("switching_ou")
    plan = quick_plan(n_pairs=64, n_rate_pairs=8, max_regime=2)
    got = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(
            target=lambda: got.append(check_assumptions(m, plan)))
            for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(got) == 8 and all(r is m._reports[plan] for r in got)


def test_zoo_unknown_name():
    with pytest.raises(ValueError, match="unknown zoo model"):
        s.zoo("no_such_model")


def test_linear_coeffs_agree_with_callbacks():
    rng = np.random.default_rng(0)
    for name in ("switching_ou", "degenerate_regime", "birth_death_switch"):
        m = s.zoo(name)
        assert m.linear_coeffs is not None
        regs = np.array([1, 2, 1, 2], dtype=np.int64)
        X = rng.normal(size=(4, m.dim))
        beta, a, sig = m.linear_coeffs(regs)
        for r in range(4):
            b_cb = np.asarray(m.drift(0.0, X[r], int(regs[r])), dtype=float)
            assert np.allclose(b_cb, a[r] - beta[r] * X[r])
            s_cb = m.diffusion(0.0, X[r], int(regs[r]))
            assert float(s_cb) == pytest.approx(float(sig[r]))


# --- modulus classes ----------------------------------------------------------

def test_u_one_identity():
    u = U_CLASSES["one"]
    assert u.phi(0.7) == pytest.approx(0.7)
    assert u.gamma == 1.0
    # equality in the domination: phi(s) = s = gamma * s * u(s)^2
    for sv in (0.1, 1.0, 7.0):
        assert u.phi(sv) == pytest.approx(u.gamma * sv * float(u.u(sv)) ** 2)


def test_u_log_closed_form_vs_quadrature():
    u = U_CLASSES["log"]
    for sv in (1e-6, 1e-3, 0.1, 0.5, 1.0, 3.0):
        assert u.phi(sv) == pytest.approx(u.phi_quadrature(sv), abs=1e-10)


def test_u_log_gamma_domination_on_grid():
    u = U_CLASSES["log"]
    for sv in np.logspace(-9, 2, 300):
        assert u.phi(sv) <= u.gamma * sv * float(u.u(sv)) ** 2 + 1e-12


def test_u_log_reciprocal_mass_diverges_on_log_grid():
    u = U_CLASSES["log"]
    masses = [s.reciprocal_mass(u.u, eps) for eps in (1e-2, 1e-4, 1e-8, 1e-16)]
    assert all(b > a + 0.3 for a, b in zip(masses, masses[1:]))


def test_u_log_values():
    u = U_CLASSES["log"]
    assert float(u.u(1.0)) == 1.0
    assert float(u.u(5.0)) == 1.0
    assert float(u.u(math.exp(-2))) == pytest.approx(3.0)


# --- misc model helpers --------------------------------------------------------

def test_apply_diffusion_shapes():
    dw = np.array([1.0, 2.0])
    assert np.allclose(s.apply_diffusion(0.5, dw), [0.5, 1.0])
    m = np.array([[1.0, 1.0], [0.0, 2.0]])
    assert np.allclose(s.apply_diffusion(m, dw), m @ dw)
    stack = np.stack([np.eye(2), 2 * np.eye(2)])
    dws = np.stack([dw, dw])
    out = s.apply_diffusion(stack, dws)
    assert np.allclose(out, [dw, 2 * dw])


@pytest.mark.parametrize("d", [1, 3])
def test_scalar_diffusion_is_one_branch(d):
    # an int, a float, a numpy scalar and a 0-d array all mean sig * I, with
    # the doubles of float(sig) * dw
    dw = np.random.default_rng(2).normal(size=(4, d))
    for sig in (2, 0.3, np.float64(0.3), np.float32(0.3), np.array(0.3)):
        want = float(sig) * dw
        assert np.array_equal(s.apply_diffusion(sig, dw), want)
        assert np.array_equal(s.apply_diffusion(sig, dw[0]), want[0])
        stack = _sigma_stack(sig, 4, d)
        assert stack.shape == (4, d, d)
        assert np.array_equal(stack, np.broadcast_to(float(sig) * np.eye(d),
                                                     (4, d, d)))


@pytest.mark.parametrize("d", [1, 3, 16])
@pytest.mark.parametrize("name", ["switching_ou", "birth_death_switch",
                                  "degenerate_regime"])
def test_scalar_diffusion_is_checked_as_the_scalar(name, d):
    # a scalar s is checked as d s^2 and |s|; its twin returns the matrix
    # s * I and so takes the (n, d, d) stack and the batched SVD
    m = s.zoo(name, dim=d)
    twin = replace(m, diffusion=lambda t, x, i: m.diffusion(t, x, i) * np.eye(d))
    rep, ref = check_assumptions(m, quick_plan()), check_assumptions(twin, quick_plan())
    for cond, want in ref.results.items():
        got = rep[cond]
        assert (got.passed, got.samples, got.witness) == (
            want.passed, want.samples, want.witness), cond
        if d == 1:
            assert got.max_violation == want.max_violation, cond
        else:
            assert got.max_violation == pytest.approx(want.max_violation,
                                                      rel=1e-12, abs=0), cond
    degenerate = name == "degenerate_regime"
    assert (not rep["uniform_ellipticity"].passed) == degenerate
    assert (not ref["uniform_ellipticity"].passed) == degenerate


def test_scalar_check_builds_no_stack_at_high_dimension(monkeypatch):
    # at d = 256 one (n, d, d) stack of the default plan is 5.2 GB
    def refuse(*args, **kwargs):
        raise AssertionError("a scalar diffusion reached the stack path")

    monkeypatch.setattr(models, "_sigma_stack", refuse)
    monkeypatch.setattr(np.linalg, "svd", refuse)
    d, plan = 256, SamplingPlan()
    m = s.zoo("switching_ou", dim=d)
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        rep = check_assumptions(m, plan)
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.failed() == []
    assert peak < plan.n_pairs * d * d * 8 / 16
    assert elapsed < 1.0


def test_modulus_monotonicity_is_sampled_not_declared(monkeypatch):
    # a class carries no monotonicity flag; an increasing u fails
    # modulus_nonincreasing from its sampled log grid alone
    assert [f.name for f in dataclasses.fields(UClassFn)] == [
        "name", "u", "gamma", "phi_closed"]
    rising = UClassFn("rising", lambda v: 1.0 + np.asarray(v, dtype=float),
                      gamma=10.0)
    monkeypatch.setitem(U_CLASSES, "rising", rising)
    m = replace(s.zoo("switching_ou"), u_id="rising")
    rep = check_assumptions(m, quick_plan())
    assert not rep["modulus_nonincreasing"].passed
    assert set(rep["modulus_nonincreasing"].witness) == {"s", "u"}


def test_linear_switching_model_validates_lengths():
    with pytest.raises(ValueError):
        s.linear_switching_model(beta=(1.0, 2.0), a=(0.0,), s=(1.0, 1.0))


def test_negative_rate_at_a_sampled_point_raises_with_its_witness():
    # q_12 turns negative for x > 5: a broken model, not a failed condition
    def rate(x, i, j):
        return 1.0 - 0.2 * float(x[0]) if (i, j) == (1, 2) else 1.0

    q = s.QMatrixSpec(rate=rate, kappa=1, n_regimes=2, lipschitz_cq=1.0,
                      linear_bound_alpha=10.0, linear_bound_beta=1.0)
    m = s.ModelSpec(dim=1, drift=lambda t, x, i: -np.asarray(x, dtype=float),
                    diffusion=lambda t, x, i: 1.0, q=q,
                    growth_c=lambda t: 1.0,
                    dissipativity_c=lambda t, i: 1.0,
                    diffusion_mod_c=lambda t, i: 1.0,
                    ellipticity_lambda=lambda t: 1.0, model_id="neg_rate")
    plan = quick_plan()
    # the rate points are the third ball sample; the witness is the first
    # of them past x = 5, in sample order
    rng = np.random.default_rng(plan.seed)
    for n in (plan.n_pairs, plan.n_pairs):
        _ball_sample(rng, n, 1, _RADIUS)
    Xr = _ball_sample(rng, plan.n_rate_pairs, 1, _RADIUS)
    first = Xr[np.argmax(Xr[:, 0] > 5.0)]
    assert first[0] > 5.0
    with pytest.raises(s.InvalidModelError) as exc:
        check_assumptions(m, plan)
    assert str(exc.value) == f"negative rate at (x={first}, i=1, j=2)"


def _nan_violations():
    """Seven models whose one bad certificate, constant or rate makes a
    violation NaN, each with the conditions that must fail."""
    ou = s.zoo("switching_ou", beta=(1.0, 2.0, 1.5), a=(0.0, 0.0, 0.0),
               s=(1.0, 1.0, 1.0), rates=[[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    q, nan = ou.q, math.nan

    def leak(x, i, j):  # NaN two regimes away, outside the band kappa = 1
        return nan if abs(i - j) == 2 else q.rate(x, i, j)

    return {
        "alpha": (replace(ou, q=replace(q, linear_bound_alpha=nan)),
                  ["rate_linear_growth", "rate_regime_linear"]),
        "beta": (replace(ou, q=replace(q, linear_bound_beta=nan)),
                 ["rate_linear_growth"]),
        "growth_c": (replace(ou, growth_c=lambda t: nan),
                     ["coefficient_growth"]),
        "lambda": (replace(ou, ellipticity_lambda=lambda t: nan),
                   ["uniform_ellipticity"]),
        "C_i nan": (replace(ou, dissipativity_c=lambda t, i: nan),
                    ["one_sided_dissipativity",
                     "dissipativity_uniform_in_regime"]),
        "C_i inf": (replace(ou, dissipativity_c=lambda t, i: math.inf),
                    ["dissipativity_uniform_in_regime"]),
        "rate outside band": (replace(ou, q=replace(q, rate=leak)),
                              ["band_structure"]),
    }


@pytest.mark.parametrize("case", sorted(_nan_violations()))
def test_nan_violation_fails_its_condition(case):
    m, failed = _nan_violations()[case]
    rep = check_assumptions(m, quick_plan())
    assert rep.failed() == failed
    assert all(rep[name].max_violation == math.inf for name in failed)


def test_infinite_certificate_fails_without_a_warning():
    # inf - inf is NaN, which counts as an infinite violation
    m, failed = _nan_violations()["C_i inf"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = check_assumptions(m, quick_plan())
    assert rep.failed() == failed


def test_checkers_refuse_a_nan_certificate():
    # without the NaN rule both run: the moment check fails with a NaN rhs,
    # the Harnack check reports a NaN rhs
    cases = _nan_violations()
    cfg = s.SimConfig(horizon=0.5, dt=0.01, scheme=s.EVENT_DRIVEN,
                      replicas=100)
    with pytest.raises(s.InvalidModelError, match="coefficient_growth"):
        s.moment_bound_check(cases["growth_c"][0], [0.5], 1, 0.5, 100, cfg)
    with pytest.raises(s.InvalidModelError, match="uniform_ellipticity"):
        s.harnack_check(cases["lambda"][0], s.gauss_function(), [0.0], [0.1],
                        1, 0.5, 100, cfg)
