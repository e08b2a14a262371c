import math
from types import SimpleNamespace

import numpy as np
import pytest

import switchsde as s
from switchsde.estimators import holding_probability_floor


def two_state(rate=1.0):
    return np.array([[-rate, rate], [rate, -rate]])


def test_two_state_closed_form():
    P = s.transition_matrix(two_state(), 1.0)
    assert P[0, 0] == pytest.approx((1 + math.exp(-2)) / 2, abs=1e-12)
    assert P[0, 1] == pytest.approx((1 - math.exp(-2)) / 2, abs=1e-12)


def test_time_zero_is_identity():
    assert np.array_equal(s.transition_matrix(two_state(), 0.0), np.eye(2))


def test_rows_sum_to_one():
    rng = np.random.default_rng(3)
    off = rng.uniform(0, 2, size=(6, 6))
    Q = off - np.diag(np.diag(off))
    Q -= np.diag(Q.sum(axis=1))
    for t in (0.1, 1.0, 5.0):
        P = s.transition_matrix(Q, t)
        assert np.max(np.abs(P.sum(axis=1) - 1.0)) < 1e-10
        assert P.min() >= 0.0


def test_semigroup_property():
    rng = np.random.default_rng(11)
    off = rng.uniform(0, 1.5, size=(5, 5))
    Q = off - np.diag(np.diag(off))
    Q -= np.diag(Q.sum(axis=1))
    P_st = s.transition_matrix(Q, 0.7 + 0.9)
    P_s = s.transition_matrix(Q, 0.7)
    P_t = s.transition_matrix(Q, 0.9)
    assert np.max(np.abs(P_st - P_s @ P_t)) < 1e-8


def test_two_state_closed_form_at_large_intensity():
    rate, t = 200.0, 2.0
    P = s.transition_matrix(two_state(rate), t)
    decay = math.exp(-2 * rate * t)
    exact = np.array([[1 + decay, 1 - decay], [1 - decay, 1 + decay]]) / 2
    assert np.max(np.abs(P - exact)) < 1e-9


def floor_model(alpha, kappa):
    """Just the certificates that ``holding_probability_floor`` reads."""
    q = s.QMatrixSpec(rate=lambda x, i, j: 0.0, kappa=kappa,
                      linear_bound_alpha=alpha)
    return SimpleNamespace(q=q)


def dominating_generator(K, alpha, kappa, m):
    """Generator on {1, ..., m} of the chain that jumps to every in-band
    regime ``j >= 1`` at rate ``alpha * K``; rows ``i <= m - kappa`` are
    those of the chain on {1, 2, ...}."""
    G = np.zeros((m, m))
    for i in range(m):
        for j in range(max(0, i - kappa), min(m, i + kappa + 1)):
            if j != i:
                G[i, j] = alpha * K
        G[i, i] = -G[i].sum()
    return G


def test_dominating_chain_diagonal_log_limit():
    # interior regime: (log p(t,i,i))/t -> -2*kappa*alpha*K as t -> 0
    G = dominating_generator(K=2, alpha=1.0, kappa=1, m=12)
    t = 1e-4
    P = s.transition_matrix(G, t)
    i = 5
    rate = math.log(P[i - 1, i - 1]) / t
    target = math.log(holding_probability_floor(floor_model(1.0, 1), i, 2, t)) / t
    assert target == pytest.approx(-4.0)
    assert abs(rate - target) / abs(target) < 0.01


def test_holding_probability_floor_formula():
    model = floor_model(2.0, 1)
    assert holding_probability_floor(model, 1, 3, 0.5) == pytest.approx(math.exp(-3.0))
    assert holding_probability_floor(model, 2, 3, 0.5) == pytest.approx(math.exp(-6.0))


@pytest.mark.parametrize("K, alpha, kappa", [(3, 2.0, 1), (2, 0.5, 2),
                                             (4, 1.25, 3), (3, 0.0, 2)])
def test_holding_floor_is_dominating_chain_survival(K, alpha, kappa):
    m = 12
    G = dominating_generator(K, alpha, kappa, m)
    t = np.array([0.0, 0.1, 0.5, 1.0])
    for k in range(1, m - kappa + 1):
        floor = holding_probability_floor(floor_model(alpha, kappa), k, K, t)
        assert floor == pytest.approx(np.exp(G[k - 1, k - 1] * t), rel=1e-12)
    assert isinstance(holding_probability_floor(floor_model(alpha, kappa), 1,
                                                K, 0.5), float)


@pytest.mark.parametrize("K, alpha", [(0, 1.0), (3, -1.0)])
def test_holding_floor_input_checks(K, alpha):
    with pytest.raises(ValueError, match="K >= 1"):
        holding_probability_floor(floor_model(alpha, 1), 1, K, 0.5)


def test_chain_generator_reads_the_rows():
    rates = np.array([[0.0, 0.4, 1.1], [0.7, 0.0, 0.2], [0.0, 1.5, 0.0]])
    model = s.linear_switching_model(beta=(0.0,) * 3, a=(0.0,) * 3,
                                     s=(0.0,) * 3, rates=rates)
    G = s.chain_generator_matrix(model.q)
    assert np.array_equal(G - np.diag(np.diag(G)), rates)
    assert np.array_equal(np.diag(G), -rates.sum(axis=1))
    bad = s.QMatrixSpec(rate=lambda x, i, j: -1.0, kappa=1,
                        state_independent=True, n_regimes=2)
    with pytest.raises(s.InvalidModelError, match="negative rate"):
        s.chain_generator_matrix(bad)
    with pytest.raises(ValueError, match="finite regime count"):
        s.chain_generator_matrix(s.QMatrixSpec(rate=lambda x, i, j: 1.0,
                                               kappa=1, state_independent=True))
    with pytest.raises(s.UnsupportedSchemeError):
        s.chain_generator_matrix(s.QMatrixSpec(rate=lambda x, i, j: 1.0,
                                               kappa=1, n_regimes=2))


def test_input_validation():
    with pytest.raises(ValueError):
        s.transition_matrix(two_state(), -1.0)
    with pytest.raises(ValueError):
        s.transition_matrix(np.zeros((600, 600)), 1.0)
    with pytest.raises(s.InvalidModelError):
        s.transition_matrix(np.array([[0.0, -1.0], [1.0, -1.0]]), 1.0)
    with pytest.raises(s.InvalidModelError):
        s.transition_matrix(np.array([[-1.0, 2.0], [1.0, -1.0]]), 1.0)


@pytest.mark.parametrize("t", [math.inf, math.nan])
def test_transition_matrix_refuses_a_time_that_is_not_finite(t):
    # exp(t Q) at t = inf or NaN is all NaN, not a stochastic matrix
    with pytest.raises(ValueError, match="nonnegative and finite"):
        s.transition_matrix(two_state(), t)
