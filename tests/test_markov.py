import math

import numpy as np
import pytest

import switchsde as s


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


def test_dominating_chain_diagonal_log_limit():
    # interior regime: (log p(t,i,i))/t -> -2*kappa*alpha*K as t -> 0
    spec = s.DominatingChainSpec(K=2, alpha=1.0, kappa=1)
    G = s.chain_generator_matrix(spec.q, 12)
    t = 1e-4
    P = s.transition_matrix(G, t)
    i = 5
    rate = math.log(P[i - 1, i - 1]) / t
    target = -2 * spec.kappa * spec.alpha * spec.K
    assert abs(rate - target) / abs(target) < 0.01


def test_holding_probability_floor_formula():
    spec = s.DominatingChainSpec(K=3, alpha=2.0, kappa=1)
    assert s.holding_probability(spec, 1, 0.5) == pytest.approx(math.exp(-3.0))
    assert s.holding_probability(spec, 2, 0.5) == pytest.approx(math.exp(-6.0))


def test_input_validation():
    with pytest.raises(ValueError):
        s.transition_matrix(two_state(), -1.0)
    with pytest.raises(ValueError):
        s.transition_matrix(np.zeros((600, 600)), 1.0)
    with pytest.raises(s.InvalidModelError):
        s.transition_matrix(np.array([[0.0, -1.0], [1.0, -1.0]]), 1.0)
    with pytest.raises(s.InvalidModelError):
        s.transition_matrix(np.array([[-1.0, 2.0], [1.0, -1.0]]), 1.0)
