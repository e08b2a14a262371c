"""Layer probes: the micro-measurements of ROADMAP's Baseline table.

Each probe times one public entry point on a fixed input, untraced, and
reports seconds per call (the median where a call is cheap enough to
repeat).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from switchsde import engine, estimators as est, markov, models, noise
from switchsde.engine import EVENT_DRIVEN, FROZEN_RATE, SimConfig

from workloads import DT, N_DIFF, banded_chain, statedep_model


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_probes(seed: int) -> dict[str, float]:
    stream = noise.NoiseStream(seed)
    replicas = np.arange(N_DIFF, dtype=np.uint64)
    keys = stream.replica_keys(replicas)
    ou1 = models.zoo("switching_ou", dim=1)
    ou3 = models.zoo("switching_ou", dim=3)
    callback = models.zoo("nonlipschitz_log")
    frozen = statedep_model()
    chain10 = est.chain_generator_matrix(
        banded_chain(np.random.default_rng(seed), 10).q)
    counter = iter(range(10 ** 9))

    def event(model):
        return lambda: engine.run_event_driven(model, np.zeros(model.dim), 1,
                                               1.0, DT, stream, replicas)

    path_cfg = SimConfig(horizon=1.0, dt=DT, seed=seed, scheme=FROZEN_RATE)
    harnack_cfg = SimConfig(horizon=1.0, dt=DT, seed=seed, scheme=EVENT_DRIVEN)
    return {
        "probe.keyed_normal_s": _median_time(
            lambda: noise.keyed_normal(keys, noise.LANE_EULER,
                                       np.uint64(next(counter))), 200),
        "probe.event_linear_d1_s": _median_time(event(ou1), 1),
        "probe.event_linear_d3_s": _median_time(event(ou3), 1),
        "probe.event_callback_s": _median_time(event(callback), 1),
        "probe.frozen_path_s": _median_time(
            lambda: engine.simulate_path(frozen, [0.5], 1, path_cfg,
                                         replica=next(counter)), 5),
        "probe.harnack_check_s": _median_time(
            lambda: est.harnack_check(ou1, est.gauss_function(1.0), [0.3],
                                      [-0.2], 1, 1.0, N_DIFF, harnack_cfg),
            1),
        "probe.check_assumptions_s": _median_time(
            lambda: models.check_assumptions(ou1), 3),
        "probe.transition_matrix_s": _median_time(
            lambda: markov.transition_matrix(chain10, 2.0), 20),
    }
