"""Tests of the benchmark harness: span reduction, wrapper removal, count
determinism and replica-step accounting.

Run from the repository root with ``python -m pytest perfbench/tests``.
Workloads run here at a reduced replica count; the benchmark itself always
runs them at full scale.
"""

import shutil
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import switchsde
import tracing
import worker
import workloads
from switchsde import engine, estimators, models, noise, qmatrix, reports

BENCH = Path(__file__).resolve().parents[1]

SMALL = {"N_DIFF": 200, "N_CHAIN": 2000}


@pytest.fixture
def small(monkeypatch):
    for name, value in SMALL.items():
        monkeypatch.setattr(workloads, name, value)


def test_self_time_subtracts_union_of_overlapping_children():
    spans = [
        # id, parent, thread, name, start, end, payload
        (1, 0, 10, "estimators.harnack_sweep", 0.0, 10.0, None),
        (2, 1, 11, "estimators.harnack_check", 1.0, 5.0, None),
        (3, 1, 12, "estimators.harnack_check", 3.0, 8.0, None),
        (4, 2, 11, "engine.run_event_driven", 2.0, 4.0, (1, 1)),
        (5, 1, 10, "models.check_assumptions", 8.5, 9.0, None),
    ]
    self_t = tracing.self_times(spans)
    # children of 1 cover [1, 8] (two threads, overlapping) and [8.5, 9]
    assert self_t[1] == pytest.approx(10.0 - 7.0 - 0.5)
    assert self_t[2] == pytest.approx(4.0 - 2.0)
    assert self_t[3] == pytest.approx(5.0)
    assert self_t[4] == pytest.approx(2.0)


def test_worker_thread_spans_parent_to_the_pool_owner():
    tracer = tracing.Tracer()
    child = tracer.wrap("engine.child", lambda: time.sleep(0.05))

    def pool():
        with ThreadPoolExecutor(max_workers=2) as ex:
            for fut in [ex.submit(child) for _ in range(2)]:
                fut.result()

    tracer.wrap("estimators.pool", pool)()
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span[3], []).append(span)
    (owner,) = by_name["estimators.pool"]
    kids = by_name["engine.child"]
    assert {k[1] for k in kids} == {owner[0]}
    assert len({k[2] for k in kids} | {owner[2]}) >= 2
    union = max(k[5] for k in kids) - min(k[4] for k in kids)
    assert union < sum(k[5] - k[4] for k in kids)  # they did overlap
    assert tracing.self_times(tracer.spans)[owner[0]] == pytest.approx(
        owner[5] - owner[4] - union)


def _namespaces():
    # every namespace the tracer patches a name in
    return [engine, estimators, models, reports, noise.NoiseStream,
            qmatrix.QMatrixSpec]


def test_uninstall_restores_every_entry_point():
    before = [dict(vars(ns)) for ns in _namespaces()]
    tracer = tracing.Tracer().install()
    try:
        patched = [ns for ns, snap in zip(_namespaces(), before)
                   if any(vars(ns)[k] is not v for k, v in snap.items())]
        assert len(patched) == len(_namespaces())
    finally:
        tracer.uninstall()
    for ns, snap in zip(_namespaces(), before):
        assert all(vars(ns)[k] is v for k, v in snap.items()), ns
    n_spans = len(tracer.spans)
    m = switchsde.zoo("switching_ou")
    cfg = switchsde.SimConfig(horizon=0.1, dt=0.01,
                              scheme=switchsde.EVENT_DRIVEN)
    estimators.semigroup_estimate(m, estimators.gauss_function(), 0.1, [0.0],
                                  1, 50, cfg)
    assert len(tracer.spans) == n_spans


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_counts_repeat_and_replica_steps_match_inputs(name, small, tmp_path):
    cls = workloads.WORKLOADS[name]
    report = tmp_path / "report.jsonl"
    runs = [worker.traced_round(cls, 7, report, reports) for _ in range(2)]
    counts = [{c: tracing.layer_metrics(spans)[c] for c in tracing.COUNT_METRICS}
              for _, spans in runs]
    assert counts[0] == counts[1]
    assert runs[0][0]["sha256"] == runs[1][0]["sha256"]
    # the benchmark's own accounting (rows x ceil(T/dt) from its inputs)
    # agrees with the steps the runners were asked for
    planned = runs[0][0]["replica_steps"]
    assert counts[0]["engine.replica_steps"] == planned
    assert counts[0]["estimators.checks"] >= runs[0][0]["checks"]
    assert counts[0]["reports.records"] == runs[0][0]["records"]


def test_event_linear_replica_steps_formula(small):
    res = workloads.EventLinear(3).round()
    n = workloads.N_DIFF
    cases = workloads.EventLinear.CASES_PER_T
    # ceil(T / dt) with dt = 1e-3 for T = 0.25, 0.5, 1
    assert res.replica_steps == sum(cases * 2 * n * k for k in (250, 500, 1000))
    assert res.paths == 3 * cases * 2 * n


def test_no_result_without_the_package(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "chain_oracle",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert res.returncode != 0
    assert not any(ln.startswith("{") for ln in res.stdout.splitlines())
