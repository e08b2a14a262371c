"""The benchmark's tracer (``perfbench/tracing.py``) patches switchsde names
from outside the package. A refactor that drops or renames one of them fails
here, in the tier-1 suite, and not only in a traced benchmark run."""

from pathlib import Path

import pytest

import switchsde as s
from switchsde import estimators

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    return tracing


@pytest.mark.filterwarnings("ignore::switchsde.errors.StiffSwitchingWarning")
def test_tracer_installs_runs_the_checkers_and_uninstalls(tracing):
    tracer = tracing.Tracer().install()
    try:
        ou = s.zoo("switching_ou")
        est = estimators.semigroup_estimate(
            ou, estimators.gauss_function(), 0.1, [0.0], 1, 50,
            s.SimConfig(horizon=0.1, dt=0.01, scheme=s.EVENT_DRIVEN))
        res = estimators.truncation_identity_check(
            s.zoo("birth_death_switch"), [0.2], 2, 5,
            s.SimConfig(horizon=0.3, dt=0.01, scheme=s.FROZEN_RATE), replica=3)
    finally:
        tracer.uninstall()
    assert est.n_replicas == 50 and res["identical"]
    names = {span[3] for span in tracer.spans}
    assert {"estimators.semigroup_estimate", "engine.run_event_driven",
            "estimators.truncation_identity_check"} <= names
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["estimators.checks"] == 2
