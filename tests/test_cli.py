import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import switchsde as s
from switchsde import cli, reports
from switchsde import estimators as est
from switchsde.cli import run
from switchsde.config import (TASK_KEYS, build_model, build_sim, config_hash,
                              parse_config, validate_task)
from switchsde.reports import emit_plot_data, read_jsonl, record, write_jsonl


def write_config(tmp_path, payload, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


BASE = {
    "model": {"zoo": "switching_ou",
              "params": {"dim": 1, "beta": [1.0, 2.0], "a": [0.0, 0.0],
                         "s": [1.0, 1.0]}},
    "sim": {"T": 0.5, "dt": 0.01, "seed": 3131, "scheme": "event_driven_exact",
            "replicas": 2000, "threads": 1},
    "task": {},
    "output": {"dir": "out", "reports": "reports.jsonl"},
}


def with_task(base, sub, task, **output):
    cfg = json.loads(json.dumps(base))
    cfg["task"] = task
    cfg["output"].update(output)
    return cfg


# --- config layer ---------------------------------------------------------------

def test_config_round_trip():
    cfg = parse_config(json.dumps(BASE))
    again = parse_config(json.dumps(cfg.as_dict()))
    assert again == cfg
    assert config_hash(again) == config_hash(cfg)


def test_unknown_keys_rejected():
    bad = dict(BASE, extra={"x": 1})
    with pytest.raises(s.ConfigError, match="extra"):
        parse_config(json.dumps(bad))
    bad2 = json.loads(json.dumps(BASE))
    bad2["sim"]["weird"] = 1
    with pytest.raises(s.ConfigError, match="weird"):
        parse_config(json.dumps(bad2))
    # zoo params are the builder's keyword arguments: the builder rejects
    bad3 = json.loads(json.dumps(BASE))
    bad3["model"]["params"]["volatility"] = 1
    with pytest.raises(s.ConfigError, match="volatility"):
        build_model(parse_config(json.dumps(bad3)))


def test_task_keys_validated():
    cfg = parse_config(json.dumps(with_task(BASE, "simulate", {"x0": [0.0],
                                                               "wat": 1})))
    with pytest.raises(s.ConfigError, match="wat"):
        validate_task(cfg, "simulate")


def test_build_model_and_sim_overrides():
    cfg = parse_config(json.dumps(BASE))
    m = build_model(cfg)
    assert m.dim == 1 and m.q.n_regimes == 2
    sim = build_sim(cfg, seed=9, replicas=55, dt=0.02, threads=2)
    assert (sim.seed, sim.replicas, sim.dt, sim.threads) == (9, 55, 0.02, 2)


_NUMBER = st.integers() | st.floats()
_JSON = st.recursive(
    st.none() | st.booleans() | _NUMBER | st.text(max_size=4),
    lambda kids: (st.lists(kids, max_size=3)
                  | st.dictionaries(st.text(max_size=4), kids, max_size=3)),
    max_leaves=8)
# vectors and matrices of numbers reach further into the model builders
_VALUE = (_JSON | st.lists(_NUMBER, max_size=3)
          | st.lists(st.lists(_NUMBER, max_size=3), max_size=3))


def _section(keys, **fixed):
    """Four times in five an object over ``keys`` (values from ``fixed``
    where given), with a random key one time in five; otherwise any JSON
    value."""
    values = {k: fixed.get(k, _VALUE) for k in sorted(keys)}
    known = st.fixed_dictionaries({}, optional=values)
    extra = st.dictionaries(st.text(max_size=4), _JSON, max_size=1)
    obj = st.tuples(st.integers(0, 4), extra, known).map(
        lambda r: {**r[1], **r[2]} if r[0] == 0 else r[2])
    return st.integers(0, 4).flatmap(lambda r: obj if r else _JSON)


_CONFIGS = _section(
    {"model", "sim", "task", "output"},
    model=_section({"zoo", "params"},
                   zoo=st.sampled_from(["switching_ou", "degenerate_regime",
                                        "birth_death_switch",
                                        "nonlipschitz_log"]) | _JSON,
                   params=_section({"dim", "beta", "a", "s", "rates",
                                    "sigma_scale"})),
    sim=_section({"T", "dt", "K", "seed", "scheme", "replicas", "threads"}),
    task=_section(set().union(*TASK_KEYS.values())),
    output=_section({"dir", "reports", "trajectory", "trajectory_binary",
                     "plot_data"}))


# zoo parameters a builder used to store unchecked, so that the model built
# and failed only when first evaluated
BAD_ZOO_PARAMS = [
    ("birth_death_switch", {"dim": None}),
    ("birth_death_switch", {"dim": "x"}),
    ("birth_death_switch", {"dim": 0}),
    ("birth_death_switch", {"dim": -1}),
    ("birth_death_switch", {"dim": 1.5}),
    ("birth_death_switch", {"dim": True}),
    ("birth_death_switch", {"sigma_scale": "abc"}),
    ("birth_death_switch", {"sigma_scale": math.nan}),
    ("switching_ou", {"dim": 0}),
    ("switching_ou", {"dim": 2.5}),
    ("degenerate_regime", {"dim": 0}),
    ("degenerate_regime", {"dim": 2.5}),
    ("switching_ou", {"rates": [[0.0, math.nan], [1.0, 0.0]]}),
    ("switching_ou", {"s": [1.0, math.nan]}),
    ("switching_ou", {"rates": [[0, 1, 1], [1, 0, 1], [1, 1, 0]]}),
]


def _pin_bad_zoo_params(test):
    for zoo, params in BAD_ZOO_PARAMS:
        test = example(raw={"model": {"zoo": zoo, "params": params}})(test)
    return test


_TINY_PLAN = s.SamplingPlan(n_pairs=4, n_rate_pairs=2, max_regime=2,
                            times=(0.0,))


@settings(max_examples=200, deadline=None)
@given(raw=_CONFIGS)
@example(raw={"model": {"zoo": "switching_ou", "params": {"rates": False}}})
@example(raw={"model": {"zoo": "degenerate_regime",
                        "params": {"dim": 10 ** 400}},
              "sim": {"seed": math.inf}})
@_pin_bad_zoo_params
def test_config_layer_raises_only_config_errors(raw):
    # parsing, task validation and model/sim building; a model that builds
    # is evaluated once by the assumption checks (small dimensions only, so
    # a random huge dim allocates nothing)
    try:
        cfg = parse_config(json.dumps(raw))
    except s.ConfigError:
        return
    stages = [lambda sub=sub: validate_task(cfg, sub) for sub in TASK_KEYS]
    for stage in (*stages, lambda: build_sim(cfg)):
        try:
            stage()
        except s.ConfigError:
            pass
    try:
        model = build_model(cfg)
    except s.ConfigError:
        return
    if model.dim <= 4:
        s.check_assumptions(model, _TINY_PLAN)


@pytest.mark.parametrize("zoo, params", BAD_ZOO_PARAMS)
def test_bad_zoo_params_rejected_at_build(zoo, params):
    cfg = parse_config(json.dumps({"model": {"zoo": zoo, "params": params}}))
    with pytest.raises(s.ConfigError, match="bad model"):
        build_model(cfg)


# --- report layer -----------------------------------------------------------------

def test_jsonl_round_trip_and_nonfinite(tmp_path):
    recs = [record("holding", "m", {"t": 0.1}, 1.0, float("inf"), 0.0, None,
                   True, "hash", 1)]
    path = tmp_path / "r.jsonl"
    write_jsonl(path, recs)
    back = read_jsonl(path)
    assert back[0]["rhs"] is None          # inf serializes as null
    assert back[0]["checker"] == "holding"


def test_emit_plot_data_families(tmp_path):
    feller = [record("feller", "m", {"radius": r}, 0.1 * r, None, 0.01, None,
                     True, "", 1) for r in (0.5, 0.1)]
    out = tmp_path / "f.csv"
    emit_plot_data(feller, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "radius,gap,stderr"
    assert len(lines) == 3

    holding = [record("holding", "m", {"t": 0.1}, 0.9, 0.5, 0.001, 0.4, True,
                      "", 1)]
    emit_plot_data(holding, tmp_path / "h.csv")
    assert (tmp_path / "h.csv").read_text().splitlines()[0] == \
        "t,empirical,bound,pass"

    generic = [record("harnack", "m", {}, -0.1, 0.2, 0.01, 0.3, True, "", 1)]
    emit_plot_data(generic, tmp_path / "g.csv")
    assert (tmp_path / "g.csv").read_text().splitlines()[0] == "lhs,rhs,margin"

    with pytest.raises(ValueError, match="mixed"):
        emit_plot_data(feller + holding, tmp_path / "x.csv")


def test_plot_rows_per_family_bytes(tmp_path):
    # each family's header and rows; a gap record without a radius falls
    # back to its lhs, and the pass flag is written as 0 or 1
    families = {
        "feller": ([record("feller", "m", {"radius": 0.5}, 0.05, None, 0.01,
                           None, True, "", 1),
                    record("feller", "m", {}, 0.25, None, 0.02, None, False,
                           "", 1)],
                   b"radius,gap,stderr\r\n0.5,0.05,0.01\r\n0.25,0.25,0.02\r\n"),
        "holding": ([record("holding", "m", {"t": 0.1}, 0.9, 0.5, 0.001, 0.4,
                            True, "", 1),
                     record("holding", "m", {"t": 0.2}, 0.4, 0.5, 0.001, -0.1,
                            False, "", 1)],
                    b"t,empirical,bound,pass\r\n0.1,0.9,0.5,1\r\n"
                    b"0.2,0.4,0.5,0\r\n"),
        "harnack": ([record("harnack", "m", {"t": 1}, -0.1, 0.2, 0.01, 0.3,
                            True, "", 1)],
                    b"lhs,rhs,margin\r\n-0.1,0.2,0.3\r\n"),
    }
    for family, (recs, want) in families.items():
        emit_plot_data(recs, tmp_path / f"{family}.csv")
        assert (tmp_path / f"{family}.csv").read_bytes() == want


def test_one_plot_table_drives_the_writer(tmp_path, monkeypatch):
    monkeypatch.setitem(reports._PLOT_TABLES, "probe", (
        ("w", "lhs"), lambda p, r: [p["w"], r["lhs"]]))
    recs = [record("probe", "m", {"w": 2}, 0.5, 1.0, 0.1, 0.5, True, "", 1)]
    emit_plot_data(recs, tmp_path / "p.csv")
    assert (tmp_path / "p.csv").read_bytes() == b"w,lhs\r\n2,0.5\r\n"
    with pytest.raises(ValueError, match="no records"):
        emit_plot_data([], tmp_path / "e.csv")


# --- CLI end to end ------------------------------------------------------------------

def test_simulate_writes_deterministic_csv(tmp_path):
    cfg = with_task(BASE, "simulate", {"x0": [0.2], "i0": 1},
                    dir=str(tmp_path / "o"), trajectory="traj.csv",
                    trajectory_binary="traj.bin")
    path = write_config(tmp_path, cfg)
    outputs = []
    for _ in range(2):
        assert run("simulate", path) == 0
        outputs.append([(tmp_path / "o" / name).read_bytes()
                        for name in ("traj.csv", "traj.bin")])
    assert outputs[0] == outputs[1]
    traj = s.from_binary(tmp_path / "o" / "traj.bin")
    assert traj.seed == 3131


def test_jump_lipschitz_subcommand(tmp_path):
    cfg = with_task(BASE, "jump-lipschitz", {"cases": 40},
                    dir=str(tmp_path / "jl"))
    code = run("jump-lipschitz", write_config(tmp_path, cfg))
    assert code == 0
    recs = read_jsonl(tmp_path / "jl" / "reports.jsonl")
    assert len(recs) == 40
    assert all(r["pass"] for r in recs)
    assert len({r["config_hash"] for r in recs}) == 1


def test_feller_floor_subcommand_certifies(tmp_path):
    cfg = {
        "model": {"zoo": "degenerate_regime"},
        "sim": {"T": 1.0, "dt": 0.005, "seed": 77, "scheme":
                "event_driven_exact", "replicas": 8000},
        "task": {"x0": [-0.0005], "i0": 1, "t": 1.0, "radii": [0.001],
                 "f": {"name": "indicator_x1"}, "mode": "floor",
                 "floor": 0.05},
        "output": {"dir": str(tmp_path / "fl"), "reports": "r.jsonl",
                   "plot_data": "gaps.csv"},
    }
    code = run("feller", write_config(tmp_path, cfg))
    assert code == 0
    recs = read_jsonl(tmp_path / "fl" / "r.jsonl")
    summary = [r for r in recs if r["checker"] == "summary"][0]
    assert summary["pass"]
    assert (tmp_path / "fl" / "gaps.csv").exists()


def test_reports_identical_across_thread_counts(tmp_path):
    base = with_task(BASE, "chain-marginal", {"times": [0.5]},
                     dir=str(tmp_path / "t"))
    base["sim"]["replicas"] = 4000
    path = write_config(tmp_path, base, "a.json")
    assert run("chain-marginal", path) == 0
    first = (tmp_path / "t" / "reports.jsonl").read_bytes()
    assert run("chain-marginal", path, threads=2) == 0
    assert first == (tmp_path / "t" / "reports.jsonl").read_bytes()


def test_config_error_exit_code(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert run("simulate", path) == 2
    bad = with_task(BASE, "simulate", {"nope": 1})
    assert run("simulate", write_config(tmp_path, bad, "bad.json")) == 2


@pytest.mark.parametrize("content", [None, "dir", b"\xff\xfe{"])
def test_unreadable_config_exit_code(tmp_path, capsys, content):
    path = tmp_path / "scenario.json"
    if content == "dir":
        path.mkdir()
    elif content is not None:
        path.write_bytes(content)
    assert run("simulate", path) == 2
    err = capsys.readouterr().err
    assert "config error" in err and str(path) in err


@pytest.mark.parametrize("spec", ["gauss", [], 3])
def test_observable_spec_must_be_object(tmp_path, capsys, spec):
    cfg = with_task(BASE, "feller", {"f": spec, "radii": [0.1]},
                    dir=str(tmp_path / "o"))
    assert run("feller", write_config(tmp_path, cfg)) == 2
    assert "config error" in capsys.readouterr().err


def test_task_value_read_as_infinity_exit_code(tmp_path, capsys):
    cfg = with_task(BASE, "jump-lipschitz", {"cases": "HUGE"},
                    dir=str(tmp_path / "o"))
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg).replace('"HUGE"', "1e400"))
    assert run("jump-lipschitz", path) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "infinity" in err


def test_bad_output_dir_exits_before_the_run(tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("the sweep ran")
    monkeypatch.setattr(est, "displacement_lipschitz_sweep", never)
    afile = tmp_path / "afile"
    afile.write_text("")
    cfg = with_task(BASE, "jump-lipschitz", {"cases": 4}, dir=str(afile))
    assert run("jump-lipschitz", write_config(tmp_path, cfg)) == 2
    err = capsys.readouterr().err
    assert "config error" in err and str(afile) in err


def test_nested_output_names_are_created(tmp_path):
    cfg = with_task(BASE, "simulate", {"x0": [0.0], "i0": 1},
                    dir=str(tmp_path / "o"), reports="r/reports.jsonl",
                    trajectory="t/path.csv", trajectory_binary="t/b/path.bin",
                    plot_data="p/plot.csv")
    assert run("simulate", write_config(tmp_path, cfg)) == 0
    for name in ("r/reports.jsonl", "t/path.csv", "t/b/path.bin",
                 "p/plot.csv"):
        assert (tmp_path / "o" / name).stat().st_size > 0


@pytest.mark.parametrize("output", [{"reports": 5}, {"reports": ""},
                                    {"plot_data": ["p.csv"]},
                                    {"reports": "afile/r.jsonl"},
                                    {"trajectory": "afile/t.csv"}])
def test_bad_output_name_exits_before_the_run(tmp_path, capsys, monkeypatch,
                                              output):
    def never(*args, **kwargs):
        raise AssertionError("the sweep ran")
    monkeypatch.setattr(est, "displacement_lipschitz_sweep", never)
    (tmp_path / "o").mkdir()
    (tmp_path / "o" / "afile").write_text("")
    cfg = with_task(BASE, "jump-lipschitz", {"cases": 4},
                    dir=str(tmp_path / "o"), **output)
    assert run("jump-lipschitz", write_config(tmp_path, cfg)) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert "afile" in err or f"output.{next(iter(output))}" in err


def test_feller_mode_checked_before_the_run(tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("feller_modulus ran")
    monkeypatch.setattr(est, "feller_modulus", never)
    for name, task in (("mode", {"mode": "slope"}),
                       ("f", {"f": {"name": "cosine"}})):
        cfg = with_task(BASE, "feller", {"radii": [0.1], **task},
                        dir=str(tmp_path / "o"))
        assert run("feller", write_config(tmp_path, cfg, f"{name}.json")) == 2
        assert "config error" in capsys.readouterr().err


def test_nonfinite_sim_values_exit_code(tmp_path, capsys):
    # json writes these as the bare tokens NaN / Infinity, which it also reads
    for key, value in (("dt", math.nan), ("T", math.inf)):
        cfg = with_task(BASE, "simulate", {"x0": [0.0]})
        cfg["sim"][key] = value
        assert run("simulate", write_config(tmp_path, cfg, f"{key}.json")) == 2
        assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("section, value", [
    ("model", []), ("sim", []), ("task", []), ("sim", {"K": "abc"}),
    ("task", {"x0": "abc"}), ("model", {"zoo": []}),
])
def test_malformed_sections_exit_code(tmp_path, capsys, section, value):
    cfg = with_task(BASE, "simulate", {}, dir=str(tmp_path / "o"))
    cfg[section] = value
    assert run("simulate", write_config(tmp_path, cfg)) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("scheme", ["event_driven_exact", "frozen_rate"])
@pytest.mark.parametrize("i0", [0, -1, 3])
def test_start_regime_outside_space_exit_code(tmp_path, capsys, scheme, i0):
    cfg = with_task(BASE, "simulate", {"x0": [0.0], "i0": i0},
                    dir=str(tmp_path / "o"))
    cfg["sim"]["scheme"] = scheme
    assert run("simulate", write_config(tmp_path, cfg)) == 2
    assert f"start regime {i0} " in capsys.readouterr().err


def test_assumption_gate_exit_code(tmp_path):
    cfg = {
        "model": {"zoo": "degenerate_regime"},
        "sim": {"T": 0.25, "dt": 0.01, "seed": 5, "scheme":
                "event_driven_exact", "replicas": 500},
        "task": {"cases": 2},
        "output": {"dir": str(tmp_path / "g")},
    }
    assert run("harnack", write_config(tmp_path, cfg)) == 3


def test_harnack_samples_one_plan_per_horizon(tmp_path, monkeypatch):
    # the checkers are the only assumption gate: a harnack run samples one
    # plan per horizon, and nothing else samples the model again
    seen = []
    check = s.check_assumptions

    def spy(model, plan=None):
        seen.append((model, plan))
        return check(model, plan)

    monkeypatch.setattr(cli, "check_assumptions", spy, raising=False)
    monkeypatch.setattr(est, "check_assumptions", spy)
    code, records = small_run(tmp_path, "harnack")  # T_values 0.25 and 0.5
    assert code == expected_code(records)
    models = {id(model): model for model, _ in seen}
    assert len(models) == 1
    (model,) = models.values()
    assert sorted(plan.times for plan in model._reports) == [(0.0, 0.25),
                                                             (0.0, 0.5)]
    assert {plan for _, plan in seen} == set(model._reports)


def test_blowup_exit_code(tmp_path):
    import warnings
    for scheme in ("event_driven_exact", "frozen_rate"):
        cfg = {
            "model": {"zoo": "switching_ou",
                      "params": {"dim": 1, "beta": [-1e9], "a": [0.0],
                                 "s": [0.0], "rates": [[0.0]]}},
            "sim": {"T": 1.0, "dt": 0.01, "seed": 1, "scheme": scheme,
                    "replicas": 10},
            "task": {"x0": [1.0], "i0": 1},
            "output": {"dir": str(tmp_path / scheme)},
        }
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert run("simulate", write_config(tmp_path, cfg,
                                                f"{scheme}.json")) == 4


def test_main_returns_exit_code(tmp_path):
    from switchsde.cli import main
    cfg = with_task(BASE, "simulate", {"x0": [0.0], "i0": 1},
                    dir=str(tmp_path / "m"))
    path = write_config(tmp_path, cfg)
    assert main(["simulate", "--config", str(path)]) == 0


# --- the exit code is read from the records ---------------------------------------

_BD = {"zoo": "birth_death_switch"}
_OU = {"zoo": "switching_ou"}
SMALL_RUNS = {
    "simulate": (_BD, {"x0": [0.2], "i0": 1}),
    "jump-lipschitz": (_BD, {"cases": 50}),
    "moments": (_BD, {"x0": [0.5], "i0": 1, "T_values": [0.25, 0.5]}),
    "holding": (_BD, {"x0": [0.0], "K_values": [3], "t_grid": [0.1, 0.5]}),
    "harnack": (_OU, {"cases": 4, "T_values": [0.25, 0.5]}),
    "feller": (_BD, {"x0": [0.0], "i0": 1, "t": 0.5, "radii": [0.5, 0.1]}),
    "chain-marginal": (_OU, {"times": [0.25, 0.5]}),
    "truncation-check": (_BD, {"x0": [0.2], "i0": 2, "K_values": [6],
                               "compare_cases": 2}),
}


def small_run(tmp_path, sub, task=None):
    model, default_task = SMALL_RUNS[sub]
    cfg = {"model": model,
           "sim": {"T": 0.5, "dt": 0.01, "seed": 11,
                   "scheme": "event_driven_exact", "replicas": 500},
           "task": default_task if task is None else task,
           "output": {"dir": str(tmp_path / "o")}}
    code = run(sub, write_config(tmp_path, cfg))
    return code, read_jsonl(tmp_path / "o" / "reports.jsonl")


def expected_code(records):
    judged = [r for r in records if r["checker"] == "summary"] or records
    return 0 if all(r["pass"] for r in judged) else 1


@pytest.mark.parametrize("sub", sorted(SMALL_RUNS))
def test_exit_code_follows_the_records(tmp_path, sub):
    code, records = small_run(tmp_path, sub)
    assert records
    assert code == expected_code(records)


def test_feller_records_fail_on_aborted_replicas(tmp_path):
    # beta = -1000: every replica overflows, so each per-radius gap is flagged
    cfg = with_task(BASE, "feller", {"x0": [0.0], "radii": [0.5, 0.1]},
                    dir=str(tmp_path / "o"))
    cfg["model"]["params"]["beta"] = [-1000.0, -1000.0]
    cfg["sim"]["replicas"] = 400
    assert run("feller", write_config(tmp_path, cfg)) == 1
    gaps = [r for r in read_jsonl(tmp_path / "o" / "reports.jsonl")
            if r["checker"] == "feller"]
    assert [r["params"]["radius"] for r in gaps] == [0.5, 0.1]
    assert all(not r["pass"] and r["n_aborted"] > 0 for r in gaps)


# sweeps over nothing: each would pass having checked nothing, or crash
EMPTY_TASKS = {
    "jump-lipschitz-no-cases": ("jump-lipschitz", {"cases": 0}),
    "jump-lipschitz-no-p": ("jump-lipschitz", {"p_values": []}),
    "harnack-no-cases": ("harnack", {"cases": 0}),
    "moments-no-T": ("moments", {"T_values": []}),
    "feller-no-radii": ("feller", {"radii": []}),
    "truncation-no-cases": ("truncation-check", {"compare_cases": 0}),
}


def assert_config_error(tmp_path, capsys, sub, task, named=""):
    cfg = {"model": SMALL_RUNS[sub][0],
           "sim": {"T": 0.5, "dt": 0.01, "seed": 11,
                   "scheme": "event_driven_exact", "replicas": 500},
           "task": task, "output": {"dir": str(tmp_path / "o")}}
    assert run(sub, write_config(tmp_path, cfg)) == 2
    err = capsys.readouterr().err
    assert "config error" in err and named in err


@pytest.mark.parametrize("name", sorted(EMPTY_TASKS))
def test_empty_sweep_is_a_config_error(tmp_path, capsys, name):
    assert_config_error(tmp_path, capsys, *EMPTY_TASKS[name])


# task values that would end in a traceback or check a negative horizon, and
# the text the error message must hold: the key, where the config catches it
BAD_TASK_VALUES = {
    "harnack-zero-T": ("harnack", {"cases": 2, "T_values": [0]},
                       "horizon must be positive"),
    "chain-marginal-fractional-start": ("chain-marginal", {"starts": [1.5]},
                                        "task.starts"),
    "feller-negative-t": ("feller", {"t": -1}, "task.t"),
    "truncation-negative-t": ("truncation-check", {"t": -1,
                                                   "compare_cases": 2},
                              "task.t"),
    "jump-lipschitz-zero-dim": ("jump-lipschitz", {"cases": 5, "dim": 0},
                                "task.dim"),
    "jump-lipschitz-fractional-dim": ("jump-lipschitz", {"cases": 5,
                                                         "dim": 1.5},
                                      "task.dim"),
    "jump-lipschitz-fractional-i-max": ("jump-lipschitz", {"cases": 5,
                                                           "i_max": 2.7},
                                        "task.i_max"),
    "moments-one-T": ("moments", {"T_values": 0.5}, "task.T_values"),
    "holding-one-K": ("holding", {"K_values": 3}, "task.K_values"),
    "chain-marginal-one-time": ("chain-marginal", {"times": 1.0},
                                "task.times"),
}


@pytest.mark.parametrize("name", sorted(BAD_TASK_VALUES))
def test_bad_task_value_is_a_config_error(tmp_path, capsys, name):
    sub, task, named = BAD_TASK_VALUES[name]
    assert_config_error(tmp_path, capsys, sub, task, named)


def test_integral_float_start_runs_as_its_regime(tmp_path):
    # the config hash differs, since the two configs differ as JSON
    runs = {}
    for start in (1, 1.0):
        sub = tmp_path / repr(start)
        sub.mkdir()
        code, records = small_run(sub, "chain-marginal",
                                  {"times": [0.5], "starts": [start]})
        assert code == 0
        runs[start] = [{k: v for k, v in r.items() if k != "config_hash"}
                       for r in records]
    assert runs[1.0] == runs[1]


def test_unknown_observable_key_exits_before_the_run(tmp_path, capsys,
                                                     monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("feller_modulus ran")
    monkeypatch.setattr(est, "feller_modulus", never)
    for f in ({"name": "gauss", "scael": 3.0}, {"name": "one", "scale": 2.0},
              {"name": "indicator_x1", "center": [0.0]}):
        assert_config_error(tmp_path, capsys, "feller",
                            {"radii": [0.1], "f": f}, f"task.f ({f['name']})")


def test_failed_summary_exits_one(tmp_path):
    # at this seed every entry lies within 3 se, yet no fraction reaches a
    # bar above 1
    code, records = small_run(tmp_path, "chain-marginal",
                              {"times": [0.5], "min_fraction": 1.5})
    assert code == 1
    assert not records[-1]["pass"]
    assert all(r["pass"] for r in records if r["checker"] != "summary")


def test_failed_record_exits_one(tmp_path, monkeypatch):
    def failing(model, x, i, T, n, cfg, threads=1):
        return est.BoundReport("moments", est.McEstimate(2.0, 0.1, n), 1.0,
                               -1.3, False, {"model": model.model_id, "T": T})
    monkeypatch.setattr(est, "moment_bound_check", failing)
    code, records = small_run(tmp_path, "moments")
    assert code == 1
    assert [r["pass"] for r in records] == [False, False]


# --- the example scenarios ------------------------------------------------------

EXAMPLES = sorted((Path(__file__).resolve().parent.parent / "examples").glob(
    "*.json"))


def test_examples_cover_the_script_scenarios():
    subs = [p.stem.split("_", 1)[0] for p in EXAMPLES]
    assert sorted(subs) == ["chain-marginal"] * 2 + ["feller"] * 2 + ["harnack"]


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_scenario_runs(tmp_path, monkeypatch, path):
    # each file name starts with the subcommand that runs it
    sub = path.stem.split("_", 1)[0]
    monkeypatch.chdir(tmp_path)
    assert run(sub, path) == 0
    out = json.loads(path.read_text())["output"]
    outdir = tmp_path / out["dir"]
    records = read_jsonl(outdir / out["reports"])
    assert records[-1]["checker"] == "summary" and records[-1]["pass"]
    if "plot_data" in out:
        rows = (outdir / out["plot_data"]).read_text().splitlines()
        plotted = [r for r in records if r["checker"] != "summary"]
        assert len(rows) == 1 + len(plotted)


# --- report bytes of the subcommands whose checkers gate on the assumptions --------

# sha256 of each reports.jsonl; the output dir is relative, so the config hash
# in every record is the same wherever the test runs
PINNED_RUNS = {
    "moments": ({"x0": [0.5], "i0": 1, "T_values": [0.25, 0.5]},
                "7b7c9abde74d2f0e13e6edf54a2d8a953fafb805aa6179cd5c1685c93ab9b9e7"),
    "holding": ({"x0": [0.0], "K_values": [3], "t_grid": [0.1, 0.5]},
                "cd2615808cf6c97e6df8ad873c39e8c9f22bbb186b399f7399efc6ef443ceccd"),
    "truncation-check": ({"x0": [0.2], "i0": 2, "K_values": [6],
                          "compare_cases": 2},
                         "5b9a9d47afc7f0c3bb2fd3a194c49791b9c5ab7e2e7d93a89a971932495d6a6f"),
}


@pytest.mark.parametrize("sub", sorted(PINNED_RUNS))
def test_gated_subcommand_report_bytes_are_pinned(tmp_path, monkeypatch, sub):
    task, digest = PINNED_RUNS[sub]
    cfg = {"model": _BD,
           "sim": {"T": 0.5, "dt": 0.01, "seed": 17,
                   "scheme": "event_driven_exact", "replicas": 1000},
           "task": task, "output": {"dir": sub}}
    monkeypatch.chdir(tmp_path)
    assert run(sub, write_config(tmp_path, cfg)) == 0
    got = hashlib.sha256((tmp_path / sub / "reports.jsonl").read_bytes())
    assert got.hexdigest() == digest


# JSON reads NaN and Infinity: a non-finite start is a config error, never a
# run whose replicas all abort
@pytest.mark.parametrize("sub, task", [
    ("moments", {"x0": [math.nan], "i0": 1, "T_values": [0.5]}),
    ("feller", {"x0": [math.nan], "i0": 1, "t": 0.5, "radii": [0.5, 0.1]}),
    ("feller", {"x0": [0.0], "i0": 1, "t": 0.5, "radii": [0.5, math.nan]}),
    ("simulate", {"x0": [math.inf], "i0": 1}),
    ("truncation-check", {"x0": [math.nan], "i0": 1, "K_values": [6],
                          "compare_cases": 2}),
])
def test_non_finite_start_is_a_config_error(tmp_path, capsys, sub, task):
    cfg = {"model": _BD,
           "sim": {"T": 0.5, "dt": 0.01, "seed": 11,
                   "scheme": "event_driven_exact", "replicas": 200},
           "task": task, "output": {"dir": str(tmp_path / "o")}}
    assert run(sub, write_config(tmp_path, cfg)) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert "is not finite" in err or "need |x0| + i0 < K" in err


# --- cold start -------------------------------------------------------------------

_COLD_START = """
import json, sys
import switchsde, switchsde.cli
from switchsde.estimators import second_moment_envelope
heavy = ("scipy.integrate", "scipy.optimize", "scipy.linalg")
out = {"at_import": [m for m in heavy if m in sys.modules]}
out["envelope"] = second_moment_envelope(switchsde.zoo("switching_ou"),
                                         0.5, 1, 1.0)
q = switchsde.zoo("switching_ou", rates=[[0, 1, 0], [2, 0, 1], [0, 3, 0]],
                  beta=(1, 2, 3), a=(0, 0, 0), s=(1, 1, 1)).q
out["P"] = switchsde.transition_matrix(switchsde.chain_generator_matrix(q),
                                       0.5).tolist()
out["after_calls"] = [m for m in heavy if m in sys.modules]
print(json.dumps(out))
"""


def test_import_leaves_heavy_scipy_to_its_callers():
    # scipy.integrate (which loads optimize) and scipy.linalg are imported by
    # the functions that call them, so a fresh process that imports the
    # package and the CLI has neither; the calls load them and their values
    # are those of module-level imports
    env = {**os.environ, "PYTHONPATH": str(Path(s.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", _COLD_START], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    out = json.loads(proc.stdout)
    assert out["at_import"] == []
    assert out["after_calls"] == ["scipy.integrate", "scipy.optimize",
                                  "scipy.linalg"]
    assert out["envelope"] == 2.701897935018367e+28
    assert out["P"] == [
        [0.7280988136320741, 0.227742093321573, 0.044159093046352925],
        [0.45548418664314577, 0.4050919061279872, 0.13942390722886702],
        [0.2649545582781176, 0.4182717216866012, 0.31677372003528126]]
