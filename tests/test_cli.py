import json
import math

import pytest

import switchsde as s
from switchsde.cli import run
from switchsde.config import (build_model, build_sim, config_hash,
                              parse_config, render_config, validate_task)
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
    again = parse_config(render_config(cfg))
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
    bad3 = json.loads(json.dumps(BASE))
    bad3["model"]["params"]["volatility"] = 1
    with pytest.raises(s.ConfigError, match="volatility"):
        parse_config(json.dumps(bad3))


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


def test_table_model():
    cfg = parse_config(json.dumps({
        "model": {"table": {"dim": 1, "beta": [1.0], "a": [0.0], "s": [1.0],
                            "rates": [[0.0]]}},
        "sim": {}, "task": {}, "output": {}}))
    m = build_model(cfg)
    assert m.model_id == "table"


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


# --- CLI end to end ------------------------------------------------------------------

def test_simulate_writes_deterministic_csv(tmp_path):
    cfg = with_task(BASE, "simulate", {"x0": [0.2], "i0": 1},
                    dir=str(tmp_path / "o1"), trajectory="traj.csv",
                    trajectory_binary="traj.bin")
    code = run("simulate", write_config(tmp_path, cfg))
    assert code == 0
    first = (tmp_path / "o1" / "traj.csv").read_bytes()
    cfg["output"]["dir"] = str(tmp_path / "o2")
    code = run("simulate", write_config(tmp_path, cfg, "s2.json"))
    assert code == 0
    assert first == (tmp_path / "o2" / "traj.csv").read_bytes()
    traj = s.from_binary(tmp_path / "o1" / "traj.bin")
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


def test_nonfinite_sim_values_exit_code(tmp_path, capsys):
    # json writes these as the bare tokens NaN / Infinity, which it also reads
    for key, value in (("dt", math.nan), ("T", math.inf)):
        cfg = with_task(BASE, "simulate", {"x0": [0.0]})
        cfg["sim"][key] = value
        assert run("simulate", write_config(tmp_path, cfg, f"{key}.json")) == 2
        assert "config error" in capsys.readouterr().err


def test_assumption_gate_exit_code(tmp_path):
    cfg = {
        "model": {"zoo": "degenerate_regime"},
        "sim": {"T": 0.25, "dt": 0.01, "seed": 5, "scheme":
                "event_driven_exact", "replicas": 500},
        "task": {"cases": 2},
        "output": {"dir": str(tmp_path / "g")},
    }
    assert run("harnack", write_config(tmp_path, cfg)) == 3


def test_blowup_exit_code(tmp_path):
    cfg = {
        "model": {"table": {"dim": 1, "beta": [-1e9], "a": [0.0], "s": [0.0],
                            "rates": [[0.0]]}},
        "sim": {"T": 1.0, "dt": 0.01, "seed": 1, "scheme":
                "event_driven_exact", "replicas": 10},
        "task": {"x0": [1.0], "i0": 1},
        "output": {"dir": str(tmp_path / "b")},
    }
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert run("simulate", write_config(tmp_path, cfg)) == 4


def test_main_returns_exit_code(tmp_path):
    from switchsde.cli import main
    cfg = with_task(BASE, "simulate", {"x0": [0.0], "i0": 1},
                    dir=str(tmp_path / "m"))
    path = write_config(tmp_path, cfg)
    assert main(["simulate", "--config", str(path)]) == 0
