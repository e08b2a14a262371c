"""Command-line front end.

Subcommands map one-to-one to the checkers and the simulator::

    simulate          one trajectory, dumped as CSV (and optionally binary)
    jump-lipschitz    randomized exact sweep of the jump-kernel envelope
    moments           second-moment envelope checks on a model
    holding           holding-time floor checks
    harnack           randomized log-transport inequality sweep
    feller            common-random-number continuity-modulus probe
    chain-marginal    empirical chain marginals vs the matrix exponential
    truncation-check  shared-noise truncated/plain path identity + exit bound

Every run reads one JSON scenario config (see ``config``), accepts
``--seed/--replicas/--dt/--threads`` overrides, writes JSON-lines report
records stamped with the config hash. Reading the config, the assumption
gate and the run share one error handler. A run that writes ``summary``
records is judged by them, any other run by all of its records: exit 0 when
every one passes, 1 otherwise. Exit codes for failures: 2 config error, 3
model-assumption failure (witness printed), 4 numerical blowup.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import estimators as est
from . import reports as rep
from .config import (ScenarioConfig, build_model, build_sim, config_hash,
                     load_config, validate_task)
from .engine import simulate_path
from .errors import ConfigError, InvalidModelError, NumericalBlowupError
from .models import SamplingPlan, check_assumptions
from .trajectory import Trajectory

_GATES = {
    "moments": ("band_structure", "coefficient_growth", "rate_linear_growth"),
    "holding": ("band_structure", "rate_regime_linear"),
    "harnack": ("state_independent_rates", "one_sided_dissipativity",
                "uniform_ellipticity", "modulus_nonincreasing",
                "gamma_domination"),
    "truncation-check": ("band_structure", "rate_regime_linear",
                         "coefficient_growth"),
}


def _function_from_task(task: dict):
    spec = task.get("f", {"name": "gauss"})
    if not isinstance(spec, dict):
        raise ConfigError(f"task.f must be a JSON object, got {spec!r}")
    name = spec.get("name", "gauss")
    if name == "gauss":
        return est.gauss_function(scale=spec.get("scale", 1.0),
                                  center=spec.get("center"))
    if name == "indicator_x1":
        return lambda X, lam: (np.asarray(X)[:, 0] > 0).astype(float)
    if name == "one":
        return lambda X, lam: np.ones(len(np.atleast_2d(X)))
    raise ConfigError(f"unknown observable {name!r}; "
                      "have gauss, indicator_x1, one")


def _gate(model, subcommand) -> None:
    names = _GATES.get(subcommand)
    if not names:
        return
    plan = SamplingPlan(n_pairs=2048, n_rate_pairs=64, max_regime=10)
    report = check_assumptions(model, plan)
    for name in names:
        res = report.results.get(name)
        if res is not None and not res.passed:
            raise InvalidModelError(
                f"assumption {name} failed (violation "
                f"{res.max_violation:.3e}); witness: {res.witness}")


def _output_dir(cfg: ScenarioConfig) -> Path:
    """Create the output directory before any work; one that cannot be made
    is a ConfigError naming it."""
    outdir = Path(cfg.output.get("dir", "out"))
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {outdir}: "
                          f"{exc}") from None
    return outdir


def _write_outputs(cfg: ScenarioConfig, outdir: Path, records: list[dict],
                   traj: Trajectory | None = None) -> None:
    out = cfg.output
    rep.write_jsonl(outdir / out.get("reports", "reports.jsonl"), records)
    if traj is not None:
        if out.get("trajectory"):
            traj.to_csv(outdir / out["trajectory"])
        if out.get("trajectory_binary"):
            traj.to_binary(outdir / out["trajectory_binary"])
    if out.get("plot_data") and records:
        plottable = [r for r in records if r.get("checker") != "summary"]
        if plottable:
            rep.emit_plot_data(plottable, outdir / out["plot_data"])


def _run_simulate(model, sim, task, digest):
    x0 = task.get("x0", [0.0] * model.dim)
    i0 = int(task.get("i0", 1))
    traj = simulate_path(model, x0, i0, sim)
    traj.config_digest = digest
    records = [rep.record("simulate", model.model_id,
                          {"x0": x0, "i0": i0, "eta": traj.eta,
                           "tau_k": traj.tau_k, "n_samples": len(traj.times),
                           "n_jumps": len(traj.jumps)},
                          None, None, None, None, True, digest, sim.seed)]
    return records, traj


def _run_jump_lipschitz(model, sim, task, digest):
    sweep = est.displacement_lipschitz_sweep(
        n_cases=int(task.get("cases", 1000)), seed=sim.seed,
        p_values=tuple(task.get("p_values", (1.0, 2.0))),
        i_max=int(task.get("i_max", 20)), dim=int(task.get("dim", 1)))
    records = [rep.record("jump-lipschitz", "random_banded",
                          {k: r[k] for k in ("case", "kappa", "i", "p")},
                          r["lhs"], r["rhs"], 0.0, r["margin"], r["passed"],
                          digest, sim.seed)
               for r in sweep]
    return records, None


def _run_moments(model, sim, task, digest):
    x0 = task.get("x0", [0.0] * model.dim)
    i0 = int(task.get("i0", 1))
    records = []
    for T in task.get("T_values", (0.25, 0.5, 1.0)):
        r = est.moment_bound_check(model, x0, i0, float(T), sim.replicas, sim,
                                   threads=sim.threads)
        records.append(rep.from_bound_report(r, digest, sim.seed))
    return records, None


def _run_holding(model, sim, task, digest):
    x0 = task.get("x0", [0.0] * model.dim)
    t_grid = task.get("t_grid", (0.1, 0.25, 0.5, 0.75, 1.0))
    records = []
    for K in task.get("K_values", (3, 5)):
        for k in task.get("k_values", range(1, int(K) + 1)):
            for r in est.holding_time_check(model, x0, int(k), int(K), t_grid,
                                            sim.replicas, sim,
                                            threads=sim.threads):
                records.append(rep.from_bound_report(r, digest, sim.seed))
    return records, None


def _run_harnack(model, sim, task, digest):
    reports = est.harnack_sweep(
        model, int(task.get("cases", 200)), sim.replicas, sim,
        threads=sim.threads, T_choices=tuple(task.get("T_values", (0.25, 0.5, 1.0))),
        x_radius=float(task.get("x_radius", 1.0)))
    summary = est.harnack_sweep_summary(
        reports, min_pass_rate=float(task.get("min_pass_rate", 0.99)))
    records = [rep.from_bound_report(r, digest, sim.seed) for r in reports]
    records.append(rep.record("summary", model.model_id, summary,
                              summary["pass_rate"], summary["cases"], None,
                              None, summary["ok"], digest, sim.seed))
    return records, None


def _run_feller(model, sim, task, digest):
    f = _function_from_task(task)
    mode = task.get("mode", "trend")
    if mode not in ("trend", "floor"):
        raise ConfigError(f"unknown feller mode {mode!r}; have trend, floor")
    floor = float(task.get("floor", 0.05))
    x0 = task.get("x0", [0.0] * model.dim)
    i0 = int(task.get("i0", 1))
    t = float(task.get("t", 1.0))
    radii = [float(r) for r in task.get("radii", (0.5, 0.1, 0.01, 1e-3))]
    gaps = est.feller_modulus(model, f, t, x0, i0, radii, sim.replicas, sim,
                              threads=sim.threads)
    if mode == "trend":
        ok = est.gap_trend_pass(gaps)
        summary = {"mode": mode, "trend_decreasing": ok}
    else:
        cert = est.discontinuity_certificate(gaps, floor=floor)
        ok = cert["certified"]
        summary = {"mode": mode, **cert}
    records = [rep.record("feller", model.model_id,
                          {"radius": g.radius, "t": t},
                          g.gap, None, g.stderr, None, True, digest, sim.seed)
               for g in gaps]
    records.append(rep.record("summary", model.model_id, summary, None, None,
                              None, None, ok, digest, sim.seed))
    return records, None


def _run_chain_marginal(model, sim, task, digest):
    times = [float(t) for t in task.get("times", (0.5, 1.0, 2.0))]
    mc = est.chain_marginal_check(model, times, sim.replicas, sim,
                                  threads=sim.threads,
                                  starts=task.get("starts"))
    ok = mc.passed(float(task.get("min_fraction", 0.99)))
    records = [rep.record("chain-marginal", model.model_id,
                          {"start": r["start"], "t": r["t"],
                           "regime": r["regime"]},
                          r["empirical"], r["oracle"], r["stderr"], None,
                          r["within_3se"], digest, sim.seed)
               for r in mc.records]
    records.append(rep.record("summary", model.model_id,
                              {"entries": mc.entries, "within": mc.within,
                               "fraction": mc.fraction_within},
                              None, None, None, None, ok, digest, sim.seed))
    return records, None


def _run_truncation(model, sim, task, digest):
    x0 = task.get("x0", [0.0] * model.dim)
    i0 = int(task.get("i0", 1))
    t = float(task.get("t", sim.horizon))
    n_cases = int(task.get("compare_cases", 10))
    seeds = [sim.seed + case for case in range(n_cases)]
    records = []
    for K in task.get("K_values", (6,)):
        results = est.truncation_identity_batch(model, x0, i0, int(K), sim,
                                                seeds)
        for case, (seed, res) in enumerate(zip(seeds, results)):
            records.append(rep.record(
                "truncation", model.model_id,
                {"K": int(K), "case": case, "tau_k": res["tau_k"],
                 "n_compared": res["n_compared"]},
                None, None, None, None, res["identical"], digest, seed))
        r = est.truncation_exit_bound_check(model, x0, i0, int(K), t,
                                            sim.replicas, sim,
                                            threads=sim.threads)
        records.append(rep.from_bound_report(r, digest, sim.seed))
    return records, None


_RUNNERS = {
    "simulate": _run_simulate,
    "jump-lipschitz": _run_jump_lipschitz,
    "moments": _run_moments,
    "holding": _run_holding,
    "harnack": _run_harnack,
    "feller": _run_feller,
    "chain-marginal": _run_chain_marginal,
    "truncation-check": _run_truncation,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="switchsde",
        description="simulation and Monte Carlo verification of "
                    "regime-switching diffusions")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _RUNNERS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="scenario JSON file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--replicas", type=int, default=None)
        p.add_argument("--dt", type=float, default=None)
        p.add_argument("--threads", type=int, default=None)
    return parser


def run(subcommand: str, config_path, *, seed=None, replicas=None, dt=None,
        threads=None) -> int:
    try:
        cfg = load_config(config_path)
        task = validate_task(cfg, subcommand)
        model = build_model(cfg)
        sim = build_sim(cfg, seed=seed, replicas=replicas, dt=dt,
                        threads=threads)
        _gate(model, subcommand)
        outdir = _output_dir(cfg)
        records, traj = _RUNNERS[subcommand](model, sim, task, config_hash(cfg))
        _write_outputs(cfg, outdir, records, traj)
    except NumericalBlowupError as exc:
        print(f"numerical blowup: {exc}", file=sys.stderr)
        return 4
    except InvalidModelError as exc:
        print(f"model failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, TypeError, OverflowError) as exc:
        # a ConfigError, an unsupported scheme, an x0 or i0 the model cannot
        # take (a non-numeric point, a regime outside the space), or a task
        # number that JSON read as an infinity
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    judged = [r for r in records if r["checker"] == "summary"] or records
    code = 0 if all(r["pass"] for r in judged) else 1
    n_pass = sum(1 for r in records if r.get("pass"))
    print(f"{subcommand}: {n_pass}/{len(records)} records pass; exit {code}")
    return code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return run(args.subcommand, args.config, seed=args.seed,
               replicas=args.replicas, dt=args.dt, threads=args.threads)


if __name__ == "__main__":
    sys.exit(main())
