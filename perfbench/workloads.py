"""The benchmark's workloads, run through switchsde's public API.

Each workload builds its models, configs and inputs from one seed (set-up),
then runs a fixed list of checks (one *round*). A round's checks are the
operations the benchmark counts; a round is repeated on the same inputs for
as long as a run lasts, and every repetition must reproduce the first one's
report bytes. README.md says why each workload exists.

Scale is the acceptance suite's: 10^4 replicas and dt = 1e-3 for diffusion
checks, 10^5 replicas for chain checks. Round length is set by the number of
checks and, for the frozen-rate checks, by their horizon; never by fewer
replicas or a coarser step.

Verdicts are the acceptance rules at benchmark scale. A run holds too few
comparisons for a pass *rate*, so a statistical comparison fails only on a
hard miss: the Harnack sigma-gap or the first-switch identity beyond
``HARD_SIGMA`` combined standard errors, or a chain-marginal entry beyond
``TABLE_SIGMA`` binomial standard errors (a round compares ~400 entries, so
the table threshold is raised to keep the chance that a correct program
fails a run near 1e-4). Bound checks keep their own margins; the truncation
identity and the jump-kernel envelope are exact.
"""

from __future__ import annotations

import json
import math
import time
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from switchsde import config, estimators as est, models, reports
from switchsde.engine import EVENT_DRIVEN, FROZEN_RATE, SimConfig
from switchsde.errors import StiffSwitchingWarning
from switchsde.qmatrix import QMatrixSpec

N_DIFF = 10_000
N_CHAIN = 100_000
DT = 1e-3
HARD_SIGMA = 4.0
TABLE_SIGMA = 5.0

# the sampling plan switchsde's CLI uses for its pre-run assumption gate
GATE_PLAN = models.SamplingPlan(n_pairs=2048, n_rate_pairs=64, max_regime=10)
# the conditions the CLI gates each subcommand on
GATES = {
    "moments": ("band_structure", "coefficient_growth", "rate_linear_growth"),
    "holding": ("band_structure", "rate_regime_linear"),
    "harnack": ("state_independent_rates", "one_sided_dissipativity",
                "uniform_ellipticity", "modulus_nonincreasing",
                "gamma_domination"),
    "truncation-check": ("band_structure", "rate_regime_linear",
                         "coefficient_growth"),
}


@dataclass
class RoundResult:
    """What one round did, accounted from the inputs the workload generated,
    and how long each check took (time since the previous ``add``)."""

    records: list = field(default_factory=list)
    checks: int = 0
    failed: int = 0
    paths: int = 0
    replica_steps: int = 0
    aborted: int = 0
    durations: list = field(default_factory=list)
    _mark: float = field(default_factory=time.perf_counter)

    def add(self, records, *, failed, paths, replica_steps=0, aborted=0):
        """Account one check. ``paths`` counts every CRN-stacked row and
        every chain replica; ``aborted`` replicas fail the check."""
        now = time.perf_counter()
        self.durations.append(now - self._mark)
        self._mark = now
        self.records.extend(records)
        self.checks += 1
        self.failed += bool(failed or aborted)
        self.paths += paths
        self.replica_steps += replica_steps
        self.aborted += aborted


def n_steps(T: float) -> int:
    return SimConfig(horizon=T, dt=DT).n_steps()


def instrument(model: models.ModelSpec, wrap) -> models.ModelSpec:
    """The same model with its drift, diffusion and rate callbacks passed
    through ``wrap(fn, name)`` (the tracer's callback hook)."""
    if wrap is None:
        return model
    q = replace(model.q, rate=wrap(model.q.rate, "models.rate"))
    return replace(model, q=q, drift=wrap(model.drift, "models.drift"),
                   diffusion=wrap(model.diffusion, "models.diffusion"))


def scenario(model_section: dict, seed: int, scheme: str, threads: int = 1):
    """Model, sim config and config hash through the CLI's config layer."""
    cfg = config.parse_config(json.dumps({
        "model": model_section,
        "sim": {"dt": DT, "seed": seed, "scheme": scheme,
                "replicas": N_DIFF, "threads": threads},
    }))
    return config.build_model(cfg), config.build_sim(cfg), config.config_hash(cfg)


def gate(model: models.ModelSpec, *subcommands: str) -> None:
    """Refuse a model that fails a condition the CLI would gate on."""
    rep = models.check_assumptions(model, GATE_PLAN)
    bad = [n for s in subcommands for n in GATES[s]
           if n in rep.results and not rep.results[n].passed]
    if bad:
        raise RuntimeError(f"{model.model_id} fails assumption gate: {bad}")


# --- the paper's setting: state-dependent rates on countably many regimes ------

BIRTH_RATE = 1.0
DEATH_RATE = 1.5


def _modulation(x) -> float:
    # 1 + |x| / (1 + |x|): bounded in [1, 2) and 1-Lipschitz in x
    r = float(np.linalg.norm(x))
    return 1.0 + r / (1.0 + r)


def _statedep_rate(x, i, j):
    if j == i + 1:
        return BIRTH_RATE * _modulation(x)
    if j == i - 1 and j >= 1:
        return DEATH_RATE * _modulation(x)
    return 0.0


def _statedep_drift(t, x, i):
    return -(1.0 + 1.0 / i) * np.asarray(x, dtype=float)


def _statedep_diffusion(t, x, i):
    return 1.0


def statedep_model() -> models.ModelSpec:
    """Birth-death switching on {1, 2, ...} (kappa = 1) whose rates are
    scaled by a bounded Lipschitz function of |x|.

    Row sums are at most ``2 (BIRTH_RATE + DEATH_RATE) = 5``, so
    ``dt * q_i <= 0.005`` at dt = 1e-3 and the regime-linear certificate
    holds with alpha = 5; every rate is ``DEATH_RATE``-Lipschitz in x.
    """
    q = QMatrixSpec(rate=_statedep_rate, kappa=1, lipschitz_cq=DEATH_RATE,
                    linear_bound_alpha=2.0 * (BIRTH_RATE + DEATH_RATE),
                    linear_bound_beta=0.0, state_independent=False,
                    n_regimes=None)
    return models.ModelSpec(
        dim=1, drift=_statedep_drift, diffusion=_statedep_diffusion, q=q,
        growth_c=lambda t: 1.0, dissipativity_c=lambda t, i: 1.0,
        diffusion_mod_c=lambda t, i: 1.0, ellipticity_lambda=lambda t: 1.0,
        model_id="statedep_birth_death")


def banded_chain(rng, n: int, kappa: int = 2) -> models.ModelSpec:
    """Pure-jump chain (zero drift and noise) with random banded rates, as
    the acceptance suite builds its chain-marginal cases."""
    R = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j and abs(i - j) <= kappa:
                R[i, j] = rng.uniform(0.3, 1.8)
    return models.linear_switching_model(dim=1, beta=(0.0,) * n, a=(0.0,) * n,
                                         s=(0.0,) * n, rates=R,
                                         model_id=f"chain{n}")


# --- workloads ---------------------------------------------------------------------

class Workload:
    """Set-up in ``__init__`` (models, configs, inputs, gate); work in
    ``round``. ``wrap`` instruments every model callback for a traced run."""

    name = ""

    def __init__(self, seed: int, wrap=None):
        self.seed = int(seed)
        self.rng = np.random.default_rng(self.seed)
        self.build(wrap)

    def build(self, wrap) -> None:
        raise NotImplementedError

    def round(self) -> RoundResult:
        raise NotImplementedError


class EventLinear(Workload):
    name = "event_linear"
    T_VALUES = (0.25, 0.5, 1.0)
    CASES_PER_T = 2
    THREADS = 2

    def build(self, wrap):
        model, self.sim, self.digest = scenario(
            {"zoo": "switching_ou",
             "params": {"dim": 1, "beta": [1.0, 2.0], "a": [0.0, 0.0],
                        "s": [1.0, 1.0]}},
            self.seed, EVENT_DRIVEN, threads=self.THREADS)
        self.model = instrument(model, wrap)
        gate(self.model, "harnack")
        self.case_seeds = [int(self.rng.integers(2 ** 31)) for _ in self.T_VALUES]

    def round(self):
        out = RoundResult()
        for k, T in enumerate(self.T_VALUES):
            cfg = replace(self.sim, horizon=T, seed=self.sim.seed + 1000 * k)
            reps = est.harnack_sweep(self.model, self.CASES_PER_T, N_DIFF, cfg,
                                     threads=self.THREADS, seed=self.case_seeds[k],
                                     T_choices=(T,), x_radius=1.0)
            for r in reps:
                hard = not r.passed and r.params["sigma_gap"] > HARD_SIGMA
                rows = 2 * N_DIFF  # the y and x starts, stacked under CRN
                out.add([reports.from_bound_report(r, self.digest, cfg.seed)],
                        failed=hard, paths=rows,
                        replica_steps=rows * n_steps(T),
                        aborted=r.lhs.n_aborted)
            # the benchmark's rule: no hard failure (no pass-rate floor)
            summary = est.harnack_sweep_summary(reps, min_pass_rate=0.0,
                                                hard_sigma=HARD_SIGMA)
            out.records.append(reports.record(
                "summary", self.model.model_id, summary, summary["pass_rate"],
                None, None, None, summary["ok"], self.digest, cfg.seed))
        return out


class EventCallback(Workload):
    name = "event_callback"
    T_MOMENTS = 0.5
    T_IDENTITY = 0.25

    def build(self, wrap):
        nl, self.sim, digest_nl = scenario({"zoo": "nonlipschitz_log"},
                                           self.seed, EVENT_DRIVEN)
        bd, _, digest_bd = scenario({"zoo": "birth_death_switch"},
                                    self.seed, EVENT_DRIVEN)
        # the callback twin: same coefficients, linear fast path removed
        twin = replace(bd, linear_coeffs=None)
        self.cases = []
        for model, digest in ((nl, digest_nl), (twin, digest_bd)):
            model = instrument(model, wrap)
            gate(model, "moments")
            x0 = self.rng.uniform(-1.0, 1.0, model.dim)
            i0 = int(self.rng.integers(1, 3))
            a, b, c = self.rng.uniform(-1.5, 1.5, 3)
            f = lambda X, lam, a=a, b=b, c=c: np.tanh(a * X[:, 0] + b * lam + c)
            self.cases.append((model, digest, x0, i0, f))

    def round(self):
        out = RoundResult()
        T, t = self.T_MOMENTS, self.T_IDENTITY
        for model, digest, x0, i0, f in self.cases:
            rep = est.moment_bound_check(model, x0, i0, T, N_DIFF,
                                         replace(self.sim, horizon=T))
            out.add([reports.from_bound_report(rep, digest, self.sim.seed)],
                    failed=not rep.passed, paths=N_DIFF,
                    replica_steps=N_DIFF * n_steps(T),
                    aborted=rep.lhs.n_aborted)
            cfg = replace(self.sim, horizon=t)
            e1 = est.first_jump_estimate(model, f, t, x0, i0, N_DIFF, cfg)
            e2 = est.semigroup_estimate(model, f, t, x0, i0, N_DIFF, cfg)
            se = math.hypot(e1.stderr, e2.stderr)
            diff = abs(e1.mean - e2.mean)
            out.add([reports.record(
                "first-jump", model.model_id,
                {"t": t, "i0": i0, "diff": diff, "tol": HARD_SIGMA * se},
                e1.mean, e2.mean, se, HARD_SIGMA * se - diff,
                diff <= HARD_SIGMA * se, digest, self.sim.seed)],
                failed=diff > HARD_SIGMA * se, paths=2 * N_DIFF,
                replica_steps=2 * N_DIFF * n_steps(t),
                aborted=e1.n_aborted + e2.n_aborted)
        return out


class FrozenStatedep(Workload):
    name = "frozen_statedep"
    # 10^4 scalar-loop paths per check fit a round only at a short horizon
    T_FROZEN = 0.002
    HOLD_GRID = (0.001, 0.002)
    HOLD_K = 3
    TRUNC_CASES = 10
    TRUNC_HORIZON = 1.5
    TRUNC_DT = 5e-3

    def build(self, wrap):
        self.model = instrument(statedep_model(), wrap)
        rep = models.check_assumptions(self.model, GATE_PLAN)
        if rep.failed():
            raise RuntimeError(f"statedep model fails {rep.failed()}")
        self.sim = SimConfig(horizon=self.T_FROZEN, dt=DT, seed=self.seed,
                             scheme=FROZEN_RATE, replicas=N_DIFF)
        self.digest = f"seed:{self.seed}"
        self.x0 = self.rng.uniform(-1.0, 1.0, 1)
        self.i0 = int(self.rng.integers(1, 4))
        self.k = int(self.rng.integers(1, self.HOLD_K + 1))
        bd, trunc_sim, self.trunc_digest = scenario(
            {"zoo": "birth_death_switch"}, self.seed, FROZEN_RATE)
        self.bd = instrument(bd, wrap)
        gate(self.bd, "truncation-check")
        self.trunc_sim = replace(trunc_sim, horizon=self.TRUNC_HORIZON,
                                 dt=self.TRUNC_DT)
        self.trunc_x0 = self.rng.uniform(-0.5, 0.5, (self.TRUNC_CASES, 1))

    def round(self):
        out = RoundResult()
        steps = N_DIFF * n_steps(self.T_FROZEN)
        rep = est.moment_bound_check(self.model, self.x0, self.i0,
                                     self.T_FROZEN, N_DIFF, self.sim)
        out.add([reports.from_bound_report(rep, self.digest, self.seed)],
                failed=not rep.passed, paths=N_DIFF, replica_steps=steps,
                aborted=rep.lhs.n_aborted)
        reps = est.holding_time_check(self.model, self.x0, self.k, self.HOLD_K,
                                      self.HOLD_GRID, N_DIFF, self.sim)
        out.add([reports.from_bound_report(r, self.digest, self.seed)
                 for r in reps],
                failed=not all(r.passed for r in reps), paths=N_DIFF,
                replica_steps=N_DIFF * n_steps(max(self.HOLD_GRID)))
        trunc_steps = self.trunc_sim.n_steps()
        with warnings.catch_warnings():
            # birth-death rates grow with the regime; the acceptance suite
            # runs this identity with the same warning silenced
            warnings.simplefilter("ignore", StiffSwitchingWarning)
            for case in range(self.TRUNC_CASES):
                K, i0 = 5 + case % 2, 2 + case % 3
                cfg = replace(self.trunc_sim, seed=self.seed + 300 + case)
                res = est.truncation_identity_check(
                    self.bd, self.trunc_x0[case], i0, K, cfg, replica=case)
                out.add([reports.record(
                    "truncation", self.bd.model_id,
                    {"case": case, "K": K, "i0": i0, "tau_k": res["tau_k"],
                     "n_compared": res["n_compared"]},
                    None, None, None, None, res["identical"],
                    self.trunc_digest, cfg.seed)],
                    failed=not res["identical"], paths=2,
                    replica_steps=2 * trunc_steps)
        return out


class ChainOracle(Workload):
    name = "chain_oracle"
    TIMES = (0.5, 1.0, 2.0)
    HOLD_K = 3
    HOLD_GRID = (0.1, 0.25, 0.5, 0.75, 1.0)
    LIP_CASES = 200

    def build(self, wrap):
        two = models.linear_switching_model(
            dim=1, beta=(0.0,) * 2, a=(0.0,) * 2, s=(0.0,) * 2,
            rates=[[0.0, 1.0], [1.0, 0.0]], model_id="chain2")
        self.chains = [instrument(m, wrap) for m in
                       (two, banded_chain(self.rng, 5), banded_chain(self.rng, 10))]
        bd, self.sim, self.digest = scenario({"zoo": "birth_death_switch"},
                                             self.seed, EVENT_DRIVEN)
        self.bd = instrument(bd, wrap)
        gate(self.bd, "holding")
        self.lip_seed = int(self.rng.integers(2 ** 31))

    def round(self):
        out = RoundResult()
        cfg = replace(self.sim, horizon=max(self.TIMES))
        for m in self.chains:
            mc = est.chain_marginal_check(m, self.TIMES, N_CHAIN, cfg)
            hard = [r for r in mc.records
                    if abs(r["empirical"] - r["oracle"])
                    > TABLE_SIGMA * r["stderr"] + 1e-12]
            out.add([reports.record(
                "chain-marginal", m.model_id,
                {"start": r["start"], "t": r["t"], "regime": r["regime"]},
                r["empirical"], r["oracle"], r["stderr"], None,
                r["within_3se"], self.digest, cfg.seed) for r in mc.records],
                failed=bool(hard), paths=N_CHAIN * m.q.n_regimes)
        hold_cfg = replace(self.sim, horizon=max(self.HOLD_GRID))
        for k in range(1, self.HOLD_K + 1):
            reps = est.holding_time_check(self.bd, [0.0], k, self.HOLD_K,
                                          self.HOLD_GRID, N_CHAIN, hold_cfg)
            out.add([reports.from_bound_report(r, self.digest, cfg.seed)
                     for r in reps],
                    failed=not all(r.passed for r in reps), paths=N_CHAIN)
        sweep = est.displacement_lipschitz_sweep(
            n_cases=self.LIP_CASES, seed=self.lip_seed, p_values=(1.0, 2.0),
            i_max=20)
        out.add([reports.record(
            "jump-lipschitz", "random_banded",
            {k: r[k] for k in ("case", "kappa", "i", "p")}, r["lhs"], r["rhs"],
            0.0, r["margin"], r["passed"], self.digest, self.lip_seed)
            for r in sweep],
            failed=not all(r["passed"] for r in sweep), paths=0)
        return out


WORKLOADS = {w.name: w for w in (EventLinear, EventCallback, FrozenStatedep,
                                 ChainOracle)}
