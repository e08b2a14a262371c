"""Monte Carlo functionals and the verification harness.

Estimators orchestrate replicas in fixed contiguous batches; each batch's
outputs are written into its own slice of a full, replica-ordered array and
the statistics are reduced over that assembled array. Together with the
counter-addressed noise this makes every estimate bit-identical under any
thread count or batch completion order.

Bound checkers share one report shape: a check passes if and only if
``margin >= 0`` and its estimate is not flagged (at most 0.1% of replicas
aborted; see ``McEstimate.flagged``), where the margin already folds in the
stated statistical slack (3 sigma everywhere, Wilson intervals for
proportions). Orientation varies by checker -- an upper-bound check uses
``rhs - (mean + 3 se)``, a holding probability check uses
``wilson_lower - bound`` -- and is documented on each function.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .engine import (EVENT_DRIVEN, FROZEN_RATE, DEFAULT_SEED, SimConfig,
                     _start_regimes, check_truncation_start,
                     first_switch_times, recorded_path, regime_groups,
                     run_chain, run_event_driven, run_frozen, truncated_model)
# not called here; perfbench/tracing.py patches these names in this module
from .engine import simulate_path, simulate_truncated  # noqa: F401
from .errors import (InvalidModelError, UnsupportedSchemeError,
                     _check_horizon)
from .markov import chain_generator_matrix, transition_matrix
from .models import (HARNACK_PREREQUISITES, ModelSpec, SamplingPlan,
                     check_assumptions)
from .noise import NoiseStream
from .qmatrix import (as_point, displacement_lp_bound,
                      displacement_lp_distance, random_banded_q)

BATCH_REPLICAS = 16384
_SALT_FIRST_JUMP = 0x464A
_HARNACK_F_FLOOR = 1e-6  # observables are clamped here before the log
# a valid constant of the L1 maximal martingale inequality; the moment
# envelope is increasing in it, so a larger value only loosens the bound and
# a smaller one may make it invalid
C1_MAXIMAL = 3.0
_TRUNCATION = ("band_structure", "rate_regime_linear", "coefficient_growth")


# --- estimate containers ------------------------------------------------------

@dataclass(frozen=True)
class McEstimate:
    mean: float
    stderr: float
    n_replicas: int
    n_aborted: int = 0

    @property
    def flagged(self) -> bool:
        """More than 0.1% of replicas aborted: treat the estimate as suspect."""
        return self.n_aborted > 0.001 * self.n_replicas


def mc_from_values(values: np.ndarray, aborted: Optional[np.ndarray] = None) -> McEstimate:
    values = np.asarray(values, dtype=float)
    bad = ~np.isfinite(values)
    if aborted is not None:
        bad |= np.asarray(aborted, dtype=bool)
    good = values[~bad]
    n_ab = int(bad.sum())
    if len(good) == 0:
        return McEstimate(math.nan, math.nan, len(values), n_ab)
    mean = float(good.mean())
    se = float(good.std(ddof=1) / math.sqrt(len(good))) if len(good) > 1 else 0.0
    return McEstimate(mean, se, len(values), n_ab)


@dataclass(frozen=True)
class BoundReport:
    checker: str
    lhs: McEstimate
    rhs: float
    margin: float
    passed: bool
    params: dict = field(default_factory=dict)


def _bound_report(checker, lhs, rhs, margin, **params) -> BoundReport:
    """A flagged estimate fails whatever its margin reads."""
    return BoundReport(checker=checker, lhs=lhs, rhs=float(rhs),
                       margin=float(margin),
                       passed=bool(margin >= 0 and not lhs.flagged),
                       params=params)


@dataclass(frozen=True, kw_only=True)
class GapEstimate(McEstimate):
    """The replica mean of a paired difference at start offset ``radius``."""
    radius: float

    @property
    def gap(self) -> float:
        return abs(self.mean)


def wilson_lower(successes: int, n: int) -> float:
    """Lower 3-sigma Wilson score bound for a binomial proportion."""
    z = 3.0
    if n <= 0:
        return 0.0
    p = successes / n
    den = 1.0 + z * z / n
    center = p + z * z / (2 * n)
    rad = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
    return max(0.0, (center - rad) / den)


# --- batched execution ---------------------------------------------------------

def _check_replicas(n: int) -> None:
    if n < 1:
        raise ValueError(f"need n >= 1 replicas, got n = {n}")


def _check_times(name: str, times) -> None:
    """A ValueError, before any sampling, when the grid ``times`` is empty or
    one of its times fails ``errors._check_horizon``."""
    if not len(times):
        raise ValueError(f"{name} must not be empty")
    for t in times:
        _check_horizon(t)


def _require(model: ModelSpec, T: float, *names: str) -> None:
    """``InvalidModelError`` on the first of ``names`` failed at t = 0 or T."""
    plan = SamplingPlan(n_pairs=2048, n_rate_pairs=64, max_regime=10,
                        times=(0.0, float(T)))
    check_assumptions(model, plan).require(*names)


def _ordered_map(fn, items, threads: int) -> list:
    """``[fn(item) for item in items]`` on up to ``threads`` worker threads;
    results come back in item order whatever order the calls finish in."""
    if threads > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            return list(ex.map(fn, items))
    return [fn(item) for item in items]


def _run_batches(n: int, threads: int, kernel, axis: int = 0) -> dict:
    """Run ``kernel(lo, hi) -> dict[str, array]`` over fixed replica spans and
    concatenate outputs along ``axis`` in span order."""
    _check_replicas(n)
    spans = [(lo, min(lo + BATCH_REPLICAS, n)) for lo in range(0, n, BATCH_REPLICAS)]
    results = _ordered_map(lambda span: kernel(*span), spans, threads)
    return {key: np.concatenate([r[key] for r in results], axis=axis)
            for key in results[0]}


def _stacked_run(model, scheme, starts, i0, T, n, cfg, threads, *, salt=0,
                 trunc_level=None, track_xmax=False):
    """One batch run of ``scheme`` covering several start points under common
    random numbers: block ``b`` holds replicas 0..n-1 started from
    ``starts[b]``, and the replica ids repeat across blocks so paired rows
    share all draws.

    Returns a dict of arrays shaped (n_blocks, n).
    """
    runner = run_event_driven if scheme == EVENT_DRIVEN else run_frozen
    starts = [as_point(s) for s in starts]
    nb = len(starts)
    stream = NoiseStream(cfg.seed, salt=salt)

    def kernel(lo, hi):
        m = hi - lo
        ids = np.tile(np.arange(lo, hi, dtype=np.uint64), nb)
        x0 = np.vstack([np.tile(s, (m, 1)) for s in starts])
        out = runner(model, x0, i0, T, cfg.dt, stream, ids,
                     trunc_level=trunc_level, track_xmax=track_xmax)
        res = {}
        for key, val in out.items():
            val = np.asarray(val)
            res[key] = val.reshape(nb, m, *val.shape[1:])
        return res

    return _run_batches(n, threads, kernel, axis=1)


# --- semigroup and first-jump estimators ---------------------------------------

def _terminal_mean(model, scheme, salt, f, t, x, i, n, cfg, threads) -> McEstimate:
    out = _stacked_run(model, scheme, [x], i, t, n, cfg, threads, salt=salt)
    vals = np.asarray(f(out["x"][0], out["regime"][0]), dtype=float)
    return mc_from_values(vals, out["aborted"][0])


def semigroup_estimate(model: ModelSpec, f: Callable, t: float, x, i: int,
                       n: int, cfg: SimConfig, threads: int = 1) -> McEstimate:
    """Replica mean of ``f(X_t, Lambda_t)`` started from ``(x, i)``.

    ``f`` is vectorized: ``f(X, lam)`` with ``X`` of shape (m, d) and ``lam``
    of shape (m,) returns (m,) values.
    """
    return _terminal_mean(model, cfg.scheme, 0, f, t, x, i, n, cfg, threads)


def first_jump_estimate(model: ModelSpec, f: Callable, t: float, x, i: int,
                        n: int, cfg: SimConfig,
                        threads: int = 1) -> McEstimate:
    """Replica mean of ``f(X_t, Lambda_t)``: ``semigroup_estimate`` on the
    exact skeleton (``UnsupportedSchemeError`` on rates that depend on x)
    under a salted substream, so it is independent of ``semigroup_estimate``
    at the same seed. It does not condition on the first switch: criterion 9
    compares two independent runs of one estimator, and would pass with a
    wrong holding law (ROADMAP item 4 replaces it with the first-switch
    decomposition).
    """
    return _terminal_mean(model, EVENT_DRIVEN, _SALT_FIRST_JUMP, f, t, x, i, n,
                          cfg, threads)


# --- moment bound ----------------------------------------------------------------

def second_moment_envelope(model: ModelSpec, x, i: int, T: float, *,
                           drop_position_term: bool = False) -> float:
    """Closed-form envelope for ``E[sup|X|^2 + sup Lambda^2]`` on [0, T]:

    ``(4/3 |x|^2 + 4 i^2) * exp((4 + 4/3 c1^2) int_0^T c(s) ds
    + 8 kappa^2 (alpha^2 + beta^2 + 2)(T+1) T)``

    with ``c1 = C1_MAXIMAL``. With ``drop_position_term`` the rate growth
    certificate is used in its position-free form (beta = 0), which is the
    variant the truncation exit bound is stated with.
    """
    from scipy.integrate import quad  # deferred: README, Cold start

    q = model.q
    integral_c, _ = quad(model.growth_c, 0.0, T, limit=200)
    beta_sq = 0.0 if drop_position_term else q.linear_bound_beta ** 2
    expo = ((4.0 + 4.0 / 3.0 * C1_MAXIMAL * C1_MAXIMAL) * integral_c
            + 8.0 * q.kappa ** 2 * (q.linear_bound_alpha ** 2 + beta_sq + 2.0)
            * (T + 1.0) * T)
    lead = (4.0 / 3.0) * float(np.dot(as_point(x), as_point(x))) + 4.0 * i * i
    with np.errstate(over="ignore"):
        return float(lead * np.exp(expo))


def moment_bound_check(model: ModelSpec, x, i: int, T: float, n: int,
                       cfg: SimConfig, threads: int = 1) -> BoundReport:
    """Upper-bound check: MC estimate of ``sup|X|^2 + sup Lambda^2`` (running
    maxima over the sampled times) against the closed-form envelope.
    ``margin = rhs - (mean + 3 se)``; requires ``band_structure``,
    ``coefficient_growth`` and ``rate_linear_growth`` at t = 0 and T."""
    if model.growth_c is None:
        raise InvalidModelError("moment bound needs c(t) metadata")
    _check_replicas(n)
    _require(model, T, "band_structure", "coefficient_growth",
             "rate_linear_growth")
    scheme = EVENT_DRIVEN if model.q.state_independent else FROZEN_RATE
    out = _stacked_run(model, scheme, [x], i, T, n, cfg, threads,
                       track_xmax=True)
    lhs = mc_from_values(out["xnorm_max"][0] ** 2 + out["regime_max"][0] ** 2,
                         out["aborted"][0])
    rhs = second_moment_envelope(model, x, i, T)
    margin = rhs - (lhs.mean + 3.0 * lhs.stderr)
    return _bound_report("moments", lhs, rhs, margin, model=model.model_id,
                         x=as_point(x).tolist(), i=i, T=T, c1=C1_MAXIMAL, n=n)


# --- holding-time bound -----------------------------------------------------------

def holding_probability_floor(model: ModelSpec, k: int, K: int, t):
    """``exp(-(min(kappa, k-1) + kappa) * alpha * K * t)``, a floor for
    P(no switch by t) whenever ``k <= K``.

    It is the survival in ``k`` of the dominating chain that jumps to each
    in-band regime ``j >= 1`` at the uniform ceiling ``alpha * K``, whose
    exit rates dominate those of any banded matrix with row sums
    ``q_i <= alpha * i`` on the regimes ``i <= K``. ``t`` may be a scalar
    (float result) or an array.
    """
    q = model.q
    alpha, kappa = q.linear_bound_alpha, q.kappa
    if K < 1 or kappa < 1 or alpha < 0:
        raise ValueError("need K >= 1, kappa >= 1, alpha >= 0")
    exit_rate = (min(kappa, k - 1) + kappa) * alpha * K
    out = np.exp(-exit_rate * np.asarray(t, float))
    return out if out.ndim else float(out)


def holding_time_check(model: ModelSpec, x, k: int, K: int,
                       t_grid: Sequence[float], n: int, cfg: SimConfig,
                       threads: int = 1) -> list[BoundReport]:
    """Per grid time: 99.7% Wilson lower bound for P(eta >= t | start (x, k))
    against the dominating-chain floor. ``margin = wilson_lower - floor``;
    requires ``band_structure`` and ``rate_regime_linear`` at t = 0 and
    ``max(t_grid)``."""
    if k > K:
        raise ValueError(f"need k <= K, got k={k} > K={K}")
    _check_replicas(n)
    _check_times("t_grid", t_grid)
    horizon = float(max(t_grid))
    _require(model, horizon, "band_structure", "rate_regime_linear")
    n_aborted = 0
    if model.q.state_independent:
        keys = NoiseStream(cfg.seed).replica_keys(np.arange(n, dtype=np.uint64))
        eta = first_switch_times(model.q, k, keys)
    else:
        out = _stacked_run(model, FROZEN_RATE, [x], k, horizon, n, cfg, threads)
        aborted = out["aborted"][0]
        n_aborted = int(aborted.sum())
        # aborted before its first switch: not held at any t > 0 (conservative)
        eta = np.where(aborted & np.isinf(out["eta"][0]), 0.0, out["eta"][0])
    reports = []
    for t in t_grid:
        cnt = int(np.sum(eta >= t))
        p_hat = cnt / n
        # a sure empirical event is scored at probability one (the t = 0 edge,
        # where survival is almost sure and the floor equals one exactly)
        wl = 1.0 if cnt == n else wilson_lower(cnt, n)
        floor = holding_probability_floor(model, k, K, t)
        lhs = McEstimate(p_hat, math.sqrt(max(p_hat * (1 - p_hat), 0.0) / n), n,
                         n_aborted)
        reports.append(_bound_report("holding", lhs, floor, wl - floor,
                                     model=model.model_id, k=k, K=K, t=float(t),
                                     wilson_lower=wl, n=n))
    return reports


# --- log-Harnack check --------------------------------------------------------------

def harnack_cost_values(model: ModelSpec, lam_T: np.ndarray, T: float,
                        dist_sq: float) -> np.ndarray:
    """Per-replica transport cost ``C_k(T) phi(|x-y|^2) /
    (lambda(T) (1 - exp(-2 C_k(T) T / gamma)))`` evaluated at ``k = Lambda_T``."""
    ucls = model.u_class()
    phi_v = ucls.phi(dist_sq)
    lam_t = float(model.ellipticity_lambda(T))
    out = np.empty(len(lam_T))
    for k, rows in regime_groups(lam_T):
        c = float(model.dissipativity_c(T, k))
        denom = lam_t * (1.0 - math.exp(-2.0 * c * T / ucls.gamma))
        out[rows] = c * phi_v / denom
    return out


def _require_harnack_prerequisites(model: ModelSpec, horizons) -> None:
    """Positive finite horizons (at least one), state-independent rates, and
    every ``HARNACK_PREREQUISITES`` check on [0, T] for each horizon T."""
    _check_times("T_choices", horizons)
    for T in horizons:
        if not T > 0:
            raise ValueError(f"the Harnack horizon must be positive, got T={T}")
    if not model.q.state_independent:
        raise UnsupportedSchemeError("the coupling argument needs "
                                     "state-independent rates")
    for T in horizons:
        _require(model, T, *HARNACK_PREREQUISITES)


def harnack_check(model: ModelSpec, f: Callable, x, y, i: int, T: float,
                  n: int, cfg: SimConfig, threads: int = 1) -> BoundReport:
    """Check ``E[log f](from y) <= log E[f](from x) + transport cost``.

    Both sides run under common random numbers in one stacked batch; the
    cost expectation over the terminal regime reuses the left side's chain
    skeleton (the cost depends only on ``Lambda_T``). The pass rule inflates
    both sides by 3 sigma: ``margin = (rhs + 3 se_rhs) - (lhs - 3 se_lhs)``
    where ``se_rhs`` combines the delta-method error of the log term with the
    cost term's error. ``params["sigma_gap"]`` reports the raw gap in
    combined-sigma units for classifying statistical misses. ``T`` must be
    positive, the rates state-independent and the model must pass every
    ``HARNACK_PREREQUISITES`` check on [0, T].
    """
    _require_harnack_prerequisites(model, (T,))

    x = as_point(x)
    y = as_point(y)
    out = _stacked_run(model, EVENT_DRIVEN, [y, x], i, T, n, cfg, threads)

    def clamp(vals):
        return np.maximum(np.asarray(vals, dtype=float), _HARNACK_F_FLOOR)

    fy = clamp(f(out["x"][0], out["regime"][0]))
    fx = clamp(f(out["x"][1], out["regime"][1]))
    lhs = mc_from_values(np.log(fy), out["aborted"][0])
    pf = mc_from_values(fx, out["aborted"][1])
    dist_sq = float(np.sum((x - y) ** 2))
    cost = mc_from_values(harnack_cost_values(model, out["regime"][0], T, dist_sq),
                          out["aborted"][0])
    rhs = math.log(pf.mean) + cost.mean
    se_rhs = math.sqrt((pf.stderr / pf.mean) ** 2 + cost.stderr ** 2)
    margin = (rhs + 3.0 * se_rhs) - (lhs.mean - 3.0 * lhs.stderr)
    comb = math.sqrt(lhs.stderr ** 2 + se_rhs ** 2)
    sigma_gap = (lhs.mean - rhs) / comb if comb > 0 else 0.0
    return _bound_report("harnack", lhs, rhs, margin, model=model.model_id,
                         x=x.tolist(), y=y.tolist(), i=i, T=T, n=n,
                         log_mean=math.log(pf.mean), cost_mean=cost.mean,
                         se_rhs=se_rhs, sigma_gap=sigma_gap)


def gauss_function(scale: float = 1.0, center=None) -> Callable:
    """Strictly positive bounded observable ``exp(-scale |x - center|^2)``."""
    def f(X, lam):
        X = np.asarray(X, dtype=float)
        c = 0.0 if center is None else np.asarray(center, dtype=float)
        return np.exp(-scale * np.sum((X - c) ** 2, axis=1))
    return f


def harnack_sweep(model: ModelSpec, n_cases: int, n: int, cfg: SimConfig,
                  threads: int = 1, seed: Optional[int] = None,
                  T_choices: Sequence[float] = (0.25, 0.5, 1.0),
                  x_radius: float = 1.0) -> list[BoundReport]:
    """Randomized (x, y, T, f) sweep of the log-transport inequality.

    The prerequisites of ``harnack_check`` are verified up front for every
    horizon in ``T_choices``, before any case runs; each case's own check
    then reads the report its model keeps for that horizon. Case ``c`` runs
    at seed ``cfg.seed + c`` so the sweep is reproducible case-by-case.
    """
    _require_harnack_prerequisites(model, T_choices)
    rng = np.random.default_rng(cfg.seed if seed is None else seed)
    n_reg = model.q.n_regimes or 3
    cases = []
    for case in range(n_cases):
        x = rng.uniform(-x_radius, x_radius, size=model.dim)
        y = rng.uniform(-x_radius, x_radius, size=model.dim)
        T = float(rng.choice(np.asarray(T_choices)))
        f = gauss_function(scale=float(rng.uniform(0.3, 2.0)),
                           center=rng.uniform(-1.0, 1.0, size=model.dim))
        i = int(rng.integers(1, min(n_reg, 3) + 1))
        cases.append((case, x, y, T, f, i))

    def one(args):
        case, x, y, T, f, i = args
        return harnack_check(model, f, x, y, i, T, n,
                             replace(cfg, seed=cfg.seed + case), threads=1)

    # cases are the parallel unit: each runs on its own derived seed, so the
    # result set is identical under any thread count or completion order
    return _ordered_map(one, cases, threads)


def harnack_sweep_summary(reports: Sequence[BoundReport],
                          min_pass_rate: float = 0.99,
                          hard_sigma: float = 4.0) -> dict:
    """Sweep verdict: pass rate above threshold and every residual miss
    within ``hard_sigma`` combined standard errors (a statistical miss, not a
    counterexample)."""
    n = len(reports)
    passed = sum(r.passed for r in reports)
    hard = [k for k, r in enumerate(reports)
            if not r.passed and r.params.get("sigma_gap", 0.0) > hard_sigma]
    rate = passed / n if n else 0.0  # an empty sweep verifies nothing
    return {"cases": n, "passed": passed, "pass_rate": rate,
            "hard_failures": len(hard), "hard_cases": hard,
            "ok": bool(n and rate >= min_pass_rate and not hard)}


# --- strong-Feller modulus probe ------------------------------------------------------

def feller_modulus(model: ModelSpec, f: Callable, t: float, x, i: int,
                   radii: Sequence[float], n: int, cfg: SimConfig,
                   threads: int = 1) -> list[GapEstimate]:
    """Common-random-number gaps ``|E f(from x + r e1) - E f(from x)|``.

    All starts run in one stacked batch with repeated replica ids, so the
    paired difference per replica is the variance-reduced CRN estimator.
    """
    x = as_point(x)
    e1 = np.zeros(model.dim)
    e1[0] = 1.0
    starts = [x] + [x + float(r) * e1 for r in radii]
    out = _stacked_run(model, EVENT_DRIVEN, starts, i, t, n, cfg, threads)
    f0 = np.asarray(f(out["x"][0], out["regime"][0]), dtype=float)
    ab0 = out["aborted"][0]
    gaps = []
    for b, r in enumerate(radii, start=1):
        fr = np.asarray(f(out["x"][b], out["regime"][b]), dtype=float)
        est = mc_from_values(fr - f0, ab0 | out["aborted"][b])
        gaps.append(GapEstimate(**vars(est), radius=float(r)))
    return gaps


def gap_trend_pass(gaps: Sequence[GapEstimate]) -> bool:
    """Monotone-decrease trend at 3 sigma: ordered by radius, largest first,
    each gap below the previous one plus combined noise. A flagged gap fails
    the trend, and so does an empty list, which verifies nothing."""
    if not gaps or any(g.flagged for g in gaps):
        return False
    gaps = sorted(gaps, key=lambda g: g.radius, reverse=True)
    for prev, cur in zip(gaps, gaps[1:]):
        slack = 3.0 * math.sqrt(prev.stderr ** 2 + cur.stderr ** 2)
        if cur.gap > prev.gap + slack:
            return False
    return True


def discontinuity_certificate(gaps: Sequence[GapEstimate],
                              floor: float = 0.05) -> dict:
    """Certify a non-vanishing CRN gap at the smallest radius.

    The certificate holds when the gap minus 3 sigma stays above ``floor``
    and the gap is not flagged: the semigroup provably fails to smooth
    bounded measurable data at this point, i.e. a strong-Feller
    counterexample witness. An empty gap list is a ValueError.
    """
    if not gaps:
        raise ValueError("no gap to certify: the gap list is empty")
    smallest = min(gaps, key=lambda g: g.radius)
    lower = smallest.gap - 3.0 * smallest.stderr
    return {"radius": smallest.radius, "gap": smallest.gap,
            "stderr": smallest.stderr, "lower_3sigma": lower,
            "floor": floor,
            "certified": bool(lower > floor and not smallest.flagged)}


# --- chain marginal oracle ------------------------------------------------------------

@dataclass(frozen=True)
class MarginalCheck:
    model_id: str
    entries: int
    within: int
    records: list

    @property
    def fraction_within(self) -> float:
        return self.within / self.entries if self.entries else 1.0

    def passed(self, threshold: float = 0.99) -> bool:
        return self.fraction_within >= threshold


def chain_marginal_check(model: ModelSpec, times: Sequence[float], n: int,
                         cfg: SimConfig, threads: int = 1,
                         starts: Optional[Sequence[int]] = None) -> MarginalCheck:
    """Empirical chain marginals vs the matrix-exponential oracle.

    For every start regime and grid time, each entry of the empirical
    distribution must sit within 3 binomial standard errors of the
    ``exp(t Q)`` value, computed once per spec and time (``q._oracles``).
    """
    _check_times("times", times)
    q = model.q
    G = chain_generator_matrix(q)
    size = G.shape[0]
    starts = range(1, size + 1) if starts is None else starts
    starts = _start_regimes(q, starts, len(starts)).tolist()
    if not starts:
        raise ValueError("need at least one start regime; None means all")
    horizon = float(max(times))
    records = []
    within = 0
    entries = 0
    oracle = q._oracles
    oracle.update({t: transition_matrix(G, t) for t in set(times) - oracle.keys()})
    for i0 in starts:
        def kernel(lo, hi, i0=i0):
            reps = np.arange(lo, hi, dtype=np.uint64)
            out = run_chain(q, i0, horizon, NoiseStream(cfg.seed + i0), reps,
                            t_marks=times)
            return {"regime_at": out["regime_at"].T}

        lam_at = _run_batches(n, threads, kernel)["regime_at"].T
        for ti, t in enumerate(times):
            counts = np.bincount(lam_at[ti], minlength=size + 1)[1:size + 1]
            emp = counts / n
            for j in range(size):
                p = float(oracle[t][i0 - 1, j])
                se = math.sqrt(max(p * (1.0 - p), 0.0) / n)
                ok = abs(emp[j] - p) <= 3.0 * se + 1e-12
                entries += 1
                within += ok
                records.append({"start": i0, "t": float(t), "regime": j + 1,
                                "empirical": float(emp[j]), "oracle": p,
                                "stderr": se, "within_3se": bool(ok)})
    return MarginalCheck(model_id=model.model_id, entries=entries,
                         within=within, records=records)


# --- truncation consistency --------------------------------------------------------

def truncation_identity_batch(model: ModelSpec, x0, i0, K, cfg: SimConfig,
                              seeds: Sequence[int], replicas=0) -> list[dict]:
    """Shared-noise comparison of K-truncated and plain frozen-rate paths,
    many cases at once.

    Case ``c`` starts from ``(x0[c], i0[c])``, truncates at ``K[c]`` and
    reads the stream of seed ``seeds[c]`` at replica ``replicas[c]``, over
    ``cfg.horizon`` in steps of ``cfg.dt``; ``x0`` may be one point and
    ``i0``, ``K`` and ``replicas`` single values shared by every case. Per
    truncation level the plain paths run as one recorded batch and the
    truncated ones as another. A case's two paths must agree
    sample-for-sample (times, positions, regimes, bitwise) up to and
    including the first sampled time where ``|X_t| + Lambda_t > K``.
    Returns one result per case, in case order. Requires ``band_structure``,
    ``rate_regime_linear`` and ``coefficient_growth`` at t = 0 and cfg.horizon.
    """
    n = len(seeds)
    x0 = np.asarray(x0, dtype=float)
    X0 = np.tile(as_point(x0), (n, 1)) if x0.ndim <= 1 else x0
    lam0, Ks, reps = (np.broadcast_to(v, n) for v in (i0, K, replicas))
    check_truncation_start(X0, lam0, Ks)
    _require(model, cfg.horizon, *_TRUNCATION)
    seeds = np.asarray(seeds)
    runs = [None] * n  # case -> (plain run, truncated run, row)
    for k in np.unique(Ks).tolist():
        sel = np.flatnonzero(Ks == k)
        args = (X0[sel], lam0[sel], cfg.horizon, cfg.dt,
                NoiseStream(seeds[sel]), reps[sel])
        full = run_frozen(model, *args, trunc_level=k, record=True)
        trunc = run_frozen(truncated_model(model, k), *args, trunc_level=k,
                           record=True)
        for row, c in enumerate(sel.tolist()):
            runs[c] = (full, trunc, row)
    return [_identity_record(recorded_path(full, r), recorded_path(trunc, r))
            for full, trunc, r in runs]


def truncation_identity_check(model: ModelSpec, x0, i0: int, K: int,
                              cfg: SimConfig, replica: int = 0) -> dict:
    """One case of ``truncation_identity_batch``: seed ``cfg.seed``."""
    return truncation_identity_batch(model, x0, i0, K, cfg, [cfg.seed],
                                     replica)[0]


def _identity_record(full, trunc) -> dict:
    """Compare a plain and a truncated trajectory up to the exit time."""
    tau = min(full.tau_k, trunc.tau_k)
    # an infinite tau sorts after every sampled time: the whole paths compare
    ka = np.searchsorted(full.times, tau, side="right")
    kb = np.searchsorted(trunc.times, tau, side="right")
    same = (ka == kb
            and np.array_equal(full.times[:ka], trunc.times[:kb])
            and np.array_equal(full.x[:ka], trunc.x[:kb])
            and np.array_equal(full.regime[:ka], trunc.regime[:kb]))
    return {"identical": bool(same), "tau_k": float(tau),
            "n_compared": int(ka), "tau_full": full.tau_k,
            "tau_trunc": trunc.tau_k}


def truncation_exit_bound_check(model: ModelSpec, x0, i0: int, K: int, t: float,
                                n: int, cfg: SimConfig,
                                threads: int = 1) -> BoundReport:
    """Markov-type exit bound: empirical ``P(tau_K <= t)`` against the
    second-moment envelope divided by K (position-free rate certificate).
    ``margin = rhs - (p_hat + 3 se)``; needs ``|x0| + i0 < K`` and, at
    t = 0 and t, the identity check's ``band_structure``,
    ``rate_regime_linear`` and ``coefficient_growth``."""
    check_truncation_start(as_point(x0), i0, K)
    _check_replicas(n)
    _require(model, t, *_TRUNCATION)
    out = _stacked_run(model, EVENT_DRIVEN, [x0], i0, t, n, cfg, threads,
                       trunc_level=float(K))
    hit = out["tau_k"][0] <= t
    p_hat = float(hit.mean())
    se = math.sqrt(max(p_hat * (1 - p_hat), 0.0) / n)
    rhs = second_moment_envelope(model, x0, i0, t,
                                 drop_position_term=True) / K
    lhs = McEstimate(p_hat, se, n, int(out["aborted"][0].sum()))
    margin = rhs - (p_hat + 3.0 * se)
    return _bound_report("truncation", lhs, min(rhs, 1e308), margin,
                         model=model.model_id, K=K, t=float(t), n=n)


# --- jump-kernel Lipschitz sweep ------------------------------------------------------

def displacement_lipschitz_sweep(n_cases: int = 1000, seed: int = DEFAULT_SEED,
                                 p_values: Sequence[float] = (1.0, 2.0),
                                 i_max: int = 20, dim: int = 1) -> list[dict]:
    """Randomized exact check of the jump-kernel L^p Lipschitz envelope.

    Each case draws a banded spec whose Lipschitz constant is certified by
    construction, two points in the cube [-3, 3]^dim, a row and an exponent,
    and compares the exact interval-sweep distance against the closed-form
    envelope.
    """
    if not len(p_values):
        raise ValueError("p_values must not be empty")
    rng = np.random.default_rng(seed)
    records = []
    for case in range(n_cases):
        q = random_banded_q(rng, dim=dim, max_regime=i_max + 4)
        x = rng.uniform(-3.0, 3.0, size=dim)
        y = rng.uniform(-3.0, 3.0, size=dim)
        i = int(rng.integers(1, i_max + 1))
        p = float(p_values[case % len(p_values)])
        lhs = displacement_lp_distance(q, x, y, i, p)
        rhs = displacement_lp_bound(q, i, p, float(np.linalg.norm(x - y)))
        records.append({"case": case, "kappa": q.kappa, "i": i, "p": p,
                        "lhs": lhs, "rhs": rhs, "margin": rhs - lhs,
                        "passed": bool(lhs <= rhs)})
    return records
