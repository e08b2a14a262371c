"""Path simulation of (X_t, Lambda_t).

Two schemes:

* ``frozen_rate`` -- works for state-dependent rates. Per step ``[t, t+dt)``
  the switching intensity is frozen at the step start; an exponential clock
  decides whether a switch happens inside the step; on a switch at ``s`` the
  position is Euler-advanced to ``s``, the destination is drawn by dropping a
  uniform mark on the current row block of the interval layout at the
  advanced position, and the diffusion restarts with the new regime for the
  step remainder. At most one switch fires per step (residual switches slide
  to the next step; the weak bias is O(dt)); a warning fires when
  ``dt * q_i(x)`` exceeds 0.1.

* ``event_driven_exact`` -- for state-independent rates only. The jump
  skeleton is simulated first by competing exponentials (exact in law), the
  frozen-regime SDE is Euler-integrated on each inter-jump segment, and
  switching times carry no discretization bias.

All randomness is counter-addressed per replica (see ``noise``): the same
seed and replica id reproduce a path bit-for-bit regardless of batch size,
thread layout or which other replicas run. Two coupled paths consume the
same stream by construction, and within one step the draws have fixed
purposes (first sub-increment, clock, mark, post-switch sub-increment), so
paths that branch differently stay aligned on the shared Brownian noise.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import (NumericalBlowupError, StiffSwitchingWarning,
                     UnsupportedSchemeError)
from .models import ModelSpec, apply_diffusion, _sigma_stack
from .noise import (LANE_EULER, LANE_JUMP, NoiseStream, keyed_exponential,
                    keyed_normal, keyed_uniform)
from .qmatrix import (QMatrixSpec, as_point, row_layout, smooth_cutoff,
                      truncate_q)
from .trajectory import JumpRecord, Trajectory

DEFAULT_SEED = 123456789

FROZEN_RATE = "frozen_rate"
EVENT_DRIVEN = "event_driven_exact"
SCHEMES = (FROZEN_RATE, EVENT_DRIVEN)


@dataclass(frozen=True)
class SimConfig:
    """Horizon, step, truncation level, seeding and scheme for one run."""

    horizon: float
    dt: float
    truncation: Optional[int] = None
    seed: int = DEFAULT_SEED
    scheme: str = FROZEN_RATE
    replicas: int = 10_000
    threads: int = 1

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not (math.isfinite(self.horizon) and self.horizon >= 0):
            raise ValueError(f"horizon must be nonnegative and finite, "
                             f"got {self.horizon}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; have {SCHEMES}")
        if self.replicas < 1 or self.threads < 1:
            raise ValueError("replicas and threads must be >= 1")

    def n_steps(self) -> int:
        if self.horizon == 0:
            return 0
        return int(math.ceil(self.horizon / self.dt - 1e-12))


def step_euler(model: ModelSpec, t: float, x, i: int, dt: float, dw) -> np.ndarray:
    """One explicit Euler update ``x + b dt + sigma dW`` (dW already scaled)."""
    x = as_point(x)
    dw = as_point(dw)
    b = np.asarray(model.drift(t, x, i), dtype=float)
    sig = model.diffusion(t, x, i)
    out = x + b * dt + apply_diffusion(sig, dw)
    if not np.all(np.isfinite(out)):
        raise NumericalBlowupError(t, x, i)
    return out


# --- state-independent chain machinery ---------------------------------------

def _zero_layouts(q: QMatrixSpec, dim: int):
    """Regime -> row layout at x = 0, built once per regime on first use
    (valid because the rates are state-independent)."""
    zero = np.zeros(dim)
    return functools.cache(lambda k: row_layout(q, zero, k))


def _destinations(layout, lam, U):
    """Regimes after a switch out of ``lam`` with uniforms ``U``."""
    out = lam.copy()
    for k in np.unique(lam):
        grp = lam == k
        out[grp] = layout(int(k)).destination(U[grp])
    return out


def _holding_times(layout, lam, E):
    """E / q_k per replica in regime ``lam``; inf where the row sum vanishes."""
    out = np.full(lam.shape, np.inf)
    for k in np.unique(lam):
        grp = lam == k
        tot = layout(int(k)).total
        if tot > 0:
            out[grp] = E[grp] / tot
    return out


def run_chain(q: QMatrixSpec, i0: int, T: float, stream: NoiseStream,
              replicas: np.ndarray, t_marks=()) -> dict:
    """Vectorized skeleton-only simulation of a state-independent chain.

    Returns final regimes, first-switch times ``eta``, running regime maxima
    and the regime at each requested mark time. Uses the same jump-lane
    addressing as the full runner, so the skeletons agree bit-for-bit.
    """
    if not q.state_independent:
        raise UnsupportedSchemeError("chain-only simulation needs "
                                     "state-independent rates")
    n = len(replicas)
    layout = _zero_layouts(q, 1)
    lam = np.full(n, int(i0), dtype=np.int64)
    cur = np.zeros(n)
    jump_ctr = np.zeros(n, dtype=np.uint64)
    eta = np.full(n, np.inf)
    lam_max = lam.astype(float).copy()
    marks = [float(tm) for tm in t_marks]
    lam_at = np.full((len(marks), n), int(i0), dtype=np.int64)
    unfilled = np.ones((len(marks), n), dtype=bool)

    E = stream.exponential(replicas, LANE_JUMP, jump_ctr)
    jump_ctr += np.uint64(1)
    nxt = cur + _holding_times(layout, lam, E)

    while True:
        jumpers = nxt <= T
        for mi, tm in enumerate(marks):
            hit = unfilled[mi] & (cur <= tm) & (nxt > tm)
            lam_at[mi][hit] = lam[hit]
            unfilled[mi][hit] = False
        if not jumpers.any():
            break
        U = stream.uniform(replicas, LANE_JUMP, jump_ctr)
        jump_ctr += jumpers
        eta = np.where(jumpers & np.isinf(eta), nxt, eta)
        lam[jumpers] = _destinations(layout, lam[jumpers], U[jumpers])
        lam_max = np.maximum(lam_max, lam)
        cur = np.where(jumpers, nxt, cur)
        E = stream.exponential(replicas, LANE_JUMP, jump_ctr)
        jump_ctr += jumpers
        nxt[jumpers] = cur[jumpers] + _holding_times(layout, lam[jumpers],
                                                    E[jumpers])

    for mi in range(len(marks)):
        lam_at[mi][unfilled[mi]] = lam[unfilled[mi]]
    return {"regime": lam, "eta": eta, "regime_max": lam_max, "regime_at": lam_at}


# --- event-driven exact runner -----------------------------------------------

def run_event_driven(model: ModelSpec, x0, i0: int, T: float, dt: float,
                     stream: NoiseStream, replicas: np.ndarray, *,
                     trunc_level: Optional[float] = None,
                     track_xmax: bool = False, record: bool = False) -> dict:
    """Batch simulation under the exact jump skeleton.

    ``x0`` may be a single point (shared start) or an ``(n, d)`` array of
    per-replica starts; duplicated replica ids give common random numbers
    across the duplicated rows. Non-finite states are not raised here: the
    replica's state turns NaN, keeps consuming its own draws untouched, and
    is reported in the ``aborted`` mask.
    """
    q = model.q
    if not q.state_independent:
        raise UnsupportedSchemeError(
            "event_driven_exact requires state-independent rates")
    d = model.dim
    replicas = np.asarray(replicas, dtype=np.uint64)
    n = len(replicas)
    x0 = np.asarray(x0, dtype=float)
    X = np.tile(x0, (n, 1)) if x0.ndim == 1 else x0.astype(float).copy()
    if X.shape != (n, d):
        raise ValueError(f"x0 shape {x0.shape} incompatible with "
                         f"{n} replicas in dimension {d}")
    if record and n != 1:
        raise ValueError("recording needs a single replica")

    layout = _zero_layouts(q, d)
    keys = stream.replica_keys(replicas)
    lincoef = model.linear_coeffs
    lam = np.full(n, int(i0), dtype=np.int64)
    sub_ctr = np.zeros(n, dtype=np.uint64)
    jump_ctr = np.zeros(n, dtype=np.uint64)
    eta = np.full(n, np.inf)
    lam_max = lam.astype(float)
    xnorm = np.linalg.norm(X, axis=1)
    xmax = xnorm.copy() if track_xmax else None
    tau = np.full(n, np.inf)
    observing = track_xmax or trunc_level is not None
    if trunc_level is not None:
        tau[xnorm + lam > trunc_level] = 0.0
    log = [(0.0, X[0].copy(), int(lam[0]), False)] if record else None
    jumps: list[JumpRecord] = []

    E = keyed_exponential(keys, LANE_JUMP, jump_ctr)
    jump_ctr += np.uint64(1)
    next_jump = _holding_times(layout, lam, E)

    comps = np.arange(d, dtype=np.uint64)
    ud = np.uint64(d)
    seg = np.zeros(n)
    n_steps = int(math.ceil(T / dt - 1e-12)) if T > 0 else 0

    Xflat = X[:, 0] if d == 1 else None
    if lincoef is not None:
        # regime-wise coefficients cached full-width; jumps refresh their rows
        co_beta, co_a, co_s = (np.array(v, dtype=float, copy=True)
                               for v in lincoef(lam))

    def _refresh_coeffs(jidx, new_j):
        nb, na, ns = lincoef(new_j)
        co_beta[jidx] = nb
        co_a[jidx] = na
        co_s[jidx] = ns

    def _euler(idx, t_of, h):
        """Advance rows ``idx`` (index array or full slice) by ``h``."""
        kk = keys[idx]
        ctr = sub_ctr[idx]
        if lincoef is not None and d == 1:
            # flat fast path: counter stride is 1 in one dimension
            xi = keyed_normal(kk, LANE_EULER, ctr)
            xs = Xflat[idx]
            sq = math.sqrt(h) if np.ndim(h) == 0 else np.sqrt(h)
            Xflat[idx] = (xs + (co_a[idx] - co_beta[idx] * xs) * h
                          + co_s[idx] * (sq * xi))
            sub_ctr[idx] = ctr + np.uint64(1)
            return
        xi = keyed_normal(kk[:, None], LANE_EULER, ctr[:, None] * ud + comps)
        xs = X[idx]
        if np.ndim(h) == 0:
            hcol = h
            sq = math.sqrt(h)
        else:
            hcol = h[:, None]
            sq = np.sqrt(h)[:, None]
        if lincoef is not None:
            X[idx] = (xs + (co_a[idx][:, None] - co_beta[idx][:, None] * xs)
                      * hcol + co_s[idx][:, None] * (sq * xi))
        else:
            out = np.array(xs, copy=True)
            lam_rows = lam[idx]
            for k in np.unique(lam_rows):
                grp = lam_rows == k
                targ = t_of if np.ndim(t_of) == 0 else t_of[grp]
                b = np.asarray(model.drift(targ, xs[grp], int(k)), dtype=float)
                sig = model.diffusion(targ, xs[grp], int(k))
                hh = hcol if np.ndim(h) == 0 else hcol[grp]
                sqh = sq if np.ndim(h) == 0 else sq[grp]
                out[grp] = xs[grp] + b * hh + apply_diffusion(sig, sqh * xi[grp])
            X[idx] = out
        sub_ctr[idx] = ctr + np.uint64(1)

    def _observe(idx, t_like):
        if not observing:
            return
        xn = np.linalg.norm(X[idx], axis=1)
        if track_xmax:
            xmax[idx] = np.maximum(xmax[idx], xn)
        if trunc_level is not None:
            sub_tau = tau[idx]
            crossed = np.isinf(sub_tau) & (xn + lam[idx] > trunc_level)
            if crossed.any():
                sub_tau[crossed] = (t_like[crossed]
                                    if np.ndim(t_like) else t_like)
                tau[idx] = sub_tau

    full = slice(None)
    for g in range(n_steps):
        t0 = g * dt
        t1 = min(T, (g + 1) * dt)
        if next_jump.min() > t1:
            # no switch anywhere this step: one lockstep substep
            _euler(full, t0, t1 - t0)
            _observe(full, t1)
            if record:
                log.append((t1, X[0].copy(), int(lam[0]), False))
            continue
        seg.fill(t0)
        while True:
            adv = np.minimum(next_jump, t1)
            h = adv - seg
            sel = np.flatnonzero(h > 0)
            if sel.size:
                act = full if sel.size == n else sel
                _euler(act, seg[act], h[act])
                seg[act] = adv[act]
                _observe(act, adv[act])
                if record and sel[0] == 0 and seg[0] != next_jump[0]:
                    # a switch at this exact time logs its own row instead
                    log.append((float(seg[0]), X[0].copy(), int(lam[0]), False))
            # seg is finite, so seg == next_jump can only fire at finite jumps
            jidx = np.flatnonzero(seg == next_jump)
            if jidx.size:
                U = keyed_uniform(keys[jidx], LANE_JUMP, jump_ctr[jidx])
                jump_ctr[jidx] += np.uint64(1)
                new_j = _destinations(layout, lam[jidx], U)
                eta_j = eta[jidx]
                fresh = np.isinf(eta_j)
                eta_j[fresh] = seg[jidx][fresh]
                eta[jidx] = eta_j
                if record and jidx[0] == 0:
                    src, dst = int(lam[0]), int(new_j[0])
                    mark = layout(src).mark(float(U[0]))
                    jumps.append(JumpRecord(float(seg[0]), src, dst, mark))
                    log.append((float(seg[0]), X[0].copy(), dst, True))
                lam[jidx] = new_j
                lam_max[jidx] = np.maximum(lam_max[jidx], new_j)
                if lincoef is not None:
                    _refresh_coeffs(jidx, new_j)
                if trunc_level is not None:
                    _observe(jidx, seg[jidx])
                E = keyed_exponential(keys[jidx], LANE_JUMP, jump_ctr[jidx])
                jump_ctr[jidx] += np.uint64(1)
                next_jump[jidx] = seg[jidx] + _holding_times(layout, new_j, E)
            else:
                # every replica reached t1 without a pending switch
                break

    aborted = ~np.all(np.isfinite(X), axis=1)
    out = {"x": X, "regime": lam, "eta": eta, "regime_max": lam_max,
           "tau_k": tau, "aborted": aborted}
    if track_xmax:
        out["xnorm_max"] = xmax
        out["aborted"] = aborted | ~np.isfinite(xmax)
    if record:
        out["log"] = log
        out["jumps"] = jumps
    return out


# --- trajectory-level operations ----------------------------------------------

def _as_trajectory(out: dict, cfg: SimConfig) -> Trajectory:
    log = out["log"]
    times = np.array([r[0] for r in log])
    xs = np.stack([r[1] for r in log])
    regs = np.array([r[2] for r in log], dtype=np.int64)
    return Trajectory(times=times, x=xs, regime=regs, jumps=list(out["jumps"]),
                      eta=float(out["eta"][0]), tau_k=float(out["tau_k"][0]),
                      seed=cfg.seed)


def simulate_state_independent(model: ModelSpec, x0, i0: int, cfg: SimConfig, *,
                               replica: int = 0,
                               stream: Optional[NoiseStream] = None) -> Trajectory:
    """Exact event-driven path: jump skeleton first, frozen-regime Euler
    integration on each inter-jump interval."""
    stream = stream or NoiseStream(cfg.seed)
    out = run_event_driven(model, as_point(x0), i0, cfg.horizon, cfg.dt, stream,
                           np.array([replica], dtype=np.uint64),
                           trunc_level=cfg.truncation, track_xmax=False,
                           record=True)
    if out["aborted"][0]:
        bad = out["x"][0]
        raise NumericalBlowupError(cfg.horizon, bad, int(out["regime"][0]))
    return _as_trajectory(out, cfg)


def simulate_path(model: ModelSpec, x0, i0: int, cfg: SimConfig, *,
                  replica: int = 0,
                  stream: Optional[NoiseStream] = None) -> Trajectory:
    """Frozen-rate path simulation (state-dependent rates allowed)."""
    if cfg.scheme != FROZEN_RATE:
        raise UnsupportedSchemeError(
            f"simulate_path implements {FROZEN_RATE!r}; got {cfg.scheme!r}")
    stream = stream or NoiseStream(cfg.seed)
    d = model.dim
    x = as_point(x0).astype(float)
    if len(x) != d:
        raise ValueError(f"x0 has dimension {len(x)}, model has {d}")
    i = int(i0)
    K = cfg.truncation
    times = [0.0]
    xs = [x.copy()]
    regs = [i]
    jumps: list[JumpRecord] = []
    eta = math.inf
    tau = math.inf
    if K is not None and np.linalg.norm(x) + i > K:
        tau = 0.0
    warned = False

    def _push(t, xv, reg):
        nonlocal tau
        times.append(float(t))
        xs.append(xv.copy())
        regs.append(int(reg))
        if K is not None and math.isinf(tau) and np.linalg.norm(xv) + reg > K:
            tau = float(t)

    for sidx in range(cfg.n_steps()):
        t0 = sidx * cfg.dt
        t1 = min(cfg.horizon, t0 + cfg.dt)
        h = t1 - t0
        if h <= 0:
            break
        qi = model.q.total_rate(x, i)
        if qi * h > 0.1 and not warned:
            warnings.warn(
                f"dt * q_i(x) = {qi * h:.3f} > 0.1 at t={t0:.4g}; switching is "
                "under-resolved, reduce dt", StiffSwitchingWarning)
            warned = True
        E = float(stream.exponential(replica, LANE_JUMP, 2 * sidx))
        s_rel = E / qi if qi > 0 else math.inf
        base = 2 * d * sidx
        xi1 = stream.normal(replica, LANE_EULER,
                            np.arange(base, base + d, dtype=np.uint64))
        b = np.asarray(model.drift(t0, x, i), dtype=float)
        sig = model.diffusion(t0, x, i)
        if s_rel >= h:
            x = x + b * h + apply_diffusion(sig, math.sqrt(h) * xi1)
            if not np.all(np.isfinite(x)):
                raise NumericalBlowupError(t1, x, i)
            _push(t1, x, i)
        else:
            s = t0 + s_rel
            x = x + b * s_rel + apply_diffusion(sig, math.sqrt(s_rel) * xi1)
            if not np.all(np.isfinite(x)):
                raise NumericalBlowupError(s, x, i)
            u = float(stream.uniform(replica, LANE_JUMP, 2 * sidx + 1))
            lay = row_layout(model.q, x, i)
            j = int(lay.destination(u))
            if j != i:
                jumps.append(JumpRecord(s, i, j, lay.mark(u)))
                if math.isinf(eta):
                    eta = s
            _push(s, x, j)
            rem = t1 - s
            b2 = np.asarray(model.drift(s, x, j), dtype=float)
            sig2 = model.diffusion(s, x, j)
            xi2 = stream.normal(replica, LANE_EULER,
                                np.arange(base + d, base + 2 * d, dtype=np.uint64))
            x = x + b2 * rem + apply_diffusion(sig2, math.sqrt(rem) * xi2)
            if not np.all(np.isfinite(x)):
                raise NumericalBlowupError(t1, x, j)
            i = j
            _push(t1, x, i)

    return Trajectory(times=np.array(times), x=np.stack(xs),
                      regime=np.array(regs, dtype=np.int64), jumps=jumps,
                      eta=eta, tau_k=tau, seed=cfg.seed)


def simulate(model: ModelSpec, x0, i0: int, cfg: SimConfig, *,
             replica: int = 0, stream: Optional[NoiseStream] = None) -> Trajectory:
    """Dispatch on ``cfg.scheme``."""
    if cfg.scheme == EVENT_DRIVEN:
        return simulate_state_independent(model, x0, i0, cfg,
                                          replica=replica, stream=stream)
    return simulate_path(model, x0, i0, cfg, replica=replica, stream=stream)


# --- truncation ----------------------------------------------------------------

def truncated_model(model: ModelSpec, K: int) -> ModelSpec:
    """Coefficients scaled by the smooth radial cutoff and the rate matrix
    folded onto {1, ..., K + kappa + 1}.

    The squared-diffusion table scales linearly with the cutoff, so the
    diffusion coefficient itself picks up the cutoff's square root. Regimes
    beyond a finite base space reuse the top base regime's coefficients
    (those states are only reachable through the boundary row).
    """
    qK = truncate_q(model.q, K)
    base_n = model.q.n_regimes
    d = model.dim

    def clamp(i: int) -> int:
        return min(i, base_n) if base_n is not None else i

    def driftK(t, x, i):
        x = np.asarray(x, dtype=float)
        b = np.asarray(model.drift(t, x, clamp(i)), dtype=float)
        if x.ndim == 1:
            return b * float(smooth_cutoff(np.linalg.norm(x), K))
        phi = smooth_cutoff(np.linalg.norm(x, axis=1), K)
        return b * phi[:, None]

    def diffusionK(t, x, i):
        x = np.asarray(x, dtype=float)
        sig = model.diffusion(t, x, clamp(i))
        if x.ndim == 1:
            root = math.sqrt(float(smooth_cutoff(np.linalg.norm(x), K)))
            if np.isscalar(sig) or np.asarray(sig).ndim == 0:
                return float(sig) * root
            return np.asarray(sig, dtype=float) * root
        root = np.sqrt(smooth_cutoff(np.linalg.norm(x, axis=1), K))
        return _sigma_stack(sig, x.shape[0], d) * root[:, None, None]

    return ModelSpec(
        dim=d, drift=driftK, diffusion=diffusionK, q=qK,
        growth_c=model.growth_c, dissipativity_c=model.dissipativity_c,
        diffusion_mod_c=model.diffusion_mod_c,
        ellipticity_lambda=model.ellipticity_lambda,
        u_id=model.u_id, u_tilde_id=model.u_tilde_id,
        model_id=f"{model.model_id}|trunc{K}", advertised=frozenset())


def simulate_truncated(model: ModelSpec, x0, i0: int, K: int, cfg: SimConfig, *,
                       replica: int = 0,
                       stream: Optional[NoiseStream] = None) -> Trajectory:
    """Frozen-rate simulation of the K-truncated process.

    Shares the untruncated run's draw addressing, so with the same stream the
    two paths coincide exactly until the first sampled time with
    ``|X_t| + Lambda_t > K``.
    """
    x = as_point(x0)
    if np.linalg.norm(x) + i0 >= K:
        raise ValueError(f"need |x0| + i0 < K, got {np.linalg.norm(x) + i0} >= {K}")
    cfg_t = replace(cfg, truncation=K, scheme=FROZEN_RATE)
    return simulate_path(truncated_model(model, K), x, i0, cfg_t,
                         replica=replica, stream=stream)


# --- shared-noise coupling -------------------------------------------------------

def _first_regime_separation(ta: Trajectory, tb: Trajectory) -> float:
    if int(ta.regime[0]) != int(tb.regime[0]):
        return 0.0
    events = sorted({j.time for j in ta.jumps} | {j.time for j in tb.jumps})
    for t in events:
        if ta.regime_at(t) != tb.regime_at(t):
            return float(t)
    return math.inf


def coupled_simulate(model: ModelSpec, start_a, start_b, cfg: SimConfig, *,
                     replica: int = 0,
                     stream: Optional[NoiseStream] = None):
    """Run two paths on the identical noise stream; report the separation time.

    ``start_a`` / ``start_b`` are ``(x0, i0)`` pairs. Both paths read the same
    Brownian increments, the same switching clocks and the same destination
    marks; for identical starts they are therefore bit-identical and the
    regime separation time is infinite.
    """
    stream = stream or NoiseStream(cfg.seed)
    (xa, ia), (xb, ib) = start_a, start_b
    ta = simulate(model, xa, ia, cfg, replica=replica, stream=stream)
    tb = simulate(model, xb, ib, cfg, replica=replica, stream=stream)
    zeta = _first_regime_separation(ta, tb)
    ta.zeta = zeta
    tb.zeta = zeta
    return ta, tb, zeta
