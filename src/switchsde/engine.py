"""Path simulation of (X_t, Lambda_t).

Two schemes, each one batch runner over replica rows that serves both
batches and recorded paths. Rows may differ in start point, start regime and
seed. Both runners switch rows through one step (``_Rows.switch``). In
recording mode a runner logs every row's sample times, positions and regimes
and a table of its switches; ``recorded_path`` turns one row of that log
into a trajectory, and ``simulate_path`` is the one-row view of one run:

* ``frozen_rate`` (``run_frozen``) -- works for state-dependent rates. Per
  step ``[t, t+dt)`` the switching intensity is frozen at the step start; an
  exponential clock decides whether a switch happens inside the step; on a
  switch at ``s`` the position is Euler-advanced to ``s``, the destination is
  drawn by dropping a uniform mark on the current row block of the interval
  layout at the advanced position, and the diffusion restarts with the new
  regime for the step remainder. At most one switch fires per step (residual
  switches slide to the next step; the weak bias is O(dt)); a warning fires
  when ``dt * q_i(x)`` exceeds 0.1.

* ``event_driven_exact`` (``run_event_driven``) -- for state-independent
  rates only. The jump skeleton is simulated first by competing exponentials
  (exact in law), the frozen-regime SDE is integrated on each inter-jump
  segment, and switching times carry no discretization bias. For models
  with ``linear_coeffs`` each segment is an exact Ornstein-Uhlenbeck
  transition (``ou_transition``), so the run has no time-step bias at all;
  it steps on the ``dt`` grid only where a path functional reads it (a
  recorded path, running maxima, a truncation level) and otherwise goes
  from switch to switch, one normal per segment and coordinate.

Every state-independent row is gathered for a whole batch from
``qmatrix.zero_rows`` (built once per rate spec, guarded and certified by
``qmatrix.zero_layout``); a state-dependent row is read at the positions of
a regime group's rows, as one batch (``qmatrix.row_layout``).

Every other step, in either runner, goes through one regime-grouped Euler
kernel over the model callbacks (``euler_step``). Rows are grouped by
``regime_groups``: one sort finds the regimes present, and each regime's rows
are gathered and scattered through their ascending integer indices (a full
slice when every row shares one regime), so each regime's callbacks run once,
on its rows in row order. A runner reports rows whose state turned
non-finite in its ``aborted`` mask; ``recorded_path`` raises
``NumericalBlowupError`` at the row's first logged state that is not finite.

All randomness is counter-addressed per replica (see ``noise``): the same
seed and replica id reproduce a path bit-for-bit regardless of batch size,
thread layout or which other replicas run. Two runs of one replica consume
the same stream, and within one step the draws have fixed purposes (first
sub-increment, clock, mark, post-switch sub-increment), so paths that branch
differently stay aligned on the shared Brownian noise. Since an address is
known before its step runs, ``run_frozen`` draws the clocks and first
sub-increments of a block of steps in one call each, with the same bits as
one call per step.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import (NumericalBlowupError, StiffSwitchingWarning,
                     _check_horizon)
from .models import ModelSpec, apply_diffusion, _row_scalars, _sigma_stack
from .noise import (LANE_EULER, LANE_JUMP, NoiseStream, keyed_exponential,
                    keyed_normal, keyed_uniform)
from .qmatrix import (QMatrixSpec, _radial_cutoff, as_point, row_layout,
                      truncate_q, zero_rows)
from .trajectory import JumpRecord, Trajectory

DEFAULT_SEED = 123456789

FROZEN_RATE = "frozen_rate"
EVENT_DRIVEN = "event_driven_exact"
SCHEMES = (FROZEN_RATE, EVENT_DRIVEN)

# normals per block of steps that ``run_frozen`` draws ahead (256 KB): at n
# rows in dimension d a block holds BLOCK_BUDGET // (n d) steps
BLOCK_BUDGET = 1 << 15


def step_count(T: float, dt: float) -> int:
    """Steps of size ``dt`` covering [0, T] (the last one may be shorter)."""
    return int(math.ceil(T / dt - 1e-12)) if T > 0 else 0


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
        _check_horizon(self.horizon, self.dt)
        K = self.truncation
        if K is not None and not (isinstance(K, numbers.Real)
                                  and math.isfinite(K)):
            raise ValueError(f"truncation must be None or a finite number, "
                             f"got {K!r}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; have {SCHEMES}")
        if self.replicas < 1 or self.threads < 1:
            raise ValueError("replicas and threads must be >= 1")

    def n_steps(self) -> int:
        return step_count(self.horizon, self.dt)


def regime_groups(lam: np.ndarray) -> list:
    """The rows of ``lam`` grouped by regime: ``(regime, rows)`` for each
    regime present, in ascending order.

    ``rows`` is a full slice when every row shares one regime, otherwise the
    ascending row indices ``np.flatnonzero(lam == regime)``, so a gather or
    scatter through it keeps the rows' order. The regimes present come from a
    sort, whose cost follows the row count and never the regime values (the
    regime space may be infinite). Read by the Euler kernel, the
    state-dependent row reads and ``harnack_cost_values``.
    """
    if not len(lam):
        return []
    s = np.sort(lam)
    if s[0] == s[-1]:
        return [(int(s[0]), slice(None))]
    ks = s[np.concatenate(([True], s[1:] != s[:-1]))]
    return [(k, np.flatnonzero(lam == k)) for k in ks.tolist()]


def euler_step(model: ModelSpec, t, X: np.ndarray, lam: np.ndarray, h,
               xi: np.ndarray) -> np.ndarray:
    """Explicit Euler ``X + b h + sigma (sqrt(h) xi)`` for the rows of ``X``
    (m, d) in regimes ``lam`` (m,), from standard normals ``xi`` (m, d).

    ``t`` and ``h`` are scalars or per-row (m,) arrays. The callbacks run once
    per regime present; non-finite results are returned, not raised.
    """
    if np.ndim(h):
        h = h[:, None]
    dw = np.sqrt(h) * xi

    def step(k, t, X, h, dw):
        b = np.asarray(model.drift(t, X, k), dtype=float)
        return X + b * h + apply_diffusion(model.diffusion(t, X, k), dw)

    groups = regime_groups(lam)
    if len(groups) == 1:
        return step(groups[0][0], t, X, h, dw)
    out = np.empty_like(X)
    for k, rows in groups:
        out[rows] = step(k, t[rows] if np.ndim(t) else t, X[rows],
                         h[rows] if np.ndim(h) else h, dw[rows])
    return out


def ou_transition(X: np.ndarray, beta, a, s, h, xi: np.ndarray) -> np.ndarray:
    """Exact transition over ``h`` of ``dX = (a - beta X) dt + s dW`` for the
    rows of ``X`` (m, d), from standard normals ``xi`` (m, d).

    ``beta``, ``a`` and ``s`` are per-row (m,) arrays, ``h`` a scalar or (m,):
    mean ``e^{-beta h} X + a (1 - e^{-beta h}) / beta``, standard deviation
    ``s sqrt((1 - e^{-2 beta h}) / (2 beta))``, and the limits ``a h`` and
    ``s sqrt(h)`` at beta = 0. Any sign of beta and s = 0 are allowed.
    """
    e1 = np.expm1(-beta * h)  # e^{-beta h} - 1
    nz = beta != 0
    mean_f = np.where(nz, -e1 / np.where(nz, beta, 1.0), h)
    # (1 - e^{-2 beta h}) / (2 beta) = mean_f (1 + e1 / 2), also at beta = 0
    var_f = mean_f * (1.0 + 0.5 * e1)
    return ((1.0 + e1)[:, None] * X + (a * mean_f)[:, None]
            + (s * np.sqrt(var_f))[:, None] * xi)


def _start_regimes(q: QMatrixSpec, i0, n: int) -> np.ndarray:
    """``i0`` (one regime, or one per row) as ``n`` start regimes; a
    ValueError names a start that is not an integer or lies outside ``q``."""
    given = np.asarray(i0)
    if given.ndim and given.shape != (n,):
        raise ValueError(f"i0 shape {given.shape} incompatible with "
                         f"{n} replicas")
    bad = given[~(np.isfinite(given) & (given == np.round(given)))]
    if bad.size:
        raise ValueError(f"start regime {bad[0]} is not an integer")
    outside = given[(given < 1) | (given > (q.n_regimes or np.inf))]
    if outside.size:
        space = "1, 2, ..." if q.n_regimes is None else f"1..{q.n_regimes}"
        raise ValueError(f"start regime {int(outside.min())} is outside the "
                         f"regime space {{{space}}}")
    return np.broadcast_to(given, (n,)).astype(np.int64)


class _Rows:
    """Per-row state of a batch run, shared by both runners: positions,
    regimes, first-switch times, running regime and norm maxima, truncation
    exit times and, in recording mode, every row's path log and switches.
    ``switch`` is the one place where a row changes regime."""

    def __init__(self, model: ModelSpec, x0, i0, replicas,
                 trunc_level: Optional[float], track_xmax: bool, record: bool):
        self.replicas = np.asarray(replicas, dtype=np.uint64)
        n, d = len(self.replicas), model.dim
        x0 = np.asarray(x0, dtype=float)
        self.X = np.tile(x0, (n, 1)) if x0.ndim == 1 else x0.copy()
        if self.X.shape != (n, d):
            raise ValueError(f"x0 shape {x0.shape} incompatible with "
                             f"{n} replicas in dimension {d}")
        if (bad := self.X[~np.isfinite(self.X).all(axis=1)]).size:
            raise ValueError(f"start point {bad[0].tolist()} is not finite")
        self.lam = _start_regimes(model.q, i0, n)
        self.eta = np.full(n, np.inf)
        self.lam_max = self.lam.astype(float)
        self.trunc_level = trunc_level
        self.track_xmax = track_xmax
        self.xmax = np.zeros(n) if track_xmax else None
        self.tau = np.full(n, np.inf)
        self.recording = record
        self._ids = np.arange(n)
        # chunks of (row, t, x, regime) and of (row, t, src, dst, mark)
        self._log: list[tuple] = []
        self._switches = [(self._ids[:0], np.empty(0), self.lam[:0],
                           self.lam[:0], np.empty(0))]
        self.observe(self._ids, 0.0)
        self.log(self._ids, 0.0)

    def log(self, idx, t) -> None:
        """Log rows ``idx`` at times ``t`` with their current positions and
        regimes (recording mode only)."""
        if self.recording:
            rows = self._ids[idx]
            self._log.append((rows, t if np.ndim(t) else np.full(len(rows), t),
                              self.X[rows], self.lam[rows]))

    def observe(self, idx, t) -> None:
        """Fold the states of rows ``idx`` at times ``t`` into the running
        norm maxima and the truncation exit times."""
        if not self.track_xmax and self.trunc_level is None:
            return
        X = self.X[idx]
        xn = np.sqrt(np.add.reduce(X * X, axis=1))  # np.linalg.norm's sum
        if self.track_xmax:
            self.xmax[idx] = np.maximum(self.xmax[idx], xn)
        if self.trunc_level is not None:
            over = xn + self.lam[idx] > self.trunc_level
            if over.any():
                tau = self.tau[idx]
                crossed = np.isinf(tau) & over
                tau[crossed] = t[crossed] if np.ndim(t) else t
                self.tau[idx] = tau

    def switch(self, idx, t, new, marks) -> None:
        """The one switch step: rows ``idx`` switch at times ``t`` to regimes
        ``new`` at absolute marks ``marks``. Rows that move enter the switch
        table (recording mode) and a row's first move sets its ``eta``; then
        every row takes its new regime and is observed and logged at ``t``.
        A switch that leaves the regime unchanged (a frozen-rate clock that
        fires where the row is empty) is so logged, but never tabled."""
        src = self.lam[idx]
        mv = new != src
        if self.recording:
            self._switches.append((self._ids[idx][mv], t[mv], src[mv],
                                   new[mv], marks[mv]))
        eta = self.eta[idx]
        self.eta[idx] = np.where(np.isinf(eta) & mv, t, eta)
        self.lam[idx] = new
        self.lam_max[idx] = np.maximum(self.lam_max[idx], new)
        self.observe(idx, t)
        self.log(idx, t)

    def result(self) -> dict:
        aborted = ~np.all(np.isfinite(self.X), axis=1)
        out = {"x": self.X, "regime": self.lam, "eta": self.eta,
               "regime_max": self.lam_max, "tau_k": self.tau,
               "aborted": aborted}
        if self.track_xmax:
            out["xnorm_max"] = self.xmax
            out["aborted"] = aborted | ~np.isfinite(self.xmax)
        if self.recording:
            out["log"] = _by_row(self._log, ("row", "t", "x", "regime"))
            out["switches"] = _by_row(self._switches,
                                      ("row", "t", "src", "dst", "mark"))
        return out


def _by_row(chunks, names) -> dict:
    """Logged chunks as named columns grouped by row; the sort is stable, so
    each row's entries keep the order they were logged in (time order)."""
    cols = [np.concatenate(col) for col in zip(*chunks)]
    order = np.argsort(cols[0], kind="stable")
    return {name: col[order] for name, col in zip(names, cols)}


def recorded_path(out: dict, row: int = 0, seed: int = 0) -> Trajectory:
    """Row ``row`` of a recorded run's output (``record=True``) as a
    trajectory. A row whose state turned non-finite raises
    ``NumericalBlowupError`` at its first logged state that is not finite."""
    log, sw = out["log"], out["switches"]
    lo, hi = np.searchsorted(log["row"], (row, row + 1))
    times, x, regime = log["t"][lo:hi], log["x"][lo:hi], log["regime"][lo:hi]
    dead = ~np.isfinite(x).all(axis=1)
    if dead.any():
        k = int(dead.argmax())
        raise NumericalBlowupError(times[k], x[k], regime[k])
    lo, hi = np.searchsorted(sw["row"], (row, row + 1))
    jumps = [JumpRecord(*rec) for rec in zip(
        *(sw[name][lo:hi].tolist() for name in ("t", "src", "dst", "mark")))]
    return Trajectory(times=times, x=x, regime=regime, jumps=jumps,
                      eta=float(out["eta"][row]),
                      tau_k=float(out["tau_k"][row]), seed=seed)


# --- rows of the interval layout -------------------------------------------------

def _switch_targets(q: QMatrixSpec, lam, U, X=None):
    """Each row's ``RowLayout.destination`` and ``mark`` of uniforms ``U``
    in regimes ``lam``: gathered from ``zero_rows`` when the rates ignore x
    or no positions ``X`` are given (the skeletons, which so refuse
    state-dependent rates), else per regime group at ``X``."""
    if X is None or q.state_independent:
        table, totals = zero_rows(q, lam)
        _, start, right, dests = table.cols
        v = U * totals
        at = lam * dests.shape[1] + sum(col[lam] <= v for col in right)
        return dests.ravel()[at], start[lam] + v
    new, marks = np.empty_like(lam), np.empty(len(lam))
    for k, rows in regime_groups(lam):
        lay = row_layout(q, X[rows], k)
        new[rows], marks[rows] = lay.destination(U[rows]), lay.mark(U[rows])
    return new, marks


def _regime_totals(q: QMatrixSpec, lam, X=None):
    """Row sums ``q_k`` per replica in regime ``lam``, read as in
    ``_switch_targets`` but at ``X`` from row ``k`` alone (``total_rate``)."""
    if X is None or q.state_independent:
        return zero_rows(q, lam)[1]
    out = np.empty(len(lam))
    for k, rows in regime_groups(lam):
        out[rows] = q.total_rate(X[rows], k)
    return out


def _holding_times(E, totals):
    """Clocks ``E / q_i`` per row; inf where the row sum vanishes."""
    if totals.all():
        return E / totals
    return np.divide(E, totals, out=np.full(len(E), np.inf), where=totals > 0)


def _skeleton_switch(q: QMatrixSpec, keys, jump_ctr, lam, idx):
    """Switch rows ``idx`` of an exact skeleton out of regimes ``lam[idx]``.

    The mark's uniform sits on ``LANE_JUMP`` at the row's jump counter and the
    next clock's exponential at counter + 1; the counters advance by 2.
    Returns the destinations, the next holding times and the absolute marks.
    """
    kk, ctr = keys[idx], jump_ctr[idx]
    U = keyed_uniform(kk, LANE_JUMP, ctr)
    E = keyed_exponential(kk, LANE_JUMP, ctr + np.uint64(1))
    jump_ctr[idx] = ctr + np.uint64(2)
    new, marks = _switch_targets(q, lam[idx], U)
    return new, _holding_times(E, _regime_totals(q, new)), marks


def _first_clock(q: QMatrixSpec, lam, keys: np.ndarray) -> np.ndarray:
    """First switching times ``E_0 / q_lam`` (jump-lane index 0) of the
    replica ``keys`` in regimes ``lam``, already read by ``_start_regimes``:
    the first clock of ``run_chain`` and ``run_event_driven``."""
    return _holding_times(keyed_exponential(keys, LANE_JUMP, np.uint64(0)),
                          _regime_totals(q, lam))


def first_switch_times(q: QMatrixSpec, i0, keys: np.ndarray) -> np.ndarray:
    """First switching times of the replica ``keys`` started in ``i0`` (one
    regime, or one per key) under state-independent rates: ``_first_clock``
    of the regimes ``_start_regimes`` reads."""
    return _first_clock(q, _start_regimes(q, i0, len(keys)), keys)


def run_chain(q: QMatrixSpec, i0, T: float, stream: NoiseStream,
              replicas: np.ndarray, t_marks=()) -> dict:
    """Vectorized skeleton-only simulation of a state-independent chain
    started in ``i0`` (one regime, or one per replica).

    Returns the regimes at ``T`` and, per mark time (ascending, clamped to
    ``T``), the regime once the skeleton has run up to it (a switch at the
    mark counts). Switches go through ``_skeleton_switch`` as in the full
    runner, so the skeletons agree bit-for-bit; passes draw for switching rows.
    """
    _check_horizon(T)
    n = len(replicas)
    keys = stream.replica_keys(replicas)
    lam = _start_regimes(q, i0, n)
    jump_ctr = np.ones(n, dtype=np.uint64)
    stops = [min(float(tm), T) for tm in t_marks] + [T]
    if any(map(math.isnan, stops)):
        raise ValueError(f"mark times must be numbers, got {list(t_marks)}")
    lam_at = np.empty((len(stops), n), dtype=np.int64)
    nxt = _first_clock(q, lam, keys)
    for mi in sorted(range(len(stops)), key=stops.__getitem__):
        while (jr := np.flatnonzero(nxt <= stops[mi])).size:
            new, hold, _ = _skeleton_switch(q, keys, jump_ctr, lam, jr)
            lam[jr] = new
            nxt[jr] += hold
        lam_at[mi] = lam
    return {"regime": lam, "regime_at": lam_at[:-1]}


# --- batch runners ---------------------------------------------------------------

def run_event_driven(model: ModelSpec, x0, i0, T: float, dt: float,
                     stream: NoiseStream, replicas: np.ndarray, *,
                     trunc_level: Optional[float] = None,
                     track_xmax: bool = False, record: bool = False) -> dict:
    """Batch simulation under the exact jump skeleton.

    ``x0`` may be a single point (shared start) or an ``(n, d)`` array of
    per-replica starts, and ``i0`` one regime or an ``(n,)`` array; with a
    stream of per-row seeds (see ``NoiseStream``) every row may have its own
    seed. Duplicated replica ids of one seed give common random numbers
    across the duplicated rows. Non-finite states are not raised here: the
    replica's state turns NaN, keeps consuming its own draws untouched, and
    is reported in the ``aborted`` mask.

    With ``record`` the output also holds every row's path: ``log`` has the
    columns ``row, t, x, regime`` (each sample time; the regime is the
    post-switch one at a switch) and ``switches`` the columns ``row, t, src,
    dst, mark``, both grouped by row in time order; ``recorded_path`` turns
    one row into a trajectory.

    Segment normals sit on ``LANE_EULER`` at each row's substep counter
    (times ``d``, plus the coordinate); rows on one skeleton therefore share
    every draw, whether they step on the ``dt`` grid or switch to switch.
    Each grid step's first advance starts every row at the grid time, so
    the callbacks get that scalar ``t`` there and per-row times after it.

    A row is observed (running maxima, ``tau_k``) at the end of each advance,
    so a switching row is observed at its switch time in the old regime,
    which its log does not hold, and again in the new one. ``run_frozen``
    observes a switching row only in its new regime.
    """
    _check_horizon(T, dt)
    q, d = model.q, model.dim
    rows = _Rows(model, x0, i0, replicas, trunc_level, track_xmax, record)
    X, lam = rows.X, rows.lam
    n = len(lam)
    keys = stream.replica_keys(rows.replicas)
    lincoef = model.linear_coeffs
    sub_ctr = np.zeros(n, dtype=np.uint64)
    jump_ctr = np.ones(n, dtype=np.uint64)
    next_jump = _first_clock(q, lam, keys)

    comps = np.arange(d, dtype=np.uint64)
    ud = np.uint64(d)
    seg = np.zeros(n)

    if lincoef is not None:
        # regime-wise coefficients cached full-width; jumps refresh their rows
        co_beta, co_a, co_s = (np.array(v, dtype=float, copy=True)
                               for v in lincoef(lam))
    # an exact linear transition needs no grid unless a path functional reads it
    grid = (T if lincoef is not None and not (record or track_xmax)
            and trunc_level is None else dt)

    def _advance(idx, t_of, h):
        """Advance rows ``idx`` (index array or full slice) by ``h``."""
        kk = keys[idx]
        ctr = sub_ctr[idx]
        xi = keyed_normal(kk[:, None], LANE_EULER, ctr[:, None] * ud + comps)
        if lincoef is None:
            X[idx] = euler_step(model, t_of, X[idx], lam[idx], h, xi)
        else:
            X[idx] = ou_transition(X[idx], co_beta[idx], co_a[idx], co_s[idx],
                                   h, xi)
        sub_ctr[idx] = ctr + np.uint64(1)

    full = slice(None)
    for g in range(step_count(T, grid)):
        t0 = g * grid
        t1 = min(T, (g + 1) * grid)
        seg.fill(t0)
        first = True  # every row sits at t0 until the step's first advance
        while True:
            adv = np.minimum(next_jump, t1)
            h = adv - seg
            sel = np.flatnonzero(h > 0)
            if sel.size:
                act = full if sel.size == n else sel
                _advance(act, t0 if first else seg[act], h[act])
                seg[act] = adv[act]
                rows.observe(act, adv[act])
                if record:
                    # a row switching at this exact time logs at its switch
                    lg = sel[seg[sel] != next_jump[sel]]
                    rows.log(lg, seg[lg])
            first = False
            # seg is finite, so seg == next_jump can only fire at finite jumps
            jidx = np.flatnonzero(seg == next_jump)
            if not jidx.size:
                break  # every replica reached t1 without a pending switch
            new_j, hold, marks = _skeleton_switch(q, keys, jump_ctr, lam, jidx)
            rows.switch(jidx, seg[jidx], new_j, marks)
            if lincoef is not None:
                co_beta[jidx], co_a[jidx], co_s[jidx] = lincoef(new_j)
            next_jump[jidx] = seg[jidx] + hold
    return rows.result()


def run_frozen(model: ModelSpec, x0, i0, T: float, dt: float,
               stream: NoiseStream, replicas: np.ndarray, *,
               trunc_level: Optional[float] = None,
               track_xmax: bool = False, record: bool = False) -> dict:
    """Batch simulation under the frozen-rate scheme (state-dependent rates
    allowed); arguments and outputs, the recording mode's ``log`` and
    ``switches`` included, as for ``run_event_driven``. A row is logged at
    each step's end, at its switch (``_Rows.switch``) and where it died.

    Step ``g`` reads its clock at jump index ``2g``, its mark at ``2g + 1``
    and its Euler draws at ``2dg + c`` before a switch and ``2dg + d + c``
    after it. State-dependent rates are read once per regime group.
    A row whose state turns non-finite stops where it died and is reported
    in the ``aborted`` mask.

    Every row needs a clock and a first sub-increment at every step, so
    these are drawn for all rows in blocks of ``B = BLOCK_BUDGET // (n d)``
    steps (at least 1, at most the horizon): one ``(B, n)`` array of clocks
    and one ``(B, n, d)`` array of normals per block, at the addresses
    above, so a block changes no bit. The layout is step-major, so a step
    reads one contiguous ``(n, d)`` slab rather than a strided column of a
    row-major block. The budget bounds a block at a few hundred KB; past it
    (n d > BLOCK_BUDGET) a block is one step. The mark and the post-switch
    draws stay per step, drawn only for the rows that switch.
    """
    _check_horizon(T, dt)
    q, d = model.q, model.dim
    rows = _Rows(model, x0, i0, replicas, trunc_level, track_xmax, record)
    X, lam = rows.X, rows.lam
    keys = stream.replica_keys(rows.replicas)
    comps = np.arange(d, dtype=np.uint64)
    n = len(lam)
    live = np.arange(n)
    warned = False
    G = step_count(T, dt)
    B = max(1, min(G, BLOCK_BUDGET // max(1, n * d)))
    for g in range(G):
        t0 = g * dt
        t1 = min(T, t0 + dt)
        h = t1 - t0
        if h <= 0 or not live.size:
            break
        if g % B == 0:
            # clocks (B, n) and pre-switch normals (B, n, d) of steps g..g+B-1
            gs = np.arange(g, min(g + B, G), dtype=np.uint64)[:, None]
            EB = keyed_exponential(keys, LANE_JUMP, 2 * gs)
            XB = keyed_normal(keys[:, None], LANE_EULER,
                              (2 * d * gs)[:, :, None] + comps)
        at = slice(None) if live.size == n else live  # views until a row dies
        lv = lam[at]
        qi = _regime_totals(q, lv, X[at])
        if not warned and qi.max() * h > 0.1:
            warnings.warn(
                f"dt * q_i(x) = {qi.max() * h:.3f} > 0.1 at t={t0:.4g}; "
                "switching is under-resolved, reduce dt", StiffSwitchingWarning)
            warned = True
        s_rel = _holding_times(EB[g % B][at], qi)
        sw = s_rel < h
        X[at] = euler_step(model, t0, X[at], lv, np.where(sw, s_rel, h),
                           XB[g % B][at])
        ok = np.isfinite(X[at]).all(axis=1)
        jumped = ok & sw
        if record:
            # the step's end, or where the row died; a switching row is
            # logged at its switch below
            stay = ~jumped
            rows.log(live[stay], np.where(sw, t0 + s_rel, t1)[stay])
        jr = live[jumped]
        if jr.size:
            s = t0 + s_rel[jumped]
            U = keyed_uniform(keys[jr], LANE_JUMP, np.uint64(2 * g + 1))
            rows.switch(jr, s, *_switch_targets(q, lam[jr], U, X[jr]))
            xi = keyed_normal(keys[jr][:, None], LANE_EULER,
                              np.uint64(2 * d * g + d) + comps)
            X[jr] = euler_step(model, s, X[jr], lam[jr], t1 - s, xi)
            ok[jumped] = np.isfinite(X[jr]).all(axis=1)
            rows.log(jr, t1)
        if not ok.all():
            live = live[ok]
        rows.observe(slice(None) if live.size == n else live, t1)
    return rows.result()


# --- trajectory-level operations ----------------------------------------------

def simulate_path(model: ModelSpec, x0, i0: int, cfg: SimConfig, *,
                  replica: int = 0) -> Trajectory:
    """One recorded path: the one-row view (``recorded_path``) of replica
    ``replica`` of the stream of seed ``cfg.seed`` through the runner of
    ``cfg.scheme`` in recording mode."""
    runner = run_event_driven if cfg.scheme == EVENT_DRIVEN else run_frozen
    out = runner(model, as_point(x0), i0, cfg.horizon, cfg.dt,
                 NoiseStream(cfg.seed), np.array([replica], dtype=np.uint64),
                 trunc_level=cfg.truncation, record=True)
    return recorded_path(out, 0, seed=cfg.seed)


# --- truncation ----------------------------------------------------------------

def truncated_model(model: ModelSpec, K: int) -> ModelSpec:
    """``model`` with its coefficients scaled by the smooth radial cutoff
    (``qmatrix._radial_cutoff``), its rates folded onto {1, ..., K + kappa +
    1} under the same cutoff by ``truncate_q``, whose integer level names it,
    and no ``linear_coeffs``; every other field is kept.

    The squared-diffusion table scales linearly with the cutoff, so the
    diffusion coefficient itself picks up the cutoff's square root. Regimes
    beyond a finite base space reuse the top base regime's coefficients
    (those states are only reachable through the boundary row).
    """
    qK = truncate_q(model.q, K)
    K, base_n = int(K), model.q.n_regimes

    def clamp(i: int) -> int:
        return min(i, base_n) if base_n is not None else i

    def driftK(t, x, i):
        x = np.asarray(x, dtype=float)
        b = np.asarray(model.drift(t, x, clamp(i)), dtype=float)
        return b * np.asarray(_radial_cutoff(x, K))[..., None]

    def diffusionK(t, x, i):
        x = np.asarray(x, dtype=float)
        sig = np.asarray(model.diffusion(t, x, clamp(i)), dtype=float)
        root = np.sqrt(_radial_cutoff(x, K))
        if x.ndim == 1 or sig.ndim == 0:
            return sig * root  # a scalar base gives one scalar per row
        if sig.ndim == 1:
            return _row_scalars(sig, len(x)) * root
        return _sigma_stack(sig, x.shape[0], model.dim) * root[:, None, None]

    return replace(model, drift=driftK, diffusion=diffusionK, q=qK,
                   linear_coeffs=None, model_id=f"{model.model_id}|trunc{K}")


def check_truncation_start(x0, i0, K) -> None:
    """A ValueError unless every start lies below its truncation level,
    ``|x0| + i0 < K``; ``x0`` is a point or ``(n, d)``, ``i0`` and ``K``
    numbers or ``(n,)`` arrays."""
    level = np.linalg.norm(np.atleast_2d(x0), axis=1) + i0
    over = np.flatnonzero(~(level < K))  # a NaN start is over too
    if over.size:
        k = over[0]
        got = (f"{level[k]} >= {np.broadcast_to(K, level.shape)[k]}"
               if np.isfinite(level[k])
               else f"a start level {level[k]} that is not finite")
        raise ValueError(f"need |x0| + i0 < K, got {got}")


def simulate_truncated(model: ModelSpec, x0, i0: int, K: int, cfg: SimConfig, *,
                       replica: int = 0) -> Trajectory:
    """Frozen-rate simulation of the K-truncated process.

    Shares the untruncated run's draw addressing, so at the same seed and
    replica the two paths coincide exactly until the first sampled time with
    ``|X_t| + Lambda_t > K``.
    """
    x = as_point(x0)
    check_truncation_start(x, i0, K)
    cfg_t = replace(cfg, truncation=K, scheme=FROZEN_RATE)
    return simulate_path(truncated_model(model, K), x, i0, cfg_t,
                         replica=replica)
