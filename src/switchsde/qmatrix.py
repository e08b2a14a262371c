"""State-dependent rate matrices and their interval layout.

A switching process with rates ``q_ij(x)`` can be driven by a Poisson random
measure once the rates are laid out as disjoint half-open intervals on the
positive half line: row 1's intervals first (destinations in increasing
order, skipping the diagonal), then row 2's starting at ``q_1(x)``, and so
on; the block for row ``i`` starts at ``sum_{k<i} q_k(x)`` and the entry for
``(i, j)`` has length ``q_ij(x)``. A uniform mark ``z`` landing in the
``(i, j)`` interval moves the regime by ``j - i``; anywhere else it does
nothing.

``row_layout`` builds one row's block (``RowLayout``) and is the only coding
of this layout: both simulation schemes draw destinations and marks from it,
and the exact L^p distance between jump kernels sweeps its endpoints.

``zero_layout`` builds each state-independent row at x = 0 once per spec
into the spec's ``ZeroRows``, which packs the rows by regime for gathers
(``zero_rows``) and dies with the spec. Nothing is cached at module level;
a state-dependent layout is built at one point or a batch of points,
reading the rows below it with its own as one table.

The whole module assumes a band structure: jumps move the regime by at most
``kappa``, so every row has finitely many nonzero entries and the (possibly
countably infinite) regime space is never enumerated.
"""

from __future__ import annotations

import functools
import math
import numbers
import threading
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import InvalidModelError, UnsupportedSchemeError

Point = np.ndarray


def as_point(x) -> Point:
    """Coerce scalars / sequences to a 1-d float point."""
    p = np.atleast_1d(np.asarray(x, dtype=float))
    if p.ndim != 1:
        raise ValueError(f"a point must be one-dimensional, got shape {p.shape}")
    return p


@dataclass(frozen=True)
class QMatrixSpec:
    """A conservative rate matrix given by a callback, plus its certificates.

    ``rate(x, i, j)`` returns the switching rate from regime ``i`` to ``j``
    (``i != j``, both >= 1) at position ``x``. The remaining fields are
    metadata the caller certifies about the callback:

    * ``kappa``: band width; ``rate(x, i, j) == 0`` whenever ``|j - i| > kappa``.
    * ``lipschitz_cq``: every single rate is Lipschitz in ``x`` with this
      constant.
    * ``linear_bound_alpha`` / ``linear_bound_beta``: the row sums satisfy
      ``q_i(x) <= alpha * i + beta * |x|``.
    * ``state_independent``: the callback ignores ``x`` entirely.
    * ``n_regimes``: size of the regime space, or ``None`` for countably
      infinite.

    The certificates are not trusted blindly; ``models.check_assumptions``
    probes them by sampling.
    """

    rate: Callable[[Point, int, int], float]
    kappa: int
    lipschitz_cq: float = 0.0
    linear_bound_alpha: float = 0.0
    linear_bound_beta: float = 0.0
    state_independent: bool = False
    n_regimes: Optional[int] = None

    def __post_init__(self):
        k, n = self.kappa, self.n_regimes
        if not (isinstance(k, numbers.Integral) and k >= 1):
            raise ValueError(f"kappa must be a positive integer, got {k!r}")
        if n is not None and not (isinstance(n, numbers.Integral) and n >= 1):
            raise ValueError(f"n_regimes must be None or a positive integer, "
                             f"got {n!r}")

    def band(self, i: int) -> list[int]:
        """Destinations reachable from ``i``: within the band, >= 1, in range."""
        hi = i + self.kappa
        if self.n_regimes is not None:
            hi = min(hi, self.n_regimes)
        return [j for j in range(max(1, i - self.kappa), hi + 1) if j != i]

    def row(self, x, i):
        """Destinations (ascending) and rates of row ``i`` at a point ``x``
        ``(d,)`` or a batch ``(m, d)``: rates ``(n,)`` or ``(m, n)``. Regimes
        ``i = [i_1, ..., i_k]`` give a destination list each and one table
        ``(k, w)`` or ``(m, k, w)``, rows padded with zero rates to ``w >= 1``.
        The only reader of the rate callback: the first negative or non-finite
        rate (by point, regime, destination) raises ``InvalidModelError``."""
        x = np.asarray(x, dtype=float)
        pts = np.atleast_2d(x)
        single = isinstance(i, (int, np.integer))
        regs = [i] if single else list(i)
        js = [self.band(k) for k in regs]
        w = max(1, *map(len, js))
        cells = [(k, j) for k, b in zip(regs, js) for j in b + [0] * (w - len(b))]
        rate = self.rate  # padding cells (j = 0) call no callback
        flat = np.array([float(rate(p, k, j)) if j else 0.0
                         for p in pts for k, j in cells])
        if not (flat.min() >= 0.0 and flat.max() < math.inf):  # NaN fails too
            bad = int(((flat >= 0.0) & (flat < math.inf)).argmin())
            kind = "negative" if math.isfinite(flat[bad]) else "non-finite"
            k, j = cells[bad % len(cells)]
            raise InvalidModelError(
                f"{kind} rate at (x={pts[bad // len(cells)]}, i={k}, j={j})")
        table = flat.reshape(len(pts), len(regs), w)
        if single:
            js, table = js[0], table[:, 0, :len(js[0])]
        return js, (table[0] if x.ndim < 2 else table)

    def total_rate(self, x, i: int):
        """Row sum ``q_i(x)``, the last running sum of the row's rates (so
        they add in ascending ``j``): a float, or ``(m,)`` for a batch."""
        _, table = self.row(x, [i])  # one row, at least one wide
        return np.cumsum(table, axis=-1)[..., 0, -1]

    @functools.cached_property
    def _zero_rows(self) -> list:
        """One slot holding the spec's ``ZeroRows``, filled by ``zero_layout``."""
        return [ZeroRows({})]

    @functools.cached_property
    def _oracles(self) -> dict:
        """Time t -> ``exp(t Q)``, kept by ``chain_marginal_check``: its solve
        wakes the BLAS thread pool, which can stall for milliseconds a call."""
        return {}


@dataclass(frozen=True)
class RowLayout:
    """Row ``i``'s block of the interval layout at one point ``x``.

    ``dests`` are the band's destinations in ascending order and ``rates``
    their rates. ``right`` holds the cumulative right endpoints relative to
    the block start (running sums of ``rates``, so a zero rate gives an empty
    interval); ``edges`` holds the absolute endpoints ``start, start + r_1,
    (start + r_1) + r_2, ...`` accumulated from the block start. The block
    covers ``[start, start + total)`` with ``total = q_i(x)`` summed in the
    same order as ``QMatrixSpec.total_rate``. At ``m`` points every field but
    ``i`` and ``dests`` gains a leading axis of length ``m``.
    """

    i: int
    dests: np.ndarray
    rates: np.ndarray
    right: np.ndarray
    edges: np.ndarray
    start: float
    total: float

    def destination(self, u):
        """Destinations for uniforms ``u`` in [0, 1).

        The relative mark ``u * total`` picks the first entry whose right
        endpoint exceeds it; an empty row leaves the regime at ``i``.
        """
        v = np.asarray(u, dtype=float) * self.total
        if not len(self.dests):
            return np.full(v.shape, self.i, dtype=np.int64)
        # the count of running sums <= v (the last entry needs no test)
        k = np.zeros(v.shape, dtype=np.intp)
        for c in range(len(self.dests) - 1):
            k += self.right[..., c] <= v
        return np.where(self.total > 0.0, self.dests[k], self.i)

    def mark(self, u):
        """Absolute mark of uniform ``u``: a uniform point of the block."""
        return self.start + u * self.total

    def displacement(self, z):
        """``j - i`` where the absolute mark ``z`` lands in the ``(i, j)``
        interval, 0 elsewhere (other rows' blocks, or outside the layout)."""
        # k = -1 (left of the block) and k = len(dests) (right of it) both
        # index the trailing 0
        moves = np.append(self.dests - self.i, 0)
        return moves[np.searchsorted(self.edges, z, side="right") - 1]

    def endpoints(self) -> np.ndarray:
        """Absolute endpoints of the nonempty-rate intervals, ascending."""
        pos = self.rates > 0.0
        return np.union1d(self.edges[:-1][pos], self.edges[1:][pos])


def row_layout(q: QMatrixSpec, x, i: int) -> RowLayout:
    """Lay out row ``i`` of ``q`` at one point ``x`` or a batch ``(m, d)``.
    Rows 1..i are read as one table; the block start adds the row sums
    below ``i`` one by one in ascending order."""
    js, table = q.row(x, range(1, i + 1))
    run = np.cumsum(table, axis=-1)
    sums = run[..., -1]
    start = (np.cumsum(sums[..., :-1], axis=-1)[..., -1] if i > 1
             else np.zeros_like(sums[..., 0]))[()]
    if not np.isfinite(start).all():
        at = x if np.ndim(start) == 0 else x[np.isfinite(start).argmin()]
        raise InvalidModelError(f"unbounded row sums below i={i} at x={at}")
    rates = table[..., -1, :len(js[-1])]
    edges = np.cumsum(np.concatenate((start[..., None], rates), axis=-1), axis=-1)
    return RowLayout(i=i, dests=np.asarray(js[-1], dtype=np.int64), rates=rates,
                     right=run[..., -1, :len(js[-1])], edges=edges,
                     start=start, total=sums[..., -1])


@dataclass(frozen=True)
class ZeroRows:
    """Regime -> ``RowLayout`` built by ``zero_layout``, which swaps in a copy."""

    layouts: dict

    @functools.cached_property
    def cols(self) -> tuple:
        """Read-only ``(total, start, right, dests)`` by regime ``k``: row sum
        (NaN if unbuilt), block start, relative right endpoints ``right[c, k]``
        for ``c < len(dests) - 1`` (+inf beyond), dests (all ``k`` if q_k = 0)."""
        cap = max(self.layouts, default=0) + 1
        w = max([1] + [len(b.dests) for b in self.layouts.values()])
        total, start = np.full(cap, np.nan), np.full(cap, np.nan)
        right, dests = np.full((w - 1, cap), np.inf), np.zeros((cap, w), np.int64)
        for b in self.layouts.values():
            total[b.i], start[b.i], dests[b.i] = b.total, b.start, b.i
            if b.total > 0.0:
                right[:len(b.dests) - 1, b.i] = b.right[:-1]
                dests[b.i, :len(b.dests)] = b.dests
        for a in (total, start, right, dests):
            a.flags.writeable = False
        return total, start, right, dests


_FILL = threading.Lock()  # one build per row when batch threads share a spec


def zero_layout(q: QMatrixSpec, k: int) -> RowLayout:
    """Row ``k``'s block of a state-independent spec at x = 0, built once per
    spec and regime into its ``ZeroRows``; every caller shares its arrays.

    Raises ``UnsupportedSchemeError`` when the rates may depend on ``x``. On
    an infinite regime space a row sum above the certificate ``alpha * k``
    raises ``InvalidModelError``: only the linear growth it certifies rules
    out explosion, so a chain that breaks it could switch without end.
    """
    if not q.state_independent:
        raise UnsupportedSchemeError(
            "this needs state-independent rates (rates that ignore x)")
    slot = q._zero_rows
    with _FILL:
        if k not in slot[0].layouts:
            lay = row_layout(q, np.zeros(1), k)
            bound = q.linear_bound_alpha * k
            if q.n_regimes is None and not lay.total <= bound + 1e-9:
                raise InvalidModelError(
                    f"row sum q_{k} = {lay.total:.6g} exceeds the "
                    f"certificate alpha*k = {bound:.6g} at regime k = {k}; "
                    "the chain may explode")
            for a in (lay.dests, lay.rates, lay.right, lay.edges):
                a.flags.writeable = False
            slot[0] = ZeroRows({**slot[0].layouts, k: lay})
        return slot[0].layouts[k]


def zero_rows(q: QMatrixSpec, lam) -> ZeroRows:
    """The spec's ``ZeroRows``, missing rows of ``lam`` built in ascending order."""
    total = q._zero_rows[0].cols[0]
    if len(lam) and (lam.max() >= len(total) or np.isnan(total[lam]).any()):
        for k in np.unique(lam).tolist():
            zero_layout(q, k)
    return q._zero_rows[0]


def displacement_lp_distance(q: QMatrixSpec, x, y, i: int, p: float) -> float:
    """Exact L^p distance between the jump kernels of row ``i`` at x and y.

    Computes ``integral |d_x(z) - d_y(z)|^p dz`` where ``d_x(z)`` is the
    displacement triggered by mark ``z`` at position ``x``. The integrand is
    piecewise constant with breakpoints at the interval endpoints of both
    layouts, so the integral is a finite sum over the merged endpoint list --
    no quadrature, exact up to float rounding.
    """
    if p <= 0:
        raise ValueError("p must be positive")
    lx, ly = row_layout(q, x, i), row_layout(q, y, i)
    pts = np.union1d(lx.endpoints(), ly.endpoints())
    a, b = pts[:-1], pts[1:]
    mid = 0.5 * (a + b)
    d = lx.displacement(mid) - ly.displacement(mid)
    terms = (np.abs(d) ** p * (b - a))[d != 0]
    return float(np.cumsum(terms)[-1]) if terms.size else 0.0  # summed in order


def displacement_lp_bound(q: QMatrixSpec, i: int, p: float, dist: float) -> float:
    """Lipschitz envelope for ``displacement_lp_distance``.

    ``2 * kappa^(p+1) * (kappa + 2 i) * c_q * dist`` -- the band-and-layout
    bound on how far the row-``i`` jump kernel can move when the base point
    moves by ``dist``.
    """
    kappa = q.kappa
    return 2.0 * kappa ** (p + 1) * (kappa + 2 * i) * q.lipschitz_cq * dist


# --- smooth radial cutoff -------------------------------------------------

def _smooth_step_raw(u):
    with np.errstate(divide="ignore", over="ignore"):
        return np.where(u > 0.0, np.exp(-1.0 / np.maximum(u, 1e-300)), 0.0)


def smooth_cutoff(r, lo: float):
    """C-infinity monotone cutoff: 1 for ``r <= lo``, 0 for ``r >= lo + 1``.

    The transition on ``[lo, lo+1]`` is the standard mollified step
    ``f(1-s) / (f(s) + f(1-s))`` with ``f(u) = exp(-1/u)``.
    """
    r = np.asarray(r, dtype=float)
    if (r <= lo).all():
        return np.ones(r.shape) if r.ndim else 1.0  # a / (a + 0), exactly
    s = np.clip(r - lo, 0.0, 1.0)
    a = _smooth_step_raw(1.0 - s)
    b = _smooth_step_raw(s)
    out = a / (a + b)
    return out if out.ndim else float(out)


def _cutoff_slope_bound() -> float:
    # max |d/dr smooth_cutoff| on the unit transition, evaluated numerically
    s = np.linspace(0.0, 1.0, 4097)
    v = smooth_cutoff(s, 0.0)
    return float(np.max(np.abs(np.diff(v))) * (len(s) - 1))


_CUTOFF_SLOPE = _cutoff_slope_bound()


def truncate_q(q: QMatrixSpec, K: int) -> QMatrixSpec:
    """Fold ``q`` onto the finite regime space {1, ..., K + kappa + 1}.

    Rates are scaled by the smooth radial cutoff (1 inside |x| <= K, 0 outside
    |x| >= K+1). Rows ``i <= K + kappa`` keep their in-range rates and send
    any out-of-range mass to the boundary regime ``K + kappa + 1``; the
    boundary row gets a constant unit rate (plus the scaled original rate)
    back to each of ``K+1 .. K+kappa`` so the folded matrix stays irreducible.
    The result is conservative and coincides with ``q`` on {1..K} wherever
    |x| <= K.
    """
    if not (isinstance(K, numbers.Real) and float(K).is_integer() and K >= 1):
        raise ValueError(f"K must be an integer >= 1, got {K!r}")
    kappa, K = q.kappa, int(K)
    n_out = K + kappa + 1
    base_rate = q.rate
    base_n = q.n_regimes

    def folded(x, i, j):
        if i == j or abs(j - i) > kappa or min(i, j) < 1 or max(i, j) > n_out:
            return 0.0
        # the base targets folded into j, all in band: j itself, or every
        # jj >= n_out; a finite base space has no rates beyond base_n
        s = 0.0
        for jj in range(j, (i + kappa if j == n_out else j) + 1):
            if base_n is None or max(i, jj) <= base_n:
                s += base_rate(x, i, jj)
        s *= float(smooth_cutoff(np.linalg.norm(as_point(x)), K))
        return 1.0 + s if i == n_out else s

    # metadata propagation: the boundary row adds kappa unit rates, and the
    # cutoff adds (slope * local rate level) to the Lipschitz constant
    env = q.linear_bound_alpha * n_out + q.linear_bound_beta * (K + 1)
    return QMatrixSpec(
        rate=folded,
        kappa=kappa,
        lipschitz_cq=q.lipschitz_cq + _CUTOFF_SLOPE * env,
        linear_bound_alpha=q.linear_bound_alpha + kappa,
        linear_bound_beta=q.linear_bound_beta,
        state_independent=False,
        n_regimes=n_out,
    )


# --- randomized banded specs for sweeps ------------------------------------

def random_banded_q(rng: np.random.Generator, *, dim: int = 1,
                    max_regime: int = 24) -> QMatrixSpec:
    """Random banded state-dependent spec with a Lipschitz constant that is
    certified by construction.

    Each rate is ``base_ij + amp_ij * (1 + sin(w_ij . x + theta_ij)) / 2``
    with ``base_ij, amp_ij ~ U[0, 2)`` and ``|w_ij| = 1``, so the rate is
    nonnegative and ``amp_ij / 2``-Lipschitz; ``lipschitz_cq`` is the max
    amplitude over the table halved. The band width is uniform on {1, 2, 3}.
    """
    kappa = int(rng.integers(1, 4))
    n = max_regime + kappa
    base = rng.uniform(0.0, 2.0, size=(n + 1, n + 1))
    amp = rng.uniform(0.0, 2.0, size=(n + 1, n + 1))
    theta = rng.uniform(0.0, 2 * np.pi, size=(n + 1, n + 1))
    w = rng.normal(size=(n + 1, n + 1, dim))
    w /= np.maximum(np.linalg.norm(w, axis=-1, keepdims=True), 1e-12)

    def rate(x, i, j):
        if i > n or j > n or abs(j - i) > kappa or i == j:
            return 0.0
        s = float(np.dot(w[i, j], np.asarray(x, dtype=float)))
        return base[i, j] + amp[i, j] * 0.5 * (1.0 + math.sin(s + theta[i, j]))

    cq = float(amp.max()) * 0.5
    alpha = float((base + amp).max()) * 2 * kappa  # q_i <= 2*kappa*max_rate <= alpha*i
    return QMatrixSpec(rate=rate, kappa=kappa, lipschitz_cq=cq,
                       linear_bound_alpha=alpha, linear_bound_beta=0.0,
                       state_independent=False, n_regimes=n)
