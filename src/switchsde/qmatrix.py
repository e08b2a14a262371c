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

The whole module assumes a band structure: jumps move the regime by at most
``kappa``, so every row has finitely many nonzero entries and the (possibly
countably infinite) regime space is never enumerated. Layouts are built per
point ``x`` and row; nothing is cached globally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import InvalidModelError

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
        if self.kappa < 1:
            raise ValueError("kappa must be a positive integer")
        if self.n_regimes is not None and self.n_regimes < 1:
            raise ValueError("n_regimes must be positive when finite")

    def band(self, i: int) -> list[int]:
        """Destinations reachable from ``i``: within the band, >= 1, in range."""
        hi = i + self.kappa
        if self.n_regimes is not None:
            hi = min(hi, self.n_regimes)
        return [j for j in range(max(1, i - self.kappa), hi + 1) if j != i]

    def row(self, x: Point, i: int) -> tuple[list[int], np.ndarray]:
        """Destination list and rates for row ``i`` at ``x`` (ascending ``j``)."""
        js = self.band(i)
        rates = np.empty(len(js))
        for k, j in enumerate(js):
            r = float(self.rate(x, i, j))
            if not math.isfinite(r):
                raise InvalidModelError(f"non-finite rate at (x={x}, i={i}, j={j})")
            if r < 0:
                raise InvalidModelError(f"negative rate at (x={x}, i={i}, j={j})")
            rates[k] = r
        return js, rates

    def total_rate(self, x: Point, i: int) -> float:
        """Row sum q_i(x), accumulated in ascending destination order."""
        _, rates = self.row(x, i)
        total = 0.0
        for r in rates:
            total += r
        return total


@dataclass(frozen=True)
class RowLayout:
    """Row ``i``'s block of the interval layout at one point ``x``.

    ``dests`` are the band's destinations in ascending order and ``rates``
    their rates. ``right`` holds the cumulative right endpoints relative to
    the block start (running sums of ``rates``, so a zero rate gives an empty
    interval); ``edges`` holds the absolute endpoints ``start, start + r_1,
    (start + r_1) + r_2, ...`` accumulated from the block start. The block
    covers ``[start, start + total)`` with ``total = q_i(x)`` summed in the
    same order as ``QMatrixSpec.total_rate``.
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
        u = np.asarray(u, dtype=float)
        if self.total <= 0.0:
            return np.full(u.shape, self.i, dtype=np.int64)
        k = np.searchsorted(self.right, u * self.total, side="right")
        return self.dests[np.minimum(k, len(self.dests) - 1)]

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
    """Lay out row ``i`` of ``q`` at ``x``; the block start sums the rows
    below it one by one in ascending order."""
    xp = as_point(x)
    start = 0.0
    for k in range(1, i):
        t = q.total_rate(xp, k)
        if not math.isfinite(t):
            raise InvalidModelError(f"unbounded row sum at (x={xp}, i={k})")
        start += t
    js, rates = q.row(xp, i)
    right = np.cumsum(rates)
    edges = np.cumsum(np.concatenate(([start], rates)))
    total = float(right[-1]) if len(right) else 0.0
    return RowLayout(i=i, dests=np.asarray(js, dtype=np.int64), rates=rates,
                     right=right, edges=edges, start=float(start), total=total)


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
    total = 0.0
    for w, dx, dy in zip((b - a).tolist(), lx.displacement(mid).tolist(),
                         ly.displacement(mid).tolist()):
        if dx != dy:
            total += abs(dx - dy) ** p * w
    return total


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
    if K < 1:
        raise ValueError("K must be >= 1")
    kappa = q.kappa
    n_out = K + kappa + 1
    base_rate = q.rate
    base_n = q.n_regimes

    def in_base(i: int, j: int) -> bool:
        if i == j or i < 1 or j < 1:
            return False
        if base_n is not None and (i > base_n or j > base_n):
            return False
        return abs(j - i) <= kappa

    def folded(x, i, j):
        phi = float(smooth_cutoff(np.linalg.norm(as_point(x)), K))
        if i <= K + kappa:
            if j <= K + kappa:
                return (base_rate(x, i, j) * phi) if in_base(i, j) else 0.0
            if j == n_out:
                s = 0.0
                for jj in range(i - kappa, i + kappa + 1):
                    if jj >= n_out and in_base(i, jj):
                        s += base_rate(x, i, jj)
                return s * phi
            return 0.0
        if i == n_out:
            if K + 1 <= j <= K + kappa:
                extra = base_rate(x, i, j) * phi if in_base(i, j) else 0.0
                return 1.0 + extra
            return 0.0
        return 0.0

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


# --- dominating regime chain ----------------------------------------------

@dataclass(frozen=True)
class DominatingChainSpec:
    """Chain whose every in-band jump rate is the uniform ceiling alpha * K.

    From regime ``i`` it jumps to each ``j`` with ``0 < |j - i| <= kappa``,
    ``j >= 1``, at rate ``alpha * K``; the exit rate from ``i`` is therefore
    ``(min(kappa, i - 1) + kappa) * alpha * K``. It dominates the switching
    intensity of any banded matrix with row sums ``q_i <= alpha * i`` for
    regimes ``i <= K``, which is what makes its holding times a usable lower
    bound oracle.
    """

    K: int
    alpha: float
    kappa: int

    def __post_init__(self):
        if self.K < 1 or self.kappa < 1 or self.alpha < 0:
            raise ValueError("need K >= 1, kappa >= 1, alpha >= 0")

    def exit_rate(self, i: int) -> float:
        return (min(self.kappa, i - 1) + self.kappa) * self.alpha * self.K

    @property
    def q(self) -> QMatrixSpec:
        """The chain as a state-independent rate spec on {1, 2, ...}."""
        rate = self.alpha * self.K
        return QMatrixSpec(rate=lambda x, i, j: rate, kappa=self.kappa,
                           linear_bound_alpha=2 * self.kappa * rate,
                           state_independent=True)


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
