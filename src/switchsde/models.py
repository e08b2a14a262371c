"""Model definitions, regularity classes, sampled checkers, model zoo.

A ``ModelSpec`` bundles the diffusion coefficients, the switching-rate spec
and the regularity metadata (growth envelope, per-regime dissipativity
constants, ellipticity floor, modulus-of-continuity class) that the
verification layer consumes.

Coefficient callbacks are batched: ``drift(t, x, i)`` takes ``x`` of shape
``(d,)`` or ``(m, d)`` (and ``t`` scalar or ``(m,)``) and returns the same
shape; ``diffusion(t, x, i)`` may return a scalar ``s`` (meaning ``s * I``),
a ``(d, d)`` matrix, or an ``(m, d, d)`` stack. Callbacks must be pure:
specs are immutable and shared across concurrently running replicas, and
each spec keeps its assumption reports, one per sampling plan.

Assumption checking is falsification by sampling -- grids plus random pairs
in a ball -- never a proof; the conditions quantify over all of R^d and the
callbacks are black boxes.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Optional

import numpy as np

from .errors import InvalidModelError
from .qmatrix import QMatrixSpec

_EPS = 1e-9
_RADIUS = 10.0  # sampled points lie in the ball of this radius


# --- modulus-of-continuity classes -----------------------------------------

@dataclass(frozen=True)
class UClassFn:
    """A modulus profile ``u: (0, inf) -> [1, inf)`` with its certificates.

    ``phi(s) = integral_0^s u(r) dr`` is available in closed form when
    ``phi_closed`` is set, otherwise by adaptive quadrature. ``gamma``
    certifies the domination ``phi(s) <= gamma * s * u(s)^2`` (checked on a
    sampled grid, like everything else here).

    Membership in the admissible class also needs ``integral_0^1 ds/(s u(s))``
    to diverge; that is documented per entry and probed on a log grid by
    ``reciprocal_mass``, not proven.
    """

    name: str
    u: Callable
    gamma: float
    phi_closed: Optional[Callable] = None

    def phi(self, s: float) -> float:
        if self.phi_closed is not None:
            return float(self.phi_closed(s))
        return self.phi_quadrature(s)

    def phi_quadrature(self, s: float) -> float:
        if s <= 0:
            return 0.0
        from scipy.integrate import quad  # deferred: README, Cold start

        val, _ = quad(lambda r: float(self.u(r)), 0.0, s, limit=200)
        return val


def _u_one(s):
    s = np.asarray(s, dtype=float)
    out = np.ones_like(s)
    return out if out.ndim else float(out)


def _u_log(s):
    # 1 + log+(1/s); diverges at 0, equals 1 for s >= 1
    s = np.asarray(s, dtype=float)
    safe = np.where(s > 0, s, 1.0)
    out = np.where(s > 0, 1.0 + np.maximum(0.0, -np.log(safe)), np.inf)
    return out if out.ndim else float(out)


def _phi_log(s):
    s = np.asarray(s, dtype=float)
    safe = np.where(s > 0, s, 1.0)
    out = np.where(s <= 1.0, 2.0 * s - s * np.log(safe), s + 1.0)
    return out if out.ndim else float(out)


U_CLASSES: dict[str, UClassFn] = {
    "one": UClassFn("one", _u_one, gamma=1.0,
                    phi_closed=lambda s: np.asarray(s, dtype=float) * 1.0),
    "log": UClassFn("log", _u_log, gamma=2.0, phi_closed=_phi_log),
}


def reciprocal_mass(u: Callable, eps: float) -> float:
    """``integral_eps^1 ds / (s u(s))`` -- grows without bound iff the
    modulus is in the admissible class. Probe on a decreasing eps grid."""
    from scipy.integrate import quad  # deferred: README, Cold start

    val, _ = quad(lambda s: 1.0 / (s * float(u(s))), eps, 1.0, limit=200)
    return val


# --- model definition ---------------------------------------------------------

@dataclass(frozen=True)
class ModelSpec:
    """Coefficients, rates and regularity metadata of a switching diffusion.

    * ``growth_c(t)``: envelope with ``<x, b> <= c(t)(1+|x|^2)`` and
      ``||sigma||_F^2 <= c(t)(1+|x|^2)``.
    * ``dissipativity_c(t, i)``: increasing positive ``C_i(t)`` with
      ``<x-y, b(t,x,i)-b(t,y,i)> + ||sigma(..x..)-sigma(..y..)||_F^2 / 2
      <= C_i(t) |x-y|^2 u(|x-y|^2)``.
    * ``diffusion_mod_c(t, i)``: same role for the diffusion modulus
      ``||dsigma||^2 <= C~_i(t) |x-y|^2 u~(|x-y|)^2``.
    * ``ellipticity_lambda(t)``: decreasing positive floor with
      ``|sigma(t,x,i) v| >= lambda(t) |v|``.
    * ``u_id`` / ``u_tilde_id``: keys into ``U_CLASSES``.

    ``linear_coeffs`` optionally declares time-invariant, regime-wise linear
    coefficients: given an int array of regimes it returns ``(beta, a, s)``
    arrays meaning drift ``a - beta x`` (the offset ``a`` enters every
    coordinate equally) and diffusion ``s * I``. When set, the event-driven
    runner replaces Euler steps with the exact Ornstein-Uhlenbeck transition
    of each regime (``engine.ou_transition``), so it must describe exactly
    the same coefficients as the callbacks; the callbacks remain the public
    contract, are what the checkers probe, and drive the frozen-rate scheme.
    """

    dim: int
    drift: Callable
    diffusion: Callable
    q: QMatrixSpec
    growth_c: Callable[[float], float]
    dissipativity_c: Callable[[float, int], float]
    diffusion_mod_c: Callable[[float, int], float]
    ellipticity_lambda: Callable[[float], float]
    u_id: str = "one"
    u_tilde_id: str = "one"
    model_id: str = "custom"
    linear_coeffs: Optional[Callable] = None

    def __post_init__(self):
        if (isinstance(self.dim, bool) or not isinstance(self.dim, numbers.Integral)
                or self.dim < 1):
            raise ValueError(f"dim must be a positive integer, got {self.dim!r}")

    @functools.cached_property
    def _reports(self) -> dict:
        return {}  # plan -> AssumptionReport, filled by check_assumptions

    def u_class(self) -> UClassFn:
        return U_CLASSES[self.u_id]

    def u_tilde_class(self) -> UClassFn:
        return U_CLASSES[self.u_tilde_id]


def apply_diffusion(sig, dw):
    """Apply a diffusion coefficient to increments.

    ``sig``: scalar (meaning ``s * I``), ``(d, d)`` or ``(m, d, d)``;
    ``dw``: ``(d,)`` or ``(m, d)``. Returns the shape of ``dw``.
    """
    sig = np.asarray(sig, dtype=float)
    if sig.ndim == 0:
        return float(sig) * dw
    # einsum sums each output entry on its own, so a row's result does not
    # depend on how many rows share the call (a BLAS matmul's may)
    if sig.ndim == 2:
        return np.einsum("ij,...j->...i", sig, dw)
    return np.einsum("mij,mj->mi", sig, dw)


def _sigma_stack(sig, m: int, d: int) -> np.ndarray:
    """Normalize a diffusion return value to an (m, d, d) stack."""
    sig = np.asarray(sig, dtype=float)
    if sig.ndim == 0:
        return np.broadcast_to(float(sig) * np.eye(d), (m, d, d))
    if sig.ndim == 2:
        return np.broadcast_to(sig, (m, d, d))
    return sig


def _fro_sq(sig, d: int):
    """``||sigma||_F^2`` of a diffusion value: ``d s^2`` for a scalar ``s``
    (meaning ``s * I``), one per matrix of a ``(m, d, d)`` stack."""
    if sig.ndim == 0:
        return d * float(sig * sig)
    return np.einsum("mij,mij->m", sig, sig)


# --- sampled assumption checking --------------------------------------------

@dataclass(frozen=True)
class SamplingPlan:
    """Where the necessary-condition sampling happens.

    Coefficient conditions use ``n_pairs`` vectorized samples; conditions on
    the scalar rate callback use the smaller ``n_rate_pairs``; every point
    lies in the ball of radius ``_RADIUS``.
    """

    n_pairs: int = 10_000
    n_rate_pairs: int = 256
    times: tuple = (0.0, 0.5, 1.0)
    max_regime: int = 20
    seed: int = 90210


@dataclass(frozen=True)
class AssumptionResult:
    name: str
    passed: bool
    max_violation: float
    witness: Optional[dict]
    samples: int


@dataclass(frozen=True)
class AssumptionReport:
    model_id: str
    results: MappingProxyType  # read-only: every caller shares a kept report

    def failed(self) -> list[str]:
        return [n for n, r in self.results.items() if not r.passed]

    def require(self, *names: str) -> None:
        """Raise ``InvalidModelError`` with the violation and witness of the
        first of ``names`` that failed (names not checked are skipped)."""
        for name in names:
            res = self.results.get(name)
            if res is not None and not res.passed:
                raise InvalidModelError(
                    f"assumption {name} failed (violation "
                    f"{res.max_violation:.3e}); witness: {res.witness}")

    def __getitem__(self, name: str) -> AssumptionResult:
        return self.results[name]


class _Acc:
    """Tracks the worst violation and its first witness for one condition."""

    def __init__(self, name):
        self.name = name
        self.worst = 0.0
        self.witness = None
        self.n = 0

    def update(self, lhs, rhs, witness_fn):
        lhs = np.atleast_1d(np.asarray(lhs, dtype=float))
        rhs = np.atleast_1d(np.asarray(rhs, dtype=float))
        with np.errstate(invalid="ignore"):  # inf - inf: NaN, counted below
            viol = lhs - rhs
        viol[np.isnan(viol)] = np.inf  # a NaN violation fails its condition
        self.n += viol.size
        k = int(np.argmax(viol))
        if viol[k] > self.worst:
            self.worst = float(viol[k])
            if self.witness is None or viol[k] > _EPS:
                self.witness = witness_fn(k)

    def result(self) -> AssumptionResult:
        ok = self.worst <= _EPS
        return AssumptionResult(self.name, ok, self.worst,
                                None if ok else self.witness, self.n)


def _ball_sample(rng, n, d, radius):
    v = rng.normal(size=(n, d))
    v /= np.maximum(np.linalg.norm(v, axis=1, keepdims=True), 1e-300)
    r = radius * rng.uniform(size=(n, 1)) ** (1.0 / d)
    return v * r


# the conditions check_assumptions reports, in report order
_CONDITIONS = (
    "band_structure", "rate_lipschitz", "state_independent_rates",
    "rate_linear_growth", "rate_regime_linear", "coefficient_growth",
    "one_sided_dissipativity", "diffusion_modulus", "modulus_nonincreasing",
    "uniform_ellipticity", "bounded_at_origin",
    "dissipativity_uniform_in_regime", "gamma_domination")


def check_assumptions(m: ModelSpec, plan: SamplingPlan | None = None) -> AssumptionReport:
    """Probe every regularity condition on sampled grids; report a failed one
    (a NaN violation counts as infinite, so it fails), never raise it. A
    negative or non-finite rate at a sampled point is a broken model:
    ``QMatrixSpec.row`` raises ``InvalidModelError`` naming it (exit 3).
    ``m`` keeps the report, one per plan, and a repeated call returns it.

    Condition names (one result each):

    * ``band_structure``        -- rates vanish beyond the band
    * ``rate_lipschitz``        -- per-rate Lipschitz constant ``lipschitz_cq``
    * ``state_independent_rates`` -- rates constant in x when so flagged
    * ``rate_linear_growth``    -- ``q_i(x) <= alpha i + beta |x|``
    * ``rate_regime_linear``    -- ``q_i(x) <= alpha i`` uniformly in x
    * ``coefficient_growth``    -- inner-product / Frobenius growth envelope
    * ``one_sided_dissipativity`` -- drift+diffusion one-sided modulus bound
    * ``diffusion_modulus``     -- diffusion difference modulus bound
    * ``modulus_nonincreasing`` -- the registered u has u' <= 0
    * ``uniform_ellipticity``   -- smallest singular value >= lambda(t)
    * ``bounded_at_origin``     -- |b(t,0,i)| + ||sigma(t,0,i)|| finite/bounded
    * ``dissipativity_uniform_in_regime`` -- 0 < inf C_i(t) <= sup < inf
    * ``gamma_domination``      -- phi(s) <= gamma s u(s)^2 on a log grid

    A diffusion that returns scalars ``s`` at both ``X`` and ``Y`` is
    checked as ``s * I`` in O(n d): squared Frobenius norm ``d s^2`` and
    smallest singular value ``|s|``. Any matrix return puts both sides on
    ``(n, d, d)`` stacks and a batched SVD.
    """
    plan = plan or SamplingPlan()
    if plan in m._reports:
        return m._reports[plan]
    rng = np.random.default_rng(plan.seed)
    d = m.dim
    q = m.q
    regimes = range(1, min(plan.max_regime, q.n_regimes or plan.max_regime) + 1)
    ucls = m.u_class()
    utilde = m.u_tilde_class()

    X = _ball_sample(rng, plan.n_pairs, d, _RADIUS)
    Y = _ball_sample(rng, plan.n_pairs, d, _RADIUS)
    Xr = _ball_sample(rng, plan.n_rate_pairs, d, _RADIUS)
    Yr = _ball_sample(rng, plan.n_rate_pairs, d, _RADIUS)

    accs = {name: _Acc(name) for name in _CONDITIONS}

    # -- rate-callback conditions (scalar callback, small sample) --
    band_probe = Xr[: min(16, len(Xr))]
    for i in regimes:
        for j in list(range(i + q.kappa + 1, i + q.kappa + 4)) + \
                 [j for j in range(max(1, i - q.kappa - 3), i - q.kappa) if j >= 1]:
            for x in band_probe:
                accs["band_structure"].update(
                    abs(float(q.rate(x, i, j))), 0.0,
                    lambda k, x=x, i=i, j=j: {"x": x.tolist(), "i": i, "j": j})
        js, rx = q.row(Xr, i)
        for j, cx, cy in zip(js, rx.T, q.row(Yr, i)[1].T):
            accs["rate_lipschitz"].update(
                np.abs(cx - cy), q.lipschitz_cq * np.linalg.norm(Xr - Yr, axis=1),
                lambda k, i=i, j=j: {"x": Xr[k].tolist(), "y": Yr[k].tolist(),
                                     "i": i, "j": j})
            if q.state_independent:
                accs["state_independent_rates"].update(
                    np.abs(cx - cx[0]), 1e-12,
                    lambda k, i=i, j=j: {"x": Xr[k].tolist(), "i": i, "j": j})
        qi = q.total_rate(Xr, i)
        nx = np.linalg.norm(Xr, axis=1)
        accs["rate_linear_growth"].update(
            qi, q.linear_bound_alpha * i + q.linear_bound_beta * nx,
            lambda k, i=i: {"x": Xr[k].tolist(), "i": i, "q_i": float(qi[k])})
        accs["rate_regime_linear"].update(
            qi, q.linear_bound_alpha * i,
            lambda k, i=i: {"x": Xr[k].tolist(), "i": i, "q_i": float(qi[k])})

    # -- coefficient conditions (vectorized over the big sample) --
    dxy = X - Y
    dist = np.linalg.norm(dxy, axis=1)
    envelope = 1.0 + np.sum(X**2, axis=1)
    s_sq = dist ** 2
    u_s = np.asarray(ucls.u(np.maximum(s_sq, 1e-300)), dtype=float)
    ut_s = np.asarray(utilde.u(np.maximum(dist, 1e-300)), dtype=float)
    n = plan.n_pairs
    for t in plan.times:
        ct = float(m.growth_c(t))
        lam_t = float(m.ellipticity_lambda(t))
        for i in regimes:
            bx = np.asarray(m.drift(t, X, i), dtype=float)
            by = np.asarray(m.drift(t, Y, i), dtype=float)
            sx = np.asarray(m.diffusion(t, X, i), dtype=float)
            sy = np.asarray(m.diffusion(t, Y, i), dtype=float)
            if sx.ndim == sy.ndim == 0:
                sv_min = abs(float(sx))  # s * I has every singular value |s|
            else:
                sx, sy = _sigma_stack(sx, n, d), _sigma_stack(sy, n, d)
                sv_min = float(np.min(np.linalg.svd(sx, compute_uv=False)[:, -1]))
            fro_dxy = _fro_sq(sx - sy, d)
            wit = lambda k, t=t, i=i: {"t": t, "x": X[k].tolist(),
                                       "y": Y[k].tolist(), "i": i}
            accs["coefficient_growth"].update(
                np.einsum("md,md->m", X, bx), ct * envelope, wit)
            accs["coefficient_growth"].update(_fro_sq(sx, d), ct * envelope, wit)
            ci = float(m.dissipativity_c(t, i))
            lhs = np.einsum("md,md->m", dxy, bx - by) + 0.5 * fro_dxy
            accs["one_sided_dissipativity"].update(lhs, ci * s_sq * u_s, wit)
            cti = float(m.diffusion_mod_c(t, i))
            accs["diffusion_modulus"].update(
                fro_dxy, cti * s_sq * ut_s ** 2, wit)
            # the floor must be positive and actually floor the singular values
            accs["uniform_ellipticity"].update(
                [0.0 if lam_t > 0 else 1.0, lam_t],
                [0.0, sv_min],
                lambda k, t=t, i=i, lam_t=lam_t: {"t": t, "i": i,
                                                  "lambda_t": lam_t})
            accs["dissipativity_uniform_in_regime"].update(
                [1e-300, ci], [ci, np.inf],
                lambda k, t=t, i=i: {"t": t, "i": i, "C_i": ci})
            b0 = np.asarray(m.drift(t, np.zeros(d), i), dtype=float)
            s0 = np.asarray(m.diffusion(t, np.zeros(d), i), dtype=float)
            fro0 = _fro_sq(s0 if s0.ndim == 0 else _sigma_stack(s0, 1, d), d)
            origin = float(np.linalg.norm(b0) + np.sqrt(np.sum(fro0)))
            accs["bounded_at_origin"].update(
                0.0 if math.isfinite(origin) else np.inf, 0.0,
                lambda k, t=t, i=i, v=origin: {"t": t, "i": i, "value": v})

    # -- modulus class conditions --
    grid = np.logspace(-8, 2, 160)
    ug = np.asarray(ucls.u(grid), dtype=float)
    accs["modulus_nonincreasing"].update(
        np.diff(ug), 1e-12, lambda k: {"s": float(grid[k + 1]), "u": float(ug[k + 1])})
    phig = np.array([ucls.phi(s) for s in grid])
    accs["gamma_domination"].update(
        phig, ucls.gamma * grid * ug ** 2,
        lambda k: {"s": float(grid[k]), "phi": float(phig[k])})

    report = AssumptionReport(m.model_id, MappingProxyType(
        {k: a.result() for k, a in accs.items()}))
    return m._reports.setdefault(plan, report)


HARNACK_PREREQUISITES = (
    "band_structure", "state_independent_rates", "rate_regime_linear",
    "one_sided_dissipativity", "diffusion_modulus", "modulus_nonincreasing",
    "uniform_ellipticity", "bounded_at_origin",
    "dissipativity_uniform_in_regime", "gamma_domination",
)


# --- model zoo ---------------------------------------------------------------

def _finite(name: str, value, ndim: int) -> np.ndarray:
    """``value`` as an ``ndim``-d float array of finite numbers, or ValueError."""
    arr = np.asarray(value)
    if (arr.ndim != ndim or arr.dtype.kind not in "iuf"
            or not np.isfinite(arr).all()):
        raise ValueError(f"{name} must be {ndim}-d finite numbers: {value!r}")
    return arr.astype(float)


def _matrix_q(rates: np.ndarray) -> QMatrixSpec:
    """State-independent spec from an explicit off-diagonal rate table."""
    R = _finite("rates", rates, 2)
    n = len(R)
    if R.shape != (n, n):
        raise ValueError("rates must be a square matrix")
    off = R - np.diag(np.diag(R))
    if off.min() < 0:
        raise ValueError("off-diagonal rates must be nonnegative")
    nz = np.argwhere(off > 0)
    kappa = int(np.abs(nz[:, 0] - nz[:, 1]).max()) if len(nz) else 1
    row_sums = off.sum(axis=1)
    alpha = float(max(row_sums[i] / (i + 1) for i in range(n)))

    def rate(x, i, j):
        if 1 <= i <= n and 1 <= j <= n and i != j:
            return float(off[i - 1, j - 1])
        return 0.0

    return QMatrixSpec(rate=rate, kappa=kappa, lipschitz_cq=0.0,
                       linear_bound_alpha=alpha, linear_bound_beta=0.0,
                       state_independent=True, n_regimes=n)


def linear_switching_model(*, dim=1, beta=(1.0, 2.0), a=(0.0, 0.0), s=(1.0, 1.0),
                           rates=None, model_id=None) -> ModelSpec:
    """Regime-wise linear model: drift ``-beta_i x + a_i``, diffusion
    ``s_i * I``, state-independent rates (default: all-ones off-diagonal)."""
    beta = _finite("beta", beta, 1)
    avec = _finite("a", a, 1)
    svec = _finite("s", s, 1)
    n = len(beta)
    if rates is None:
        rates = np.ones((n, n)) - np.eye(n)
    q = _matrix_q(rates)
    if not (len(avec) == len(svec) == q.n_regimes == n):
        raise ValueError("beta, a, s and rates must agree in length")

    def drift(t, x, i):
        return -beta[i - 1] * np.asarray(x, dtype=float) + avec[i - 1]

    def diffusion(t, x, i):
        return float(svec[i - 1])

    c0 = max(float(np.max(np.maximum(-beta, 0.0) + np.abs(avec) * math.sqrt(dim))),
             float(dim * np.max(svec ** 2)), 1e-9)
    cdis = np.maximum(1.0, 0.5 - beta)
    lam0 = float(np.min(np.abs(svec)))

    def lincoef(lam):
        idx = np.asarray(lam, dtype=np.int64) - 1
        return beta[idx], avec[idx], svec[idx]

    return ModelSpec(
        dim=dim, drift=drift, diffusion=diffusion, q=q,
        growth_c=lambda t, c0=c0: c0,
        dissipativity_c=lambda t, i: float(cdis[i - 1]),
        diffusion_mod_c=lambda t, i: 1.0,
        ellipticity_lambda=lambda t, lam0=lam0: lam0,
        u_id="one", u_tilde_id="one",
        model_id=model_id or f"switching_ou(d={dim},n={n})",
        linear_coeffs=lincoef)


def _zoo_switching_ou(dim=1, beta=(1.0, 2.0), a=(0.0, 0.0), s=(1.0, 1.0),
                      rates=None):
    return linear_switching_model(dim=dim, beta=beta, a=a, s=s, rates=rates)


def _zoo_degenerate_regime(dim=1):
    """Two regimes: regime 1 is frozen (b=0, sigma=0), regime 2 is Brownian.

    The frozen regime kills the ellipticity floor, which is exactly the point:
    started in regime 1 the process holds its position for an exponential
    time, so bounded-measurable statistics inherit the discontinuity of the
    initial point. Used as the negative certificate in the Feller checks.
    """
    return linear_switching_model(dim=dim, beta=(0, 0), a=(0, 0), s=(0, 1),
                                  rates=[[0, 1], [1, 0]],
                                  model_id=f"degenerate_regime(d={dim})")


def _zoo_birth_death_switch(dim=1, sigma_scale=1.0):
    """Countably infinite birth-death switching: up-rate ``i`` from regime i,
    down-rate ``i - 1``; mean-reverting drift ``-x / i``, unit-scale noise.

    Row sums are ``2 i - 1``, so the regime-linear certificate holds with
    alpha = 2 and no position term.
    """
    sigma_scale = float(_finite("sigma_scale", sigma_scale, 0))
    growth = float(max(dim * sigma_scale * sigma_scale, 1.0))

    def rate(x, i, j):
        if j == i + 1:
            return float(i)
        if j == i - 1 and j >= 1:
            return float(i - 1)
        return 0.0

    q = QMatrixSpec(rate=rate, kappa=1, lipschitz_cq=0.0,
                    linear_bound_alpha=2.0, linear_bound_beta=0.0,
                    state_independent=True, n_regimes=None)

    def drift(t, x, i):
        return -np.asarray(x, dtype=float) / i

    def diffusion(t, x, i):
        return sigma_scale

    def lincoef(lam):
        lam = np.asarray(lam, dtype=np.int64)
        return 1.0 / lam, np.zeros(len(lam)), np.full(len(lam), sigma_scale)

    return ModelSpec(
        dim=dim, drift=drift, diffusion=diffusion, q=q,
        growth_c=lambda t: growth,
        dissipativity_c=lambda t, i: 1.0,
        diffusion_mod_c=lambda t, i: 1.0,
        ellipticity_lambda=lambda t: abs(sigma_scale),
        u_id="one", u_tilde_id="one",
        model_id=f"birth_death_switch(d={dim})",
        linear_coeffs=lincoef)


def _log_drift(x):
    # x * (1 - log|x|) inside the unit ball, linear outside; odd, continuous,
    # not Lipschitz at 0 but within the log modulus class
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    safe = np.where(ax > 0, ax, 1.0)
    return np.where(ax < 1.0, x * (1.0 - np.log(safe)), x)


def _zoo_nonlipschitz_log():
    """Scalar drift with the log modulus: regime 1 uses ``x (1 - log|x|)``
    (slope blows up at the origin), regime 2 is a plain unit OU; both carry
    unit noise and a symmetric two-state chain."""
    q = _matrix_q(np.array([[0.0, 1.0], [1.0, 0.0]]))

    def drift(t, x, i):
        x = np.asarray(x, dtype=float)
        return _log_drift(x) if i == 1 else -x

    def diffusion(t, x, i):
        return 1.0

    return ModelSpec(
        dim=1, drift=drift, diffusion=diffusion, q=q,
        growth_c=lambda t: 1.5,
        dissipativity_c=lambda t, i: 3.0,
        diffusion_mod_c=lambda t, i: 1.0,
        ellipticity_lambda=lambda t: 1.0,
        u_id="log", u_tilde_id="one",
        model_id="nonlipschitz_log")


_ZOO = {
    "switching_ou": _zoo_switching_ou,
    "degenerate_regime": _zoo_degenerate_regime,
    "birth_death_switch": _zoo_birth_death_switch,
    "nonlipschitz_log": _zoo_nonlipschitz_log,
}


def zoo(name: str, **params) -> ModelSpec:
    """Build a named zoo model. Unknown names raise ValueError."""
    try:
        builder = _ZOO[name]
    except KeyError:
        raise ValueError(f"unknown zoo model {name!r}; "
                         f"have {sorted(_ZOO)}") from None
    return builder(**params)
