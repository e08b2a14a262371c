"""The regime chain layer: dense generators and their closed-form oracles.

``chain_generator_matrix`` builds a state-independent spec's generator on a
finite window; ``transition_matrix`` is ``exp(t Q)``, the oracle for the Monte
Carlo chain marginals; ``holding_probability`` is the dominating chain's
survival, the holding-time check's floor.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from scipy.linalg import expm

from .errors import InvalidModelError, UnsupportedSchemeError

DIM_CAP = 512


def chain_generator_matrix(q, size: Optional[int] = None) -> np.ndarray:
    """Dense conservative generator of a finite state-independent spec."""
    if not q.state_independent:
        raise UnsupportedSchemeError("need state-independent rates")
    n = size or q.n_regimes
    if n is None:
        raise ValueError("need a finite regime count")
    zero = np.zeros(1)
    G = np.zeros((n, n))
    for i in range(1, n + 1):
        for j in q.band(i):
            if j <= n:
                G[i - 1, j - 1] = float(q.rate(zero, i, j))
        G[i - 1, i - 1] = -G[i - 1].sum()
    return G


def transition_matrix(generator, t: float) -> np.ndarray:
    """Stochastic matrix ``exp(t * Q)`` for a conservative generator ``Q``.

    Computed by ``scipy.linalg.expm`` (Al-Mohy & Higham scaling and
    squaring), with rounding-level negative entries set to 0. Raises on
    negative ``t``, on dimensions above ``DIM_CAP`` and on structurally
    invalid generators.
    """
    Q = np.asarray(generator, dtype=float)
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        raise ValueError(f"generator must be square, got shape {Q.shape}")
    n = Q.shape[0]
    if n > DIM_CAP:
        raise ValueError(f"generator dimension {n} exceeds cap {DIM_CAP}")
    if t < 0:
        raise ValueError("t must be nonnegative")
    if not np.all(np.isfinite(Q)):
        raise InvalidModelError("generator contains non-finite entries")
    off = Q - np.diag(np.diag(Q))
    if off.min() < -1e-12:
        i, j = np.unravel_index(np.argmin(off), off.shape)
        raise InvalidModelError(f"negative off-diagonal rate at ({i + 1}, {j + 1})")
    scale = max(1.0, float(np.abs(Q).max()))
    rows = Q.sum(axis=1)
    if np.abs(rows).max() > 1e-9 * scale:
        k = int(np.argmax(np.abs(rows)))
        raise InvalidModelError(f"generator is not conservative: row {k + 1} "
                                f"sums to {rows[k]:.3e}")
    return np.maximum(expm(t * Q), 0.0)


def holding_probability(spec, k: int, t) -> np.ndarray:
    """P(no jump up to t) lower envelope from a dominating chain spec:
    ``exp(-(min(kappa, k-1) + kappa) * alpha * K * t)``."""
    t = np.asarray(t, dtype=float)
    out = np.exp(-spec.exit_rate(k) * t)
    return out if out.ndim else float(out)
