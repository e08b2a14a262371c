"""The regime chain layer: dense generators and their closed-form oracles.

``chain_generator_matrix`` builds the generator of a finite
state-independent spec from the rows of ``qmatrix.zero_layout``, the rows
the Monte Carlo runners gather; ``transition_matrix`` is ``exp(t Q)``, the
oracle for the Monte Carlo chain marginals.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm

from .errors import InvalidModelError, _check_horizon
from .qmatrix import zero_layout

DIM_CAP = 512


def chain_generator_matrix(q) -> np.ndarray:
    """Dense conservative generator of a finite state-independent spec; row
    ``i`` holds ``zero_layout(q, i)``'s rates (``UnsupportedSchemeError``
    when the rates depend on x)."""
    n = q.n_regimes
    if n is None:
        raise ValueError("need a finite regime count")
    G = np.zeros((n, n))
    for i in range(1, n + 1):
        lay = zero_layout(q, i)
        G[i - 1, lay.dests - 1] = lay.rates
        G[i - 1, i - 1] = -G[i - 1].sum()
    return G


def transition_matrix(generator, t: float) -> np.ndarray:
    """Stochastic matrix ``exp(t * Q)`` for a conservative generator ``Q``.

    Computed by ``scipy.linalg.expm`` (Al-Mohy & Higham scaling and
    squaring), with rounding-level negative entries set to 0. Raises on a
    ``t`` that is negative or not finite, on dimensions above ``DIM_CAP`` and
    on structurally invalid generators.
    """
    Q = np.asarray(generator, dtype=float)
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        raise ValueError(f"generator must be square, got shape {Q.shape}")
    n = Q.shape[0]
    if n > DIM_CAP:
        raise ValueError(f"generator dimension {n} exceeds cap {DIM_CAP}")
    _check_horizon(t)
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
