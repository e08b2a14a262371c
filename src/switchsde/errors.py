"""Exception types, and the one check of a horizon, shared across the package."""

from __future__ import annotations

import math
from typing import Optional

import numpy as np


class InvalidModelError(ValueError):
    """A model callback returned something structurally impossible.

    Raised for negative or non-finite switching rates, non-conservative
    generators, and similar contract violations. The message names the
    offending (x, i, j) or matrix entry so the bad callback is easy to find.
    """


class NumericalBlowupError(RuntimeError):
    """A simulated state became non-finite.

    Carries the time, position and regime at which the integration died so
    estimators can report (and count) the aborted replica.
    """

    def __init__(self, t: float, x, regime: int):
        self.t = float(t)
        self.x = np.asarray(x, dtype=float)
        self.regime = int(regime)
        super().__init__(
            f"non-finite state at t={self.t:.6g}, regime={self.regime}, x={self.x}"
        )


class UnsupportedSchemeError(ValueError):
    """The requested integration scheme does not apply to this model."""


class ConfigError(ValueError):
    """Scenario configuration file is malformed or contains unknown keys."""


class StiffSwitchingWarning(UserWarning):
    """dt * (switching intensity) exceeded the single-jump-per-step budget."""


def _check_horizon(T: float, dt: Optional[float] = None) -> None:
    """A ValueError unless the horizon ``T`` is finite and >= 0 and the step
    ``dt``, when given, finite and > 0; a runner checks them before any work,
    and ``markov.transition_matrix`` checks its ``t``."""
    if dt is not None and not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if not (math.isfinite(T) and T >= 0):
        raise ValueError(f"horizon must be nonnegative and finite, got {T}")
