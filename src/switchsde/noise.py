"""Counter-addressed random variates for reproducible parallel Monte Carlo.

Every draw is a pure function of ``(seed, salt, replica, lane, index)``.
Nothing is stateful: a replica's randomness does not depend on how replicas
are batched, which thread runs them, or in what order batches complete.
Two coupled paths "consume the same stream" simply by using the same
``(seed, replica)`` addresses for the same purposes.

Lanes separate draw purposes so paths that consume different amounts of
randomness for one purpose stay aligned on the others:

* ``LANE_EULER``  -- Brownian increments; index = substep * dim + component.
* ``LANE_JUMP``   -- switching clocks and destination marks; index runs
  E0, U1, E2, U3, ... per replica (an exponential clock, then a uniform
  mark per jump event).

The generator itself is a stateless splitmix-style hash (three rounds of
the 64-bit finalizer with odd-constant keying between rounds), which is the
standard construction for counter-based Monte Carlo streams. Uniforms are
taken from the top 53 bits, offset to the open interval (0, 1); normals go
through the inverse normal CDF.
"""

from __future__ import annotations

import numpy as np

LANE_EULER = 0
LANE_JUMP = 1

_LANE_SHIFT = np.uint64(60)

_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_KEY2 = np.uint64(0xD6E8FEB86659FD93)
_MASK = (1 << 64) - 1


def _mix64(z: np.ndarray) -> np.ndarray:
    # stafford mix13 finalizer, bijective on uint64; the wraparound is
    # intended, so callers run it with overflow warnings off
    z = (z ^ (z >> np.uint64(30))) * _M1
    z = (z ^ (z >> np.uint64(27))) * _M2
    return z ^ (z >> np.uint64(31))


# Rational approximation of the standard normal quantile (Acklam's
# coefficients; relative error below 1.2e-9, far under Monte Carlo noise).
# The quantile transform dominates the integrator's inner loop, which is why
# this lives here instead of a scipy call; the scipy function remains the
# accuracy oracle in the tests.
_PA = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
       1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_PB = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
       6.680131188771972e+01, -1.328068155288572e+01)
_PC = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
       -2.549732539343734e+00, 4.374664141464963e+00, 2.938163982698783e+00)
_PD = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
       3.754408661907416e+00)
_P_LOW = 0.02425


def _lower_tail_quantile(p):
    # yields the (negative) quantile for p < _P_LOW directly
    q = np.sqrt(-2.0 * np.log(p))
    num = ((((_PC[0] * q + _PC[1]) * q + _PC[2]) * q + _PC[3]) * q + _PC[4]) * q + _PC[5]
    den = (((_PD[0] * q + _PD[1]) * q + _PD[2]) * q + _PD[3]) * q + 1.0
    return num / den


def inverse_normal_cdf(u):
    """Standard normal quantile of ``u`` in (0, 1), vectorized."""
    u = np.asarray(u, dtype=float)
    q = u - 0.5
    r = q * q
    num = ((((_PA[0] * r + _PA[1]) * r + _PA[2]) * r + _PA[3]) * r + _PA[4]) * r + _PA[5]
    den = ((((_PB[0] * r + _PB[1]) * r + _PB[2]) * r + _PB[3]) * r + _PB[4]) * r + 1.0
    out = q * (num / den)
    lo = np.flatnonzero(u.ravel() < _P_LOW)
    if lo.size:
        out.ravel()[lo] = _lower_tail_quantile(u.ravel()[lo])
    hi = np.flatnonzero(u.ravel() > 1.0 - _P_LOW)
    if hi.size:
        out.ravel()[hi] = -_lower_tail_quantile(1.0 - u.ravel()[hi])
    return out if out.ndim else float(out)


def keyed_bits(keys, lane: int, index) -> np.ndarray:
    """Raw 64-bit output for pre-mixed replica keys (see ``replica_keys``)."""
    c = np.asarray(index, dtype=np.uint64)
    with np.errstate(over="ignore"):
        if lane:
            c = c + (np.uint64(lane) << _LANE_SHIFT)
        return _mix64(keys + c * _KEY2)


def keyed_uniform(keys, lane: int, index) -> np.ndarray:
    bits = keyed_bits(keys, lane, index)
    return ((bits >> np.uint64(11)).astype(np.float64) + 0.5) * (2.0 ** -53)


def keyed_normal(keys, lane: int, index) -> np.ndarray:
    return inverse_normal_cdf(keyed_uniform(keys, lane, index))


def keyed_exponential(keys, lane: int, index) -> np.ndarray:
    return -np.log(keyed_uniform(keys, lane, index))


class NoiseStream:
    """Addressable field of variates keyed by (seed, salt).

    ``replica`` and ``index`` may be scalars or integer arrays and broadcast
    against each other; results are float64 with the broadcast shape. Hot
    loops can hoist the replica half of the hash with ``replica_keys`` and
    the ``keyed_*`` module functions; both routes produce identical bits.
    """

    def __init__(self, seed: int, salt: int = 0):
        self.seed = int(seed)
        self.salt = int(salt)
        base = (self.seed ^ (self.salt * 0x9E3779B97F4A7C15)) & _MASK
        base = (base + 0x632BE59BD9B4E019) & _MASK
        with np.errstate(over="ignore"):
            self._key = _mix64(np.asarray(base, dtype=np.uint64))

    def replica_keys(self, replica) -> np.ndarray:
        """Pre-mixed per-replica keys for use with the ``keyed_*`` functions."""
        r = np.asarray(replica, dtype=np.uint64)
        with np.errstate(over="ignore"):
            return _mix64(self._key + r * _GOLDEN)

    def uniform(self, replica, lane, index) -> np.ndarray:
        """Uniform on the open interval (0, 1)."""
        return keyed_uniform(self.replica_keys(replica), lane, index)

    def normal(self, replica, lane, index) -> np.ndarray:
        return inverse_normal_cdf(self.uniform(replica, lane, index))

    def exponential(self, replica, lane, index) -> np.ndarray:
        """Standard exponential (rate 1)."""
        return -np.log(self.uniform(replica, lane, index))
