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
taken from the top 53 bits, offset by half a step and clamped below 1, so
they lie in the open interval (0, 1); normals are ``scipy.special.ndtri`` of
the uniform and exponentials are ``-log`` of it.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri  # called by every diffusion run: README, Cold start

LANE_EULER = 0
LANE_JUMP = 1

_LANE_SHIFT = np.uint64(60)

_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_KEY2 = np.uint64(0xD6E8FEB86659FD93)
_MASK = (1 << 64) - 1
# the largest double below 1: all-ones top bits plus the half-step round to 1.0
_U_MAX = np.nextafter(1.0, 0.0)


def _mix64(z: np.ndarray) -> np.ndarray:
    # stafford mix13 finalizer, bijective on uint64; the wraparound is
    # intended, so callers run it with overflow warnings off
    z = (z ^ (z >> np.uint64(30))) * _M1
    z = (z ^ (z >> np.uint64(27))) * _M2
    return z ^ (z >> np.uint64(31))


def keyed_bits(keys, lane: int, index) -> np.ndarray:
    """Raw 64-bit output for pre-mixed replica keys (see ``replica_keys``)."""
    c = np.asarray(index, dtype=np.uint64)
    with np.errstate(over="ignore"):
        if lane:
            c = c + (np.uint64(lane) << _LANE_SHIFT)
        return _mix64(keys + c * _KEY2)


def keyed_uniform(keys, lane: int, index) -> np.ndarray:
    """Uniform on the open interval (0, 1)."""
    bits = keyed_bits(keys, lane, index)
    u = ((bits >> np.uint64(11)).astype(np.float64) + 0.5) * (2.0 ** -53)
    return np.minimum(u, _U_MAX)


def keyed_normal(keys, lane: int, index) -> np.ndarray:
    return ndtri(keyed_uniform(keys, lane, index))


def keyed_exponential(keys, lane: int, index) -> np.ndarray:
    return -np.log(keyed_uniform(keys, lane, index))


class NoiseStream:
    """Addressable field of variates keyed by (seed, salt).

    ``replica`` and ``index`` may be scalars or integer arrays and broadcast
    against each other; results are float64 with the broadcast shape. Hot
    loops can hoist the replica half of the hash with ``replica_keys`` and
    the ``keyed_*`` module functions; both routes produce identical bits.

    ``seed`` may also be a sequence of integer seeds, one per row of the
    replica arrays the stream is read with: row ``r`` then draws exactly what
    ``NoiseStream(seed[r], salt)`` draws for its replica, so rows of
    different seeds can share one batch.
    """

    def __init__(self, seed, salt: int = 0):
        self.salt = int(salt)
        if np.ndim(seed):
            self.seed = tuple(int(s) for s in seed)
            base = [self._base(s) for s in self.seed]
        else:
            self.seed = int(seed)
            base = self._base(self.seed)
        with np.errstate(over="ignore"):
            self._key = _mix64(np.asarray(base, dtype=np.uint64))

    def _base(self, seed: int) -> int:
        base = (seed ^ (self.salt * 0x9E3779B97F4A7C15)) & _MASK
        return (base + 0x632BE59BD9B4E019) & _MASK

    def replica_keys(self, replica) -> np.ndarray:
        """Pre-mixed per-replica keys for use with the ``keyed_*`` functions."""
        r = np.asarray(replica, dtype=np.uint64)
        with np.errstate(over="ignore"):
            return _mix64(self._key + r * _GOLDEN)

    # kept for perfbench/tracing.py, which patches these three by name
    def uniform(self, replica, lane, index) -> np.ndarray:
        """Uniform on the open interval (0, 1)."""
        return keyed_uniform(self.replica_keys(replica), lane, index)

    def normal(self, replica, lane, index) -> np.ndarray:
        return keyed_normal(self.replica_keys(replica), lane, index)

    def exponential(self, replica, lane, index) -> np.ndarray:
        """Standard exponential (rate 1)."""
        return keyed_exponential(self.replica_keys(replica), lane, index)
