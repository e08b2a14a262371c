"""Sampled paths of (X_t, Lambda_t) and their on-disk formats.

A trajectory stores the sample times (integration grid plus switching event
times), the position and regime at each time (the regime column is
right-continuous: the value at an event time is the post-jump regime), the
jump log, and the stopping-time markers:

* ``eta``   -- first time the regime leaves its initial value (inf if never),
* ``tau_k`` -- first sampled time with ``|X_t| + Lambda_t > K`` for the
  configured truncation level (inf if never / not configured).

Serialization formats (both documented here, both round-trip):

CSV -- header ``time,regime,x0..x{d-1},event``; one row per sample time;
``event`` is 1 when a regime switch happened at that time. RFC-style quoting
via the stdlib csv module.

Binary -- a numpy ``.npz`` archive (``np.savez``, read with
``allow_pickle=False``) of the named arrays ``times`` (n,), ``x`` (n, d),
``regime`` (n,), ``jumps`` (m, 4: time, src, dst, mark), ``markers`` (eta,
tau_k), and the scalars ``seed``, ``digest`` (the config hash) and
``version`` (currently 2; files of any other version are refused).
"""

from __future__ import annotations

import csv
import math
import zipfile
from dataclasses import dataclass, field

import numpy as np

_VERSION = 2
_ARRAYS = ("version", "times", "x", "regime", "jumps", "markers", "seed",
           "digest")


@dataclass(frozen=True)
class JumpRecord:
    time: float
    src: int
    dst: int
    mark: float


@dataclass
class Trajectory:
    times: np.ndarray
    x: np.ndarray
    regime: np.ndarray
    jumps: list = field(default_factory=list)
    eta: float = math.inf
    tau_k: float = math.inf
    seed: int = 0
    config_digest: str = ""

    @property
    def dim(self) -> int:
        return self.x.shape[1]

    # -- CSV -----------------------------------------------------------------

    def to_csv(self, path) -> None:
        jump_times = {j.time for j in self.jumps}
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["time", "regime"]
                       + [f"x{c}" for c in range(self.dim)] + ["event"])
            for k in range(len(self.times)):
                w.writerow([repr(float(self.times[k])), int(self.regime[k])]
                           + [repr(float(v)) for v in self.x[k]]
                           + [int(self.times[k] in jump_times)])

    # -- binary --------------------------------------------------------------

    def to_binary(self, path) -> None:
        jumps = np.array([(j.time, j.src, j.dst, j.mark) for j in self.jumps],
                         dtype=float).reshape(-1, 4)
        with open(path, "wb") as fh:
            np.savez(fh, version=_VERSION, times=self.times, x=self.x,
                     regime=self.regime, jumps=jumps,
                     markers=np.array([self.eta, self.tau_k], dtype=float),
                     seed=np.int64(self.seed), digest=self.config_digest)


def from_binary(path) -> Trajectory:
    try:
        with np.load(path, allow_pickle=False) as data:
            a = {name: data[name] for name in _ARRAYS}
    except (ValueError, TypeError, KeyError, EOFError, zipfile.BadZipFile):
        raise ValueError(f"{path} is not a trajectory file") from None
    if a["version"] != _VERSION:
        raise ValueError(f"unsupported trajectory version {a['version']}")
    eta, tau_k = a["markers"].tolist()
    jumps = [JumpRecord(t, int(src), int(dst), mark)
             for t, src, dst, mark in a["jumps"].tolist()]
    return Trajectory(times=a["times"], x=a["x"], regime=a["regime"],
                      jumps=jumps, eta=eta, tau_k=tau_k, seed=int(a["seed"]),
                      config_digest=str(a["digest"]))
