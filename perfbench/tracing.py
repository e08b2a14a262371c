"""Span tracing installed from outside the package.

A ``Tracer`` replaces public entry points of ``switchsde`` with timing
wrappers, at the name each caller looks the function up under (for example
``switchsde.engine.keyed_normal`` for the runner's noise draws and
``switchsde.estimators.run_event_driven`` for the checkers' runner calls).
Nothing inside the package changes; ``uninstall`` puts every original back.

Each finished call becomes one span tuple
``(id, parent, thread, name, start, end, payload)`` kept in memory. A span's
parent is the innermost open span of the same thread; a call made on a
worker thread with no open span of its own is parented to the innermost open
span of the thread that created the tracer, which is the call that started
the pool.
Counts (draws, rows, replica steps, bytes) travel in ``payload`` and are
summed after the run, so they are taken at the same boundaries as the times.
"""

from __future__ import annotations

import functools
import itertools
import os
import statistics
import threading
import time
from collections import defaultdict

from switchsde import engine, estimators, models, noise, qmatrix, reports
from switchsde.engine import SimConfig
from switchsde.noise import LANE_JUMP

CHECKERS = ("harnack_sweep", "harnack_check", "moment_bound_check",
            "holding_time_check", "first_jump_estimate", "semigroup_estimate",
            "truncation_identity_check", "chain_marginal_check",
            "displacement_lipschitz_sweep")
VECTOR_RUNNERS = ("engine.run_event_driven", "engine.run_chain")


def _rows(a) -> int:
    shape = getattr(a, "shape", ())
    return int(shape[0]) if len(shape) else 1


def _size(a) -> int:
    return int(getattr(a, "size", 1))


def _keyed_payload(kind):
    # keyed_*(keys, lane, index)
    return lambda args, kwargs, out: (kind, _size(out), _rows(out), int(args[1]))


def _stream_payload(kind):
    # NoiseStream.<kind>(self, replica, lane, index)
    return lambda args, kwargs, out: (kind, _size(out), _rows(out), int(args[2]))


# runner payloads are the replica steps asked for: rows x ceil(T / dt)

def _event_payload(args, kwargs, out):
    # run_event_driven(model, x0, i0, T, dt, stream, replicas, ...)
    return len(args[6]) * SimConfig(horizon=args[3], dt=args[4]).n_steps()


def _chain_payload(args, kwargs, out):
    return 0  # run_chain draws the jump skeleton only


def _path_payload(args, kwargs, out):
    # simulate_path(model, x0, i0, cfg, ...)
    return args[3].n_steps()


def _write_payload(args, kwargs, out):
    # write_jsonl(path, records)
    return (len(args[1]), os.path.getsize(args[0]))


def _callback_payload(args, kwargs, out):
    # drift(t, x, i) / diffusion(t, x, i): x is (d,) or (m, d)
    shape = getattr(args[1], "shape", ())
    return int(shape[0]) if len(shape) == 2 else 1


class Tracer:
    """Records spans around patched entry points; see the module docstring."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root_stack = self._stack()  # the creating thread's
        self._patches: list[tuple] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, payload=None):
        """Return ``fn`` wrapped so that each call records one span."""
        spans = self.spans
        ids = self._ids
        root = self._root_stack
        clock = time.perf_counter
        ident = threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (root[-1] if root else 0)
            sid = next(ids)
            stack.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
            spans.append((sid, parent, ident(), name, t0, t1,
                          payload(args, kwargs, out) if payload else None))
            return out

        return traced

    def callback(self, fn, name: str):
        """Wrap a model callback (drift, diffusion or rate)."""
        payload = None if name == "models.rate" else _callback_payload
        return self.wrap(name, fn, payload)

    def patch(self, owner, attr: str, name: str, payload=None) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, payload))

    def install(self) -> "Tracer":
        """Patch every traced entry point of ``switchsde``."""
        for kind in ("normal", "uniform", "exponential"):
            self.patch(engine, f"keyed_{kind}", f"noise.keyed_{kind}",
                       _keyed_payload(kind))
            self.patch(noise.NoiseStream, kind, f"noise.NoiseStream.{kind}",
                       _stream_payload(kind))
        self.patch(noise.NoiseStream, "replica_keys",
                   "noise.NoiseStream.replica_keys")
        self.patch(estimators, "run_event_driven", "engine.run_event_driven",
                   _event_payload)
        self.patch(estimators, "run_chain", "engine.run_chain", _chain_payload)
        self.patch(estimators, "simulate_path", "engine.simulate_path",
                   _path_payload)
        self.patch(engine, "simulate_path", "engine.simulate_path",
                   _path_payload)
        self.patch(estimators, "simulate_truncated", "engine.simulate_truncated")
        self.patch(qmatrix.QMatrixSpec, "row", "qmatrix.row")
        self.patch(qmatrix.QMatrixSpec, "total_rate", "qmatrix.total_rate")
        self.patch(estimators, "displacement_lp_distance",
                   "qmatrix.displacement_lp_distance")
        self.patch(estimators, "transition_matrix", "markov.transition_matrix")
        self.patch(estimators, "check_assumptions", "models.check_assumptions")
        self.patch(models, "check_assumptions", "models.check_assumptions")
        for checker in CHECKERS:
            self.patch(estimators, checker, f"estimators.{checker}")
        self.patch(reports, "write_jsonl", "reports.write_jsonl",
                   _write_payload)
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()


# --- reduction -----------------------------------------------------------------

def _union_length(intervals) -> float:
    total = 0.0
    lo = hi = None
    for a, b in sorted(intervals):
        if hi is None or a > hi:
            if hi is not None:
                total += hi - lo
            lo, hi = a, b
        elif b > hi:
            hi = b
    if hi is not None:
        total += hi - lo
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals.

    Children may overlap (calls on several threads under one parent); the
    union counts overlapping time once.
    """
    children = defaultdict(list)
    for sid, parent, _tid, _name, t0, t1, _p in spans:
        children[parent].append((t0, t1))
    return {sid: max(0.0, (t1 - t0) - _union_length(children.get(sid, ())))
            for sid, _parent, _tid, _name, t0, t1, _p in spans}


COUNT_METRICS = (
    "noise.normal_draws", "noise.uniform_draws", "noise.exponential_draws",
    "noise.calls", "engine.runner_calls", "engine.replica_steps",
    "engine.switches", "engine.euler_calls", "models.callback_calls",
    "models.callback_rows", "qmatrix.rate_calls", "qmatrix.row_calls",
    "qmatrix.lp_distance_calls", "markov.transition_matrix_calls",
    "estimators.checks", "estimators.batches", "reports.records",
    "reports.bytes_written", "trace.spans",
)


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer counts and times of one traced run (see README.md)."""
    self_t = self_times(spans)
    names = {sid: name for sid, _p, _t, name, *_ in spans}
    m: dict[str, float] = defaultdict(float, dict.fromkeys(COUNT_METRICS, 0.0))
    check_durations = []
    euler_rows = 0
    noise_time = 0.0
    for sid, parent, _tid, name, t0, t1, payload in spans:
        dur = t1 - t0
        layer = name.split(".", 1)[0]
        if layer in ("noise", "engine", "qmatrix", "estimators"):
            m[f"{layer}.self_s"] += self_t[sid]
        if layer == "noise":
            if names.get(parent, "").startswith("noise."):
                continue  # NoiseStream.normal/exponential draw through .uniform
            m["noise.calls"] += 1
            noise_time += dur
            if payload is None:
                continue  # replica_keys: hashing only, no variates
            kind, draws, rows, lane = payload
            m[f"noise.{kind}_draws"] += draws
            if kind == "normal":
                m["engine.euler_calls"] += 1
                euler_rows += rows
            elif kind == "uniform" and lane == LANE_JUMP:
                m["engine.switches"] += draws
        elif layer == "engine":
            if name == "engine.simulate_truncated":
                continue  # delegates to simulate_path, which is counted
            m["engine.runner_calls"] += 1
            m["engine.replica_steps"] += payload
            if name in VECTOR_RUNNERS and names.get(parent, "").startswith("estimators."):
                m["estimators.batches"] += 1
        elif name in ("models.drift", "models.diffusion", "models.rate"):
            m["models.callback_calls"] += 1
            m["models.callback_rows"] += payload or 1
            m["models.callback_s"] += dur
        elif name == "models.check_assumptions":
            m["models.check_assumptions_s"] += dur
        elif name == "qmatrix.total_rate":
            m["qmatrix.rate_calls"] += 1
        elif name == "qmatrix.row":
            m["qmatrix.row_calls"] += 1
        elif name == "qmatrix.displacement_lp_distance":
            m["qmatrix.lp_distance_calls"] += 1
        elif name == "markov.transition_matrix":
            m["markov.transition_matrix_calls"] += 1
            m["markov.transition_matrix_s"] += dur
        elif layer == "estimators" and name != "estimators.harnack_sweep":
            m["estimators.checks"] += 1
            check_durations.append(dur)
        elif name == "reports.write_jsonl":
            m["reports.records"] += payload[0]
            m["reports.bytes_written"] += payload[1]
            m["reports.write_s"] += dur
    m["noise.draws_per_s"] = ((m["noise.normal_draws"] + m["noise.uniform_draws"]
                               + m["noise.exponential_draws"]) / noise_time
                              if noise_time > 0 else 0.0)
    m["engine.rows_per_euler_call"] = (euler_rows / m["engine.euler_calls"]
                                       if m["engine.euler_calls"] else 0.0)
    m["estimators.check_p50_s"] = (statistics.median(check_durations)
                                   if check_durations else 0.0)
    m["trace.spans"] = len(spans)
    return dict(m)


def write_spans(spans, path) -> None:
    """Tab-separated dump: id, parent, thread, name, start, end."""
    threads: dict[int, int] = {}
    with open(path, "w") as fh:
        fh.write("id\tparent\tthread\tname\tstart\tend\n")
        for sid, parent, tid, name, t0, t1, _p in spans:
            t = threads.setdefault(tid, len(threads))
            fh.write(f"{sid}\t{parent}\t{t}\t{name}\t{t0:.9f}\t{t1:.9f}\n")
