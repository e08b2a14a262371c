"""Machine-readable reports (JSON lines) and plot-ready CSV tables.

Every checker emits flat records with a common core -- checker name, model
id, parameters, lhs, rhs, stderr, margin, pass flag -- plus the scenario's
config hash and seed, so a report file is reproducible byte-for-byte from
its config. Bound records also carry ``n_aborted``, the replicas their
estimate dropped. Non-finite floats serialize as null (JSON has no inf/nan).
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np


def _json_safe(v):
    if isinstance(v, dict):
        return {str(k): _json_safe(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_json_safe(x) for x in v]
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (np.floating, float)):
        v = float(v)
        return v if math.isfinite(v) else None
    if isinstance(v, np.ndarray):
        return _json_safe(v.tolist())
    if isinstance(v, (np.bool_, bool)):
        return bool(v)
    return v


def record(checker: str, model: str, params: dict, lhs, rhs, stderr, margin,
           passed, config_hash: str = "", seed=None) -> dict:
    return _json_safe({
        "checker": checker,
        "model": model,
        "params": params,
        "lhs": lhs,
        "rhs": rhs,
        "stderr": stderr,
        "margin": margin,
        "pass": passed,
        "config_hash": config_hash,
        "seed": seed,
    })


def from_bound_report(rep, config_hash: str = "", seed=None) -> dict:
    """A ``BoundReport``'s record: the common core plus ``n_aborted``."""
    rec = record(rep.checker, rep.params.get("model", ""), rep.params,
                 rep.lhs.mean, rep.rhs, rep.lhs.stderr, rep.margin,
                 rep.passed, config_hash, seed)
    rec["n_aborted"] = int(rep.lhs.n_aborted)
    return rec


def write_jsonl(path, records) -> None:
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True, separators=(",", ":")))
            fh.write("\n")


def read_jsonl(path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


# per checker family: the CSV header and a record's row under it
_PLOT_TABLES = {
    "feller": (("radius", "gap", "stderr"), lambda p, r: [
        p.get("radius", r.get("lhs")), r.get("lhs"), r.get("stderr")]),
    "holding": (("t", "empirical", "bound", "pass"), lambda p, r: [
        p.get("t"), r.get("lhs"), r.get("rhs"), int(bool(r.get("pass")))]),
}
_GENERIC_TABLE = (("lhs", "rhs", "margin"), lambda p, r: [
    r.get("lhs"), r.get("rhs"), r.get("margin")])


def emit_plot_data(records, path) -> None:
    """One tidy CSV per checker family, deterministic column order.

    Gap probes tabulate radius vs gap; holding checks tabulate the time grid
    against the empirical survival and its floor; every other family gets the
    generic lhs/rhs/margin triple. Records from mixed families are rejected.
    """
    records = list(records)
    if not records:
        raise ValueError("no records to tabulate")
    families = {r.get("checker") for r in records}
    if len(families) != 1:
        raise ValueError(f"mixed checker families {sorted(families)}; "
                         "emit one table per family")
    header, row = _PLOT_TABLES.get(families.pop(), _GENERIC_TABLE)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for r in records:
            w.writerow(row(r.get("params", {}), r))
