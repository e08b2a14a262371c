"""One workload run, in the process ``run.py`` starts and supervises.

Prints one JSON object per line on standard output: ``setup`` once set-up
(import, models, configs, inputs and the assumption gate) is done, then one
``round`` per round. With ``--trace 1`` it first prints ``probes`` and then
alternates untraced and traced rounds; a traced round carries the per-layer
metrics of its spans.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(BENCH)]

import tracing  # noqa: E402


def emit(event: str, **fields) -> None:
    print(json.dumps({"event": event, **fields}), flush=True)


def timed_round(workload, report: Path, reports) -> dict:
    c0 = time.process_time()
    t0 = time.perf_counter()
    res = workload.round()
    t1 = time.perf_counter()
    reports.write_jsonl(report, res.records)
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    return {"wall_s": wall, "cpu_s": cpu,
            "durations": res.durations + [t0 + wall - t1],
            "checks": res.checks,
            "failed": res.failed, "paths": res.paths,
            "replica_steps": res.replica_steps, "aborted": res.aborted,
            "records": len(res.records),
            "sha256": hashlib.sha256(report.read_bytes()).hexdigest()}


def traced_round(cls, seed: int, report: Path, reports):
    """Set up ``cls`` and run one round with every tracing wrapper
    installed; the wrappers are removed before this returns."""
    with tracing.Tracer() as tracer:
        r = timed_round(cls(seed, wrap=tracer.callback), report, reports)
    return r, tracer.spans


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    import numpy
    import scipy
    import switchsde
    from switchsde import reports

    if SRC not in Path(switchsde.__file__).resolve().parents:
        raise SystemExit(f"switchsde imported from {switchsde.__file__}, "
                         f"not from {SRC}")
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    workload = cls(args.seed)
    emit("setup", setup_s=time.perf_counter() - T_START,
         versions={"python": sys.version.split()[0], "numpy": numpy.__version__,
                   "scipy": scipy.__version__, "switchsde": switchsde.__version__})
    if args.setup_only:
        return 0

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    report = out / f"{stem}.jsonl"
    if not args.trace:
        t0 = time.perf_counter()
        while True:
            r = timed_round(workload, report, reports)
            emit("round", traced=False, **r)
            if time.perf_counter() - t0 + r["wall_s"] > args.seconds:
                return 0

    import probes

    emit("probes", metrics=probes.run_probes(args.seed))
    t0 = time.perf_counter()
    first_spans = None
    while True:
        u = timed_round(workload, report, reports)
        emit("round", traced=False, **u)
        r, spans = traced_round(cls, args.seed, report, reports)
        layers = tracing.layer_metrics(spans)
        layers["estimators.cpu_over_wall"] = r["cpu_s"] / r["wall_s"]
        emit("round", traced=True, layers=layers,
             counts={c: layers[c] for c in tracing.COUNT_METRICS}, **r)
        if first_spans is None:
            first_spans = spans
        if time.perf_counter() - t0 + u["wall_s"] + r["wall_s"] > args.seconds:
            break
    tracing.write_spans(first_spans, out / f"{stem}-spans.tsv")
    return 0


if __name__ == "__main__":
    sys.exit(main())
