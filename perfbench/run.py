"""switchsde benchmark: one workload run, checked and measured.

Usage, from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Set-up is timed in ``SETUP_SAMPLES`` separate processes (the measured
worker's own set-up is one of them) and reported as their median. The
workload then runs in one worker process under a hard time limit; rounds
repeat until ``--seconds`` is used. A worker that crashes, hangs or is
killed fails the round it was in. Human-readable lines go first; the last
line of standard output is the JSON result: end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``. Reports and spans are
written under ``.perfbench_out/`` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 4
TOTAL_LIMIT_S = 170.0
SETUP_LIMIT_S = 60.0


def fingerprint() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True)
            commit = res.stdout.strip() or commit
        except OSError:
            pass  # no git on this machine
    return {"nproc": os.cpu_count(), "cpu": cpu, "commit": commit,
            "loadavg": os.getloadavg()}


def run_worker(argv: list[str], limit: float):
    """Run the worker to completion or until ``limit`` seconds have passed.

    Returns its messages, exit status, whether it was killed, and its peak
    resident set size in MB (from the kernel's accounting of that process).
    """
    proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), *argv],
                            cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines: list[str] = []
    reader = threading.Thread(target=lambda: lines.extend(proc.stdout))
    reader.start()
    deadline = time.monotonic() + limit
    killed = False
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            killed = True
            break
        time.sleep(0.02)
    proc.returncode = os.waitstatus_to_exitcode(status)
    reader.join()
    proc.stdout.close()
    msgs = []
    for ln in lines:
        try:
            msgs.append(json.loads(ln))
        except json.JSONDecodeError:
            print(ln, end="", file=sys.stderr)
    return msgs, proc.returncode, killed, usage.ru_maxrss / 1024.0


def round_time(rounds) -> float:
    """Typical wall time of one round: the sum over its checks of each
    check's median duration across the repeated rounds, so that a burst of
    machine noise moves one sample of one check rather than the whole run."""
    return sum(statistics.median(d) for d in zip(*(r["durations"] for r in rounds)))


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    start = time.monotonic()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"unknown workload {args.workload!r}; have {names}", file=sys.stderr)
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    fp = fingerprint()
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("fingerprint " + json.dumps(fp, sort_keys=True))
    wargs = ["--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--out", str(OUT)]

    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        msgs, code, _, _ = run_worker(wargs + ["--setup-only"], SETUP_LIMIT_S)
        if code != 0 or not msgs or msgs[0]["event"] != "setup":
            print("set-up failed; no result", file=sys.stderr)
            return 2
        setups.append(msgs[0]["setup_s"])
    limit = TOTAL_LIMIT_S - (time.monotonic() - start)
    msgs, code, killed, rss_mb = run_worker(wargs, limit)
    if not msgs or msgs[0]["event"] != "setup":
        print("set-up failed; no result", file=sys.stderr)
        return 2
    setups.append(msgs[0]["setup_s"])
    print("versions " + json.dumps(msgs[0]["versions"], sort_keys=True))

    rounds = [m for m in msgs if m["event"] == "round"]
    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    for k, r in enumerate(rounds):
        print(f"round {k} traced={int(r['traced'])} wall_s={r['wall_s']:.4f} "
              f"checks={r['checks']} failed={r['failed']} paths={r['paths']} "
              f"aborted={r['aborted']} sha256={r['sha256'][:16]}")
    cut = code != 0 or killed
    if cut:
        print(f"worker {'killed at the time limit' if killed else 'exited'} "
              f"with status {code}", file=sys.stderr)
    checks_per_round = rounds[0]["checks"] if rounds else 1
    attempted = sum(r["checks"] for r in rounds) + (checks_per_round if cut else 0)
    failed = sum(r["failed"] for r in rounds) + (checks_per_round if cut else 0)
    hashes = {r["sha256"] for r in rounds}
    counts_repeat = all(t["counts"] == traced[0]["counts"] for t in traced)
    correct = (not cut and bool(plain) and failed == 0 and len(hashes) == 1
               and (not args.trace or (bool(traced) and counts_repeat)))
    if rounds:
        print(f"report_sha256 {args.workload} {rounds[0]['sha256']}")

    wall = round_time(plain) if plain else time.monotonic() - start
    first = plain[0] if plain else {"paths": 0, "replica_steps": 0, "aborted": 0}
    walls = [r["wall_s"] for r in plain] or [wall]
    q1, q3 = quartiles(walls)
    aborted_frac = first["aborted"] / first["paths"] if first["paths"] else 0.0
    print(f"rounds={len(plain)} round wall_s median={statistics.median(walls):.4f} "
          f"q1={q1:.4f} q3={q3:.4f}; sum of per-check medians={wall:.4f}")
    print(f"setup_s samples={[round(s, 4) for s in setups]}")
    print(f"replica_steps_per_s={first['replica_steps'] / wall:.6g} "
          f"aborted_frac={aborted_frac:.6g} cpu_over_wall="
          f"{sum(r['cpu_s'] for r in plain) / sum(walls):.4f}")

    if args.trace:
        layers = dict(traced[0]["layers"]) if traced else {}
        layers.update(next((m["metrics"] for m in msgs
                            if m["event"] == "probes"), {}))
        layers["engine.replica_steps_per_s"] = first["replica_steps"] / wall
        layers["estimators.aborted_frac"] = aborted_frac
        if traced:
            layers["trace.overhead_s"] = round_time(traced) - wall
        values = {m["name"]: layers.get(m["name"], 0.0) for m in wanted}
    else:
        values = {
            "wall_s": wall,
            "paths_per_s": first["paths"] / wall,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": rss_mb,
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    for name, v in metrics.items():
        print(f"{name} = {v['value']:.6g} {v['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
