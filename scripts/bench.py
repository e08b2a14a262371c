#!/usr/bin/env python3
"""Write the next ``BENCH_<n>.json`` at the repository root.

Drives the repository's own measuring tools as subprocesses and collects
their output; it measures nothing itself. The plan is fixed:

1. ``scripts/report_hashes.py``: the seconds and report sha256 of every
   acceptance criterion at ``threads=1``.
2. ``perfbench/run.py --seconds 25 --trace 0`` on each benchmark workload,
   three times at seeds 301, 302 and 303. The runs are interleaved (every
   workload at one seed, then every workload at the next), so a slow spell
   of the machine spreads over all workloads instead of hitting one.
3. ``perfbench/run.py --workload event_callback --seed 301 --seconds 25
   --trace 1``: the per-layer metrics of the callback path.

The file holds the machine fingerprint and versions that ``run.py`` prints,
the three blocks, and per workload the median of each end-to-end metric.
``n`` is one more than the highest ``BENCH_<n>.json`` already present. The
whole plan takes about eight minutes on a 2-core machine::

    python3 scripts/bench.py
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (301, 302, 303)
SECONDS = "25"
TRACED = ("event_callback", 301)


def run(argv: list) -> str:
    """Run one tool from the repository root; its standard output."""
    res = subprocess.run([sys.executable, *argv], cwd=ROOT,
                         capture_output=True, text=True)
    if res.returncode != 0:
        sys.stderr.write(res.stderr)
        raise SystemExit(f"{' '.join(argv)} exited with {res.returncode}")
    return res.stdout


def perfbench(workload: str, seed: int, trace: int) -> dict:
    """One ``perfbench/run.py`` run: its fingerprint and versions lines, the
    report sha256 and the closing JSON result."""
    out = run(["perfbench/run.py", "--workload", workload, "--seed",
               str(seed), "--seconds", SECONDS, "--trace", str(trace)])
    lines = out.splitlines()

    def tagged(tag):
        return next((ln.split(" ", 1)[1] for ln in lines
                     if ln.startswith(tag + " ")), None)

    sha = tagged("report_sha256")
    return {"workload": workload, "seed": seed,
            "fingerprint": json.loads(tagged("fingerprint")),
            "versions": json.loads(tagged("versions")),
            "report_sha256": sha.split()[1] if sha else None,
            **json.loads(lines[-1])}


def criteria() -> list:
    """The ``<criterion> <sha256> <seconds>`` lines of report_hashes.py."""
    out = run(["scripts/report_hashes.py"])
    return [{"criterion": name, "sha256": sha, "seconds": float(sec)}
            for name, sha, sec in (ln.split() for ln in out.splitlines())]


def next_path() -> Path:
    taken = [int(m.group(1)) for p in ROOT.glob("BENCH_*.json")
             if (m := re.fullmatch(r"BENCH_(\d+)\.json", p.name))]
    return ROOT / f"BENCH_{max(taken, default=0) + 1}.json"


def main():
    argparse.ArgumentParser(description=__doc__,
                            formatter_class=argparse.RawDescriptionHelpFormatter
                            ).parse_args()
    path = next_path()
    workloads = [w["name"] for w in
                 json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    t0 = time.perf_counter()
    crit = criteria()
    print(f"criteria: {sum(c['seconds'] for c in crit):.2f} s", flush=True)
    runs = []
    for seed in SEEDS:
        for w in workloads:
            r = perfbench(w, seed, 0)
            runs.append(r)
            print(f"{w} seed={seed} correct={r['correct']} " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()),
                flush=True)
    traced = perfbench(*TRACED, 1)
    medians = {w: {k: statistics.median(r["metrics"][k]["value"] for r in runs
                                        if r["workload"] == w)
                   for k in runs[0]["metrics"]}
               for w in workloads}
    bench = {"fingerprint": runs[0]["fingerprint"],
             "versions": runs[0]["versions"],
             "plan": {"seeds": list(SEEDS), "seconds": float(SECONDS),
                      "traced": {"workload": TRACED[0], "seed": TRACED[1]}},
             "criteria": crit,
             "end_to_end": {"medians": medians, "runs": runs},
             "per_layer": traced,
             "bench_s": time.perf_counter() - t0}
    path.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.name} in {bench['bench_s']:.0f} s")


if __name__ == "__main__":
    main()
