#!/usr/bin/env python3
"""Print the sha256 and wall time of every acceptance criterion's report.

Runs each criterion of the acceptance suite (``tests/test_acceptance.py``,
``CRITERIA``) at ``threads=1``, writes its JSONL report into a temporary
directory as ``generate()`` does, and prints one
``<criterion> <sha256> <seconds>`` line per report, in criterion order. A
refactor that must not change numbers proves it by printing the same hashes
before and after; the seconds column gives the per-criterion acceptance
timings:

    PYTHONPATH=src python3 scripts/report_hashes.py

With ``--expect BENCH_<n>.json`` each sha256 is compared with that file's
``criteria`` block; every criterion that differs (or is missing from either
side) is named on stderr and the exit status is 1.

The full run takes under a minute on a 2-core machine; truncation and
moments take most of it.
"""

import argparse
import hashlib
import json
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import test_acceptance as acc  # noqa: E402
from switchsde import reports as rp  # noqa: E402


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--expect", metavar="BENCH_<n>.json",
                        help="compare the hashes with this file's criteria")
    args = parser.parse_args()
    expected = None
    if args.expect:
        bench = json.loads(Path(args.expect).read_text())
        expected = {c["criterion"]: c["sha256"] for c in bench["criteria"]}
    got = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, fn in acc.CRITERIA:
            t0 = time.perf_counter()
            records, _ = fn(1)
            seconds = time.perf_counter() - t0
            path = Path(tmp) / f"{name}.jsonl"
            rp.write_jsonl(path, records)
            got[name] = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{name} {got[name]} {seconds:.2f}", flush=True)
    if expected is None:
        return 0
    differ = [name for name in {**got, **expected}
              if got.get(name) != expected.get(name)]
    if differ:
        print(f"differ from {args.expect}: {', '.join(differ)}", file=sys.stderr)
        return 1
    print(f"all {len(got)} match {args.expect}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
