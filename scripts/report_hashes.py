#!/usr/bin/env python3
"""Print the sha256 of every acceptance criterion's JSONL report.

Runs the acceptance suite's ``generate(threads=1)`` (``tests/test_acceptance.py``)
into a temporary directory and prints one ``<criterion> <sha256>`` line per
report, in criterion order. A refactor that must not change numbers proves it
by printing the same lines before and after:

    PYTHONPATH=src python3 scripts/report_hashes.py

The full run takes a few minutes (the Harnack sweep dominates).
"""

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import test_acceptance as acc  # noqa: E402


def main():
    argparse.ArgumentParser(description=__doc__,
                            formatter_class=argparse.RawDescriptionHelpFormatter
                            ).parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        acc.generate(threads=1, outdir=out)
        for name, _ in acc.CRITERIA:
            digest = hashlib.sha256((out / f"{name}.jsonl").read_bytes()).hexdigest()
            print(f"{name} {digest}", flush=True)


if __name__ == "__main__":
    main()
