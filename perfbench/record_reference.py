"""Record reference.json: every op's outputs at the default seed.

Usage (from the repository root): python3 perfbench/record_reference.py

Run it only on the commit whose outputs are the reference; run.py compares
later commits against the file at the default seed.  Outputs must pass
their invariants before they are recorded.
"""
from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import checks
import workloads
from run import HERE, WORK, spawn


def main() -> int:
    os.makedirs(WORK, exist_ok=True)
    reference = {}
    for name in sorted(workloads.WORKLOADS):
        rundir = tempfile.mkdtemp(dir=WORK, prefix=f"reference-{name}-")
        try:
            ops = workloads.build(name, workloads.DEFAULT_SEED, rundir)
            res = spawn(rundir, ops, False, "reference")
            reference[name] = {}
            for op, got in zip(ops, res["ops"]):
                fails = checks.check(op, got["rc"], got["value"], None)
                if fails:
                    print(f"{name}/{op['name']}: {fails}", file=sys.stderr)
                    return 1
                reference[name][op["name"]] = checks.extract(op, got["value"])
        finally:
            shutil.rmtree(rundir, ignore_errors=True)
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
