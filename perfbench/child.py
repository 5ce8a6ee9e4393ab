"""One workload process: import deepntk, run the op sequence, report.

Usage: python3 child.py SPEC.json

SPEC.json names the source tree to import deepntk from, the ops (empty for
an import-only set-up sample), whether to trace, and where to write the
result.  The parent pins the BLAS thread count in the environment before
this process starts, because numpy reads it at import.

The result records the monotonic time at which the first op could start
(the parent subtracts its spawn time to get setup_s), the wall time from
the first op's start to the last op's end, each op's exit code and time,
and the thread count.  A traced run adds the per-function span summary.
"""
from __future__ import annotations

import contextlib
import json
import os
import sys
import time
import traceback


def _threads() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


def _run_op(op: dict):
    """Return (exit code, library result) for one op."""
    import deepntk.cli
    from deepntk import activations, asymptotics, phase

    if op["kind"] == "cli":
        return deepntk.cli.main(list(op["argv"])), None
    if op["kind"] == "expansion":
        relu = activations.make_activation("relu")
        value = []
        for arch, sigma_b, sigma_w in op["cases"]:
            res = asymptotics.check_expansion(arch, relu, phase.InitParams(sigma_b, sigma_w),
                                              op["depth"], gamma0=op["gamma0"])
            value.append({k: float(v) for k, v in res.items()})
        return 0, value
    raise ValueError(f"unknown op kind {op['kind']!r}")


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    import numpy  # noqa: F401
    import scipy  # noqa: F401
    import deepntk
    import deepntk.cli
    import deepntk.empirical  # noqa: F401  (imported lazily by `empirical`)

    src = os.path.realpath(spec["src"])
    if os.path.commonpath([os.path.realpath(deepntk.__file__), src]) != src:
        print(f"deepntk imported from {deepntk.__file__}, not from {src}", file=sys.stderr)
        return 2
    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    result = {"ready": time.monotonic(), "threads": _threads(), "ops": []}
    first = last = time.perf_counter()
    for op in spec["ops"]:
        ctx = tracer.op(op["name"]) if tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with ctx:
                rc, value = _run_op(op)
        except Exception:  # an op that raises counts as failed; the run goes on
            traceback.print_exc()
            rc, value = "exception", None
        last = time.perf_counter()
        result["ops"].append({"name": op["name"], "rc": rc, "s": last - t0,
                              "value": value})
    result["wall_s"] = last - first
    result["threads"] = max(result["threads"], _threads())
    if tracer is not None:
        result["trace"] = {"summary": tracer.summary(), "coverage": tracer.coverage()}
        tracer.dump(spec["spans"])
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
