"""Outside-in benchmark of deepntk: one command, three workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload {train_relu_deep,tanh_quadrature,depth_laws}
                             --seed N --seconds S --trace {0,1}

The workload's inputs are generated from --seed.  Workload processes run
one after another (a closed loop, one client) for about --seconds; each is
one single-threaded child that imports deepntk from ./src and runs the
workload's op sequence.  Every op's outputs are checked (checks.py).
Lines before the last describe every metric with its median, its highest
percentile that has at least ten samples beyond it, and its sample count;
the last line is one JSON object with the end-to-end metrics (--trace 0) or
the per-layer metrics of one extra traced process (--trace 1).

Exit code 2 (and no result) when the source tree or a workload process
cannot be started at all.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import checks
import workloads
from layers import per_layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")

#: import-only processes per run, on top of the workload processes, so that
#: setup_s is a median of at least this many samples more
SETUP_SPAWNS = 2
MIN_PROCESSES = 3
#: a run ends (killing a stuck workload process) this long after it starts
RUN_LIMIT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


class StartError(RuntimeError):
    """The program could not be imported or a workload process crashed."""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for var in THREAD_VARS:  # numpy reads these at import, so set them here
        env[var] = "1"
    return env


def spawn(rundir: str, ops: list, trace: bool, tag: str,
          deadline: float = float("inf")) -> dict:
    """Run one child to completion; return its result plus parent-side measures.

    ``deadline`` is a ``time.monotonic()`` value; a child still running then
    is killed.
    """
    spec = {"src": SRC, "ops": ops, "trace": trace,
            "result": os.path.join(rundir, f"{tag}.result.json"),
            "spans": os.path.join(rundir, f"{tag}.spans.npz")}
    spec_path = os.path.join(rundir, f"{tag}.spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    outdir = os.path.join(rundir, "out")
    shutil.rmtree(outdir, ignore_errors=True)
    os.makedirs(outdir)
    spawned = time.monotonic()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "child.py"), spec_path],
                            cwd=rundir, env=_child_env(), stdout=sys.stderr)
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                raise StartError(f"{tag}: workload process still running at the "
                                 "run's time limit")
            time.sleep(0.005)
    except BaseException:
        proc.kill()
        os.wait4(proc.pid, 0)
        proc.returncode = -9
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 or not os.path.exists(spec["result"]):
        raise StartError(f"{tag}: workload process exited with {proc.returncode}")
    with open(spec["result"], encoding="utf-8") as fh:
        res = json.load(fh)
    res["setup_s"] = res["ready"] - spawned
    res["cpu_s"] = usage.ru_utime + usage.ru_stime
    res["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # Linux reports KiB
    return res


def _check(ops: list, res: dict, reference: dict | None) -> int:
    """Check every op of one process; print failures; return the failed count."""
    failed = 0
    for op, got in zip(ops, res["ops"]):
        ref = None if reference is None else reference[op["name"]]
        fails = checks.check(op, got["rc"], got["value"], ref)
        for msg in fails:
            print(f"FAIL {op['name']}: {msg}", file=sys.stderr)
        failed += bool(fails)
    return failed


def _describe(name: str, unit: str, values: list[float]) -> str:
    """Median, highest percentile with >= 10 samples beyond it, sample count."""
    xs = sorted(values)
    n = len(xs)
    line = f"{name}: median {statistics.median(xs):.6g} {unit}"
    if n >= 11:
        line += f", p{100.0 * (n - 10) / n:.0f} {xs[n - 11]:.6g} {unit}"
    else:
        line += ", no percentile has 10 samples beyond it"
    return line + f", n={n}"


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    os.makedirs(WORK, exist_ok=True)
    rundir = tempfile.mkdtemp(dir=WORK, prefix=f"{workload}-")
    try:
        ops = workloads.build(workload, seed, rundir)
        reference = None
        if seed == workloads.DEFAULT_SEED:
            with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
                reference = json.load(fh)[workload]
        spawn(rundir, [], False, "warmup", deadline)  # warms the file cache
        setup = [spawn(rundir, [], False, f"setup{i}", deadline)["setup_s"]
                 for i in range(SETUP_SPAWNS)]
        samples, attempted, failed, threads = [], 0, 0, set()
        start = time.monotonic()
        while True:
            res = spawn(rundir, ops, False, f"run{len(samples)}", deadline)
            samples.append(res)
            attempted += len(ops)
            failed += _check(ops, res, reference)
            threads.add(res["threads"])
            elapsed = time.monotonic() - start
            per_process = elapsed / len(samples)
            if len(samples) >= MIN_PROCESSES and elapsed + per_process > seconds:
                break
        series = {"wall_s": [s["wall_s"] for s in samples],
                  "setup_s": setup + [s["setup_s"] for s in samples],
                  "cpu_s": [s["cpu_s"] for s in samples],
                  "peak_rss_mb": [s["peak_rss_mb"] for s in samples]}
        for name, unit in END_TO_END_UNITS.items():
            print(_describe(name, unit, series[name]))
        print(f"fail_ratio: {failed / attempted:.6g} ratio ({failed} of {attempted} ops)")
        print(f"threads per workload process: {sorted(threads)} "
              f"({'='.join(THREAD_VARS)}=1); nproc {os.cpu_count()}")
        for i, op in enumerate(ops):
            print(_describe(f"op.{op['name']}", "s", [s["ops"][i]["s"] for s in samples]))
        medians = {k: statistics.median(v) for k, v in series.items()}
        if not trace:
            metrics = {k: {"value": medians[k], "unit": END_TO_END_UNITS[k]}
                       for k in END_TO_END_UNITS}
        else:
            traced = spawn(rundir, ops, True, "traced", deadline)
            attempted += len(ops)
            failed += _check(ops, traced, reference)
            shutil.copy(os.path.join(rundir, "traced.spans.npz"),
                        os.path.join(WORK, f"spans-{workload}.npz"))
            for op_name, share in traced["trace"]["coverage"].items():
                print(f"coverage.{op_name}: {share:.4f} of the op's wall time "
                      "is inside top-level layer spans")
            metrics = per_layer_metrics(traced["trace"]["summary"],
                                        traced["wall_s"] - medians["wall_s"])
            for name, m in metrics.items():
                print(f"{name}: {m['value']:.6g} {m['unit']}")
        return {"correct": failed == 0, "attempted": attempted, "failed": failed,
                "metrics": metrics}
    finally:
        shutil.rmtree(rundir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "deepntk", "__init__.py")):
        print(f"perfbench: no deepntk source tree at {SRC}", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except StartError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
